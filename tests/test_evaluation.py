import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinshield import autodiff as ad
from spinshield import evaluation
from spinshield import models as md
from spinshield import synthdata as sd
from spinshield.attacks import AttackSpec, NotchParams, apply_attack, spec_from_dict
from spinshield.errors import DataFormatError
from spinshield.spectral import dft_onesided, forward_stack

import graph_reference
from test_autodiff import finite_diff


def pair_counting_auc(scores, labels):
    """Exhaustive pair iteration with half credit for ties."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = np.where(labels == 1)[0]
    neg = np.where(labels == 0)[0]
    total = 0.0
    for i in pos:
        for j in neg:
            if scores[i] > scores[j]:
                total += 1.0
            elif scores[i] == scores[j]:
                total += 0.5
    return total / (len(pos) * len(neg))


@pytest.fixture(scope="module")
def small_world():
    dataset = sd.generate_dataset(sd.DatasetSpec(n_clips=40, seed=77))
    bundle = md.init_bundle(input_width=16 * 16, n_bins=9, seed=77)
    return bundle, dataset


class TestComputeAuc:
    def test_perfect_separation(self):
        assert evaluation.compute_auc(np.array([0.9, 0.8, 0.1, 0.2]), np.array([1, 1, 0, 0])) == 1.0

    def test_spec_example(self):
        scores = np.array([0.1, 0.4, 0.35, 0.8])
        labels = np.array([0, 0, 1, 1])
        assert evaluation.compute_auc(scores, labels) == 0.75

    def test_all_ties_is_half(self):
        assert evaluation.compute_auc(np.full(6, 0.5), np.array([0, 1, 0, 1, 0, 1])) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            evaluation.compute_auc(np.array([0.1, 0.2]), np.array([1, 1]))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_matches_pair_counting(self, seed):
        r = np.random.default_rng(seed)
        n = int(r.integers(4, 30))
        scores = np.round(r.normal(size=n), 1)  # coarse values force ties
        labels = np.zeros(n, dtype=int)
        labels[: max(1, n // 3)] = 1
        r.shuffle(labels)
        got = evaluation.compute_auc(scores, labels)
        assert abs(got - pair_counting_auc(scores, labels)) < 1e-12


class TestEvaluateUnderAttacks:
    def test_identity_attack_equals_clean(self, small_world):
        bundle, dataset = small_world
        report = evaluation.evaluate_under_attacks(
            bundle, dataset, kinds=("identity",), n_seeds=1
        )
        assert report.attacks["identity"]["aucs"][0] == report.clean_auc

    def test_report_fields_and_aggregation(self, small_world):
        bundle, dataset = small_world
        report = evaluation.evaluate_under_attacks(
            bundle, dataset, kinds=("notch", "tilt"), n_seeds=2, base_seed=5
        )
        for kind in ("notch", "tilt"):
            block = report.attacks[kind]
            assert len(block["aucs"]) == 2
            assert block["mean"] == pytest.approx(np.mean(block["aucs"]))
            assert block["std"] == pytest.approx(np.std(block["aucs"]))
            for seed_block in block["per_seed"]:
                assert len(seed_block["specs"]) == len(dataset)
                assert len(seed_block["scores"]) == len(dataset)

    def test_report_json_round_trip(self, small_world, tmp_path):
        bundle, dataset = small_world
        report = evaluation.evaluate_under_attacks(bundle, dataset, kinds=("notch",), n_seeds=1)
        path = tmp_path / "report.json"
        report.save(path)
        loaded = evaluation.EvalReport.load(path)
        assert loaded.to_dict() == report.to_dict()

    def test_replay_regenerates_bit_identically(self, small_world, tmp_path):
        bundle, dataset = small_world
        report = evaluation.evaluate_under_attacks(
            bundle, dataset, kinds=("band_mask", "snr_noise"), n_seeds=2, base_seed=3
        )
        path = tmp_path / "report.json"
        report.save(path)
        replayed = evaluation.replay_report(evaluation.EvalReport.load(path), bundle, dataset)
        assert replayed.to_dict() == report.to_dict()

    def test_missing_clip_id_rejected(self, small_world):
        bundle, dataset = small_world
        report = evaluation.evaluate_under_attacks(bundle, dataset, kinds=("notch",), n_seeds=1)
        with pytest.raises(DataFormatError, match="missing clip"):
            evaluation.replay_report(report, bundle, dataset[:5])

    def test_bad_report_format(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"format": "other"}))
        with pytest.raises(DataFormatError, match="format"):
            evaluation.EvalReport.load(path)

    def test_missing_or_malformed_report_file(self, tmp_path):
        path = tmp_path / "r.json"
        with pytest.raises(DataFormatError, match=f"^report not found: {re.escape(str(path))}$"):
            evaluation.EvalReport.load(path)
        path.write_text("{broken")
        with pytest.raises(DataFormatError, match=f"^bad report JSON in {re.escape(str(path))}: Expecting"):
            evaluation.EvalReport.load(path)

    @pytest.mark.parametrize("doc", [[1, 2], "x"])
    def test_non_object_report_rejected(self, tmp_path, doc):
        path = tmp_path / "r.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match="must be a JSON object"):
            evaluation.EvalReport.load(path)

    def test_inference_is_single_stream(self, small_world, monkeypatch, tmp_path):
        bundle, dataset = small_world
        calls = {"n": 0}
        original = md.lsa_forward

        def counting(*args, **kwargs):
            calls["n"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(md, "lsa_forward", counting)
        report = evaluation.evaluate_under_attacks(bundle, dataset, kinds=("notch",), n_seeds=1)
        evaluation.replay_report(report, bundle, dataset)
        evaluation.notch_sweep(bundle, dataset)
        evaluation.adaptive_attack_suite(bundle, dataset[:4], steps=3)
        assert calls["n"] == 0
        # the adversary runs where it should: once per feature dump
        evaluation.dump_features(bundle, dataset, tmp_path / "f.csv")
        assert calls["n"] == 1

    def test_inference_builds_no_graph(self, small_world, monkeypatch, tmp_path):
        bundle, dataset = small_world

        def refuse(node, *args, **kwargs):
            raise AssertionError("inference built an autodiff node")

        monkeypatch.setattr(ad.Node, "__init__", refuse)
        evaluation.score_clips(bundle, [lc.clip for lc in dataset])
        report = evaluation.evaluate_under_attacks(bundle, dataset, n_seeds=1)
        evaluation.replay_report(report, bundle, dataset)
        evaluation.notch_sweep(bundle, dataset)
        evaluation.adaptive_attack_suite(bundle, dataset[:4], steps=3)
        evaluation.dump_features(bundle, dataset, tmp_path / "f.csv")
        md.lsa_perturb(dft_onesided(dataset[0].clip), bundle)

    def test_suite_scores_are_those_of_per_clip_attacks(self, small_world):
        bundle, dataset = small_world
        report = evaluation.evaluate_under_attacks(bundle, dataset, n_seeds=2, base_seed=4)
        by_id = {lc.provenance["index"]: lc.clip for lc in dataset}
        clips = [by_id[cid] for cid in report.clip_ids]
        for kind, block in report.attacks.items():
            for seed_block in block["per_seed"]:
                attacked = [apply_attack(c, spec_from_dict(d)) for c, d in zip(clips, seed_block["specs"])]
                assert list(evaluation.score_clips(bundle, attacked)) == seed_block["scores"], kind

    def test_empty_clip_list_rejected(self, small_world):
        bundle, _ = small_world
        empty = evaluation.EvalReport(config={}, clip_ids=[], labels=[], clean_scores=[], clean_auc=0.5)
        for run in (
            lambda: evaluation.evaluate_under_attacks(bundle, []),
            lambda: evaluation.replay_report(empty, bundle, []),
            lambda: evaluation.notch_sweep(bundle, []),
        ):
            with pytest.raises(ValueError, match="at least one clip"):
                run()


class TestGraphReference:
    """Inference runs the plain forward, and gives bit for bit what the graph
    forms of the model give through constant nodes."""

    def test_scores_equal_the_graph_forward(self, small_world):
        bundle, dataset = small_world
        signals = np.stack([lc.clip.signals for lc in dataset])
        _, probs = graph_reference.clean_path(bundle, signals.reshape(len(signals), -1))
        assert np.array_equal(evaluation.score_clips(bundle, signals), probs[:, 1])
        assert np.array_equal(evaluation.score_clips(bundle, [lc.clip for lc in dataset]), probs[:, 1])

    def test_feature_rows_equal_the_graph_forward(self, small_world, tmp_path):
        bundle, dataset = small_world
        path = tmp_path / "f.csv"
        evaluation.dump_features(bundle, dataset, path)
        rows = np.array([[float(v) for v in line.split(",")[3:]] for line in path.read_text().splitlines()[1:]])
        ordered = sorted(dataset, key=lambda lc: lc.provenance["index"])
        signals = np.stack([lc.clip.signals for lc in ordered])
        h_clean, _ = graph_reference.clean_path(bundle, signals.reshape(len(signals), -1))
        amplitude, phase = forward_stack(signals)
        env, _ = graph_reference.env_views(bundle, amplitude, phase, signals.shape[-1])
        h_env, _ = graph_reference.clean_path(bundle, env.value)
        assert np.array_equal(rows, np.concatenate([h_clean, h_env]))

    def test_attack_objective_equals_the_graph_at_every_step(self, small_world, monkeypatch):
        # a budget small enough that the clipping binds within the run
        bundle, dataset = small_world
        budget, steps = 0.02, 6
        objective = evaluation._attack_objective
        seen = {"calls": 0, "labels": set(), "clipped": False}

        def checked(p, amp, phasor, window, y, u, want_grad):
            value, grad = objective(p, amp, phasor, window, y, u, want_grad)
            ref_value, ref_grad = graph_reference.attack_objective(bundle, amp, phasor, window, y, u)
            assert np.array_equal(value, ref_value)
            assert np.array_equal(grad, ref_grad) if want_grad else grad is None
            seen["calls"] += 1
            seen["labels"].add(y)
            seen["clipped"] |= bool(np.any(np.abs(u) == budget))
            return value, grad

        monkeypatch.setattr(evaluation, "_attack_objective", checked)
        clips = [lc for y in (0, 1) for lc in [lc for lc in dataset if lc.y == y][:3]]
        for lc in clips:
            evaluation.adaptive_attack(bundle, lc, steps=steps, budget=budget)
        assert seen["calls"] == len(clips) * (steps + 1)
        assert seen["labels"] == {0, 1} and seen["clipped"]


class TestAttackObjectiveGradient:
    def test_gradient_is_the_central_difference(self, small_world):
        # the white-box attack's gradient at the log-amplitude field, in
        # float64, against the objective's own value, for either label
        bundle, dataset = small_world
        rng = np.random.default_rng(8)
        for y in (0, 1):
            clip = next(lc.clip for lc in dataset if lc.y == y)
            amp, phase = forward_stack(clip.signals)
            phasor, window = np.exp(1j * phase), clip.frame_count
            field = {"u": rng.uniform(-0.3, 0.3, size=amp.shape)}

            def objective(want_grad):
                return evaluation._attack_objective(bundle.params, amp, phasor, window, y, field["u"], want_grad)

            grad = objective(True)[1]
            numeric = finite_diff(lambda _: objective(False)[0], field, "u")
            assert float(np.max(np.abs(numeric - grad))) <= 1e-6 * float(np.max(np.abs(grad)))


class TestNotchSweep:
    def test_layout_and_no_suppression_row(self, small_world):
        bundle, dataset = small_world
        rows = evaluation.notch_sweep(bundle, dataset)
        assert rows[0]["bin"] is None
        clean = evaluation.compute_auc(
            evaluation.score_clips(bundle, [lc.clip for lc in sorted(dataset, key=lambda l: l.provenance["index"])]),
            np.array([lc.y for lc in sorted(dataset, key=lambda l: l.provenance["index"])]),
        )
        assert rows[0]["auc"] == clean
        assert [r["bin"] for r in rows[1:]] == list(range(1, 8))
        assert all(r["omega_k"] == r["bin"] / 16 for r in rows[1:])

    def test_rows_are_those_of_per_clip_notches(self, small_world):
        bundle, dataset = small_world
        ordered = sorted(dataset, key=lambda lc: lc.provenance["index"])
        labels = np.array([lc.y for lc in ordered])
        for row in evaluation.notch_sweep(bundle, dataset)[1:]:
            spec = AttackSpec(kind="notch", params=NotchParams(center_bin=row["bin"], width_bins=1))
            attacked = [apply_attack(lc.clip, spec) for lc in ordered]
            assert row["auc"] == evaluation.compute_auc(evaluation.score_clips(bundle, attacked), labels)

    def test_csv_format(self, small_world, tmp_path):
        bundle, dataset = small_world
        rows = evaluation.notch_sweep(bundle, dataset)
        path = tmp_path / "sweep.csv"
        evaluation.write_sweep_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "omega_k,auc"
        assert lines[1].startswith("none,")
        assert len(lines) == len(rows) + 1
        for line in lines[2:]:
            omega, auc = line.split(",")
            assert 0.0 < float(omega) < 0.5
            assert 0.0 <= float(auc) <= 1.0


class TestAdaptiveAttack:
    def test_zero_budget_is_identity(self, small_world):
        bundle, dataset = small_world
        clip, score = evaluation.adaptive_attack(bundle, dataset[0], steps=5, budget=0.0)
        np.testing.assert_array_equal(clip.signals, dataset[0].clip.signals)
        assert score == evaluation.score_clip(bundle, dataset[0].clip)

    def test_respects_budget_and_phase(self, small_world):
        from spinshield.spectral import dft_onesided

        bundle, dataset = small_world
        budget = math.log(2.0)
        attacked, _ = evaluation.adaptive_attack(bundle, dataset[0], steps=6, budget=budget)
        before = dft_onesided(dataset[0].clip)
        after = dft_onesided(attacked)
        live = before.amplitude > 1e-9
        ratio = np.log(after.amplitude[live] / before.amplitude[live])
        assert np.max(np.abs(ratio)) <= budget + 1e-6
        both = live & (after.amplitude > 1e-9)
        diff = np.angle(np.exp(1j * (after.phase - before.phase)))
        assert np.max(np.abs(diff[both])) < 1e-6

    def test_attack_does_not_decrease_wrong_label_pressure(self, small_world):
        bundle, dataset = small_world
        lc = dataset[1]
        _, score = evaluation.adaptive_attack(bundle, lc, steps=8)
        clean_score = evaluation.score_clip(bundle, lc.clip)
        if lc.y == 1:
            assert score <= clean_score + 1e-9
        else:
            assert score >= clean_score - 1e-9

    def test_negative_budget_rejected(self, small_world):
        bundle, dataset = small_world
        with pytest.raises(ValueError):
            evaluation.adaptive_attack(bundle, dataset[0], budget=-0.1)

    def test_suite_reports_auc(self, small_world):
        bundle, dataset = small_world
        out = evaluation.adaptive_attack_suite(bundle, dataset[:10], steps=3)
        assert 0.0 <= out["auc"] <= 1.0
        assert len(out["scores"]) == 10

    def test_suite_repeats_and_scores_each_clip_alone(self, small_world):
        bundle, dataset = small_world
        out = evaluation.adaptive_attack_suite(bundle, dataset[:8], steps=3)
        assert evaluation.adaptive_attack_suite(bundle, dataset[:8], steps=3) == out
        by_id = {lc.provenance["index"]: lc for lc in dataset[:8]}
        alone = [evaluation.adaptive_attack(bundle, by_id[cid], steps=3)[1] for cid in out["clip_ids"]]
        assert out["scores"] == alone


class TestDumpFeatures:
    def test_row_count_and_determinism(self, small_world, tmp_path):
        bundle, dataset = small_world
        path_a = tmp_path / "a.csv"
        path_b = tmp_path / "b.csv"
        evaluation.dump_features(bundle, dataset, path_a)
        evaluation.dump_features(bundle, dataset, path_b)
        lines_a = path_a.read_text().splitlines()
        assert len(lines_a) == 2 * len(dataset) + 1
        dim = bundle.params["enc.w2"].shape[1]
        assert lines_a[0] == "clip,view,y," + ",".join(f"h{j}" for j in range(dim))
        assert path_a.read_text() == path_b.read_text()

    def test_views_present(self, small_world, tmp_path):
        bundle, dataset = small_world
        path = tmp_path / "f.csv"
        evaluation.dump_features(bundle, dataset, path)
        views = [line.split(",")[1] for line in path.read_text().splitlines()[1:]]
        assert views.count("clean") == len(dataset)
        assert views.count("env") == len(dataset)
