"""Acceptance gate.

Eight criteria, one pass/fail line each.  The heavy shortcut-collapse
experiment (criteria 5-7) trains five detector variants per seed on the
default planted-shortcut dataset and is shared through a session fixture;
attacked comparisons run on a distribution-shift evaluation set (different
patch base-level range), the desk-scale stand-in for cross-dataset testing.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats

from spinshield import attacks as atk
from spinshield import autodiff as ad
from spinshield import evaluation as ev
from spinshield import models as md
from spinshield import objectives as obj
from spinshield import synthdata as sd
from spinshield import training as tr
from spinshield.autodiff import Node
from spinshield.spectral import (
    PatchSignalClip,
    dft_onesided,
    idft_real,
    minmax_normalize_amplitude,
    recompose,
)

from test_autodiff import finite_diff

SEEDS = (0, 1, 2, 3, 4)
EPOCHS = {"baseline": 10, "naive_aug": 12, "spinshield": 25}
ADAPTIVE_STEPS = 12
ADAPTIVE_CLIPS = 80


def report(criterion, ok, detail=""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}" + (f"  ({detail})" if detail else ""))
    return ok


def report_interval(name, per_seed):
    """Print a per-seed value and a 95% t-interval of its mean over the
    seeds, to read a margin against seed noise; it decides nothing."""
    values = np.array(per_seed, dtype=float)
    half = scipy.stats.t.ppf(0.975, len(values) - 1) * values.std(ddof=1) / math.sqrt(len(values))
    print(f"    {name} per seed: {' '.join(f'{v:+.4f}' for v in values)}; "
          f"mean {values.mean():+.4f}, 95% t-interval [{values.mean() - half:+.4f}, {values.mean() + half:+.4f}]")


def forced_band_auc(bundle, labeled, k_s):
    spec = atk.AttackSpec(
        kind="band_mask", params=atk.BandMaskParams(bands=((k_s, 1),), tukey_alpha=0.0)
    )
    attacked = [atk.apply_attack(lc.clip, spec) for lc in labeled]
    labels = np.array([lc.y for lc in labeled])
    return ev.compute_auc(ev.score_clips(bundle, attacked), labels)


def suite_mean(report_obj):
    return float(np.mean([report_obj.attacks[k]["mean"] for k in atk.ALL_KINDS]))


@pytest.fixture(scope="session")
def experiment():
    """Train and evaluate every model variant across the acceptance seeds."""
    out = {"seeds": {}, "core_runtime": 0.0}
    for seed in SEEDS:
        spec = sd.DatasetSpec(seed=seed)
        dataset = sd.generate_dataset(spec)
        shift_spec = replace(spec, n_clips=600, base_level_range=(0.45, 0.85), seed=seed + 10_000)
        shift = sd.generate_dataset(shift_spec)
        _, _, test_idx = tr.split_indices(spec.n_clips, seed)
        test = [dataset[i] for i in test_idx]
        labels = np.array([lc.y for lc in test])

        row = {"spec": spec, "test": test, "labels": labels, "shift": shift}
        core_start = time.time()
        row["models"] = {}
        for mode, epochs in EPOCHS.items():
            config = tr.TrainConfig(mode=mode, epochs=epochs, seed=seed)
            row["models"][mode] = tr.train(config, dataset).bundle
        core = row["models"]

        row["clean"] = {
            name: ev.compute_auc(ev.score_clips(b, [lc.clip for lc in test]), labels)
            for name, b in core.items()
        }
        row["forced"] = {
            name: forced_band_auc(b, test, spec.shortcut_bin) for name, b in core.items()
        }
        row["sweep"] = {
            name: ev.notch_sweep(core[name], test) for name in ("baseline", "spinshield")
        }
        row["shift_reports"] = {
            name: ev.evaluate_under_attacks(b, shift, n_seeds=2, base_seed=seed)
            for name, b in core.items()
        }
        row["adaptive"] = {
            name: ev.adaptive_attack_suite(
                core[name], test[:ADAPTIVE_CLIPS], steps=ADAPTIVE_STEPS, budget=math.log(2)
            )["auc"]
            for name in ("baseline", "spinshield")
        }
        out["core_runtime"] += time.time() - core_start

        for name, lam in (("no_sym", "lambda_sym"), ("no_blind", "lambda_blind")):
            weights = obj.LossWeights(**{lam: 0.0})
            config = tr.TrainConfig(mode="spinshield", epochs=EPOCHS["spinshield"],
                                    weights=weights, seed=seed)
            bundle = tr.train(config, dataset).bundle
            row["models"][name] = bundle
            row["shift_reports"][name] = ev.evaluate_under_attacks(
                bundle, shift, n_seeds=2, base_seed=seed
            )

        out["seeds"][seed] = row
    return out


class TestCriterion1SpectralCorrectness:
    def test_invariants_on_random_clips(self):
        rng = np.random.default_rng(1)
        start = time.time()
        for i in range(1000):
            frames = int(rng.integers(8, 24))
            patches = int(rng.integers(1, 5))
            clip = PatchSignalClip(signals=rng.normal(size=(patches, frames)))
            spectrum = dft_onesided(clip)
            # round trip
            back = idft_real(spectrum)
            assert np.max(np.abs(back.signals - clip.signals)) < 1e-9
            # Parseval over the mirrored spectrum
            stop = spectrum.grid.n_bins - 1 if frames % 2 == 0 else spectrum.grid.n_bins
            coeffs = spectrum.amplitude * np.exp(1j * spectrum.phase)
            full = np.concatenate([coeffs, np.conj(coeffs[:, 1:stop][:, ::-1])], axis=1)
            lhs = np.sum(clip.signals**2, axis=1)
            rhs = np.sum(np.abs(full) ** 2, axis=1) / frames
            assert np.max(np.abs(lhs - rhs) / np.maximum(np.abs(lhs), 1e-12)) < 1e-8
            if i % 4 == 0:
                # linearity
                other = rng.normal(size=(patches, frames))
                s2 = dft_onesided(PatchSignalClip(signals=other))
                mix = dft_onesided(PatchSignalClip(signals=0.3 * clip.signals + 1.7 * other))
                z_mix = mix.amplitude * np.exp(1j * mix.phase)
                z_ref = 0.3 * coeffs + 1.7 * (s2.amplitude * np.exp(1j * s2.phase))
                assert np.max(np.abs(z_mix - z_ref)) < 1e-8
            if i % 4 == 1:
                # phase preservation through an amplitude-only recompose
                factor = rng.uniform(0.2, 2.0, size=spectrum.amplitude.shape)
                edited = dft_onesided(
                    recompose(spectrum.amplitude * factor, spectrum.phase, spectrum.grid)
                )
                live = (spectrum.amplitude > 1e-8) & (edited.amplitude > 1e-8)
                delta = np.angle(np.exp(1j * (edited.phase - spectrum.phase)))
                assert np.max(np.abs(delta[live])) < 1e-6
        elapsed = time.time() - start
        assert report("criterion 1: spectral correctness on 1000 random clips",
                      elapsed < 10.0, f"{elapsed:.1f}s")


class TestCriterion2GradientSoundness:
    def test_every_objective_passes_finite_differences(self):
        start = time.time()
        frames, patches = 8, 2
        width = patches * frames
        n_bins = frames // 2 + 1

        def check(build, arrays, rtol=1e-3):
            nodes = {n: Node(a) for n, a in arrays.items()}
            ad.backward(build(nodes))

            def value_fn(arrs):
                return float(build({n: Node(a) for n, a in arrs.items()}).value)

            for name in arrays:
                numeric = finite_diff(value_fn, arrays, name)
                denom = np.maximum(np.abs(numeric), 1e-6)
                assert np.max(np.abs(nodes[name].grad - numeric) / denom) < rtol, name

        for setting in range(20):
            rng = np.random.default_rng(1000 + setting)
            bundle = md.init_bundle(
                input_width=width, n_bins=n_bins, hidden=6, feature_dim=4,
                gen_hidden=4, domain_hidden=3, seed=setting,
            )
            arrays = md.named_arrays(bundle)
            clips = [PatchSignalClip(signals=rng.normal(size=(patches, frames))) for _ in range(3)]
            x_clean = np.stack([c.signals.reshape(-1) for c in clips])
            x_env = x_clean + 0.1 * rng.normal(size=x_clean.shape)
            labels = np.array([0, 1, 1])
            weights = obj.LossWeights()

            det_arrays = {n: a for n, a in arrays.items() if not n.startswith("gen.")}

            def total_graph(nodes):  # Eq. 8 + Eq. 11 + Eq. 12 (+ Eq. 10 un-reversed)
                h_c = md.encoder_forward(md.standardize_rows(Node(x_clean)), nodes)
                h_e = md.encoder_forward(md.standardize_rows(Node(x_env)), nodes)
                lc = md.classifier_logits(h_c, nodes)
                le = md.classifier_logits(h_e, nodes)
                l_det = obj.detector_loss(lc, le, labels)
                l_sym = obj.symmetric_kl(ad.softmax(lc), ad.softmax(le))
                l_blind = obj.blindness_loss(
                    h_c, h_e, lambda z: md.domain_logits(z, nodes, through_grl=False),
                    through_grl=False,
                )
                return obj.total_loss(l_det, l_sym, l_blind, weights)

            check(total_graph, det_arrays)

            q_arrays = {n: a for n, a in arrays.items() if ".wq" in n or ".bq" in n}
            h_c_fixed = rng.normal(size=(3, 4))
            h_e_fixed = rng.normal(size=(3, 4))

            def blind_graph(nodes):  # Eq. 10 at the discriminator parameters
                return obj.blindness_loss(
                    Node(h_c_fixed), Node(h_e_fixed),
                    lambda z: md.domain_logits(z, nodes, through_grl=False),
                )

            check(blind_graph, q_arrays)

            gen_arrays = {n: a for n, a in arrays.items() if n.startswith("gen.")}
            amps = np.stack([dft_onesided(c).amplitude for c in clips]).reshape(-1, n_bins)
            norms = np.stack(
                [minmax_normalize_amplitude(dft_onesided(c)) for c in clips]
            ).reshape(-1, n_bins)
            phases = np.stack([dft_onesided(c).phase for c in clips]).reshape(-1, n_bins)
            h_clean_const = rng.normal(size=(3, 4))

            def gen_graph(nodes):  # Eq. 7
                full = {**{n: Node(a) for n, a in det_arrays.items()}, **nodes}
                signals, mask = md.lsa_perturb_graph(
                    amps, norms, phases, frames, full, bundle.alpha, bundle.delta
                )
                x = ad.reshape(signals, (3, width))
                h_env = md.encoder_forward(md.standardize_rows(x), full)
                logits = md.classifier_logits(h_env, full)
                d_mmd = obj.mmd(Node(h_clean_const), h_env, obj.KernelSpec(bandwidth=1.0))
                return obj.generator_loss(logits, labels, d_mmd, mask, weights)

            check(gen_graph, gen_arrays)

        # GRL sign-flip paired-run assertion
        rng = np.random.default_rng(555)
        h_val = rng.normal(size=(4, 4))
        bundle = md.init_bundle(input_width=width, n_bins=n_bins, hidden=6,
                                feature_dim=4, domain_hidden=3, seed=0)
        params = {n: Node(a) for n, a in md.named_arrays(bundle).items()}

        def encoder_grads(through_grl):
            h = Node(h_val)
            logits = md.domain_logits(h, params, through_grl=through_grl)
            ad.backward(ad.mean_all(ad.cross_entropy_with_logits(logits, np.array([0, 1, 0, 1]))))
            grad = h.grad.copy()
            ad.zero_grad(params.values())
            return grad

        np.testing.assert_allclose(encoder_grads(True), -encoder_grads(False), atol=1e-12)

        elapsed = time.time() - start
        assert report("criterion 2: gradient soundness (20 settings + GRL pairing)",
                      elapsed < 60.0, f"{elapsed:.1f}s")


class TestCriterion3LossIdentities:
    def test_exact_identities(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(6, 4))
        b = rng.normal(size=(5, 4))
        ok = (
            obj.mmd(a, a).value <= 1e-12
            and obj.mmd(a, b).value == obj.mmd(b, a).value
            and obj.cross_entropy(np.array([1.0, 0.0]), 0) == 0.0
            and obj.mask_regularizer(md.ModulationMask(values=np.ones((2, 3, 5)))).value == 0.0
        )
        p = rng.dirichlet([1, 1], size=4)
        ok = ok and obj.symmetric_kl(p, p.copy()).value == 0.0
        q = p.copy()
        q[0] = [0.9, 0.1] if p[0, 0] < 0.5 else [0.1, 0.9]
        ok = ok and obj.symmetric_kl(p, q).value > 0.0
        assert report("criterion 3: loss identities exact within 1e-12", ok)


class TestCriterion4LsaContract:
    def test_contract_on_500_random_pairs(self):
        rng = np.random.default_rng(99)
        ok = True
        for trial in range(500):
            frames = int(rng.choice([8, 16]))
            patches = int(rng.integers(2, 5))
            n_bins = frames // 2 + 1
            bundle = md.init_bundle(
                input_width=patches * frames, n_bins=n_bins, seed=int(rng.integers(1 << 30))
            )
            clip = PatchSignalClip(signals=rng.normal(size=(patches, frames)))
            spectrum = dft_onesided(clip)
            perturbed, mask = md.lsa_perturb(spectrum, bundle)
            after = dft_onesided(perturbed)
            live = spectrum.amplitude > 1e-12
            ratio = np.log(after.amplitude[live] / spectrum.amplitude[live])
            ok &= np.all(after.amplitude[live] > 0)
            ok &= np.max(np.abs(ratio)) <= bundle.alpha + 1e-9
            both = (spectrum.amplitude > 1e-8) & (after.amplitude > 1e-8)
            delta = np.angle(np.exp(1j * (after.phase - spectrum.phase)))
            ok &= np.max(np.abs(delta[both])) < 1e-6
            ok &= np.all(mask.values > 0)
            if trial % 25 == 0:
                neutral = md.ModelBundle(
                    {n: np.zeros_like(a) if n.startswith("gen.") else a for n, a in bundle.params.items()},
                    bundle.alpha, bundle.delta,
                )
                ident, ident_mask = md.lsa_perturb(spectrum, neutral)
                ok &= np.max(np.abs(ident.signals - clip.signals)) < 1e-9
                expected = spectrum.amplitude / (spectrum.amplitude + bundle.delta)
                ok &= np.max(np.abs(ident_mask.values[0] - expected)) == 0.0
            if not ok:
                break
        assert report("criterion 4: LSA contract on 500 random pairs", bool(ok))


class TestCriterion5ShortcutCollapse:
    def test_collapse_and_recovery(self, experiment):
        rows = experiment["seeds"]
        base_clean = np.mean([rows[s]["clean"]["baseline"] for s in SEEDS])
        spin_clean = np.mean([rows[s]["clean"]["spinshield"] for s in SEEDS])
        base_forced = np.mean([rows[s]["forced"]["baseline"] for s in SEEDS])
        spin_forced = np.mean([rows[s]["forced"]["spinshield"] for s in SEEDS])
        drops = []
        for s in SEEDS:
            sweep = rows[s]["sweep"]["spinshield"]
            drops.append(max(sweep[0]["auc"] - r["auc"] for r in sweep[1:]))
        drop = float(np.mean(drops))
        ordering_hits = sum(
            1 for s in SEEDS
            if suite_mean(rows[s]["shift_reports"]["spinshield"])
            > suite_mean(rows[s]["shift_reports"]["baseline"])
        )
        checks = {
            "baseline clean >= 0.95": base_clean >= 0.95,
            "spinshield clean >= 0.90": spin_clean >= 0.90,
            "baseline forced <= clean - 0.20": base_forced <= base_clean - 0.20,
            "spinshield forced >= baseline + 0.10": spin_forced >= base_forced + 0.10,
            "spinshield sweep drop <= 0.08": drop <= 0.08,
            "attacked ordering spin > base in >= 4/5 seeds": ordering_hits >= 4,
            "runtime <= 15 min": experiment["core_runtime"] <= 900.0,
        }
        detail = (
            f"clean={base_clean:.3f} forced(base)={base_forced:.3f} "
            f"forced(spin)={spin_forced:.3f} drop={drop:.3f} "
            f"ordering={ordering_hits}/5 runtime={experiment['core_runtime']:.0f}s"
        )
        ok = all(checks.values())
        report("criterion 5: shortcut collapse and suppression", ok, detail)
        report_interval("drop", drops)
        assert ok, {k: v for k, v in checks.items() if not v}

    def test_baseline_sweep_dips_at_shortcut_bin(self, experiment):
        for s in SEEDS:
            spec = experiment["seeds"][s]["spec"]
            sweep = experiment["seeds"][s]["sweep"]["baseline"]
            per_bin = {r["bin"]: r["auc"] for r in sweep[1:]}
            worst = min(per_bin, key=per_bin.get)
            assert abs(worst - spec.shortcut_bin) <= 1


class TestCriterion6AblationOrdering:
    def test_ordering_and_ablations(self, experiment):
        rows = experiment["seeds"]
        chain_hits = 0
        for s in SEEDS:
            b = suite_mean(rows[s]["shift_reports"]["baseline"])
            n = suite_mean(rows[s]["shift_reports"]["naive_aug"])
            sp = suite_mean(rows[s]["shift_reports"]["spinshield"])
            chain_hits += b < n < sp
        full = np.mean([suite_mean(rows[s]["shift_reports"]["spinshield"]) for s in SEEDS])
        no_sym = np.mean([suite_mean(rows[s]["shift_reports"]["no_sym"]) for s in SEEDS])
        no_blind = np.mean([suite_mean(rows[s]["shift_reports"]["no_blind"]) for s in SEEDS])
        checks = {
            "baseline < naive_aug < spinshield in >= 4/5 seeds": chain_hits >= 4,
            "dropping L_sym degrades attacked AUC": no_sym < full,
            "dropping L_blind degrades attacked AUC": no_blind < full,
        }
        detail = (
            f"chain={chain_hits}/5 full={full:.4f} no_sym={no_sym:.4f} no_blind={no_blind:.4f}"
        )
        ok = all(checks.values())
        report("criterion 6: ablation ordering", ok, detail)
        for name in ("no_sym", "no_blind"):
            report_interval(f"full - {name}", [suite_mean(rows[s]["shift_reports"]["spinshield"])
                                               - suite_mean(rows[s]["shift_reports"][name]) for s in SEEDS])
        assert ok, {k: v for k, v in checks.items() if not v}


class TestCriterion7AdaptiveOrdering:
    def test_spinshield_not_worse_under_white_box(self, experiment):
        rows = experiment["seeds"]
        hits = sum(
            1 for s in SEEDS
            if rows[s]["adaptive"]["spinshield"] >= rows[s]["adaptive"]["baseline"]
        )
        values = {
            s: (round(rows[s]["adaptive"]["baseline"], 3),
                round(rows[s]["adaptive"]["spinshield"], 3))
            for s in SEEDS
        }
        ok = hits >= 4
        report("criterion 7: adaptive white-box ordering", ok, f"hits={hits}/5 {values}")
        assert ok

    def test_white_box_attack_collapses_baseline(self, experiment):
        rows = experiment["seeds"]
        mean_base = np.mean([rows[s]["adaptive"]["baseline"] for s in SEEDS])
        assert mean_base < 0.6


class TestCriterion8Determinism:
    def test_checkpoints_and_reports_reproduce(self, experiment, tmp_path):
        seed = SEEDS[0]
        row = experiment["seeds"][seed]
        config = tr.TrainConfig(mode="baseline", epochs=EPOCHS["baseline"], seed=seed)
        dataset = sd.generate_dataset(sd.DatasetSpec(seed=seed))
        retrained = tr.train(config, dataset).bundle
        md.save_bundle(retrained, tmp_path / "a.ckpt")
        md.save_bundle(row["models"]["baseline"], tmp_path / "b.ckpt")
        same_ckpt = (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

        rep = row["shift_reports"]["baseline"]
        again = ev.evaluate_under_attacks(
            row["models"]["baseline"], row["shift"], n_seeds=2, base_seed=seed
        )
        same_eval = again.to_dict() == rep.to_dict()
        replayed = ev.replay_report(rep, row["models"]["baseline"], row["shift"])
        same_replay = replayed.to_dict() == rep.to_dict()

        ok = same_ckpt and same_eval and same_replay
        report(
            "criterion 8: determinism and provenance",
            ok,
            f"ckpt={same_ckpt} eval={same_eval} replay={same_replay}",
        )
        assert ok
