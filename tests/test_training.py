import base64
import hashlib
import json

import numpy as np
import pytest

from spinshield import autodiff as ad
from spinshield import models as md
from spinshield import objectives as obj
from spinshield import synthdata as sd
from spinshield import training
from spinshield.autodiff import Node
from spinshield.errors import DataFormatError, NumericalAbort
from spinshield.objectives import LossWeights
from spinshield.spectral import forward_stack, keyed_rng, minmax_normalize

import graph_reference
from test_autodiff import finite_diff


@pytest.fixture(scope="module")
def tiny_dataset():
    # small but balanced enough for every split to carry both classes
    return sd.generate_dataset(sd.DatasetSpec(n_clips=120, seed=31))


def tiny_config(**kwargs):
    defaults = dict(mode="baseline", epochs=2, seed=31)
    defaults.update(kwargs)
    return training.TrainConfig(**defaults)


class TestConfig:
    def test_round_trip(self):
        config = training.TrainConfig(
            mode="naive_aug", epochs=7, batch_size=16,
            weights=LossWeights(gamma=2.0, lambda_sym=0.3), alpha=0.4, seed=9,
        )
        back = training.config_from_dict(training.config_to_dict(config))
        assert back == config

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            training.TrainConfig(mode="turbo")

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            training.TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            training.TrainConfig(detector_steps_per_generator_step=0)

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{broken")
        with pytest.raises(DataFormatError):
            training.load_config(path)


class TestSplits:
    def test_deterministic(self):
        a = training.split_indices(100, seed=4)
        b = training.split_indices(100, seed=4)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_proportions_and_disjoint(self):
        train, val, test = training.split_indices(200, seed=1)
        assert len(test) == 20 and len(val) == 20 and len(train) == 160
        combined = np.concatenate([train, val, test])
        assert len(np.unique(combined)) == 200

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            training.split_indices(5, seed=0)

    @pytest.mark.parametrize("seed", [0, 3, 31, 901, 2**63 + 5])
    def test_batch_positions_draw_the_training_permutation(self, seed):
        # train() permutes positions in its training rows; train_idx[positions]
        # is the permutation of train_idx itself, and the generator ends alike
        train_idx = training.split_indices(4000, seed)[0]
        by_index, by_position = (keyed_rng(seed, training._STREAM_BATCH) for _ in range(2))
        for _ in range(3):
            assert np.array_equal(by_index.permutation(train_idx), train_idx[by_position.permutation(len(train_idx))])
        states = [rng.bit_generator.state["state"] for rng in (by_index, by_position)]
        assert all(np.array_equal(states[0][k], states[1][k]) for k in ("counter", "key"))
        assert np.array_equal(by_index.integers(0, 2**63, 16), by_position.integers(0, 2**63, 16))


class TestAdam:
    def test_minimizes_quadratic(self):
        arrays = {"x": np.array([5.0, -3.0])}
        opt = training.Adam(arrays, lr=0.1)
        for _ in range(500):
            opt.step({"x": 2.0 * arrays["x"]})
        np.testing.assert_allclose(arrays["x"], 0.0, atol=1e-4)

    def test_flat_buffer_steps_like_one_update_per_array(self):
        # the per-array update, written out, is the reference; the caller's
        # dict reads the optimizer's buffer
        rng = np.random.default_rng(3)
        shapes = {"w": (4, 3), "b": (3,), "s": (1, 1)}
        arrays = {n: rng.normal(size=shape) for n, shape in shapes.items()}
        ref = {n: a.copy() for n, a in arrays.items()}
        opt = training.Adam(arrays, lr=0.05)
        m = {n: np.zeros(shape) for n, shape in shapes.items()}
        v = {n: np.zeros(shape) for n, shape in shapes.items()}
        for t in range(1, 6):
            grads = {n: rng.normal(size=shape) for n, shape in shapes.items()}
            opt.step(grads)
            for n, g in grads.items():
                m[n] = opt.beta1 * m[n] + (1.0 - opt.beta1) * g
                v[n] = opt.beta2 * v[n] + (1.0 - opt.beta2) * g * g
                ref[n] -= opt.lr * (m[n] / (1.0 - opt.beta1**t)) / (
                    np.sqrt(v[n] / (1.0 - opt.beta2**t)) + opt.eps)
            for n in shapes:
                assert np.array_equal(arrays[n], ref[n]), n
                assert arrays[n] is opt.arrays[n] and np.shares_memory(arrays[n], opt.flat)

    @staticmethod
    def _check_textbook_update(source, dtype):
        # the gradients written into the optimizer's own views, or handed
        # over in an outside dict: either way each step is the textbook
        # update in the arrays' dtype, bit for bit
        rng = np.random.default_rng(8)
        shapes = {"w": (5, 3), "b": (3,), "s": (2, 1)}
        arrays = {n: rng.normal(size=shape).astype(dtype) for n, shape in shapes.items()}
        p = {n: a.copy() for n, a in arrays.items()}
        opt = training.Adam(arrays, lr=0.01, betas=(0.8, 0.99), eps=1e-6)
        assert all(buf.dtype == dtype for buf in (opt.flat, opt.grad, opt.m, opt.v))
        m = {n: np.zeros(shape, dtype) for n, shape in shapes.items()}
        v = {n: np.zeros(shape, dtype) for n, shape in shapes.items()}
        b1, b2 = opt.beta1, opt.beta2
        for t in range(1, 51):
            grads = {n: (rng.normal(size=shape) * 10.0 ** rng.integers(-6, 3)).astype(dtype)
                     for n, shape in shapes.items()}
            if source == "buffer":
                for n, g in grads.items():
                    opt.grads[n][...] = g
                opt.step(opt.grads)
            else:
                opt.step(grads)
            for n, g in grads.items():
                m[n] = b1 * m[n] + (1.0 - b1) * g
                v[n] = b2 * v[n] + (1.0 - b2) * g * g
                p[n] = p[n] - opt.lr * (m[n] / (1.0 - b1**t)) / (np.sqrt(v[n] / (1.0 - b2**t)) + opt.eps)
                assert np.array_equal(arrays[n], p[n]), (t, n)
                assert np.array_equal(opt.grads[n], g) and np.shares_memory(opt.grads[n], opt.grad)
            assert np.array_equal(opt.m, np.concatenate([m[n].ravel() for n in shapes]))
            assert np.array_equal(opt.v, np.concatenate([v[n].ravel() for n in shapes]))
        assert all(a.dtype == dtype for a in (*arrays.values(), *p.values(), *m.values(), *v.values()))

    @pytest.mark.parametrize("source", ["buffer", "dict"])
    def test_in_place_step_is_the_textbook_update(self, source):
        self._check_textbook_update(source, np.float64)

    @pytest.mark.parametrize("source", ["buffer", "dict"])
    def test_float32_step_is_the_float32_textbook_update(self, source):
        # a training run's optimizers hold float32 arrays
        self._check_textbook_update(source, np.float32)

    def test_nan_in_the_gradient_buffer_changes_nothing(self):
        arrays = {"w": np.ones((2, 2)), "b": np.zeros(2)}
        opt = training.Adam(arrays, lr=0.1)
        opt.grad[:] = 1.0
        opt.step(opt.grads)
        before = (opt.flat.copy(), opt.m.copy(), opt.v.copy(), opt.t)
        opt.grads["b"][1] = np.nan
        with pytest.raises(FloatingPointError):
            opt.step(opt.grads)
        after = (opt.flat, opt.m, opt.v, opt.t)
        for a, b in zip(before, after):
            assert np.array_equal(a, b)

    def test_non_finite_gradient_changes_nothing(self):
        arrays = {"w": np.ones((2, 2)), "b": np.zeros(2)}
        opt = training.Adam(arrays, lr=0.1)
        opt.step({"w": np.ones((2, 2)), "b": np.ones(2)})
        before = (opt.flat.copy(), opt.m.copy(), opt.v.copy(), opt.t)
        with pytest.raises(FloatingPointError):
            opt.step({"w": np.ones((2, 2)), "b": np.array([1.0, np.inf])})
        after = (opt.flat, opt.m, opt.v, opt.t)
        for a, b in zip(before, after):
            assert np.array_equal(a, b)

    def test_spec_defaults(self):
        config = training.TrainConfig()
        assert config.learning_rate == 1e-3
        assert config.adam_betas == (0.9, 0.999)
        assert config.adam_eps == 1e-8
        assert config.batch_size == 32
        assert config.detector_steps_per_generator_step == 1
        assert config.weights.lambda_sym == 0.9
        assert config.weights.lambda_blind == 0.7
        assert config.alpha == 0.6


class TestStackDataset:
    """The chunked build equals one float32 pass over the whole stack, bit for
    bit, on the clips it is given and the spectra it is asked for."""

    @staticmethod
    def _whole_stack(clips):
        m, t = clips[0].clip.signals.shape
        signals = np.stack([lc.clip.signals for lc in clips]).astype(np.float32)
        amps, phases = forward_stack(signals)
        rows = ad.standardized(signals.reshape(len(clips), m * t), md.STANDARDIZE_EPS)[0]
        labels = np.array([lc.y for lc in clips], dtype=np.intp)
        return rows, labels, amps, minmax_normalize(amps), np.exp(1j * phases), m, t

    @pytest.mark.parametrize("frames", [16, 15])
    def test_chunks_equal_the_whole_stack(self, frames):
        dataset = sd.generate_dataset(sd.DatasetSpec(n_clips=513, frames=frames, patches=6, shortcut_bin=6,
                                                     phase_cue_strength=3.0, seed=7))
        assert training._STANDARDIZE_CHUNK == 256
        for n in (1, 255, 257, 513):
            rows, labels, amps, norms, phasors, m, t = self._whole_stack(dataset[:n])
            assert (m, t) == (6, frames)
            # every clip in order, and a shuffled selection that leaves some out, as a run's train+val
            shuffled = np.random.default_rng(n).permutation(n)[: max(1, n - n // 5)]
            for picked in (np.arange(n), shuffled):
                n_train = (len(picked) * 8) // 9
                for n_spectra, with_norms in ((0, False), (n_train, False), (n_train, True), (len(picked), True)):
                    got = training._stack_dataset([dataset[i] for i in picked], n_spectra, with_norms)
                    spectra = picked[:n_spectra]
                    want = (rows[picked], labels[picked], amps[spectra],
                            norms[spectra] if with_norms else None, phasors[spectra])
                    for a, b in zip(got, want, strict=True):
                        if b is None:
                            assert a is None
                            continue
                        assert a.shape == b.shape and a.dtype == b.dtype
                        assert a.dtype in (np.float32, np.complex64, np.intp)
                        assert np.array_equal(a, b), (n, n_spectra, with_norms)


class TestTraining:
    @pytest.mark.parametrize("mode", training.MODES)
    def test_one_clip_last_batch_trains(self, mode):
        # 121 clips leave 97 for training: batches of 32 end with one clip,
        # whose clean features have no spread for the paired term to measure
        result = training.train(tiny_config(mode=mode, epochs=1),
                                sd.generate_dataset(sd.DatasetSpec(n_clips=121, seed=31)))
        theta = [row for row in result.log_rows if row["phase"] == "theta"]
        assert len(theta) == 4
        assert all(np.isfinite(row[c]) for row in theta for c in ("L_det", "L_sym", "L_blind", "total"))

    @pytest.mark.parametrize("mode", training.MODES)
    def test_all_modes_run(self, tiny_dataset, mode):
        result = training.train(tiny_config(mode=mode), tiny_dataset)
        assert len(result.val_auc_by_epoch) == 2
        assert 0.0 <= min(result.val_auc_by_epoch)

    def test_bitwise_deterministic(self, tiny_dataset):
        a = training.train(tiny_config(mode="spinshield"), tiny_dataset)
        b = training.train(tiny_config(mode="spinshield"), tiny_dataset)
        for name, arr in md.named_arrays(a.bundle).items():
            np.testing.assert_array_equal(md.named_arrays(b.bundle)[name], arr)

    def test_baseline_disables_invariance_losses(self, tiny_dataset):
        result = training.train(tiny_config(mode="baseline"), tiny_dataset)
        theta_rows = [r for r in result.log_rows if r["phase"] == "theta"]
        assert all(r["L_sym"] == 0.0 and r["L_blind"] == 0.0 for r in theta_rows)
        assert not any(r["phase"] == "phi" for r in result.log_rows)

    def test_spinshield_logs_generator_steps(self, tiny_dataset):
        result = training.train(tiny_config(mode="spinshield"), tiny_dataset)
        phases = {r["phase"] for r in result.log_rows}
        assert phases == {"theta", "phi"}
        phi_rows = [r for r in result.log_rows if r["phase"] == "phi"]
        assert all(r["L_gen"] is not None and r["mmd"] is not None for r in phi_rows)

    def test_alternation_ratio(self, tiny_dataset):
        r1 = training.train(tiny_config(mode="spinshield"), tiny_dataset)
        r2 = training.train(
            tiny_config(mode="spinshield", detector_steps_per_generator_step=2), tiny_dataset
        )
        phi_1 = sum(1 for r in r1.log_rows if r["phase"] == "phi")
        phi_2 = sum(1 for r in r2.log_rows if r["phase"] == "phi")
        assert phi_2 == phi_1 // 2

    def test_divergence_guard(self, tiny_dataset, monkeypatch):
        original = training._detector_step

        def poisoned(*args):
            losses = original(*args)
            return (np.nan, *losses[1:])

        monkeypatch.setattr(training, "_detector_step", poisoned)
        with pytest.raises(NumericalAbort, match="step"):
            training.train(tiny_config(mode="baseline"), tiny_dataset)

    @pytest.mark.parametrize("kernel, position, message", [
        ("_detector_step", 0, "L_det is non-finite (nan) at step 0"),
        ("_detector_step", 1, "L_sym is non-finite (nan) at step 0"),
        ("_detector_step", 2, "discriminator loss is non-finite (nan) at step 0"),
        ("_detector_step", 3, "L_blind is non-finite (nan) at step 0"),
        ("_detector_step", 4, "total is non-finite (nan) at step 0"),
        ("_adversary_step", 0, "mmd is non-finite (nan) at step 1"),
        ("_adversary_step", 1, "mask_reg is non-finite (nan) at step 1"),
        ("_adversary_step", 2, "L_gen is non-finite (nan) at step 1"),
    ])
    def test_each_non_finite_loss_is_named(self, tiny_dataset, monkeypatch, kernel, position, message):
        # every loss a step returns is checked before its Adam step, the
        # discriminator's too, though it is not logged
        original = getattr(training, kernel)

        def poisoned(*args):
            losses = list(original(*args))
            losses[position] = np.float32(np.nan)
            return tuple(losses)

        monkeypatch.setattr(training, kernel, poisoned)
        with pytest.raises(NumericalAbort) as info:
            training.train(tiny_config(mode="spinshield", epochs=1), tiny_dataset)
        assert str(info.value) == message

    def test_log_csv_schema(self, tiny_dataset, tmp_path):
        result = training.train(tiny_config(mode="spinshield"), tiny_dataset)
        path = tmp_path / "log.csv"
        training.write_log(result.log_rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,phase,L_det,L_sym,L_blind,L_gen,mmd,mask_reg,total"
        assert len(lines) == len(result.log_rows) + 1
        first = lines[1].split(",")
        assert first[1] in ("theta", "phi")

    def test_inconsistent_clip_shapes_rejected(self, rng):
        from spinshield.spectral import PatchSignalClip
        from spinshield.synthdata import LabeledClip

        mixed = [
            LabeledClip(clip=PatchSignalClip(signals=rng.normal(size=(2, 16))), y=i % 2)
            for i in range(20)
        ]
        mixed.append(LabeledClip(clip=PatchSignalClip(signals=rng.normal(size=(3, 16))), y=0))
        with pytest.raises(ValueError, match="inconsistent"):
            training.train(tiny_config(), mixed)

    def test_bad_clip_shape_in_the_test_split_rejected(self, rng):
        # the run stacks only its train and validation clips, but checks every clip
        from spinshield.spectral import PatchSignalClip
        from spinshield.synthdata import LabeledClip

        clips = [LabeledClip(clip=PatchSignalClip(signals=rng.normal(size=(2, 16))), y=i % 2) for i in range(20)]
        test_idx = training.split_indices(len(clips), tiny_config().seed)[2]
        clips[test_idx[0]] = LabeledClip(clip=PatchSignalClip(signals=rng.normal(size=(3, 16))), y=0)
        with pytest.raises(ValueError, match="inconsistent"):
            training.train(tiny_config(), clips)


class TestAlternationIsolation:
    def test_each_step_binds_only_what_it_reads(self, tiny_dataset, monkeypatch):
        # the detector step reads no gen.* parameter and every parameter it
        # reads gets a gradient; the adversary step trains the generator and
        # reads the encoder and classifier without a gradient, nothing else
        detector, adversary = [], []
        original_detector = training._detector_step
        original_adversary = training._adversary_step

        class Stop(Exception):
            pass

        def recording_detector(arrays, grads, *args):
            grads["enc.w1"].fill(np.nan)  # the kernel writes every gradient anew
            losses = original_detector(arrays, grads, *args)
            detector.append((sorted(arrays), {n: g.copy() for n, g in grads.items()}))
            return losses

        def recording_adversary(frozen, gen, grads, *args):
            original_adversary(frozen, gen, grads, *args)
            adversary.append((sorted(frozen), sorted(gen), dict(grads)))
            raise Stop

        monkeypatch.setattr(training, "_detector_step", recording_detector)
        monkeypatch.setattr(training, "_adversary_step", recording_adversary)
        with pytest.raises(Stop):
            training.train(tiny_config(mode="spinshield"), tiny_dataset)
        [(read, grads)] = detector
        assert read == ["enc.b1", "enc.b2", "enc.w1", "enc.w2", "head.bg", "head.bq1",
                        "head.bq2", "head.wg", "head.wq1", "head.wq2"]
        assert sorted(grads) == read
        for name, grad in grads.items():
            assert np.any(grad != 0.0) and np.isfinite(grad).all(), name
        [(frozen, generator, gen_grads)] = adversary
        assert frozen == ["enc.b1", "enc.b2", "enc.w1", "enc.w2", "head.bg", "head.wg"]
        assert generator == sorted(gen_grads) == ["gen.b1", "gen.b2", "gen.w1", "gen.w2"]

    def test_non_finite_gradient_aborts(self, tiny_dataset, monkeypatch):
        original = training._detector_step

        def poisoned(arrays, grads, *args):
            losses = original(arrays, grads, *args)
            grads["enc.w2"][0, 0] = np.nan
            return losses

        monkeypatch.setattr(training, "_detector_step", poisoned)
        with pytest.raises(NumericalAbort, match=r"gradient of enc\.w2 is non-finite at step 0"):
            training.train(tiny_config(mode="baseline"), tiny_dataset)

    def test_detector_step_never_touches_generator(self, tiny_dataset, monkeypatch):
        seen = []
        original = training.Adam.step

        def spy(self, grads):
            seen.append(sorted(grads))
            return original(self, grads)

        monkeypatch.setattr(training.Adam, "step", spy)
        training.train(tiny_config(mode="spinshield"), tiny_dataset)
        det_steps = [names for names in seen if any(n.startswith("enc.") for n in names)]
        gen_steps = [names for names in seen if any(n.startswith("gen.") for n in names)]
        assert det_steps and gen_steps
        assert all(not any(n.startswith("gen.") for n in names) for names in det_steps)
        assert all(all(n.startswith("gen.") for n in names) for names in gen_steps)


    def test_non_finite_parameter_aborts(self, tiny_dataset, monkeypatch):
        original = training.Adam.step

        def poisoned(self, grads):
            original(self, grads)
            if "enc.w1" in self.arrays:
                self.arrays["enc.w1"][0, 0] = np.nan

        monkeypatch.setattr(training.Adam, "step", poisoned)
        with pytest.raises(NumericalAbort, match=r"parameter enc\.w1 is non-finite after the Adam step at step 0"):
            training.train(tiny_config(mode="baseline"), tiny_dataset)

    def test_stacked_detector_step_matches_per_view_graph(self):
        # the same losses built the way they read: each view through its own
        # encoder, classifier and discriminator passes
        rng = np.random.default_rng(19)
        b, m, t = 6, 2, 8
        signals = rng.normal(size=(b, m, t))
        amps, phases = forward_stack(signals)
        x_clean = signals.reshape(b, m * t)
        y = np.array([0, 1] * (b // 2))
        bundle = md.init_bundle(input_width=m * t, n_bins=t // 2 + 1, hidden=6, feature_dim=4,
                                gen_hidden=5, domain_hidden=3, seed=4)
        arrays = md.named_arrays(bundle)
        gen_graph = graph_reference.leaves({n: a for n, a in arrays.items() if n.startswith("gen.")})
        x_env = graph_reference.lsa_views(amps, phases, t, gen_graph, bundle.alpha, bundle.delta)[0].value
        weights = LossWeights()
        detector = {n: a for n, a in arrays.items() if n.startswith(("enc.", "head."))}

        def per_view(graph):
            def encode(x):
                z = md.standardize_rows(ad.const(x))
                h1 = ad.dense(z, graph["enc.w1"], graph["enc.b1"], "tanh")
                return ad.dense(h1, graph["enc.w2"], graph["enc.b2"])

            def classify(h):
                return ad.dense(h, graph["head.wg"], graph["head.bg"])

            def discriminate(h, p):
                q1 = ad.dense(h, p["head.wq1"], p["head.bq1"], "tanh")
                return ad.dense(q1, p["head.wq2"], p["head.bq2"])

            def ce(logits, label):
                return obj.batch_cross_entropy(logits, np.full(b, label, dtype=np.intp))

            h_clean, h_env = encode(x_clean), encode(x_env)
            logits_clean, logits_env = classify(h_clean), classify(h_env)
            l_det = obj.detector_loss(logits_clean, logits_env, y)
            l_sym = obj.symmetric_kl(ad.softmax(logits_clean), ad.softmax(logits_env))
            l_disc = ad.add(ce(discriminate(ad.const(h_clean.value), graph), 0),
                            ce(discriminate(ad.const(h_env.value), graph), 1))
            frozen = {n: ad.const(v.value) for n, v in graph.items() if n.startswith(("head.wq", "head.bq"))}
            confusion = ad.const(0.0)
            for h in (h_clean, h_env):
                logits = discriminate(h, frozen)
                confusion = ad.add(confusion, ad.scale(ad.add(ce(logits, 0), ce(logits, 1)), 0.5))
            l_blind = ad.add(obj.paired_displacement(h_clean, h_env), confusion)
            return obj.total_loss(l_det, l_sym, ad.add(l_disc, l_blind), weights)

        z_clean, z_env = (ad.standardized(x, md.STANDARDIZE_EPS)[0] for x in (x_clean, x_env))
        stacked = {n: np.full_like(a, np.nan) for n, a in detector.items()}
        losses = training._detector_step(detector, stacked, z_clean, z_env, y, weights)
        value = losses[-1]
        tracked = graph_reference.leaves(detector)
        loss = per_view(tracked)
        ad.backward(loss)
        ref_value, reference = float(loss.value), {n: node.grad for n, node in tracked.items()}
        assert value == pytest.approx(ref_value, rel=1e-12)
        assert sorted(stacked) == sorted(reference)
        for name, grad in stacked.items():
            scale = float(np.max(np.abs(reference[name])))
            assert scale > 0.0, name
            assert float(np.max(np.abs(grad - reference[name]))) <= 1e-12 * scale, name


def _float64(arrays):
    """Float64 (complex128) copies of a name -> array mapping, or of one array."""
    if isinstance(arrays, np.ndarray):
        return arrays.astype(np.complex128 if np.iscomplexobj(arrays) else np.float64)
    return {name: _float64(arr) for name, arr in arrays.items()}


class TestStepKernels:
    """At every step of real training runs, the closed-form step kernels and
    the adversary's forward, re-run on float64 casts of the run's float32
    inputs, give every loss, gradient and view of the reference graph bit for
    bit; and the run's own float32 outputs are within the tolerances below of
    that float64 re-run."""

    # the largest gap of a float32 output from its float64 re-run, relative
    # to the float64 output's largest magnitude: per gradient of each step,
    # per view array of the adversary's forward.  The most seen, here and
    # over 3 epochs of naive_aug and spinshield on 800 clips (seeds 5 and
    # 11), was 2.0e-3, 2.2e-6 and 2.9e-7.
    RTOL = {"detector": 1e-2, "adversary": 1e-4, "views": 1e-5}
    # and the largest absolute gap of a loss (4.1e-7 seen)
    LOSS_ATOL = 1e-5

    @staticmethod
    def _assert_equal(got, want):
        losses, grads = got
        ref_losses, ref_grads = want
        assert len(losses) == len(ref_losses)
        for value, ref in zip(losses, ref_losses):
            assert np.array_equal(value, ref), (value, ref)
        assert list(grads) == list(ref_grads)
        for name, grad in grads.items():
            assert grad.shape == ref_grads[name].shape, name
            assert np.array_equal(grad, ref_grads[name]), name

    @staticmethod
    def _gap(got, want):
        """The largest gap of ``got`` from ``want``, relative to ``want``'s largest magnitude."""
        gap = float(np.max(np.abs(got.astype(want.dtype) - want)))
        return gap / float(np.max(np.abs(want))) if gap else 0.0

    def _assert_close(self, got, want, kind):
        """Assert the float32 ``got`` within tolerance of the float64 ``want``."""
        losses, grads = got
        ref_losses, ref_grads = want
        for value, ref in zip(losses, ref_losses, strict=True):
            assert abs(float(value) - float(ref)) <= self.LOSS_ATOL, (value, ref)
        for name, grad in grads.items():
            assert grad.dtype == np.float32, name
            assert self._gap(grad, ref_grads[name]) <= self.RTOL[kind], (name, self._gap(grad, ref_grads[name]))

    def _run(self, monkeypatch, config, dataset):
        seen = {"detector": [], "adversary": 0, "views": 0}
        last_views = {}
        detector_step, adversary_step, lsa_forward = (
            training._detector_step, training._adversary_step, md.lsa_forward)

        def check_views(gen, amp, norm, phasor, window, alpha, delta):
            assert np.array_equal(norm, minmax_normalize(amp))
            views = lsa_forward(gen, amp, norm, phasor, window, alpha, delta)
            amp64, phasor64 = _float64(amp), _float64(phasor)
            views64 = lsa_forward(_float64(gen), amp64, minmax_normalize(amp64), phasor64, window, alpha, delta)
            last_views.update(amp=amp64, phasor=phasor64, window=window, alpha=alpha, delta=delta, views=views64)
            env, mask = graph_reference.lsa_views(amp64, phasor64, window, graph_reference.leaves(_float64(gen)),
                                                  alpha, delta)
            assert np.array_equal(views64.z_env, ad.standardized(env.value, md.STANDARDIZE_EPS)[0])
            assert np.array_equal(views64.mask, mask.value)
            for got, want in ((views.z_env, views64.z_env), (views.mask, views64.mask)):
                assert got.dtype == np.float32
                assert self._gap(got, want) <= self.RTOL["views"], self._gap(got, want)
            seen["views"] += 1
            return views

        # each kernel must write every gradient: the buffers are poisoned first
        def check_detector(arrays, grads, z_clean, z_env, y, weights):
            for g in grads.values():
                g.fill(np.nan)
            losses = detector_step(arrays, grads, z_clean, z_env, y, weights)
            arrays64, grads64 = _float64(arrays), {n: np.full(g.shape, np.nan) for n, g in grads.items()}
            z_clean64, z_env64 = _float64(z_clean), None if z_env is None else _float64(z_env)
            losses64 = detector_step(arrays64, grads64, z_clean64, z_env64, y, weights)
            self._assert_equal((losses64, grads64),
                               graph_reference.detector_step(arrays64, z_clean64, z_env64, y, weights))
            self._assert_close((losses, grads), (losses64, grads64), "detector")
            seen["detector"].append(len(y))
            return losses

        def check_adversary(frozen, gen, grads, views, z_clean, y, weights, alpha):
            for g in grads.values():
                g.fill(np.nan)
            losses = adversary_step(frozen, gen, grads, views, z_clean, y, weights, alpha)
            v = last_views
            frozen64, gen64, z_clean64 = _float64(frozen), _float64(gen), _float64(z_clean)
            grads64 = {n: np.full(g.shape, np.nan) for n, g in grads.items()}
            losses64 = adversary_step(frozen64, gen64, grads64, v["views"], z_clean64, y, weights, alpha)
            ref = graph_reference.adversary_step(frozen64, gen64, v["amp"], v["phasor"], v["window"],
                                                 z_clean64, y, weights, v["alpha"], v["delta"])
            self._assert_equal((losses64, grads64), ref)
            self._assert_close((losses, grads), (losses64, grads64), "adversary")
            seen["adversary"] += 1
            return losses

        monkeypatch.setattr(md, "lsa_forward", check_views)
        monkeypatch.setattr(training, "_detector_step", check_detector)
        monkeypatch.setattr(training, "_adversary_step", check_adversary)
        training.train(config, dataset)
        return seen

    @pytest.mark.parametrize("mode", training.MODES)
    def test_every_mode_with_a_partial_last_batch(self, tiny_dataset, monkeypatch, mode):
        # 96 training clips in batches of 40: the last batch of each epoch has 16
        seen = self._run(monkeypatch, tiny_config(mode=mode, epochs=1, batch_size=40), tiny_dataset)
        assert seen["detector"] == [40, 40, 16]
        assert seen["adversary"] == seen["views"] == (3 if mode == "spinshield" else 0)

    def test_odd_frames_have_no_nyquist_bin(self, monkeypatch):
        dataset = sd.generate_dataset(sd.DatasetSpec(n_clips=120, frames=15, patches=6, shortcut_bin=6,
                                                     phase_cue_strength=3.0, seed=31))
        seen = self._run(monkeypatch, tiny_config(mode="spinshield", epochs=1), dataset)
        assert seen["adversary"] == 3

    def test_two_detector_steps_per_adversary_step(self, tiny_dataset, monkeypatch):
        config = tiny_config(mode="spinshield", epochs=2, batch_size=16, detector_steps_per_generator_step=2)
        seen = self._run(monkeypatch, config, tiny_dataset)
        assert len(seen["detector"]) == seen["views"] == 12 and seen["adversary"] == 6

    @pytest.mark.parametrize("ablation", ["lambda_sym", "lambda_blind"])
    def test_ablations(self, tiny_dataset, monkeypatch, ablation):
        config = tiny_config(mode="spinshield", epochs=1, weights=LossWeights(**{ablation: 0.0}))
        seen = self._run(monkeypatch, config, tiny_dataset)
        assert seen["adversary"] == 3


class TestFiniteDifferences:
    """Every gradient a step kernel writes is, in float64, the central
    difference of the loss the kernel itself returns for that parameter
    group: ``total - lambda_blind * L_disc`` at the encoder and classifier
    (the discriminator learns on detached features), ``lambda_blind * L_disc``
    at the discriminator (the encoder's confusion term holds it constant) and
    ``-L_gen`` at the generator."""

    RTOL = 1e-6

    def _assert_central_differences(self, arrays, names, loss, grads):
        """Each named gradient is, to ``RTOL`` of its largest magnitude, the
        central differences of ``loss()`` in the named array."""
        for name in names:
            numeric = finite_diff(lambda _: loss(), arrays, name)
            scale = float(np.max(np.abs(grads[name])))
            assert scale > 0.0, name
            gap = float(np.max(np.abs(numeric - grads[name])))
            assert gap <= self.RTOL * scale, (name, gap / scale)

    @pytest.fixture
    def world(self):
        rng = np.random.default_rng(23)
        b, m, t = 6, 2, 8
        signals = rng.normal(size=(b, m, t))
        amps, phases = forward_stack(signals)
        bundle = md.init_bundle(input_width=m * t, n_bins=t // 2 + 1, hidden=6, feature_dim=4,
                                gen_hidden=5, domain_hidden=3, seed=4)
        # the biases are drawn too, so that no gradient is 0 by symmetry
        arrays = {n: a + 0.1 * rng.normal(size=a.shape) for n, a in bundle.params.items()}
        z_clean = ad.standardized(signals.reshape(b, m * t), md.STANDARDIZE_EPS)[0]
        y = np.array([0, 1] * (b // 2))
        return arrays, amps, np.exp(1j * phases), t, z_clean, y, bundle.alpha, bundle.delta

    @pytest.mark.parametrize("mode", ["baseline", "spinshield"])
    def test_detector_step(self, world, mode):
        arrays, amps, phasors, t, z_clean, y, alpha, delta = world
        gen = {n: a for n, a in arrays.items() if n.startswith("gen.")}
        z_env = None if mode == "baseline" else md.lsa_forward(gen, amps, minmax_normalize(amps), phasors, t,
                                                                 alpha, delta).z_env
        detector = {n: a for n, a in arrays.items() if n.startswith(("enc.", "head."))}
        weights = LossWeights()
        grads, scratch = ({n: np.full_like(a, np.nan) for n, a in detector.items()} for _ in range(2))
        training._detector_step(detector, grads, z_clean, z_env, y, weights)

        def losses():
            return training._detector_step(detector, scratch, z_clean, z_env, y, weights)

        def encoder_loss():
            _, _, l_disc, _, total = losses()
            return total - weights.lambda_blind * l_disc

        encoder = [n for n in detector if n.startswith(("enc.", "head.wg", "head.bg"))]
        disc = [n for n in detector if n not in encoder]
        self._assert_central_differences(detector, encoder, encoder_loss, grads)
        if mode == "spinshield":
            self._assert_central_differences(detector, disc, lambda: weights.lambda_blind * losses()[2], grads)
        else:
            assert all(not grads[n].any() for n in disc)

    def test_adversary_step(self, world, monkeypatch):
        arrays, amps, phasors, t, z_clean, y, alpha, delta = world
        gen = {n: a for n, a in arrays.items() if n.startswith("gen.")}
        frozen = {n: arrays[n] for n in training._ADVERSARY_READS}
        weights = LossWeights()
        # no gradient flows through the MMD's median bandwidth, so the
        # differences hold it at its value at the unperturbed parameters
        held = []

        def held_bandwidth(d2, kernel, bandwidth=obj._bandwidth):
            if not held:
                held.append(bandwidth(d2, kernel))
            return held[0]

        monkeypatch.setattr(obj, "_bandwidth", held_bandwidth)
        grads, scratch = ({n: np.full_like(a, np.nan) for n, a in gen.items()} for _ in range(2))

        def step(into):
            views = md.lsa_forward(gen, amps, minmax_normalize(amps), phasors, t, alpha, delta)
            return training._adversary_step(frozen, gen, into, views, z_clean, y, weights, alpha)

        d_mmd = step(grads)[0]
        assert d_mmd > 0.0 and held
        self._assert_central_differences(gen, gen, lambda: -step(scratch)[2], grads)


class TestSinglePrecision:
    """A run trains in float32 and hands back float64.  A float64 array met
    inside the loop would be a silent upcast, which gives back the speed of
    single precision.  Every gradient passes through ``_param_grads`` or
    ``tanh_backward`` (whose in-place product would cast a float64 gradient
    back), so a leak into any backward pass shows there; the synthesis
    basis (``synthesize_rows`` and its adjoint ``recompose_adjoint``) is
    cached per dtype, and a float64 one would show at its calls."""

    # what a step may read or return: single-precision values, integer labels
    SINGLE = (np.float32, np.complex64, np.intp)

    def _assert_single(self, value, where):
        if isinstance(value, dict):
            for name, item in value.items():
                self._assert_single(item, f"{where}[{name}]")
        elif isinstance(value, tuple):
            for i, item in enumerate(value):
                self._assert_single(item, f"{where}[{i}]")
        elif isinstance(value, (np.ndarray, np.generic)):
            assert value.dtype in self.SINGLE, (where, value.dtype)

    def _spy(self, monkeypatch, module, name, calls):
        original = getattr(module, name)

        def spy(*args, **kwargs):
            self._assert_single((args, kwargs), f"{name} input")
            out = original(*args, **kwargs)
            self._assert_single((args, out), f"{name} output")  # the gradients are written into args
            calls[name] = calls.get(name, 0) + 1
            return out

        monkeypatch.setattr(module, name, spy)

    @pytest.mark.parametrize("mode", training.MODES)
    def test_the_loop_is_float32_and_its_products_float64(self, tiny_dataset, monkeypatch, mode, tmp_path):
        from spinshield import evaluation as ev

        calls = {}
        with monkeypatch.context() as patch:
            for module, name in ((training, "_detector_step"), (training, "_adversary_step"), (md, "lsa_forward"),
                                 (training, "naive_env_views"), (training, "_param_grads"), (md, "tanh_backward"),
                                 (training, "synthesize_rows"), (md, "synthesize_rows"), (md, "recompose_adjoint")):
                self._spy(patch, module, name, calls)
            live = []
            result = training.train(tiny_config(mode=mode, epochs=1), tiny_dataset,
                                    epoch_hook=lambda epoch, bundle: live.append(md.named_arrays(bundle)))
        steps = {"baseline": [], "naive_aug": ["naive_env_views", "synthesize_rows"],
                 "spinshield": ["_adversary_step", "lsa_forward", "synthesize_rows", "recompose_adjoint"]}[mode]
        assert sorted(calls) == sorted(["_detector_step", "_param_grads", "tanh_backward", *steps])

        # while the run is live the bundle holds the optimizers' float32 views,
        # one flat buffer per group; the bundle it returns holds float64 arrays
        (during,) = live
        assert all(a.dtype == np.float32 for a in during.values())
        assert during["enc.w1"].base is during["head.bq2"].base is not None
        assert during["gen.w1"].base is during["gen.b2"].base is not None
        arrays = md.named_arrays(result.bundle)
        assert list(arrays) == list(during)
        assert all(a.dtype == np.float64 and not np.shares_memory(a, during["enc.w1"]) for a in arrays.values())
        md.save_bundle(result.bundle, tmp_path / "model.ckpt")
        params = json.loads((tmp_path / "model.ckpt").read_text())["params"]
        loaded = md.named_arrays(md.load_bundle(tmp_path / "model.ckpt"))
        for name, arr in arrays.items():
            assert len(base64.b64decode(params[name]["data"])) == 8 * arr.size
            assert loaded[name].dtype == np.float64 and np.array_equal(loaded[name], arr)
        # inference runs in float64: its scores are not all float32 values
        test = [tiny_dataset[i] for i in result.test_indices]
        report = ev.evaluate_under_attacks(result.bundle, test, kinds=("notch",), n_seeds=1)
        assert any(float(np.float32(score)) != score for score in report.clean_scores)


    def test_naive_views_draw_one_stream_at_either_precision(self, rng):
        # the float32 views cast the float64 draws, so the stream does not move
        amp, phases = forward_stack(rng.normal(size=(4, 3, 16)))
        phasor = np.exp(1j * phases)
        rngs = [keyed_rng(5, training._STREAM_NAIVE) for _ in range(2)]
        want = training.naive_env_views(amp, phasor, 16, rngs[0])
        got = training.naive_env_views(amp.astype(np.float32), phasor.astype(np.complex64), 16, rngs[1])
        assert want.dtype == np.float64 and got.dtype == np.float32
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5)
        assert np.array_equal(rngs[0].integers(0, 2**63, 8), rngs[1].integers(0, 2**63, 8))

class TestDomainConfusion:
    """The encoder side of L_blind pulls views onto the discriminator's boundary,
    not across it, and moves each clip's two views together."""

    @staticmethod
    def _competent_discriminator(h_clean, h_env):
        bundle = md.init_bundle(input_width=8, n_bins=5, feature_dim=h_clean.shape[1], seed=5)
        arrays = {
            n: a for n, a in md.named_arrays(bundle).items() if n.startswith(("head.wq", "head.bq"))
        }
        opt = training.Adam(arrays, lr=1e-2)
        for _ in range(300):
            nodes = {n: Node(a) for n, a in arrays.items()}
            loss = obj.blindness_loss(
                Node(h_clean), Node(h_env),
                lambda z: md.domain_logits(z, nodes, through_grl=False), through_grl=False,
            )
            ad.backward(loss)
            opt.step({n: nodes[n].grad for n in arrays})
        return {n: Node(a) for n, a in arrays.items()}

    @staticmethod
    def _env_posterior(frozen, h):
        return ad.softmax(md.domain_logits(Node(h), frozen, through_grl=False)).value[:, 1]

    @staticmethod
    def _train_features(h_clean, h_env, encoder_loss):
        feats = {"clean": h_clean.copy(), "env": h_env.copy()}
        opt = training.Adam(feats, lr=1e-2)
        for _ in range(300):
            nodes = {n: Node(a) for n, a in feats.items()}
            ad.backward(encoder_loss(nodes["clean"], nodes["env"]))
            opt.step({n: nodes[n].grad for n in feats})
        return feats

    def test_confusion_reaches_boundary_where_reversal_crosses_it(self, rng):
        h_clean = rng.normal(size=(32, 6)) + 1.0
        h_env = rng.normal(size=(32, 6)) - 1.0
        frozen = self._competent_discriminator(h_clean, h_env)
        assert np.mean(self._env_posterior(frozen, h_env) > 0.5) > 0.9

        def discriminate(z):
            return md.domain_logits(z, frozen, through_grl=False)

        confused = self._train_features(
            h_clean, h_env, lambda c, e: obj.confusion_loss(c, e, discriminate)
        )
        reversed_ = self._train_features(
            h_clean, h_env, lambda c, e: obj.blindness_loss(c, e, discriminate)
        )
        for h in confused.values():
            assert np.max(np.abs(self._env_posterior(frozen, h) - 0.5)) < 0.05
        # ascending the discriminator's loss swaps the domains: the features
        # still separate cleanly, only with the labels exchanged
        assert np.mean(self._env_posterior(frozen, reversed_["clean"]) > 0.9) > 0.9
        assert np.mean(self._env_posterior(frozen, reversed_["env"]) < 0.1) > 0.9

    def test_paired_term_sees_views_that_trade_places(self, rng):
        # env views that are other clips' clean views: the two feature sets are
        # identical, so no discriminator of unpaired views can tell them apart
        h_clean = rng.normal(size=(32, 6))
        h_env = h_clean[np.roll(np.arange(32), 1)]
        frozen = self._competent_discriminator(h_clean + 1.0, h_clean - 1.0)

        def discriminate(z):
            return md.domain_logits(z, frozen, through_grl=False)

        np.testing.assert_allclose(
            obj.confusion_loss(Node(h_clean), Node(h_env), discriminate).value,
            obj.confusion_loss(Node(h_clean), Node(h_clean), discriminate).value,
            rtol=1e-12,
        )
        swapped = obj.paired_displacement(Node(h_clean), Node(h_env)).value
        # E|a - b|^2 = 2 E|a - mean|^2 for independent rows
        assert 1.5 < swapped < 2.5
        assert obj.paired_displacement(Node(h_clean), Node(h_clean.copy())).value == 0.0
        near = h_clean + 0.1 * rng.normal(size=h_clean.shape)
        small = obj.paired_displacement(Node(h_clean), Node(near)).value
        assert small < 0.05
        assert obj.paired_displacement(Node(3.0 * h_clean), Node(3.0 * near)).value == pytest.approx(
            small, rel=1e-12
        )

    @staticmethod
    def _first_detector_grads(dataset, monkeypatch, weights, encoder_scale=1.0):
        class Stop(Exception):
            pass

        captured = {}

        def capture(self, grads):
            captured.update({n: g.copy() for n, g in grads.items()})
            raise Stop

        original = training._encoder_blindness
        with monkeypatch.context() as patch:
            patch.setattr(training.Adam, "step", capture)
            patch.setattr(
                training, "_encoder_blindness",
                lambda *args: tuple(part * encoder_scale for part in original(*args)),
            )
            with pytest.raises(Stop):
                training.train(tiny_config(mode="spinshield", weights=weights), dataset)
        return captured

    def test_detector_step_partitions_the_domain_gradients(self, tiny_dataset, monkeypatch):
        blind_only = LossWeights(lambda_sym=0.0, lambda_blind=0.7)
        full = self._first_detector_grads(tiny_dataset, monkeypatch, blind_only)
        no_encoder_term = self._first_detector_grads(
            tiny_dataset, monkeypatch, blind_only, encoder_scale=0.0
        )
        without = self._first_detector_grads(
            tiny_dataset, monkeypatch, LossWeights(lambda_sym=0.0, lambda_blind=0.0)
        )
        for name in full:
            if name.startswith("enc."):
                # the discriminator's own loss never reaches the encoder; the
                # encoder term does
                np.testing.assert_array_equal(no_encoder_term[name], without[name])
                assert not np.allclose(full[name], without[name], rtol=0.0, atol=1e-12)
            elif ".wq" in name or ".bq" in name:
                # and the encoder term never trains the discriminator
                np.testing.assert_array_equal(full[name], no_encoder_term[name])
                assert np.any(full[name] != 0.0)


class TestGoldenTraining:
    """Training is bit-for-bit stable across commits, not only within one.

    Each digest is the sha256 of a 2-epoch run's parameter bytes (little-endian
    float64, in ``named_arrays`` order) followed by the JSON of its log rows.
    A refactor that claims to be bit for bit must leave them unchanged.  A
    deliberate change of numerics, such as replacing the conjugate-mirror
    inverse with ``np.fft.irfft``, or training in float32 rather than
    float64 (which re-pinned all three), must update the digests and record
    the update in CHANGES.md.  The digests hold for one numpy and BLAS build
    (numpy 2.4.6 with OpenBLAS 0.3.31 on x86-64 with AVX512, one or two
    threads).
    """

    DIGESTS = {
        "baseline": "6707bd76bf6fdcfa8e25e6dfd5e3b36cda124cef84a6a3f56066c5c9acadd421",
        "spinshield": "97aa7ca0c5e6b9ad0abd6af9d7ee5c9e42429299fd17066bf660bb47617fbb68",
        "naive_aug": "5dbbb261bfb36e93f5d3d754c5b0d38eeb715a290e1cb24cf9fe85715db68e37",
    }

    @pytest.mark.parametrize("mode", training.MODES)
    def test_parameters_and_log_are_pinned(self, tiny_dataset, mode):
        result = training.train(tiny_config(mode=mode), tiny_dataset)
        digest = hashlib.sha256()
        for arr in md.named_arrays(result.bundle).values():
            digest.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        digest.update(json.dumps(result.log_rows).encode())
        assert digest.hexdigest() == self.DIGESTS[mode]
