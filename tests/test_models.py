import hashlib

import numpy as np
import pytest

from spinshield import autodiff as ad
from spinshield import evaluation
from spinshield import models as md
from spinshield.autodiff import Node
from spinshield.errors import DataFormatError
from spinshield.spectral import dft_onesided, minmax_normalize_amplitude

import graph_reference
from conftest import random_clip
from test_autodiff import finite_diff


@pytest.fixture
def bundle():
    return md.init_bundle(input_width=3 * 16, n_bins=9, seed=123)


def features(clip, bundle):
    """One clip's features through the model's plain forward."""
    z = ad.standardized(clip.signals.reshape(1, -1), md.STANDARDIZE_EPS)[0]
    return md.encode(z, md.named_arrays(bundle))[1][0]


def head_probs(logits_fn, h, bundle, **kwargs):
    """Class distribution of one feature vector under a head's graph function."""
    logits = logits_fn(ad.const(np.asarray(h).reshape(1, -1)), graph_reference.consts(bundle), **kwargs)
    return ad.softmax(logits).value[0]


class TestEncode:
    def test_degenerate_weights_ignore_input(self, rng, bundle):
        p = bundle.params
        p["enc.w1"][:] = 0.0
        p["enc.w2"][:] = 0.0
        p["enc.b1"][:] = rng.normal(size=p["enc.b1"].shape)
        p["enc.b2"][:] = rng.normal(size=p["enc.b2"].shape)
        h1 = features(random_clip(rng), bundle)
        h2 = features(random_clip(rng), bundle)
        np.testing.assert_array_equal(h1, h2)
        np.testing.assert_allclose(h1, p["enc.b2"], atol=1e-12)

    def test_identical_clips_identical_features(self, rng, bundle):
        clip = random_clip(rng)
        a = features(clip, bundle)
        b = features(clip, bundle)
        np.testing.assert_array_equal(a, b)

    def test_shape_mismatch_rejected(self, rng, bundle):
        with pytest.raises(ValueError, match="width"):
            evaluation.score_clips(bundle, [random_clip(rng, patches=5, frames=16)])

    def test_feature_norm_gradient_matches_finite_differences(self, rng, bundle):
        clip = random_clip(rng)
        x = clip.signals.reshape(1, -1)
        arrays = {name: arr for name, arr in md.named_arrays(bundle).items() if name.startswith("enc.")}

        def build(nodes):
            h = md.encoder_forward(md.standardize_rows(Node(x)), nodes)
            return ad.sum_all(ad.mul(h, h))

        nodes = {name: Node(arr) for name, arr in arrays.items()}
        ad.backward(build(nodes))

        def value_fn(arrs):
            fresh = {name: Node(arr) for name, arr in arrs.items()}
            return float(build(fresh).value)

        for name in arrays:
            numeric = finite_diff(value_fn, arrays, name)
            np.testing.assert_allclose(nodes[name].grad, numeric, rtol=1e-4, atol=1e-6)

    def test_standardization_is_per_clip(self, rng, bundle):
        clip = random_clip(rng)
        scaled = type(clip)(signals=3.0 * clip.signals + 7.0, fps=clip.fps)
        np.testing.assert_allclose(
            features(clip, bundle), features(scaled, bundle), atol=1e-7
        )

    def test_siamese_weight_sharing_is_structural(self, bundle):
        arrays = md.named_arrays(bundle)
        assert arrays["enc.w1"] is bundle.params["enc.w1"]
        again = md.named_arrays(bundle)
        assert again["enc.w1"] is arrays["enc.w1"]


class TestClassify:
    def test_zero_logits_uniform(self, bundle):
        bundle.params["head.wg"][:] = 0.0
        p = head_probs(md.classifier_logits, np.ones(bundle.params["head.wg"].shape[0]), bundle)
        np.testing.assert_array_equal(p, [0.5, 0.5])

    def test_saturation(self, rng):
        logits = Node(np.array([[20.0, -20.0]]))
        p = ad.softmax(logits).value[0]
        assert p[0] > 1 - 1e-8

    def test_matches_exp_normalize_oracle(self, rng, bundle):
        h = rng.normal(size=bundle.params["head.wg"].shape[0])
        p = head_probs(md.classifier_logits, h, bundle)
        logits = h @ bundle.params["head.wg"] + bundle.params["head.bg"]
        oracle = np.exp(logits) / np.exp(logits).sum()
        np.testing.assert_allclose(p, oracle, atol=1e-12)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(p > 0)


class TestDiscriminateDomain:
    def test_grl_does_not_change_forward(self, rng, bundle):
        h = rng.normal(size=bundle.params["head.wq1"].shape[0])
        a = head_probs(md.domain_logits, h, bundle, through_grl=False)
        b = head_probs(md.domain_logits, h, bundle, through_grl=True)
        np.testing.assert_array_equal(a, b)

    def test_encoder_side_gradient_flips_sign(self, rng, bundle):
        h_val = rng.normal(size=(4, bundle.params["head.wq1"].shape[0]))
        params = {name: Node(arr) for name, arr in md.named_arrays(bundle).items()}

        def run(through_grl):
            h = Node(h_val)
            logits = md.domain_logits(h, params, through_grl=through_grl)
            ad.backward(ad.mean_all(ad.cross_entropy_with_logits(logits, np.zeros(4, dtype=int))))
            out = h.grad.copy()
            ad.zero_grad(params.values())
            return out

        np.testing.assert_allclose(run(True), -run(False), atol=1e-12)

    def test_discriminator_gradients_match_finite_differences(self, rng, bundle):
        h_clean = rng.normal(size=(3, bundle.params["head.wq1"].shape[0]))
        h_env = rng.normal(size=(3, bundle.params["head.wq1"].shape[0]))
        arrays = {n: a for n, a in md.named_arrays(bundle).items() if n.startswith("head.wq") or n.startswith("head.bq")}

        def build(nodes):
            lc = md.domain_logits(ad.grl(Node(h_clean)), nodes)
            le = md.domain_logits(ad.grl(Node(h_env)), nodes)
            return ad.add(
                ad.mean_all(ad.cross_entropy_with_logits(lc, np.zeros(3, dtype=int))),
                ad.mean_all(ad.cross_entropy_with_logits(le, np.ones(3, dtype=int))),
            )

        nodes = {name: Node(arr) for name, arr in arrays.items()}
        ad.backward(build(nodes))

        def value_fn(arrs):
            return float(build({n: Node(a) for n, a in arrs.items()}).value)

        for name in arrays:
            # the discriminator sits above the reversal layer and sees
            # un-reversed gradients
            numeric = finite_diff(value_fn, arrays, name)
            np.testing.assert_allclose(nodes[name].grad, numeric, rtol=1e-4, atol=1e-6)


class TestLsaPerturb:
    def test_neutral_generator_is_identity(self, rng, bundle):
        bundle.params["gen.w1"][:] = 0.0
        bundle.params["gen.w2"][:] = 0.0
        bundle.params["gen.b1"][:] = 0.0
        bundle.params["gen.b2"][:] = 0.0
        clip = random_clip(rng)
        spectrum = dft_onesided(clip)
        pert, mask = md.lsa_perturb(spectrum, bundle)
        np.testing.assert_allclose(pert.signals, clip.signals, atol=1e-9)
        expected = spectrum.amplitude / (spectrum.amplitude + bundle.delta)
        assert np.max(np.abs(mask.values[0] - expected)) == 0.0

    def test_modulation_bounded_by_alpha(self, rng, bundle):
        clip = random_clip(rng)
        spectrum = dft_onesided(clip)
        pert, _ = md.lsa_perturb(spectrum, bundle)
        after = dft_onesided(pert)
        live = spectrum.amplitude > 1e-12
        ratio = np.log(after.amplitude[live] / spectrum.amplitude[live])
        assert np.max(np.abs(ratio)) <= bundle.alpha + 1e-9

    def test_phase_preserved(self, rng, bundle):
        clip = random_clip(rng)
        spectrum = dft_onesided(clip)
        pert, _ = md.lsa_perturb(spectrum, bundle)
        after = dft_onesided(pert)
        live = spectrum.amplitude > 1e-8
        diff = np.angle(np.exp(1j * (after.phase - spectrum.phase)))
        assert np.max(np.abs(diff[live])) < 1e-6

    def test_equals_the_graph_forward(self, rng, bundle):
        clip = random_clip(rng)
        spectrum = dft_onesided(clip)
        pert, mask = md.lsa_perturb(spectrum, bundle)
        env, mask_node = graph_reference.env_views(bundle, spectrum.amplitude[None], spectrum.phase[None], 16)
        assert np.array_equal(pert.signals, env.value.reshape(-1, 16))
        assert np.array_equal(mask.values, mask_node.value[None])

    def test_output_real_and_finite(self, rng, bundle):
        clip = random_clip(rng)
        pert, mask = md.lsa_perturb(dft_onesided(clip), bundle)
        assert np.all(np.isfinite(pert.signals))
        assert np.all(mask.values > 0)

    def test_generator_gradients_match_finite_differences(self, rng, bundle):
        clip = random_clip(rng)
        spectrum = dft_onesided(clip)
        norm = minmax_normalize_amplitude(spectrum)
        arrays = {n: a for n, a in md.named_arrays(bundle).items() if n.startswith("gen.")}

        def build(nodes):
            signals, _ = md.lsa_perturb_graph(
                spectrum.amplitude, norm, spectrum.phase, 16, nodes,
                bundle.alpha, bundle.delta,
            )
            return ad.mean_all(ad.mul(signals, signals))

        nodes = {name: Node(arr) for name, arr in arrays.items()}
        ad.backward(build(nodes))

        def value_fn(arrs):
            return float(build({n: Node(a) for n, a in arrs.items()}).value)

        for name in arrays:
            numeric = finite_diff(value_fn, arrays, name)
            np.testing.assert_allclose(nodes[name].grad, numeric, rtol=1e-4, atol=1e-6)


class TestRecomposeRows:
    def test_forward_matches_recompose(self, rng):
        clip = random_clip(rng, patches=4, frames=16)
        spectrum = dft_onesided(clip)
        node = md.recompose_rows(Node(spectrum.amplitude), spectrum.phase, 16)
        np.testing.assert_allclose(node.value, clip.signals, atol=1e-9)

    def test_adjoint_matches_finite_differences(self, rng):
        clip = random_clip(rng, patches=2, frames=8)
        spectrum = dft_onesided(clip)
        arrays = {"amp": spectrum.amplitude.copy()}

        def build(nodes):
            out = md.recompose_rows(nodes["amp"], spectrum.phase, 8)
            return ad.sum_all(ad.mul(out, out))

        nodes = {"amp": Node(arrays["amp"])}
        ad.backward(build(nodes))

        def value_fn(arrs):
            return float(build({"amp": Node(arrs["amp"])}).value)

        numeric = finite_diff(value_fn, arrays, "amp")
        np.testing.assert_allclose(nodes["amp"].grad, numeric, rtol=1e-4, atol=1e-6)


    def test_adjoint_keeps_the_gradient_dtype(self, rng):
        # the synthesis basis is cached per window and dtype, so a float32
        # gradient is not upcast by a float64 basis
        g = rng.normal(size=(5, 16))
        phasor = np.exp(1j * dft_onesided(random_clip(rng, patches=5, frames=16)).phase)
        want = md.recompose_adjoint(g, phasor, 16)
        got = md.recompose_adjoint(g.astype(np.float32), phasor.astype(np.complex64), 16)
        assert want.dtype == np.float64 and got.dtype == np.float32
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)


class TestNamedArrays:
    def test_a_new_mapping_of_the_live_arrays(self, bundle):
        arrays = md.named_arrays(bundle)
        assert arrays is not bundle.params and arrays is not md.named_arrays(bundle)
        assert list(arrays) == list(md._PARAMS)
        assert all(arr is bundle.params[name] for name, arr in arrays.items())
        arrays.pop("enc.w1")
        assert "enc.w1" in bundle.params

class TestCheckpoints:
    def test_round_trip_bit_exact(self, tmp_path, bundle):
        path = tmp_path / "model.ckpt"
        md.save_bundle(bundle, path)
        loaded = md.load_bundle(path)
        for name, arr in md.named_arrays(bundle).items():
            np.testing.assert_array_equal(md.named_arrays(loaded)[name], arr)
        assert loaded.alpha == bundle.alpha
        assert loaded.delta == bundle.delta
        assert list(loaded.params) == list(bundle.params)

    def test_bytes_pinned(self, tmp_path):
        """The checkpoint of a fresh bundle, byte for byte: the dims read from
        the shapes, the key order and the payloads."""
        path = tmp_path / "model.ckpt"
        md.save_bundle(md.init_bundle(256, 9, seed=3), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "977f4b7b9fed9b2b6dbc5b7a87c8596d8b3d71f63eda69b5d894fb2b9d6d96b9"

    def test_dimension_mismatch_rejected(self, tmp_path, bundle):
        import json

        path = tmp_path / "model.ckpt"
        md.save_bundle(bundle, path)
        doc = json.loads(path.read_text())
        doc["dims"]["hidden"] = 999
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match="dimension mismatch"):
            md.load_bundle(path)

    def test_missing_dim_rejected(self, tmp_path, bundle):
        import json

        path = tmp_path / "model.ckpt"
        md.save_bundle(bundle, path)
        doc = json.loads(path.read_text())
        del doc["dims"]["hidden"]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match="incomplete checkpoint: 'hidden'"):
            md.load_bundle(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DataFormatError, match="not found"):
            md.load_bundle(tmp_path / "nope.ckpt")

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "weird.ckpt"
        path.write_text('{"format": "other"}')
        with pytest.raises(DataFormatError, match="format"):
            md.load_bundle(path)

    def test_init_deterministic(self):
        a = md.init_bundle(input_width=48, n_bins=9, seed=5)
        b = md.init_bundle(input_width=48, n_bins=9, seed=5)
        for name, arr in md.named_arrays(a).items():
            np.testing.assert_array_equal(md.named_arrays(b)[name], arr)
