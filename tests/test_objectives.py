import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinshield import autodiff as ad
from spinshield import models as md
from spinshield import objectives as obj
from spinshield.autodiff import Node
from spinshield.models import ModulationMask
from spinshield.objectives import KernelSpec, LossWeights

import primitives as prim
from test_autodiff import check_gradients, finite_diff


class TestCrossEntropy:
    def test_one_hot_is_exactly_zero(self):
        assert obj.cross_entropy(np.array([1.0, 0.0]), 0) == 0.0

    def test_uniform_is_ln_two(self):
        assert obj.cross_entropy(np.array([0.5, 0.5]), 1) == pytest.approx(np.log(2), abs=1e-15)

    def test_batch_mean_matches_log_softmax_oracle(self, rng):
        logits = rng.normal(size=(8, 2))
        labels = rng.integers(0, 2, size=8)
        got = obj.batch_cross_entropy(Node(logits), labels).value
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        oracle = np.mean([-np.log(probs[i, labels[i]]) for i in range(8)])
        assert got == pytest.approx(oracle, abs=1e-10)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            obj.cross_entropy(np.array([0.5, 0.5]), 2)


class TestMmd:
    def test_identical_sets_give_zero(self, rng):
        a = rng.normal(size=(6, 4))
        assert obj.mmd(a, a).value == 0.0

    def test_singleton_closed_form(self, rng):
        x = rng.normal(size=(1, 3))
        y = rng.normal(size=(1, 3))
        d2 = float(np.sum((x - y) ** 2))
        got = obj.mmd(x, y, KernelSpec(bandwidth=1.0)).value
        assert got == pytest.approx(2.0 - 2.0 * np.exp(-d2 / 2.0), abs=1e-12)

    def test_bitwise_symmetric(self, rng):
        a = rng.normal(size=(5, 4))
        b = rng.normal(size=(7, 4))
        assert obj.mmd(a, b).value == obj.mmd(b, a).value

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            obj.mmd(np.zeros((0, 3)), np.zeros((2, 3)))

    def test_dimension_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="dimensions"):
            obj.mmd(rng.normal(size=(2, 3)), rng.normal(size=(2, 4)))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_non_negative(self, seed):
        r = np.random.default_rng(seed)
        a = r.normal(size=(r.integers(1, 6), 3))
        b = r.normal(size=(r.integers(1, 6), 3))
        assert obj.mmd(a, b).value >= 0.0

    def test_gradient_flows_through_features(self, rng):
        a_val = rng.normal(size=(4, 3))
        b_val = rng.normal(size=(4, 3))
        arrays = {"b": b_val}

        def build(nodes):
            return obj.mmd(Node(a_val), nodes["b"], KernelSpec(bandwidth=1.3))

        nodes = {"b": Node(b_val)}
        ad.backward(build(nodes))

        def value_fn(arrs):
            return float(build({"b": Node(arrs["b"])}).value)

        numeric = finite_diff(value_fn, arrays, "b")
        np.testing.assert_allclose(nodes["b"].grad, numeric, rtol=1e-4, atol=1e-7)

    def test_median_bandwidth_separates_distributions(self, rng):
        near = rng.normal(size=(16, 4))
        far = rng.normal(size=(16, 4)) + 3.0
        assert obj.mmd(near, far).value > obj.mmd(near, rng.normal(size=(16, 4))).value


class TestMaskRegularizer:
    def test_identity_mask_is_zero(self):
        mask = ModulationMask(values=np.ones((2, 3, 4)))
        assert obj.mask_regularizer(mask).value == 0.0

    def test_constant_offset(self):
        c = 0.25
        mask = ModulationMask(values=np.full((2, 3, 4), 1.0 + c))
        assert obj.mask_regularizer(mask).value == pytest.approx(c * c, abs=1e-15)

    def test_matches_direct_summation_oracle(self, rng):
        values = rng.uniform(0.5, 1.8, size=(2, 4, 5))
        mask = ModulationMask(values=values)
        oracle = float(np.sum((values - 1.0) ** 2)) / values.size
        assert obj.mask_regularizer(mask).value == pytest.approx(oracle, abs=1e-12)


class TestSymmetricKl:
    def test_equal_distributions_zero(self):
        p = np.array([[0.3, 0.7]])
        assert obj.symmetric_kl(p, p.copy()).value == 0.0

    def test_bitwise_symmetric(self, rng):
        p = rng.dirichlet([1, 1], size=4)
        q = rng.dirichlet([1, 1], size=4)
        assert obj.symmetric_kl(p, q).value == obj.symmetric_kl(q, p).value

    def test_closed_form_example(self):
        # direct-formula oracle for p=[0.9,0.1], q=[0.5,0.5]
        p, q = np.array([0.9, 0.1]), np.array([0.5, 0.5])
        oracle = 0.5 * (np.sum(p * np.log(p / q)) + np.sum(q * np.log(q / p)))
        got = obj.symmetric_kl(p, q).value
        assert got == pytest.approx(oracle, abs=1e-12)
        assert got == pytest.approx(0.4394, abs=5e-5)

    def test_zero_iff_equal_after_floor(self, rng):
        p = rng.dirichlet([2, 2], size=3)
        q = p.copy()
        q[1, 0] += 1e-6
        q[1, 1] -= 1e-6
        assert obj.symmetric_kl(p, p.copy()).value == 0.0
        assert obj.symmetric_kl(p, q).value > 0.0

    def test_floor_guards_zero_probabilities(self):
        p = np.array([[1.0, 0.0]])
        q = np.array([[0.5, 0.5]])
        value = obj.symmetric_kl(p, q).value
        assert np.isfinite(value) and value > 0


class TestCompositeLosses:
    def test_detector_loss_components(self, rng):
        clean = Node(rng.normal(size=(6, 2)))
        env = Node(rng.normal(size=(6, 2)))
        labels = rng.integers(0, 2, size=6)
        got = obj.detector_loss(clean, env, labels).value
        oracle = (
            ad.mean_all(ad.cross_entropy_with_logits(Node(clean.value), labels)).value
            + ad.mean_all(ad.cross_entropy_with_logits(Node(env.value), labels)).value
        )
        assert got == pytest.approx(oracle, abs=1e-12)

    def test_detector_loss_uniform_is_two_ln_two(self):
        logits = Node(np.zeros((4, 2)))
        labels = np.array([0, 1, 0, 1])
        got = obj.detector_loss(logits, Node(np.zeros((4, 2))), labels).value
        assert got == pytest.approx(2 * np.log(2), abs=1e-12)

    def test_detector_loss_clean_only(self, rng):
        logits = Node(rng.normal(size=(4, 2)))
        labels = np.array([0, 1, 1, 0])
        got = obj.detector_loss(logits, None, labels).value
        oracle = ad.mean_all(ad.cross_entropy_with_logits(Node(logits.value), labels)).value
        assert got == pytest.approx(oracle, abs=1e-15)

    def test_blindness_uniform_discriminator(self, rng):
        h_clean = Node(rng.normal(size=(5, 8)))
        h_env = Node(rng.normal(size=(5, 8)))
        loss = obj.blindness_loss(h_clean, h_env, lambda z: Node(np.zeros((z.value.shape[0], 2))))
        assert loss.value == pytest.approx(2 * np.log(2), abs=1e-12)

    def test_blindness_discriminator_capacity(self, rng):
        # q trained alone on fixed, separable features drives the loss under 0.1
        bundle = md.init_bundle(input_width=32, n_bins=9, seed=3)
        h_clean = rng.normal(size=(32, 32)) + 2.0
        h_env = rng.normal(size=(32, 32)) - 2.0
        arrays = {n: a for n, a in md.named_arrays(bundle).items() if ".wq" in n or ".bq" in n}
        from spinshield.training import Adam

        opt = Adam(arrays, lr=1e-2)
        for _ in range(500):
            nodes = {n: Node(a) for n, a in arrays.items()}
            loss = obj.blindness_loss(
                Node(h_clean), Node(h_env),
                lambda z: md.domain_logits(z, nodes, through_grl=False),
                through_grl=False,
            )
            ad.backward(loss)
            opt.step({n: nodes[n].grad for n in arrays})
        assert float(loss.value) < 0.1

    def test_blindness_adversarial_direction(self, rng):
        # features trained against a frozen, competent discriminator become
        # harder to classify: the loss rises
        bundle = md.init_bundle(input_width=32, n_bins=9, seed=3)
        heads = {n: Node(a) for n, a in md.named_arrays(bundle).items()}
        h = {"h": rng.normal(size=(16, 32))}
        d_labels = np.array([0] * 8 + [1] * 8)

        # make q competent first
        arrays_q = {n: a for n, a in md.named_arrays(bundle).items() if ".wq" in n or ".bq" in n}
        from spinshield.training import Adam

        opt_q = Adam(arrays_q, lr=1e-2)
        for _ in range(300):
            nodes = {n: Node(a) for n, a in arrays_q.items()}
            logits = md.domain_logits(Node(h["h"]), nodes, through_grl=False)
            loss = ad.mean_all(ad.cross_entropy_with_logits(logits, d_labels))
            ad.backward(loss)
            opt_q.step({n: nodes[n].grad for n in arrays_q})

        start = None
        opt_h = Adam(h, lr=1e-2)
        for step in range(200):
            h_node = Node(h["h"])
            nodes = {n: Node(a) for n, a in arrays_q.items()}
            logits = md.domain_logits(ad.grl(h_node), nodes, through_grl=False)
            loss = ad.mean_all(ad.cross_entropy_with_logits(logits, d_labels))
            if start is None:
                start = float(loss.value)
            ad.backward(loss)
            # gradient reversal turns this descent step into confusion ascent
            opt_h.step({"h": h_node.grad})
        assert float(loss.value) > start

    def test_generator_loss_neutral_case(self, rng):
        logits = Node(rng.normal(size=(6, 2)))
        labels = rng.integers(0, 2, size=6)
        zero_mmd = Node(0.0)
        mask = ModulationMask(values=np.ones((6, 2, 3)))
        weights = LossWeights()
        got = obj.generator_loss(logits, labels, zero_mmd, mask, weights).value
        clean_ce = obj.batch_cross_entropy(Node(logits.value), labels).value
        assert got == pytest.approx(clean_ce, abs=1e-12)

    def test_generator_loss_mask_penalty_direction(self, rng):
        # with gamma=0 and a huge identity pull, ascending the objective
        # shrinks the deviation of the modulation field
        field = {"u": rng.normal(size=(4, 6)) * 0.5}
        weights = LossWeights(gamma=0.0, lambda_mask=1e4)
        from spinshield.training import Adam

        opt = Adam(field, lr=1e-2)
        deviations = []
        for _ in range(200):
            u = Node(field["u"])
            mask = ad.exp(ad.scale(ad.tanh(u), 0.6))
            reg = obj.mask_regularizer(mask)
            gain = ad.sub(Node(0.0), ad.scale(reg, weights.lambda_mask))
            loss = ad.neg(gain)
            deviations.append(float(reg.value))
            ad.backward(loss)
            opt.step({"u": u.grad})
        assert deviations[-1] < 0.01 * deviations[0]
        drops = sum(1 for a, b in zip(deviations, deviations[1:]) if b <= a + 1e-12)
        assert drops >= 0.9 * (len(deviations) - 1)

    def test_total_loss_reduces_to_detector(self, rng):
        l_det, l_sym, l_blind = Node(1.3), Node(0.4), Node(0.8)
        weights = LossWeights(lambda_sym=0.0, lambda_blind=0.0)
        assert obj.total_loss(l_det, l_sym, l_blind, weights).value == 1.3

    def test_total_loss_zero_components(self):
        zero = Node(0.0)
        assert obj.total_loss(zero, zero, zero, LossWeights()).value == 0.0

    def test_total_loss_linear_in_weights(self):
        l_det, l_sym, l_blind = Node(1.0), Node(2.0), Node(3.0)
        for lam in (0.0, 0.5, 1.0, 2.0):
            got = obj.total_loss(l_det, l_sym, l_blind, LossWeights(lambda_sym=lam, lambda_blind=0.7)).value
            assert got == pytest.approx(1.0 + lam * 2.0 + 0.7 * 3.0, abs=1e-12)

    def test_weights_must_be_non_negative(self):
        with pytest.raises(ValueError):
            LossWeights(gamma=-0.1)

    def test_bad_kernel_spec(self):
        with pytest.raises(ValueError):
            KernelSpec(bandwidth="mean")
        with pytest.raises(ValueError):
            KernelSpec(bandwidth=0.0)


class TestEncoderBlindness:
    def test_paired_displacement_gradients_match_finite_differences(self, rng):
        arrays = {"clean": rng.normal(size=(5, 6)), "env": rng.normal(size=(5, 6))}
        check_gradients(lambda n: obj.paired_displacement(n["clean"], n["env"]), arrays)

    def test_encoder_blindness_gradients_match_finite_differences(self, rng):
        bundle = md.init_bundle(input_width=8, n_bins=5, feature_dim=6, seed=4)
        heads = {n: Node(a) for n, a in md.named_arrays(bundle).items() if n.startswith("head.")}
        arrays = {"clean": rng.normal(size=(5, 6)), "env": rng.normal(size=(5, 6))}
        check_gradients(
            lambda n: obj.encoder_blindness_loss(
                n["clean"], n["env"], lambda z: md.domain_logits(z, heads, through_grl=False)
            ),
            arrays,
        )

    @pytest.mark.parametrize("rows", [1, 3])
    def test_paired_displacement_is_zero_without_spread(self, rng, rows):
        # one clip, or clean features all alike: no spread to measure against
        clean = np.repeat([[1.0, -2.0, 0.5, 3.0]], rows, axis=0)
        env = rng.normal(size=(rows, 4))
        value, vjp = obj.paired_displacement_with_vjp(clean, env)
        assert value == 0.0
        for grad, like in zip(vjp(1.0), (clean, env)):
            assert np.array_equal(grad, np.zeros_like(like))

    def test_paired_displacement_needs_paired_rows(self, rng):
        with pytest.raises(ValueError):
            obj.paired_displacement(Node(rng.normal(size=(4, 3))), Node(rng.normal(size=(5, 3))))


class TestFullObjectiveGradients:
    @staticmethod
    def _total_graph(nodes, x_clean, x_env, labels, weights, through_grl):
        h_clean = md.encoder_forward(md.standardize_rows(Node(x_clean)), nodes)
        h_env = md.encoder_forward(md.standardize_rows(Node(x_env)), nodes)
        logits_clean = md.classifier_logits(h_clean, nodes)
        logits_env = md.classifier_logits(h_env, nodes)
        l_det = obj.detector_loss(logits_clean, logits_env, labels)
        l_sym = obj.symmetric_kl(ad.softmax(logits_clean), ad.softmax(logits_env))
        l_blind = obj.blindness_loss(
            h_clean, h_env,
            lambda z: md.domain_logits(z, nodes, through_grl=False),
            through_grl=through_grl,
        )
        return obj.total_loss(l_det, l_sym, l_blind, weights), l_blind

    def test_total_loss_gradient_matches_finite_differences(self, rng):
        # validated with the reversal layer disengaged: the GRL deliberately
        # decouples the computed update from the true loss gradient, so its
        # routing is asserted separately below
        bundle = md.init_bundle(input_width=2 * 8, n_bins=5, seed=9)
        x_clean = rng.normal(size=(4, 16))
        x_env = rng.normal(size=(4, 16))
        labels = np.array([0, 1, 1, 0])
        weights = LossWeights()
        arrays = md.named_arrays(bundle)

        def build(nodes):
            total, _ = self._total_graph(nodes, x_clean, x_env, labels, weights, through_grl=False)
            return total

        nodes = {n: Node(a) for n, a in arrays.items()}
        ad.backward(build(nodes))

        def value_fn(arrs):
            return float(build({n: Node(a) for n, a in arrs.items()}).value)

        for name in arrays:
            if name.startswith("gen."):
                continue  # the adversary does not appear in the detector objective
            numeric = finite_diff(value_fn, arrays, name)
            scale_ref = np.maximum(np.abs(numeric), 1e-3)
            assert np.max(np.abs(nodes[name].grad - numeric) / scale_ref) < 1e-3

    def test_grl_routing_in_total_loss(self, rng):
        # with the GRL engaged, the encoder-side contribution of the blindness
        # term is exactly negated while the discriminator's stays unchanged
        bundle = md.init_bundle(input_width=2 * 8, n_bins=5, seed=9)
        x_clean = rng.normal(size=(4, 16))
        x_env = rng.normal(size=(4, 16))
        labels = np.array([0, 1, 1, 0])
        arrays = md.named_arrays(bundle)

        def grads(through_grl, weights):
            nodes = {n: Node(a) for n, a in arrays.items()}
            total, _ = self._total_graph(nodes, x_clean, x_env, labels, weights, through_grl)
            ad.backward(total)
            return {n: nodes[n].grad for n in arrays}

        blind_only = LossWeights(lambda_sym=0.0, lambda_blind=1.0)
        with_grl = grads(True, blind_only)
        without_grl = grads(False, blind_only)
        rest = grads(True, LossWeights(lambda_sym=0.0, lambda_blind=0.0))
        for name in arrays:
            if name.startswith("enc."):
                contribution_with = with_grl[name] - rest[name]
                contribution_without = without_grl[name] - rest[name]
                np.testing.assert_allclose(contribution_with, -contribution_without, atol=1e-12)
            elif ".wq" in name or ".bq" in name:
                np.testing.assert_allclose(with_grl[name], without_grl[name], atol=1e-12)

    def test_generator_objective_gradient_matches_finite_differences(self, rng):
        bundle = md.init_bundle(input_width=2 * 8, n_bins=5, seed=10)
        from spinshield.spectral import dft_onesided, minmax_normalize_amplitude
        from spinshield.spectral import PatchSignalClip

        clips = [PatchSignalClip(signals=rng.normal(size=(2, 8))) for _ in range(4)]
        labels = np.array([0, 1, 1, 0])
        amps = np.stack([dft_onesided(c).amplitude for c in clips])
        norms = np.stack([minmax_normalize_amplitude(dft_onesided(c)) for c in clips])
        phases = np.stack([dft_onesided(c).phase for c in clips])
        weights = LossWeights()
        enc_arrays = md.named_arrays(bundle)
        h_clean = rng.normal(size=(4, enc_arrays["enc.w2"].shape[1]))
        gen_arrays = {n: a for n, a in enc_arrays.items() if n.startswith("gen.")}

        def build(nodes):
            full = {**{n: Node(a) for n, a in enc_arrays.items() if not n.startswith("gen.")}, **nodes}
            signals, mask = md.lsa_perturb_graph(
                amps.reshape(8, 5), norms.reshape(8, 5), phases.reshape(8, 5),
                8, full, bundle.alpha, bundle.delta,
            )
            x_env = ad.reshape(signals, (4, 16))
            h_env = md.encoder_forward(md.standardize_rows(x_env), full)
            logits_env = md.classifier_logits(h_env, full)
            d_mmd = obj.mmd(Node(h_clean), h_env, KernelSpec(bandwidth=1.0))
            return obj.generator_loss(logits_env, labels, d_mmd, mask, weights)

        nodes = {n: Node(a) for n, a in gen_arrays.items()}
        ad.backward(build(nodes))

        def value_fn(arrs):
            return float(build({n: Node(a) for n, a in arrs.items()}).value)

        for name in gen_arrays:
            numeric = finite_diff(value_fn, gen_arrays, name)
            scale_ref = np.maximum(np.abs(numeric), 1e-3)
            assert np.max(np.abs(nodes[name].grad - numeric) / scale_ref) < 1e-3


def _composed_kernel_sum(x, y, inv_two_sq):
    sq_x = prim.row_sum(ad.mul(x, x))
    sq_y = prim.row_sum(ad.mul(y, y))
    d2 = prim.add_rowvec(
        prim.add_colvec(ad.scale(prim.matmul(x, prim.transpose(y)), -2.0), sq_x),
        ad.reshape(sq_y, (sq_y.value.shape[0],)),
    )
    return ad.sum_all(ad.exp(ad.scale(d2, -inv_two_sq)))


def _composed_mmd(a, b, sigma):
    inv_two_sq = 1.0 / (2.0 * sigma * sigma)
    na, nb = a.value.shape[0], b.value.shape[0]
    term_a = ad.scale(_composed_kernel_sum(a, a, inv_two_sq), 1.0 / (na * na))
    term_b = ad.scale(_composed_kernel_sum(b, b, inv_two_sq), 1.0 / (nb * nb))
    cross = ad.scale(
        ad.add(_composed_kernel_sum(a, b, inv_two_sq), _composed_kernel_sum(b, a, inv_two_sq)),
        1.0 / (na * nb),
    )
    return ad.sub(ad.add(term_a, term_b), cross)


def _composed_symmetric_kl(p, q, floor=obj.PROB_FLOOR):
    pf, qf = prim.clip_min(p, floor), prim.clip_min(q, floor)
    log_p, log_q = ad.log(pf), ad.log(qf)
    kl_pq = prim.row_sum(ad.mul(pf, ad.sub(log_p, log_q)))
    kl_qp = prim.row_sum(ad.mul(qf, ad.sub(log_q, log_p)))
    return ad.scale(ad.mean_all(ad.add(kl_pq, kl_qp)), 0.5)


def _composed_paired_displacement(h_clean, h_env):
    diff = ad.sub(h_clean, h_env)
    mean = np.mean(h_clean.value, axis=0, keepdims=True)
    centered = ad.sub(h_clean, ad.const(np.repeat(mean, h_clean.value.shape[0], axis=0)))
    spread = ad.mean_all(ad.mul(centered, centered))
    return ad.mul(ad.mean_all(ad.mul(diff, diff)), prim.powc(spread, -1.0))


class TestFusedObjectives:
    """Each one-node objective equals the same loss composed from autodiff
    primitives, in value and gradient, to 1e-12 relative."""

    @staticmethod
    def _compare(fused, composed, arrays):
        results = []
        for build in (fused, composed):
            nodes = {name: Node(arr) for name, arr in arrays.items()}
            out = build(nodes)
            ad.backward(out)
            results.append((float(out.value), {name: node.grad for name, node in nodes.items()}))
        (value, grads), (ref_value, ref_grads) = results
        assert value == pytest.approx(ref_value, rel=1e-12, abs=1e-300)
        for name in arrays:
            scale = float(np.max(np.abs(ref_grads[name])))
            assert float(np.max(np.abs(grads[name] - ref_grads[name]))) <= 1e-12 * scale

    def test_mmd_matches_composition(self, rng):
        arrays = {"a": rng.normal(size=(6, 4)), "b": rng.normal(size=(5, 4)) + 0.5}
        self._compare(
            lambda n: obj.mmd(n["a"], n["b"], KernelSpec(bandwidth=1.7)),
            lambda n: _composed_mmd(n["a"], n["b"], 1.7),
            arrays,
        )
        check_gradients(lambda n: obj.mmd(n["a"], n["b"], KernelSpec(bandwidth=1.7)), arrays)

    def test_mmd_median_bandwidth_matches_composition(self, rng):
        arrays = {"a": rng.normal(size=(8, 3)), "b": rng.normal(size=(8, 3)) * 1.5}
        sigma = obj.resolve_bandwidth(arrays["a"], arrays["b"], KernelSpec())
        self._compare(
            lambda n: obj.mmd(n["a"], n["b"]),
            lambda n: _composed_mmd(n["a"], n["b"], sigma),
            arrays,
        )

    def test_mmd_of_one_node_with_itself(self, rng):
        a = Node(rng.normal(size=(4, 3)))
        ad.backward(obj.mmd(a, a, KernelSpec(bandwidth=1.0)))
        np.testing.assert_allclose(a.grad, 0.0, atol=1e-15)

    def test_mmd_constant_side_gets_no_buffer(self, rng):
        a = ad.const(rng.normal(size=(4, 3)))
        b = Node(rng.normal(size=(4, 3)))
        ad.backward(obj.mmd(a, b, KernelSpec(bandwidth=1.0)))
        assert a._grad is None and np.any(b.grad != 0.0)

    def test_symmetric_kl_matches_composition(self, rng):
        p = rng.dirichlet([1, 1, 1], size=5)
        q = rng.dirichlet([1, 1, 1], size=5)
        p[0], q[1] = [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]  # floored entries pass no gradient
        arrays = {"p": p, "q": q}
        self._compare(
            lambda n: obj.symmetric_kl(n["p"], n["q"]),
            lambda n: _composed_symmetric_kl(n["p"], n["q"]),
            arrays,
        )
        interior = {"p": rng.dirichlet([2, 2], size=4), "q": rng.dirichlet([2, 2], size=4)}
        check_gradients(lambda n: obj.symmetric_kl(n["p"], n["q"]), interior)

    def test_paired_displacement_matches_composition(self, rng):
        arrays = {"clean": rng.normal(size=(6, 4)), "env": rng.normal(size=(6, 4))}
        self._compare(
            lambda n: obj.paired_displacement(n["clean"], n["env"]),
            lambda n: _composed_paired_displacement(n["clean"], n["env"]),
            arrays,
        )
