import numpy as np
import pytest

from spinshield import autodiff as ad
from spinshield import models as md
from spinshield import training
from spinshield.autodiff import Node
from spinshield.objectives import LossWeights
from spinshield.spectral import forward_stack, minmax_normalize

import graph_reference
import primitives as prim


def finite_diff(fn, arrays, which, h=1e-5):
    """Central finite differences of a scalar function w.r.t. arrays[which]."""
    base = arrays[which]
    grad = np.zeros_like(base)
    flat = grad.reshape(-1)
    for i in range(base.size):
        orig = base.reshape(-1)[i]
        base.reshape(-1)[i] = orig + h
        up = fn(arrays)
        base.reshape(-1)[i] = orig - h
        down = fn(arrays)
        base.reshape(-1)[i] = orig
        flat[i] = (up - down) / (2 * h)
    return grad


def check_gradients(build, arrays, rtol=1e-4, atol=1e-6):
    """Analytic gradients of a scalar graph vs central finite differences."""
    nodes = {name: Node(arr) for name, arr in arrays.items()}
    loss = build(nodes)
    ad.backward(loss)

    def value_fn(arrs):
        fresh = {name: Node(arr) for name, arr in arrs.items()}
        return float(build(fresh).value)

    for name in arrays:
        numeric = finite_diff(value_fn, arrays, name)
        np.testing.assert_allclose(nodes[name].grad, numeric, rtol=rtol, atol=atol)


class TestPrimitives:
    def test_tanh_derivative_at_zero(self):
        x = Node(np.zeros(()))
        out = ad.tanh(x)
        ad.backward(out)
        assert x.grad == 1.0

    def test_softmax_of_ties(self):
        x = Node(np.array([[0.0, 0.0]]))
        p = ad.softmax(x)
        np.testing.assert_array_equal(p.value, [[0.5, 0.5]])
        # Jacobian rows sum to zero: the gradient of sum(softmax) vanishes
        ad.backward(ad.sum_all(p))
        np.testing.assert_allclose(x.grad, 0.0, atol=1e-15)

    @pytest.mark.parametrize(
        "op,shape",
        [
            (lambda n: ad.sum_all(ad.tanh(n["a"])), (3, 2)),
            (lambda n: ad.sum_all(ad.exp(n["a"])), (2, 2)),
            (lambda n: ad.mean_all(ad.mul(n["a"], n["a"])), (4,)),
            (lambda n: ad.sum_all(prim.powc(ad.add_scalar(ad.mul(n["a"], n["a"]), 1.0), -0.5)), (3,)),
            (lambda n: ad.sum_all(prim.clip_min(n["a"], 0.1)), (5,)),
            (lambda n: ad.mean_all(ad.softmax(n["a"])), (3, 4)),
            (lambda n: ad.sum_all(prim.row_mean(n["a"])), (3, 4)),
            (lambda n: ad.mean_all(ad.neg(ad.scale(n["a"], 2.5))), (2, 3)),
        ],
    )
    def test_unary_gradients(self, op, shape):
        rng = np.random.default_rng(hash(shape) % 2**32)
        arrays = {"a": rng.normal(size=shape)}
        check_gradients(op, arrays)

    def test_matmul_and_broadcast_gradients(self):
        rng = np.random.default_rng(7)
        arrays = {
            "x": rng.normal(size=(4, 3)),
            "w": rng.normal(size=(3, 2)),
            "b": rng.normal(size=2),
            "c": rng.normal(size=(4, 1)),
        }

        def build(n):
            z = prim.add_rowvec(prim.matmul(n["x"], n["w"]), n["b"])
            z = prim.mul_colvec(prim.add_colvec(z, n["c"]), n["c"])
            return ad.mean_all(ad.tanh(z))

        check_gradients(build, arrays)

    def test_log_gradient_and_domain(self):
        rng = np.random.default_rng(3)
        arrays = {"a": rng.uniform(0.5, 2.0, size=(3,))}
        check_gradients(lambda n: ad.sum_all(ad.log(n["a"])), arrays)
        with pytest.raises(ValueError, match="log"):
            ad.log(Node(np.array([-1.0])))

    def test_cross_entropy_gradient(self):
        rng = np.random.default_rng(11)
        arrays = {"z": rng.normal(size=(5, 3))}
        labels = np.array([0, 2, 1, 1, 0])
        check_gradients(
            lambda n: ad.mean_all(ad.cross_entropy_with_logits(n["z"], labels)), arrays
        )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            ad.add(Node(np.ones(3)), Node(np.ones(4)))
        with pytest.raises(ValueError, match="dense"):
            ad.dense(Node(np.ones((2, 3))), Node(np.ones((2, 3))), Node(np.ones(3)))

    def test_rank_limit(self):
        with pytest.raises(ValueError, match="rank"):
            Node(np.ones((2, 2, 2)))

    def test_random_composites_match_finite_differences(self):
        # five-op random composites over 100 seeds
        for seed in range(100):
            rng = np.random.default_rng(seed)
            arrays = {"a": rng.normal(size=(3, 3)), "b": rng.normal(size=(3, 3))}

            def build(n, seed=seed):
                z = ad.dense(n["a"], n["b"], ad.const(np.zeros(3)))
                z = ad.tanh(z) if seed % 2 else ad.mul(z, n["a"])
                z = ad.add(z, n["b"])
                z = ad.scale(z, 0.7) if seed % 3 else ad.exp(ad.scale(z, 0.1))
                return ad.mean_all(z)

            check_gradients(build, arrays)


class TestGrl:
    def test_forward_identity(self):
        x = Node(np.array([1.5, -2.0]))
        np.testing.assert_array_equal(ad.grl(x).value, [1.5, -2.0])

    def test_backward_sign_flip(self):
        x = Node(np.array([1.0, 2.0, 3.0]))
        out = ad.sum_all(ad.grl(x))
        ad.backward(out)
        np.testing.assert_array_equal(x.grad, [-1.0, -1.0, -1.0])

    def test_paired_run_negation_through_network(self):
        rng = np.random.default_rng(5)
        h_val = rng.normal(size=(4, 3))
        w_val = rng.normal(size=(3, 2))

        def run(with_grl):
            h = Node(h_val)
            w = Node(w_val)
            z = ad.grl(h) if with_grl else h
            loss = ad.mean_all(ad.dense(z, w, ad.const(np.zeros(2)), "tanh"))
            ad.backward(loss)
            return h.grad.copy(), w.grad.copy()

        g_with, w_with = run(True)
        g_without, w_without = run(False)
        np.testing.assert_array_equal(g_with, -g_without)
        np.testing.assert_array_equal(w_with, w_without)

    def test_double_reversal_is_identity(self):
        x = Node(np.array([0.3, -0.4]))
        out = ad.sum_all(ad.grl(ad.grl(x)))
        np.testing.assert_array_equal(out.value, x.value.sum())
        ad.backward(out)
        np.testing.assert_array_equal(x.grad, [1.0, 1.0])


class TestBackward:
    def test_sum_of_params_gives_unit_grads(self):
        x = Node(np.ones((2, 3)))
        ad.backward(ad.sum_all(x))
        np.testing.assert_array_equal(x.grad, 1.0)

    def test_zero_scaled_loss_gives_zero_grads(self):
        x = Node(np.ones(4))
        ad.backward(ad.scale(ad.sum_all(ad.tanh(x)), 0.0))
        np.testing.assert_array_equal(x.grad, 0.0)

    def test_non_scalar_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            ad.backward(Node(np.ones(2)))

    def test_accumulation_requires_zero_grad(self):
        x = Node(np.ones(3))
        loss = ad.sum_all(x)
        ad.backward(loss)
        ad.backward(loss)
        np.testing.assert_array_equal(x.grad, 2.0)
        ad.zero_grad([x])
        np.testing.assert_array_equal(x.grad, 0.0)

    def test_fan_out_accumulates(self):
        x = Node(np.array(2.0))
        out = ad.add(ad.mul(x, x), x)  # x^2 + x
        ad.backward(out)
        assert x.grad == pytest.approx(5.0)

    def test_forward_deterministic_bitwise(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4))
        r1 = ad.dense(Node(a), Node(b), Node(np.zeros(4)), "tanh").value
        r2 = ad.dense(Node(a), Node(b), Node(np.zeros(4)), "tanh").value
        np.testing.assert_array_equal(r1, r2)


class TestGradientWork:
    """Constants, pruned visits and lazy buffers change no gradient."""

    @staticmethod
    def _step_gradients(step, kernel):
        # the training step's gradients from its closed-form kernel, or from
        # the reference graph
        rng = np.random.default_rng(17)
        b, m, t = 6, 2, 8
        signals = rng.normal(size=(b, m, t))
        amps, phases = forward_stack(signals)
        phasors = np.exp(1j * phases)
        x = signals.reshape(b, m * t)
        y = np.array([0, 1] * (b // 2))
        bundle = md.init_bundle(input_width=m * t, n_bins=t // 2 + 1, hidden=6, feature_dim=4,
                                gen_hidden=5, domain_hidden=3, seed=4)
        arrays = md.named_arrays(bundle)
        gen = {n: a for n, a in arrays.items() if n.startswith("gen.")}
        alpha, delta = bundle.alpha, bundle.delta
        z = ad.standardized(x, md.STANDARDIZE_EPS)[0]
        if step == "detector":
            detector = {n: a for n, a in arrays.items() if n.startswith(("enc.", "head."))}
            env = graph_reference.lsa_views(amps, phasors, t, graph_reference.leaves(gen), alpha, delta)[0]
            z_env = ad.standardized(env.value, md.STANDARDIZE_EPS)[0]
            if not kernel:
                return graph_reference.detector_step(detector, z, z_env, y, LossWeights())[1]
            grads = {n: np.full_like(a, np.nan) for n, a in detector.items()}
            training._detector_step(detector, grads, z, z_env, y, LossWeights())
            return grads
        frozen = {n: arrays[n] for n in training._ADVERSARY_READS}
        if kernel:
            views = md.lsa_forward(gen, amps, minmax_normalize(amps), phasors, t, alpha, delta)
            grads = {n: np.full_like(a, np.nan) for n, a in gen.items()}
            training._adversary_step(frozen, gen, grads, views, z, y, LossWeights(), alpha)
            return grads
        return graph_reference.adversary_step(frozen, gen, amps, phasors, t, z, y, LossWeights(), alpha, delta)[1]

    @pytest.mark.parametrize("step", ["detector", "adversary"])
    def test_training_graphs_match_every_leaf_trainable(self, step, monkeypatch):
        # the kernels compute only the gradients a step reads; the graph with
        # every leaf trainable computes them all
        pruned = self._step_gradients(step, kernel=True)
        monkeypatch.setattr(ad, "const", Node)
        full = self._step_gradients(step, kernel=False)
        assert sorted(pruned) == sorted(full)
        for name, grad in pruned.items():
            assert np.any(grad != 0.0), name
            assert np.array_equal(grad, full[name]), name

    def test_constants_never_receive_a_gradient(self):
        rng = np.random.default_rng(23)
        w = Node(rng.normal(size=(3, 2)))
        x = ad.const(rng.normal(size=(4, 3)))
        c = ad.const(rng.normal(size=(4, 2)))
        zero_bias = ad.const(np.zeros(2))
        fixed = ad.dense(x, ad.const(np.ones((3, 2))), zero_bias, "tanh")
        assert not fixed.requires_grad
        mixed = ad.custom(x.value @ w.value, (x, w), lambda g: (g @ w.value.T, x.value.T @ g))
        assert mixed.requires_grad
        loss = ad.sum_all(ad.mul(ad.add(ad.add(ad.dense(x, w, zero_bias), mixed), fixed), c))
        ad.backward(loss)
        for node in (x, c, fixed):
            assert node._grad is None
        np.testing.assert_array_equal(w.grad, 2.0 * x.value.T @ c.value)
        np.testing.assert_array_equal(x.grad, 0.0)
        # a loss that depends on no trainable leaf does nothing
        y = ad.const(np.ones(3))
        ad.backward(ad.sum_all(y))
        assert y._grad is None

    def test_editing_one_gradient_leaves_every_other(self):
        # the adds hand one buffer on to `inner`, `x` and `y`: x's second
        # contribution must not be added into it, and an edit of y's
        # gradient must not reach it
        x = Node(np.ones((2, 3)))
        y = Node(np.full((2, 3), 2.0))
        inner = ad.add(x, y)
        outer = ad.add(inner, x)
        turned = ad.reshape(outer, (3, 2))
        loss = ad.sum_all(ad.mul(turned, ad.const(np.ones((3, 2)))))
        ad.backward(loss)
        y.grad[0, 0] = 99.0
        y.grad *= 2.0
        assert y.grad[0, 0] == 198.0 and np.all(y.grad.flat[1:] == 2.0)
        np.testing.assert_array_equal(x.grad, 2.0)
        for node in (inner, outer, turned):
            np.testing.assert_array_equal(node.grad, 1.0)

    @pytest.mark.parametrize(
        "reduce,expected",
        [
            (ad.sum_all, 1.0),
            (ad.mean_all, 1.0 / 6.0),
            (lambda n: ad.sum_all(prim.row_sum(n)), 1.0),
        ],
    )
    def test_reduction_gradient_takes_the_leafs_shape(self, reduce, expected):
        x = Node(np.arange(6.0).reshape(2, 3))
        ad.backward(reduce(x))
        assert x.grad.shape == (2, 3)
        np.testing.assert_array_equal(x.grad, expected)
        x.grad += 1.0  # the buffer is the leaf's own, and writable
        np.testing.assert_array_equal(x.grad, expected + 1.0)


def _composed_dense(x, w, b, activation=None):
    z = prim.add_rowvec(prim.matmul(x, w), b)
    return ad.tanh(z) if activation == "tanh" else z


def _composed_standardize(x, eps):
    mu = prim.row_mean(x)
    centered = prim.add_colvec(x, ad.neg(mu))
    var = prim.row_mean(ad.mul(centered, centered))
    return prim.mul_colvec(centered, prim.powc(ad.add_scalar(var, eps), -0.5))


def _assert_close(got, want, rtol=1e-12):
    scale = max(float(np.max(np.abs(want))), 1e-300)
    assert float(np.max(np.abs(got - want))) <= rtol * scale


class TestFusedKernels:
    """Each fused node equals its composition of primitives, in value and in
    every gradient, to 1e-12 relative."""

    @staticmethod
    def _compare(fused, composed, arrays):
        results = []
        for build in (fused, composed):
            nodes = {name: Node(arr) for name, arr in arrays.items()}
            out = build(nodes)
            weights = np.random.default_rng(1).normal(size=out.value.shape)
            ad.backward(ad.sum_all(ad.mul(out, ad.const(weights))))
            results.append((out.value, {name: node.grad for name, node in nodes.items()}))
        (value, grads), (ref_value, ref_grads) = results
        _assert_close(value, ref_value)
        for name in arrays:
            _assert_close(grads[name], ref_grads[name])

    @pytest.mark.parametrize("activation", [None, "tanh"])
    def test_dense_matches_composition(self, activation, rng):
        arrays = {"x": rng.normal(size=(5, 4)), "w": rng.normal(size=(4, 3)), "b": rng.normal(size=3)}
        self._compare(
            lambda n: ad.dense(n["x"], n["w"], n["b"], activation),
            lambda n: _composed_dense(n["x"], n["w"], n["b"], activation),
            arrays,
        )
        check_gradients(lambda n: ad.mean_all(ad.dense(n["x"], n["w"], n["b"], activation)), arrays)

    def test_standardize_rows_matches_composition(self, rng):
        arrays = {"x": rng.normal(size=(4, 6)) * 3.0 + 1.0}
        self._compare(
            lambda n: ad.standardize_rows(n["x"], 1e-8),
            lambda n: _composed_standardize(n["x"], 1e-8),
            arrays,
        )
        weights = rng.normal(size=(4, 6))
        check_gradients(
            lambda n: ad.sum_all(ad.mul(ad.standardize_rows(n["x"], 1e-8), ad.const(weights))), arrays
        )

    def test_row_slice_and_concat_gradients(self, rng):
        arrays = {"a": rng.normal(size=(3, 2)), "b": rng.normal(size=(2, 2))}

        def build(n):
            both = ad.concat_rows(n["a"], n["b"])
            top, bottom = ad.row_slice(both, 0, 2), ad.row_slice(both, 2, 5)
            return ad.add(ad.mean_all(ad.tanh(top)), ad.sum_all(ad.exp(bottom)))

        check_gradients(build, arrays)
        with pytest.raises(ValueError, match="row_slice"):
            ad.row_slice(Node(np.ones((2, 2))), 1, 3)

    def test_bad_dense_arguments_rejected(self):
        x, w = Node(np.ones((2, 3))), Node(np.ones((3, 4)))
        with pytest.raises(ValueError, match="bias"):
            ad.dense(x, w, Node(np.ones(3)))
        with pytest.raises(ValueError, match="activation"):
            ad.dense(x, w, Node(np.ones(4)), "relu")

    def test_constant_parents_are_never_reached(self, rng):
        x = ad.const(rng.normal(size=(4, 3)))
        w, b = Node(rng.normal(size=(3, 2))), Node(rng.normal(size=2))
        frozen = ad.const(rng.normal(size=(2, 2)))
        h = ad.dense(ad.standardize_rows(x, 1e-8), w, b, "tanh")
        loss = ad.mean_all(ad.dense(h, frozen, ad.const(np.zeros(2))))
        visited = []
        for node in (x, frozen):
            node._backward = lambda g: visited.append(g)
        ad.backward(loss)
        assert not visited
        assert x._grad is None and frozen._grad is None
        assert np.any(w.grad != 0.0) and np.any(b.grad != 0.0)
