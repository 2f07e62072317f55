"""Losses: cross entropy, MMD, mask regularizer, minimax objectives, invariance terms.

The loss functions build autodiff graphs; plain arrays are accepted anywhere
a constant input is fine and are wrapped on entry.  The ``*_with_vjp``
functions are the closed forms of the MMD, the symmetric KL and the paired
displacement over plain arrays, shared by their graph ops and the training
step kernels.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
import numpy.typing as npt

from . import autodiff as ad
from .autodiff import FloatArray, Node
from .models import ModulationMask

PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class LossWeights:
    gamma: float = 1.0
    lambda_mask: float = 0.1
    lambda_sym: float = 0.9
    lambda_blind: float = 0.7

    def __post_init__(self) -> None:
        for name in ("gamma", "lambda_mask", "lambda_sym", "lambda_blind"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and non-negative, got {value}")


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian RBF kernel; bandwidth is a positive float or the median heuristic."""

    bandwidth: Union[float, str] = "median"

    def __post_init__(self) -> None:
        if isinstance(self.bandwidth, str):
            if self.bandwidth != "median":
                raise ValueError(f"unknown bandwidth rule {self.bandwidth!r}")
        elif self.bandwidth <= 0.0:
            raise ValueError("bandwidth must be positive")


def cross_entropy(p: npt.ArrayLike, y: int, floor: float = PROB_FLOOR) -> float:
    """Negative log-likelihood of label y under a class distribution."""
    probs = np.asarray(p, dtype=np.float64)
    if probs.ndim != 1:
        raise ValueError("expected a single class distribution")
    if not 0 <= y < probs.shape[0]:
        raise ValueError(f"label {y} out of range for {probs.shape[0]} classes")
    return float(-np.log(max(float(probs[y]), floor)))


def batch_cross_entropy(logits: Node, labels: npt.ArrayLike) -> Node:
    """Batch-mean cross entropy from logits in fused stable form."""
    return ad.mean_all(ad.cross_entropy_with_logits(logits, labels))


def _as_matrix(x: "Node | npt.ArrayLike") -> Node:
    node = ad.as_node(x)
    if node.value.ndim == 1:
        return ad.reshape(node, (1, node.value.shape[0]))
    return node


def resolve_bandwidth(a: np.ndarray, b: np.ndarray, kernel: KernelSpec) -> float:
    """Kernel bandwidth; the median heuristic pools both sets and takes the
    median pairwise Euclidean distance (no gradient flows through this), or
    1.0 where that median is 0 or NaN.  The median is ``np.median``'s bit for
    bit, with the monotone square root taken of the middle values alone."""
    return _bandwidth(_pooled_d2(np.concatenate([a, b], axis=0)), kernel)


def _pooled_d2(union: FloatArray) -> FloatArray:
    """The squared Euclidean distances between the rows of ``union``, from
    one Gram matrix of them."""
    sq = np.add.reduce(union * union, axis=1)
    return (union @ union.T * -2.0 + sq[:, None]) + sq


def _bandwidth(d2: FloatArray, kernel: KernelSpec) -> float:
    """:func:`resolve_bandwidth` from the pooled squared distances ``d2``."""
    if not isinstance(kernel.bandwidth, str):
        return float(kernel.bandwidth)
    pairs = _upper_pairs(d2.shape[0])
    if pairs.size == 0:
        return 1.0
    dist2 = np.maximum(d2.ravel()[pairs], 0.0)
    half = dist2.size // 2
    middle = [half] if dist2.size % 2 else [half - 1, half]
    dist2.partition(middle + [-1])  # a NaN sorts last, where np.median looks for one
    med = np.nan if np.isnan(dist2[-1]) else float(np.add.reduce(np.sqrt(dist2[middle])) / len(middle))
    return med if med > 0.0 else 1.0


@functools.lru_cache(maxsize=8)
def _upper_pairs(n: int) -> np.ndarray:
    """Flat indices of the entries above the diagonal of an n x n matrix, in
    row-major order; built once per size and read-only, as callers share it."""
    pairs = np.flatnonzero(np.triu(np.ones((n, n), dtype=bool), k=1))
    pairs.flags.writeable = False
    return pairs


def mmd(
    features_a: "Node | npt.ArrayLike",
    features_b: "Node | npt.ArrayLike",
    kernel: KernelSpec = KernelSpec(),
) -> Node:
    """Biased V-statistic MMD^2 between two feature sets under an RBF kernel.

    The estimator is mean k(a,a') + mean k(b,b') - 2 mean k(a,b), which is
    non-negative and exactly zero for identical sets.  The cross term is
    computed in both orders and summed so the value is bitwise symmetric in
    its arguments.  One node, with the closed-form vector-Jacobian product
    of :func:`mmd_with_vjp`.
    """
    a = _as_matrix(features_a)
    b = _as_matrix(features_b)
    value, vjp = mmd_with_vjp(a.value, b.value, kernel)
    return ad.custom(value, (a, b), vjp)


def mmd_with_vjp(
    av: FloatArray, bv: FloatArray, kernel: KernelSpec = KernelSpec()
) -> tuple[float, Callable[[float], tuple[FloatArray, FloatArray]]]:
    """:func:`mmd` over two feature matrices as plain arrays: its value, and
    the map from the value's gradient to the gradients at ``av`` and ``bv``."""
    if av.shape[0] == 0 or bv.shape[0] == 0:
        raise ValueError("mmd requires non-empty feature sets")
    if av.shape[1] != bv.shape[1]:
        raise ValueError("feature dimensions differ")
    na, nb = av.shape[0], bv.shape[0]
    # one Gram matrix of the union u = [a; b] serves the bandwidth and every kernel block
    union = np.concatenate([av, bv])
    d2 = _pooled_d2(union)
    sigma = _bandwidth(d2, kernel)
    inv_two_sq = 1.0 / (2.0 * sigma * sigma)
    k = np.exp(np.multiply(d2, -inv_two_sq, out=d2), out=d2)
    value = (k[:na, :na].sum() * (1.0 / (na * na)) + k[na:, na:].sum() * (1.0 / (nb * nb))) - (
        (k[:na, na:].sum() + k[na:, :na].sum()) * (1.0 / (na * nb))
    )

    def vjp(g: float) -> tuple[FloatArray, FloatArray]:
        # d k(u_i, u_j) / d u_i = -2 inv_two_sq k(u_i, u_j) (u_i - u_j), with
        # each block's coefficient in one weight matrix
        weights = np.add(k, k.T)
        weights *= _block_coefficients(na, nb, union.dtype)
        grad = (union * np.add.reduce(weights, axis=1)[:, None] - weights @ union) * (-2.0 * inv_two_sq * g)
        return grad[:na], grad[na:]

    return value, vjp


@functools.lru_cache(maxsize=8)
def _block_coefficients(na: int, nb: int, dtype: np.dtype) -> FloatArray:
    """Each kernel entry's coefficient in the MMD over the union of ``na`` and
    ``nb`` rows: ``1/n^2`` within a set, ``-1/(na nb)`` across; read-only."""
    coef = np.full((na + nb, na + nb), -1.0 / (na * nb), dtype=dtype)
    coef[:na, :na], coef[na:, na:] = 1.0 / (na * na), 1.0 / (nb * nb)
    coef.flags.writeable = False
    return coef


def _mask_node(mask: "Node | ModulationMask") -> Node:
    if isinstance(mask, ModulationMask):
        b, m, k = mask.values.shape
        return ad.const(mask.values.reshape(b * m, k))
    return mask


def mask_regularizer(mask: "Node | ModulationMask") -> Node:
    """Mean squared deviation of the modulation mask from the identity."""
    node = _mask_node(mask)
    dev = ad.add_scalar(node, -1.0)
    return ad.scale(ad.sum_all(ad.mul(dev, dev)), 1.0 / node.value.size)


def generator_loss(
    env_logits: Node,
    labels: npt.ArrayLike,
    d_mmd: Node,
    mask: "Node | ModulationMask",
    weights: LossWeights,
) -> Node:
    """Adversary objective (to maximize): env-view CE plus the weighted feature
    shift, minus the mask regularizer that keeps perturbations honest."""
    ce = batch_cross_entropy(env_logits, labels)
    reg = mask_regularizer(mask)
    return ad.sub(
        ad.add(ce, ad.scale(d_mmd, weights.gamma)),
        ad.scale(reg, weights.lambda_mask),
    )


def detector_loss(
    clean_logits: Node,
    env_logits: "Node | None",
    labels: npt.ArrayLike,
) -> Node:
    """Batch mean of clean-view CE plus env-view CE (clean term only if no env)."""
    ce_clean = ad.cross_entropy_with_logits(clean_logits, labels)
    if env_logits is None:
        return ad.mean_all(ce_clean)
    ce_env = ad.cross_entropy_with_logits(env_logits, labels)
    return ad.mean_all(ad.add(ce_clean, ce_env))


def blindness_loss(
    h_clean: Node,
    h_env: Node,
    discriminate: Callable[[Node], Node],
    through_grl: bool = True,
) -> Node:
    """Domain-discrimination loss: cross entropy of the clean-vs-env posteriors
    against the true view labels.

    With ``through_grl`` the reversal layer hands the encoder the negated
    gradient in the same backward pass (the DANN form).  Training feeds it
    detached features instead, so it trains only the discriminator, and moves
    the encoder with :func:`encoder_blindness_loss`.

    ``discriminate`` maps features to domain logits and must not apply its own
    reversal layer.
    """
    z = ad.concat_rows(h_clean, h_env)
    logits = discriminate(ad.grl(z) if through_grl else z)
    n_clean = h_clean.value.shape[0]
    labels = np.repeat(np.array([0, 1], dtype=np.intp), [n_clean, h_env.value.shape[0]])
    return _view_means_sum(ad.cross_entropy_with_logits(logits, labels), n_clean)


def _view_means_sum(per_row: Node, n_clean: int) -> Node:
    """Mean over the first ``n_clean`` rows plus mean over the rest."""
    n_env = per_row.value.shape[0] - n_clean
    weights = np.repeat([1.0 / n_clean, 1.0 / n_env], [n_clean, n_env])
    return ad.sum_all(ad.mul(per_row, ad.const(weights)))


def confusion_loss(
    h_clean: Node,
    h_env: Node,
    discriminate: Callable[[Node], Node],
) -> Node:
    """Cross entropy of the discriminator's domain posteriors against the
    uniform distribution, summed over both views.

    Its minimum, 2 ln 2, is reached exactly where the discriminator cannot
    tell the views apart, so the encoder is pulled onto the decision boundary
    and feels no pull once it is there (Tzeng et al. 2015).  Ascending the
    discriminator's own loss through a reversal layer instead rewards carrying
    each view to the far side of the boundary.

    The discriminator sees unpaired views, so this term only asks the two
    feature sets to look alike to it; it does not ask any clip's features to
    stay put.  Used alone in training it made the classifier lean less on
    the shortcut bin, while a fresh probe separated clean from adversarial
    features better than without it.

    ``discriminate`` must hold the discriminator parameters constant.
    """

    logits = discriminate(ad.concat_rows(h_clean, h_env))
    n = logits.value.shape[0]
    both = ad.add(
        ad.cross_entropy_with_logits(logits, np.zeros(n, dtype=np.intp)),
        ad.cross_entropy_with_logits(logits, np.ones(n, dtype=np.intp)),
    )
    return ad.scale(_view_means_sum(both, h_clean.value.shape[0]), 0.5)


def paired_displacement(h_clean: Node, h_env: Node) -> Node:
    """Mean squared distance between the clean and env features of each clip,
    relative to the mean squared distance of the clean features from their
    batch mean.

    Row i of both inputs must hold two views of the same clip.  The ratio is
    unchanged by a common rescaling of the features, so the encoder cannot
    lower it by shrinking the latent.  Unlike a discriminator of unpaired
    views, it sees env views that have merely traded places with other clips'
    clean views.
    """
    value, vjp = paired_displacement_with_vjp(h_clean.value, h_env.value)
    return ad.custom(value, (h_clean, h_env), vjp)


def paired_displacement_with_vjp(
    h_clean: FloatArray, h_env: FloatArray
) -> tuple[float, Callable[[float], tuple[FloatArray, FloatArray]]]:
    """:func:`paired_displacement` over plain arrays: its value, and the map
    from the value's gradient to the gradients at both views."""
    if h_clean.shape != h_env.shape:
        raise ValueError("paired views must have the same shape")
    diff = h_clean - h_env
    # the batch mean enters as a constant: the rows of (h - mean) sum to zero,
    # so the spread's gradient is the same as with the mean differentiated
    centered = h_clean - np.add.reduce(h_clean, axis=0, keepdims=True) / len(h_clean)
    # np.mean's bits, as a sum over the count
    shift = np.add.reduce(diff * diff, axis=None) / diff.size
    spread = np.add.reduce(centered * centered, axis=None) / diff.size
    if spread == 0.0:
        # one clip (or clean features all alike): the ratio is undefined
        return 0.0, lambda g: (np.zeros_like(h_clean), np.zeros_like(h_env))

    def vjp(g: float) -> tuple[FloatArray, FloatArray]:
        g_diff = diff * (2.0 * g / (diff.size * spread))
        return g_diff - centered * (2.0 * g * shift / (diff.size * spread * spread)), -g_diff

    return shift / spread, vjp


def encoder_blindness_loss(
    h_clean: Node,
    h_env: Node,
    discriminate: Callable[[Node], Node],
) -> Node:
    """Encoder side of L_blind: :func:`confusion_loss` against a constant copy
    of the discriminator plus the :func:`paired_displacement` of each clip's
    two views.

    On the acceptance seeds each part alone fell short: confusion raised
    attacked AUC while a fresh probe found the latent less blind, and the
    paired term made the latent blinder with no clear gain in attacked AUC.
    Together they did both.
    """
    paired = paired_displacement(h_clean, h_env)
    return ad.add(paired, confusion_loss(h_clean, h_env, discriminate))


def symmetric_kl(
    p_clean: "Node | npt.ArrayLike",
    p_env: "Node | npt.ArrayLike",
    floor: float = PROB_FLOOR,
) -> Node:
    """Batch mean of 0.5 (KL(p||q) + KL(q||p)) with entries floored before logs.

    One node: the two KL terms of a row sum to sum_k (p_k - q_k)(log p_k -
    log q_k), which is bitwise symmetric in p and q and exactly 0 for p = q.
    """
    p = _as_matrix(p_clean)
    q = _as_matrix(p_env)
    value, vjp = symmetric_kl_with_vjp(p.value, q.value, floor)
    return ad.custom(value, (p, q), vjp)


def symmetric_kl_with_vjp(
    p: FloatArray, q: FloatArray, floor: float = PROB_FLOOR
) -> tuple[float, Callable[[float], tuple[FloatArray, FloatArray]]]:
    """:func:`symmetric_kl` over two matrices of distributions as plain
    arrays: its value, and the map from the value's gradient to the gradients
    at ``p`` and ``q``."""
    if p.shape != q.shape:
        raise ValueError("distribution shapes differ")
    pf = np.maximum(p, floor)
    qf = np.maximum(q, floor)
    diff = pf - qf
    log_ratio = np.log(pf) - np.log(qf)
    half_mean = 0.5 / p.shape[0]

    def vjp(g: float) -> tuple[FloatArray, FloatArray]:
        c = g * half_mean
        # the floor passes a gradient only where it does not clamp
        return ((log_ratio + diff / pf) * (p > floor) * c,
                (-log_ratio - diff / qf) * (q > floor) * c)

    return np.add.reduce(diff * log_ratio, axis=None) * half_mean, vjp


def total_loss(l_det: Node, l_sym: Node, l_blind: Node, weights: LossWeights) -> Node:
    """Detector objective: detection plus weighted invariance terms."""
    return ad.add(
        l_det,
        ad.add(ad.scale(l_sym, weights.lambda_sym), ad.scale(l_blind, weights.lambda_blind)),
    )
