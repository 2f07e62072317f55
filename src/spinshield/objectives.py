"""Losses: cross entropy, MMD, mask regularizer, minimax objectives, invariance terms.

All functions build autodiff graphs so they can sit on either side of the
alternating optimization; plain arrays are accepted anywhere a constant input
is fine and are wrapped on entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
import numpy.typing as npt

from . import autodiff as ad
from .autodiff import Node
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
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")


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
    median pairwise Euclidean distance (no gradient flows through this)."""
    if isinstance(kernel.bandwidth, float) or isinstance(kernel.bandwidth, int):
        return float(kernel.bandwidth)
    union = np.concatenate([a, b], axis=0)
    sq = np.sum(union * union, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * union @ union.T
    iu = np.triu_indices(union.shape[0], k=1)
    if iu[0].size == 0:
        return 1.0
    med = float(np.median(np.sqrt(np.maximum(d2[iu], 0.0))))
    return med if med > 0.0 else 1.0


def _kernel_sum(x: Node, y: Node, inv_two_sq: float) -> Node:
    """Sum of RBF kernel values over all pairs (rows of x) x (rows of y)."""
    sq_x = ad.row_sum(ad.mul(x, x))
    sq_y = ad.row_sum(ad.mul(y, y))
    cross = ad.matmul(x, ad.transpose(y))
    d2 = ad.add_rowvec(
        ad.add_colvec(ad.scale(cross, -2.0), sq_x),
        ad.reshape(sq_y, (sq_y.value.shape[0],)),
    )
    return ad.sum_all(ad.exp(ad.scale(d2, -inv_two_sq)))


def mmd(
    features_a: "Node | npt.ArrayLike",
    features_b: "Node | npt.ArrayLike",
    kernel: KernelSpec = KernelSpec(),
) -> Node:
    """Biased V-statistic MMD^2 between two feature sets under an RBF kernel.

    The estimator is mean k(a,a') + mean k(b,b') - 2 mean k(a,b), which is
    non-negative and exactly zero for identical sets.  The cross term is
    computed in both orders and averaged so the value is bitwise symmetric
    in its arguments.
    """
    a = _as_matrix(features_a)
    b = _as_matrix(features_b)
    if a.value.shape[0] == 0 or b.value.shape[0] == 0:
        raise ValueError("mmd requires non-empty feature sets")
    if a.value.shape[1] != b.value.shape[1]:
        raise ValueError("feature dimensions differ")
    sigma = resolve_bandwidth(a.value, b.value, kernel)
    inv_two_sq = 1.0 / (2.0 * sigma * sigma)
    na, nb = a.value.shape[0], b.value.shape[0]
    term_a = ad.scale(_kernel_sum(a, a, inv_two_sq), 1.0 / (na * na))
    term_b = ad.scale(_kernel_sum(b, b, inv_two_sq), 1.0 / (nb * nb))
    cross = ad.scale(
        ad.add(_kernel_sum(a, b, inv_two_sq), _kernel_sum(b, a, inv_two_sq)),
        1.0 / (na * nb),
    )
    return ad.sub(ad.add(term_a, term_b), cross)


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
    z_clean = ad.grl(h_clean) if through_grl else h_clean
    z_env = ad.grl(h_env) if through_grl else h_env
    n_clean = h_clean.value.shape[0]
    n_env = h_env.value.shape[0]
    loss_clean = batch_cross_entropy(discriminate(z_clean), np.zeros(n_clean, dtype=np.intp))
    loss_env = batch_cross_entropy(discriminate(z_env), np.ones(n_env, dtype=np.intp))
    return ad.add(loss_clean, loss_env)


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

    def uniform_target_ce(h: Node) -> Node:
        logits = discriminate(h)
        n = h.value.shape[0]
        both = ad.add(
            batch_cross_entropy(logits, np.zeros(n, dtype=np.intp)),
            batch_cross_entropy(logits, np.ones(n, dtype=np.intp)),
        )
        return ad.scale(both, 0.5)

    return ad.add(uniform_target_ce(h_clean), uniform_target_ce(h_env))


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
    if h_clean.value.shape != h_env.value.shape:
        raise ValueError("paired views must have the same shape")
    diff = ad.sub(h_clean, h_env)
    # the batch mean enters as a constant: the rows of (h - mean) sum to zero,
    # so the spread's gradient is the same as with the mean differentiated
    mean = np.mean(h_clean.value, axis=0, keepdims=True)
    centered = ad.sub(h_clean, ad.const(np.repeat(mean, h_clean.value.shape[0], axis=0)))
    spread = ad.mean_all(ad.mul(centered, centered))
    return ad.mul(ad.mean_all(ad.mul(diff, diff)), ad.powc(spread, -1.0))


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
    """Batch mean of 0.5 (KL(p||q) + KL(q||p)) with entries floored before logs."""
    p = _as_matrix(p_clean)
    q = _as_matrix(p_env)
    if p.value.shape != q.value.shape:
        raise ValueError("distribution shapes differ")
    pf = ad.clip_min(p, floor)
    qf = ad.clip_min(q, floor)
    log_p = ad.log(pf)
    log_q = ad.log(qf)
    kl_pq = ad.row_sum(ad.mul(pf, ad.sub(log_p, log_q)))
    kl_qp = ad.row_sum(ad.mul(qf, ad.sub(log_q, log_p)))
    return ad.scale(ad.mean_all(ad.add(kl_pq, kl_qp)), 0.5)


def total_loss(l_det: Node, l_sym: Node, l_blind: Node, weights: LossWeights) -> Node:
    """Detector objective: detection plus weighted invariance terms."""
    return ad.add(
        l_det,
        ad.add(ad.scale(l_sym, weights.lambda_sym), ad.scale(l_blind, weights.lambda_blind)),
    )
