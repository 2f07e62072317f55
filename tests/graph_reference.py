"""The program's closed-form kernels built as autodiff graphs: the reference
that the training step kernels in ``spinshield.training``, the inference
forward and the white-box attack's objective in ``spinshield.evaluation``
must match bit for bit.

Each graph is the computation as it reads, op by op through the engine; the
kernels forward and backward the same ops by hand.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from spinshield import autodiff as ad
from spinshield import models as md
from spinshield import objectives as obj
from spinshield.autodiff import FloatArray, Node
from spinshield.spectral import ComplexArray, minmax_normalize


def leaves(arrays: Mapping[str, FloatArray]) -> dict[str, Node]:
    """A trainable graph leaf over each of an optimizer group's live arrays."""
    return {name: Node(arr) for name, arr in arrays.items()}


def lsa_views(
    amplitude: FloatArray, phase: FloatArray | ComplexArray, window: int, p: Mapping[str, Node], alpha: float,
    delta: float,
) -> tuple[Node, Node]:
    """The graph form of :func:`spinshield.models.lsa_forward` over clip
    spectra ``(B, M, K)`` and their phases or unit phasors: the ``(B, M*T)``
    signal node plus the ``(B*M, K)`` mask node."""
    b, m, k = amplitude.shape
    rows = [a.reshape(b * m, k) for a in (amplitude, minmax_normalize(amplitude), phase)]
    signals, mask = md.lsa_perturb_graph(*rows, window, p, alpha, delta)
    return ad.reshape(signals, (b, m * window)), mask


def consts(bundle: md.ModelBundle) -> dict[str, Node]:
    """Every parameter of a bundle as a constant node, for graphs that train nothing."""
    return {name: ad.const(arr) for name, arr in md.named_arrays(bundle).items()}


def clean_path(bundle: md.ModelBundle, x: FloatArray) -> tuple[FloatArray, FloatArray]:
    """Features and class probabilities for a stack of flat clips, through
    constant nodes."""
    p = consts(bundle)
    h = md.encoder_forward(md.standardize_rows(ad.const(x)), p)
    return h.value, ad.softmax(md.classifier_logits(h, p)).value


def env_views(bundle: md.ModelBundle, amplitude: FloatArray, phase: FloatArray, window: int) -> tuple[Node, Node]:
    """The adversary's ``(B, M*T)`` signal node and ``(B*M, K)`` mask node
    for a stack of clip spectra, through constant nodes."""
    return lsa_views(amplitude, phase, window, consts(bundle), bundle.alpha, bundle.delta)


def attack_objective(
    bundle: md.ModelBundle, amp: FloatArray, phasor: np.ndarray, window: int, y: int, u: FloatArray
) -> tuple[float, FloatArray]:
    """The white-box attack's objective at the log-amplitude field ``u`` and
    its gradient there: the true-label cross entropy of the clip with
    amplitude ``amp * exp(u)``, backpropagated through the engine."""
    params = consts(bundle)
    u_node = Node(u)
    new_amp = ad.mul(ad.const(amp), ad.exp(u_node))
    x = ad.reshape(md.recompose_rows(new_amp, phasor, window), (1, amp.shape[0] * window))
    h = md.encoder_forward(md.standardize_rows(x), params)
    ce = ad.mean_all(ad.cross_entropy_with_logits(md.classifier_logits(h, params), np.array([y])))
    ad.backward(ce)
    return float(ce.value), u_node.grad


def detector_losses(
    graph: dict[str, Node],
    z_clean: FloatArray,
    z_env: FloatArray | None,
    y: np.ndarray,
    weights: obj.LossWeights,
) -> tuple[Node, Node, Node, Node, Node]:
    """The detector step's (L_det, L_sym, discriminator loss, L_blind, total)
    over standardized clip rows; ``z_env`` is None in baseline mode, where the
    invariance terms are 0.  ``graph`` binds the ``enc.*`` and ``head.*``
    parameters.

    The clean and env views run through the encoder and classifier as one
    stack, and each copy of the discriminator runs once over both views."""
    z = z_clean if z_env is None else np.concatenate([z_clean, z_env])
    h = md.encoder_forward(ad.const(z), graph)
    logits = md.classifier_logits(h, graph)
    if z_env is None:
        l_det = obj.detector_loss(logits, None, y)
        l_sym = l_disc = l_blind = ad.const(0.0)
    else:
        n = len(z_clean)

        def views(node: Node) -> tuple[Node, Node]:
            return ad.row_slice(node, 0, n), ad.row_slice(node, n, 2 * n)

        h_clean, h_env = views(h)
        l_det = obj.detector_loss(*views(logits), y)
        l_sym = obj.symmetric_kl(*views(ad.softmax(logits)))
        # the discriminator learns on detached features; the encoder
        # learns against a constant copy of the discriminator
        l_disc = obj.blindness_loss(
            ad.const(h_clean.value), ad.const(h_env.value),
            lambda z: md.domain_logits(z, graph, through_grl=False),
            through_grl=False,
        )
        frozen = {
            name: ad.const(node.value) for name, node in graph.items()
            if name.startswith(("head.wq", "head.bq"))
        }
        l_blind = obj.encoder_blindness_loss(
            h_clean, h_env, lambda z: md.domain_logits(z, frozen, through_grl=False)
        )
    total = obj.total_loss(l_det, l_sym, ad.add(l_disc, l_blind), weights)
    return l_det, l_sym, l_disc, l_blind, total


def adversary_losses(
    frozen: dict[str, Node],
    env_node: Node,
    mask_node: Node,
    z_clean: FloatArray,
    y: np.ndarray,
    weights: obj.LossWeights,
) -> tuple[Node, Node, Node]:
    """The adversary step's (mmd, mask_reg, L_gen) over its views and the
    standardized clean rows, with the encoder and classifier parameters held
    in ``frozen``."""
    h_env = md.encoder_forward(md.standardize_rows(env_node), frozen)
    logits_env = md.classifier_logits(h_env, frozen)
    h_clean = md.encoder_forward(ad.const(z_clean), frozen)
    d_mmd = obj.mmd(h_clean, h_env)
    l_gen = obj.generator_loss(logits_env, y, d_mmd, mask_node, weights)
    return d_mmd, obj.mask_regularizer(mask_node), l_gen


def detector_step(
    arrays: Mapping[str, FloatArray],
    z_clean: FloatArray,
    z_env: FloatArray | None,
    y: np.ndarray,
    weights: obj.LossWeights,
) -> tuple[tuple[float, ...], dict[str, FloatArray]]:
    """The graph's detector step: its five losses and the total's gradient at
    each parameter in ``arrays``."""
    tracked = leaves(arrays)
    losses = detector_losses(tracked, z_clean, z_env, y, weights)
    ad.backward(losses[-1])
    return tuple(float(loss.value) for loss in losses), {name: node.grad for name, node in tracked.items()}


def adversary_step(
    frozen: Mapping[str, FloatArray],
    gen: Mapping[str, FloatArray],
    amp: FloatArray,
    phasor: np.ndarray,
    window: int,
    z_clean: FloatArray,
    y: np.ndarray,
    weights: obj.LossWeights,
    alpha: float,
    delta: float,
) -> tuple[tuple[float, ...], dict[str, FloatArray]]:
    """The graph's adversary step over a batch of clip spectra ``(B, M, K)``:
    its three losses and the gradient of ``-L_gen`` at each generator
    parameter."""
    tracked = leaves(gen)
    env, mask = lsa_views(amp, phasor, window, tracked, alpha, delta)
    consts = {name: ad.const(arr) for name, arr in frozen.items()}
    losses = adversary_losses(consts, env, mask, z_clean, y, weights)
    ad.backward(ad.neg(losses[-1]))
    return tuple(float(loss.value) for loss in losses), {name: node.grad for name, node in tracked.items()}
