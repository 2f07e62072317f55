"""Textbook autodiff primitives for the tests' reference compositions.

The engine keeps only the ops the package's graphs use.  The tests compose
these into the layers and losses that the engine's fused nodes must equal:
each is one :func:`spinshield.autodiff.custom` node with its textbook
vector-Jacobian product, checked against finite differences in
``test_autodiff.py``.
"""

from __future__ import annotations

import numpy as np

from spinshield import autodiff as ad
from spinshield.autodiff import Node


def matmul(a: Node, b: Node) -> Node:
    return ad.custom(a.value @ b.value, (a, b), lambda g: (g @ b.value.T, a.value.T @ g))


def transpose(a: Node) -> Node:
    return ad.custom(a.value.T, (a,), lambda g: (g.T,))


def powc(a: Node, c: float) -> Node:
    """Elementwise power with a constant exponent."""
    return ad.custom(a.value**c, (a,), lambda g: (g * c * a.value ** (c - 1.0),))


def clip_min(a: Node, c: float) -> Node:
    """Elementwise max with a constant; the gradient passes only where unclamped."""
    return ad.custom(np.maximum(a.value, c), (a,), lambda g: (g * (a.value > c),))


def row_sum(a: Node) -> Node:
    """Each row's sum, as a B x 1 column."""
    return ad.custom(a.value.sum(axis=1, keepdims=True), (a,), lambda g: (g,))


def row_mean(a: Node) -> Node:
    """Each row's mean, as a B x 1 column."""
    n = a.value.shape[1]
    return ad.custom(a.value.mean(axis=1, keepdims=True), (a,), lambda g: (g / n,))


def add_rowvec(m: Node, v: Node) -> Node:
    """Add a length-N vector to every row of a B x N matrix."""
    return ad.custom(m.value + v.value[None, :], (m, v), lambda g: (g, g.sum(axis=0)))


def add_colvec(m: Node, v: Node) -> Node:
    """Add a B x 1 column to every column of a B x N matrix."""
    return ad.custom(m.value + v.value, (m, v), lambda g: (g, g.sum(axis=1, keepdims=True)))


def mul_colvec(m: Node, v: Node) -> Node:
    """Scale every row of a B x N matrix by the matching B x 1 entry."""
    return ad.custom(m.value * v.value, (m, v), lambda g: (g * v.value, (g * m.value).sum(axis=1, keepdims=True)))
