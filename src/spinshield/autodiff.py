"""Minimal reverse-mode differentiation over rank <= 2 numpy arrays.

Values are plain float64 arrays (scalars are 0-d), the graph is built by the
op functions below, and :func:`backward` walks it in reverse topological order
exactly once.  There is no automatic broadcasting: :func:`dense` adds its
bias to every row, :func:`scale` multiplies by a python scalar, and every
other op takes operands of one shape.

Gradient work happens only where a gradient is needed.  A leaf is trainable
unless it is made with :func:`const`, and every other node requires a
gradient exactly when one of its parents does; :func:`backward` visits only
those nodes, and each op computes a parent's vector-Jacobian product only if
that parent requires it.  Gradient buffers are lazy: a node's first
contribution is stored as it is and later ones are added out of place, so the
engine never writes into an array another node may hold.  Leaves accumulate
across repeated backward calls, so callers reset them with :func:`zero_grad`
when reusing nodes.

The program builds no graph: its closed-form kernels call the plain-array
products that the ops here share (:func:`standardized`, :func:`standardize_vjp`,
:func:`softmax_rows`, :func:`softmax_vjp`, :func:`softmax_parts`,
:func:`cross_entropy_parts`, :func:`cross_entropy_vjp`).  Graphs are the
tests' reference for those kernels bit for bit, and carry the gradient checks
against finite differences.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np
import numpy.typing as npt

FloatArray = npt.NDArray[np.float64]


class Node:
    """One value in the computation graph plus its (lazy) gradient."""

    __slots__ = ("value", "requires_grad", "_grad", "_owned", "_parents", "_backward")

    def __init__(
        self,
        value: npt.ArrayLike,
        parents: tuple["Node", ...] = (),
        backward: Callable[[FloatArray], None] | None = None,
    ) -> None:
        arr = np.asarray(value, dtype=np.float64)
        if arr.ndim > 2:
            raise ValueError(f"engine supports rank <= 2 tensors, got rank {arr.ndim}")
        self.value = arr
        self.requires_grad = any(p.requires_grad for p in parents) if parents else True
        self._grad: FloatArray | None = None
        self._owned = False
        self._parents = parents
        self._backward = backward

    @property
    def grad(self) -> FloatArray:
        """The accumulated gradient, zeros if no backward pass reached this node.

        Inside the engine a buffer may be shared between nodes (an identity
        op hands its own gradient on), so the first read takes a private copy
        that the caller may edit in place.
        """
        if self._grad is None:
            self._grad = np.zeros_like(self.value)
        elif not self._owned:
            self._grad = np.array(self._grad, dtype=np.float64)
        self._owned = True
        return self._grad

    @grad.setter
    def grad(self, value: npt.ArrayLike) -> None:
        self._grad = np.asarray(value, dtype=np.float64)
        self._owned = True

    def __repr__(self) -> str:
        return f"Node(shape={self.value.shape})"


def const(value: npt.ArrayLike) -> Node:
    """A leaf that never requires or receives a gradient."""
    node = Node(value)
    node.requires_grad = False
    return node


def as_node(x: "Node | npt.ArrayLike") -> Node:
    return x if isinstance(x, Node) else const(x)


def zero_grad(nodes: Iterable[Node]) -> None:
    for node in nodes:
        node._grad = None


def _accumulate(node: Node, g: FloatArray) -> None:
    """Add one gradient contribution, broadcast to the node's shape."""
    if node._grad is None:
        node._grad = g if g.shape == node.value.shape else np.broadcast_to(g, node.value.shape)
    else:
        node._grad = node._grad + g
    node._owned = False


def _same_shape(a: Node, b: Node, op: str) -> None:
    if a.value.shape != b.value.shape:
        raise ValueError(f"{op}: shape mismatch {a.value.shape} vs {b.value.shape}")


def add(a: Node, b: Node) -> Node:
    _same_shape(a, b, "add")
    out = Node(a.value + b.value, (a, b))

    def _backward(g: FloatArray) -> None:
        if a.requires_grad:
            _accumulate(a, g)
        if b.requires_grad:
            _accumulate(b, g)

    out._backward = _backward
    return out


def sub(a: Node, b: Node) -> Node:
    _same_shape(a, b, "sub")
    out = Node(a.value - b.value, (a, b))

    def _backward(g: FloatArray) -> None:
        if a.requires_grad:
            _accumulate(a, g)
        if b.requires_grad:
            _accumulate(b, -g)

    out._backward = _backward
    return out


def mul(a: Node, b: Node) -> Node:
    _same_shape(a, b, "mul")
    out = Node(a.value * b.value, (a, b))

    def _backward(g: FloatArray) -> None:
        if a.requires_grad:
            _accumulate(a, g * b.value)
        if b.requires_grad:
            _accumulate(b, g * a.value)

    out._backward = _backward
    return out


def neg(a: Node) -> Node:
    out = Node(-a.value, (a,))
    out._backward = lambda g: _accumulate(a, -g)
    return out


def scale(a: Node, c: float) -> Node:
    """Multiply by a python scalar (the only broadcast the engine allows)."""
    out = Node(a.value * c, (a,))
    out._backward = lambda g: _accumulate(a, g * c)
    return out


def add_scalar(a: Node, c: float) -> Node:
    out = Node(a.value + c, (a,))
    out._backward = lambda g: _accumulate(a, g)
    return out


def dense(x: Node, w: Node, b: Node, activation: str | None = None) -> Node:
    """One node for ``x @ w + b``, ``b`` added to every row, optionally
    through a tanh (``activation="tanh"``)."""
    if x.value.ndim != 2 or w.value.ndim != 2 or x.value.shape[1] != w.value.shape[0]:
        raise ValueError(f"dense: incompatible shapes {x.value.shape} @ {w.value.shape}")
    if b.value.shape != (w.value.shape[1],):
        raise ValueError(f"dense: bias shape {b.value.shape} for {w.value.shape[1]} outputs")
    if activation not in (None, "tanh"):
        raise ValueError(f"dense: unknown activation {activation!r}")
    val = x.value @ w.value + b.value
    if activation == "tanh":
        val = np.tanh(val)
    out = Node(val, (x, w, b))

    def _backward(g: FloatArray) -> None:
        if activation == "tanh":
            g = g * (1.0 - val * val)
        if x.requires_grad:
            _accumulate(x, g @ w.value.T)
        if w.requires_grad:
            _accumulate(w, x.value.T @ g)
        if b.requires_grad:
            _accumulate(b, g.sum(axis=0))

    out._backward = _backward
    return out


def standardized(x: FloatArray, eps: float, out: FloatArray | None = None) -> tuple[FloatArray, FloatArray]:
    """The rows of a 2-d array standardized as by :func:`standardize_rows`,
    and each row's ``1 / sqrt(var + eps)``; rows never mix, so a row's result
    does not depend on the rows stacked with it.  The rows are written to
    ``out`` if given, which may be ``x`` itself."""
    # a row's sum over its count gives np.mean's bits without its overhead
    centered = np.subtract(x, np.add.reduce(x, axis=1, keepdims=True) / x.shape[1], out=out)
    inv_std = np.add.reduce(np.square(centered), axis=1, keepdims=True) / x.shape[1]
    inv_std += eps
    inv_std **= -0.5
    centered *= inv_std
    return centered, inv_std


def standardize_rows(x: Node, eps: float) -> Node:
    """Zero-mean, unit-variance rows, ``(x - mean) / sqrt(var + eps)``, as one
    node with the closed-form vector-Jacobian product."""
    if x.value.ndim != 2:
        raise ValueError("standardize_rows expects a 2-d matrix")
    val, inv_std = standardized(x.value, eps)
    out = Node(val, (x,))
    out._backward = lambda g: _accumulate(x, standardize_vjp(val, inv_std, g))
    return out


def standardize_vjp(val: FloatArray, inv_std: FloatArray, g: FloatArray) -> FloatArray:
    """The vector-Jacobian product of :func:`standardized` at the rows it
    returned, ``val`` and ``inv_std``, for the output gradient ``g``."""
    # gradient at the centered rows, then projected onto zero-mean rows
    g_centered = g * val
    np.multiply(val, np.add.reduce(g_centered, axis=1, keepdims=True) / g.shape[1], out=g_centered)
    np.subtract(g, g_centered, out=g_centered)
    g_centered *= inv_std
    g_centered -= np.add.reduce(g_centered, axis=1, keepdims=True) / g.shape[1]
    return g_centered


def row_slice(a: Node, start: int, stop: int) -> Node:
    """Rows ``start:stop`` of a 2-d matrix."""
    if a.value.ndim != 2 or not 0 <= start < stop <= a.value.shape[0]:
        raise ValueError(f"row_slice: rows {start}:{stop} of shape {a.value.shape}")

    def _backward(g: FloatArray) -> None:
        full = np.zeros_like(a.value)
        full[start:stop] = g
        _accumulate(a, full)

    out = Node(a.value[start:stop], (a,))
    out._backward = _backward
    return out


def concat_rows(a: Node, b: Node) -> Node:
    """The rows of ``a`` followed by the rows of ``b``."""
    if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[1] != b.value.shape[1]:
        raise ValueError(f"concat_rows: shapes {a.value.shape} and {b.value.shape}")
    n = a.value.shape[0]
    out = Node(np.concatenate([a.value, b.value]), (a, b))

    def _backward(g: FloatArray) -> None:
        if a.requires_grad:
            _accumulate(a, g[:n])
        if b.requires_grad:
            _accumulate(b, g[n:])

    out._backward = _backward
    return out


def reshape(a: Node, shape: Sequence[int]) -> Node:
    out = Node(a.value.reshape(shape), (a,))
    out._backward = lambda g: _accumulate(a, g.reshape(a.value.shape))
    return out


def tanh(a: Node) -> Node:
    val = np.tanh(a.value)
    out = Node(val, (a,))
    out._backward = lambda g: _accumulate(a, g * (1.0 - val * val))
    return out


def exp(a: Node) -> Node:
    val = np.exp(a.value)
    out = Node(val, (a,))
    out._backward = lambda g: _accumulate(a, g * val)
    return out


def log(a: Node) -> Node:
    if np.any(a.value <= 0.0):
        raise ValueError("log of non-positive value; pre-stabilize with an epsilon")
    out = Node(np.log(a.value), (a,))
    out._backward = lambda g: _accumulate(a, g / a.value)
    return out


def softmax(a: Node) -> Node:
    """Row-wise softmax of a 2-d logits matrix."""
    if a.value.ndim != 2:
        raise ValueError("softmax expects a 2-d logits matrix")
    p = softmax_rows(a.value)
    out = Node(p, (a,))
    out._backward = lambda g: _accumulate(a, softmax_vjp(p, g))
    return out


def softmax_rows(z: FloatArray) -> FloatArray:
    """The row-wise softmax of a 2-d logits matrix."""
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def softmax_vjp(p: FloatArray, g: FloatArray) -> FloatArray:
    """The vector-Jacobian product of the row softmax ``p`` for its gradient ``g``."""
    return p * (g - np.add.reduce(g * p, axis=1, keepdims=True))


def sum_all(a: Node) -> Node:
    out = Node(a.value.sum(), (a,))
    out._backward = lambda g: _accumulate(a, g)
    return out


def mean_all(a: Node) -> Node:
    n = a.value.size
    out = Node(a.value.mean(), (a,))
    out._backward = lambda g: _accumulate(a, g / n)
    return out


def cross_entropy_with_logits(logits: Node, labels: npt.ArrayLike) -> Node:
    """Per-sample cross entropy in fused log-sum-exp form; returns a length-B vector."""
    y = np.asarray(labels, dtype=np.intp)
    z = logits.value
    if z.ndim != 2 or y.shape != (z.shape[0],):
        raise ValueError(f"cross_entropy_with_logits: shapes {z.shape} and {y.shape}")
    if np.any(y < 0) or np.any(y >= z.shape[1]):
        raise ValueError("labels out of range")
    losses, p = cross_entropy_parts(z, y)
    out = Node(losses, (logits,))
    out._backward = lambda g: _accumulate(logits, cross_entropy_vjp(p, y, g[:, None]))
    return out


def softmax_parts(z: FloatArray) -> tuple[FloatArray, FloatArray, FloatArray]:
    """The logits ``z`` shifted by each row's maximum, the log-sum-exp of each
    shifted row and the row softmax of ``z``: the cross entropy of row i
    against label k is ``lse[i] - shifted[i, k]``."""
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    e /= total
    return shifted, np.log(total[:, 0]), e


def cross_entropy_parts(z: FloatArray, labels: np.ndarray) -> tuple[FloatArray, FloatArray]:
    """Per-row cross entropy of the logits ``z`` against integer labels, in
    fused log-sum-exp form, and the row softmax of ``z``."""
    shifted, lse, p = softmax_parts(z)
    return lse - shifted[np.arange(z.shape[0]), labels], p


def cross_entropy_vjp(p: FloatArray, labels: np.ndarray, g: "FloatArray | float") -> FloatArray:
    """The gradient at the logits of :func:`cross_entropy_parts` with softmax
    ``p``, for a loss gradient ``g`` per row (a ``(B, 1)`` column) or one
    scalar for every row."""
    d = p.copy()
    d[np.arange(p.shape[0]), labels] -= 1.0
    d *= g
    return d


def grl(a: Node) -> Node:
    """Gradient reversal: identity forward, sign-flipped gradient backward."""
    out = Node(a.value, (a,))
    out._backward = lambda g: _accumulate(a, -g)
    return out


def custom(
    value: npt.ArrayLike,
    parents: tuple[Node, ...],
    vjp: Callable[[FloatArray], tuple[FloatArray, ...]],
) -> Node:
    """Escape hatch for ops with hand-written vector-Jacobian products:
    ``vjp`` maps the output's gradient to one contribution per parent."""
    out = Node(value, parents)

    def _backward(g: FloatArray) -> None:
        for parent, contribution in zip(parents, vjp(g)):
            if parent.requires_grad:
                _accumulate(parent, contribution)

    out._backward = _backward
    return out


def backward(loss: Node) -> None:
    """Populate the gradients of every node that requires one and that the
    scalar loss depends on."""
    if loss.value.ndim != 0:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.value.shape}")
    if not loss.requires_grad:
        return

    topo: list[Node] = []
    visited: set[int] = set()
    stack: list[tuple[Node, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))

    # interior gradients are per-pass scratch space; only leaves accumulate
    # across calls (hence the explicit zero_grad contract for parameters)
    for node in topo:
        if node._parents:
            node._grad = None
    _accumulate(loss, np.ones(()))
    for node in reversed(topo):
        if node._backward is not None and node._grad is not None:
            node._backward(node._grad)
