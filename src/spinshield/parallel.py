"""The ordered map of per-clip work.

It runs in the calling thread.  The benchmark's tracer counts the items
mapped through :func:`parallel_map`.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def parallel_map(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """``fn`` of each item, in order."""
    return [fn(item) for item in items]
