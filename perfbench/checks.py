"""Reference computations the benchmark checks the program's outputs against.

None of these call into ``spinshield``: each is written from the definition
(pairwise AUC, the one-sided DFT, the SPSC byte layout) or from a property
the method must have (phase preservation, the adversary's budget).
"""

from __future__ import annotations

import hashlib
import struct
from pathlib import Path

import numpy as np

AUC_TOL = 1e-12
SIGNAL_TOL = 1e-12  # relative to the clip's largest magnitude
PHASE_TOL = 1e-6  # on the unit phasors
NONZERO = 1e-8  # an amplitude counts as non-zero above this share of the clip's largest


def pairwise_auc(scores, labels) -> float:
    """Share of (positive, negative) pairs ranked correctly, ties counting one half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos, neg = scores[labels == 1], scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return float((wins + 0.5 * ties) / (pos.size * neg.size))


def auc_problems(what: str, reported: float, scores, labels) -> list[str]:
    expected = pairwise_auc(scores, labels)
    if not np.all(np.isfinite(scores)) or abs(reported - expected) > AUC_TOL:
        return [f"{what}: reported AUC {reported!r}, pairwise count gives {expected!r}"]
    return []


def notch_reference(signals: np.ndarray, k: int) -> np.ndarray:
    """rfft, zero bin k, irfft: a full-suppression notch of width one."""
    coeffs = np.fft.rfft(signals, axis=-1)
    coeffs[..., k] = 0.0
    return np.fft.irfft(coeffs, n=signals.shape[-1], axis=-1)


def close_problems(what: str, got: np.ndarray, want: np.ndarray) -> list[str]:
    scale = max(float(np.max(np.abs(want))), 1.0)
    err = float(np.max(np.abs(got - want)))
    return [f"{what}: differs from the reference by {err:.3e}"] if err > SIGNAL_TOL * scale else []


def attacked_problems(what: str, clean: np.ndarray, attacked: np.ndarray, budget: float | None = None) -> list[str]:
    """Attacked clips (stacked, ..., M, T) must be finite and real, keep the
    clean phase wherever both amplitudes are non-zero, and, given a budget,
    keep |log(a'/a)| within it wherever the clean amplitude is non-zero."""
    if not np.isrealobj(attacked) or attacked.shape != clean.shape:
        return [f"{what}: attacked clips are not real arrays of the clean shape"]
    if not np.all(np.isfinite(attacked)):
        return [f"{what}: attacked clips hold non-finite values"]
    x, y = np.fft.rfft(clean, axis=-1), np.fft.rfft(attacked, axis=-1)
    ax, ay = np.abs(x), np.abs(y)
    floor = NONZERO * ax.max(axis=(-2, -1), keepdims=True)
    both = (ax > floor) & (ay > floor)
    drift = np.abs(y / np.where(ay > 0, ay, 1.0) - x / np.where(ax > 0, ax, 1.0))
    problems = []
    if np.any(drift[both] > PHASE_TOL):
        problems.append(f"{what}: phase moved by up to {float(drift[both].max()):.3e} at non-zero bins")
    if budget is not None:
        live = ax > floor
        ratio = np.abs(np.log(ay[live] / ax[live]))
        if np.any(ratio > budget + PHASE_TOL):
            problems.append(f"{what}: |log(a'/a)| reaches {float(ratio.max()):.6f} over budget {budget:.6f}")
    return problems


_SPSC_HEADER = struct.Struct("<4sII")


def read_spsc(path: Path) -> np.ndarray:
    """Decode a packed clip: magic ``SPSC``, u32 M, u32 T, then M*T little-endian float64."""
    raw = Path(path).read_bytes()
    magic, m, t = _SPSC_HEADER.unpack_from(raw)
    if magic != b"SPSC" or len(raw) != _SPSC_HEADER.size + 8 * m * t:
        raise ValueError(f"{path}: not an SPSC clip of the declared size")
    return np.frombuffer(raw, dtype="<f8", offset=_SPSC_HEADER.size).reshape(m, t)


def read_clip_csv(path: Path, m: int, t: int) -> np.ndarray:
    """Decode a ``m,t,value`` clip file written with ``repr`` floats."""
    out = np.full((m, t), np.nan)
    lines = Path(path).read_text(encoding="utf-8").split()
    if lines[0] != "m,t,value" or len(lines) != m * t + 1:
        raise ValueError(f"{path}: not a {m}x{t} clip CSV")
    for line in lines[1:]:
        i, j, value = line.split(",")
        out[int(i), int(j)] = float(value)
    return out


def digest(value) -> str:
    """Stable hash of nested dicts, lists, arrays, bytes and scalars."""
    h = hashlib.sha256()

    def feed(v) -> None:
        if isinstance(v, dict):
            h.update(b"{")
            for key in sorted(v):
                feed(key)
                feed(v[key])
            h.update(b"}")
        elif isinstance(v, (list, tuple)):
            h.update(b"[")
            for item in v:
                feed(item)
            h.update(b"]")
        elif isinstance(v, np.ndarray):
            h.update(f"{v.dtype}{v.shape}".encode())
            h.update(np.ascontiguousarray(v).tobytes())
        elif isinstance(v, bytes):
            h.update(b"b%d:" % len(v) + v)
        else:
            h.update(repr(v).encode() + b";")

    feed(value)
    return h.hexdigest()
