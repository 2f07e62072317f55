"""On-disk formats for patch-signal clips.

Two interchangeable encodings:

* CSV with header ``m,t,value`` and one ``m,t,value`` line per entry in
  row-major order; values are written with ``repr`` so the text round trip is
  bit-exact.  A standalone CSV clip (``spinshield attack --format csv``)
  carries a sidecar JSON (``<path>.json``) with ``{"M": ..., "T": ..., "fps":
  ...}``.  A dataset's CSV clips have none: a version-2 manifest's spec states
  their M and T, and they have ``DEFAULT_FPS``;
* a packed little-endian binary format: magic ``SPSC``, u32 M, u32 T, then
  M*T float64 values row-major.  The binary format does not store fps.

``read_clip`` and ``write_clip`` read and write every clip file the package
touches.  The CSV reader parses text in the writer's layout in one pass; any
other text goes through the line-by-line validator, which accepts reordered,
padded or blank lines and words every error.
"""

from __future__ import annotations

import functools
import json
import operator
import struct
from pathlib import Path

import numpy as np

from .errors import DataFormatError, json_fields, json_float, json_int
from .spectral import DEFAULT_FPS, FloatArray, PatchSignalClip

MAGIC = b"SPSC"

_HEADER = struct.Struct("<4sII")


def sidecar_path(path: Path) -> Path:
    return path.with_name(path.name + ".json")


@functools.lru_cache(maxsize=8)
def _prefixes(m_count: int, t_count: int) -> tuple[str, ...]:
    """The ``m,t,`` field prefixes of an M x T clip's lines, row-major."""
    return tuple(f"{m},{t}," for m in range(m_count) for t in range(t_count))


def write_clip_csv(clip: PatchSignalClip, path: Path, sidecar: bool = True) -> None:
    path = Path(path)
    values = map(repr, clip.signals.ravel().tolist())
    lines = map(operator.add, _prefixes(clip.patch_count, clip.frame_count), values)
    path.write_text("m,t,value\n" + "\n".join(lines) + "\n", encoding="utf-8")
    if sidecar:
        meta = {"M": clip.patch_count, "T": clip.frame_count, "fps": clip.fps}
        sidecar_path(path).write_text(json.dumps(meta), encoding="utf-8")


def _parse_exact(text: str, m_count: int, t_count: int) -> FloatArray | None:
    """The M x T signals when ``text`` has the writer's layout (the header, then
    each entry's ``m,t,`` line in row-major order, each ending in a newline)
    and finite values, else None.  The values are those the validator reads."""
    lines = text.split("\n")
    if min(m_count, t_count) < 1 or len(lines) != m_count * t_count + 2:
        return None
    prefixes, body = _prefixes(m_count, t_count), lines[1:-1]
    if lines[0] != "m,t,value" or lines[-1] or not all(map(str.startswith, body, prefixes)):
        return None
    try:
        signals = np.array([float(line[len(p):]) for p, line in zip(prefixes, body)])
    except ValueError:
        return None
    return signals.reshape(m_count, t_count) if np.isfinite(signals).all() else None


def _read_csv_lines(path: Path, m_count: int, t_count: int) -> FloatArray:
    """The line-by-line validator: any order, blank and padded lines allowed,
    every error worded with its line."""
    signals = np.full((m_count, t_count), np.nan)
    seen = np.zeros((m_count, t_count), dtype=bool)
    with path.open(encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "m,t,value":
            raise DataFormatError(f"{path}:1: expected header 'm,t,value', got {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise DataFormatError(f"{path}:{lineno}: expected 3 fields, got {len(parts)}")
            try:
                m, t, value = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
            if not (0 <= m < m_count and 0 <= t < t_count):
                raise DataFormatError(f"{path}:{lineno}: index ({m},{t}) outside {m_count}x{t_count}")
            if not np.isfinite(value):
                raise DataFormatError(f"{path}:{lineno}: non-finite value {parts[2]!r}")
            if seen[m, t]:
                raise DataFormatError(f"{path}:{lineno}: duplicate entry for ({m},{t})")
            signals[m, t] = value
            seen[m, t] = True
    if not seen.all():
        m, t = np.argwhere(~seen)[0]
        raise DataFormatError(f"{path}: missing entry for ({m},{t})")
    return signals


def read_clip_csv(path: Path, shape: tuple[int, int] | None = None) -> PatchSignalClip:
    """A CSV clip of the given (M, T) at ``DEFAULT_FPS``; without a shape, M, T
    and fps come from the clip's sidecar."""
    path, fps = Path(path), DEFAULT_FPS
    if shape is None:
        side = sidecar_path(path)
        if not side.exists():
            raise DataFormatError(f"missing sidecar {side}")
        try:
            meta = json_fields(json.loads(side.read_text(encoding="utf-8")), ("M", "T", "fps"))
            shape = json_int(meta["M"], "M"), json_int(meta["T"], "T")
            fps = json_float(meta.get("fps", DEFAULT_FPS), "fps")
        except (ValueError, KeyError, TypeError) as exc:
            raise DataFormatError(f"bad sidecar {side}: {exc}") from exc
    try:
        signals = _parse_exact(path.read_text(encoding="utf-8"), *shape)
    except UnicodeDecodeError:  # the validator words it as it meets it
        signals = None
    if signals is None:
        signals = _read_csv_lines(path, *shape)
    return PatchSignalClip(signals=signals, fps=fps)


def write_clip_binary(clip: PatchSignalClip, path: Path) -> None:
    path = Path(path)
    header = _HEADER.pack(MAGIC, clip.patch_count, clip.frame_count)
    payload = np.ascontiguousarray(clip.signals, dtype="<f8").tobytes()
    path.write_bytes(header + payload)


def read_clip_binary(path: Path, fps: float = DEFAULT_FPS) -> PatchSignalClip:
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _HEADER.size:
        raise DataFormatError(f"{path}: truncated header ({len(raw)} bytes)")
    magic, m_count, t_count = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise DataFormatError(f"{path}: bad magic {magic!r}")
    expected = _HEADER.size + 8 * m_count * t_count
    if len(raw) != expected:
        raise DataFormatError(f"{path}: expected {expected} bytes for M={m_count}, T={t_count}, got {len(raw)}")
    signals = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).reshape(m_count, t_count)
    if not np.all(np.isfinite(signals)):
        raise DataFormatError(f"{path}: non-finite values in payload")
    return PatchSignalClip(signals=signals.astype(np.float64), fps=fps)


def write_clip(clip: PatchSignalClip, path: Path, format: str, *, sidecar: bool = True) -> None:
    """``sidecar=False`` writes a dataset's CSV clip, whose manifest states its shape."""
    if format == "csv":
        write_clip_csv(clip, path, sidecar)
    elif format == "binary":
        write_clip_binary(clip, path)
    else:
        raise ValueError(f"unknown clip format {format!r}")


def read_clip(path: Path, format: str, shape: tuple[int, int] | None = None) -> PatchSignalClip:
    """``shape`` is the (M, T) a dataset's manifest states: a CSV clip is read
    without a sidecar, and a binary clip must have it."""
    if format == "csv":
        return read_clip_csv(path, shape)
    if format == "binary":
        clip = read_clip_binary(path)
        if shape is not None and clip.signals.shape != tuple(shape):
            raise DataFormatError(f"{path}: clip is {clip.patch_count}x{clip.frame_count}, "
                                  f"its manifest states {shape[0]}x{shape[1]}")
        return clip
    raise ValueError(f"unknown clip format {format!r}")
