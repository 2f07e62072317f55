"""Planted-shortcut synthetic clips and dataset files.

Clips are multi-sinusoid patch profiles.  Fake clips carry two independent
fingerprints:

* an *amplitude shortcut*: an extra sinusoid at one spectral bin, trivially
  visible in the amplitude spectrum and trivially removable by masking it;
* a *robust coherence cue*: the leading component flips sign at one mid-clip
  frame shared by every patch, a temporally coherent event.

Real clips carry the same sign-flip marginals, but scattered: each patch
inverts one side of its own stratified flip frame, so per-patch amplitude
spectra are distributed identically to the fakes' and the patch-mean profile
cancels to zero.  The only exploitable differences are therefore the shortcut
bin (pure amplitude, fragile) and the cross-patch coherence of the flip
(temporal structure, untouched by per-bin amplitude edits).  A detector that
reads only amplitudes collapses when the shortcut bin is suppressed; one that
reads the coherent structure does not.  That contrast is what the training
harness measures.

Each clip draws from its own counter-based Philox stream, keyed by the spec
seed and the clip index, so its numbers do not depend on how clips are
grouped.  Generation draws every clip's numbers in a fixed order, then runs
the arithmetic over chunks of clips as (c, M, T) stacks, element for element
as it would run on one clip: the signals are the same bits at any chunk size.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import clipio
from .errors import DataFormatError, from_record, json_int, read_json, to_record
from .spectral import DEFAULT_FPS, FloatArray, PatchSignalClip, keyed_rng

PHASE_SLOPE_RANGE = 0.15  # radians per patch-grid step

# shared high-band texture: both classes carry patch-incoherent energy around
# the shortcut bin, so the absolute level there is uninformative and only the
# planted excess separates the classes
TEXTURE_AMPLITUDE = (0.20, 0.45)

# clips per generation chunk: bounds the (c, M, T) temporaries whatever
# n_clips is; even, so that every chunk starts on a fake
_GENERATE_CHUNK = 256


@dataclass(frozen=True)
class DatasetSpec:
    n_clips: int = field(default=4000, metadata={"required": True})
    frames: int = 16
    patches: int = 16
    shortcut_bin: int = 5
    shortcut_amplitude: float = 0.8
    phase_cue_strength: float = 1.0
    base_amplitudes: tuple[float, ...] = (1.0, 0.6, 0.3)
    base_bins: tuple[int, ...] = field(default=(1, 2, 3), metadata={"name": "base bin"})
    base_level_range: tuple[float, float] = (0.3, 0.7)
    noise_std: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_clips < 1:
            raise ValueError("n_clips must be positive")
        if len(self.base_level_range) != 2 or self.base_level_range[0] > self.base_level_range[1]:
            raise ValueError(f"base_level_range must be two ordered values, got {list(self.base_level_range)}")
        if self.frames < 4:
            raise ValueError("need at least 4 frames")
        if self.patches < 1:
            raise ValueError("patches must be positive")
        if len(self.base_amplitudes) != len(self.base_bins) or not self.base_bins:
            raise ValueError("base_amplitudes and base_bins must align and be non-empty")
        nyquist = self.frames // 2
        if not 1 <= self.shortcut_bin <= nyquist - 1:
            raise ValueError(f"shortcut bin must lie in [1, {nyquist - 1}]")
        if self.shortcut_bin in self.base_bins:
            raise ValueError("shortcut bin must be distinct from base component bins")
        if any(not 1 <= b <= nyquist - 1 for b in self.base_bins):
            raise ValueError("base bins must be interior bins")
        if self.noise_std < 0 or self.shortcut_amplitude < 0:
            raise ValueError("amplitudes and noise must be non-negative")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")


@dataclass(frozen=True)
class LabeledClip:
    clip: PatchSignalClip
    y: int
    provenance: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.y not in (0, 1):
            raise ValueError("label must be 0 (real) or 1 (fake)")


def _patch_grid_shape(patches: int) -> tuple[int, int]:
    rows = max(1, int(math.isqrt(patches)))
    cols = math.ceil(patches / rows)
    return rows, cols


def _generate_chunk(spec: DatasetSpec, start: int, stop: int) -> list[LabeledClip]:
    """Clips start..stop-1; start is even, so fakes sit at the chunk's even offsets."""
    m, t_len, c = spec.patches, spec.frames, stop - start
    lo, hi = t_len // 4, 3 * t_len // 4
    texture = range(max(1, spec.shortcut_bin - 1), min(t_len // 2 - 1, spec.shortcut_bin + 1) + 1)
    # one run of uniform draws per clip, in stream order: (psi, slope_r, slope_c)
    # per base component, (c_k, rho per patch) per texture bin, (chi, chi_r, chi_c)
    turn, slope = (0.0, 2.0 * np.pi), (-PHASE_SLOPE_RANGE, PHASE_SLOPE_RANGE)
    ranges = np.array([turn, slope, slope] * len(spec.base_bins)
                      + [TEXTURE_AMPLITUDE, *[turn] * m] * len(texture) + [turn, slope, slope])
    base_level, draws, noise = np.empty((c, m)), np.empty((c, len(ranges))), np.empty((c, m, t_len))
    t0, order = np.empty(c, dtype=np.int64), np.tile(np.arange(m), (c, 1))  # order: a real's patch shuffle
    for j, index in enumerate(range(start, stop)):
        rng = keyed_rng(spec.seed, index)
        base_level[j] = rng.uniform(spec.base_level_range[0], spec.base_level_range[1], size=m)
        # all stochastic choices are drawn regardless of label so that with both
        # cues switched off the two populations are literally identical
        t0[j] = rng.integers(lo, hi + 1)
        if index % 2 == 1 and spec.phase_cue_strength != 0.0:
            order[j] = rng.permutation(m)
        draws[j] = rng.random(len(ranges))
        noise[j] = rng.normal(0.0, spec.noise_std, size=(m, t_len))
    # Generator.uniform's own formula, so the scaled run equals scalar draws bit for bit
    u = ranges[:, 0] + (ranges[:, 1] - ranges[:, 0]) * draws
    k = 3 * len(spec.base_bins)
    component = u[:, :k].reshape(c, -1, 3)
    tex = u[:, k:-3].reshape(c, len(texture), 1 + m)
    chi = u[:, -3:]
    _, cols = _patch_grid_shape(m)
    pr, pc, t = np.arange(m) // cols, np.arange(m) % cols, np.arange(t_len)

    def wave(bin_k: int, phases: FloatArray) -> FloatArray:
        return np.sin(2.0 * np.pi * bin_k * t / t_len + phases[:, :, None])

    def plane(p: FloatArray) -> FloatArray:
        return p[:, 0:1] + p[:, 1:2] * pr + p[:, 2:3] * pc

    # the coherence cue: fakes invert the leading component from the shared
    # frame t0 onward; reals invert one side (early or late, alternating) of
    # per-patch flip frames that stratify the same range, which matches the
    # per-patch amplitude-spectrum marginals while the patch-mean profile cancels
    strat_t0 = lo + (np.arange(m) * (hi - lo + 1)) // m
    flip_t0, late = strat_t0[order], (np.arange(m) % 2 == 0)[order]
    flip_t0[::2], late[::2] = t0[::2, None], True
    flip = np.where((t >= flip_t0[:, :, None]) == late[:, :, None], 1.0 - 2.0 * spec.phase_cue_strength, 1.0)

    signals = np.repeat(base_level[:, :, None], t_len, axis=2)
    for i, (amp, bin_k) in enumerate(zip(spec.base_amplitudes, spec.base_bins)):
        w = wave(bin_k, plane(component[:, i]))
        signals += amp * (w * flip if i == 0 else w)
    # texture around the shortcut bin, identical in distribution for both classes
    for b, bin_k in enumerate(texture):
        signals += tex[:, b, 0, None, None] * wave(bin_k, tex[:, b, 1:])
    signals[::2] += spec.shortcut_amplitude * wave(spec.shortcut_bin, plane(chi[::2]))
    signals += noise
    return [LabeledClip(clip=PatchSignalClip(signals=signals[j], fps=DEFAULT_FPS), y=1 - index % 2,
                        provenance={"index": index, "t0": t0_j})
            for j, (index, t0_j) in enumerate(zip(range(start, stop), t0.tolist()))]


def generate_dataset(spec: DatasetSpec) -> list[LabeledClip]:
    """Balanced dataset, deterministic in the spec seed, ceil(n/2) fakes on even indices."""
    starts = range(0, spec.n_clips, _GENERATE_CHUNK)
    return [lc for a in starts for lc in _generate_chunk(spec, a, min(a + _GENERATE_CHUNK, spec.n_clips))]


def phase_cue_statistic(clip: PatchSignalClip, component_bin: int = 1) -> float:
    """Largest patch-coherent frame-to-frame jump of the demodulated carrier phase.

    The clip's spectrum is first flattened to pure phase (every coefficient
    divided by its own magnitude), which cancels any amplitude-only edit
    exactly and leaves only phase structure.  Each phase-only patch signal is
    then demodulated at the carrier bin and summed over sliding half-clip
    windows; a sign flip drives that sum through zero and produces a near-pi
    jump in its phase trajectory at the flip frame.  Taking the median over
    patches before the max over frames makes the statistic respond to
    *synchronized* jumps only: scattered per-patch flips contribute nothing.
    """
    t_len = clip.frame_count
    coeffs = np.fft.rfft(clip.signals, axis=1)
    scale = np.abs(coeffs)
    equalized = np.where(scale > 1e-12, coeffs / np.where(scale > 1e-12, scale, 1.0), 0.0)
    signals = np.fft.irfft(equalized, n=t_len, axis=1)

    w = max(2, t_len // 2)
    t = np.arange(t_len)
    demod = signals * np.exp(-2j * np.pi * component_bin * t / t_len)[None, :]
    windows = np.lib.stride_tricks.sliding_window_view(demod, w, axis=1)
    proj = windows.sum(axis=2)  # (M, T - w + 1) linear windowed projections
    theta = np.angle(proj)
    jumps = np.abs((np.diff(theta, axis=1) + np.pi) % (2.0 * np.pi) - np.pi)
    coherent = np.median(jumps, axis=0)  # per-frame jump agreed on by most patches
    return float(coherent.max())


# --- dataset files ----------------------------------------------------------------

# version 2: the spec states every clip's shape, so CSV clips have no sidecar;
# version 1 manifests still load, their CSV clips through their sidecars
MANIFEST_VERSION = 2


def spec_to_dict(spec: DatasetSpec) -> dict:
    return to_record(spec)


def spec_from_dict(data: dict) -> DatasetSpec:
    try:
        return from_record(DatasetSpec, data)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"bad dataset spec: {exc}") from exc


@dataclass(frozen=True)
class ManifestEntry:
    """One clip of a manifest; its provenance is free-form, and only its ``index`` is read."""

    path: str
    label: int
    provenance: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.path, str) or not isinstance(self.provenance, dict):
            raise TypeError("path must be a string and provenance a JSON object")
        json_int(self.provenance.get("index", 0), "provenance index")
        if self.label not in (0, 1):
            raise ValueError("label must be 0 (real) or 1 (fake)")


@dataclass(frozen=True, kw_only=True)
class Manifest:
    """A dataset's manifest file; the spec states every clip's shape from version 2 on."""

    version: int
    clip_format: str = "csv"
    spec: DatasetSpec
    seed: int
    clips: list[ManifestEntry]


def save_dataset(
    clips: list[LabeledClip], spec: DatasetSpec, out_dir: Path, clip_format: str = "csv"
) -> Path:
    """Write one file per clip plus a manifest JSON; returns the manifest path.

    The manifest's spec states every clip's shape and the clips have
    ``DEFAULT_FPS``, so a CSV clip gets no sidecar; a clip that differs is a
    ``ValueError`` before any file is written.
    """
    shape = (spec.patches, spec.frames)
    for i, labeled in enumerate(clips):
        if labeled.clip.signals.shape != shape or labeled.clip.fps != DEFAULT_FPS:
            raise ValueError(f"clip {i} is {labeled.clip.patch_count}x{labeled.clip.frame_count} at "
                             f"{labeled.clip.fps} fps; the manifest states {shape[0]}x{shape[1]} at {DEFAULT_FPS} fps")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ext = "csv" if clip_format == "csv" else "spsc"
    entries = [ManifestEntry(f"clip_{i:05d}.{ext}", labeled.y, labeled.provenance) for i, labeled in enumerate(clips)]
    for entry, labeled in zip(entries, clips):
        clipio.write_clip(labeled.clip, out_dir / entry.path, clip_format, sidecar=False)
    manifest = Manifest(version=MANIFEST_VERSION, clip_format=clip_format, spec=spec, seed=spec.seed, clips=entries)
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(to_record(manifest), indent=1), encoding="utf-8")
    return manifest_path


def _read_manifest(manifest_path: Path) -> Manifest:
    doc = read_json(manifest_path, "manifest")
    if not isinstance(doc, dict):
        raise DataFormatError(f"{manifest_path}: manifest must be a JSON object")
    version = doc.get("version")
    # a JSON true or 2.0 compares equal to a version number, but is not one
    if type(version) is not int or version not in (1, MANIFEST_VERSION):
        raise DataFormatError(f"unsupported manifest version {version!r}")
    listed = doc.get("clips", [])
    if not isinstance(listed, list):
        raise DataFormatError(f"{manifest_path}: manifest clips must be a JSON list")
    try:
        manifest = from_record(Manifest, {**doc, "clips": []})
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{manifest_path}: bad manifest: {exc}") from exc
    if manifest.seed != manifest.spec.seed:
        raise DataFormatError(f"{manifest_path}: bad manifest: seed {manifest.seed} differs from the spec's seed "
                              f"{manifest.spec.seed}")
    for entry in listed:  # one at a time, so that an error names its entry
        try:
            manifest.clips.append(from_record(ManifestEntry, entry))
        except (KeyError, TypeError, ValueError) as exc:
            raise DataFormatError(f"bad manifest entry {entry!r}: {exc}") from exc
    if not manifest.clips:
        raise DataFormatError(f"{manifest_path}: manifest lists no clips")
    return manifest


def load_clips(manifest_path: Path) -> list[LabeledClip]:
    """Load every clip listed in a manifest, validating labels and signals."""
    return load_dataset(manifest_path)[1]


def load_dataset(
    manifest_path: Path, select: Callable[[int], Sequence[int]] = range
) -> tuple[DatasetSpec, list[LabeledClip]]:
    """The manifest's dataset spec and its clips; the manifest is read once.

    ``select`` maps the manifest's clip count to the indices of the clips to
    read, in order; by default every clip is read.  Every manifest entry is
    validated either way, but only the selected clip files are opened.
    """
    manifest_path = Path(manifest_path)
    manifest = _read_manifest(manifest_path)
    shape = None if manifest.version == 1 else (manifest.spec.patches, manifest.spec.frames)
    out: list[LabeledClip] = []
    for entry in [manifest.clips[i] for i in select(len(manifest.clips))]:
        try:
            clip = clipio.read_clip(manifest_path.parent / entry.path, manifest.clip_format, shape)
        except ValueError as exc:
            raise DataFormatError(f"{entry.path}: {exc}") from exc
        out.append(LabeledClip(clip=clip, y=entry.label, provenance=entry.provenance))
    return manifest.spec, out
