"""Fixed phase-preserving amplitude-spectrum attacks.

Each attack is a deterministic function of an explicit parameter record; the
only randomness lives in :func:`sample_attack`, which materializes every draw
into the record so that applying a spec is replayable without the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .errors import DataFormatError, from_record, json_fields, json_int, to_record
from .spectral import FloatArray, FrequencyGrid, PatchSignalClip, forward_stack, inverse_stack, keyed_rng

KIND_IDENTITY = "identity"
KIND_NOTCH = "notch"
KIND_BAND_MASK = "band_mask"
KIND_TILT = "tilt"
KIND_NOISE = "snr_noise"

ALL_KINDS = (KIND_NOTCH, KIND_BAND_MASK, KIND_TILT, KIND_NOISE)

NOTCH_WIDTH_CHOICES = (1, 2)
BAND_COUNT_CHOICES = (1, 2, 3)
BAND_WIDTH_CHOICES = (1, 2, 3, 4)
TILT_COEFF_RANGE = 1.5

DEFAULT_NOISE_SIGMA = 0.5
DEFAULT_TUKEY_ALPHA = 0.5
DEFAULT_EPS0 = 1e-8


@dataclass(frozen=True)
class NotchParams:
    center_bin: int
    width_bins: int
    floor: float = 0.0

    def __post_init__(self) -> None:
        if self.width_bins not in NOTCH_WIDTH_CHOICES:
            raise ValueError(f"notch width must be one of {NOTCH_WIDTH_CHOICES}")
        if not 0.0 <= self.floor < 1.0:
            raise ValueError("notch floor must lie in [0, 1)")


@dataclass(frozen=True)
class BandMaskParams:
    bands: tuple[tuple[int, int], ...] = field(metadata={"name": ("band start", "band width")})
    tukey_alpha: float = DEFAULT_TUKEY_ALPHA

    def __post_init__(self) -> None:
        if not self.bands:
            raise ValueError("band mask needs at least one band")
        if not 0.0 <= self.tukey_alpha <= 1.0:
            raise ValueError("tukey_alpha must lie in [0, 1]")
        prev_end = -1
        for start, width in self.bands:
            if width < 1:
                raise ValueError("band width must be positive")
            if start <= prev_end:
                raise ValueError("bands must be sorted and non-overlapping")
            prev_end = start + width - 1


@dataclass(frozen=True)
class TiltParams:
    beta1: float
    beta2: float
    eps0: float = DEFAULT_EPS0


@dataclass(frozen=True)
class NoiseParams:
    sigma: float
    draws: tuple[tuple[float, ...], ...]  # one row of per-bin draws per patch
    eps0: float = DEFAULT_EPS0

    def __post_init__(self) -> None:
        if self.sigma < 0.0:
            raise ValueError("sigma must be non-negative")
        if not self.draws or len({len(row) for row in self.draws}) != 1:
            raise ValueError("draws must be a non-empty rectangular patch x bin table")


Params = Union[NotchParams, BandMaskParams, TiltParams, NoiseParams, None]


@dataclass(frozen=True)
class AttackSpec:
    kind: str
    params: Params
    seed: int = 0


def sample_attack(
    kind: str,
    grid: FrequencyGrid,
    seed: int,
    *,
    patches: int | None = None,
    sigma: float = DEFAULT_NOISE_SIGMA,
    tukey_alpha: float = DEFAULT_TUKEY_ALPHA,
    notch_floor: float = 0.0,
) -> AttackSpec:
    """Draw attack parameters from their stated distributions and freeze them.

    The noise kind materializes one draw per patch and bin, so it needs the
    target clip's patch count up front.
    """
    n_bins = grid.n_bins
    rng = keyed_rng(seed, 0)

    if kind == KIND_IDENTITY:
        return AttackSpec(kind=kind, params=None, seed=seed)

    if kind == KIND_NOTCH:
        if n_bins < 3:
            raise ValueError(f"grid with {n_bins} bins is too small for a notch")
        widths = [w for w in NOTCH_WIDTH_CHOICES if 2 * w <= n_bins - 1]
        width = int(rng.choice(widths))
        # keep the full stopband inside the non-DC, non-Nyquist interior
        center = int(rng.integers(width, n_bins - width))
        return AttackSpec(
            kind=kind,
            params=NotchParams(center_bin=center, width_bins=width, floor=notch_floor),
            seed=seed,
        )

    if kind == KIND_BAND_MASK:
        if n_bins < 3:
            raise ValueError(f"grid with {n_bins} bins is too small for a band mask")
        interior = n_bins - 2
        count = int(rng.choice(BAND_COUNT_CHOICES))
        raw: list[tuple[int, int]] = []
        for _ in range(count):
            width = min(int(rng.choice(BAND_WIDTH_CHOICES)), interior)
            start = int(rng.integers(1, n_bins - width))
            raw.append((start, width))
        raw.sort()
        merged: list[list[int]] = []
        for start, width in raw:
            end = start + width - 1
            if merged and start <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], end)
            else:
                merged.append([start, end])
        bands = tuple((s, e - s + 1) for s, e in merged)
        return AttackSpec(
            kind=kind,
            params=BandMaskParams(bands=bands, tukey_alpha=tukey_alpha),
            seed=seed,
        )

    if kind == KIND_TILT:
        beta1 = float(rng.uniform(-TILT_COEFF_RANGE, TILT_COEFF_RANGE))
        beta2 = float(rng.uniform(-TILT_COEFF_RANGE, TILT_COEFF_RANGE))
        return AttackSpec(kind=kind, params=TiltParams(beta1=beta1, beta2=beta2), seed=seed)

    if kind == KIND_NOISE:
        if patches is None or patches < 1:
            raise ValueError("noise sampling needs the clip patch count")
        table = rng.normal(0.0, sigma, size=(patches, n_bins))
        draws = tuple(tuple(float(v) for v in row) for row in table)
        return AttackSpec(kind=kind, params=NoiseParams(sigma=sigma, draws=draws), seed=seed)

    raise ValueError(f"unknown attack kind {kind!r}")


def tukey_window(n: int, alpha: float) -> FloatArray:
    """Tukey (tapered-cosine) window; alpha=0 is rectangular, alpha=1 is Hann."""
    if n < 1:
        raise ValueError("window length must be positive")
    if n == 1:
        return np.ones(1)
    if alpha <= 0.0:
        return np.ones(n)
    x = np.linspace(0.0, 1.0, n)
    w = np.ones(n)
    rising = x < alpha / 2
    falling = x > 1.0 - alpha / 2
    w[rising] = 0.5 * (1.0 + np.cos(2.0 * np.pi / alpha * (x[rising] - alpha / 2)))
    w[falling] = 0.5 * (1.0 + np.cos(2.0 * np.pi / alpha * (x[falling] - 1.0 + alpha / 2)))
    return w


def _check_interior(lo: int, hi: int, grid: FrequencyGrid, what: str) -> None:
    if lo < 1 or hi > grid.n_bins - 2:
        raise ValueError(
            f"{what} bins [{lo}, {hi}] leave the interior [1, {grid.n_bins - 2}]"
        )


def build_mask(spec: AttackSpec, grid: FrequencyGrid) -> FloatArray:
    """Per-bin multiplicative mask for the mask-shaped attack kinds."""
    n_bins = grid.n_bins
    if spec.kind == KIND_IDENTITY:
        return np.ones(n_bins)

    if spec.kind == KIND_NOTCH:
        params = spec.params
        assert isinstance(params, NotchParams)
        _check_interior(
            params.center_bin - (params.width_bins - 1),
            params.center_bin + (params.width_bins - 1),
            grid,
            "notch stopband",
        )
        k = np.arange(n_bins)
        dist = np.abs(k - params.center_bin)
        taper = params.floor + (1.0 - params.floor) * 0.5 * (
            1.0 - np.cos(np.pi * dist / params.width_bins)
        )
        mask = np.where(dist < params.width_bins, taper, 1.0)
        mask[0] = 1.0
        return mask

    if spec.kind == KIND_BAND_MASK:
        params = spec.params
        assert isinstance(params, BandMaskParams)
        mask = np.ones(n_bins)
        for start, width in params.bands:
            _check_interior(start, start + width - 1, grid, "band")
            mask[start : start + width] *= 1.0 - tukey_window(width, params.tukey_alpha)
        mask[0] = 1.0
        return mask

    raise ValueError(f"attack kind {spec.kind!r} is not mask-shaped; use apply_attack")


def edit_amplitude(amplitude: FloatArray, spec: AttackSpec, grid: FrequencyGrid) -> FloatArray:
    """The spec's per-bin amplitude transform of one clip's ``(M, K)`` amplitude,
    or of an ``(N, M, K)`` stack that shares the spec."""
    if spec.kind in (KIND_IDENTITY, KIND_NOTCH, KIND_BAND_MASK):
        new_amp = amplitude * build_mask(spec, grid)
    elif spec.kind == KIND_TILT:
        params = spec.params
        assert isinstance(params, TiltParams)
        w = grid.bins
        new_amp = (amplitude + params.eps0) * np.exp(params.beta1 * w + params.beta2 * w * w)
    elif spec.kind == KIND_NOISE:
        params = spec.params
        assert isinstance(params, NoiseParams)
        draws = np.asarray(params.draws)
        if draws.shape != amplitude.shape[-2:]:
            raise ValueError(
                f"noise draws cover {draws.shape}, clip spectrum is {amplitude.shape[-2:]}"
            )
        new_amp = (amplitude + params.eps0) * np.exp(draws)
    else:
        raise ValueError(f"unknown attack kind {spec.kind!r}")
    if not np.all(np.isfinite(new_amp)):
        raise ValueError("attacked spectrum contains non-finite entries")
    return new_amp


def attack_spectra(
    amplitude: FloatArray, phase: FloatArray, specs: Sequence[AttackSpec], grid: FrequencyGrid
) -> FloatArray:
    """Attacked signals ``(N, M, T)`` of a spectrum stack ``(N, M, K)``, clip i
    under ``specs[i]``: one amplitude edit per clip, one inverse transform."""
    new_amp = np.stack([edit_amplitude(a, spec, grid) for a, spec in zip(amplitude, specs, strict=True)])
    return inverse_stack(new_amp, phase, grid.window)


def apply_attack(clip: PatchSignalClip, spec: AttackSpec) -> PatchSignalClip:
    """Transform the amplitude spectrum per the spec and rebuild with original phase."""
    grid = FrequencyGrid(clip.frame_count)
    amplitude, phase = forward_stack(clip.signals)
    signals = inverse_stack(edit_amplitude(amplitude, spec, grid), phase, grid.window)
    return PatchSignalClip(signals=signals, fps=clip.fps)


# the params record of each kind; its fields follow "kind" and "seed" in an attack record
_PARAMS_OF_KIND = {KIND_IDENTITY: None, KIND_NOTCH: NotchParams, KIND_BAND_MASK: BandMaskParams,
                   KIND_TILT: TiltParams, KIND_NOISE: NoiseParams}


def spec_to_dict(spec: AttackSpec) -> dict:
    return {"kind": spec.kind, "seed": spec.seed, **(to_record(spec.params) if spec.params is not None else {})}


def spec_from_dict(data: dict) -> AttackSpec:
    try:
        kind = data["kind"]
        seed = json_int(data.get("seed", 0), "seed")
        if type(kind) is not str or kind not in _PARAMS_OF_KIND:
            raise DataFormatError(f"unknown attack kind {kind!r}")
        fields = {key: value for key, value in data.items() if key != "kind" and key != "seed"}
        cls = _PARAMS_OF_KIND[kind]  # identity has no params, so its record has no other field
        params = from_record(cls, fields) if cls else json_fields(fields, ()) or None
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"bad attack record: {exc}") from exc
    return AttackSpec(kind=kind, params=params, seed=seed)

