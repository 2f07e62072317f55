"""One-sided temporal DFT decomposition and phase-preserving recomposition.

Conventions used throughout the package:

* forward transform is unnormalized, ``X(w_k) = sum_t x(t) exp(-2j*pi*k*t/T)``,
  the ``1/T`` factor lives in the inverse;
* only bins ``k = 0 .. floor(T/2)`` are kept, the negative half is implied by
  Hermitian symmetry of real signals;
* phase is canonicalized to 0 at bins with zero amplitude, and to exactly
  ``{0, pi}`` at the DC bin (and the Nyquist bin for even ``T``);
* every random stream is a counter-based Philox generator keyed by two
  unsigned 64-bit words (``keyed_rng``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt
from numpy.random.bit_generator import ISeedSequence

FloatArray = npt.NDArray[np.float64]
ComplexArray = npt.NDArray[np.complex128]

DEFAULT_FPS = 25.0


class _PhiloxKey(ISeedSequence):
    """Hands a Philox its key as the seed sequence.  ``Philox(key=...)`` also
    builds a ``SeedSequence`` from OS entropy, which a keyed stream never reads."""

    def __init__(self, key: np.ndarray) -> None:
        self.key = key

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.key


def keyed_rng(seed: int, stream: int) -> np.random.Generator:
    """The stream of ``Philox(key=[seed, stream])``; ``Philox(key=seed)`` is stream 0."""
    return np.random.Generator(np.random.Philox(_PhiloxKey(np.array([seed, stream], dtype=np.uint64))))


# weights of the fixed luminance formula for RGB input
_LUMA = np.array([0.299, 0.587, 0.114])


@dataclass(frozen=True)
class FrequencyGrid:
    """Normalized one-sided DFT bins ``w_k = k/T`` for a window of T frames."""

    window: int

    def __post_init__(self) -> None:
        if self.window < 2:
            raise ValueError(f"window length must be >= 2, got {self.window}")

    @property
    def n_bins(self) -> int:
        return self.window // 2 + 1

    @property
    def has_nyquist(self) -> bool:
        return self.window % 2 == 0

    @property
    def bins(self) -> FloatArray:
        return np.arange(self.n_bins, dtype=np.float64) / self.window


@dataclass(frozen=True)
class PatchSignalClip:
    """Per-patch temporal mean-intensity profiles, one row per patch."""

    signals: FloatArray
    fps: float = DEFAULT_FPS

    def __post_init__(self) -> None:
        signals = np.asarray(self.signals, dtype=np.float64)
        if signals.ndim != 2:
            raise ValueError(f"signals must be a 2-d M x T matrix, got ndim={signals.ndim}")
        m, t = signals.shape
        if m < 1 or t < 2:
            raise ValueError(f"need M >= 1 patches and T >= 2 frames, got M={m}, T={t}")
        if not np.all(np.isfinite(signals)):
            raise ValueError("signals contain non-finite entries")
        if self.fps <= 0:
            raise ValueError(f"fps must be positive, got {self.fps}")
        object.__setattr__(self, "signals", signals)

    @property
    def patch_count(self) -> int:
        return self.signals.shape[0]

    @property
    def frame_count(self) -> int:
        return self.signals.shape[1]


@dataclass(frozen=True)
class OneSidedSpectrum:
    """Amplitude/phase split of the one-sided DFT of a clip."""

    amplitude: FloatArray
    phase: FloatArray
    grid: FrequencyGrid

    def __post_init__(self) -> None:
        amplitude = np.asarray(self.amplitude, dtype=np.float64)
        phase = np.asarray(self.phase, dtype=np.float64)
        if amplitude.ndim != 2 or phase.shape != amplitude.shape:
            raise ValueError("amplitude and phase must be equal-shape 2-d matrices")
        if amplitude.shape[1] != self.grid.n_bins:
            raise ValueError(
                f"expected {self.grid.n_bins} bins for T={self.grid.window}, "
                f"got {amplitude.shape[1]}"
            )
        if not (np.all(np.isfinite(amplitude)) and np.all(np.isfinite(phase))):
            raise ValueError("spectrum contains non-finite entries")
        if np.any(amplitude < 0.0):
            raise ValueError("amplitude must be non-negative")
        phase = np.where(phase == -np.pi, np.pi, phase)
        if np.any(phase <= -np.pi) or np.any(phase > np.pi):
            raise ValueError("phase must lie in (-pi, pi]")
        _check_real_bins(amplitude, phase, self.grid)
        phase = np.where(amplitude == 0.0, 0.0, phase)
        object.__setattr__(self, "amplitude", amplitude)
        object.__setattr__(self, "phase", phase)


@dataclass(frozen=True)
class Roi:
    """Rectangle in pixel coordinates, top-left corner plus extent."""

    top: int
    left: int
    height: int
    width: int

    def __post_init__(self) -> None:
        if self.top < 0 or self.left < 0:
            raise ValueError("roi corner must be non-negative")
        if self.height < 1 or self.width < 1:
            raise ValueError("roi extent must be positive")


@dataclass(frozen=True)
class PatchGridSpec:
    """Row-major tiling of a region of interest into rows x cols patches."""

    rows: int
    cols: int
    roi: Roi

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("patch grid must have at least one row and column")

    @property
    def patch_count(self) -> int:
        return self.rows * self.cols


def _check_real_bins(amplitude: FloatArray, phase: FloatArray, grid: FrequencyGrid) -> None:
    """Reject phase values at DC/Nyquist that would break realness of the inverse."""
    real_bins = [0] + ([grid.n_bins - 1] if grid.has_nyquist else [])
    for k in real_bins:
        live = amplitude[:, k] > 0.0
        bad = live & (phase[:, k] != 0.0) & (phase[:, k] != np.pi)
        if np.any(bad):
            name = "DC" if k == 0 else "Nyquist"
            raise ValueError(
                f"phase at the {name} bin must be exactly 0 or pi for a real signal"
            )


def luminance(frames: npt.ArrayLike) -> FloatArray:
    """Collapse T x H x W x 3 RGB frames to grayscale; grayscale passes through."""
    arr = np.asarray(frames, dtype=np.float64)
    if arr.ndim == 3:
        return arr
    if arr.ndim == 4 and arr.shape[-1] == 3:
        return arr @ _LUMA
    raise ValueError(f"frames must be T x H x W or T x H x W x 3, got shape {arr.shape}")


def _tile_edges(extent: int, n: int) -> list[int]:
    # remainder pixels go to the last patch, keeping patches contiguous
    base = extent // n
    return [i * base for i in range(n)] + [extent]


def extract_patch_signals(
    frames: npt.ArrayLike, grid: PatchGridSpec, fps: float = DEFAULT_FPS
) -> PatchSignalClip:
    """Mean patch intensity per frame over a row-major tiling of the ROI."""
    gray = luminance(frames)
    if not np.all(np.isfinite(gray)):
        raise ValueError("frames contain non-finite entries")
    t, h, w = gray.shape
    if t < 2:
        raise ValueError(f"need at least 2 frames, got {t}")
    roi = grid.roi
    if roi.top + roi.height > h or roi.left + roi.width > w:
        raise ValueError(
            f"roi {roi} exceeds frame extent {h}x{w}"
        )
    if roi.height < grid.rows or roi.width < grid.cols:
        raise ValueError(
            f"roi {roi.height}x{roi.width} too small for a "
            f"{grid.rows}x{grid.cols} patch grid (would create empty patches)"
        )
    window = gray[:, roi.top : roi.top + roi.height, roi.left : roi.left + roi.width]
    row_edges = _tile_edges(roi.height, grid.rows)
    col_edges = _tile_edges(roi.width, grid.cols)
    signals = np.empty((grid.patch_count, t), dtype=np.float64)
    for r in range(grid.rows):
        for c in range(grid.cols):
            patch = window[:, row_edges[r] : row_edges[r + 1], col_edges[c] : col_edges[c + 1]]
            signals[r * grid.cols + c] = patch.mean(axis=(1, 2))
    return PatchSignalClip(signals=signals, fps=fps)


def _canonical_phase(amplitude: FloatArray, phase: FloatArray) -> FloatArray:
    return np.where(amplitude == 0.0, 0.0, np.where(phase == -np.pi, np.pi, phase))


def forward_stack(signals: FloatArray) -> tuple[FloatArray, FloatArray]:
    """Canonical one-sided amplitude and phase, ``(..., M, T)`` -> ``(..., M, K)``.

    Unvalidated: callers pass validated clips.  Phase is exactly ``{0, pi}`` at
    the DC and Nyquist bins, ``pi`` rather than ``-pi``, and 0 where the
    amplitude is 0.
    """
    grid = FrequencyGrid(signals.shape[-1])
    coeffs = np.fft.rfft(signals, axis=-1)
    amplitude = np.abs(coeffs)
    phase = np.angle(coeffs)
    # bins that are real by construction get an exact {0, pi} phase
    for k in [0] + ([grid.n_bins - 1] if grid.has_nyquist else []):
        phase[..., k] = np.where(coeffs[..., k].real >= 0.0, 0.0, np.pi)
    return amplitude, _canonical_phase(amplitude, phase)


def inverse_stack(amplitude: FloatArray, phase: FloatArray, window: int) -> FloatArray:
    """Real signals ``(..., M, T)`` from amplitude and phase ``(..., M, K)``
    by ``irfft``, which takes only the real parts of the DC and Nyquist bins.

    Every amplitude-only transform in the package funnels through this kernel
    (or :func:`synthesize_rows`), which keeps attacks and the spectral
    adversary phase-preserving.  Unvalidated, like :func:`forward_stack`.
    """
    return np.fft.irfft(amplitude * np.exp(1j * _canonical_phase(amplitude, phase)), n=window, axis=-1)


@functools.lru_cache(maxsize=8)
def synthesis_basis(window: int, dtype: np.dtype) -> FloatArray:
    """``irfft`` as a ``(2K, T)`` real matrix over one-sided coefficients seen
    as (real, imaginary) pairs, in the real dtype of ``dtype``: the irfft of
    each unit coefficient, with irfft's bin weights and without the imaginary
    parts of the DC and Nyquist bins.  Read-only and shared."""
    unit = np.eye(window // 2 + 1)
    basis = np.stack([np.fft.irfft(unit, n=window), np.fft.irfft(1j * unit, n=window)], axis=1)
    basis = basis.reshape(-1, window).astype(np.finfo(dtype).dtype)
    basis.flags.writeable = False
    return basis


def synthesize_rows(amplitude: FloatArray, phasor: ComplexArray, window: int) -> FloatArray:
    """:func:`inverse_stack` of amplitude rows ``(R, K)`` and their unit
    phasors as one matmul against :func:`synthesis_basis`, whose transpose is
    its adjoint.  A row's low bits depend on the rows stacked with it, so only
    the differentiated paths use it; attacks and scoring keep ``np.fft``."""
    coeffs = amplitude * phasor
    return coeffs.view(np.finfo(coeffs.dtype).dtype) @ synthesis_basis(window, coeffs.dtype)


def minmax_normalize(amplitude: FloatArray) -> FloatArray:
    """Min-max normalize each clip of an ``(..., M, K)`` stack jointly over its
    patches and bins; a constant clip maps to zeros."""
    lo = amplitude.min(axis=(-2, -1), keepdims=True)
    span = amplitude.max(axis=(-2, -1), keepdims=True) - lo
    return np.where(span == 0.0, 0.0, (amplitude - lo) / np.where(span == 0.0, 1.0, span))


def dft_onesided(clip: PatchSignalClip) -> OneSidedSpectrum:
    """Decompose each patch signal into one-sided amplitude and phase."""
    amplitude, phase = forward_stack(clip.signals)
    return OneSidedSpectrum(amplitude=amplitude, phase=phase, grid=FrequencyGrid(clip.frame_count))


def idft_real(spectrum: OneSidedSpectrum) -> PatchSignalClip:
    """Invert a one-sided spectrum back to real patch signals (see
    :func:`inverse_stack`).  The phase at DC and Nyquist is checked first,
    because the inverse would silently drop an imaginary part there."""
    _check_real_bins(spectrum.amplitude, spectrum.phase, spectrum.grid)
    return PatchSignalClip(signals=inverse_stack(spectrum.amplitude, spectrum.phase, spectrum.grid.window))


def minmax_normalize_amplitude(spectrum: OneSidedSpectrum) -> FloatArray:
    """Min-max normalize amplitude jointly over all patches and bins of the clip."""
    return minmax_normalize(spectrum.amplitude)


def recompose(
    amplitude: npt.ArrayLike,
    phase: npt.ArrayLike,
    grid: FrequencyGrid,
    fps: float = DEFAULT_FPS,
) -> PatchSignalClip:
    """Rebuild a time-domain clip from a transformed amplitude and the original
    phase, validating both on the way in (see :func:`inverse_stack`)."""
    amp = np.asarray(amplitude, dtype=np.float64)
    if np.any(amp < 0.0):
        raise ValueError("recompose rejects negative amplitude (phase inversion must be explicit)")
    ph = np.where(amp == 0.0, 0.0, np.asarray(phase, dtype=np.float64))
    clip = idft_real(OneSidedSpectrum(amplitude=amp, phase=ph, grid=grid))
    return PatchSignalClip(signals=clip.signals, fps=fps)
