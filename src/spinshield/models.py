"""Toy Siamese encoder, classifier and domain heads, and the spectral adversary.

Every forward pass is expressed through the autodiff graph so that training and
inference share one code path; the plain-array convenience wrappers below just
bind constants and read values back out.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .errors import DataFormatError
from .spectral import (
    DEFAULT_FPS,
    FloatArray,
    FrequencyGrid,
    OneSidedSpectrum,
    PatchSignalClip,
    inverse_phasor,
    minmax_normalize,
)

DEFAULT_HIDDEN = 64
DEFAULT_FEATURE_DIM = 32
DEFAULT_GEN_HIDDEN = 32
DEFAULT_DOMAIN_HIDDEN = 16
DEFAULT_ALPHA = 0.6
DEFAULT_DELTA = 1e-8
STANDARDIZE_EPS = 1e-8

CHECKPOINT_FORMAT = "spinshield-checkpoint-v1"


@dataclass
class EncoderParams:
    """Two-layer tanh perceptron shared by both views (one object, one set of weights)."""

    w1: FloatArray
    b1: FloatArray
    w2: FloatArray
    b2: FloatArray


@dataclass
class HeadParams:
    """Linear real/fake head plus a two-layer domain discriminator."""

    wg: FloatArray
    bg: FloatArray
    wq1: FloatArray
    bq1: FloatArray
    wq2: FloatArray
    bq2: FloatArray


@dataclass
class GeneratorParams:
    """Per-patch shared perceptron over one-sided bins, plus perturbation strength."""

    w1: FloatArray
    b1: FloatArray
    w2: FloatArray
    b2: FloatArray
    alpha: float = DEFAULT_ALPHA


@dataclass
class ModulationMask:
    """Effective per-sample, per-patch, per-bin amplitude modulation ratio."""

    values: FloatArray  # B x M x n_bins
    delta: float = DEFAULT_DELTA

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 3:
            raise ValueError("modulation mask must be B x M x bins")
        if np.any(values <= 0.0) or not np.all(np.isfinite(values)):
            raise ValueError("modulation mask entries must be positive and finite")
        object.__setattr__(self, "values", values)


@dataclass
class ModelBundle:
    encoder: EncoderParams
    heads: HeadParams
    generator: GeneratorParams
    input_width: int
    n_bins: int
    delta: float = DEFAULT_DELTA


def _uniform(rng: np.random.Generator, shape: tuple[int, ...]) -> FloatArray:
    fan_in = shape[0]
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def init_bundle(
    input_width: int,
    n_bins: int,
    *,
    hidden: int = DEFAULT_HIDDEN,
    feature_dim: int = DEFAULT_FEATURE_DIM,
    gen_hidden: int = DEFAULT_GEN_HIDDEN,
    domain_hidden: int = DEFAULT_DOMAIN_HIDDEN,
    alpha: float = DEFAULT_ALPHA,
    delta: float = DEFAULT_DELTA,
    seed: int = 0,
) -> ModelBundle:
    """Fresh parameters: uniform +-1/sqrt(fan_in) weights, zero biases."""
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    encoder = EncoderParams(
        w1=_uniform(rng, (input_width, hidden)),
        b1=np.zeros(hidden),
        w2=_uniform(rng, (hidden, feature_dim)),
        b2=np.zeros(feature_dim),
    )
    heads = HeadParams(
        wg=_uniform(rng, (feature_dim, 2)),
        bg=np.zeros(2),
        wq1=_uniform(rng, (feature_dim, domain_hidden)),
        bq1=np.zeros(domain_hidden),
        wq2=_uniform(rng, (domain_hidden, 2)),
        bq2=np.zeros(2),
    )
    generator = GeneratorParams(
        w1=_uniform(rng, (n_bins, gen_hidden)),
        b1=np.zeros(gen_hidden),
        w2=_uniform(rng, (gen_hidden, n_bins)),
        b2=np.zeros(n_bins),
        alpha=alpha,
    )
    return ModelBundle(
        encoder=encoder,
        heads=heads,
        generator=generator,
        input_width=input_width,
        n_bins=n_bins,
        delta=delta,
    )


def named_arrays(bundle: ModelBundle) -> dict[str, FloatArray]:
    """Canonical name -> live array mapping, grouped by dotted prefix."""
    enc, hd, gen = bundle.encoder, bundle.heads, bundle.generator
    return {
        "enc.w1": enc.w1,
        "enc.b1": enc.b1,
        "enc.w2": enc.w2,
        "enc.b2": enc.b2,
        "head.wg": hd.wg,
        "head.bg": hd.bg,
        "head.wq1": hd.wq1,
        "head.bq1": hd.bq1,
        "head.wq2": hd.wq2,
        "head.bq2": hd.bq2,
        "gen.w1": gen.w1,
        "gen.b1": gen.b1,
        "gen.w2": gen.w2,
        "gen.b2": gen.b2,
    }


def set_named_arrays(bundle: ModelBundle, arrays: Mapping[str, FloatArray]) -> None:
    enc, hd, gen = bundle.encoder, bundle.heads, bundle.generator
    targets = {
        "enc.w1": ("w1", enc), "enc.b1": ("b1", enc), "enc.w2": ("w2", enc), "enc.b2": ("b2", enc),
        "head.wg": ("wg", hd), "head.bg": ("bg", hd), "head.wq1": ("wq1", hd),
        "head.bq1": ("bq1", hd), "head.wq2": ("wq2", hd), "head.bq2": ("bq2", hd),
        "gen.w1": ("w1", gen), "gen.b1": ("b1", gen), "gen.w2": ("w2", gen), "gen.b2": ("b2", gen),
    }
    for name, arr in arrays.items():
        attr, obj = targets[name]
        setattr(obj, attr, np.asarray(arr, dtype=np.float64))


# --- graph-level forward passes -------------------------------------------------


def standardize_rows(x: Node, eps: float = STANDARDIZE_EPS) -> Node:
    """Zero-mean, unit-variance per row (per clip), with an epsilon variance guard."""
    return ad.standardize_rows(x, eps)


def encoder_forward(x: Node, p: Mapping[str, Node]) -> Node:
    """Standardized flat clips (B x M*T) to features (B x D)."""
    h1 = ad.dense(x, p["enc.w1"], p["enc.b1"], "tanh")
    return ad.dense(h1, p["enc.w2"], p["enc.b2"])


def classifier_logits(h: Node, p: Mapping[str, Node]) -> Node:
    return ad.dense(h, p["head.wg"], p["head.bg"])


def domain_logits(h: Node, p: Mapping[str, Node], through_grl: bool = True) -> Node:
    z = ad.grl(h) if through_grl else h
    q1 = ad.dense(z, p["head.wq1"], p["head.bq1"], "tanh")
    return ad.dense(q1, p["head.wq2"], p["head.bq2"])


def generator_field(norm_amp: Node, p: Mapping[str, Node]) -> Node:
    """Raw modulation field over bins; rows are individual patches."""
    g1 = ad.dense(norm_amp, p["gen.w1"], p["gen.b1"], "tanh")
    return ad.dense(g1, p["gen.w2"], p["gen.b2"])


def recompose_rows(amp: Node, phase: FloatArray, window: int) -> Node:
    """Differentiable wrapper over the spectral inverse kernel.

    Forward applies :func:`spinshield.spectral.inverse_phasor`, which equals
    :func:`spinshield.spectral.inverse_stack` for a canonical phase; with the
    phase held fixed the map from amplitude to signal is linear, and the
    backward pass applies its adjoint via an rFFT of the incoming gradient.
    Both use the one phasor ``exp(i phase)``.
    """
    grid = FrequencyGrid(window)
    phasor = np.exp(1j * np.asarray(phase, dtype=np.float64))
    coef = np.full(grid.n_bins, 2.0 / window)
    coef[0] = 1.0 / window
    if grid.has_nyquist:
        coef[-1] = 1.0 / window

    def _vjp(g: FloatArray) -> tuple[FloatArray]:
        return (coef[None, :] * np.real(phasor * np.conj(np.fft.rfft(g, axis=1))),)

    return ad.custom(inverse_phasor(amp.value, phasor, window), (amp,), _vjp)


def lsa_perturb_graph(
    amplitude: FloatArray,
    norm_amplitude: FloatArray,
    phase: FloatArray,
    window: int,
    p: Mapping[str, Node],
    alpha: float,
    delta: float = DEFAULT_DELTA,
) -> tuple[Node, Node]:
    """Adversarial views for a stack of patch spectra (rows = clip-patches).

    ``norm_amplitude`` is the per-clip min-max normalized generator input; the
    caller computes it because normalization spans a whole clip, not a row.
    Returns the perturbed time-domain rows and the modulation mask, both
    differentiable with respect to the generator parameters.
    """
    amplitude = np.asarray(amplitude, dtype=np.float64)
    field = generator_field(ad.const(norm_amplitude), p)
    # new amplitude = amplitude * exp(alpha tanh(field)), so |log m| <= alpha
    squashed = np.tanh(field.value)
    new_amp_value = amplitude * np.exp(squashed * alpha)
    new_amp = ad.custom(
        new_amp_value, (field,), lambda g: (g * new_amp_value * alpha * (1.0 - squashed * squashed),)
    )
    denom = amplitude + delta
    mask = ad.custom(new_amp.value / denom, (new_amp,), lambda g: (g / denom,))
    signals = recompose_rows(new_amp, phase, window)
    return signals, mask


def lsa_views(
    amplitude: FloatArray, phase: FloatArray, window: int, p: Mapping[str, Node], alpha: float, delta: float
) -> tuple[Node, Node]:
    """Adversarial views of a stack of clip spectra ``(B, M, K)``: the
    ``(B, M*T)`` signal node plus the ``(B*M, K)`` mask node."""
    b, m, k = amplitude.shape
    rows = [a.reshape(b * m, k) for a in (amplitude, minmax_normalize(amplitude), phase)]
    signals, mask = lsa_perturb_graph(*rows, window, p, alpha, delta)
    return ad.reshape(signals, (b, m * window)), mask


# --- plain-array wrappers --------------------------------------------------------


def const_params(bundle: ModelBundle) -> dict[str, Node]:
    """Every parameter as a constant node, for graphs that train nothing."""
    return {name: ad.const(arr) for name, arr in named_arrays(bundle).items()}


def encode(clip: PatchSignalClip, encoder: EncoderParams) -> FloatArray:
    """Feature vector for one clip through the shared encoder."""
    x = clip.signals.reshape(1, -1)
    if x.shape[1] != encoder.w1.shape[0]:
        raise ValueError(
            f"clip flattens to width {x.shape[1]}, encoder expects {encoder.w1.shape[0]}"
        )
    p = {
        "enc.w1": ad.const(encoder.w1), "enc.b1": ad.const(encoder.b1),
        "enc.w2": ad.const(encoder.w2), "enc.b2": ad.const(encoder.b2),
    }
    return encoder_forward(standardize_rows(ad.const(x)), p).value[0]


def classify(h: FloatArray, heads: HeadParams) -> FloatArray:
    """Class distribution over {real, fake} for one feature vector."""
    p = {"head.wg": ad.const(heads.wg), "head.bg": ad.const(heads.bg)}
    logits = classifier_logits(ad.const(np.asarray(h).reshape(1, -1)), p)
    return ad.softmax(logits).value[0]


def discriminate_domain(h: FloatArray, heads: HeadParams, through_grl: bool = False) -> FloatArray:
    """Domain distribution over {clean, env}; the GRL only matters inside graphs."""
    p = {
        "head.wq1": ad.const(heads.wq1), "head.bq1": ad.const(heads.bq1),
        "head.wq2": ad.const(heads.wq2), "head.bq2": ad.const(heads.bq2),
    }
    logits = domain_logits(ad.const(np.asarray(h).reshape(1, -1)), p, through_grl=through_grl)
    return ad.softmax(logits).value[0]


def lsa_perturb(
    spectrum: OneSidedSpectrum,
    generator: GeneratorParams,
    delta: float = DEFAULT_DELTA,
    fps: float | None = None,
) -> tuple[PatchSignalClip, ModulationMask]:
    """Perturb one clip's amplitude spectrum with the learned adversary."""
    p = {f"gen.{name}": ad.const(getattr(generator, name)) for name in ("w1", "b1", "w2", "b2")}
    window = spectrum.grid.window
    signals, mask = lsa_views(spectrum.amplitude[None], spectrum.phase[None], window, p, generator.alpha, delta)
    clip = PatchSignalClip(signals=signals.value.reshape(-1, window), fps=DEFAULT_FPS if fps is None else fps)
    return clip, ModulationMask(values=mask.value[None, :, :], delta=delta)


# --- checkpoints -----------------------------------------------------------------


def _encode_array(arr: FloatArray) -> dict:
    data = np.ascontiguousarray(arr, dtype="<f8")
    return {"shape": list(arr.shape), "data": base64.b64encode(data.tobytes()).decode("ascii")}


def _decode_array(entry: dict) -> FloatArray:
    shape = tuple(int(s) for s in entry["shape"])
    raw = base64.b64decode(entry["data"])
    arr = np.frombuffer(raw, dtype="<f8")
    if arr.size != int(np.prod(shape)):
        raise DataFormatError(f"array payload size {arr.size} does not match shape {shape}")
    return arr.reshape(shape).astype(np.float64)


def save_bundle(bundle: ModelBundle, path: Path) -> None:
    arrays = named_arrays(bundle)
    doc = {
        "format": CHECKPOINT_FORMAT,
        "dims": {
            "input_width": bundle.input_width,
            "n_bins": bundle.n_bins,
            "hidden": bundle.encoder.w1.shape[1],
            "feature_dim": bundle.encoder.w2.shape[1],
            "gen_hidden": bundle.generator.w1.shape[1],
            "domain_hidden": bundle.heads.wq1.shape[1],
        },
        "alpha": bundle.generator.alpha,
        "delta": bundle.delta,
        "params": {name: _encode_array(arr) for name, arr in arrays.items()},
    }
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def load_bundle(path: Path) -> ModelBundle:
    path = Path(path)
    if not path.exists():
        raise DataFormatError(f"checkpoint not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"bad checkpoint JSON in {path}: {exc}") from exc
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise DataFormatError(f"{path}: unknown checkpoint format {doc.get('format')!r}")
    try:
        dims = doc["dims"]
        params = {name: _decode_array(entry) for name, entry in doc["params"].items()}
        bundle = ModelBundle(
            encoder=EncoderParams(
                w1=params["enc.w1"], b1=params["enc.b1"],
                w2=params["enc.w2"], b2=params["enc.b2"],
            ),
            heads=HeadParams(
                wg=params["head.wg"], bg=params["head.bg"],
                wq1=params["head.wq1"], bq1=params["head.bq1"],
                wq2=params["head.wq2"], bq2=params["head.bq2"],
            ),
            generator=GeneratorParams(
                w1=params["gen.w1"], b1=params["gen.b1"],
                w2=params["gen.w2"], b2=params["gen.b2"],
                alpha=float(doc["alpha"]),
            ),
            input_width=int(dims["input_width"]),
            n_bins=int(dims["n_bins"]),
            delta=float(doc["delta"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: incomplete checkpoint: {exc}") from exc

    expected = {
        "enc.w1": (bundle.input_width, int(dims["hidden"])),
        "enc.b1": (int(dims["hidden"]),),
        "enc.w2": (int(dims["hidden"]), int(dims["feature_dim"])),
        "enc.b2": (int(dims["feature_dim"]),),
        "head.wg": (int(dims["feature_dim"]), 2),
        "head.bg": (2,),
        "head.wq1": (int(dims["feature_dim"]), int(dims["domain_hidden"])),
        "head.bq1": (int(dims["domain_hidden"]),),
        "head.wq2": (int(dims["domain_hidden"]), 2),
        "head.bq2": (2,),
        "gen.w1": (bundle.n_bins, int(dims["gen_hidden"])),
        "gen.b1": (int(dims["gen_hidden"]),),
        "gen.w2": (int(dims["gen_hidden"]), bundle.n_bins),
        "gen.b2": (bundle.n_bins,),
    }
    for name, shape in expected.items():
        if params[name].shape != shape:
            raise DataFormatError(
                f"{path}: dimension mismatch for {name}: "
                f"stored {params[name].shape}, declared {shape}"
            )
    return bundle
