"""Toy Siamese encoder, classifier and domain heads, and the spectral adversary.

The model has one forward, in plain arrays (:func:`encode`, :func:`classify`,
:func:`lsa_forward`), with the backward pieces below the classifier: training,
scoring, feature dumps and the white-box attack all run it.  The graph forms
of the same layers give the same values bit for bit; the tests use them as
the reference and for gradient checks.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .errors import DataFormatError, from_record, json_fields, json_int, read_json, to_record
from .spectral import (
    DEFAULT_FPS,
    ComplexArray,
    FloatArray,
    OneSidedSpectrum,
    PatchSignalClip,
    keyed_rng,
    minmax_normalize,
    synthesis_basis,
    synthesize_rows,
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
    """The model's parameters, canonical name -> array in :data:`_PARAMS`
    order, and the adversary's strength ``alpha`` and mask guard ``delta``;
    every dimension is read from the arrays' shapes."""

    params: dict[str, FloatArray]
    alpha: float = DEFAULT_ALPHA
    delta: float = DEFAULT_DELTA


@dataclass(frozen=True)
class Dims:
    """The model's dimensions, in which :data:`_PARAMS` states every shape."""

    input_width: int
    n_bins: int
    hidden: int
    feature_dim: int
    gen_hidden: int
    domain_hidden: int


# every parameter: canonical name -> shape in terms of the Dims fields; the
# order is that of named_arrays, checkpoints and init_bundle's draws
_PARAMS = {
    "enc.w1": ("input_width", "hidden"),
    "enc.b1": ("hidden",),
    "enc.w2": ("hidden", "feature_dim"),
    "enc.b2": ("feature_dim",),
    "head.wg": ("feature_dim", 2),
    "head.bg": (2,),
    "head.wq1": ("feature_dim", "domain_hidden"),
    "head.bq1": ("domain_hidden",),
    "head.wq2": ("domain_hidden", 2),
    "head.bq2": (2,),
    "gen.w1": ("n_bins", "gen_hidden"),
    "gen.b1": ("gen_hidden",),
    "gen.w2": ("gen_hidden", "n_bins"),
    "gen.b2": ("n_bins",),
}


def _shape(spec: tuple, dims: Dims) -> tuple[int, ...]:
    return tuple(d if isinstance(d, int) else getattr(dims, d) for d in spec)


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
    rng = keyed_rng(seed, 0)
    dims = Dims(input_width, n_bins, hidden, feature_dim, gen_hidden, domain_hidden)
    params = {
        name: _uniform(rng, _shape(spec, dims)) if ".w" in name else np.zeros(_shape(spec, dims))
        for name, spec in _PARAMS.items()
    }
    return ModelBundle(params, alpha, delta)


def named_arrays(bundle: ModelBundle) -> dict[str, FloatArray]:
    """A new canonical name -> live array mapping, grouped by dotted prefix."""
    return dict(bundle.params)


# --- the plain-array forward ----------------------------------------------------


def encode(z: FloatArray, p: Mapping[str, FloatArray]) -> tuple[FloatArray, FloatArray]:
    """The encoder's tanh hidden layer and features for standardized clip rows ``z``."""
    hidden = np.tanh(z @ p["enc.w1"] + p["enc.b1"])
    return hidden, hidden @ p["enc.w2"] + p["enc.b2"]


def classify(h: FloatArray, p: Mapping[str, FloatArray]) -> FloatArray:
    """The real/fake logits of features ``h``."""
    return h @ p["head.wg"] + p["head.bg"]


def tanh_backward(g: FloatArray, out: FloatArray) -> FloatArray:
    """The gradient at the input of ``tanh`` from the one at its output ``out``."""
    slope = np.square(out)
    np.subtract(1.0, slope, out=slope)
    slope *= g
    return slope


def recompose_adjoint(g: FloatArray, phasor: ComplexArray, window: int) -> FloatArray:
    """The vector-Jacobian product at the amplitude rows of
    :func:`recompose_rows`: with the phase held fixed the map from amplitude
    to signal is linear, and this is its adjoint: the signal rows' gradient
    ``g`` against the :func:`spectral.synthesis_basis`, read at each phasor."""
    coeffs = (g @ synthesis_basis(window, g.dtype).T).view(np.result_type(g.dtype, np.complex64))
    np.conj(coeffs, out=coeffs)
    coeffs *= phasor
    return coeffs.real


def lsa_modulate(
    amplitude: FloatArray, field: FloatArray, alpha: float, delta: float
) -> tuple[FloatArray, FloatArray, FloatArray, FloatArray]:
    """The adversary's new amplitude from its raw field, ``amplitude *
    exp(alpha tanh(field))``, so that ``|log m| <= alpha``.  Returns
    ``tanh(field)``, the new amplitude, the mask's denominator
    ``amplitude + delta`` and the modulation mask."""
    squashed = np.tanh(field)
    new_amp = amplitude * np.exp(squashed * alpha)
    denom = amplitude + delta
    return squashed, new_amp, denom, new_amp / denom


def lsa_modulate_vjp(g: FloatArray, squashed: FloatArray, new_amp: FloatArray, alpha: float) -> FloatArray:
    """The gradient at the raw field of :func:`lsa_modulate`'s new amplitude,
    for that amplitude's gradient ``g``."""
    return g * new_amp * alpha * (1.0 - squashed * squashed)


class LsaViews(NamedTuple):
    """The adversary's forward pass over rows ``(B*M, K)`` of clip patches:
    the env views and what a backward pass through them reads."""

    norm: FloatArray  # min-max normalized amplitude, the generator's input
    hidden: FloatArray  # the generator's tanh hidden layer
    squashed: FloatArray  # tanh of the raw field
    new_amp: FloatArray
    denom: FloatArray
    mask: FloatArray  # the modulation mask, (B*M, K)
    phasor: ComplexArray
    z_env: FloatArray  # the standardized env views, (B, M*T)
    inv_std: FloatArray


def lsa_forward(gen: Mapping[str, FloatArray], amp: FloatArray, norm: FloatArray, phasor: ComplexArray, window: int,
                alpha: float, delta: float) -> LsaViews:
    """The adversary's views of clip spectra ``(B, M, K)`` with their
    min-max normalized amplitudes (:func:`spectral.minmax_normalize`, the
    generator's input) and unit phasors ``exp(i phase)``, and the
    intermediates of the pass."""
    b, m, k = amp.shape
    norm = norm.reshape(b * m, k)
    hidden = np.tanh(norm @ gen["gen.w1"] + gen["gen.b1"])
    field = hidden @ gen["gen.w2"] + gen["gen.b2"]
    squashed, new_amp, denom, mask = lsa_modulate(amp.reshape(b * m, k), field, alpha, delta)
    phasor = phasor.reshape(b * m, k)
    signals = synthesize_rows(new_amp, phasor, window).reshape(b, m * window)
    z_env, inv_std = ad.standardized(signals, STANDARDIZE_EPS, out=signals)
    return LsaViews(norm, hidden, squashed, new_amp, denom, mask, phasor, z_env, inv_std)


def amplitude_vjp(g_h: FloatArray, p: Mapping[str, FloatArray], hidden: FloatArray, z: FloatArray,
                  inv_std: FloatArray, phasor: ComplexArray) -> FloatArray:
    """The gradient at amplitude rows ``(B*M, K)`` that were recomposed with
    ``phasor``, standardized into ``z`` and encoded into ``hidden`` and
    features, from the features' gradient ``g_h``."""
    g_z = tanh_backward(g_h @ p["enc.w2"].T, hidden) @ p["enc.w1"].T
    g_signals = ad.standardize_vjp(z, inv_std, g_z).reshape(len(phasor), -1)
    return recompose_adjoint(g_signals, phasor, g_signals.shape[1])


def lsa_perturb(
    spectrum: OneSidedSpectrum, bundle: ModelBundle, fps: float | None = None
) -> tuple[PatchSignalClip, ModulationMask]:
    """Perturb one clip's amplitude spectrum with the bundle's learned adversary."""
    phasor = np.exp(1j * spectrum.phase)
    window = spectrum.grid.window
    amp = spectrum.amplitude[None]
    views = lsa_forward(bundle.params, amp, minmax_normalize(amp), phasor[None], window, bundle.alpha, bundle.delta)
    signals = synthesize_rows(views.new_amp, views.phasor, window)
    clip = PatchSignalClip(signals=signals, fps=DEFAULT_FPS if fps is None else fps)
    return clip, ModulationMask(values=views.mask[None], delta=bundle.delta)


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


def recompose_rows(amp: Node, phase: FloatArray | ComplexArray, window: int) -> Node:
    """:func:`spinshield.spectral.synthesize_rows` as a graph node, with the
    backward :func:`recompose_adjoint`; ``phase`` is the rows' phase or its
    unit phasor ``exp(i phase)``."""
    phasor = phase if np.iscomplexobj(phase) else np.exp(1j * np.asarray(phase, dtype=np.float64))
    return ad.custom(
        synthesize_rows(amp.value, phasor, window), (amp,), lambda g: (recompose_adjoint(g, phasor, window),)
    )


def lsa_perturb_graph(
    amplitude: FloatArray,
    norm_amplitude: FloatArray,
    phase: FloatArray | ComplexArray,
    window: int,
    p: Mapping[str, Node],
    alpha: float,
    delta: float = DEFAULT_DELTA,
) -> tuple[Node, Node]:
    """The graph form of the adversary over patch rows: the perturbed signal
    rows and the modulation mask, differentiable in the generator parameters.
    ``norm_amplitude`` is the per-clip min-max normalized generator input."""
    amplitude = np.asarray(amplitude, dtype=np.float64)
    field = generator_field(ad.const(norm_amplitude), p)
    squashed, new_amp_value, denom, mask_value = lsa_modulate(amplitude, field.value, alpha, delta)
    new_amp = ad.custom(
        new_amp_value, (field,), lambda g: (lsa_modulate_vjp(g, squashed, new_amp_value, alpha),)
    )
    mask = ad.custom(mask_value, (new_amp,), lambda g: (g / denom,))
    signals = recompose_rows(new_amp, phase, window)
    return signals, mask


# --- checkpoints -----------------------------------------------------------------


@dataclass(frozen=True)
class Checkpoint:
    """A checkpoint file; each parameter is ``{"shape": [...], "data": <base64 of its float64 LE bytes>}``."""

    format: str
    dims: Dims
    alpha: float
    delta: float
    params: dict


def _encode_array(arr: FloatArray) -> dict:
    data = np.ascontiguousarray(arr, dtype="<f8")
    return {"shape": list(arr.shape), "data": base64.b64encode(data.tobytes()).decode("ascii")}


def _decode_array(entry: object, name: str) -> FloatArray:
    entry = json_fields(entry, ("shape", "data"), name)
    shape = tuple(json_int(s, "shape") for s in entry["shape"])
    arr = np.frombuffer(base64.b64decode(entry["data"]), dtype="<f8")
    if arr.size != int(np.prod(shape)):
        raise DataFormatError(f"array payload size {arr.size} does not match shape {shape}")
    return arr.reshape(shape).astype(np.float64)


def save_bundle(bundle: ModelBundle, path: Path) -> None:
    p = bundle.params
    # the inverse of _shape: each named dim read from the shapes that state it
    dims = Dims(**{d: n for name, spec in _PARAMS.items() for d, n in zip(spec, p[name].shape) if isinstance(d, str)})
    params = {name: _encode_array(p[name]) for name in _PARAMS}
    record = to_record(Checkpoint(CHECKPOINT_FORMAT, dims, bundle.alpha, bundle.delta, params))
    Path(path).write_text(json.dumps(record), encoding="utf-8")


def load_bundle(path: Path) -> ModelBundle:
    doc = read_json(path, "checkpoint")
    if not isinstance(doc, dict):
        raise DataFormatError(f"{path}: checkpoint must be a JSON object")
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise DataFormatError(f"{path}: unknown checkpoint format {doc.get('format')!r}")
    try:
        checkpoint = from_record(Checkpoint, doc)
        stored = json_fields(checkpoint.params, _PARAMS, "params")
        params = {name: _decode_array(stored[name], name) for name in _PARAMS}
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: incomplete checkpoint: {exc}") from exc
    bundle = ModelBundle(params, checkpoint.alpha, checkpoint.delta)
    if not all(0.0 < v < np.inf for v in (bundle.alpha, bundle.delta)):
        raise DataFormatError(f"{path}: alpha and delta must be finite and positive, "
                              f"got {bundle.alpha!r} and {bundle.delta!r}")
    for name, spec in _PARAMS.items():
        if params[name].shape != (shape := _shape(spec, checkpoint.dims)):
            raise DataFormatError(f"{path}: dimension mismatch for {name}: "
                                  f"stored {params[name].shape}, declared {shape}")
    return bundle
