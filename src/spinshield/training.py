"""Alternating minimax training loop and its configuration.

One detector step minimizes the combined objective over encoder and heads with
the adversary frozen; every R-th batch the adversary takes a step maximizing
its own objective with the detector frozen.  All randomness flows from the
config seed through counter-based streams, so identical configs reproduce
identical parameters bit for bit.

Each step is a closed-form kernel that forwards and backwards the step's
operations by hand in plain arrays, on the model's one plain forward (the one
scoring and the white-box attack run), so no autodiff graph is built.  On
float64 inputs the kernels give bit for bit the gradients of the engine over
the same graph.

A run trains in single precision: its stacked clips, its parameters, Adam's
state and every step kernel are float32 (complex64 for the phasors).  The
bundle it returns is float64, so checkpoints, reports and inference are too.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping

import numpy as np

from . import autodiff as ad
from . import models as md
from . import objectives as obj
from .attacks import DEFAULT_EPS0, DEFAULT_NOISE_SIGMA
from .errors import DataFormatError, NumericalAbort, from_record, read_json, to_record
from .evaluation import compute_auc, score_rows
from .spectral import ComplexArray, FloatArray, forward_stack, keyed_rng, minmax_normalize, synthesize_rows
from .synthdata import LabeledClip

MODES = ("baseline", "spinshield", "naive_aug")

LOG_COLUMNS = ("step", "phase", "L_det", "L_sym", "L_blind", "L_gen", "mmd", "mask_reg", "total")

# sub-stream tags for the run-level counter-based RNG
_STREAM_SPLIT = 1
_STREAM_BATCH = 2
_STREAM_NAIVE = 3

# log-amplitude noise scale for the naive augmentation mode (matches the
# evaluation noise attack's default)
NAIVE_SIGMA = 0.5

# model selection keeps the latest epoch whose validation AUC is within this
# tolerance of the best seen; under the minimax objective robustness keeps
# improving after clean accuracy saturates, so ties go to the most-trained model
VAL_SELECTION_TOLERANCE = 0.005

# the parameters the adversary step reads: the encoder and the classifier
_ADVERSARY_READS = ("enc.w1", "enc.b1", "enc.w2", "enc.b2", "head.wg", "head.bg")

# clips stacked, transformed and standardized at a time when a run stacks its dataset
_STANDARDIZE_CHUNK = 256


@dataclass(frozen=True)
class TrainConfig:
    mode: str = "spinshield"
    epochs: int = 25
    batch_size: int = 32
    learning_rate: float = 1e-3
    generator_learning_rate: float = 2e-2
    adam_betas: tuple[float, float] = (0.9, 0.999)
    adam_eps: float = 1e-8
    detector_steps_per_generator_step: int = 1
    weights: obj.LossWeights = field(default_factory=obj.LossWeights)
    alpha: float = md.DEFAULT_ALPHA
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if self.detector_steps_per_generator_step < 1:
            raise ValueError("alternation ratio must be >= 1")
        for name in ("learning_rate", "generator_learning_rate", "alpha", "adam_eps"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if len(self.adam_betas) != 2 or not all(0.0 <= beta < 1.0 for beta in self.adam_betas):
            raise ValueError(f"adam_betas must be two values in [0, 1), got {list(self.adam_betas)}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")


def config_to_dict(config: TrainConfig) -> dict:
    return to_record(config)


def config_from_dict(data: dict) -> TrainConfig:
    if not isinstance(data, dict) or not isinstance(data.get("weights", {}), dict):
        raise DataFormatError("bad train config: the config and its weights must be JSON objects")
    try:
        return from_record(TrainConfig, data)
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"bad train config: {exc}") from exc


def load_config(path: Path) -> TrainConfig:
    return config_from_dict(read_json(path, "train config"))


class Adam:
    """Adaptive moment optimizer over a named set of parameter arrays, copied
    into one flat buffer so that a step is one update over it.  The caller's
    dict is repointed at views of the buffer: read the parameters through it,
    since the arrays it held before are no longer trained.

    It also owns a flat gradient buffer, viewed per parameter in ``grads``:
    a step kernel writes into the views, and ``step(opt.grads)`` reads them
    in place.  The buffers and moments take the dtype of the arrays given."""

    def __init__(
        self,
        arrays: dict[str, FloatArray],
        lr: float,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        self.flat = np.concatenate([np.ravel(arr) for arr in arrays.values()], dtype=np.result_type(*arrays.values()))
        self.grad = np.zeros_like(self.flat)
        self.grads: dict[str, FloatArray] = {}
        start = 0
        for name, arr in arrays.items():
            arrays[name] = self.flat[start : start + arr.size].reshape(arr.shape)
            self.grads[name] = self.grad[start : start + arr.size].reshape(arr.shape)
            start += arr.size
        self.arrays = arrays
        # Python floats, which take the buffers' dtype in every update (NEP 50)
        self.lr = float(lr)
        self.beta1, self.beta2 = (float(beta) for beta in betas)
        self.eps = float(eps)
        self.t = 0
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self._step_buf, self._denom_buf = np.empty_like(self.flat), np.empty_like(self.flat)

    def step(self, grads: Mapping[str, FloatArray]) -> None:
        """One update from a gradient per parameter: ``self.grads``, read in
        place, or any other mapping, copied into the gradient buffer first.
        A non-finite gradient raises FloatingPointError and changes no
        parameter or moment."""
        g = self.grad
        if grads is not self.grads:
            np.concatenate([np.ravel(grads[name]) for name in self.arrays], out=g)
        if not np.isfinite(g).all():
            raise FloatingPointError("non-finite gradient")
        self.t += 1
        bias1 = 1.0 - self.beta1**self.t
        bias2 = 1.0 - self.beta2**self.t
        # flat -= lr (m / bias1) / (sqrt(v / bias2) + eps), in two scratch buffers
        step, denom = self._step_buf, self._denom_buf
        self.m *= self.beta1
        self.m += np.multiply(g, 1.0 - self.beta1, out=step)
        self.v *= self.beta2
        np.multiply(g, 1.0 - self.beta2, out=step)
        step *= g
        self.v += step
        np.divide(self.m, bias1, out=step)
        step *= self.lr
        np.divide(self.v, bias2, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.eps
        step /= denom
        self.flat -= step


def split_indices(n: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic 80/10/10 train/val/test split of clip indices."""
    if n < 10:
        raise ValueError("need at least 10 clips to split")
    if not 0 <= seed < 2**64:
        raise ValueError(f"split seed must lie in [0, 2**64), got {seed}")
    perm = keyed_rng(seed, _STREAM_SPLIT).permutation(n)
    n_test = n // 10
    n_val = n // 10
    test = perm[:n_test]
    val = perm[n_test : n_test + n_val]
    train = perm[n_test + n_val :]
    return train, val, test


def _clip_shape(clips: list[LabeledClip]) -> tuple[int, int]:
    """The one (M, T) shape of every clip."""
    shapes = {lc.clip.signals.shape for lc in clips}
    if len(shapes) != 1:
        raise ValueError(f"clips have inconsistent shapes: {sorted(shapes)}")
    return shapes.pop()


def _stack_dataset(
    clips: list[LabeledClip], n_spectra: int, with_norms: bool
) -> tuple[FloatArray, np.ndarray, FloatArray, FloatArray | None, ComplexArray]:
    """What a run reads of its clips, built once, all of one shape and in
    single precision: the standardized rows ``(N, M*T)`` and the labels of
    every clip; the amplitudes and the unit phasors, each ``(n_spectra, M,
    K)``, of the first ``n_spectra`` clips; and, ``with_norms``, their
    amplitudes' per-clip min-max normalization (the generator's input), or
    None.  The arrays are filled a chunk of clips at a time: a chunk's
    signals are stacked into its rows as float32, its clips among the first
    ``n_spectra`` transformed, then its rows standardized in place.  Clips
    never mix, so each clip's values are those of one float32 pass over the
    whole stack."""
    m, t_len = clips[0].clip.signals.shape
    n, k = len(clips), t_len // 2 + 1
    rows = np.empty((n, m * t_len), dtype=np.float32)
    amps, phasors = np.empty((n_spectra, m, k), dtype=np.float32), np.empty((n_spectra, m, k), dtype=np.complex64)
    norms = np.empty((n_spectra, m, k), dtype=np.float32) if with_norms else None
    for start in range(0, n, _STANDARDIZE_CHUNK):
        part = slice(start, start + _STANDARDIZE_CHUNK)
        signals = rows[part].reshape(-1, m, t_len)
        np.stack([lc.clip.signals for lc in clips[part]], out=signals)
        spectra = slice(start, min(start + _STANDARDIZE_CHUNK, n_spectra))
        if spectra.start < spectra.stop:
            amps[spectra], phases = forward_stack(signals[: spectra.stop - start])
            if norms is not None:
                norms[spectra] = minmax_normalize(amps[spectra])
            np.exp(1j * phases, out=phasors[spectra])
        ad.standardized(rows[part], md.STANDARDIZE_EPS, out=rows[part])
    labels = np.array([lc.y for lc in clips], dtype=np.intp)
    return rows, labels, amps, norms, phasors


def _check_finite(value: float, what: str, step: int) -> float:
    if not math.isfinite(value):
        raise NumericalAbort(f"{what} is non-finite ({value}) at step {step}")
    return float(value)


def _first_non_finite(arrays: Mapping[str, FloatArray]) -> str:
    return next(name for name, arr in arrays.items() if not np.isfinite(arr).all())


def _adam_step(opt: Adam, step: int) -> None:
    """One optimizer step on the gradients a kernel wrote into ``opt.grads``;
    a non-finite gradient, or a parameter the step made non-finite, aborts
    the run.  Each check runs once over the whole group and names the
    parameter on failure."""
    try:
        opt.step(opt.grads)
    except FloatingPointError:
        raise NumericalAbort(f"gradient of {_first_non_finite(opt.grads)} is non-finite at step {step}") from None
    if not np.isfinite(opt.flat).all():
        raise NumericalAbort(
            f"parameter {_first_non_finite(opt.arrays)} is non-finite after the Adam step at step {step}"
        )


# The two step kernels below forward and backward each operation by hand, in
# plain arrays.  They are the gradients the autodiff engine computes over the
# same graph, bit for bit: every product is taken on the same operands, and a
# value with several consumers sums their contributions in the order the
# engine's reverse topological walk does.  The engine hands a row slice's
# gradient back zero-padded to the full stack, so a stack gradient assembled
# from per-view parts is ``np.concatenate(parts) + 0.0`` (which turns -0.0
# into 0.0, as the padded sum does).


def _param_grads(x: FloatArray, g: FloatArray, w_grad: FloatArray, b_grad: FloatArray) -> None:
    """Write the gradients at the weight and bias of ``x @ w + b``."""
    np.matmul(x.T, g, out=w_grad)
    np.add.reduce(g, axis=0, out=b_grad)


@functools.lru_cache(maxsize=8)
def _view_constants(n: int, dtype: np.dtype) -> tuple[np.ndarray, ...]:
    """A batch of ``n`` clips in two views, clean then env: its row indices,
    view labels, all-0 and all-1 labels and view weights ``1/n`` in
    ``dtype``; built once per size, read-only and shared by every step."""
    rows = np.arange(2 * n)
    consts = (rows, rows // n, np.zeros_like(rows), np.ones_like(rows), np.full(2 * n, 1.0 / n, dtype=dtype))
    for array in consts:
        array.flags.writeable = False
    return consts


def _encoder_blindness(
    h: FloatArray,
    q1: FloatArray,
    d_parts: tuple[FloatArray, FloatArray, FloatArray],
    disc: Mapping[str, FloatArray],
    g: float,
) -> tuple[float, FloatArray]:
    """The encoder side of L_blind (:func:`objectives.encoder_blindness_loss`)
    over the stacked clean and env features ``h``, given the discriminator's
    forward pass over them (hidden layer ``q1``, and its logits'
    :func:`autodiff.softmax_parts`) with its parameters ``disc`` held
    constant: the value, and its gradient at ``h`` for the value's gradient
    ``g``."""
    n = len(h) // 2
    paired, paired_vjp = obj.paired_displacement_with_vjp(h[:n], h[n:])
    _, _, zeros, ones, view_weights = _view_constants(n, h.dtype)
    shifted, lse, p = d_parts
    confusion = np.add.reduce(((lse - shifted[:, 0]) + (lse - shifted[:, 1])) * view_weights) * 0.5
    # the confusion term's two cross entropies pass their gradients separately
    g_rows = ((g * 0.5) * view_weights)[:, None]
    g_logits = ad.cross_entropy_vjp(p, zeros, g_rows)
    g_logits += ad.cross_entropy_vjp(p, ones, g_rows)
    g_h = md.tanh_backward(g_logits @ disc["head.wq2"].T, q1) @ disc["head.wq1"].T
    g_clean, g_env = paired_vjp(g)
    # the paired and confusion parts sum per view before the stack is formed
    g_h[:n] += g_clean
    g_h[n:] += g_env
    g_h += 0.0
    return paired + confusion, g_h


def _detector_step(
    arrays: Mapping[str, FloatArray],
    grads: Mapping[str, FloatArray],
    z_clean: FloatArray,
    z_env: FloatArray | None,
    y: np.ndarray,
    weights: obj.LossWeights,
) -> tuple[float, float, float, float, float]:
    """The detector step's (L_det, L_sym, discriminator loss, L_blind, total)
    over standardized clip rows; it writes the total's gradient at each of the
    ``enc.*`` and ``head.*`` parameters in ``arrays`` into ``grads``.
    ``z_env`` is None in baseline mode, where the invariance terms (and the
    discriminator's gradients) are 0.

    The clean and env views run through the encoder and classifier as one
    stack, and the discriminator runs once over both.  It learns on detached
    features, while the encoder learns against a constant copy of it
    (:func:`_encoder_blindness`)."""
    a = arrays
    n = len(z_clean)
    z = z_clean if z_env is None else np.concatenate([z_clean, z_env])
    labels = y if z_env is None else np.concatenate([y, y])
    h1, h = md.encode(z, a)
    logits = md.classify(h, a)
    ce, p = ad.cross_entropy_parts(logits, labels)
    g_logits = ad.cross_entropy_vjp(p, labels, 1.0 / n)
    if z_env is None:
        l_det = np.add.reduce(ce) / n
        l_sym = l_disc = l_blind = 0.0
        g_h = g_logits @ a["head.wg"].T
        for name in ("head.wq1", "head.bq1", "head.wq2", "head.bq2"):
            grads[name].fill(0.0)
    else:
        l_det = np.add.reduce(ce[:n] + ce[n:]) / n
        l_sym, sym_vjp = obj.symmetric_kl_with_vjp(p[:n], p[n:])
        g_softmax = np.concatenate(sym_vjp(weights.lambda_sym)) + 0.0
        g_logits += 0.0
        g_logits += ad.softmax_vjp(p, g_softmax)
        # the discriminator, on features it does not pass a gradient to; one
        # softmax of its logits serves its own loss and the encoder's
        q1 = np.tanh(h @ a["head.wq1"] + a["head.bq1"])
        d_parts = ad.softmax_parts(q1 @ a["head.wq2"] + a["head.bq2"])
        shifted, lse, d_p = d_parts
        rows, view_labels, _, _, view_weights = _view_constants(n, h.dtype)
        l_disc = np.add.reduce((lse - shifted[rows, view_labels]) * view_weights)
        g_d = ad.cross_entropy_vjp(d_p, view_labels, (weights.lambda_blind * view_weights)[:, None])
        _param_grads(q1, g_d, grads["head.wq2"], grads["head.bq2"])
        g_q1 = md.tanh_backward(g_d @ a["head.wq2"].T, q1)
        _param_grads(h, g_q1, grads["head.wq1"], grads["head.bq1"])
        l_blind, g_blind = _encoder_blindness(h, q1, d_parts, a, weights.lambda_blind)
        g_h = g_logits @ a["head.wg"].T
        g_h += g_blind
    total = l_det + (l_sym * weights.lambda_sym + (l_disc + l_blind) * weights.lambda_blind)
    _param_grads(h1, g_h, grads["enc.w2"], grads["enc.b2"])
    _param_grads(z, md.tanh_backward(g_h @ a["enc.w2"].T, h1), grads["enc.w1"], grads["enc.b1"])
    _param_grads(h, g_logits, grads["head.wg"], grads["head.bg"])
    return l_det, l_sym, l_disc, l_blind, total


def _adversary_step(
    frozen: Mapping[str, FloatArray],
    gen: Mapping[str, FloatArray],
    grads: Mapping[str, FloatArray],
    views: md.LsaViews,
    z_clean: FloatArray,
    y: np.ndarray,
    weights: obj.LossWeights,
    alpha: float,
) -> tuple[float, float, float]:
    """The adversary step's (mmd, mask_reg, L_gen) over its views and the
    standardized clean rows; it writes the gradient of ``-L_gen`` at each
    generator parameter in ``gen`` into ``grads``.  The encoder and
    classifier parameters (``_ADVERSARY_READS``) are held in ``frozen``."""
    f = frozen
    # the env and clean views run through the encoder as one stack
    n = len(z_clean)
    h1, h = md.encode(np.concatenate([views.z_env, z_clean]), f)
    h1_env, h_env, h_clean = h1[:n], h[:n], h[n:]
    logits = md.classify(h_env, f)
    d_mmd, mmd_vjp = obj.mmd_with_vjp(h_clean, h_env)
    ce, p = ad.cross_entropy_parts(logits, y)
    dev = views.mask - 1.0
    reg = (dev * dev).sum() * (1.0 / dev.size)
    l_gen = (np.add.reduce(ce) / len(y) + d_mmd * weights.gamma) - reg * weights.lambda_mask

    # backward from -L_gen
    g_logits = ad.cross_entropy_vjp(p, y, -1.0 / len(y))
    g_h = g_logits @ f["head.wg"].T + mmd_vjp(-weights.gamma)[1]
    g_dev = (weights.lambda_mask * (1.0 / dev.size)) * dev  # from each factor of dev * dev
    g_new_amp = (g_dev + g_dev) / views.denom + md.amplitude_vjp(
        g_h, f, h1_env, views.z_env, views.inv_std, views.phasor
    )
    g_field = md.lsa_modulate_vjp(g_new_amp, views.squashed, views.new_amp, alpha)
    g_hidden = md.tanh_backward(g_field @ gen["gen.w2"].T, views.hidden)
    _param_grads(views.hidden, g_field, grads["gen.w2"], grads["gen.b2"])
    _param_grads(views.norm, g_hidden, grads["gen.w1"], grads["gen.b1"])
    return d_mmd, reg, l_gen


def naive_env_views(
    amp: FloatArray,
    phasor: ComplexArray,
    window: int,
    rng: np.random.Generator,
    sigma: float = DEFAULT_NOISE_SIGMA,
    eps0: float = DEFAULT_EPS0,
) -> FloatArray:
    """Gaussian log-amplitude noise views, one draw per bin shared across patches.

    Sharing the draw over patches rescales whole spectral bands per clip, which
    is the strongest honest form of this augmentation; fully independent draws
    average out across patches and barely pressure patch-mean features.
    ``phasor`` is ``exp(i phase)`` of a canonical phase (see
    :func:`spectral.forward_stack`); the new amplitude is positive everywhere,
    so this is :func:`spectral.inverse_stack` of the phase, by ``synthesize_rows``.
    """
    b, m, k = amp.shape
    # the draws are cast to the spectra's dtype after they are drawn, so that
    # the stream is the same at every precision
    draws = rng.normal(0.0, sigma, size=(b, 1, k)).astype(amp.dtype)
    new_amp = (amp + eps0) * np.exp(draws)
    return synthesize_rows(new_amp.reshape(b * m, k), phasor.reshape(b * m, k), window).reshape(b, m * window)


@dataclass
class TrainResult:
    bundle: md.ModelBundle
    log_rows: list[dict]
    val_auc_by_epoch: list[float]
    best_epoch: int
    train_indices: np.ndarray
    val_indices: np.ndarray
    test_indices: np.ndarray


def write_log(rows: Iterable[dict], path: Path) -> None:
    lines = [",".join(LOG_COLUMNS)]
    for row in rows:
        lines.append(",".join("" if row.get(c) is None else repr(row[c]) if isinstance(row[c], float) else str(row[c]) for c in LOG_COLUMNS))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def train(
    config: TrainConfig,
    dataset: list[LabeledClip],
    epoch_hook: "Callable[[int, md.ModelBundle], None] | None" = None,
) -> TrainResult:
    """Train one detector per the config mode; returns the best-validation model.

    ``epoch_hook`` (if given) observes the live bundle after each epoch,
    whose arrays are the run's float32 parameters; the returned bundle is
    the best-validation snapshot, in float64.  The log's
    ``L_blind`` column holds the encoder side of the domain term
    (:func:`objectives.encoder_blindness_loss`); the discriminator's own loss
    is checked for finiteness but not logged.
    """
    m, t_len = _clip_shape(dataset)
    n_bins = t_len // 2 + 1
    train_idx, val_idx, test_idx = split_indices(len(dataset), config.seed)
    # the run's arrays hold the training clips, then the validation clips;
    # only the training clips' spectra are read, and only by the adversarial modes
    n_train = len(train_idx)
    rows, labels, amps, norms, phasors = _stack_dataset(
        [dataset[i] for i in np.concatenate([train_idx, val_idx])],
        0 if config.mode == "baseline" else n_train,
        config.mode == "spinshield",
    )
    if len(np.unique(labels[n_train:])) < 2 or len(np.unique(labels[:n_train])) < 2:
        raise ValueError("train/val splits must contain both classes")

    bundle = md.init_bundle(
        input_width=m * t_len, n_bins=n_bins, alpha=config.alpha, seed=config.seed
    )
    # the run trains float32 copies of the initial draws
    arrays = {n: a.astype(np.float32) for n, a in bundle.params.items()}
    det_opt = Adam({n: a for n, a in arrays.items() if n.startswith(("enc.", "head."))},
                   config.learning_rate, config.adam_betas, config.adam_eps)
    gen_opt = Adam(
        {n: a for n, a in arrays.items() if n.startswith("gen.")},
        config.generator_learning_rate,
        config.adam_betas,
        config.adam_eps,
    )
    # the bundle's parameters are the optimizers' float32 views until the
    # best-validation snapshot replaces them, as float64, at the end
    arrays = bundle.params
    arrays.update(det_opt.arrays | gen_opt.arrays)

    batch_rng = keyed_rng(config.seed, _STREAM_BATCH)
    naive_rng = keyed_rng(config.seed, _STREAM_NAIVE)

    log_rows: list[dict] = []
    val_auc_by_epoch: list[float] = []
    best_auc = -1.0
    best_epoch = -1
    best_arrays: dict[str, FloatArray] = {n: a.copy() for n, a in arrays.items()}
    step = 0
    batch_counter = 0
    ratio = config.detector_steps_per_generator_step
    # standardization is row-wise, so these are the rows score_clips would build
    val_rows, val_labels = rows[n_train:], labels[n_train:]
    # views of the detector's live parameters, which Adam updates in place
    frozen = {name: arrays[name] for name in _ADVERSARY_READS}

    for epoch in range(config.epochs):
        # positions in the run's arrays: train_idx[order] is the permutation
        # of train_idx the same generator would draw, in the same state after
        order = batch_rng.permutation(n_train)
        for start in range(0, n_train, config.batch_size):
            batch = order[start : start + config.batch_size]
            z_clean = rows[batch]
            y = labels[batch]

            # --- detector step: adversary frozen ---------------------------------
            # the detector step leaves the generator unchanged, so one
            # adversary forward pass serves both steps: its views feed the
            # detector, and the adversary step backpropagates through it
            if config.mode == "spinshield":
                views = md.lsa_forward(gen_opt.arrays, amps[batch], norms[batch], phasors[batch], t_len,
                                       config.alpha, bundle.delta)
                z_env = views.z_env
            elif config.mode == "naive_aug":
                x_env = naive_env_views(amps[batch], phasors[batch], t_len, naive_rng, sigma=NAIVE_SIGMA)
                z_env = ad.standardized(x_env, md.STANDARDIZE_EPS, out=x_env)[0]
            else:
                z_env = None

            losses = _detector_step(det_opt.arrays, det_opt.grads, z_clean, z_env, y, config.weights)
            for value, what in zip(losses, ("L_det", "L_sym", "discriminator loss", "L_blind", "total")):
                _check_finite(value, what, step)
            _adam_step(det_opt, step)
            l_det, l_sym, _, l_blind, total = losses
            log_rows.append({
                "step": step, "phase": "theta",
                "L_det": float(l_det), "L_sym": float(l_sym),
                "L_blind": float(l_blind), "L_gen": None, "mmd": None,
                "mask_reg": None, "total": float(total),
            })
            step += 1

            # --- adversary step: detector frozen ----------------------------------
            batch_counter += 1
            if config.mode == "spinshield" and batch_counter % ratio == 0:
                losses = _adversary_step(
                    frozen, gen_opt.arrays, gen_opt.grads, views, z_clean, y, config.weights, config.alpha
                )
                for value, what in zip(losses, ("mmd", "mask_reg", "L_gen")):
                    _check_finite(value, what, step)
                _adam_step(gen_opt, step)  # ascends L_gen: the gradients are of -L_gen
                d_mmd, reg, l_gen = losses
                log_rows.append({
                    "step": step, "phase": "phi",
                    "L_det": None, "L_sym": None, "L_blind": None,
                    "L_gen": float(l_gen), "mmd": float(d_mmd),
                    "mask_reg": float(reg), "total": float(-l_gen),
                })
                step += 1

        val_scores = score_rows(bundle, val_rows)
        val_auc = compute_auc(val_scores, val_labels)
        val_auc_by_epoch.append(val_auc)
        if val_auc >= best_auc - VAL_SELECTION_TOLERANCE:
            best_auc = max(best_auc, val_auc)
            best_epoch = epoch
            best_arrays = {n: a.copy() for n, a in arrays.items()}
        if epoch_hook is not None:
            epoch_hook(epoch, bundle)

    arrays.update({n: a.astype(np.float64) for n, a in best_arrays.items()})
    return TrainResult(
        bundle=bundle,
        log_rows=log_rows,
        val_auc_by_epoch=val_auc_by_epoch,
        best_epoch=best_epoch,
        train_indices=train_idx,
        val_indices=val_idx,
        test_indices=test_idx,
    )
