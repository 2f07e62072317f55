"""Alternating minimax training loop and its configuration.

One detector step minimizes the combined objective over encoder and heads with
the adversary frozen; every R-th batch the adversary takes a step maximizing
its own objective with the detector frozen.  All randomness flows from the
config seed through counter-based streams, so identical configs reproduce
identical parameters bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping

import numpy as np

from . import autodiff as ad
from . import models as md
from . import objectives as obj
from .attacks import DEFAULT_EPS0, DEFAULT_NOISE_SIGMA
from .autodiff import Node
from .errors import DataFormatError, NumericalAbort
from .evaluation import compute_auc, score_clips
from .spectral import ComplexArray, FloatArray, forward_stack, inverse_phasor
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

# clips standardized at a time when a run stacks its dataset
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
        if self.learning_rate <= 0 or self.generator_learning_rate <= 0 or self.alpha <= 0:
            raise ValueError("learning rates and alpha must be positive")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")


def config_to_dict(config: TrainConfig) -> dict:
    return {
        "mode": config.mode,
        "epochs": config.epochs,
        "batch_size": config.batch_size,
        "learning_rate": config.learning_rate,
        "generator_learning_rate": config.generator_learning_rate,
        "adam_betas": list(config.adam_betas),
        "adam_eps": config.adam_eps,
        "detector_steps_per_generator_step": config.detector_steps_per_generator_step,
        "weights": {
            "gamma": config.weights.gamma,
            "lambda_mask": config.weights.lambda_mask,
            "lambda_sym": config.weights.lambda_sym,
            "lambda_blind": config.weights.lambda_blind,
        },
        "alpha": config.alpha,
        "seed": config.seed,
    }


def config_from_dict(data: dict) -> TrainConfig:
    if not isinstance(data, dict) or not isinstance(data.get("weights", {}), dict):
        raise DataFormatError("bad train config: the config and its weights must be JSON objects")
    try:
        w = data.get("weights", {})
        return TrainConfig(
            mode=data.get("mode", "spinshield"),
            epochs=int(data.get("epochs", 25)),
            batch_size=int(data.get("batch_size", 32)),
            learning_rate=float(data.get("learning_rate", 1e-3)),
            generator_learning_rate=float(data.get("generator_learning_rate", 2e-2)),
            adam_betas=tuple(float(b) for b in data.get("adam_betas", (0.9, 0.999))),
            adam_eps=float(data.get("adam_eps", 1e-8)),
            detector_steps_per_generator_step=int(data.get("detector_steps_per_generator_step", 1)),
            weights=obj.LossWeights(
                gamma=float(w.get("gamma", 1.0)),
                lambda_mask=float(w.get("lambda_mask", 0.1)),
                lambda_sym=float(w.get("lambda_sym", 0.9)),
                lambda_blind=float(w.get("lambda_blind", 0.7)),
            ),
            alpha=float(data.get("alpha", md.DEFAULT_ALPHA)),
            seed=int(data.get("seed", 0)),
        )
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"bad train config: {exc}") from exc


def load_config(path: Path) -> TrainConfig:
    try:
        return config_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"bad train config JSON: {exc}") from exc


class Adam:
    """Adaptive moment optimizer over a named set of parameter arrays, copied
    into one flat buffer so that a step is one update over it.  The caller's
    dict is repointed at views of the buffer: read the parameters through it,
    since the arrays it held before are no longer trained."""

    def __init__(
        self,
        arrays: dict[str, FloatArray],
        lr: float,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        self.flat = np.concatenate([np.ravel(arr) for arr in arrays.values()], dtype=np.float64)
        start = 0
        for name, arr in arrays.items():
            arrays[name] = self.flat[start : start + arr.size].reshape(arr.shape)
            start += arr.size
        self.arrays = arrays
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)

    def step(self, grads: Mapping[str, FloatArray]) -> None:
        """One update from a gradient per parameter.  A non-finite gradient
        raises FloatingPointError and changes nothing."""
        g = np.concatenate([np.ravel(grads[name]) for name in self.arrays])
        if not np.isfinite(g).all():
            raise FloatingPointError("non-finite gradient")
        self.t += 1
        bias1 = 1.0 - self.beta1**self.t
        bias2 = 1.0 - self.beta2**self.t
        self.m *= self.beta1
        self.m += (1.0 - self.beta1) * g
        self.v *= self.beta2
        self.v += (1.0 - self.beta2) * g * g
        self.flat -= self.lr * (self.m / bias1) / (np.sqrt(self.v / bias2) + self.eps)


def _run_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def split_indices(n: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic 80/10/10 train/val/test split of clip indices."""
    if n < 10:
        raise ValueError("need at least 10 clips to split")
    if not 0 <= seed < 2**64:
        raise ValueError(f"split seed must lie in [0, 2**64), got {seed}")
    perm = _run_rng(seed, _STREAM_SPLIT).permutation(n)
    n_test = n // 10
    n_val = n // 10
    test = perm[:n_test]
    val = perm[n_test : n_test + n_val]
    train = perm[n_test + n_val :]
    return train, val, test


def _stack_dataset(clips: list[LabeledClip]) -> tuple[FloatArray, FloatArray, ComplexArray, np.ndarray, int, int]:
    """What a run reads of its clips, built once: the standardized clip rows
    ``(N, M*T)``, the amplitudes and unit phasors ``(N, M, K)``, the labels,
    M and T.  The rows are standardized in place, a chunk at a time, and the
    phasors replace the phases, so no stack is held twice."""
    shapes = {lc.clip.signals.shape for lc in clips}
    if len(shapes) != 1:
        raise ValueError(f"clips have inconsistent shapes: {sorted(shapes)}")
    m, t_len = shapes.pop()
    signals = np.stack([lc.clip.signals for lc in clips])
    amps, phases = forward_stack(signals)
    phasors = 1j * phases
    del phases
    np.exp(phasors, out=phasors)
    rows = signals.reshape(len(clips), m * t_len)
    for start in range(0, len(rows), _STANDARDIZE_CHUNK):
        chunk = rows[start : start + _STANDARDIZE_CHUNK]
        chunk[...] = ad.standardized(chunk, md.STANDARDIZE_EPS)[0]
    labels = np.array([lc.y for lc in clips], dtype=np.intp)
    return rows, amps, phasors, labels, m, t_len


def _leaves(arrays: Mapping[str, FloatArray]) -> dict[str, Node]:
    """A trainable graph leaf over each of an optimizer group's live arrays."""
    return {name: Node(arr) for name, arr in arrays.items()}


def _check_finite(value: float, what: str, step: int) -> float:
    if not np.isfinite(value):
        raise NumericalAbort(f"{what} is non-finite ({value}) at step {step}")
    return float(value)


def _first_non_finite(arrays: Mapping[str, FloatArray]) -> str:
    return next(name for name, arr in arrays.items() if not np.isfinite(arr).all())


def _adam_step(opt: Adam, tracked: dict[str, Node], step: int) -> None:
    """One optimizer step on the tracked parameters' gradients; a non-finite
    gradient, or a parameter the step made non-finite, aborts the run.  Each
    check runs once over the whole group and names the parameter on failure."""
    grads = {name: node.grad for name, node in tracked.items()}
    try:
        opt.step(grads)
    except FloatingPointError:
        raise NumericalAbort(f"gradient of {_first_non_finite(grads)} is non-finite at step {step}") from None
    if not np.isfinite(opt.flat).all():
        raise NumericalAbort(
            f"parameter {_first_non_finite(opt.arrays)} is non-finite after the Adam step at step {step}"
        )


def _detector_losses(
    graph: dict[str, Node],
    z_clean: FloatArray,
    z_env: FloatArray | None,
    y: np.ndarray,
    weights: obj.LossWeights,
) -> tuple[Node, Node, Node, Node, Node]:
    """The detector step's (L_det, L_sym, discriminator loss, L_blind, total)
    over standardized clip rows; ``z_env`` is None in baseline mode, where the
    invariance terms are 0.  ``graph`` binds the ``enc.*`` and ``head.*``
    parameters.

    The clean and env views run through the encoder and classifier as one
    stack, and each copy of the discriminator runs once over both views."""
    z = z_clean if z_env is None else np.concatenate([z_clean, z_env])
    h = md.encoder_forward(ad.const(z), graph)
    logits = md.classifier_logits(h, graph)
    if z_env is None:
        l_det = obj.detector_loss(logits, None, y)
        l_sym = l_disc = l_blind = ad.const(0.0)
    else:
        n = len(z_clean)

        def views(node: Node) -> tuple[Node, Node]:
            return ad.row_slice(node, 0, n), ad.row_slice(node, n, 2 * n)

        h_clean, h_env = views(h)
        l_det = obj.detector_loss(*views(logits), y)
        l_sym = obj.symmetric_kl(*views(ad.softmax(logits)))
        # the discriminator learns on detached features; the encoder
        # learns against a constant copy of the discriminator
        l_disc = obj.blindness_loss(
            ad.const(h_clean.value), ad.const(h_env.value),
            lambda z: md.domain_logits(z, graph, through_grl=False),
            through_grl=False,
        )
        frozen = {
            name: ad.const(node.value) for name, node in graph.items()
            if name.startswith(("head.wq", "head.bq"))
        }
        l_blind = obj.encoder_blindness_loss(
            h_clean, h_env, lambda z: md.domain_logits(z, frozen, through_grl=False)
        )
    total = obj.total_loss(l_det, l_sym, ad.add(l_disc, l_blind), weights)
    return l_det, l_sym, l_disc, l_blind, total


def _adversary_losses(
    frozen: dict[str, Node],
    env_node: Node,
    mask_node: Node,
    z_clean: FloatArray,
    y: np.ndarray,
    weights: obj.LossWeights,
) -> tuple[Node, Node, Node]:
    """The adversary step's (mmd, mask_reg, L_gen) over its views and the
    standardized clean rows, with the encoder and classifier parameters
    (``_ADVERSARY_READS``) held in ``frozen``."""
    h_env = md.encoder_forward(md.standardize_rows(env_node), frozen)
    logits_env = md.classifier_logits(h_env, frozen)
    h_clean = md.encoder_forward(ad.const(z_clean), frozen)
    d_mmd = obj.mmd(h_clean, h_env)
    l_gen = obj.generator_loss(logits_env, y, d_mmd, mask_node, weights)
    return d_mmd, obj.mask_regularizer(mask_node), l_gen


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
    so this equals :func:`spectral.inverse_stack` of the phase.
    """
    b, m, k = amp.shape
    draws = rng.normal(0.0, sigma, size=(b, 1, k)) * np.ones((1, m, 1))
    new_amp = (amp + eps0) * np.exp(draws)
    return inverse_phasor(new_amp, phasor, window).reshape(b, m * window)


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

    ``epoch_hook`` (if given) observes the live bundle after each epoch; the
    returned bundle is still the best-validation snapshot.  The log's
    ``L_blind`` column holds the encoder side of the domain term
    (:func:`objectives.encoder_blindness_loss`); the discriminator's own loss
    is checked for finiteness but not logged.
    """
    rows, amps, phasors, labels, m, t_len = _stack_dataset(dataset)
    n_bins = t_len // 2 + 1
    train_idx, val_idx, test_idx = split_indices(len(dataset), config.seed)
    if len(np.unique(labels[val_idx])) < 2 or len(np.unique(labels[train_idx])) < 2:
        raise ValueError("train/val splits must contain both classes")

    bundle = md.init_bundle(
        input_width=m * t_len, n_bins=n_bins, alpha=config.alpha, seed=config.seed
    )
    arrays = md.named_arrays(bundle)
    det_opt = Adam({n: a for n, a in arrays.items() if n.startswith(("enc.", "head."))},
                   config.learning_rate, config.adam_betas, config.adam_eps)
    gen_opt = Adam(
        {n: a for n, a in arrays.items() if n.startswith("gen.")},
        config.generator_learning_rate,
        config.adam_betas,
        config.adam_eps,
    )
    # the bundle's parameters are views of the optimizers' buffers from here on
    md.set_named_arrays(bundle, {**det_opt.arrays, **gen_opt.arrays})
    arrays = md.named_arrays(bundle)
    assert all(arrays[n] is a for opt in (det_opt, gen_opt) for n, a in opt.arrays.items())

    batch_rng = _run_rng(config.seed, _STREAM_BATCH)
    naive_rng = _run_rng(config.seed, _STREAM_NAIVE)

    log_rows: list[dict] = []
    val_auc_by_epoch: list[float] = []
    best_auc = -1.0
    best_epoch = -1
    best_arrays: dict[str, FloatArray] = {n: a.copy() for n, a in arrays.items()}
    step = 0
    batch_counter = 0
    ratio = config.detector_steps_per_generator_step
    val_clips = [dataset[i].clip for i in val_idx]

    for epoch in range(config.epochs):
        order = batch_rng.permutation(train_idx)
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            z_clean = rows[batch]
            y = labels[batch]

            # --- detector step: adversary frozen ---------------------------------
            # the detector step leaves the generator unchanged, so one adversary
            # graph serves both steps: its value feeds the detector as a
            # constant, and the adversary step backpropagates through it
            if config.mode == "spinshield":
                gen_tracked = _leaves(gen_opt.arrays)
                env_node, mask_node = md.lsa_views(
                    amps[batch], phasors[batch], t_len, gen_tracked, config.alpha, bundle.delta
                )
                x_env = env_node.value
            elif config.mode == "naive_aug":
                x_env = naive_env_views(amps[batch], phasors[batch], t_len, naive_rng, sigma=NAIVE_SIGMA)
            else:
                x_env = None
            z_env = None if x_env is None else ad.standardized(x_env, md.STANDARDIZE_EPS)[0]

            tracked = _leaves(det_opt.arrays)
            l_det, l_sym, l_disc, l_blind, total = _detector_losses(
                tracked, z_clean, z_env, y, config.weights
            )
            checked = ((l_det, "L_det"), (l_sym, "L_sym"), (l_disc, "discriminator loss"),
                       (l_blind, "L_blind"), (total, "total"))
            for node, what in checked:
                _check_finite(node.value, what, step)
            ad.backward(total)
            _adam_step(det_opt, tracked, step)
            log_rows.append({
                "step": step, "phase": "theta",
                "L_det": float(l_det.value), "L_sym": float(l_sym.value),
                "L_blind": float(l_blind.value), "L_gen": None, "mmd": None,
                "mask_reg": None, "total": float(total.value),
            })
            step += 1

            # --- adversary step: detector frozen ----------------------------------
            batch_counter += 1
            if config.mode == "spinshield" and batch_counter % ratio == 0:
                frozen = {name: ad.const(arrays[name]) for name in _ADVERSARY_READS}
                d_mmd, reg, l_gen = _adversary_losses(
                    frozen, env_node, mask_node, z_clean, y, config.weights
                )
                for node, what in ((d_mmd, "mmd"), (reg, "mask_reg"), (l_gen, "L_gen")):
                    _check_finite(node.value, what, step)
                loss = ad.neg(l_gen)  # ascend by minimizing the negation
                ad.backward(loss)
                _adam_step(gen_opt, gen_tracked, step)
                log_rows.append({
                    "step": step, "phase": "phi",
                    "L_det": None, "L_sym": None, "L_blind": None,
                    "L_gen": float(l_gen.value), "mmd": float(d_mmd.value),
                    "mask_reg": float(reg.value), "total": float(loss.value),
                })
                step += 1

        val_scores = score_clips(bundle, val_clips)
        val_auc = compute_auc(val_scores, labels[val_idx])
        val_auc_by_epoch.append(val_auc)
        if val_auc >= best_auc - VAL_SELECTION_TOLERANCE:
            best_auc = max(best_auc, val_auc)
            best_epoch = epoch
            best_arrays = {n: a.copy() for n, a in arrays.items()}
        if epoch_hook is not None:
            epoch_hook(epoch, bundle)

    md.set_named_arrays(bundle, best_arrays)
    return TrainResult(
        bundle=bundle,
        log_rows=log_rows,
        val_auc_by_epoch=val_auc_by_epoch,
        best_epoch=best_epoch,
        train_indices=train_idx,
        val_indices=val_idx,
        test_indices=test_idx,
    )
