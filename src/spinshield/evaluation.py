"""Robustness evaluation: AUC under attacks, notch sweeps, the white-box
adaptive attack, feature dumps, and the serializable evaluation report.

Inference is single-stream: every score comes from the clean-view path
(standardize, encode, classify) of the model's plain forward, and the
adversary runs only for the env features of :func:`dump_features`.  The
white-box attack backpropagates by hand, so no autodiff graph is built here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import attacks as atk
from . import autodiff as ad
from . import models as md
from .errors import DataFormatError, NumericalAbort, from_record, json_int, read_json, to_record
from .parallel import parallel_map
from .spectral import (ComplexArray, FloatArray, FrequencyGrid, PatchSignalClip, forward_stack, inverse_stack,
                       minmax_normalize, synthesize_rows)
from .synthdata import LabeledClip

DEFAULT_ADAPTIVE_BUDGET = math.log(2.0)
DEFAULT_ADAPTIVE_STEPS = 40

REPORT_FORMAT = "spinshield-evalreport-v1"


def compute_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank-statistic AUC with ties counted one half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be equal-length vectors")
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = scores.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes present")
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    cum = np.cumsum(counts)
    avg_rank = cum - (counts - 1) / 2.0  # average 1-based rank within each tie group
    ranks = avg_rank[inverse]
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def _clean_path(bundle: md.ModelBundle, z: FloatArray) -> tuple[FloatArray, FloatArray]:
    """Features and class probabilities for standardized clip rows ``z``."""
    p = bundle.params
    h = md.encode(z, p)[1]
    return h, ad.softmax_parts(md.classify(h, p))[2]


def score_rows(bundle: md.ModelBundle, z: FloatArray) -> np.ndarray:
    """Fake-class probability per row of standardized clip rows ``z``: the
    scores :func:`score_clips` gives the clips, as rows never mix."""
    return _clean_path(bundle, z)[1][:, 1]


def score_clips(bundle: md.ModelBundle, clips: list[PatchSignalClip] | FloatArray) -> np.ndarray:
    """Fake-class probability per clip through the clean inference path;
    ``clips`` is a list of clips or an ``(N, M, T)`` stack of their signals."""
    if len(clips) == 0:
        return np.zeros(0)
    signals = clips if isinstance(clips, np.ndarray) else np.stack([c.signals for c in clips])
    x = signals.reshape(len(signals), -1)
    width = bundle.params["enc.w1"].shape[0]
    if x.shape[1] != width:
        raise ValueError(f"clips flatten to width {x.shape[1]}, model expects {width}")
    return score_rows(bundle, ad.standardized(np.asarray(x, dtype=np.float64), md.STANDARDIZE_EPS)[0])


def score_clip(bundle: md.ModelBundle, clip: PatchSignalClip) -> float:
    return float(score_clips(bundle, [clip])[0])


def _attack_seed(base_seed: int, eval_seed: int, kind: str, clip_id: int) -> int:
    kind_idx = (atk.ALL_KINDS + (atk.KIND_IDENTITY,)).index(kind)
    ss = np.random.SeedSequence(entropy=(base_seed, eval_seed, kind_idx, clip_id))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass
class EvalReport:
    """Per-attack AUC plus everything needed to regenerate it bit for bit."""

    config: dict
    clip_ids: list[int] = field(metadata={"name": "clip id"})
    labels: list[int] = field(metadata={"name": "label"})
    clean_scores: list[float]
    clean_auc: float
    attacks: dict = field(default_factory=dict, metadata={"required": True})
    # attacks[kind] = {"aucs": [...], "mean": ..., "std": ...,
    #                  "per_seed": [{"seed": ..., "specs": [...], "scores": [...], "auc": ...}]}

    def to_dict(self) -> dict:
        return {"format": REPORT_FORMAT, **to_record(self)}

    def save(self, path: Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict()), encoding="utf-8")

    @staticmethod
    def from_dict(data: dict) -> "EvalReport":
        if not isinstance(data, dict):
            raise DataFormatError("report must be a JSON object")
        if data.get("format") != REPORT_FORMAT:
            raise DataFormatError(f"unknown report format {data.get('format')!r}")
        try:
            report = from_record(EvalReport, {key: value for key, value in data.items() if key != "format"})
            if not isinstance(report.config, dict) or not isinstance(report.attacks, dict):
                raise TypeError("config and attacks must be JSON objects")
            for kind, block in report.attacks.items():
                if not isinstance(block, dict) or not isinstance(block.get("per_seed"), list):
                    raise TypeError(f"attacks[{kind!r}] must be a JSON object with a per_seed list")
            return report
        except (KeyError, TypeError, ValueError) as exc:
            raise DataFormatError(f"incomplete report: {exc}") from exc

    @staticmethod
    def load(path: Path) -> "EvalReport":
        return EvalReport.from_dict(read_json(path, "report"))


def _ordered(labeled: list[LabeledClip]) -> list[tuple[int, LabeledClip]]:
    pairs = sorted([(json_int(lc.provenance.get("index", i), "provenance index"), lc) for i, lc in enumerate(labeled)],
                   key=lambda pair: pair[0])
    if repeated := [cid for (cid, _), (next_id, _) in zip(pairs, pairs[1:]) if cid == next_id]:
        raise ValueError(f"provenance index {repeated[0]} is repeated; a report names each clip by its own")
    return pairs


def _signal_stack(clips: list[PatchSignalClip]) -> FloatArray:
    if not clips:
        raise ValueError("evaluation needs at least one clip")
    return np.stack([c.signals for c in clips])


def _run_suite(
    bundle: md.ModelBundle,
    config: dict,
    clip_ids: list[int],
    labels: list[int],
    signals: FloatArray,
    plan: dict[str, list[tuple[int, list[atk.AttackSpec]]]],
) -> EvalReport:
    """Score the clean stack, then the stack under every seed's specs of every
    kind in ``plan``; the clean stack is transformed once for all of them."""
    y = np.array(labels, dtype=np.intp)
    clean_scores = score_clips(bundle, signals)
    report = EvalReport(
        config=config,
        clip_ids=clip_ids,
        labels=labels,
        clean_scores=[float(s) for s in clean_scores],
        clean_auc=compute_auc(clean_scores, y),
    )
    grid = FrequencyGrid(signals.shape[-1])
    amplitude, phase = forward_stack(signals)
    for kind, seeded_specs in plan.items():
        per_seed = []
        for seed, specs in seeded_specs:
            scores = score_clips(bundle, atk.attack_spectra(amplitude, phase, specs, grid))
            per_seed.append({
                "seed": seed,
                "specs": [atk.spec_to_dict(s) for s in specs],
                "scores": [float(s) for s in scores],
                "auc": compute_auc(scores, y),
            })
        aucs = [block["auc"] for block in per_seed]
        report.attacks[kind] = {
            "aucs": aucs,
            "mean": float(np.mean(aucs)),
            "std": float(np.std(aucs)),
            "per_seed": per_seed,
        }
    return report


def evaluate_under_attacks(
    bundle: md.ModelBundle,
    labeled: list[LabeledClip],
    kinds: tuple[str, ...] = atk.ALL_KINDS,
    n_seeds: int = 3,
    base_seed: int = 0,
    sigma: float = atk.DEFAULT_NOISE_SIGMA,
    tukey_alpha: float = atk.DEFAULT_TUKEY_ALPHA,
) -> EvalReport:
    """Sample one attack per clip per seed per kind, score, and aggregate AUC."""
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be at least 1, got {n_seeds}")
    pairs = _ordered(labeled)
    clip_ids = [cid for cid, _ in pairs]
    signals = _signal_stack([lc.clip for _, lc in pairs])
    grid = FrequencyGrid(signals.shape[-1])

    def specs(kind: str, eval_seed: int) -> list[atk.AttackSpec]:
        return [
            atk.sample_attack(kind, grid, _attack_seed(base_seed, eval_seed, kind, cid),
                              patches=signals.shape[1], sigma=sigma, tukey_alpha=tukey_alpha)
            for cid in clip_ids
        ]

    plan = {kind: [(s, specs(kind, s)) for s in range(n_seeds)] for kind in kinds}
    config = {
        "base_seed": base_seed,
        "eval_seeds": list(range(n_seeds)),
        "kinds": list(kinds),
        "sigma": sigma,
        "tukey_alpha": tukey_alpha,
        "n_clips": len(clip_ids),
    }
    return _run_suite(bundle, config, clip_ids, [int(lc.y) for _, lc in pairs], signals, plan)


def replay_report(
    report: EvalReport, bundle: md.ModelBundle, labeled: list[LabeledClip]
) -> EvalReport:
    """Recompute a report from its own embedded attack specs (no re-sampling)."""
    by_id = dict(_ordered(labeled))
    try:
        clips = [by_id[cid].clip for cid in report.clip_ids]
    except KeyError as exc:
        raise DataFormatError(f"report references missing clip id {exc}") from exc
    plan = {
        kind: [
            (seed_block["seed"], [atk.spec_from_dict(d) for d in seed_block["specs"]])
            for seed_block in block["per_seed"]
        ]
        for kind, block in report.attacks.items()
    }
    return _run_suite(
        bundle, report.config, list(report.clip_ids), list(report.labels), _signal_stack(clips), plan
    )


def notch_sweep(bundle: md.ModelBundle, labeled: list[LabeledClip]) -> list[dict]:
    """Clean AUC followed by AUC under a full-suppression unit notch at each
    interior bin; mirrors the vulnerable-band probe."""
    pairs = _ordered(labeled)
    signals = _signal_stack([lc.clip for _, lc in pairs])
    labels = np.array([lc.y for _, lc in pairs], dtype=np.intp)
    grid = FrequencyGrid(signals.shape[-1])
    amplitude, phase = forward_stack(signals)

    rows = [{"bin": None, "omega_k": None, "auc": compute_auc(score_clips(bundle, signals), labels)}]
    for center in range(1, grid.n_bins - 1):
        spec = atk.AttackSpec(
            kind=atk.KIND_NOTCH,
            params=atk.NotchParams(center_bin=center, width_bins=1, floor=0.0),
        )
        attacked = inverse_stack(atk.edit_amplitude(amplitude, spec, grid), phase, grid.window)
        auc = compute_auc(score_clips(bundle, attacked), labels)
        rows.append({"bin": center, "omega_k": center / grid.window, "auc": auc})
    return rows


def write_sweep_csv(rows: list[dict], path: Path) -> None:
    lines = ["omega_k,auc"]
    for row in rows:
        omega = "none" if row["omega_k"] is None else repr(row["omega_k"])
        lines.append(f"{omega},{row['auc']!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _attack_objective(
    p: dict, amp: FloatArray, phasor: ComplexArray, window: int, y: int, u: FloatArray, want_grad: bool
) -> tuple[float, FloatArray | None]:
    """The cross entropy of label ``y`` for the clip with amplitude ``amp *
    exp(u)`` and unit phasors ``phasor``, and (if ``want_grad``) its gradient
    at the log-amplitude field ``u``."""
    scale = np.exp(u)
    signals = synthesize_rows(amp * scale, phasor, window)
    z, inv_std = ad.standardized(signals.reshape(1, -1), md.STANDARDIZE_EPS)
    hidden, h = md.encode(z, p)
    labels = np.array([y])
    ce, probs = ad.cross_entropy_parts(md.classify(h, p), labels)
    value = ce.mean()
    if not np.isfinite(value):
        raise NumericalAbort("adaptive attack objective became non-finite")
    if not want_grad:
        return float(value), None
    g_h = ad.cross_entropy_vjp(probs, labels, 1.0) @ p["head.wg"].T
    grad = (md.amplitude_vjp(g_h, p, hidden, z, inv_std, phasor) * amp) * scale
    if not np.all(np.isfinite(grad)):
        raise NumericalAbort("adaptive attack gradient became non-finite")
    return float(value), grad


def adaptive_attack(
    bundle: md.ModelBundle,
    labeled: LabeledClip,
    steps: int = DEFAULT_ADAPTIVE_STEPS,
    budget: float = DEFAULT_ADAPTIVE_BUDGET,
) -> tuple[PatchSignalClip, float]:
    """White-box per-clip attack: ascend the true-label CE over a bounded
    log-amplitude modulation field, phase fixed; returns the strongest
    perturbed clip found and its post-attack score."""
    if budget < 0 or steps < 0:
        raise ValueError(f"budget and steps must be non-negative, got {budget} and {steps}")
    clip, y = labeled.clip, labeled.y
    if budget == 0.0 or steps == 0:
        return clip, score_clip(bundle, clip)

    amp, phase = forward_stack(clip.signals)
    phasor = np.exp(1j * phase)
    window = clip.frame_count
    p = bundle.params
    step_size = 2.5 * budget / steps

    u = np.zeros_like(amp)
    best_u = u
    best_obj = -np.inf
    for _ in range(steps):
        value, grad = _attack_objective(p, amp, phasor, window, y, u, want_grad=True)
        if value > best_obj:
            best_obj = value
            best_u = u
        u = np.clip(u + step_size * np.sign(grad), -budget, budget)
    value, _ = _attack_objective(p, amp, phasor, window, y, u, want_grad=False)
    if value > best_obj:
        best_u = u

    attacked = PatchSignalClip(signals=inverse_stack(amp * np.exp(best_u), phase, window), fps=clip.fps)
    return attacked, score_clip(bundle, attacked)


def adaptive_attack_suite(
    bundle: md.ModelBundle,
    labeled: list[LabeledClip],
    steps: int = DEFAULT_ADAPTIVE_STEPS,
    budget: float = DEFAULT_ADAPTIVE_BUDGET,
) -> dict:
    """Post-attack scores and AUC over a clip set."""
    pairs = _ordered(labeled)
    labels = np.array([lc.y for _, lc in pairs], dtype=np.intp)
    results = parallel_map(
        lambda pair: adaptive_attack(bundle, pair[1], steps=steps, budget=budget), pairs
    )
    scores = np.array([score for _, score in results])
    return {
        "clip_ids": [cid for cid, _ in pairs],
        "scores": [float(s) for s in scores],
        "auc": compute_auc(scores, labels),
        "steps": steps,
        "budget": budget,
    }


def dump_features(bundle: md.ModelBundle, labeled: list[LabeledClip], path: Path) -> None:
    """CSV of encoder features for the clean and env view of every clip."""
    pairs = _ordered(labeled)
    signals = _signal_stack([lc.clip for _, lc in pairs])
    h_clean, _ = _clean_path(bundle, ad.standardized(signals.reshape(len(signals), -1), md.STANDARDIZE_EPS)[0])
    amplitude, phase = forward_stack(signals)
    p = bundle.params
    views = md.lsa_forward(p, amplitude, minmax_normalize(amplitude), np.exp(1j * phase), signals.shape[-1],
                           bundle.alpha, bundle.delta)
    h_env = md.encode(views.z_env, p)[1]

    dim = h_clean.shape[1]
    header = "clip,view,y," + ",".join(f"h{j}" for j in range(dim))
    lines = [header]
    for row, (cid, lc) in enumerate(pairs):
        lines.append(f"{cid},clean,{lc.y}," + ",".join(repr(float(v)) for v in h_clean[row]))
    for row, (cid, lc) in enumerate(pairs):
        lines.append(f"{cid},env,{lc.y}," + ",".join(repr(float(v)) for v in h_env[row]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
