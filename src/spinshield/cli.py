"""Command-line surface.

Exit codes: 0 success, 1 usage error, 2 data error (missing or malformed
files, bad values), 3 numerical abort.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import attacks as atk
from . import clipio, evaluation, synthdata, training
from . import models as md
from .errors import DataFormatError, NumericalAbort, read_json


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _add_model_args(sub: argparse.ArgumentParser, out_help: str) -> None:
    sub.add_argument("--checkpoint", type=Path, required=True)
    sub.add_argument("--data", type=Path, required=True)
    sub.add_argument("--out", type=Path, required=True, help=out_help)


def _add_split_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--split", choices=("train", "val", "test", "all"), default="test")
    sub.add_argument("--split-seed", type=int, default=0,
                     help="seed that produced the train/val/test split")


def _load_split(args: argparse.Namespace, limit: int | None = None) -> list:
    """The chosen split's clips, at most ``limit`` of them; no other clip file is read."""

    def select(n: int):
        if args.split == "all":
            return range(n)[:limit]
        train_idx, val_idx, test_idx = training.split_indices(n, args.split_seed)
        return {"train": train_idx, "val": val_idx, "test": test_idx}[args.split][:limit]

    return synthdata.load_dataset(args.data, select)[1]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spinshield", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("gen-data", help="generate a planted-shortcut dataset")
    p.add_argument("--spec", type=Path, help="DatasetSpec JSON (defaults used if omitted)")
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.add_argument("--format", choices=("csv", "binary"), default="csv")
    p.add_argument("--seed", type=int, help="override spec seed")
    p.add_argument("--n-clips", type=int, help="override spec clip count")
    p.set_defaults(func=_cmd_gen_data)

    p = subs.add_parser("train", help="train a detector")
    p.add_argument("--config", type=Path, help="TrainConfig JSON (defaults used if omitted)")
    p.add_argument("--data", type=Path, required=True, help="dataset manifest")
    p.add_argument("--out", type=Path, required=True, help="checkpoint output path")
    p.add_argument("--log", type=Path, help="training log CSV output path")
    p.add_argument("--mode", choices=training.MODES)
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.set_defaults(func=_cmd_train)

    p = subs.add_parser("eval", help="AUC under sampled spectral attacks")
    _add_model_args(p, "EvalReport JSON output path")
    p.add_argument("--kinds", default=",".join(atk.ALL_KINDS),
                   help="comma-separated attack kinds")
    p.add_argument("--n-seeds", type=int, default=3)
    p.add_argument("--base-seed", type=int, default=0)
    _add_split_args(p)
    p.set_defaults(func=_cmd_eval)

    p = subs.add_parser("sweep", help="per-bin notch suppression AUC table")
    _add_model_args(p, "sweep CSV output path")
    _add_split_args(p)
    p.set_defaults(func=_cmd_sweep)

    p = subs.add_parser("adaptive", help="white-box per-clip modulation attack")
    _add_model_args(p, "report JSON output path")
    p.add_argument("--steps", type=int, default=evaluation.DEFAULT_ADAPTIVE_STEPS)
    p.add_argument("--budget", type=float, default=evaluation.DEFAULT_ADAPTIVE_BUDGET)
    p.add_argument("--limit", type=int, default=200, help="max clips to attack")
    _add_split_args(p)
    p.set_defaults(func=_cmd_adaptive)

    p = subs.add_parser("attack", help="apply one attack spec to a clip file")
    p.add_argument("--spec", type=Path, required=True, help="AttackSpec JSON")
    p.add_argument("--in", dest="infile", type=Path, required=True)
    p.add_argument("--format", choices=("csv", "binary"), default="csv")
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=_cmd_attack)

    p = subs.add_parser("features", help="dump clean and env encoder features")
    _add_model_args(p, "features CSV output path")
    _add_split_args(p)
    p.set_defaults(func=_cmd_features)

    return parser


def _given(**overrides: object) -> dict:
    """The record fields a command's flags override: those that were given."""
    return {name: value for name, value in overrides.items() if value is not None}


def _cmd_gen_data(args: argparse.Namespace) -> int:
    spec = synthdata.spec_from_dict(read_json(args.spec, "dataset spec")) if args.spec else synthdata.DatasetSpec()
    spec = synthdata.spec_from_dict({**synthdata.spec_to_dict(spec), **_given(seed=args.seed, n_clips=args.n_clips)})
    clips = synthdata.generate_dataset(spec)
    manifest = synthdata.save_dataset(clips, spec, args.out, clip_format=args.format)
    print(f"wrote {len(clips)} clips, manifest {manifest}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    config = training.load_config(args.config) if args.config else training.TrainConfig()
    config = training.config_from_dict({**training.config_to_dict(config),
                                        **_given(mode=args.mode, seed=args.seed, epochs=args.epochs)})
    _, clips = synthdata.load_dataset(args.data)
    result = training.train(config, clips)
    md.save_bundle(result.bundle, args.out)
    if args.log:
        training.write_log(result.log_rows, args.log)
    print(
        f"trained mode={config.mode} seed={config.seed}: "
        f"best val AUC {max(result.val_auc_by_epoch):.4f} at epoch {result.best_epoch}, "
        f"checkpoint {args.out}"
    )
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    kinds = tuple(k for k in args.kinds.split(",") if k)
    for kind in kinds:
        if kind not in atk.ALL_KINDS + (atk.KIND_IDENTITY,):
            raise UsageError(f"unknown attack kind {kind!r}")
    bundle = md.load_bundle(args.checkpoint)
    subset = _load_split(args)
    report = evaluation.evaluate_under_attacks(
        bundle, subset, kinds=kinds, n_seeds=args.n_seeds, base_seed=args.base_seed
    )
    report.save(args.out)
    print(f"clean AUC {report.clean_auc:.4f}")
    for kind in kinds:
        block = report.attacks[kind]
        print(f"{kind}: AUC {block['mean']:.4f} +- {block['std']:.4f}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    bundle = md.load_bundle(args.checkpoint)
    rows = evaluation.notch_sweep(bundle, _load_split(args))
    evaluation.write_sweep_csv(rows, args.out)
    for row in rows:
        label = "none" if row["bin"] is None else f"bin {row['bin']}"
        print(f"{label}: AUC {row['auc']:.4f}")
    return 0


def _cmd_adaptive(args: argparse.Namespace) -> int:
    if args.limit < 1:
        raise ValueError(f"--limit must be at least 1, got {args.limit}")
    bundle = md.load_bundle(args.checkpoint)
    subset = _load_split(args, args.limit)
    result = evaluation.adaptive_attack_suite(bundle, subset, steps=args.steps, budget=args.budget)
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    print(f"post-attack AUC {result['auc']:.4f} over {len(subset)} clips")
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    spec = atk.spec_from_dict(read_json(args.spec, "attack spec"))
    clip = clipio.read_clip(args.infile, args.format)
    attacked = atk.apply_attack(clip, spec)
    clipio.write_clip(attacked, args.out, args.format)
    print(f"wrote attacked clip to {args.out}")
    return 0


def _cmd_features(args: argparse.Namespace) -> int:
    bundle = md.load_bundle(args.checkpoint)
    evaluation.dump_features(bundle, _load_split(args), args.out)
    print(f"wrote features to {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help exits through here with code 0
        return int(exc.code or 0)
    try:
        # a non-finite value ends the command as a numerical abort, with no
        # floating-point warnings on stderr before the one-line message
        with np.errstate(all="ignore"):
            return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataFormatError, OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (NumericalAbort, FloatingPointError) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
