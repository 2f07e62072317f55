"""Digests of the README's CLI session, for bit-for-bit checks of written files.

    python3 scripts/cli_digest.py --src path/to/checkout/src --seed 0 --out /tmp/session

This runs the README's command sequence through ``spinshield.cli.main`` of
the program under ``--src``, in one process with one BLAS thread, with every
file under ``--out`` (which must not exist yet or be empty):

    gen-data (the default 4000 clips, CSV), train baseline (10 epochs) and
    spinshield (25 epochs), eval (test split, 3 seeds), sweep, adaptive (200
    clips), gen-data of 2 binary clips and attack (a unit notch) on the first,
    then features

with ``--seed`` as the dataset, training and split seed.  It prints one line
per command, with its exit code and the sha256 of its stdout, then one line
per written file, with its path under ``--out`` and its sha256.  The
``--out`` path is replaced by ``<out>`` in stdout and in every file before
hashing, so two runs into different directories compare equal.  A change that
claims to keep the CLI's output bit for bit must print the same lines as its
parent; run this script on each checkout's ``src`` and compare the output.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"


def commands(out: Path, seed: int) -> list[tuple[str, list[str]]]:
    """The README's commands as (name, argv), every path under ``out``."""
    data, manifest = str(out / "data" / "run0"), str(out / "data" / "run0" / "manifest.json")
    split = ["--split", "test", "--split-seed", str(seed)]
    return [
        ("gen-data", ["gen-data", "--out", data, "--seed", str(seed)]),
        ("train baseline", ["train", "--data", manifest, "--mode", "baseline", "--epochs", "10", "--seed", str(seed),
                            "--out", str(out / "base.ckpt"), "--log", str(out / "base_log.csv")]),
        ("train spinshield", ["train", "--data", manifest, "--mode", "spinshield", "--epochs", "25", "--seed",
                              str(seed), "--out", str(out / "spin.ckpt")]),
        ("eval", ["eval", "--checkpoint", str(out / "spin.ckpt"), "--data", manifest, *split, "--n-seeds", "3",
                  "--out", str(out / "spin_report.json")]),
        ("sweep", ["sweep", "--checkpoint", str(out / "base.ckpt"), "--data", manifest, *split,
                   "--out", str(out / "base_sweep.csv")]),
        ("adaptive", ["adaptive", "--checkpoint", str(out / "spin.ckpt"), "--data", manifest, *split,
                      "--limit", "200", "--out", str(out / "spin_adaptive.json")]),
        ("gen-data binary", ["gen-data", "--out", str(out / "bin"), "--seed", str(seed), "--n-clips", "2",
                             "--format", "binary"]),
        ("attack", ["attack", "--spec", str(out / "notch.json"), "--in", str(out / "bin" / "clip_00000.spsc"),
                    "--format", "binary", "--out", str(out / "attacked.spsc")]),
        ("features", ["features", "--checkpoint", str(out / "spin.ckpt"), "--data", manifest,
                      "--out", str(out / "features.csv")]),
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, required=True, help="the src directory of the checkout to run")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True, help="a new or empty directory for the session's files")
    args = parser.parse_args()
    out = args.out.resolve()
    if not (args.src / "spinshield" / "cli.py").is_file():
        parser.error(f"{args.src} holds no spinshield package")
    if out.exists() and any(out.iterdir()):
        parser.error(f"{out} is not empty")
    out.mkdir(parents=True, exist_ok=True)
    (out / "notch.json").write_text(json.dumps({"kind": "notch", "center_bin": 5, "width_bins": 1}))
    sys.path.insert(0, str(args.src.resolve()))
    from spinshield import cli

    def digest(data: bytes) -> str:
        return hashlib.sha256(data.replace(str(out).encode(), b"<out>")).hexdigest()

    for name, argv in commands(out, args.seed):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        print(f"{name}: exit {code} stdout {digest(stdout.getvalue().encode())}", flush=True)
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        print(f"{path.relative_to(out)} {digest(path.read_bytes())}")


if __name__ == "__main__":
    main()
