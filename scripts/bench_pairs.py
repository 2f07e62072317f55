"""Alternating parent/change pairs of the benchmark, written as one BENCH file.

    python3 scripts/bench_pairs.py --parent ../parent --change . \
        --workload train --seeds 60 61 62 63 64 65 66 67 68 69 \
        --trace-seed 7 --out BENCH_7.json

Each run is ``python3 perfbench/run.py --workload W --seed S --seconds N
--trace T``, with N the ``run_seconds`` of the change's ``BENCHMARK.json``, in
a fresh process, started from a fresh copy of its side's files, so that both
sides run from the same kind of directory on the same disk. Pair i runs the
parent first when i is even and the change first when i is odd. With
``--trace-seed``, each workload also gets one traced run per side (parent
first). The output names each side's commit (or its path, when the checkout is
not a git repository) and records every run with its seed, side and order, a
median/quartile summary of each end-to-end metric named in the change's
``BENCHMARK.json``, the BLAS thread settings, the numpy and BLAS versions,
numpy's SIMD extensions, and the mount and filesystem type of ``--scratch``,
where the runs create their files.

Each metric's summary also states three verdicts.  ``worse_shift`` is the
change's median relative to the parent's, signed so that a positive value is
a move in the metric's worse direction; ``within_bound`` says whether it is at
most the metric's ``bound``.  ``unresolved`` says whether the parent's runs
spread too widely for that bound to be told: their interquartile range,
relative to their median, exceeds the bound, and not every run of the change
is better than every run of the parent.  ``gain`` says whether the change is
better in at least 9 of every 10 pairs and its median is better than the
parent's by more than the parent's interquartile range.

Beside them, ``pair_ratio`` gives the median and quartiles of change/parent
within each pair, and ``better_in`` the number of pairs whose ratio is
better.  A drift of the host between pairs moves both runs of a pair, so it
cancels in the ratio while it widens the parent's spread.  The ratios are
reported only: the ``gain``, ``unresolved`` and ``within_bound`` rules above
do not read them.

Each workload's ``operations`` summary is reported only too.  It parses the
``round untraced ...: name=1.234s ...`` lines that every run prints, and
gives per operation each side's median over all its untraced rounds, the
number of those rounds, and the change/parent ratio of the two medians.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

# what a run reads of a checkout; everything else (outputs, caches) is left behind
COPIED = ("src", "perfbench", "BENCHMARK.json")
IGNORED = shutil.ignore_patterns("__pycache__", "work", "out")


def _run(root: Path, workload: str, seed: int, seconds: float, trace: int, scratch: Path) -> dict:
    """One benchmark run from a fresh copy of the checkout at ``root``."""
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        copy = Path(tmp)
        for name in COPIED:
            src = root / name
            if src.is_dir():
                shutil.copytree(src, copy / name, ignore=IGNORED)
            else:
                shutil.copy2(src, copy / name)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=copy, capture_output=True, text=True, check=False,
        )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    return {
        "exit_code": proc.returncode,
        "correct": result.get("correct", False),
        "attempted": result.get("attempted", 0),
        "failed": result.get("failed", 0),
        "metrics": {name: m["value"] for name, m in result.get("metrics", {}).items()},
        "rounds": [line for line in proc.stderr.splitlines() if line.startswith("round")],
        "errors": [line for line in proc.stderr.splitlines() if line.startswith("check failed")]
        + ([] if proc.returncode == 0 else proc.stderr.strip().splitlines()[-5:]),
    }


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _summary(runs: list[dict], metrics: list[dict]) -> dict:
    pairs: dict[int, dict] = {}
    for run in runs:
        pairs.setdefault(run["pair"], {})[run["side"]] = run["metrics"]
    complete = [p for p in pairs.values() if "parent" in p and "change" in p]
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        both = [(p["parent"][name], p["change"][name]) for p in complete
                if name in p["parent"] and name in p["change"]]
        if len(both) < 2:
            continue
        better = sum(1 for a, b in both if (b < a if lower else b > a))
        parents, changes = [a for a, _ in both], [b for _, b in both]
        parent, change = _spread(parents), _spread(changes)
        worse_by = change["median"] - parent["median"] if lower else parent["median"] - change["median"]
        iqr = parent["q3"] - parent["q1"]
        if parent["median"]:
            shift, spread = worse_by / abs(parent["median"]), iqr / abs(parent["median"])
        else:  # any move away from a zero median is an unbounded relative shift
            shift = math.copysign(math.inf, worse_by) if worse_by else 0.0
            spread = math.inf if iqr else 0.0
        separated = max(changes) < min(parents) if lower else min(changes) > max(parents)
        ratios = [b / a for a, b in both if a]  # a pair with a zero parent has no ratio
        out[name] = {
            "parent": parent,
            "change": change,
            "change_better_in": better,
            "ties": sum(1 for a, b in both if a == b),
            "pairs": len(both),
            "worse_shift": shift,
            "within_bound": shift <= metric["bound"],
            "unresolved": spread > metric["bound"] and not separated,
            "gain": 10 * better >= 9 * len(both) and -worse_by > iqr,
            "pair_ratio": {**_spread(ratios), "better_in": sum(1 for r in ratios if (r < 1 if lower else r > 1)),
                           "pairs": len(ratios)} if len(ratios) >= 2 else None,
        }
    return out


def _operations(runs: list[dict]) -> dict:
    """Per operation, each side's median seconds over its untraced rounds and
    the change/parent ratio of those medians."""
    times: dict[str, dict[str, list[float]]] = {}
    for run in runs:
        for line in run["rounds"]:
            head, _, ops = line.partition(": ")
            if head.startswith("round untraced"):
                for name, value in re.findall(r"\s*(.+?)=([0-9.]+)s", ops):
                    times.setdefault(name, {"parent": [], "change": []})[run["side"]].append(float(value))
    out = {}
    for name, sides in times.items():
        medians = {side: statistics.median(values) for side, values in sides.items() if values}
        out[name] = {**{side: {"median_s": m, "rounds": len(sides[side])} for side, m in medians.items()},
                     "ratio": medians["change"] / medians["parent"]
                     if medians.get("parent") and "change" in medians else None}
    return out


def _label(root: Path) -> str:
    proc = subprocess.run(["git", "-C", str(root), "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else str(root)


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _filesystem(path: Path) -> dict:
    """The mount that holds ``path`` (the last-mounted of the longest mount
    points above it in /proc/mounts) and its filesystem type."""
    path, found = path.resolve(), {"mount": None, "type": "unknown"}
    try:
        mounts = Path("/proc/mounts").read_text(encoding="utf-8").splitlines()
    except OSError:
        return found
    for line in mounts:
        fields = line.split()
        if len(fields) < 3:
            continue
        mount = Path(fields[1].replace("\\040", " "))  # /proc/mounts escapes a space as \040
        if (mount == path or mount in path.parents) and len(str(mount)) >= len(str(found["mount"] or "")):
            found = {"mount": str(mount), "type": fields[2]}
    return found


def _environment(scratch: Path) -> dict:
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "cpus": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        # the SIMD extensions numpy was built for and found: a single-precision
        # gain depends on the vector width
        "simd": config.get("SIMD Extensions"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": "OPENBLAS_NUM_THREADS=1 and OMP_NUM_THREADS=1, set by perfbench/run.py before numpy is imported",
        "caller_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        # the runs create their files here, and the cost of creating a file belongs to the host
        "scratch": _filesystem(scratch),
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True, help="one pair per seed")
    parser.add_argument("--trace-seed", type=int, help="also one traced run per side and workload")
    parser.add_argument("--scratch", type=Path, default=Path(tempfile.gettempdir()),
                        help="where the per-run copies are made")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    declared = json.loads((roots["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = declared["run_seconds"]

    doc = {
        "what": "Alternating parent/change pairs of `python3 perfbench/run.py --workload W --seed S "
                f"--seconds {seconds:g} --trace T`, each run in a fresh process from a copy of its "
                "side's files; pair i runs the parent first when i is even and the change first when i is odd.",
        "parent": _label(roots["parent"]),
        "change": _label(roots["change"]),
        "environment": _environment(args.scratch),
        "workloads": {},
        "traced": [],
    }
    for workload in args.workload:
        runs = []
        for pair, seed in enumerate(args.seeds):
            sides = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for order, side in enumerate(sides):
                run = _run(roots[side], workload, seed, seconds, 0, args.scratch)
                runs.append({"pair": pair, "seed": seed, "side": side, "order": order, **run})
                print(f"{workload} pair {pair} seed {seed} {side}: exit {run['exit_code']} "
                      f"{json.dumps(run['metrics'])}", file=sys.stderr, flush=True)
        doc["workloads"][workload] = {
            "seeds": list(args.seeds),
            "all_correct": all(r["correct"] for r in runs),
            "failed_operations": sum(r["failed"] for r in runs),
            "summary": _summary(runs, declared["end_to_end"]),
            "operations": _operations(runs),
            "runs": runs,
        }
        if args.trace_seed is not None:
            for order, side in enumerate(("parent", "change")):
                run = _run(roots[side], workload, args.trace_seed, seconds, 1, args.scratch)
                doc["traced"].append({"workload": workload, "seed": args.trace_seed, "side": side,
                                      "order": order, "correct": run["correct"], "failed": run["failed"],
                                      "metrics": run["metrics"]})
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
