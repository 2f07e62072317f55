"""Benchmark command: one workload in one process, from a source checkout.

    python3 perfbench/run.py --workload train --seed 0 --seconds 32 --trace 0

It builds the workload's inputs from the seed (five times, to time the
set-up), then runs whole rounds until ``--seconds`` have passed.  The first
round's outputs are checked against independent references; later rounds
must repeat them bit for bit.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end metrics
of ``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics,
taken from wrappers around the program's functions (see ``tracing.py``), and
the span log is written to ``perfbench/out/``.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUPS = 5


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _import_program():
    """Pin numpy's BLAS and OpenMP to one thread, leave the program's own
    thread fan-out unset, and import the program from this checkout's ``src``."""
    src = ROOT / "src"
    if not (src / "spinshield" / "__init__.py").is_file():
        raise SystemExit(f"no spinshield sources under {src}: run from a source checkout")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("SPINSHIELD_THREADS", None)
    sys.path.insert(0, str(src))
    import spinshield
    from spinshield import (attacks, autodiff, cli, clipio, evaluation, models, objectives,
                            parallel, spectral, synthdata, training)

    if not Path(spinshield.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"imported spinshield from {spinshield.__file__}, not from {src}")
    return {m.__name__.rsplit(".", 1)[-1]: m for m in (
        attacks, autodiff, cli, clipio, evaluation, models, objectives, parallel, spectral, synthdata, training)}


def main(argv: list[str]) -> int:
    args = _parse(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in declared["workloads"]}:
        raise SystemExit(f"unknown workload {args.workload!r}")
    pkg = _import_program()
    import workloads
    from tracing import Tracer

    import_s = time.perf_counter() - START
    wl = workloads.WORKLOADS[args.workload]
    work = BENCH / "work" / args.workload
    tracer = Tracer(pkg) if args.trace else None

    if tracer:
        tracer.install()
    builds = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        state = wl.setup(args.seed, work)
        builds.append(time.perf_counter() - t0)
    if tracer:
        tracer.remove()

    ops = wl.ops(state)
    tally = {"attempted": 0, "failed": 0}
    problems: list[str] = []
    reference: dict[str, str] = {}
    rounds: dict[bool, list[float]] = {True: [], False: []}
    attacked_auc = None

    def run_round(traced: bool) -> float:
        nonlocal attacked_auc
        wl.clear(state)
        gc.collect()  # every round starts from the same heap, whatever the last one left
        if traced:
            tracer.phase = "round"
            tracer.install()
        out, op_times = {}, []
        t0 = time.perf_counter()
        for name, fn in ops:
            t_op = time.perf_counter()
            try:
                out[name] = fn(out)
                op_times.append(f"{name}={time.perf_counter() - t_op:.3f}s")
            except Exception:
                tally["failed"] += 1
                print(f"operation {name} failed:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
        elapsed = time.perf_counter() - t0
        if traced:
            tracer.remove()
        print(f"round {'traced' if traced else 'untraced'} {elapsed:.3f}s: {' '.join(op_times)}", file=sys.stderr)
        tally["attempted"] += len(ops)
        if len(out) < len(ops):
            return elapsed
        if not reference:
            problems.extend(wl.check(state, out))
            reference.update({name: wl.fingerprint(state, name, value) for name, value in out.items()})
            attacked_auc = wl.attacked_auc(state, out)
        else:
            problems.extend(f"{name}: output differs from the first round's"
                            for name, value in out.items() if wl.fingerprint(state, name, value) != reference[name])
        return elapsed

    # --seconds counts measured time only: the first round's checks are not in it
    traced = bool(args.trace)
    while True:
        rounds[traced].append(run_round(traced))
        if tracer:
            traced = not traced
        if sum(map(sum, rounds.values())) >= args.seconds and (not tracer or all(rounds.values())):
            break
    shutil.rmtree(work, ignore_errors=True)
    with contextlib.suppress(OSError):
        work.parent.rmdir()  # only if no other workload's files are there

    if tracer:
        counts = {phase: tracer.counts[phase] for phase in ("setup", "round")}
        per = {phase: {**tracer.self_times(phase), **counts[phase]} for phase in counts}
        values = {
            m["name"]: per["setup"].get(m["name"], 0.0) / SETUPS + per["round"].get(m["name"], 0.0) / len(rounds[True])
            for m in declared["per_layer"]
        }
        values["trace.overhead_s"] = statistics.median(rounds[True]) - statistics.median(rounds[False])
        tracer.write(BENCH / "out" / f"trace-{args.workload}-{args.seed}.jsonl", START)
        units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    else:
        values = {
            "setup_s": import_s + statistics.median(builds),
            "round_s": statistics.median(rounds[False]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "attacked_auc": attacked_auc,
        }
        units = {m["name"]: m["unit"] for m in declared["end_to_end"]}

    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    if attacked_auc is None:
        print("no round completed every operation; nothing to report", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not problems,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
