"""Per-module spans and counters, recorded by wrappers around the program's
public functions.

Modules import functions from one another by name (``training`` binds
``recompose``, ``dft_onesided`` and ``compute_auc`` itself), so a wrapper
replaces every binding of the original function in every ``spinshield``
module, not only the defining one.  Spans are kept in memory and written out
when the run ends.  A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _written_bytes(args: tuple, kwargs: dict) -> int:
    path = Path(_arg(args, kwargs, 1, "path"))
    total = path.stat().st_size
    sidecar = path.with_name(path.name + ".json")
    if _arg(args, kwargs, 2, "format") == "csv" and sidecar.exists():
        total += sidecar.stat().st_size
    return total


def _targets(pkg: dict) -> list[tuple]:
    """(owner, attribute, span name (a function of the arguments, or None for
    no span), counters(args, kwargs, result) or None)."""
    sp, atk, ad, md, obj = pkg["spectral"], pkg["attacks"], pkg["autodiff"], pkg["models"], pkg["objectives"]
    tr, ev, sd, cio, par, cli = (pkg[n] for n in ("training", "evaluation", "synthdata", "clipio", "parallel", "cli"))

    def calls(name):
        return lambda args, kwargs, result: {name: 1}

    return [
        (sp, "dft_onesided", "spectral.dft", calls("spectral.dft_calls")),
        (sp, "recompose", "spectral.recompose", calls("spectral.recompose_calls")),
        (atk, "sample_attack", "attacks.sample", None),
        (atk, "apply_attack", "attacks.apply", calls("attacks.apply_calls")),
        (ad, "backward", "autodiff.backward", calls("autodiff.backward_calls")),
        (md, "encoder_forward", "models.encoder_forward", None),
        (md, "lsa_perturb_graph", "models.lsa_perturb", None),
        (md, "lsa_perturb", "models.lsa_perturb", None),
        (md, "save_bundle", "models.save_bundle", None),
        (md, "load_bundle", "models.load_bundle", None),
        (obj, "mmd", "objectives.mmd", None),
        (obj, "blindness_loss", "objectives.blindness", None),
        (obj, "encoder_blindness_loss", "objectives.blindness", None),
        (obj, "symmetric_kl", "objectives.symmetric_kl", None),
        (tr, "train", "training.train", None),
        (tr.Adam, "step", "training.adam", calls("training.adam_steps")),
        (ev, "score_clips", "evaluation.score",
         lambda a, k, r: {"evaluation.scored_clips": len(_arg(a, k, 1, "clips"))}),
        (ev, "compute_auc", "evaluation.auc", None),
        (ev, "evaluate_under_attacks", "evaluation.suite", None),
        (ev, "replay_report", "evaluation.replay", None),
        (ev, "notch_sweep", "evaluation.sweep", None),
        (ev, "adaptive_attack_suite", "evaluation.adaptive", None),
        (ev, "adaptive_attack", "evaluation.adaptive", None),
        (sd, "generate_dataset", "synthdata.generate", None),
        (sd, "save_dataset", "synthdata.save", None),
        (sd, "load_clips", "synthdata.load", lambda a, k, r: {"synthdata.loaded_clips": len(r)}),
        (sd, "load_dataset", "synthdata.load", None),
        (cio, "read_clip", "clipio.read", calls("clipio.read_calls")),
        (cio, "write_clip", "clipio.write",
         lambda a, k, r: {"clipio.write_calls": 1, "clipio.bytes_written": _written_bytes(a, k)}),
        # a count only: a span here would take the self time of the work it fans out
        (par, "parallel_map", None, lambda a, k, r: {"parallel.map_items": len(_arg(a, k, 1, "items"))}),
        (cli, "main", lambda a, k: f"cli.{_arg(a, k, 0, 'argv')[0]}", None),
    ]


class Tracer:
    """Nested spans plus counters; ``install`` swaps the wrappers in, ``remove`` undoes it."""

    def __init__(self, pkg: dict) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, phase]
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.phase = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._pkg = pkg

    def _wrap(self, fn, name, counters):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def counter(*args, **kwargs):
            result = fn(*args, **kwargs)
            for key, n in counters(args, kwargs, result).items():
                counts[self.phase][key] += n
            return result

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            label = name(args, kwargs) if callable(name) else name
            spans.append([label, 0.0, 0.0, stack[-1] if stack else -1, self.phase])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1:3] = start, end
            if counters is not None:
                for key, n in counters(args, kwargs, result).items():
                    counts[self.phase][key] += n
            return result

        return counter if name is None else wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "spinshield" or n.startswith("spinshield.")]
        for owner, attr, name, counters in _targets(self._pkg):
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, counters)
            owners = [owner] if isinstance(owner, type) else modules
            for module in owners:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)
        node = self._pkg["autodiff"].Node
        node_init = node.__init__

        def counting_init(obj, *args, **kwargs):
            self.counts[self.phase]["autodiff.nodes"] += 1
            node_init(obj, *args, **kwargs)

        self._patches.append((node, "__init__", node_init))
        node.__init__ = counting_init

    def remove(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def self_times(self, phase: str) -> dict[str, float]:
        """Self time per span name over the spans of one phase."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _, span_phase), covered in zip(self.spans, child):
            if span_phase == phase:
                totals[f"{name}_s"] += end - start - covered
        return totals

    def write(self, path: Path, origin: float) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent, phase in self.spans:
                fh.write(json.dumps({"name": name, "start": start - origin, "end": end - origin,
                                     "parent": parent, "phase": phase}) + "\n")
