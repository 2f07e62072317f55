"""The benchmark's workloads.

A workload has a set-up, which builds its inputs from the seed, and a list of
operations that make up one round (an operation is one trained detector, one
evaluation call, one CLI command or the replay of a report).  The first round's outputs are checked
against the references in ``checks``; every later round must reproduce them
bit for bit, which the program promises within a version.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import replace
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from spinshield import attacks as atk
from spinshield import cli
from spinshield import evaluation as ev
from spinshield import models as md
from spinshield import synthdata as sd
from spinshield import training as tr

Op = tuple[str, Callable[[dict], object]]

ACCEPTANCE_EPOCHS = {"baseline": 10, "naive_aug": 12, "spinshield": 25}
ADAPTIVE_STEPS = 12
ADAPTIVE_BUDGET = math.log(2.0)
# a planted cue strong enough, and a learning rate high enough, that 400
# steps of spinshield training reach a steady attacked AUC (0.98-1.00 on
# seeds 0-5); with the defaults it is still climbing, seed by seed, after
# 1000 steps.  Half the default clip count halves the files the CLI writes.
BRIEF_SPEC = {"n_clips": 2000, "phase_cue_strength": 3.0}
BRIEF_TRAINING = {"mode": "spinshield", "epochs": 8, "learning_rate": 2e-3}


def _notch(k: int) -> atk.AttackSpec:
    return atk.AttackSpec(kind=atk.KIND_NOTCH, params=atk.NotchParams(center_bin=k, width_bins=1, floor=0.0))


def _stack(clips) -> np.ndarray:
    return np.stack([c.signals for c in clips])


def _sweep_problems(what: str, bundle: md.ModelBundle, labeled: list, rows: list[dict]) -> list[str]:
    """Each sweep row's AUC against a pairwise count over the scores of clips
    notched by the program, and each notched clip against the reference notch.
    Clips are scored in the sweep's own order, so that every score is the
    sweep's to the last bit."""
    labeled = sorted(labeled, key=lambda lc: lc.provenance["index"])
    clips = [lc.clip for lc in labeled]
    labels = [lc.y for lc in labeled]
    clean = _stack(clips)
    problems = checks.auc_problems(f"{what} clean row", rows[0]["auc"], ev.score_clips(bundle, clips), labels)
    if [r["bin"] for r in rows[1:]] != list(range(1, clean.shape[-1] // 2)):
        return problems + [f"{what}: sweep rows cover bins {[r['bin'] for r in rows[1:]]}"]
    for row in rows[1:]:
        attacked = [atk.apply_attack(c, _notch(row["bin"])) for c in clips]
        got = _stack(attacked)
        problems += checks.close_problems(f"{what} bin {row['bin']}", got, checks.notch_reference(clean, row["bin"]))
        problems += checks.attacked_problems(f"{what} bin {row['bin']}", clean, got)
        problems += checks.auc_problems(f"{what} bin {row['bin']}", row["auc"], ev.score_clips(bundle, attacked), labels)
    return problems


def _row_auc(rows: list[dict], k: int) -> float:
    return next(r["auc"] for r in rows if r["bin"] == k)


def _adaptive_problems(what: str, bundle, labeled: list, result: dict) -> list[str]:
    """The suite's AUC against a pairwise count, and each clip re-attacked
    alone: same score, phase kept, amplitudes within the budget."""
    by_id = {int(lc.provenance["index"]): lc for lc in labeled}
    labels = [by_id[cid].y for cid in result["clip_ids"]]
    problems = checks.auc_problems(f"{what} AUC", result["auc"], result["scores"], labels)
    for cid, score in zip(result["clip_ids"], result["scores"]):
        lc = by_id[cid]
        attacked, again = ev.adaptive_attack(bundle, lc, steps=result["steps"], budget=result["budget"])
        if again != score:
            problems.append(f"{what} clip {cid}: score {score!r} does not repeat ({again!r})")
        problems += checks.attacked_problems(f"{what} clip {cid}", lc.clip.signals, attacked.signals, result["budget"])
    return problems


def _report_problems(what: str, bundle, labeled: list, report: dict) -> list[str]:
    """Every AUC in an evaluation report against a pairwise count, and every
    embedded attack re-applied: finite, real, phase kept, same scores."""
    by_id = {int(lc.provenance["index"]): lc for lc in labeled}
    clips = [by_id[cid].clip for cid in report["clip_ids"]]
    labels = [by_id[cid].y for cid in report["clip_ids"]]
    problems = [] if report["labels"] == labels else [f"{what}: labels differ from the dataset's"]
    problems += checks.auc_problems(f"{what} clean", report["clean_auc"], report["clean_scores"], labels)
    clean = _stack(clips)
    for kind, block in report["attacks"].items():
        for seed_block in block["per_seed"]:
            tag = f"{what} {kind} seed {seed_block['seed']}"
            problems += checks.auc_problems(tag, seed_block["auc"], seed_block["scores"], labels)
            attacked = [atk.apply_attack(c, atk.spec_from_dict(d)) for c, d in zip(clips, seed_block["specs"])]
            problems += checks.attacked_problems(tag, clean, _stack(attacked))
            if list(ev.score_clips(bundle, attacked)) != seed_block["scores"]:
                problems.append(f"{tag}: reported scores are not those of the embedded attacks")
        if block["aucs"] != [s["auc"] for s in block["per_seed"]]:
            problems.append(f"{what} {kind}: AUC list disagrees with the per-seed blocks")
    return problems


def _finite_bundle(what: str, bundle: md.ModelBundle) -> list[str]:
    bad = [n for n, a in md.named_arrays(bundle).items() if not np.all(np.isfinite(a))]
    return [f"{what}: non-finite parameters {bad}"] if bad else []


class Train:
    """One seed of the acceptance experiment's core: train the three modes on
    the default 4000-clip dataset, then notch-sweep baseline and spinshield."""

    def setup(self, seed: int, work: Path) -> dict:
        spec = sd.DatasetSpec(seed=seed)
        dataset = sd.generate_dataset(spec)
        _, _, test_idx = tr.split_indices(spec.n_clips, seed)
        return {"seed": seed, "spec": spec, "dataset": dataset, "test": [dataset[i] for i in test_idx]}

    def ops(self, st: dict) -> list[Op]:
        def fit(mode):
            config = tr.TrainConfig(mode=mode, epochs=ACCEPTANCE_EPOCHS[mode], seed=st["seed"])
            return lambda out: tr.train(config, st["dataset"]).bundle

        def sweep(mode):
            return lambda out: ev.notch_sweep(out[mode], st["test"])

        return [(mode, fit(mode)) for mode in ACCEPTANCE_EPOCHS] + [
            ("sweep_baseline", sweep("baseline")), ("sweep_spinshield", sweep("spinshield"))]

    def clear(self, st: dict) -> None:
        pass

    def fingerprint(self, st: dict, name: str, value) -> str:
        return checks.digest(md.named_arrays(value) if isinstance(value, md.ModelBundle) else value)

    def check(self, st: dict, out: dict) -> list[str]:
        problems = []
        for mode in ACCEPTANCE_EPOCHS:
            problems += _finite_bundle(mode, out[mode])
        for mode in ("baseline", "spinshield"):
            problems += _sweep_problems(f"{mode} sweep", out[mode], st["test"], out[f"sweep_{mode}"])
        base, spin = (_row_auc(out[f"sweep_{m}"], st["spec"].shortcut_bin) for m in ("baseline", "spinshield"))
        if not spin > base:
            problems.append(f"spinshield attacked AUC {spin:.4f} does not exceed the baseline's {base:.4f}")
        return problems

    def attacked_auc(self, st: dict, out: dict) -> float:
        return _row_auc(out["sweep_spinshield"], st["spec"].shortcut_bin)


class CliSession:
    """The README's command sequence, run in-process through ``cli.main`` on
    files in a working directory: every command re-reads its whole manifest.
    The session then replays the written evaluation report through the
    library, as a reader of the report would."""

    n_eval = 1000

    def setup(self, seed: int, work: Path) -> dict:
        shutil.rmtree(work, ignore_errors=True)
        (work / "in").mkdir(parents=True)
        train_spec = sd.DatasetSpec(seed=seed, **BRIEF_SPEC)
        eval_spec = replace(train_spec, n_clips=self.n_eval, seed=seed + 1)
        files = {
            "train_spec.json": sd.spec_to_dict(train_spec),
            "eval_spec.json": sd.spec_to_dict(eval_spec),
            "config.json": tr.config_to_dict(tr.TrainConfig(seed=seed, **BRIEF_TRAINING)),
            "notch.json": atk.spec_to_dict(_notch(train_spec.shortcut_bin)),
        }
        for name, doc in files.items():
            (work / "in" / name).write_text(json.dumps(doc), encoding="utf-8")
        eval_ref = sd.generate_dataset(eval_spec)
        _, _, test_idx = tr.split_indices(self.n_eval, seed + 1)
        return {
            "seed": seed, "work": work, "spec": train_spec, "rounds": 0,
            "train_ref": sd.generate_dataset(train_spec), "eval_ref": eval_ref,
            "eval_test": [eval_ref[i] for i in test_idx],
        }

    def clear(self, st: dict) -> None:
        """Give the round a directory of its own and remove the last round's
        while its files are seconds old, before the kernel writes them back:
        removing a run's worth of written-back files at the end of the run
        slowed the runs after it (see the README)."""
        if "out" in st:
            shutil.rmtree(st["out"])
        st["rounds"] += 1
        st["out"] = st["work"] / f"out{st['rounds']}"
        st["out"].mkdir()

    def ops(self, st: dict) -> list[Op]:
        i = st["work"] / "in"
        seed = str(st["seed"])
        held_out = ["--split", "test", "--split-seed", str(st["seed"] + 1)]
        # "{o}" is the round's output directory
        commands = [
            ("gen-data binary", ["gen-data", "--spec", f"{i}/train_spec.json", "--out", "{o}/bin",
                                 "--format", "binary"], ["bin"]),
            ("gen-data csv", ["gen-data", "--spec", f"{i}/eval_spec.json", "--out", "{o}/csv",
                              "--format", "csv"], ["csv"]),
            ("train", ["train", "--config", f"{i}/config.json", "--data", "{o}/bin/manifest.json",
                       "--out", "{o}/spin.ckpt", "--log", "{o}/train_log.csv"], ["spin.ckpt", "train_log.csv"]),
            ("eval", ["eval", "--checkpoint", "{o}/spin.ckpt", "--data", "{o}/csv/manifest.json",
                      "--out", "{o}/report.json", "--n-seeds", "2", "--base-seed", seed, *held_out], ["report.json"]),
            ("sweep", ["sweep", "--checkpoint", "{o}/spin.ckpt", "--data", "{o}/csv/manifest.json",
                       "--out", "{o}/sweep.csv", *held_out], ["sweep.csv"]),
            ("adaptive", ["adaptive", "--checkpoint", "{o}/spin.ckpt", "--data", "{o}/bin/manifest.json",
                          "--out", "{o}/adaptive.json", "--steps", str(ADAPTIVE_STEPS),
                          "--budget", repr(ADAPTIVE_BUDGET), "--limit", "40", "--split", "test", "--split-seed", seed],
             ["adaptive.json"]),
            ("features", ["features", "--checkpoint", "{o}/spin.ckpt", "--data", "{o}/csv/manifest.json",
                          "--out", "{o}/features.csv", *held_out], ["features.csv"]),
            ("attack", ["attack", "--spec", f"{i}/notch.json", "--in", "{o}/bin/clip_00000.spsc",
                        "--format", "binary", "--out", "{o}/attacked.spsc"], ["attacked.spsc"]),
        ]
        st["outputs"] = {name: paths for name, _, paths in commands} | {"replay": []}
        return [(name, self._command(st, argv)) for name, argv, _ in commands] + [("replay", self._replay(st))]

    @staticmethod
    def _command(st: dict, template: list[str]):
        def run(out: dict) -> str:
            argv = [arg.format(o=st["out"]) for arg in template]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"spinshield {' '.join(argv)} exited {code}: {stderr.getvalue().strip()}")
            return stdout.getvalue()
        return run

    @staticmethod
    def _replay(st: dict):
        def run(out: dict) -> dict:
            report = ev.EvalReport.load(st["out"] / "report.json")
            bundle = md.load_bundle(st["out"] / "spin.ckpt")
            return ev.replay_report(report, bundle, st["eval_test"]).to_dict()
        return run

    def fingerprint(self, st: dict, name: str, value) -> str:
        """What the operation returned (a command: what it printed) plus the
        bytes of every file it wrote, with the round's directory named "{o}"."""
        o = str(st["out"])
        files = {}
        for path in (st["out"] / p for p in st["outputs"][name]):
            for p in sorted(path.rglob("*")) if path.is_dir() else [path]:
                files[str(p.relative_to(o))] = p.read_bytes().replace(o.encode(), b"{o}")
        return checks.digest([value.replace(o, "{o}") if isinstance(value, str) else value, files])

    def _sweep_rows(self, st: dict) -> list[dict]:
        lines = (st["out"] / "sweep.csv").read_text(encoding="utf-8").split()
        return [{"bin": None if omega == "none" else round(float(omega) * st["spec"].frames), "auc": float(auc)}
                for omega, auc in (line.split(",") for line in lines[1:])]

    def check(self, st: dict, out: dict) -> list[str]:
        o, spec = st["out"], st["spec"]
        problems = []
        for sub, ref, reader in (("bin", st["train_ref"], checks.read_spsc),
                                 ("csv", st["eval_ref"], lambda p: checks.read_clip_csv(p, spec.patches, spec.frames))):
            entries = json.loads((o / sub / "manifest.json").read_text(encoding="utf-8"))["clips"]
            if [e["label"] for e in entries] != [lc.y for lc in ref]:
                problems.append(f"{sub} manifest: labels differ from the generated dataset")
            for entry, lc in zip(entries, ref):
                if not np.array_equal(reader(o / sub / entry["path"]), lc.clip.signals):
                    problems.append(f"{sub} {entry['path']}: does not decode to the generated signals bit for bit")
                    break

        bundle = md.load_bundle(o / "spin.ckpt")
        problems += _finite_bundle("train checkpoint", bundle)
        test = st["eval_test"]
        report = json.loads((o / "report.json").read_text(encoding="utf-8"))
        problems += _report_problems("eval report", bundle, test, report)
        if json.loads(json.dumps(out["replay"])) != report:
            problems.append("replay_report does not reproduce the eval report")
        problems += _sweep_problems("sweep csv", bundle, test, self._sweep_rows(st))

        _, _, train_test_idx = tr.split_indices(spec.n_clips, st["seed"])
        adaptive = json.loads((o / "adaptive.json").read_text(encoding="utf-8"))
        problems += _adaptive_problems("adaptive", bundle, [st["train_ref"][i] for i in train_test_idx], adaptive)

        features = (o / "features.csv").read_text(encoding="utf-8").split()
        values = np.array([[float(v) for v in line.split(",")[3:]] for line in features[1:]])
        if len(features) != 2 * len(test) + 1 or not np.all(np.isfinite(values)):
            problems.append(f"features csv: {len(features) - 1} rows for {len(test)} clips, or non-finite values")

        clean = st["train_ref"][0].clip.signals
        attacked = checks.read_spsc(o / "attacked.spsc")
        problems += checks.close_problems("attack", attacked, checks.notch_reference(clean, spec.shortcut_bin))
        problems += checks.attacked_problems("attack", clean, attacked)
        return problems

    def attacked_auc(self, st: dict, out: dict) -> float:
        return _row_auc(self._sweep_rows(st), st["spec"].shortcut_bin)


WORKLOADS = {"train": Train(), "cli_session": CliSession()}
