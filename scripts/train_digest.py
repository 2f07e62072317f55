"""Digests of the acceptance core's training, for full-size bit-for-bit checks.

    python3 scripts/train_digest.py --seeds 0 7

For each seed this trains the acceptance core at full size (the default
4000-clip dataset; baseline 10 epochs, naive_aug 12, spinshield 25, as in
``tests/test_acceptance.py``), then runs the notch sweep of the baseline and
spinshield detectors over the test split.  It prints one line per seed with
four sha256 digests: of the parameters (little-endian float64, each mode's
arrays in ``named_arrays`` order), of the log rows (JSON), of the sweep rows
(JSON), and of the baseline and spinshield detectors' other inference outputs
over the test split: the attack-suite report and its replay (JSON), the
white-box attack on the first ``ADAPTIVE_LIMIT`` test clips (JSON) and the
feature dump (the CSV's bytes).  A change that claims to keep training or
inference bit for bit must print the same lines as its parent.  The program
is imported from the ``src`` directory beside this script, so a copy of the
script in another checkout digests that checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from spinshield import evaluation as ev  # noqa: E402
from spinshield import models as md  # noqa: E402
from spinshield import synthdata as sd  # noqa: E402
from spinshield import training as tr  # noqa: E402

EPOCHS = {"baseline": 10, "naive_aug": 12, "spinshield": 25}
ADAPTIVE_LIMIT = 40


def seed_digests(seed: int) -> dict[str, str]:
    spec = sd.DatasetSpec(seed=seed)
    dataset = sd.generate_dataset(spec)
    _, _, test_idx = tr.split_indices(spec.n_clips, seed)
    test = [dataset[i] for i in test_idx]
    digests = {name: hashlib.sha256() for name in ("params", "log", "sweeps", "inference")}
    bundles = {}
    for mode, epochs in EPOCHS.items():
        result = tr.train(tr.TrainConfig(mode=mode, epochs=epochs, seed=seed), dataset)
        bundles[mode] = result.bundle
        for arr in md.named_arrays(result.bundle).values():
            digests["params"].update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        digests["log"].update(json.dumps(result.log_rows).encode())
    for mode in ("baseline", "spinshield"):
        digests["sweeps"].update(json.dumps(ev.notch_sweep(bundles[mode], test)).encode())
    for mode in ("baseline", "spinshield"):
        report = ev.evaluate_under_attacks(bundles[mode], test)
        for doc in (report.to_dict(), ev.replay_report(report, bundles[mode], test).to_dict(),
                    ev.adaptive_attack_suite(bundles[mode], test[:ADAPTIVE_LIMIT])):
            digests["inference"].update(json.dumps(doc).encode())
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "features.csv"
            ev.dump_features(bundles[mode], test, path)
            digests["inference"].update(path.read_bytes())
    return {name: digest.hexdigest() for name, digest in digests.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    for seed in args.seeds:
        digests = seed_digests(seed)
        print(f"seed {seed} " + " ".join(f"{name} {hexdigest}" for name, hexdigest in digests.items()), flush=True)


if __name__ == "__main__":
    main()
