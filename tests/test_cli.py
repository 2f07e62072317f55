import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinshield import cli
from spinshield.errors import NumericalAbort


SUBCOMMANDS = ("gen-data", "train", "eval", "sweep", "adaptive", "attack", "features")


class TestExitCodes:
    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_help_exits_zero(self, command, capsys):
        assert cli.main([command, "--help"]) == 0
        assert "usage" in capsys.readouterr().out

    def test_top_level_help(self, capsys):
        assert cli.main(["--help"]) == 0

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert cli.main([]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self):
        assert cli.main(["gen-data", "--bogus"]) == 1

    def test_missing_checkpoint_is_data_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.ckpt"
        code = cli.main([
            "eval", "--checkpoint", str(missing),
            "--data", str(tmp_path / "manifest.json"), "--out", str(tmp_path / "r.json"),
        ])
        assert code == 2
        assert str(missing) in capsys.readouterr().err

    @pytest.mark.parametrize("what, argv", [
        ("dataset spec", ["gen-data", "--spec", "{f}", "--out", "{d}/ds"]),
        ("train config", ["train", "--config", "{f}", "--data", "{d}/m.json", "--out", "{d}/m.ckpt"]),
        ("manifest", ["train", "--data", "{f}", "--out", "{d}/m.ckpt"]),
        ("attack spec", ["attack", "--spec", "{f}", "--in", "{d}/c.csv", "--out", "{d}/o.csv"]),
        ("checkpoint", ["eval", "--checkpoint", "{f}", "--data", "{d}/m.json", "--out", "{d}/r.json"]),
    ])
    def test_json_file_missing_or_malformed(self, what, argv, tmp_path, capsys):
        path = tmp_path / "in.json"
        argv = [arg.format(f=path, d=tmp_path) for arg in argv]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"data error: {what} not found: {path}\n"
        path.write_text("{broken")
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: bad {what} JSON in {path}: Expecting") and err.count("\n") == 1

    def test_unknown_attack_kind_is_usage_error(self, tmp_path, capsys):
        code = cli.main([
            "eval", "--checkpoint", str(tmp_path / "x"), "--data", str(tmp_path / "y"),
            "--out", str(tmp_path / "r.json"), "--kinds", "meteor",
        ])
        assert code == 1

    def test_numerical_abort_maps_to_three(self, monkeypatch, tmp_path):
        def explode(args):
            raise NumericalAbort("loss went to nan at step 3")

        parser = cli.build_parser()
        monkeypatch.setattr(cli, "build_parser", lambda: parser)
        monkeypatch.setattr(cli, "_cmd_gen_data", explode)
        for action in parser._subparsers._group_actions[0].choices.values():
            if action.get_default("func") is not None:
                pass
        # route through main with a patched command table
        args = parser.parse_args(["gen-data", "--out", str(tmp_path / "d")])
        monkeypatch.setattr(args, "func", explode, raising=False)

        def fake_parse(argv=None):
            return args

        monkeypatch.setattr(parser, "parse_args", fake_parse)
        assert cli.main(["gen-data", "--out", str(tmp_path / "d")]) == 3


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen-data -> train -> artifacts, shared by the subcommand tests."""
    root = tmp_path_factory.mktemp("pipeline")
    data_dir = root / "data"
    spec = {"n_clips": 80, "seed": 5}
    spec_path = root / "dataset.json"
    spec_path.write_text(json.dumps(spec))
    assert cli.main([
        "gen-data", "--spec", str(spec_path), "--out", str(data_dir), "--format", "binary",
    ]) == 0
    manifest = data_dir / "manifest.json"

    config = {"mode": "baseline", "epochs": 2, "seed": 5}
    config_path = root / "train.json"
    config_path.write_text(json.dumps(config))
    checkpoint = root / "model.ckpt"
    log_path = root / "log.csv"
    assert cli.main([
        "train", "--config", str(config_path), "--data", str(manifest),
        "--out", str(checkpoint), "--log", str(log_path),
    ]) == 0
    return root, manifest, checkpoint


class TestPipeline:
    def test_artifacts_exist(self, pipeline):
        root, manifest, checkpoint = pipeline
        assert manifest.exists() and checkpoint.exists() and (root / "log.csv").exists()

    def test_eval_writes_report(self, pipeline):
        root, manifest, checkpoint = pipeline
        out = root / "report.json"
        code = cli.main([
            "eval", "--checkpoint", str(checkpoint), "--data", str(manifest),
            "--out", str(out), "--n-seeds", "1", "--split", "test", "--split-seed", "5",
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["format"] == "spinshield-evalreport-v1"
        assert set(report["attacks"]) == {"notch", "band_mask", "tilt", "snr_noise"}

    def test_sweep_writes_csv(self, pipeline):
        root, manifest, checkpoint = pipeline
        out = root / "sweep.csv"
        code = cli.main([
            "sweep", "--checkpoint", str(checkpoint), "--data", str(manifest),
            "--out", str(out), "--split", "all",
        ])
        assert code == 0
        assert out.read_text().splitlines()[0] == "omega_k,auc"

    def test_adaptive_writes_report(self, pipeline):
        root, manifest, checkpoint = pipeline
        out = root / "adaptive.json"
        code = cli.main([
            "adaptive", "--checkpoint", str(checkpoint), "--data", str(manifest),
            "--out", str(out), "--steps", "2", "--limit", "6", "--split", "all",
        ])
        assert code == 0
        assert 0.0 <= json.loads(out.read_text())["auc"] <= 1.0

    def test_attack_round_trip(self, pipeline, tmp_path):
        root, manifest, checkpoint = pipeline
        from spinshield import clipio
        from spinshield.synthdata import load_clips

        clip = load_clips(manifest)[0].clip
        infile = tmp_path / "clip.spsc"
        clipio.write_clip_binary(clip, infile)
        spec_path = tmp_path / "attack.json"
        spec_path.write_text(json.dumps({
            "kind": "notch", "center_bin": 4, "width_bins": 1, "floor": 0.0, "seed": 0,
        }))
        out = tmp_path / "attacked.spsc"
        code = cli.main([
            "attack", "--spec", str(spec_path), "--in", str(infile),
            "--format", "binary", "--out", str(out),
        ])
        assert code == 0
        attacked = clipio.read_clip_binary(out)
        assert attacked.signals.shape == clip.signals.shape
        assert not np.allclose(attacked.signals, clip.signals)

    def test_features_dump(self, pipeline):
        root, manifest, checkpoint = pipeline
        out = root / "features.csv"
        code = cli.main([
            "features", "--checkpoint", str(checkpoint), "--data", str(manifest),
            "--out", str(out), "--split", "val", "--split-seed", "5",
        ])
        assert code == 0
        assert out.read_text().startswith("clip,view,y,h0")

    def test_train_mode_override(self, pipeline, tmp_path):
        root, manifest, _ = pipeline
        out = tmp_path / "naive.ckpt"
        code = cli.main([
            "train", "--data", str(manifest), "--out", str(out),
            "--mode", "naive_aug", "--epochs", "1", "--seed", "5",
        ])
        assert code == 0
        assert out.exists()

    @pytest.mark.parametrize("mode", ["naive_aug", "spinshield"])
    def test_one_clip_last_batch_trains(self, tmp_path, capsys, mode):
        # 97 training clips in batches of 32 leave a last batch of one clip
        data = tmp_path / "data"
        assert cli.main(["gen-data", "--out", str(data), "--n-clips", "121", "--seed", "31",
                         "--format", "binary"]) == 0
        code = cli.main(["train", "--data", str(data / "manifest.json"), "--out", str(tmp_path / "m.ckpt"),
                         "--mode", mode, "--epochs", "1"])
        assert code == 0, capsys.readouterr().err
        assert (tmp_path / "m.ckpt").exists()


class TestMalformedInputs:
    @pytest.mark.parametrize("spec", [None, [1, 2], "spec"])
    def test_manifest_without_spec_object_is_data_error(self, pipeline, tmp_path, capsys, spec):
        _, manifest, _ = pipeline
        doc = json.loads(manifest.read_text())
        if spec is None:
            del doc["spec"]
        else:
            doc["spec"] = spec
        bad = manifest.parent / f"no_spec_{type(spec).__name__}.json"
        bad.write_text(json.dumps(doc))
        code = cli.main(["train", "--data", str(bad), "--out", str(tmp_path / "m.ckpt"), "--epochs", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "spec" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("bad", [{"label": 0, "path": 5}, {"label": 0, "path": "x", "provenance": 3}])
    def test_every_manifest_entry_is_validated(self, pipeline, tmp_path, capsys, bad):
        _, manifest, checkpoint = pipeline
        doc = json.loads(manifest.read_text())
        doc["clips"].append(bad)
        path = manifest.parent / f"bad_entry_{len(bad)}.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["eval", "--checkpoint", str(checkpoint), "--data", str(path),
                         "--out", str(tmp_path / "r.json"), "--split", "test", "--split-seed", "5"])
        err = capsys.readouterr().err
        assert code == 2
        assert "bad manifest entry" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("version", [True, 1.0, 2.0, "1"])
    def test_manifest_version_must_be_an_integer(self, pipeline, tmp_path, capsys, version):
        _, manifest, checkpoint = pipeline
        doc = json.loads(manifest.read_text())
        doc["version"] = version
        path = manifest.parent / f"version_{type(version).__name__}_{version}.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["eval", "--checkpoint", str(checkpoint), "--data", str(path),
                         "--out", str(tmp_path / "r.json"), "--split", "test", "--split-seed", "5"])
        err = capsys.readouterr().err
        assert code == 2
        assert "unsupported manifest version" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("config", [[1, 2], {"weights": [0.5]}, {"weights": 3}])
    def test_non_object_config_is_data_error(self, pipeline, tmp_path, capsys, config):
        _, manifest, _ = pipeline
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code = cli.main(["train", "--config", str(path), "--data", str(manifest),
                         "--out", str(tmp_path / "m.ckpt")])
        err = capsys.readouterr().err
        assert code == 2
        assert "train config" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("config", [
        {"adam_betas": [1.0, 0.999]}, {"adam_betas": [0.9, 1.0]}, {"adam_betas": [0.9, 1.5]},
        {"adam_betas": [-0.5, 0.999]}, {"adam_betas": [0.9, 0.99, 0.999]}, {"adam_eps": -1},
        {"adam_eps": 0},
    ])
    def test_bad_adam_settings_are_data_errors(self, pipeline, tmp_path, capsys, config):
        _, manifest, _ = pipeline
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"epochs": 1, **config}))
        code = cli.main(["train", "--config", str(path), "--data", str(manifest),
                         "--out", str(tmp_path / "m.ckpt")])
        err = capsys.readouterr().err
        assert code == 2
        assert "adam_" in err and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("config", [
        {"learning_rate": float("nan")}, {"generator_learning_rate": float("inf")}, {"alpha": float("inf")},
        {"adam_eps": float("inf")}, {"weights": {"gamma": float("nan")}},
        {"weights": {"lambda_blind": float("inf")}},
    ])
    def test_non_finite_settings_are_data_errors(self, pipeline, tmp_path, capsys, config):
        # JSON's NaN and Infinity load as floats; they must fail at config load
        _, manifest, _ = pipeline
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"epochs": 1, **config}))
        code = cli.main(["train", "--config", str(path), "--data", str(manifest),
                         "--out", str(tmp_path / "m.ckpt")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "finite" in err and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("config", [
        {"epochs": 1.9}, {"epochs": True}, {"epochs": "1"}, {"batch_size": 32.0},
        {"detector_steps_per_generator_step": 1.5}, {"seed": 2.5},
    ])
    def test_integer_config_fields_must_be_integers(self, pipeline, tmp_path, capsys, config):
        # int() would train 1 epoch for 1.9 and for true, and seed 2 for 2.5
        _, manifest, _ = pipeline
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"epochs": 1, **config}))
        code = cli.main(["train", "--config", str(path), "--data", str(manifest),
                         "--out", str(tmp_path / "m.ckpt")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "bad train config" in err and "integer" in err and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("spec", [
        {"n_clips": True}, {"n_clips": 12.0}, {"seed": 2.5}, {"frames": "16"}, {"base_bins": [1, 2.0, 3]},
    ])
    def test_integer_spec_fields_must_be_integers(self, tmp_path, capsys, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"n_clips": 12, **spec}))
        code = cli.main(["gen-data", "--spec", str(path), "--out", str(tmp_path / "data")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "bad dataset spec" in err and "integer" in err and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("spec", [
        {"kind": "notch", "center_bin": 5.7, "width_bins": 1}, {"kind": "notch", "center_bin": 5, "width_bins": True},
        {"kind": "identity", "seed": 2.5}, {"kind": "band_mask", "bands": [[2, 1.0]]},
        {"kind": "band_mask", "bands": [["2", 1]]},
    ])
    def test_integer_attack_fields_must_be_integers(self, pipeline, tmp_path, capsys, spec):
        from spinshield import clipio
        from spinshield.synthdata import load_clips

        _, manifest, _ = pipeline
        infile = tmp_path / "clip.spsc"
        clipio.write_clip_binary(load_clips(manifest)[0].clip, infile)
        path = tmp_path / "attack.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "attacked.spsc"
        code = cli.main(["attack", "--spec", str(path), "--in", str(infile), "--format", "binary", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "bad attack record" in err and "integer" in err and len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("config", [
        {"epoch": 3}, {"weights": {"lambda_sim": 0}}, {"learning-rate": 0.1, "seeds": 2},
    ])
    def test_unknown_config_fields_are_data_errors(self, pipeline, tmp_path, capsys, config):
        # a misspelt field used to fall back to its default: 25 epochs, lambda_sym 0.9
        _, manifest, _ = pipeline
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"epochs": 1, **config}))
        code = cli.main(["train", "--config", str(path), "--data", str(manifest),
                         "--out", str(tmp_path / "m.ckpt")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "bad train config: unknown field" in err and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("spec", [{"frame": 8}, {"seeds": 3}])
    def test_unknown_spec_fields_are_data_errors(self, tmp_path, capsys, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"n_clips": 12, **spec}))
        code = cli.main(["gen-data", "--spec", str(path), "--out", str(tmp_path / "data")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "bad dataset spec: unknown field" in err and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("spec", [
        {"kind": "notch", "center_bin": 5, "width_bins": 1, "flor": 0.5},
        {"kind": "identity", "floor": 0.5}, {"kind": "tilt", "beta1": 0.1, "beta2": 0.0, "eps": 1e-3},
    ])
    def test_unknown_attack_fields_are_data_errors(self, pipeline, tmp_path, capsys, spec):
        from spinshield import clipio
        from spinshield.synthdata import load_clips

        _, manifest, _ = pipeline
        infile = tmp_path / "clip.spsc"
        clipio.write_clip_binary(load_clips(manifest)[0].clip, infile)
        path = tmp_path / "attack.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "attacked.spsc"
        code = cli.main(["attack", "--spec", str(path), "--in", str(infile), "--format", "binary", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "bad attack record: unknown field" in err and len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("config", [{"learning_rate": 1e300}, {"alpha": 1e300}])
    def test_numerical_abort_prints_one_line(self, pipeline, tmp_path, capsys, config):
        # numpy's floating-point warnings would reach stderr before the message
        _, manifest, _ = pipeline
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"epochs": 1, **config}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["train", "--config", str(path), "--data", str(manifest),
                             "--out", str(tmp_path / "m.ckpt")])
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert code == 3
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical abort:"), err

    @pytest.mark.parametrize("doc", [[1, 2], "x"])
    def test_non_object_checkpoint_is_data_error(self, pipeline, tmp_path, capsys, doc):
        _, manifest, _ = pipeline
        checkpoint, out = tmp_path / "m.ckpt", tmp_path / "r.json"
        checkpoint.write_text(json.dumps(doc))
        code = cli.main(["eval", "--checkpoint", str(checkpoint), "--data", str(manifest), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "must be a JSON object" in err and len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("field,value", [
        ("alpha", float("nan")), ("alpha", float("inf")), ("alpha", -1.0), ("alpha", 0.0),
        ("delta", float("nan")), ("delta", float("-inf")), ("delta", 0.0),
    ])
    def test_bad_checkpoint_alpha_or_delta_is_data_error(self, pipeline, tmp_path, capsys, field, value):
        # JSON's NaN and Infinity load as floats; the loader must refuse them
        _, manifest, checkpoint = pipeline
        doc = json.loads(checkpoint.read_text())
        doc[field] = value
        edited, out = tmp_path / "m.ckpt", tmp_path / "features.csv"
        edited.write_text(json.dumps(doc))
        code = cli.main(["features", "--checkpoint", str(edited), "--data", str(manifest),
                         "--out", str(out), "--split", "all"])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "finite and positive" in err and len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen-data", "gen-data --spec", "train", "train --config",
                                         "eval", "sweep", "adaptive", "features"])
    def test_negative_seed_is_data_error(self, pipeline, tmp_path, capsys, command):
        _, manifest, checkpoint = pipeline
        spec, config, out = tmp_path / "spec.json", tmp_path / "config.json", tmp_path / "out"
        spec.write_text(json.dumps({"n_clips": 20, "seed": -5}))
        config.write_text(json.dumps({"epochs": 1, "seed": -5}))
        data = ["--data", str(manifest), "--out", str(out)]
        argv = {
            "gen-data": ["gen-data", "--out", str(out), "--n-clips", "20", "--seed", "-1"],
            "gen-data --spec": ["gen-data", "--out", str(out), "--spec", str(spec)],
            "train": ["train", *data, "--epochs", "1", "--seed", "-3"],
            "train --config": ["train", *data, "--config", str(config)],
        }.get(command, [command, "--checkpoint", str(checkpoint), *data, "--split-seed", "-1"])
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert "seed" in err and len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("n_seeds", ["0", "-2"])
    def test_eval_without_seeds_is_data_error(self, pipeline, tmp_path, capsys, n_seeds):
        _, manifest, checkpoint = pipeline
        out = tmp_path / "r.json"
        code = cli.main(["eval", "--checkpoint", str(checkpoint), "--data", str(manifest),
                         "--out", str(out), "--n-seeds", n_seeds])
        captured = capsys.readouterr()
        assert code == 2
        assert "n_seeds" in captured.err and len(captured.err.strip().splitlines()) == 1
        assert "nan" not in captured.out and not out.exists()

    @pytest.mark.parametrize("label", [1.9, "0", True])
    def test_manifest_labels_must_be_integers(self, pipeline, tmp_path, capsys, label):
        # int() read 1.9, "0" and true as 1, 0 and 1, and the run trained
        _, manifest, _ = pipeline
        doc = json.loads(manifest.read_text())
        doc["clips"][0]["label"] = label
        path = manifest.parent / f"label_{type(label).__name__}.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["train", "--data", str(path), "--out", str(tmp_path / "m.ckpt"), "--epochs", "1"])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "bad manifest entry" in err and "label must be an integer" in err
        assert len(err.strip().splitlines()) == 1 and not (tmp_path / "m.ckpt").exists()

    def test_out_of_range_label_outside_the_split_is_data_error(self, pipeline, tmp_path, capsys):
        # only the split's clips were range-checked, when they were read: eval --split test exited 0
        from spinshield import training

        _, manifest, checkpoint = pipeline
        doc = json.loads(manifest.read_text())
        _, _, test = training.split_indices(len(doc["clips"]), 5)
        outside = next(i for i in range(len(doc["clips"])) if i not in set(test.tolist()))
        doc["clips"][outside]["label"] = 3
        path = manifest.parent / "label_3.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "r.json"
        code = cli.main(["eval", "--checkpoint", str(checkpoint), "--data", str(path), "--out", str(out),
                         "--kinds", "notch", "--n-seeds", "1", "--split", "test", "--split-seed", "5"])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "bad manifest entry" in err and "label must be 0 (real) or 1 (fake)" in err
        assert len(err.strip().splitlines()) == 1 and not out.exists()

    def test_manifest_seed_must_be_the_spec_seed(self, pipeline, tmp_path, capsys):
        # the top-level seed was read by nothing, so a manifest could state two seeds
        _, manifest, checkpoint = pipeline
        doc = json.loads(manifest.read_text())
        assert doc["seed"] == doc["spec"]["seed"] == 5
        doc["seed"] = 99
        path = manifest.parent / "seed_99.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "r.json"
        code = cli.main(["eval", "--checkpoint", str(checkpoint), "--data", str(path), "--out", str(out),
                         "--kinds", "notch", "--n-seeds", "1", "--split", "test", "--split-seed", "5"])
        err = capsys.readouterr().err
        assert code == 2, err
        assert f"{path}: bad manifest: seed 99 differs from the spec's seed 5" in err
        assert len(err.strip().splitlines()) == 1 and not out.exists()

    @pytest.mark.parametrize("index", [0.5, "3"])
    def test_provenance_index_must_be_an_integer(self, pipeline, tmp_path, capsys, index):
        # int() read the index, which became the clip's id in a report
        _, manifest, checkpoint = pipeline
        doc = json.loads(manifest.read_text())
        doc["clips"][1]["provenance"]["index"] = index
        path = manifest.parent / f"index_{type(index).__name__}.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "r.json"
        code = cli.main(["eval", "--checkpoint", str(checkpoint), "--data", str(path), "--out", str(out),
                         "--kinds", "notch", "--n-seeds", "1", "--split", "all"])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "bad manifest entry" in err and "provenance index must be an integer" in err
        assert len(err.strip().splitlines()) == 1 and not out.exists()

    @pytest.mark.parametrize("clips", [5, None])
    def test_manifest_clips_must_be_a_list(self, pipeline, tmp_path, capsys, clips):
        # iterating them raised a TypeError, which escaped as a traceback
        _, manifest, _ = pipeline
        doc = json.loads(manifest.read_text())
        doc["clips"] = clips
        path = manifest.parent / f"clips_{type(clips).__name__}.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["train", "--data", str(path), "--out", str(tmp_path / "m.ckpt"), "--epochs", "1"])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "manifest clips must be a JSON list" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("name, edit", [("hidden", lambda v: v + 0.9), ("input_width", str),
                                            ("n_bins", lambda v: True)])
    def test_checkpoint_dims_must_be_integers(self, pipeline, tmp_path, capsys, name, edit):
        # int() truncated 64.9 and read "256"; the checkpoint loaded
        _, manifest, checkpoint = pipeline
        doc = json.loads(checkpoint.read_text())
        doc["dims"][name] = edit(doc["dims"][name])
        edited, out = tmp_path / "m.ckpt", tmp_path / "features.csv"
        edited.write_text(json.dumps(doc))
        code = cli.main(["features", "--checkpoint", str(edited), "--data", str(manifest), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "incomplete checkpoint" in err and "must be an integer" in err
        assert len(err.strip().splitlines()) == 1 and not out.exists()

    @pytest.mark.parametrize("target, at, key, value, message", [
        ("manifest", (), "versoin", 3, "unknown field 'versoin'"),
        ("manifest", ("clips", 0), "lable", 1, "bad manifest entry"),
        ("checkpoint", (), "aplha", 9.0, "unknown field 'aplha'"),
        ("checkpoint", ("dims",), "hiden", 3, "unknown field 'hiden' in dims"),
        ("checkpoint", ("params",), "enc.w3", {"shape": [1], "data": "AAAAAAAAAAA="}, "unknown field 'enc.w3' in params"),
        ("checkpoint", ("params", "enc.b1"), "dtype", "<f8", "unknown field 'dtype' in enc.b1"),
        ("checkpoint", (), "alpha", "0.6", "alpha must be a number, got '0.6'"),
    ])
    def test_misspelt_or_mistyped_record_field_is_data_error(self, pipeline, tmp_path, capsys, target, at, key, value,
                                                             message):
        # each file loaded: the misspelt key was passed over, and "0.6" read as 0.6
        _, manifest, checkpoint = pipeline
        source = manifest if target == "manifest" else checkpoint
        edited = source.with_name(f"misspelt_{key}.json")
        edited.write_text(json.dumps(_replaced(json.loads(source.read_text()), (*at, key), value)))
        data, model = (edited, checkpoint) if target == "manifest" else (manifest, edited)
        out = tmp_path / "features.csv"
        code = cli.main(["features", "--checkpoint", str(model), "--data", str(data), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2, err
        assert message in err and len(err.strip().splitlines()) == 1 and not out.exists()

    def test_repeated_provenance_index_is_data_error(self, pipeline, tmp_path, capsys):
        # the report named two clips by one id, so replay_report could not reproduce it
        _, manifest, checkpoint = pipeline
        doc = json.loads(manifest.read_text())
        doc["clips"][7]["provenance"]["index"] = 3
        path = manifest.parent / "repeated_index.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "r.json"
        code = cli.main(["eval", "--checkpoint", str(checkpoint), "--data", str(path), "--out", str(out),
                         "--kinds", "notch", "--n-seeds", "1", "--split", "all"])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "provenance index 3 is repeated" in err and len(err.strip().splitlines()) == 1 and not out.exists()

    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_adaptive_limit_below_one_is_data_error(self, pipeline, tmp_path, capsys, limit):
        # -1 attacked all but the last clip, and 0 none, which ended in an AUC error
        _, manifest, checkpoint = pipeline
        out = tmp_path / "a.json"
        code = cli.main(["adaptive", "--checkpoint", str(checkpoint), "--data", str(manifest), "--out", str(out),
                         "--limit", limit])
        err = capsys.readouterr().err
        assert code == 2, err
        assert f"--limit must be at least 1, got {limit}" in err and len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_adaptive_negative_steps_is_data_error(self, pipeline, tmp_path, capsys):
        # no attack ran, and the report said "steps": -3
        _, manifest, checkpoint = pipeline
        out = tmp_path / "a.json"
        code = cli.main(["adaptive", "--checkpoint", str(checkpoint), "--data", str(manifest), "--out", str(out),
                         "--steps", "-3", "--limit", "4"])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "must be non-negative" in err and "and -3" in err and len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("meta", [{"M": 4.7, "T": 8}, {"M": 4, "T": "8"}, {"M": True, "T": 8}])
    def test_sidecar_shape_must_be_integers(self, tmp_path, capsys, meta):
        # int() read {"M": 4.7, "T": "8"} as a 4 x 8 clip
        from spinshield import clipio
        from spinshield.spectral import PatchSignalClip

        infile, spec, out = tmp_path / "clip.csv", tmp_path / "notch.json", tmp_path / "out.csv"
        clipio.write_clip_csv(PatchSignalClip(signals=np.ones((4, 8)) + np.arange(8) / 8), infile)
        clipio.sidecar_path(infile).write_text(json.dumps({**meta, "fps": 30.0}))
        spec.write_text(json.dumps({"kind": "notch", "center_bin": 2, "width_bins": 1}))
        code = cli.main(["attack", "--spec", str(spec), "--in", str(infile), "--format", "csv", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "bad sidecar" in err and "must be an integer" in err
        assert len(err.strip().splitlines()) == 1 and not out.exists()

    @pytest.mark.parametrize("config", [{"learning_rate": True}, {"learning_rate": "0.002"},
                                        {"adam_betas": [0.9, "0.99"]}, {"weights": {"gamma": False}}])
    def test_config_floats_must_be_numbers(self, pipeline, tmp_path, capsys, config):
        # float() read {"learning_rate": true} as 1.0 and "0.002" as 0.002; the run trained
        _, manifest, _ = pipeline
        path, out = tmp_path / "train.json", tmp_path / "m.ckpt"
        path.write_text(json.dumps({"mode": "baseline", "epochs": 1, **config}))
        code = cli.main(["train", "--config", str(path), "--data", str(manifest), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "bad train config" in err and "must be a number" in err
        assert len(err.strip().splitlines()) == 1 and not out.exists()

    @pytest.mark.parametrize("params", [{"floor": "0.5"}, {"floor": False}])
    def test_attack_floats_must_be_numbers(self, tmp_path, capsys, params):
        # float() read a floor of "0.5" as 0.5 and false as 0.0; the clip was notched
        from spinshield import clipio
        from spinshield.spectral import PatchSignalClip

        infile, spec, out = tmp_path / "clip.spsc", tmp_path / "notch.json", tmp_path / "out.spsc"
        clipio.write_clip_binary(PatchSignalClip(signals=np.ones((4, 8)) + np.arange(8) / 8), infile)
        spec.write_text(json.dumps({"kind": "notch", "center_bin": 2, "width_bins": 1, **params}))
        code = cli.main(["attack", "--spec", str(spec), "--in", str(infile), "--format", "binary", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "bad attack record: floor must be a number" in err
        assert len(err.strip().splitlines()) == 1 and not out.exists()

    @pytest.mark.parametrize("meta", [{"M": 4, "T": 8, "fsp": 30.0}, {"M": 4, "T": 8, "fps": "30"}])
    def test_sidecar_keys_and_fps(self, tmp_path, capsys, meta):
        # a misspelt fps was passed over and the clip read at 25 fps; "30" was read as 30.0
        from spinshield import clipio
        from spinshield.spectral import PatchSignalClip

        infile, spec, out = tmp_path / "clip.csv", tmp_path / "notch.json", tmp_path / "out.csv"
        clipio.write_clip_csv(PatchSignalClip(signals=np.ones((4, 8)) + np.arange(8) / 8, fps=30.0), infile)
        clipio.sidecar_path(infile).write_text(json.dumps(meta))
        spec.write_text(json.dumps({"kind": "notch", "center_bin": 2, "width_bins": 1}))
        code = cli.main(["attack", "--spec", str(spec), "--in", str(infile), "--format", "csv", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "bad sidecar" in err and ("unknown field 'fsp'" in err or "fps must be a number" in err)
        assert len(err.strip().splitlines()) == 1 and not out.exists()

    @pytest.mark.parametrize("level_range", [[0.3], [0.3, 0.5, 0.7]])
    def test_base_level_range_must_be_two_values(self, tmp_path, capsys, level_range):
        # one value raised an IndexError that escaped as a traceback; three read the first two
        path, out = tmp_path / "spec.json", tmp_path / "data"
        path.write_text(json.dumps({"n_clips": 12, "base_level_range": level_range}))
        code = cli.main(["gen-data", "--spec", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "base_level_range must be two ordered values" in err and len(err.strip().splitlines()) == 1
        assert not out.exists()


class TestIntegerInputs:
    """Any small integer, negative or zero, in an integer flag ends in exit code
    0-3 with no traceback, and a failure prints one line."""

    @staticmethod
    def _argv(command, ints, manifest, checkpoint, out):
        model = ["--checkpoint", str(checkpoint), "--data", str(manifest), "--out", str(out),
                 "--split-seed", str(ints["split_seed"])]
        return {
            "gen-data": ["gen-data", "--out", str(out), "--n-clips", str(ints["n_clips"]),
                         "--seed", str(ints["seed"])],
            "train": ["train", "--data", str(manifest), "--out", str(out), "--epochs", "1",
                      "--seed", str(ints["seed"])],
            "eval": ["eval", *model, "--kinds", "notch", "--n-seeds", str(ints["n_seeds"])],
            "sweep": ["sweep", *model],
            "adaptive": ["adaptive", *model, "--limit", str(ints["limit"]), "--steps", str(ints["steps"])],
            "features": ["features", *model],
        }[command]

    @settings(max_examples=30, deadline=None)
    @given(
        command=st.sampled_from(["gen-data", "train", "eval", "sweep", "adaptive", "features"]),
        ints=st.fixed_dictionaries({
            name: st.integers(-3, 12 if name == "n_clips" else 4)
            for name in ("seed", "split_seed", "n_seeds", "limit", "steps", "n_clips")
        }),
    )
    def test_exit_code_contract(self, pipeline, command, ints):
        _, manifest, checkpoint = pipeline
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            argv = self._argv(command, ints, manifest, checkpoint, Path(tmp) / "out")
            # an exception escaping main would reach the user as a traceback
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        if code != 0:
            assert len(err.getvalue().strip().splitlines()) == 1, err.getvalue()


class TestSplitLoading:
    """Commands that take a split open only that split's clip files."""

    @staticmethod
    def _split_files(manifest, split):
        from spinshield import training

        entries = json.loads(manifest.read_text())["clips"]
        chosen = dict(zip(("train", "val", "test"), training.split_indices(len(entries), 5)))[split]
        return [manifest.parent / entries[i]["path"] for i in chosen]

    @staticmethod
    def _reads(manifest, paths):
        """The read_clip calls expected for these files: each with the shape
        the version-2 manifest's spec states."""
        spec = json.loads(manifest.read_text())["spec"]
        return [(path, "binary", (spec["patches"], spec["frames"])) for path in paths]

    def test_eval_reads_only_the_split(self, pipeline, monkeypatch, tmp_path):
        from spinshield import clipio

        _, manifest, checkpoint = pipeline
        read = []
        original = clipio.read_clip

        def counting(path, fmt, shape=None):
            read.append((path, fmt, shape))
            return original(path, fmt, shape)

        monkeypatch.setattr(clipio, "read_clip", counting)
        code = cli.main([
            "eval", "--checkpoint", str(checkpoint), "--data", str(manifest), "--out",
            str(tmp_path / "r.json"), "--n-seeds", "1", "--split", "test", "--split-seed", "5",
        ])
        assert code == 0
        assert read == self._reads(manifest, self._split_files(manifest, "test"))

    def test_adaptive_reads_only_its_limit(self, pipeline, monkeypatch, tmp_path):
        from spinshield import clipio

        _, manifest, checkpoint = pipeline
        read = []
        original = clipio.read_clip
        monkeypatch.setattr(clipio, "read_clip",
                            lambda path, fmt, shape=None: read.append((path, fmt, shape)) or original(path, fmt, shape))
        code = cli.main([
            "adaptive", "--checkpoint", str(checkpoint), "--data", str(manifest), "--out",
            str(tmp_path / "a.json"), "--steps", "1", "--limit", "10", "--split", "train", "--split-seed", "5",
        ])
        assert code == 0
        assert read == self._reads(manifest, self._split_files(manifest, "train")[:10])

    @pytest.mark.parametrize("inside", [True, False])
    def test_corrupt_clip_fails_only_inside_the_split(self, pipeline, tmp_path, capsys, inside):
        import shutil

        _, manifest, checkpoint = pipeline
        copy = tmp_path / "data"
        shutil.copytree(manifest.parent, copy)
        test_files = {p.name for p in self._split_files(manifest, "test")}
        target = next(p for p in sorted(copy.glob("clip_*.spsc")) if (p.name in test_files) == inside)
        target.write_bytes(b"SPSC garbage")
        code = cli.main([
            "sweep", "--checkpoint", str(checkpoint), "--data", str(copy / "manifest.json"),
            "--out", str(tmp_path / "s.csv"), "--split", "test", "--split-seed", "5",
        ])
        err = capsys.readouterr().err
        if inside:
            assert code == 2
            assert target.name in err and len(err.strip().splitlines()) == 1
        else:
            assert code == 0 and err == ""



def _paths(doc, path=()):
    """The path of every value below the root of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def _replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    _at(doc, path[:-1])[path[-1]] = value
    return doc


def _wrong_types(value):
    """JSON values that no reader takes in place of ``value``: no integer
    field takes a non-integer, no float field a non-number, no string field a
    non-string and no array or object field a scalar."""
    if type(value) is int:
        return [1.5, "1", True, None, [1]]
    if isinstance(value, float):
        return ["x", None, [1.0], {"v": 1.0}]
    if isinstance(value, str):
        return [5, None, [], {}]
    return [5, "x", None]


class TestFuzzedFiles:
    """A mutated input file ends in exit code 1-3 with one stderr line and no
    traceback.  Every mutation makes the file malformed: a value of a JSON
    type its reader refuses, an unknown field in a record, a document that
    is not an object, a truncated document, or a clip whose lines or bytes
    no longer describe a clip."""

    @pytest.fixture(scope="class")
    def inputs(self, pipeline, tmp_path_factory):
        from spinshield import attacks as atk
        from spinshield import clipio, synthdata, training
        from spinshield.spectral import FrequencyGrid, PatchSignalClip

        _, manifest, checkpoint = pipeline
        root = tmp_path_factory.mktemp("fuzz")
        clip = PatchSignalClip(signals=np.cos(np.arange(32.0)).reshape(4, 8) + 2.0)
        clipio.write_clip_csv(clip, root / "clip.csv")
        clipio.write_clip_binary(clip, root / "clip.spsc")
        (root / "notch.json").write_text(json.dumps({"kind": "notch", "center_bin": 2, "width_bins": 1}))
        records = {
            "config": training.config_to_dict(training.TrainConfig(mode="baseline", epochs=1, seed=5)),
            "spec": synthdata.spec_to_dict(synthdata.DatasetSpec(n_clips=12, seed=3)),
            **{f"attack {kind}": atk.spec_to_dict(atk.sample_attack(kind, FrequencyGrid(8), 7, patches=4))
               for kind in atk.ALL_KINDS + (atk.KIND_IDENTITY,)},
        }
        return {
            "root": root, "manifest": manifest, "checkpoint": checkpoint, "records": set(records),
            "documents": {**records, "manifest": json.loads(manifest.read_text()),
                          "checkpoint": json.loads(checkpoint.read_text()),
                          "sidecar": json.loads(clipio.sidecar_path(root / "clip.csv").read_text())},
            "csv": (root / "clip.csv").read_text(), "spsc": (root / "clip.spsc").read_bytes(),
        }

    @staticmethod
    def _argv(target, path, inputs):
        if target == "config":
            return ["train", "--config", str(path), "--data", str(inputs["manifest"]), "--epochs", "1"]
        if target == "spec":
            return ["gen-data", "--spec", str(path)]
        if target.startswith("attack"):
            return ["attack", "--spec", str(path), "--in", str(inputs["root"] / "clip.spsc"), "--format", "binary"]
        if target in ("csv", "spsc", "sidecar"):
            return ["attack", "--spec", str(inputs["root"] / "notch.json"), "--in", str(path),
                    "--format", "binary" if target == "spsc" else "csv"]
        data = path if target == "manifest" else inputs["manifest"]
        checkpoint = path if target == "checkpoint" else inputs["checkpoint"]
        return ["eval", "--data", str(data), "--checkpoint", str(checkpoint), "--kinds", "notch",
                "--n-seeds", "1", "--split-seed", "5"]

    @staticmethod
    def _mutated_json(data, target, inputs):
        doc = inputs["documents"][target]
        how = data.draw(st.sampled_from(["value", "value", "value", "unknown", "root", "truncate"]), "how")
        paths = list(_paths(doc))
        if target == "manifest":
            # every entry is read alike, so two stand for all; no command reads a clip's flip frame
            paths = [p for p in paths if p[-1] != "t0" and not (p[0] == "clips" and p[1:2] >= (2,))]
        if how == "unknown" and target in inputs["records"] | {"manifest", "checkpoint"}:
            # a manifest entry's provenance is free-form: only its index is read
            objects = [()] + [p for p in paths if isinstance(_at(doc, p), dict) and p[-1] != "provenance"]
            return json.dumps(_replaced(doc, (*data.draw(st.sampled_from(objects), "object"), "misspelt"), 1))
        if how == "root":
            return json.dumps(data.draw(st.sampled_from([[1, 2], "x", 3, None]), "root"))
        if how == "truncate":
            text = json.dumps(doc)
            return text[: data.draw(st.integers(0, len(text) - 1), "length")]
        path = data.draw(st.sampled_from(paths), "path")
        return json.dumps(_replaced(doc, path, data.draw(st.sampled_from(_wrong_types(_at(doc, path))), "value")))

    @staticmethod
    def _mutated_csv(data, text):
        lines = text.split("\n")
        i = data.draw(st.integers(1, len(lines) - 2), "line")
        m, t, _ = lines[i].split(",")
        how = data.draw(st.sampled_from(["drop", "repeat", "value", "index", "header"]), "how")
        if how == "drop":
            del lines[i]
        elif how == "repeat":
            lines.insert(i, lines[i])
        elif how == "value":
            lines[i] = f"{m},{t},{data.draw(st.sampled_from(['nan', 'inf', 'x', '']), 'value')}"
        elif how == "index":
            lines[i] = f"{m},{data.draw(st.sampled_from(['8', '-1', '1.5', 'x']), 'frame')},0.5"
        else:
            lines[0] = data.draw(st.sampled_from(["", "m,t", "t,m,value", "1,2,3"]), "header")
        return "\n".join(lines)

    @staticmethod
    def _mutated_spsc(data, raw):
        how = data.draw(st.sampled_from(["truncate", "append", "magic", "patches", "value"]), "how")
        if how == "truncate":
            return raw[: data.draw(st.integers(0, len(raw) - 1), "length")]
        if how == "append":
            return raw + bytes(data.draw(st.integers(1, 16), "extra"))
        if how == "magic":
            return b"SPSX" + raw[4:]
        if how == "patches":  # another patch count at 8 frames promises another payload size
            patches = data.draw(st.integers(0, 2**32 - 1).filter(lambda m: m != 4), "patches")
            return raw[:4] + patches.to_bytes(4, "little") + raw[8:]
        at = 12 + 8 * data.draw(st.integers(0, 31), "entry")
        return raw[:at] + np.array([np.nan], dtype="<f8").tobytes() + raw[at + 8:]

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_exit_code_contract(self, inputs, data):
        target = data.draw(st.sampled_from(["config", "spec", "attack", "manifest", "checkpoint", "sidecar", "csv",
                                            "spsc"]), "target")
        if target == "attack":
            target = data.draw(st.sampled_from(sorted(t for t in inputs["documents"] if t.startswith("attack"))), "kind")
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            if target == "spsc":
                path = tmp / "clip.spsc"
                path.write_bytes(self._mutated_spsc(data, inputs["spsc"]))
            elif target in ("csv", "sidecar"):
                path = tmp / "clip.csv"
                path.write_text(self._mutated_csv(data, inputs["csv"]) if target == "csv" else inputs["csv"])
                sidecar = inputs["documents"]["sidecar"]
                path.with_name("clip.csv.json").write_text(
                    self._mutated_json(data, target, inputs) if target == "sidecar" else json.dumps(sidecar))
            else:
                # a manifest sits beside its clips, so that nothing but its own fields can fail it
                path = inputs["manifest"].with_name("fuzzed.json") if target == "manifest" else tmp / "record.json"
                path.write_text(self._mutated_json(data, target, inputs))
            argv = [*self._argv(target, path, inputs), "--out", str(tmp / "out")]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        assert code in (1, 2, 3), (target, path.name, err.getvalue())
        assert "Traceback" not in err.getvalue()
        assert len(err.getvalue().strip().splitlines()) == 1, err.getvalue()
