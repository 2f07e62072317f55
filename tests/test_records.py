"""The one record codec: what it writes, what it reads back, and how it
words a malformed record.

The bytes and messages below are those of the hand-written codecs the
shared codec replaced; where a message differs, the test says which mend
changed it.
"""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinshield import attacks as atk
from spinshield import evaluation as ev
from spinshield import objectives as obj
from spinshield import synthdata as sd
from spinshield import training as tr
from spinshield.errors import DataFormatError
from spinshield.spectral import FrequencyGrid

DECODERS = {
    "config": tr.config_from_dict,
    "spec": sd.spec_from_dict,
    "attack": atk.spec_from_dict,
    "report": ev.EvalReport.from_dict,
}

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-9, max_value=1e3)
non_negative = st.floats(min_value=0.0, max_value=1e3)
seeds = st.integers(0, 2**64 - 1)


def _json_round_trip(record: dict) -> dict:
    return json.loads(json.dumps(record))


@st.composite
def train_configs(draw):
    return tr.TrainConfig(
        mode=draw(st.sampled_from(tr.MODES)),
        epochs=draw(st.integers(1, 10**6)),
        batch_size=draw(st.integers(1, 10**6)),
        learning_rate=draw(positive),
        generator_learning_rate=draw(positive),
        adam_betas=draw(st.tuples(*[st.floats(min_value=0.0, max_value=0.999)] * 2)),
        adam_eps=draw(positive),
        detector_steps_per_generator_step=draw(st.integers(1, 100)),
        weights=obj.LossWeights(*draw(st.tuples(*[non_negative] * 4))),
        alpha=draw(positive),
        seed=draw(seeds),
    )


@st.composite
def dataset_specs(draw):
    frames = draw(st.integers(6, 64))
    interior = range(1, frames // 2)
    shortcut = draw(st.sampled_from(interior))
    base_bins = draw(st.lists(st.sampled_from([b for b in interior if b != shortcut]), min_size=1, max_size=4))
    low = draw(finite)
    return sd.DatasetSpec(
        n_clips=draw(st.integers(1, 10**6)),
        frames=frames,
        patches=draw(st.integers(1, 64)),
        shortcut_bin=shortcut,
        shortcut_amplitude=draw(non_negative),
        phase_cue_strength=draw(finite),
        base_amplitudes=tuple(draw(finite) for _ in base_bins),
        base_bins=tuple(base_bins),
        base_level_range=(low, draw(st.floats(min_value=low, allow_infinity=False))),
        noise_std=draw(non_negative),
        seed=draw(seeds),
    )


@st.composite
def attack_specs(draw):
    return atk.sample_attack(
        draw(st.sampled_from(atk.ALL_KINDS + (atk.KIND_IDENTITY,))), FrequencyGrid(draw(st.integers(6, 40))),
        draw(seeds), patches=draw(st.integers(1, 8)), sigma=draw(non_negative),
        tukey_alpha=draw(st.floats(min_value=0.0, max_value=1.0)), notch_floor=draw(st.floats(0.0, 0.99)))


@st.composite
def reports(draw):
    n = draw(st.integers(1, 6))
    return ev.EvalReport(
        config=draw(st.dictionaries(st.text(max_size=4), st.integers() | finite, max_size=3)),
        clip_ids=draw(st.lists(st.integers(0, 10**9), min_size=n, max_size=n)),
        labels=draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
        clean_scores=draw(st.lists(finite, min_size=n, max_size=n)),
        clean_auc=draw(finite),
        attacks=draw(st.dictionaries(st.sampled_from(atk.ALL_KINDS),
                                     st.fixed_dictionaries({"mean": finite, "per_seed": st.just([])}))),
    )


class TestRoundTrip:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(config=train_configs())
    def test_train_config(self, config):
        assert tr.config_from_dict(_json_round_trip(tr.config_to_dict(config))) == config

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(spec=dataset_specs())
    def test_dataset_spec(self, spec):
        assert sd.spec_from_dict(_json_round_trip(sd.spec_to_dict(spec))) == spec

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(spec=attack_specs())
    def test_attack_spec_of_every_kind(self, spec):
        assert atk.spec_from_dict(_json_round_trip(atk.spec_to_dict(spec))) == spec

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(report=reports())
    def test_eval_report(self, report):
        assert ev.EvalReport.from_dict(_json_round_trip(report.to_dict())) == report


class TestWrittenBytes:
    """The writers' bytes, pinned from the hand-written encoders."""

    def test_train_config(self):
        config = tr.TrainConfig(mode="baseline", epochs=3, adam_betas=(0.5, 0.6), seed=9)
        assert json.dumps(tr.config_to_dict(config)) == (
            '{"mode": "baseline", "epochs": 3, "batch_size": 32, "learning_rate": 0.001, '
            '"generator_learning_rate": 0.02, "adam_betas": [0.5, 0.6], "adam_eps": 1e-08, '
            '"detector_steps_per_generator_step": 1, "weights": {"gamma": 1.0, "lambda_mask": 0.1, '
            '"lambda_sym": 0.9, "lambda_blind": 0.7}, "alpha": 0.6, "seed": 9}')

    def test_dataset_spec(self):
        spec = sd.DatasetSpec(n_clips=12, base_bins=(1, 3, 2), seed=4)
        assert json.dumps(sd.spec_to_dict(spec)) == (
            '{"n_clips": 12, "frames": 16, "patches": 16, "shortcut_bin": 5, "shortcut_amplitude": 0.8, '
            '"phase_cue_strength": 1.0, "base_amplitudes": [1.0, 0.6, 0.3], "base_bins": [1, 3, 2], '
            '"base_level_range": [0.3, 0.7], "noise_std": 0.05, "seed": 4}')

    def test_attack_records(self):
        grid, digest = FrequencyGrid(16), hashlib.sha256()
        for kind in atk.ALL_KINDS + (atk.KIND_IDENTITY,):
            for seed in range(50):
                digest.update(json.dumps(atk.spec_to_dict(atk.sample_attack(kind, grid, seed, patches=4))).encode())
        assert digest.hexdigest() == "671e01767b8e08428b18f261ad3445f5d5f45e6e02ab252a77682c010b252b21"

    def test_one_record_of_each_kind(self):
        specs = [atk.AttackSpec("identity", None, 3), atk.AttackSpec("notch", atk.NotchParams(6, 2), 1),
                 atk.AttackSpec("band_mask", atk.BandMaskParams(((2, 4), (7, 1))), 2),
                 atk.AttackSpec("tilt", atk.TiltParams(0.5, -0.25), 0),
                 atk.AttackSpec("snr_noise", atk.NoiseParams(0.5, ((0.1, 0.2), (0.3, 0.4))), 4)]
        assert [json.dumps(atk.spec_to_dict(spec)) for spec in specs] == [
            '{"kind": "identity", "seed": 3}',
            '{"kind": "notch", "seed": 1, "center_bin": 6, "width_bins": 2, "floor": 0.0}',
            '{"kind": "band_mask", "seed": 2, "bands": [[2, 4], [7, 1]], "tukey_alpha": 0.5}',
            '{"kind": "tilt", "seed": 0, "beta1": 0.5, "beta2": -0.25, "eps0": 1e-08}',
            '{"kind": "snr_noise", "seed": 4, "sigma": 0.5, "draws": [[0.1, 0.2], [0.3, 0.4]], "eps0": 1e-08}',
        ]

    def test_eval_report(self):
        report = ev.EvalReport(config={"k": [1]}, clip_ids=[3, 1], labels=[1, 0], clean_scores=[0.5, 0.25],
                               clean_auc=0.5, attacks={"notch": {"x": 1}})
        assert json.dumps(report.to_dict()) == (
            '{"format": "spinshield-evalreport-v1", "config": {"k": [1]}, "clip_ids": [3, 1], "labels": [1, 0], '
            '"clean_scores": [0.5, 0.25], "clean_auc": 0.5, "attacks": {"notch": {"x": 1}}}')


# (decoder, record, message): the hand-written decoders' messages, unchanged
MALFORMED = [
    ("config", '[1, 2]', 'bad train config: the config and its weights must be JSON objects'),
    ("config", '"x"', 'bad train config: the config and its weights must be JSON objects'),
    ("config", 'null', 'bad train config: the config and its weights must be JSON objects'),
    ("config", '{"weights": [0.5]}', 'bad train config: the config and its weights must be JSON objects'),
    ("config", '{"weights": 3}', 'bad train config: the config and its weights must be JSON objects'),
    ("config", '{"weights": null}', 'bad train config: the config and its weights must be JSON objects'),
    ("config", '{"epochs": 1.9}', 'bad train config: epochs must be an integer, got 1.9'),
    ("config", '{"epochs": true}', 'bad train config: epochs must be an integer, got True'),
    ("config", '{"epochs": "1"}', "bad train config: epochs must be an integer, got '1'"),
    ("config", '{"bogus": 1}', "bad train config: unknown field 'bogus'"),
    ("config", '{"bogus": 1, "other": 2}', "bad train config: unknown fields 'bogus', 'other'"),
    ("config", '{"weights": {"bogus": 1}}', "bad train config: unknown field 'bogus' in weights"),
    ("config", '{"weights": {"gamma": "a"}}', "bad train config: could not convert string to float: 'a'"),
    ("config", '{"weights": {"gamma": null}}', "bad train config: float() argument must be a string or a real number, not 'NoneType'"),
    ("config", '{"adam_betas": [0.9]}', 'bad train config: adam_betas must be two values in [0, 1), got [0.9]'),
    ("config", '{"adam_betas": [0.9, 0.99, 0.999]}', 'bad train config: adam_betas must be two values in [0, 1), got [0.9, 0.99, 0.999]'),
    ("config", '{"adam_betas": 3}', "bad train config: 'int' object is not iterable"),
    ("config", '{"adam_betas": "ab"}', "bad train config: could not convert string to float: 'a'"),
    ("config", '{"adam_betas": ["a", "b"]}', "bad train config: could not convert string to float: 'a'"),
    ("config", '{"adam_betas": null}', "bad train config: 'NoneType' object is not iterable"),
    ("config", '{"learning_rate": "x"}', "bad train config: could not convert string to float: 'x'"),
    ("config", '{"learning_rate": null}', "bad train config: float() argument must be a string or a real number, not 'NoneType'"),
    ("config", '{"learning_rate": [1]}', "bad train config: float() argument must be a string or a real number, not 'list'"),
    ("config", '{"mode": 5}', "bad train config: mode must be one of ('baseline', 'spinshield', 'naive_aug'), got 5"),
    ("config", '{"mode": "nope"}', "bad train config: mode must be one of ('baseline', 'spinshield', 'naive_aug'), got 'nope'"),
    ("config", '{"seed": -1}', 'bad train config: seed must lie in [0, 2**64), got -1'),
    ("config", '{"seed": 18446744073709551616}', 'bad train config: seed must lie in [0, 2**64), got 18446744073709551616'),
    ("config", '{"alpha": NaN}', 'bad train config: alpha must be finite and positive, got nan'),
    ("config", '{"epochs": 0}', 'bad train config: epochs and batch_size must be positive'),
    ("spec", '[1]', 'bad dataset spec: must be a JSON object, got list'),
    ("spec", '"x"', 'bad dataset spec: must be a JSON object, got str'),
    ("spec", 'null', 'bad dataset spec: must be a JSON object, got NoneType'),
    ("spec", '{}', "bad dataset spec: 'n_clips'"),
    ("spec", '{"n_clips": true}', 'bad dataset spec: n_clips must be an integer, got True'),
    ("spec", '{"n_clips": 12.0}', 'bad dataset spec: n_clips must be an integer, got 12.0'),
    ("spec", '{"n_clips": 12, "seed": 2.5}', 'bad dataset spec: seed must be an integer, got 2.5'),
    ("spec", '{"n_clips": 12, "frames": "16"}', "bad dataset spec: frames must be an integer, got '16'"),
    ("spec", '{"n_clips": 12, "base_bins": [1, 2.0, 3]}', 'bad dataset spec: base bin must be an integer, got 2.0'),
    ("spec", '{"n_clips": 12, "bogus": 1}', "bad dataset spec: unknown field 'bogus'"),
    ("spec", '{"n_clip": 12}', "bad dataset spec: unknown field 'n_clip'"),
    ("spec", '{"n_clips": 12, "base_bins": 5}', "bad dataset spec: 'int' object is not iterable"),
    ("spec", '{"n_clips": 12, "base_bins": null}', "bad dataset spec: 'NoneType' object is not iterable"),
    ("spec", '{"n_clips": 12, "base_amplitudes": ["a", 1, 2]}', "bad dataset spec: could not convert string to float: 'a'"),
    ("spec", '{"n_clips": 12, "noise_std": "x"}', "bad dataset spec: could not convert string to float: 'x'"),
    ("spec", '{"n_clips": 12, "frames": 2}', 'bad dataset spec: need at least 4 frames'),
    ("spec", '{"n_clips": 0}', 'bad dataset spec: n_clips must be positive'),
    ("spec", '{"n_clips": 12, "base_bins": [1, 2]}', 'bad dataset spec: base_amplitudes and base_bins must align and be non-empty'),
    ("spec", '{"n_clips": 12, "shortcut_bin": 2}', 'bad dataset spec: shortcut bin must be distinct from base component bins'),
    ("attack", '[1]', 'bad attack record: list indices must be integers or slices, not str'),
    ("attack", '"x"', "bad attack record: string indices must be integers, not 'str'"),
    ("attack", 'null', "bad attack record: 'NoneType' object is not subscriptable"),
    ("attack", '5', "bad attack record: 'int' object is not subscriptable"),
    ("attack", '{}', "bad attack record: 'kind'"),
    ("attack", '{"kind": "identity", "x": 1}', "bad attack record: unknown field 'x'"),
    ("attack", '{"kind": ["notch"]}', "unknown attack kind ['notch']"),
    ("attack", '{"kind": {"a": 1}}', "unknown attack kind {'a': 1}"),
    ("attack", '{"kind": 5}', 'unknown attack kind 5'),
    ("attack", '{"kind": "meteor"}', "unknown attack kind 'meteor'"),
    ("attack", '{"kind": "notch"}', "bad attack record: 'center_bin'"),
    ("attack", '{"kind": "notch", "center_bin": 3}', "bad attack record: 'width_bins'"),
    ("attack", '{"kind": "notch", "center_bin": 3.0, "width_bins": 1}', 'bad attack record: center_bin must be an integer, got 3.0'),
    ("attack", '{"kind": "notch", "center_bin": 3, "width_bins": 3}', 'bad attack record: notch width must be one of (1, 2)'),
    ("attack", '{"kind": "notch", "center_bin": 3, "width_bins": 1, "floor": 1.0}', 'bad attack record: notch floor must lie in [0, 1)'),
    ("attack", '{"kind": "notch", "center_bin": 3, "width_bins": 1, "bogus": 1}', "bad attack record: unknown field 'bogus'"),
    ("attack", '{"kind": "notch", "center_bin": 3, "width_bins": 1, "seed": 1.5}', 'bad attack record: seed must be an integer, got 1.5'),
    ("attack", '{"kind": "notch", "center_bin": 3, "width_bins": 1, "seed": true}', 'bad attack record: seed must be an integer, got True'),
    ("attack", '{"kind": "band_mask", "bands": [[1.0, 2]]}', 'bad attack record: band start must be an integer, got 1.0'),
    ("attack", '{"kind": "band_mask", "bands": [[1, "2"]]}', "bad attack record: band width must be an integer, got '2'"),
    ("attack", '{"kind": "band_mask", "bands": [[1, 2, 3]]}', 'bad attack record: too many values to unpack (expected 2)'),
    ("attack", '{"kind": "band_mask", "bands": [[1]]}', 'bad attack record: not enough values to unpack (expected 2, got 1)'),
    ("attack", '{"kind": "band_mask", "bands": [5]}', 'bad attack record: cannot unpack non-iterable int object'),
    ("attack", '{"kind": "band_mask", "bands": 5}', "bad attack record: 'int' object is not iterable"),
    ("attack", '{"kind": "band_mask", "bands": []}', 'bad attack record: band mask needs at least one band'),
    ("attack", '{"kind": "band_mask", "bands": [[3, 2], [1, 1]]}', 'bad attack record: bands must be sorted and non-overlapping'),
    ("attack", '{"kind": "band_mask", "bands": [[1, 0]]}', 'bad attack record: band width must be positive'),
    ("attack", '{"kind": "band_mask", "bands": [[1, 2]], "tukey_alpha": 2}', 'bad attack record: tukey_alpha must lie in [0, 1]'),
    ("attack", '{"kind": "band_mask"}', "bad attack record: 'bands'"),
    ("attack", '{"kind": "band_mask", "bands": ["ab"]}', "bad attack record: band start must be an integer, got 'a'"),
    ("attack", '{"kind": "band_mask", "bands": [{"a": 1, "b": 2}]}', "bad attack record: band start must be an integer, got 'a'"),
    ("attack", '{"kind": "band_mask", "bands": null}', "bad attack record: 'NoneType' object is not iterable"),
    ("attack", '{"kind": "tilt", "beta1": "x", "beta2": 2}', "bad attack record: could not convert string to float: 'x'"),
    ("attack", '{"kind": "tilt", "beta1": 1}', "bad attack record: 'beta2'"),
    ("attack", '{"kind": "tilt", "beta1": 1, "beta2": 2, "eps0": null}', "bad attack record: float() argument must be a string or a real number, not 'NoneType'"),
    ("attack", '{"kind": "snr_noise", "sigma": 0.5, "draws": [[1, 2], [3]]}', 'bad attack record: draws must be a non-empty rectangular patch x bin table'),
    ("attack", '{"kind": "snr_noise", "sigma": 0.5, "draws": []}', 'bad attack record: draws must be a non-empty rectangular patch x bin table'),
    ("attack", '{"kind": "snr_noise", "sigma": 0.5, "draws": [5]}', "bad attack record: 'int' object is not iterable"),
    ("attack", '{"kind": "snr_noise", "sigma": 0.5, "draws": [["a"]]}', "bad attack record: could not convert string to float: 'a'"),
    ("attack", '{"kind": "snr_noise", "sigma": -1, "draws": [[1]]}', 'bad attack record: sigma must be non-negative'),
    ("attack", '{"kind": "snr_noise", "draws": [[1]]}', "bad attack record: 'sigma'"),
    ("attack", '{"kind": "snr_noise", "sigma": 0.5}', "bad attack record: 'draws'"),
    ("attack", '{"kind": "snr_noise", "sigma": 0.5, "draws": 5}', "bad attack record: 'int' object is not iterable"),
    ("attack", '{"kind": "snr_noise", "sigma": 0.5, "draws": [[1]], "x": 1, "y": 2}', "bad attack record: unknown fields 'x', 'y'"),
]

REPORT = {"format": ev.REPORT_FORMAT, "config": {"a": 1}, "clip_ids": [1, 2], "labels": [0, 1],
          "clean_scores": [0.1, 0.9], "clean_auc": 1.0, "attacks": {}}

MALFORMED_REPORTS = [
    ([1], "report must be a JSON object"),
    ({}, "unknown report format None"),
    ({**REPORT, "format": "x"}, "unknown report format 'x'"),
    ({key: value for key, value in REPORT.items() if key != "config"}, "incomplete report: 'config'"),
    ({key: value for key, value in REPORT.items() if key != "clip_ids"}, "incomplete report: 'clip_ids'"),
    ({key: value for key, value in REPORT.items() if key != "attacks"}, "incomplete report: 'attacks'"),
    ({key: value for key, value in REPORT.items() if key != "clean_auc"}, "incomplete report: 'clean_auc'"),
    ({**REPORT, "clean_auc": "x"}, "incomplete report: could not convert string to float: 'x'"),
    ({**REPORT, "clip_ids": 5}, "incomplete report: 'int' object is not iterable"),
    ({**REPORT, "clean_scores": ["a"]}, "incomplete report: could not convert string to float: 'a'"),
]

# (decoder, record, message) that the hand-written decoders accepted, or
# failed on with a traceback
MENDED = [
    # a report's clip ids and labels were read with int(): 1.9 replayed clip 1
    ("report", {**REPORT, "clip_ids": [1.9, 2]}, "incomplete report: clip id must be an integer, got 1.9"),
    ("report", {**REPORT, "clip_ids": ["1", 2]}, "incomplete report: clip id must be an integer, got '1'"),
    ("report", {**REPORT, "labels": [True, 0]}, "incomplete report: label must be an integer, got True"),
    # a report's unknown fields were passed over
    ("report", {**REPORT, "bogus": 1}, "incomplete report: unknown field 'bogus'"),
    # a base_level_range of one value raised IndexError, of three values read its first two
    ("spec", {"n_clips": 12, "base_level_range": [0.3]},
     "bad dataset spec: base_level_range must be two ordered values, got [0.3]"),
    ("spec", {"n_clips": 12, "base_level_range": [0.3, 0.5, 0.7]},
     "bad dataset spec: base_level_range must be two ordered values, got [0.3, 0.5, 0.7]"),
    # float fields were read with float(), which took a bool or a numeric string
    ("config", {"learning_rate": True}, "bad train config: learning_rate must be a number, got True"),
    ("config", {"adam_betas": [0.9, "0.999"]}, "bad train config: adam_betas must be a number, got '0.999'"),
    ("spec", {"n_clips": 12, "noise_std": False}, "bad dataset spec: noise_std must be a number, got False"),
    ("attack", {"kind": "notch", "center_bin": 2, "width_bins": 1, "floor": "0.5"},
     "bad attack record: floor must be a number, got '0.5'"),
    ("report", {**REPORT, "clean_scores": [0.1, True]}, "incomplete report: clean_scores must be a number, got True"),
    # a report's config and attacks were passed on unchecked, and replay_report ended in a traceback
    ("report", {**REPORT, "attacks": [1]}, "incomplete report: config and attacks must be JSON objects"),
    ("report", {**REPORT, "config": [1]}, "incomplete report: config and attacks must be JSON objects"),
    ("report", {**REPORT, "attacks": {"notch": 1}},
     "incomplete report: attacks['notch'] must be a JSON object with a per_seed list"),
    ("report", {**REPORT, "attacks": {"notch": {"mean": 0.5, "per_seed": 3}}},
     "incomplete report: attacks['notch'] must be a JSON object with a per_seed list"),
    # the message of an unordered range names the length check it shares
    ("spec", {"n_clips": 12, "base_level_range": [0.7, 0.3]},
     "bad dataset spec: base_level_range must be two ordered values, got [0.7, 0.3]"),
]


class TestMalformedRecords:
    @pytest.mark.parametrize("decoder, text, message", MALFORMED)
    def test_message_is_unchanged(self, decoder, text, message):
        with pytest.raises(DataFormatError) as info:
            DECODERS[decoder](json.loads(text))
        assert str(info.value) == message

    @pytest.mark.parametrize("record, message", MALFORMED_REPORTS)
    def test_report_message_is_unchanged(self, record, message):
        with pytest.raises(DataFormatError) as info:
            ev.EvalReport.from_dict(record)
        assert str(info.value) == message

    @pytest.mark.parametrize("decoder, record, message", MENDED)
    def test_mended_record_is_a_data_error(self, decoder, record, message):
        with pytest.raises(DataFormatError) as info:
            DECODERS[decoder](record)
        assert str(info.value) == message

    def test_defaults_fill_missing_fields(self):
        assert tr.config_from_dict({}) == tr.TrainConfig()
        assert sd.spec_from_dict({"n_clips": 4000}) == sd.DatasetSpec()
        assert atk.spec_from_dict({"kind": "notch", "center_bin": 3, "width_bins": 1}) == atk.AttackSpec(
            "notch", atk.NotchParams(3, 1, 0.0), 0)
        assert tr.config_from_dict({"weights": {}}).weights == obj.LossWeights()


DELETE = object()

# (what, where, key, new value or DELETE, message): a manifest's and a checkpoint's fields are
# read by the codec too; {path} is the file and {entry} the edited manifest entry
MALFORMED_FILES = [
    ("manifest", (), "version", 3, "unsupported manifest version 3"),
    ("manifest", (), "clips", 5, "{path}: manifest clips must be a JSON list"),
    ("manifest", (), "clips", [], "{path}: manifest lists no clips"),
    ("manifest", (), "versoin", 3, "{path}: bad manifest: unknown field 'versoin'"),
    ("manifest", (), "spec", DELETE, "{path}: bad manifest: 'spec'"),
    ("manifest", (), "spec", [1], "{path}: bad manifest: spec must be a JSON object, got list"),
    ("manifest", ("spec",), "frames", "16", "{path}: bad manifest: frames must be an integer, got '16'"),
    ("manifest", ("spec",), "frame", 16, "{path}: bad manifest: unknown field 'frame' in spec"),
    ("manifest", (), "seed", 1.5, "{path}: bad manifest: seed must be an integer, got 1.5"),
    ("manifest", ("clips", 0), "label", True, "bad manifest entry {entry}: label must be an integer, got True"),
    ("manifest", ("clips", 0), "lable", 1, "bad manifest entry {entry}: unknown field 'lable'"),
    ("manifest", ("clips", 0), "path", DELETE, "bad manifest entry {entry}: 'path'"),
    ("manifest", ("clips", 0), "path", 5,
     "bad manifest entry {entry}: path must be a string and provenance a JSON object"),
    ("manifest", ("clips", 0), "provenance", [1],
     "bad manifest entry {entry}: path must be a string and provenance a JSON object"),
    ("manifest", ("clips", 0, "provenance"), "index", "0",
     "bad manifest entry {entry}: provenance index must be an integer, got '0'"),
    ("checkpoint", (), "format", "x", "{path}: unknown checkpoint format 'x'"),
    ("checkpoint", (), "aplha", 9.0, "{path}: incomplete checkpoint: unknown field 'aplha'"),
    ("checkpoint", (), "alpha", "0.6", "{path}: incomplete checkpoint: alpha must be a number, got '0.6'"),
    ("checkpoint", ("dims",), "hidden", DELETE, "{path}: incomplete checkpoint: 'hidden'"),
    ("checkpoint", ("dims",), "hiden", 3, "{path}: incomplete checkpoint: unknown field 'hiden' in dims"),
    ("checkpoint", ("dims",), "hidden", 7,
     "{path}: dimension mismatch for enc.w1: stored (48, 6), declared (48, 7)"),
    ("checkpoint", ("params",), "enc.b2", DELETE, "{path}: incomplete checkpoint: 'enc.b2'"),
    ("checkpoint", ("params",), "enc.w3", {}, "{path}: incomplete checkpoint: unknown field 'enc.w3' in params"),
    ("checkpoint", (), "params", [1], "{path}: incomplete checkpoint: params must be a JSON object, got list"),
    ("checkpoint", ("params", "enc.b1"), "dtype", "<f8",
     "{path}: incomplete checkpoint: unknown field 'dtype' in enc.b1"),
    ("checkpoint", ("params",), "enc.b1", [1], "{path}: incomplete checkpoint: enc.b1 must be a JSON object, got list"),
]


class TestFileRecords:
    """Manifests and checkpoints are written and read through the codec, with
    the bytes their hand-written codecs wrote."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        from spinshield import models as md

        root = tmp_path_factory.mktemp("files")
        spec = sd.DatasetSpec(n_clips=3, seed=2)
        manifest = sd.save_dataset(sd.generate_dataset(spec), spec, root / "data", clip_format="binary")
        checkpoint = root / "model.ckpt"
        md.save_bundle(md.init_bundle(48, 9, hidden=6, feature_dim=4, gen_hidden=5, domain_hidden=3), checkpoint)
        return {"manifest": manifest, "checkpoint": checkpoint}

    def test_manifest_bytes_pinned(self, files):
        digest = hashlib.sha256(files["manifest"].read_bytes()).hexdigest()
        assert digest == "7108302f0b9c66f40960f7c93635d771a02f5074cd715455cf005c0485529db7"

    @pytest.mark.parametrize("what, where, key, value, message", MALFORMED_FILES)
    def test_message(self, files, what, where, key, value, message):
        from spinshield import models as md

        doc = json.loads(files[what].read_text())
        parent = doc
        for step in where:
            parent = parent[step]
        if value is DELETE:
            del parent[key]
        else:
            parent[key] = value
        path = files[what].with_name("edited.json")
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError) as info:
            sd.load_dataset(path) if what == "manifest" else md.load_bundle(path)
        entry = doc["clips"][0] if what == "manifest" and isinstance(doc["clips"], list) and doc["clips"] else None
        assert str(info.value) == message.format(path=path, entry=repr(entry))
