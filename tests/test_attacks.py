import json

import numpy as np
import pytest
import scipy.signal
import scipy.stats

from spinshield import attacks
from spinshield.attacks import (
    AttackSpec,
    BandMaskParams,
    NotchParams,
    TiltParams,
    apply_attack,
    build_mask,
    sample_attack,
    spec_from_dict,
    spec_to_dict,
    tukey_window,
)
from spinshield.errors import DataFormatError, read_json
from spinshield.spectral import FrequencyGrid, PatchSignalClip, dft_onesided, forward_stack, inverse_stack

from conftest import random_clip

GRID16 = FrequencyGrid(16)


class TestSampling:
    def test_deterministic(self):
        for kind in attacks.ALL_KINDS:
            a = sample_attack(kind, GRID16, seed=99, patches=4)
            b = sample_attack(kind, GRID16, seed=99, patches=4)
            assert a == b

    def test_notch_ranges(self):
        for seed in range(300):
            spec = sample_attack("notch", GRID16, seed=seed)
            params = spec.params
            assert params.width_bins in (1, 2)
            assert 1 <= params.center_bin <= 7
            lo = params.center_bin - (params.width_bins - 1)
            hi = params.center_bin + (params.width_bins - 1)
            assert lo >= 1 and hi <= 7

    def test_band_count_uniform(self):
        # frequency-count oracle: chi-squared uniformity over B in {1,2,3}
        raw_counts = np.zeros(3)
        for seed in range(10_000):
            rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
            raw_counts[int(rng.choice(attacks.BAND_COUNT_CHOICES)) - 1] += 1
        expected = raw_counts.sum() / 3
        chi2 = float(np.sum((raw_counts - expected) ** 2 / expected))
        assert chi2 < scipy.stats.chi2.ppf(0.99, df=2)

    def test_band_specs_sorted_and_disjoint(self):
        for seed in range(300):
            spec = sample_attack("band_mask", GRID16, seed=seed)
            prev_end = 0
            for start, width in spec.params.bands:
                assert start > prev_end
                assert 1 <= start and start + width - 1 <= 7
                prev_end = start + width - 1

    def test_tilt_coefficient_range(self):
        for seed in range(200):
            params = sample_attack("tilt", GRID16, seed=seed).params
            assert abs(params.beta1) <= 1.5 and abs(params.beta2) <= 1.5

    def test_noise_needs_patch_count(self):
        with pytest.raises(ValueError, match="patch count"):
            sample_attack("snr_noise", GRID16, seed=0)

    def test_noise_draw_table_shape(self):
        spec = sample_attack("snr_noise", GRID16, seed=0, patches=5)
        assert len(spec.params.draws) == 5
        assert all(len(row) == GRID16.n_bins for row in spec.params.draws)

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            sample_attack("notch", FrequencyGrid(3), seed=0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown attack kind"):
            sample_attack("gamma_burst", GRID16, seed=0)


class TestTukeyWindow:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 16])
    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 1.0])
    def test_matches_scipy(self, n, alpha):
        np.testing.assert_allclose(
            tukey_window(n, alpha), scipy.signal.windows.tukey(n, alpha), atol=1e-12
        )


class TestBuildMask:
    def test_identity_is_ones(self):
        mask = build_mask(AttackSpec(kind="identity", params=None), GRID16)
        np.testing.assert_array_equal(mask, 1.0)

    def test_unit_notch_closed_form(self):
        spec = AttackSpec(kind="notch", params=NotchParams(center_bin=4, width_bins=1, floor=0.0))
        mask = build_mask(spec, GRID16)
        assert mask[4] == 0.0
        others = np.delete(mask, 4)
        np.testing.assert_array_equal(others, 1.0)

    def test_wide_notch_raised_cosine(self):
        floor = 0.2
        spec = AttackSpec(kind="notch", params=NotchParams(center_bin=4, width_bins=2, floor=floor))
        mask = build_mask(spec, GRID16)
        # closed-form raised-cosine evaluation
        for k in range(GRID16.n_bins):
            d = abs(k - 4)
            if d < 2:
                expected = floor + (1 - floor) * 0.5 * (1 - np.cos(np.pi * d / 2))
            else:
                expected = 1.0
            assert mask[k] == pytest.approx(expected, abs=1e-12)

    def test_rectangular_band_limit(self):
        spec = AttackSpec(kind="band_mask", params=BandMaskParams(bands=((3, 4),), tukey_alpha=0.0))
        mask = build_mask(spec, GRID16)
        np.testing.assert_array_equal(mask[3:7], 0.0)
        np.testing.assert_array_equal(np.concatenate([mask[:3], mask[7:]]), 1.0)

    def test_dc_never_attenuated(self):
        for seed in range(50):
            for kind in ("notch", "band_mask"):
                mask = build_mask(sample_attack(kind, GRID16, seed=seed), GRID16)
                assert mask[0] == 1.0

    def test_masks_never_amplify(self):
        for seed in range(50):
            for kind in ("notch", "band_mask"):
                mask = build_mask(sample_attack(kind, GRID16, seed=seed), GRID16)
                assert np.all(mask <= 1.0) and np.all(mask >= 0.0)

    def test_tilt_not_mask_shaped(self):
        with pytest.raises(ValueError, match="not mask-shaped"):
            build_mask(AttackSpec(kind="tilt", params=TiltParams(0.1, 0.1)), GRID16)

    def test_out_of_interior_rejected(self):
        spec = AttackSpec(kind="band_mask", params=BandMaskParams(bands=((7, 2),)))
        with pytest.raises(ValueError, match="interior"):
            build_mask(spec, GRID16)


class TestApplyAttack:
    def test_identity_returns_input(self, rng):
        clip = random_clip(rng, patches=4, frames=16)
        out = apply_attack(clip, AttackSpec(kind="identity", params=None))
        np.testing.assert_allclose(out.signals, clip.signals, atol=1e-9)
        assert out.fps == clip.fps

    def test_flat_tilt_is_epsilon_shift(self, rng):
        clip = random_clip(rng, patches=2, frames=16)
        eps0 = 1e-8
        spec = AttackSpec(kind="tilt", params=TiltParams(beta1=0.0, beta2=0.0, eps0=eps0))
        out = apply_attack(clip, spec)
        bound = 2 * eps0 * (16 // 2 + 1) / 16
        assert np.max(np.abs(out.signals - clip.signals)) <= bound

    def test_notch_kills_its_own_band(self):
        t = np.arange(16)
        clip = PatchSignalClip(signals=np.cos(2 * np.pi * 4 * t / 16)[None, :])
        spec = AttackSpec(kind="notch", params=NotchParams(center_bin=4, width_bins=1, floor=0.0))
        out = apply_attack(clip, spec)
        assert np.max(np.abs(out.signals)) < 1e-6

    def test_phase_preservation_all_kinds(self, rng):
        clip = random_clip(rng, patches=4, frames=16)
        before = dft_onesided(clip)
        for kind in attacks.ALL_KINDS:
            spec = sample_attack(kind, GRID16, seed=5, patches=clip.patch_count)
            after = dft_onesided(apply_attack(clip, spec))
            live = (before.amplitude > 1e-8) & (after.amplitude > 1e-8)
            diff = np.angle(np.exp(1j * (after.phase - before.phase)))
            assert np.max(np.abs(diff[live])) < 1e-6

    def test_tilt_and_noise_keep_amplitude_positive(self, rng):
        clip = random_clip(rng, patches=3, frames=16)
        for kind in ("tilt", "snr_noise"):
            spec = sample_attack(kind, GRID16, seed=3, patches=clip.patch_count)
            after = dft_onesided(apply_attack(clip, spec))
            assert np.all(after.amplitude > 0.0)

    def test_masking_never_increases_amplitude(self, rng):
        clip = random_clip(rng, patches=3, frames=16)
        before = dft_onesided(clip)
        for kind in ("notch", "band_mask"):
            spec = sample_attack(kind, GRID16, seed=11)
            after = dft_onesided(apply_attack(clip, spec))
            assert np.all(after.amplitude <= before.amplitude + 1e-12)

    def test_masking_preserves_clip_mean(self, rng):
        clip = random_clip(rng, patches=3, frames=16)
        for kind in ("notch", "band_mask"):
            spec = sample_attack(kind, GRID16, seed=2)
            out = apply_attack(clip, spec)
            np.testing.assert_allclose(
                out.signals.mean(axis=1), clip.signals.mean(axis=1), atol=1e-9
            )

    def test_replayable_bitwise(self, rng):
        clip = random_clip(rng, patches=4, frames=16)
        for kind in attacks.ALL_KINDS:
            spec = sample_attack(kind, GRID16, seed=8, patches=clip.patch_count)
            a = apply_attack(clip, spec)
            b = apply_attack(clip, spec)
            np.testing.assert_array_equal(a.signals, b.signals)

    def test_noise_draws_must_fit_clip(self, rng):
        clip = random_clip(rng, patches=3, frames=16)
        spec = sample_attack("snr_noise", GRID16, seed=1, patches=5)
        with pytest.raises(ValueError, match="draws"):
            apply_attack(clip, spec)


class TestStackPath:
    @pytest.mark.parametrize("kind", attacks.ALL_KINDS + ("identity",))
    def test_stack_equals_per_clip_bitwise(self, rng, kind):
        clips = [random_clip(rng, patches=4, frames=16) for _ in range(7)]
        specs = [sample_attack(kind, GRID16, seed=i, patches=4) for i in range(len(clips))]
        amplitude, phase = forward_stack(np.stack([c.signals for c in clips]))
        stacked = attacks.attack_spectra(amplitude, phase, specs, GRID16)
        for clip, spec, row in zip(clips, specs, stacked):
            assert np.array_equal(apply_attack(clip, spec).signals, row)

    def test_shared_spec_edits_a_whole_stack(self, rng):
        clips = [random_clip(rng, patches=3, frames=16) for _ in range(5)]
        spec = sample_attack("band_mask", GRID16, seed=4)
        amplitude, phase = forward_stack(np.stack([c.signals for c in clips]))
        stacked = inverse_stack(attacks.edit_amplitude(amplitude, spec, GRID16), phase, 16)
        for clip, row in zip(clips, stacked):
            assert np.array_equal(apply_attack(clip, spec).signals, row)

    def test_non_finite_edit_rejected(self, rng):
        clip = random_clip(rng, patches=2, frames=16)
        spec = AttackSpec(kind="tilt", params=TiltParams(beta1=1e6, beta2=0.0))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
            apply_attack(clip, spec)


class TestSerialization:
    def test_json_round_trip_every_kind(self, rng):
        # the decoder reads every field the encoder writes, and no other
        for kind in attacks.ALL_KINDS + ("identity",):
            spec = sample_attack(kind, GRID16, seed=21, patches=3)
            back = spec_from_dict(json.loads(json.dumps(spec_to_dict(spec))))
            assert back == spec

    def test_replay_from_record_alone(self, rng):
        clip = random_clip(rng, patches=3, frames=16)
        spec = sample_attack("snr_noise", GRID16, seed=77, patches=3)
        replayed = spec_from_dict(spec_to_dict(spec))
        np.testing.assert_array_equal(
            apply_attack(clip, spec).signals, apply_attack(clip, replayed).signals
        )

    def test_bad_kind_rejected(self):
        with pytest.raises(DataFormatError):
            spec_from_dict({"kind": "nonsense"})

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "attack.json"
        path.write_text("{not json")
        with pytest.raises(DataFormatError):
            spec_from_dict(read_json(path, "attack spec"))

    def test_missing_field_rejected(self):
        with pytest.raises(DataFormatError):
            spec_from_dict({"kind": "tilt", "beta1": 0.2})

    @pytest.mark.parametrize("extra", [{"flor": 0.5}, {"center": 3}, {"sigma": 0.2}])
    def test_unknown_field_rejected(self, extra):
        record = spec_to_dict(sample_attack("notch", GRID16, seed=3))
        with pytest.raises(DataFormatError, match=f"^bad attack record: unknown field {next(iter(extra))!r}$"):
            spec_from_dict({**record, **extra})
