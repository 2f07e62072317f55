import hashlib
import json

import numpy as np
import pytest

from spinshield import clipio
from spinshield import synthdata as sd
from spinshield.attacks import AttackSpec, BandMaskParams, sample_attack, apply_attack
from spinshield.errors import DataFormatError
from spinshield.evaluation import compute_auc
from spinshield.spectral import DEFAULT_FPS, FrequencyGrid, PatchSignalClip, dft_onesided


def ks_statistic(a, b):
    """Two-sample Kolmogorov-Smirnov statistic (sup distance of empirical CDFs)."""
    a = np.sort(a)
    b = np.sort(b)
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def logistic_probe_auc(feature, labels, steps=400, lr=0.5):
    """1-d logistic regression fit by gradient descent, scored by AUC."""
    x = (feature - feature.mean()) / (feature.std() + 1e-12)
    w, b = 0.0, 0.0
    for _ in range(steps):
        p = 1.0 / (1.0 + np.exp(-(w * x + b)))
        grad_w = np.mean((p - labels) * x)
        grad_b = np.mean(p - labels)
        w -= lr * grad_w
        b -= lr * grad_b
    return compute_auc(w * x + b, labels)


@pytest.fixture(scope="module")
def default_sets():
    spec = sd.DatasetSpec(n_clips=1200, seed=42)
    clips = sd.generate_dataset(spec)
    return spec, clips


class TestGeneration:
    def test_balance_is_exact(self):
        for n in (7, 8, 101):
            clips = sd.generate_dataset(sd.DatasetSpec(n_clips=n, seed=1))
            fakes = sum(lc.y for lc in clips)
            assert fakes == (n + 1) // 2

    def test_deterministic_bitwise(self):
        spec = sd.DatasetSpec(n_clips=12, seed=9)
        a = sd.generate_dataset(spec)
        b = sd.generate_dataset(spec)
        for lc_a, lc_b in zip(a, b):
            np.testing.assert_array_equal(lc_a.clip.signals, lc_b.clip.signals)
            assert lc_a.y == lc_b.y

    def test_shortcut_amplitude_excess(self, default_sets):
        spec, clips = default_sets
        labels = np.array([lc.y for lc in clips])
        amp = np.stack([dft_onesided(lc.clip).amplitude[:, spec.shortcut_bin] for lc in clips])
        mean_amp = amp.mean(axis=1)
        excess = mean_amp[labels == 1].mean() - mean_amp[labels == 0].mean()
        assert excess >= spec.shortcut_amplitude * spec.frames / 4

    def test_cue_free_spec_is_indistinguishable(self):
        spec = sd.DatasetSpec(
            n_clips=800, shortcut_amplitude=0.0, phase_cue_strength=0.0, seed=11
        )
        clips = sd.generate_dataset(spec)
        labels = np.array([lc.y for lc in clips])
        a5 = np.array([dft_onesided(lc.clip).amplitude[:, 5].mean() for lc in clips])
        stat = np.array([sd.phase_cue_statistic(lc.clip) for lc in clips])
        assert abs(compute_auc(a5, labels) - 0.5) <= 0.05
        assert abs(compute_auc(stat, labels) - 0.5) <= 0.05

    def test_masking_removes_excess_but_not_phase_statistic(self, default_sets):
        spec, clips = default_sets
        fakes = [lc for lc in clips if lc.y == 1][:120]
        mask_spec = AttackSpec(
            kind="band_mask",
            params=BandMaskParams(bands=((spec.shortcut_bin, 1),), tukey_alpha=0.0),
        )
        before_amp, after_amp, before_stat, after_stat = [], [], [], []
        reals = [lc for lc in clips if lc.y == 0][:120]
        real_amp = np.mean([
            dft_onesided(lc.clip).amplitude[:, spec.shortcut_bin].mean() for lc in reals
        ])
        for lc in fakes:
            attacked = apply_attack(lc.clip, mask_spec)
            before_amp.append(dft_onesided(lc.clip).amplitude[:, spec.shortcut_bin].mean())
            after_amp.append(dft_onesided(attacked).amplitude[:, spec.shortcut_bin].mean())
            before_stat.append(sd.phase_cue_statistic(lc.clip))
            after_stat.append(sd.phase_cue_statistic(attacked))
        excess_before = np.mean(before_amp) - real_amp
        excess_after = np.mean(after_amp) - real_amp
        assert excess_after <= 0.05 * excess_before
        rel = abs(np.mean(after_stat) - np.mean(before_stat)) / np.mean(before_stat)
        assert rel < 0.05

    def test_probe_separability(self):
        spec = sd.DatasetSpec(n_clips=2000, seed=21)
        clips = sd.generate_dataset(spec)
        labels = np.array([lc.y for lc in clips])
        feature = np.array([
            dft_onesided(lc.clip).amplitude[:, spec.shortcut_bin].mean() for lc in clips
        ])
        assert logistic_probe_auc(feature, labels) >= 0.95

    def test_attack_orthogonality_of_phase_statistic(self, default_sets):
        # the KS estimate at n=600 still carries ~0.02 sampling noise, so the
        # bound is checked on the median over three independent attack draws
        spec, clips = default_sets
        fakes = [lc for lc in clips if lc.y == 1][:600]
        grid = FrequencyGrid(spec.frames)
        clean_stats = np.array([sd.phase_cue_statistic(lc.clip) for lc in fakes])
        for kind in ("notch", "band_mask", "tilt", "snr_noise"):
            draws = []
            for base in (1000, 5000, 9000):
                attacked_stats = []
                for i, lc in enumerate(fakes):
                    aspec = sample_attack(kind, grid, seed=base + i, patches=spec.patches)
                    attacked_stats.append(sd.phase_cue_statistic(apply_attack(lc.clip, aspec)))
                draws.append(ks_statistic(clean_stats, np.array(attacked_stats)))
            ks = float(np.median(draws))
            assert ks < 0.1, f"{kind}: median KS={ks:.3f} over draws {draws}"

    def test_phase_statistic_separates_classes(self, default_sets):
        _, clips = default_sets
        labels = np.array([lc.y for lc in clips[:300]])
        stat = np.array([sd.phase_cue_statistic(lc.clip) for lc in clips[:300]])
        assert compute_auc(stat, labels) > 0.8

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            sd.DatasetSpec(shortcut_bin=1, base_bins=(1, 2, 3))  # collides with base
        with pytest.raises(ValueError):
            sd.DatasetSpec(shortcut_bin=8)  # Nyquist for T=16
        with pytest.raises(ValueError):
            sd.DatasetSpec(n_clips=0)
        with pytest.raises(ValueError):
            sd.DatasetSpec(base_level_range=(0.9, 0.1))


class TestDatasetFiles:
    def test_round_trip_binary_bitwise(self, tmp_path):
        spec = sd.DatasetSpec(n_clips=10, seed=3)
        clips = sd.generate_dataset(spec)
        manifest = sd.save_dataset(clips, spec, tmp_path / "ds", clip_format="binary")
        loaded = sd.load_clips(manifest)
        for a, b in zip(clips, loaded):
            np.testing.assert_array_equal(a.clip.signals, b.clip.signals)
            assert a.y == b.y

    def test_round_trip_csv(self, tmp_path):
        spec = sd.DatasetSpec(n_clips=6, seed=4)
        clips = sd.generate_dataset(spec)
        manifest = sd.save_dataset(clips, spec, tmp_path / "ds", clip_format="csv")
        loaded = sd.load_clips(manifest)
        for a, b in zip(clips, loaded):
            np.testing.assert_array_equal(a.clip.signals, b.clip.signals)

    def test_cross_format_agreement(self, tmp_path):
        spec = sd.DatasetSpec(n_clips=5, seed=5)
        clips = sd.generate_dataset(spec)
        m_csv = sd.save_dataset(clips, spec, tmp_path / "csv", clip_format="csv")
        m_bin = sd.save_dataset(clips, spec, tmp_path / "bin", clip_format="binary")
        for a, b in zip(sd.load_clips(m_csv), sd.load_clips(m_bin)):
            np.testing.assert_allclose(a.clip.signals, b.clip.signals, rtol=1e-15, atol=0)

    def test_spec_round_trip(self):
        spec = sd.DatasetSpec(n_clips=44, seed=17, shortcut_amplitude=0.5)
        assert sd.spec_from_dict(sd.spec_to_dict(spec)) == spec

    def test_load_dataset_returns_spec(self, tmp_path):
        spec = sd.DatasetSpec(n_clips=4, seed=8)
        clips = sd.generate_dataset(spec)
        manifest = sd.save_dataset(clips, spec, tmp_path / "ds")
        loaded_spec, loaded = sd.load_dataset(manifest)
        assert loaded_spec == spec
        assert len(loaded) == 4

    def test_malformed_clip_named_in_error(self, tmp_path):
        spec = sd.DatasetSpec(n_clips=3, seed=2)
        clips = sd.generate_dataset(spec)
        manifest = sd.save_dataset(clips, spec, tmp_path / "ds", clip_format="csv")
        bad = tmp_path / "ds" / "clip_00001.csv"
        content = bad.read_text().splitlines()
        content[2] = "0,1,nan"
        bad.write_text("\n".join(content) + "\n")
        with pytest.raises(DataFormatError, match="clip_00001.csv:3"):
            sd.load_clips(manifest)

    @pytest.mark.parametrize("clip_format", ["csv", "binary"])
    def test_dataset_is_one_file_per_clip(self, tmp_path, clip_format):
        spec = sd.DatasetSpec(n_clips=4, seed=4)
        manifest = sd.save_dataset(sd.generate_dataset(spec), spec, tmp_path / "ds", clip_format=clip_format)
        ext = "csv" if clip_format == "csv" else "spsc"
        assert sorted(p.name for p in manifest.parent.iterdir()) == [
            *(f"clip_{i:05d}.{ext}" for i in range(4)), "manifest.json"]
        assert json.loads(manifest.read_text())["version"] == sd.MANIFEST_VERSION == 2

    @pytest.mark.parametrize("clip_format", ["csv", "binary"])
    def test_version_1_dataset_loads_through_its_sidecars(self, tmp_path, clip_format):
        # built as version 1 wrote it: each CSV clip with a sidecar, which states the fps
        spec = sd.DatasetSpec(n_clips=6, seed=4)
        clips = sd.generate_dataset(spec)
        out, ext = tmp_path / "v1", "csv" if clip_format == "csv" else "spsc"
        out.mkdir()
        entries = []
        for i, lc in enumerate(clips):
            clipio.write_clip(PatchSignalClip(signals=lc.clip.signals, fps=30.0), out / f"c{i}.{ext}", clip_format)
            entries.append({"path": f"c{i}.{ext}", "label": lc.y, "provenance": lc.provenance})
        manifest = out / "manifest.json"
        manifest.write_text(json.dumps({"version": 1, "clip_format": clip_format, "spec": sd.spec_to_dict(spec),
                                        "seed": spec.seed, "clips": entries}))
        loaded_spec, loaded = sd.load_dataset(manifest)
        assert loaded_spec == spec
        for a, b in zip(clips, loaded):
            np.testing.assert_array_equal(a.clip.signals, b.clip.signals)
            assert (a.y, a.provenance) == (b.y, b.provenance)
            # binary clips hold no fps and read at the default, as they always did
            assert b.clip.fps == (30.0 if clip_format == "csv" else DEFAULT_FPS)
        if clip_format == "csv":
            clipio.sidecar_path(out / "c3.csv").unlink()
            with pytest.raises(DataFormatError, match="missing sidecar"):
                sd.load_clips(manifest)

    def test_version_2_reads_no_sidecar(self, tmp_path):
        spec = sd.DatasetSpec(n_clips=4, seed=4)
        clips = sd.generate_dataset(spec)
        manifest = sd.save_dataset(clips, spec, tmp_path / "ds", clip_format="csv")
        # a stale sidecar, as version 1 left it, is not read
        clipio.sidecar_path(tmp_path / "ds" / "clip_00001.csv").write_text('{"M": 2, "T": 2, "fps": 30}')
        for a, b in zip(clips, sd.load_clips(manifest)):
            np.testing.assert_array_equal(a.clip.signals, b.clip.signals)
            assert b.clip.fps == DEFAULT_FPS

    @pytest.mark.parametrize("change", ["shape", "fps"])
    def test_clip_unlike_the_manifest_is_refused(self, tmp_path, change):
        spec = sd.DatasetSpec(n_clips=4, seed=1)
        clips = sd.generate_dataset(spec)
        signals = clips[2].clip.signals
        odd = PatchSignalClip(signals=signals[:, :-1]) if change == "shape" else PatchSignalClip(signals, fps=30.0)
        clips[2] = sd.LabeledClip(clip=odd, y=clips[2].y)
        with pytest.raises(ValueError, match="clip 2 is 16x(15 at 25.0|16 at 30.0) fps; the manifest states 16x16"):
            sd.save_dataset(clips, spec, tmp_path / "ds", clip_format="csv")
        assert not (tmp_path / "ds").exists()

    def test_binary_clip_unlike_the_manifest_is_a_data_error(self, tmp_path):
        spec = sd.DatasetSpec(n_clips=4, seed=1)
        manifest = sd.save_dataset(sd.generate_dataset(spec), spec, tmp_path / "ds", clip_format="binary")
        clipio.write_clip(PatchSignalClip(signals=np.ones((16, 15))), tmp_path / "ds" / "clip_00003.spsc", "binary")
        with pytest.raises(DataFormatError, match="clip_00003.spsc: clip is 16x15, its manifest states 16x16"):
            sd.load_clips(manifest)

    @pytest.mark.parametrize("version", [0, 3, "2", None])
    def test_unknown_manifest_version_is_a_data_error(self, tmp_path, version):
        spec = sd.DatasetSpec(n_clips=2, seed=6)
        manifest = sd.save_dataset(sd.generate_dataset(spec), spec, tmp_path / "ds")
        doc = json.loads(manifest.read_text())
        doc["version"] = version
        manifest.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match="unsupported manifest version"):
            sd.load_clips(manifest)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataFormatError, match="not found"):
            sd.load_clips(tmp_path / "nowhere" / "manifest.json")

    def test_bad_label_rejected(self, tmp_path):
        spec = sd.DatasetSpec(n_clips=2, seed=6)
        clips = sd.generate_dataset(spec)
        manifest = sd.save_dataset(clips, spec, tmp_path / "ds")
        doc = json.loads(manifest.read_text())
        doc["clips"][0]["label"] = 3
        manifest.write_text(json.dumps(doc))
        with pytest.raises((DataFormatError, ValueError)):
            sd.load_clips(manifest)


class TestGoldenDataset:
    """Generation is bit-for-bit stable across commits, not only within one.

    Each digest is the sha256 of a dataset's signal bytes (little-endian
    float64, clip by clip), then the JSON of its labels, then the JSON of its
    provenance.  The specs cover the default clip; a spec that draws no
    permutation; odd T, a non-square patch grid and clipped texture bins; and
    a clip count that is odd and ends in a partial generation chunk.  A
    rewrite of the generator that claims to be bit for bit must leave them
    unchanged.  The digests hold for one numpy build (numpy 2.4.6 on x86-64).
    """

    SPECS = {
        "default": sd.DatasetSpec(seed=0, n_clips=600),
        "no_phase_cue": sd.DatasetSpec(seed=1, n_clips=300, phase_cue_strength=0.0),
        "odd_frames": sd.DatasetSpec(seed=2, n_clips=300, frames=15, patches=6, shortcut_bin=6,
                                     phase_cue_strength=3.0),
        "ragged_chunk": sd.DatasetSpec(seed=3, n_clips=601),
    }
    DIGESTS = {
        "default": "f64f47452b9422904b547c9ac7673e1407a3273dea8363081456d55c78248be1",
        "no_phase_cue": "45d30dc2d1daa416935c8d08c60ccee159fb1191fa316436bc74bc51cefd3717",
        "odd_frames": "a55d1899599feaf5c54647b11759ed89db9c7f1639dc736363270bfea8b9d044",
        "ragged_chunk": "d69adf8ec722fb79c6ef429da2a73088af60d70379f8ea21b22db5c42572cb4c",
    }

    def test_ragged_spec_ends_in_a_partial_chunk(self):
        n = self.SPECS["ragged_chunk"].n_clips
        assert n % 2 == 1 and n % sd._GENERATE_CHUNK != 0 and n > sd._GENERATE_CHUNK

    @pytest.mark.parametrize("name", list(SPECS))
    def test_signals_labels_and_provenance_are_pinned(self, name):
        clips = sd.generate_dataset(self.SPECS[name])
        digest = hashlib.sha256()
        for lc in clips:
            digest.update(np.ascontiguousarray(lc.clip.signals, dtype="<f8").tobytes())
        digest.update(json.dumps([lc.y for lc in clips]).encode())
        digest.update(json.dumps([lc.provenance for lc in clips]).encode())
        assert digest.hexdigest() == self.DIGESTS[name]
        assert all(type(v) is int for lc in clips for v in (lc.y, *lc.provenance.values()))
