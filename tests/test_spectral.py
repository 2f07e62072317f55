import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinshield.spectral import (
    FrequencyGrid,
    OneSidedSpectrum,
    PatchGridSpec,
    PatchSignalClip,
    Roi,
    dft_onesided,
    extract_patch_signals,
    forward_stack,
    idft_real,
    inverse_stack,
    keyed_rng,
    luminance,
    minmax_normalize,
    minmax_normalize_amplitude,
    recompose,
    synthesis_basis,
    synthesize_rows,
)
from spinshield.models import recompose_adjoint

from conftest import random_clip


def dft_direct(signals):
    """O(T^2) direct-summation one-sided DFT, the independent oracle."""
    m, t = signals.shape
    k_max = t // 2
    out = np.zeros((m, k_max + 1), dtype=complex)
    for i in range(m):
        for k in range(k_max + 1):
            for n in range(t):
                out[i, k] += signals[i, n] * np.exp(-2j * np.pi * k * n / t)
    return out


def idft_direct(full_spectrum):
    """Direct full-complex inverse with 1/T normalization."""
    m, t = full_spectrum.shape
    out = np.zeros((m, t), dtype=complex)
    for i in range(m):
        for n in range(t):
            for k in range(t):
                out[i, n] += full_spectrum[i, k] * np.exp(2j * np.pi * k * n / t)
    return out / t


def mirror(one_sided, t):
    stop = one_sided.shape[1] - 1 if t % 2 == 0 else one_sided.shape[1]
    return np.concatenate([one_sided, np.conj(one_sided[:, 1:stop][:, ::-1])], axis=1)


class TestFrequencyGrid:
    def test_bin_layout(self):
        grid = FrequencyGrid(16)
        assert grid.n_bins == 9
        assert grid.bins[0] == 0.0
        assert grid.bins[-1] == 8 / 16
        assert np.all(np.diff(grid.bins) > 0)

    def test_odd_window(self):
        grid = FrequencyGrid(17)
        assert grid.n_bins == 9
        assert not grid.has_nyquist
        assert grid.bins[-1] == 8 / 17

    def test_too_short(self):
        with pytest.raises(ValueError):
            FrequencyGrid(1)


class TestDftOnesided:
    def test_constant_signal_concentrates_at_dc(self):
        spec = dft_onesided(PatchSignalClip(signals=np.ones((1, 4))))
        np.testing.assert_array_equal(spec.amplitude, [[4.0, 0.0, 0.0]])
        np.testing.assert_array_equal(spec.phase, [[0.0, 0.0, 0.0]])

    def test_unit_cosine_gives_magnitude_two(self):
        spec = dft_onesided(PatchSignalClip(signals=np.array([[1.0, 0.0, -1.0, 0.0]])))
        np.testing.assert_allclose(spec.amplitude, [[0.0, 2.0, 0.0]], atol=1e-15)
        assert spec.phase[0, 1] == 0.0

    def test_matches_direct_summation_oracle(self, rng):
        clip = random_clip(rng, patches=3, frames=16)
        spec = dft_onesided(clip)
        oracle = dft_direct(clip.signals)
        np.testing.assert_allclose(spec.amplitude, np.abs(oracle), rtol=1e-10, atol=1e-10)
        live = np.abs(oracle) > 1e-9
        got = (spec.amplitude * np.exp(1j * spec.phase))[live]
        np.testing.assert_allclose(got, oracle[live], rtol=1e-10, atol=1e-10)

    def test_zero_amplitude_bins_report_phase_zero(self):
        spec = dft_onesided(PatchSignalClip(signals=np.zeros((2, 8)) + 0.0))
        assert np.all(spec.phase == 0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PatchSignalClip(signals=np.array([[1.0, np.nan, 0.0, 0.0]]))

    def test_linearity(self, rng):
        x = rng.normal(size=(2, 16))
        y = rng.normal(size=(2, 16))
        a, b = 1.7, -0.4
        sx = dft_onesided(PatchSignalClip(signals=x))
        sy = dft_onesided(PatchSignalClip(signals=y))
        sz = dft_onesided(PatchSignalClip(signals=a * x + b * y))
        zx = sx.amplitude * np.exp(1j * sx.phase)
        zy = sy.amplitude * np.exp(1j * sy.phase)
        zz = sz.amplitude * np.exp(1j * sz.phase)
        np.testing.assert_allclose(zz, a * zx + b * zy, atol=1e-9)

    def test_parseval(self, rng):
        clip = random_clip(rng, patches=4, frames=16)
        spec = dft_onesided(clip)
        full = mirror(spec.amplitude * np.exp(1j * spec.phase), 16)
        time_energy = np.sum(clip.signals**2, axis=1)
        freq_energy = np.sum(np.abs(full) ** 2, axis=1) / 16
        np.testing.assert_allclose(time_energy, freq_energy, rtol=1e-8)


class TestIdftReal:
    @pytest.mark.parametrize("frames", [8, 16, 17])
    def test_round_trip(self, rng, frames):
        for _ in range(100):
            clip = random_clip(rng, patches=2, frames=frames)
            back = idft_real(dft_onesided(clip))
            np.testing.assert_allclose(back.signals, clip.signals, atol=1e-9)

    def test_dc_only_spectrum(self):
        spec = OneSidedSpectrum(
            amplitude=np.array([[4.0, 0.0, 0.0]]),
            phase=np.zeros((1, 3)),
            grid=FrequencyGrid(4),
        )
        np.testing.assert_allclose(idft_real(spec).signals, np.ones((1, 4)), atol=1e-12)

    def test_amplitude_scaling_matches_full_complex_oracle(self, rng):
        clip = random_clip(rng, patches=3, frames=16)
        spec = dft_onesided(clip)
        scaled = OneSidedSpectrum(
            amplitude=2.0 * spec.amplitude, phase=spec.phase, grid=spec.grid
        )
        got = idft_real(scaled)
        oracle = idft_direct(mirror(2.0 * spec.amplitude * np.exp(1j * spec.phase), 16))
        assert np.max(np.abs(oracle.imag)) < 1e-12
        np.testing.assert_allclose(got.signals, oracle.real, atol=1e-9)

    def test_rejects_unreal_dc_phase(self):
        with pytest.raises(ValueError, match="DC"):
            OneSidedSpectrum(
                amplitude=np.ones((1, 3)),
                phase=np.array([[0.5, 0.0, 0.0]]),
                grid=FrequencyGrid(4),
            )

    def test_rejects_unreal_nyquist_phase(self):
        with pytest.raises(ValueError, match="Nyquist"):
            OneSidedSpectrum(
                amplitude=np.ones((1, 3)),
                phase=np.array([[0.0, 0.0, 1.0]]),
                grid=FrequencyGrid(4),
            )


class TestRecompose:
    def test_identity(self, rng):
        clip = random_clip(rng, patches=3, frames=16)
        spec = dft_onesided(clip)
        out = recompose(spec.amplitude, spec.phase, spec.grid, fps=clip.fps)
        np.testing.assert_allclose(out.signals, clip.signals, atol=1e-9)
        assert out.fps == clip.fps

    def test_zero_amplitude_gives_zero_clip(self, rng):
        clip = random_clip(rng)
        spec = dft_onesided(clip)
        out = recompose(np.zeros_like(spec.amplitude), spec.phase, spec.grid)
        np.testing.assert_array_equal(out.signals, 0.0)

    def test_single_bin_edit_matches_full_complex_oracle(self, rng):
        clip = random_clip(rng, patches=3, frames=16)
        spec = dft_onesided(clip)
        amp = spec.amplitude.copy()
        amp[:, 4] *= 0.5
        got = recompose(amp, spec.phase, spec.grid)
        oracle = idft_direct(mirror(amp * np.exp(1j * spec.phase), 16))
        np.testing.assert_allclose(got.signals, oracle.real, atol=1e-9)

    def test_rejects_negative_amplitude(self, rng):
        spec = dft_onesided(random_clip(rng))
        amp = spec.amplitude.copy()
        amp[0, 1] = -1.0
        with pytest.raises(ValueError, match="negative amplitude"):
            recompose(amp, spec.phase, spec.grid)

    def test_phase_preserved_through_amplitude_edit(self, rng):
        clip = random_clip(rng, patches=4, frames=16)
        spec = dft_onesided(clip)
        factor = rng.uniform(0.5, 2.0, size=spec.amplitude.shape)
        out = dft_onesided(recompose(spec.amplitude * factor, spec.phase, spec.grid))
        both_live = (spec.amplitude > 1e-8) & (out.amplitude > 1e-8)
        diff = np.angle(np.exp(1j * (out.phase - spec.phase)))
        assert np.max(np.abs(diff[both_live])) < 1e-6


class TestMinmaxNormalize:
    def test_affine_map(self):
        spec = OneSidedSpectrum(
            amplitude=np.array([[0.0, 2.0, 4.0]]),
            phase=np.zeros((1, 3)),
            grid=FrequencyGrid(4),
        )
        np.testing.assert_array_equal(minmax_normalize_amplitude(spec), [[0.0, 0.5, 1.0]])

    def test_constant_amplitude_gives_zeros(self):
        spec = OneSidedSpectrum(
            amplitude=np.full((2, 3), 3.5), phase=np.zeros((2, 3)), grid=FrequencyGrid(4)
        )
        np.testing.assert_array_equal(minmax_normalize_amplitude(spec), 0.0)

    def test_range_and_order_preserved(self, rng):
        spec = dft_onesided(random_clip(rng, patches=4, frames=16))
        norm = minmax_normalize_amplitude(spec)
        assert norm.min() == 0.0 and norm.max() == 1.0
        flat_a, flat_n = spec.amplitude.ravel(), norm.ravel()
        assert np.array_equal(np.argsort(flat_a, kind="stable"), np.argsort(flat_n, kind="stable"))


class TestStackKernels:
    @pytest.mark.parametrize("frames", [8, 16, 17])
    def test_forward_stack_equals_per_clip_dft(self, rng, frames):
        clips = [random_clip(rng, patches=3, frames=frames) for _ in range(9)]
        # exact zeros and a constant patch exercise the canonical phase
        clips.append(PatchSignalClip(signals=np.vstack([np.zeros(frames), np.full(frames, -2.0), np.ones(frames)])))
        amplitude, phase = forward_stack(np.stack([c.signals for c in clips]))
        for clip, amp, ph in zip(clips, amplitude, phase):
            spec = dft_onesided(clip)
            assert np.array_equal(spec.amplitude, amp) and np.array_equal(spec.phase, ph)

    @pytest.mark.parametrize("frames", [8, 16, 17])
    def test_inverse_stack_equals_per_clip_inverse(self, rng, frames):
        clips = [random_clip(rng, patches=3, frames=frames) for _ in range(9)]
        amplitude, phase = forward_stack(np.stack([c.signals for c in clips]))
        scaled = amplitude * rng.uniform(0.0, 2.0, size=amplitude.shape)
        stacked = inverse_stack(scaled, phase, frames)
        assert stacked.flags.c_contiguous
        for amp, ph, row in zip(scaled, phase, stacked):
            grid = FrequencyGrid(frames)
            assert np.array_equal(recompose(amp, ph, grid).signals, row)
            assert np.array_equal(idft_real(OneSidedSpectrum(amp, ph, grid)).signals, row)

    def test_inverse_stack_canonicalizes_phase(self):
        amplitude = np.array([[[1.0, 0.0, 2.0, 0.5, 0.0]]])
        phase = np.array([[[0.0, 1.0, -np.pi, 0.3, 0.0]]])
        canonical = np.array([[[0.0, 0.0, np.pi, 0.3, 0.0]]])
        assert np.array_equal(inverse_stack(amplitude, phase, 8), inverse_stack(amplitude, canonical, 8))

    def test_minmax_stack_equals_per_clip(self, rng):
        clips = [random_clip(rng, patches=4, frames=16) for _ in range(6)]
        clips.append(PatchSignalClip(signals=np.full((4, 16), 0.7)))
        amplitude, _ = forward_stack(np.stack([c.signals for c in clips]))
        for clip, norm in zip(clips, minmax_normalize(amplitude)):
            assert np.array_equal(minmax_normalize_amplitude(dft_onesided(clip)), norm)


def _rows(rng, frames, dtype, rows=12):
    """Amplitude rows and unit phasors of one-sided spectra at ``dtype``'s precision."""
    k = frames // 2 + 1
    amp = rng.uniform(0.0, 2.0, size=(rows, k)).astype(dtype)
    phasor = np.exp(1j * rng.uniform(-np.pi, np.pi, size=(rows, k))).astype(np.result_type(dtype, np.complex64))
    return amp, phasor


class TestSynthesisBasis:
    """The matmul inverse of the differentiated paths and its adjoint,
    ``models.recompose_adjoint``, against ``np.fft.irfft``."""

    FRAMES = [4, 8, 15, 16, 17]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("frames", FRAMES)
    def test_matches_irfft(self, rng, frames, dtype):
        amp, phasor = _rows(rng, frames, dtype)
        basis = synthesis_basis(frames, phasor.dtype)
        assert basis.shape == (2 * (frames // 2 + 1), frames) and basis.dtype == dtype
        assert not basis.flags.writeable
        got = synthesize_rows(amp, phasor, frames)
        # the reference is the float64 irfft of the same (rounded) inputs
        want = np.fft.irfft(amp.astype(np.float64) * phasor.astype(np.complex128), n=frames, axis=-1)
        assert got.dtype == dtype and got.shape == want.shape
        gap = float(np.max(np.abs(got - want)))
        if dtype is np.float64:
            assert gap <= 1e-12
        else:
            assert gap <= 1e-6 * float(np.max(np.abs(want)))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("frames", FRAMES)
    def test_adjoint_is_the_transpose(self, rng, frames, dtype):
        # <L a, g> = <a, L^T g> for the amplitude-to-signal map L at fixed phasors
        amp, phasor = _rows(rng, frames, dtype)
        g = rng.normal(size=(len(amp), frames)).astype(dtype)
        adjoint = recompose_adjoint(g, phasor, frames)
        assert adjoint.dtype == dtype and adjoint.shape == amp.shape
        lhs = float(np.sum(synthesize_rows(amp, phasor, frames).astype(np.float64) * g))
        rhs = float(np.sum(amp.astype(np.float64) * adjoint))
        assert lhs == pytest.approx(rhs, rel=1e-12 if dtype is np.float64 else 1e-5)

    @pytest.mark.parametrize("frames", FRAMES)
    def test_drops_the_imaginary_parts_of_real_bins(self, rng, frames):
        # phasors at DC (and Nyquist for even T) that are not real: irfft reads their real parts only
        amp, phasor = _rows(rng, frames, np.float64)
        real_bins = [0, -1] if frames % 2 == 0 else [0]
        real = phasor.copy()
        real[:, real_bins] = phasor[:, real_bins].real
        got = synthesize_rows(amp, phasor, frames)
        assert np.array_equal(got, synthesize_rows(amp, real, frames))
        np.testing.assert_allclose(got, np.fft.irfft(amp * phasor, n=frames, axis=-1), rtol=0, atol=1e-12)


class TestExtractPatchSignals:
    def test_constant_field(self):
        frames = np.ones((4, 8, 8))
        grid = PatchGridSpec(rows=2, cols=2, roi=Roi(0, 0, 8, 8))
        clip = extract_patch_signals(frames, grid)
        np.testing.assert_array_equal(clip.signals, 1.0)

    def test_spatially_uniform_ramp(self):
        t_len = 5
        frames = np.stack([np.full((6, 6), t / t_len) for t in range(t_len)])
        grid = PatchGridSpec(rows=2, cols=2, roi=Roi(0, 0, 6, 6))
        clip = extract_patch_signals(frames, grid)
        expected = np.arange(t_len) / t_len
        for m in range(4):
            np.testing.assert_allclose(clip.signals[m], expected)

    def test_matches_pixel_loop_oracle(self, rng):
        frames = rng.random(size=(16, 32, 32))
        grid = PatchGridSpec(rows=4, cols=4, roi=Roi(0, 0, 32, 32))
        clip = extract_patch_signals(frames, grid)
        # brute-force per-patch double loop with remainder-to-last-patch tiling
        edges = [0, 8, 16, 24, 32]
        for r in range(4):
            for c in range(4):
                total = np.zeros(16)
                count = 0
                for y in range(edges[r], edges[r + 1]):
                    for x in range(edges[c], edges[c + 1]):
                        total += frames[:, y, x]
                        count += 1
                np.testing.assert_allclose(clip.signals[r * 4 + c], total / count, atol=1e-12)

    def test_remainder_goes_to_last_patch(self):
        frames = np.zeros((2, 5, 5))
        frames[:, 4, :] = 1.0  # only the last pixel row is lit
        grid = PatchGridSpec(rows=2, cols=1, roi=Roi(0, 0, 5, 5))
        clip = extract_patch_signals(frames, grid)
        assert np.all(clip.signals[0] == 0.0)  # rows 0..1
        np.testing.assert_allclose(clip.signals[1], 1.0 / 3.0)  # rows 2..4

    def test_rgb_luminance(self):
        frames = np.zeros((2, 4, 4, 3))
        frames[..., 0] = 1.0
        grid = PatchGridSpec(rows=1, cols=1, roi=Roi(0, 0, 4, 4))
        clip = extract_patch_signals(frames, grid)
        np.testing.assert_allclose(clip.signals, 0.299)

    def test_roi_out_of_bounds(self):
        with pytest.raises(ValueError, match="roi"):
            extract_patch_signals(np.ones((3, 4, 4)), PatchGridSpec(1, 1, Roi(0, 0, 8, 8)))

    def test_roi_smaller_than_grid(self):
        with pytest.raises(ValueError, match="empty"):
            extract_patch_signals(np.ones((3, 8, 8)), PatchGridSpec(4, 4, Roi(0, 0, 2, 2)))

    def test_luminance_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            luminance(np.ones((3, 4, 4, 2)))


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=2, max_value=24),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**31),
)
def test_round_trip_property(frames, patches, seed):
    rng = np.random.default_rng(seed)
    clip = PatchSignalClip(signals=rng.normal(size=(patches, frames)))
    back = idft_real(dft_onesided(clip))
    np.testing.assert_allclose(back.signals, clip.signals, atol=1e-9)


class TestKeyedRng:
    """``keyed_rng`` gives ``Philox(key=...)``'s stream without drawing OS entropy."""

    @pytest.mark.parametrize("seed,stream", [(0, 0), (7, 3), (2**64 - 1, 2**64 - 1), (123456789, 0)])
    def test_equals_the_keyed_philox(self, seed, stream):
        ours = keyed_rng(seed, stream)
        ref = np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))
        state, ref_state = ours.bit_generator.state, ref.bit_generator.state
        for key in ("counter", "key"):
            np.testing.assert_array_equal(state["state"][key], ref_state["state"][key])
        # every kind of draw the package makes, interleaved
        draws = [[rng.random(5), rng.integers(0, 1000, 3), rng.normal(0.0, 2.0, 4), rng.permutation(9),
                  rng.uniform(-1.0, 1.0, 2), rng.integers(3, 9)] for rng in (ours, ref)]
        for a, b in zip(*draws):
            np.testing.assert_array_equal(a, b)

    def test_one_word_key_is_stream_0(self):
        ref = np.random.Generator(np.random.Philox(key=np.uint64(41)))
        np.testing.assert_array_equal(keyed_rng(41, 0).random(8), ref.random(8))

    def test_package_draws_no_os_entropy(self, monkeypatch):
        import numpy.random.bit_generator as bit_generator

        from spinshield import attacks, models, synthdata, training

        calls = []
        original = bit_generator.randbits
        monkeypatch.setattr(bit_generator, "randbits", lambda n: calls.append(n) or original(n))
        np.random.Philox(key=5)
        assert calls == [128]  # the probe sees Philox(key=...)'s entropy draw
        calls.clear()
        clips = synthdata.generate_dataset(synthdata.DatasetSpec(n_clips=20, seed=3))
        training.split_indices(20, 1)
        for kind in attacks.ALL_KINDS:
            attacks.sample_attack(kind, FrequencyGrid(16), 9, patches=4)
        models.init_bundle(16, 9, seed=2)
        training.train(training.TrainConfig(epochs=1, mode="naive_aug"), clips)
        assert calls == []
