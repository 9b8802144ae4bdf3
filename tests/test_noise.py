import numpy as np
import pytest

from srlab.noise import NoiseSpec, generate_noise, noise_stream


class TestNoiseSpec:
    def test_zero_sigma_allowed(self):
        spec = NoiseSpec(sigma=0.0, noise_rate=1000.0)
        tr = generate_noise(spec, 1000.0, 0.1)
        assert np.all(tr.samples == 0.0)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            NoiseSpec(sigma=-0.1, noise_rate=1000.0)
        with pytest.raises(ValueError):
            NoiseSpec(sigma=float("nan"), noise_rate=1000.0)
        with pytest.raises(ValueError):
            NoiseSpec(sigma=float("inf"), noise_rate=1000.0)

    def test_rejects_bad_rate_and_clip(self):
        with pytest.raises(ValueError):
            NoiseSpec(sigma=0.1, noise_rate=0.0)
        with pytest.raises(ValueError):
            NoiseSpec(sigma=0.1, noise_rate=float("inf"))
        with pytest.raises(ValueError):
            NoiseSpec(sigma=0.1, noise_rate=float("nan"))
        with pytest.raises(ValueError):
            NoiseSpec(sigma=0.1, noise_rate=1000.0, clip_low=1.0, clip_high=-1.0)


class TestDeterminism:
    def test_same_seed_same_stream_identical(self):
        spec = NoiseSpec(sigma=0.3, noise_rate=20000.0, seed=42)
        a = generate_noise(spec, 20000.0, 0.2, stream=5)
        b = generate_noise(spec, 20000.0, 0.2, stream=5)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_different_streams_differ(self):
        spec = NoiseSpec(sigma=0.3, noise_rate=20000.0, seed=42)
        a = generate_noise(spec, 20000.0, 0.2, stream=0)
        b = generate_noise(spec, 20000.0, 0.2, stream=1)
        assert not np.array_equal(a.samples, b.samples)

    def test_different_seeds_differ(self):
        a = generate_noise(NoiseSpec(0.3, 20000.0, seed=1), 20000.0, 0.2)
        b = generate_noise(NoiseSpec(0.3, 20000.0, seed=2), 20000.0, 0.2)
        assert not np.array_equal(a.samples, b.samples)

    def test_stream_addressing_is_order_free(self):
        # stream 7 drawn directly equals stream 7 drawn after others
        spec = NoiseSpec(sigma=1.0, noise_rate=1000.0, seed=9)
        direct = generate_noise(spec, 1000.0, 0.1, stream=7)
        for s in (0, 3, 12):
            generate_noise(spec, 1000.0, 0.1, stream=s)
        again = generate_noise(spec, 1000.0, 0.1, stream=7)
        np.testing.assert_array_equal(direct.samples, again.samples)

    def test_noise_stream_reproducible(self):
        a = noise_stream(123, 4).normal(size=10)
        b = noise_stream(123, 4).normal(size=10)
        np.testing.assert_array_equal(a, b)


class TestClipping:
    def test_default_bounds_hold(self):
        spec = NoiseSpec(sigma=10.0, noise_rate=20000.0, seed=0)
        tr = generate_noise(spec, 20000.0, 1.0)
        assert tr.samples.max() <= 5.0
        assert tr.samples.min() >= -5.0
        # sigma=10 guarantees the limits are actually exercised
        assert np.any(tr.samples == 5.0)
        assert np.any(tr.samples == -5.0)

    def test_custom_bounds(self):
        spec = NoiseSpec(sigma=1.0, noise_rate=5000.0, clip_low=-0.5, clip_high=0.25, seed=3)
        tr = generate_noise(spec, 5000.0, 1.0)
        assert tr.samples.max() <= 0.25
        assert tr.samples.min() >= -0.5


class TestZeroOrderHold:
    def test_integer_ratio_repeats_draws(self):
        spec = NoiseSpec(sigma=1.0, noise_rate=4000.0, seed=7)
        tr = generate_noise(spec, 20000.0, 0.01)  # ratio 5
        blocks = tr.samples.reshape(-1, 5)
        assert np.all(blocks == blocks[:, :1])
        # consecutive blocks hold different draw values
        assert not np.all(blocks[:-1, 0] == blocks[1:, 0])

    def test_equal_rates_no_hold(self):
        spec = NoiseSpec(sigma=1.0, noise_rate=20000.0, seed=7)
        tr = generate_noise(spec, 20000.0, 0.01)
        assert np.unique(tr.samples).size > tr.samples.size // 2

    def test_hold_preserves_first_draws(self):
        # the held trace at rate m*r replays the draws of the base stream
        low = NoiseSpec(sigma=1.0, noise_rate=1000.0, seed=11)
        held = generate_noise(low, 5000.0, 0.02)
        base = generate_noise(low, 1000.0, 0.02)
        np.testing.assert_array_equal(held.samples[::5], base.samples)

    def test_sample_count(self):
        tr = generate_noise(NoiseSpec(1.0, 20000.0, seed=0), 20000.0, 0.4)
        assert tr.n_samples == 8000


class TestDistribution:
    def test_mean_and_std_track_sigma(self):
        spec = NoiseSpec(sigma=0.05, noise_rate=20000.0, seed=21)
        tr = generate_noise(spec, 20000.0, 5.0)
        assert abs(tr.samples.mean()) < 0.002
        assert tr.samples.std() == pytest.approx(0.05, rel=0.02)
