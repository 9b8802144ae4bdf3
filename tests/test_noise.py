import tracemalloc

import numpy as np
import pytest

from srlab.noise import NoiseSpec, generate_noise, noise_stream


class TestNoiseSpec:
    def test_zero_sigma_allowed(self):
        spec = NoiseSpec(sigma=0.0, noise_rate=1000.0)
        tr = generate_noise(spec, 1000.0, 0.1)
        assert np.all(tr.samples == 0.0)

    def test_negative_zero_sigma_is_zero(self):
        # numpy's normal refuses a scale of -0.0; NoiseSpec accepts it as zero
        zero = generate_noise(NoiseSpec(sigma=0.0, noise_rate=1000.0), 1000.0, 0.1)
        negative = generate_noise(NoiseSpec(sigma=-0.0, noise_rate=1000.0), 1000.0, 0.1)
        assert negative.samples.tobytes() == zero.samples.tobytes()

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            NoiseSpec(sigma=-0.1, noise_rate=1000.0)
        with pytest.raises(ValueError):
            NoiseSpec(sigma=float("nan"), noise_rate=1000.0)
        with pytest.raises(ValueError):
            NoiseSpec(sigma=float("inf"), noise_rate=1000.0)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            NoiseSpec(sigma=0.1, noise_rate=0.0)
        with pytest.raises(ValueError):
            NoiseSpec(sigma=0.1, noise_rate=float("inf"))
        with pytest.raises(ValueError):
            NoiseSpec(sigma=0.1, noise_rate=float("nan"))

    def test_seed_domain_is_64_bits(self):
        # a seed outside [0, 2**64) used to wrap onto an in-range one
        for bad in (-1, 2**64, 2**64 + 5):
            with pytest.raises(ValueError, match="seed"):
                NoiseSpec(sigma=0.1, noise_rate=1000.0, seed=bad)
            with pytest.raises(ValueError, match="seed"):
                noise_stream(bad)
        for good in (0, 5, 2**64 - 1):
            assert NoiseSpec(sigma=0.1, noise_rate=1000.0, seed=good).seed == good

    def test_seed_and_stream_must_be_integers(self):
        # int() used to truncate these onto the draws of seed 1 or stream 1
        with pytest.raises(ValueError, match="seed must be an integer"):
            NoiseSpec(0.1, seed=1.5)
        with pytest.raises(ValueError, match="seed must be an integer"):
            noise_stream(np.float64(1.0))
        with pytest.raises(ValueError, match="stream must be an integer"):
            generate_noise(NoiseSpec(0.1), 1000.0, 0.01, stream=1.5)
        with pytest.raises(ValueError, match="stream must be an integer"):
            noise_stream(1, 1.0)
        # a bool is not an integer here: True used to draw stream 1's noise
        for flag in (True, False):
            with pytest.raises(ValueError, match="seed must be an integer"):
                NoiseSpec(0.1, seed=flag)
            with pytest.raises(ValueError, match="seed must be an integer"):
                noise_stream(flag)
            with pytest.raises(ValueError, match="stream must be an integer"):
                noise_stream(0, flag)
        # numpy used to refuse a negative stream in its own words
        with pytest.raises(ValueError, match=r"^stream must be an integer >= 0, got -1$"):
            noise_stream(0, -1)
        want = noise_stream(1, 2).normal(size=4).tobytes()
        assert noise_stream(np.uint64(1), np.int32(2)).normal(size=4).tobytes() == want
        a = generate_noise(NoiseSpec(0.1, seed=np.int64(1)), 1000.0, 0.01, stream=np.int64(2))
        b = generate_noise(NoiseSpec(0.1, seed=1), 1000.0, 0.01, stream=2)
        assert a.samples.tobytes() == b.samples.tobytes()

    def test_in_range_seeds_keep_their_draws(self):
        # the same draws as SeedSequence(seed) itself, as before the mask was dropped
        for seed in (0, 5, 2**63, 2**64 - 1):
            ss = np.random.SeedSequence(entropy=seed, spawn_key=(3,))
            want = np.random.Generator(np.random.Philox(ss)).normal(size=4)
            assert noise_stream(seed, 3).normal(size=4).tobytes() == want.tobytes()


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

    @pytest.mark.parametrize("rate, sample_rate, duration", [
        (1e12, 20000.0, 0.01), (1e20, 20000.0, 0.01), (1e300, 20000.0, 0.01),
        (1.7e308, 1.0, 1e6),  # the draw count overflows to inf
    ])
    def test_draw_ceiling(self, rate, sample_rate, duration):
        # 1e12 Hz for 0.01 s would draw 74 GiB to keep 200 samples; the count
        # is refused before any draw or hold index is made
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="noise_rate"):
                generate_noise(NoiseSpec(1.0, rate), sample_rate, duration)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestDistribution:
    def test_mean_and_std_track_sigma(self):
        spec = NoiseSpec(sigma=0.05, noise_rate=20000.0, seed=21)
        tr = generate_noise(spec, 20000.0, 5.0)
        assert abs(tr.samples.mean()) < 0.002
        assert tr.samples.std() == pytest.approx(0.05, rel=0.02)
