import numpy as np
import pytest

from srlab.signals import (
    MAX_SAMPLES,
    DampedSine,
    Sine,
    Trace,
    envelope,
    generate,
    n_samples_for,
)


class TestTrace:
    def test_basic_properties(self):
        t = Trace(dt=0.001, samples=[1.0, 2.0, 3.0])
        assert t.n_samples == 3
        assert t.sample_rate == 1000.0
        np.testing.assert_allclose(t.times(), [0.0, 0.001, 0.002])

    def test_rejects_bad_dt(self):
        for dt in (0.0, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="dt must be finite and > 0"):
                Trace(dt=dt, samples=[1.0])

    def test_rejects_empty_and_2d(self):
        with pytest.raises(ValueError):
            Trace(dt=0.1, samples=[])
        with pytest.raises(ValueError):
            Trace(dt=0.1, samples=[[1.0, 2.0]])


class TestSpecs:
    def test_sine_validation(self):
        with pytest.raises(ValueError):
            Sine(amplitude=-0.5, frequency=10.0)
        with pytest.raises(ValueError):
            Sine(amplitude=1.0, frequency=0.0)
        with pytest.raises(ValueError):
            Sine(amplitude=float("nan"), frequency=10.0)
        with pytest.raises(ValueError):
            Sine(amplitude=1.0, frequency=float("inf"))

    def test_damped_validation(self):
        with pytest.raises(ValueError):
            DampedSine(amplitude=-1.0, decay=1.0, frequency=10.0)
        with pytest.raises(ValueError):
            DampedSine(amplitude=1.0, decay=-0.5, frequency=10.0)
        with pytest.raises(ValueError):
            DampedSine(amplitude=1.0, decay=float("nan"), frequency=10.0)
        with pytest.raises(ValueError):
            DampedSine(amplitude=float("inf"), decay=1.0, frequency=10.0)
        # zero decay is a plain sine through the damped code path
        DampedSine(amplitude=1.0, decay=0.0, frequency=10.0)

class TestNSamples:
    def test_rounding(self):
        assert n_samples_for(20000.0, 0.4) == 8000
        assert n_samples_for(20000.0, 1.5) == 30000

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            n_samples_for(0.0, 1.0)
        with pytest.raises(ValueError):
            n_samples_for(1000.0, 0.0)

    def test_rejects_non_finite(self):
        for rate, duration in ((float("nan"), 1.0), (1000.0, float("nan")),
                               (float("inf"), 1.0), (1000.0, float("inf"))):
            with pytest.raises(ValueError):
                n_samples_for(rate, duration)

    def test_sample_ceiling(self):
        # only the count is computed, so oversized grids cost nothing to refuse
        assert n_samples_for(float(MAX_SAMPLES), 1.0) == MAX_SAMPLES
        for rate, duration in ((float(MAX_SAMPLES + 1), 1.0), (20000.0, 1e12),
                               (1e300, 1e300)):
            with pytest.raises(ValueError, match="ceiling"):
                n_samples_for(rate, duration)


class TestGenerate:
    def test_sine_closed_form(self):
        tr = generate(Sine(amplitude=2.0, frequency=50.0), 10000.0, 0.1)
        t = tr.times()
        np.testing.assert_allclose(tr.samples, 2.0 * np.sin(2.0 * np.pi * 50.0 * t),
                                   atol=1e-12)

    def test_damped_is_sine_times_envelope(self):
        spec = DampedSine(amplitude=0.1, decay=5.0, frequency=1000.0)
        tr = generate(spec, 20000.0, 0.02)
        t = tr.times()
        expected = 0.1 * np.exp(-5.0 * t) * np.sin(2.0 * np.pi * 1000.0 * t)
        np.testing.assert_allclose(tr.samples, expected, atol=1e-12)

    def test_above_nyquist_refused(self):
        # at 20 kHz a 20 kHz tone is sin(2*pi*k) = 0 at every sample
        for spec in (Sine(1.0, 20000.0), DampedSine(1.0, 5.0, 10000.5)):
            with pytest.raises(ValueError, match="Nyquist"):
                generate(spec, 20000.0, 0.01)
        assert generate(Sine(1.0, 10000.0), 20000.0, 0.01).n_samples == 200

    def test_grid_is_deterministic(self):
        a = generate(Sine(1.0, 10.0), 1000.0, 0.2)
        b = generate(Sine(1.0, 10.0), 1000.0, 0.2)
        np.testing.assert_array_equal(a.samples, b.samples)


class TestEnvelope:
    def test_matches_exponential(self):
        spec = DampedSine(amplitude=0.1, decay=5.0, frequency=1000.0)
        t = np.array([0.0, 0.1, 0.5])
        np.testing.assert_allclose(envelope(spec, t), 0.1 * np.exp(-5.0 * t))

    def test_scalar_input(self):
        spec = DampedSine(amplitude=1.0, decay=2.0, frequency=10.0)
        assert envelope(spec, 0.0) == pytest.approx(1.0)

    def test_rejects_negative_time(self):
        spec = DampedSine(amplitude=1.0, decay=2.0, frequency=10.0)
        with pytest.raises(ValueError):
            envelope(spec, -0.1)
        for t in (float("nan"), [0.0, float("nan")]):  # NaN is not a time >= 0
            with pytest.raises(ValueError, match="t must be >= 0"):
                envelope(spec, t)
