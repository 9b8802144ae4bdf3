import numpy as np
import pytest

from srlab.signals import (
    Dc,
    DampedSine,
    Ramp,
    Sine,
    Trace,
    envelope,
    generate,
    n_samples_for,
)


class TestTrace:
    def test_basic_properties(self):
        t = Trace(start_time=0.0, dt=0.001, samples=[1.0, 2.0, 3.0])
        assert t.n_samples == 3
        assert t.sample_rate == 1000.0
        assert t.duration == pytest.approx(0.003)
        np.testing.assert_allclose(t.times(), [0.0, 0.001, 0.002])

    def test_start_time_offsets_times(self):
        t = Trace(start_time=1.0, dt=0.5, samples=[0.0, 0.0])
        np.testing.assert_allclose(t.times(), [1.0, 1.5])

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            Trace(start_time=0.0, dt=0.0, samples=[1.0])

    def test_rejects_empty_and_2d(self):
        with pytest.raises(ValueError):
            Trace(start_time=0.0, dt=0.1, samples=[])
        with pytest.raises(ValueError):
            Trace(start_time=0.0, dt=0.1, samples=[[1.0, 2.0]])


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
        with pytest.raises(ValueError):
            Sine(amplitude=1.0, frequency=10.0, phase=float("nan"))

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


class TestGenerate:
    def test_sine_closed_form(self):
        tr = generate(Sine(amplitude=2.0, frequency=50.0), 10000.0, 0.1)
        t = tr.times()
        np.testing.assert_allclose(tr.samples, 2.0 * np.sin(2.0 * np.pi * 50.0 * t),
                                   atol=1e-12)

    def test_sine_phase(self):
        tr = generate(Sine(amplitude=1.0, frequency=50.0, phase=np.pi / 2), 10000.0, 0.01)
        assert tr.samples[0] == pytest.approx(1.0)

    def test_damped_is_sine_times_envelope(self):
        spec = DampedSine(amplitude=0.1, decay=5.0, frequency=1000.0)
        tr = generate(spec, 20000.0, 0.02)
        t = tr.times()
        expected = 0.1 * np.exp(-5.0 * t) * np.sin(2.0 * np.pi * 1000.0 * t)
        np.testing.assert_allclose(tr.samples, expected, atol=1e-12)

    def test_dc_and_ramp(self):
        dc = generate(Dc(level=0.7), 100.0, 0.05)
        assert np.all(dc.samples == 0.7)
        ramp = generate(Ramp(v_start=-1.0, v_end=1.0), 100.0, 0.1)
        assert ramp.samples[0] == pytest.approx(-1.0)
        # left-aligned grid: the final sample sits one step short of v_end
        assert ramp.samples[-1] == pytest.approx(1.0 - 2.0 * 0.01 / 0.1)
        assert np.all(np.diff(ramp.samples) > 0.0)

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
