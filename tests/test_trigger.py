import numpy as np
import pytest

from srlab.noise import NoiseSpec, generate_noise
from srlab.signals import MAX_SAMPLES, Sine, Trace, generate
from srlab.trigger import (
    HysteresisLoop,
    TriggerConfig,
    TriggerState,
    calibrated_config,
    hysteresis_sweep,
    ideal_config,
    run,
    step,
    thresholds_from_divider,
    transition_count,
    v_th_from_vdc,
)


def _zeros_like(trace):
    return Trace(dt=trace.dt, samples=np.zeros(trace.n_samples))


class TestConfig:
    def test_threshold_order_enforced(self):
        with pytest.raises(ValueError):
            TriggerConfig(v_sat_pos=1.0, v_sat_neg=-1.0, v_ut=-0.1, v_lt=0.1)

    def test_rail_signs_enforced(self):
        with pytest.raises(ValueError):
            TriggerConfig(v_sat_pos=-1.0, v_sat_neg=-2.0, v_ut=0.1, v_lt=-0.1)
        with pytest.raises(ValueError):
            TriggerConfig(v_sat_pos=1.0, v_sat_neg=0.5, v_ut=0.1, v_lt=-0.1)

    def test_attenuation_range(self):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                TriggerConfig(1.0, -1.0, 0.1, -0.1, input_attenuation=bad)
        cfg = TriggerConfig(1.0, -1.0, 0.1, -0.1, input_attenuation=1.0)
        assert cfg.input_attenuation == 1.0

    def test_non_finite_levels_rejected(self):
        inf, nan = float("inf"), float("nan")
        for bad in ((1.0, -1.0, inf, -1.0), (1.0, -1.0, 0.1, -inf), (1.0, -1.0, nan, -0.1),
                    (inf, -1.0, 0.1, -0.1), (1.0, -inf, 0.1, -0.1), (nan, -1.0, 0.1, -0.1)):
            with pytest.raises(ValueError):
                TriggerConfig(*bad)


class TestThresholdLaws:
    def test_divider_symmetric(self):
        assert thresholds_from_divider(1.0, 0.045) == (0.045, -0.045)
        up, lo = thresholds_from_divider(2.0, 0.1)
        assert up == pytest.approx(0.2)
        assert lo == pytest.approx(-0.2)

    def test_divider_validation(self):
        for v_sat in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                thresholds_from_divider(v_sat, 0.045)
        with pytest.raises(ValueError):
            thresholds_from_divider(1.0, 0.0)
        with pytest.raises(ValueError):
            thresholds_from_divider(1.0, 1.0)

    def test_supply_calibration_exact_values(self):
        # affine law with decimal coefficients: results must be exact
        assert v_th_from_vdc(1.0) == 0.046
        assert v_th_from_vdc(4.0) == 0.199

    def test_supply_calibration_validation(self):
        for v_dc in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                v_th_from_vdc(v_dc)
        with pytest.raises(ValueError):
            calibrated_config(0.05)  # v_th would be negative

    def test_factory_configs(self):
        cfg = ideal_config(1.0, 0.045, 0.5)
        assert cfg.v_ut == 0.045
        assert cfg.v_lt == -0.045
        assert cfg.v_sat_pos == 1.0
        assert cfg.v_sat_neg == -1.0
        assert cfg.input_attenuation == 0.5

        cal = calibrated_config(4.0)
        assert cal.v_ut == 0.199
        assert cal.v_lt == -0.199
        assert cal.v_sat_pos == 4.0


class TestStep:
    CFG = TriggerConfig(1.0, -1.0, 0.045, -0.045)

    def test_high_falls_only_above_upper(self):
        assert step(self.CFG, TriggerState.HIGH, 0.046) is TriggerState.LOW
        assert step(self.CFG, TriggerState.HIGH, 0.045) is TriggerState.HIGH  # strict
        assert step(self.CFG, TriggerState.HIGH, 0.0) is TriggerState.HIGH
        assert step(self.CFG, TriggerState.HIGH, -0.046) is TriggerState.HIGH

    def test_low_rises_only_below_lower(self):
        assert step(self.CFG, TriggerState.LOW, -0.046) is TriggerState.HIGH
        assert step(self.CFG, TriggerState.LOW, -0.045) is TriggerState.LOW  # strict
        assert step(self.CFG, TriggerState.LOW, 0.0) is TriggerState.LOW
        assert step(self.CFG, TriggerState.LOW, 0.046) is TriggerState.LOW


class TestRun:
    def test_matches_folded_step(self):
        # the vectorized path must agree sample-for-sample with the scalar
        # state machine on an input that wanders across both thresholds
        cfg = ideal_config(1.0, 0.045, 0.5)
        sig = generate(Sine(0.05, 500.0), 20000.0, 0.05)
        noi = generate_noise(NoiseSpec(0.1, 20000.0, seed=5), 20000.0, 0.05)
        out = run(cfg, sig, noi)

        state = TriggerState.HIGH
        expected = np.empty(sig.n_samples)
        for i, (s, n) in enumerate(zip(sig.samples, noi.samples)):
            state = step(cfg, state, cfg.input_attenuation * (s + n))
            expected[i] = cfg.v_sat_pos if state is TriggerState.HIGH else cfg.v_sat_neg
        np.testing.assert_array_equal(out.samples, expected)
        assert transition_count(out) > 10  # the input actually exercised both rules

    def test_bistable_in_band(self):
        # constant input inside the band holds whichever state it started in
        cfg = ideal_config(1.0, 0.045, 0.5)
        sig = Trace(1.0 / 10000.0, np.full(1000, 0.088))  # comparator sees 0.044 < v_ut
        noi = _zeros_like(sig)
        high = run(cfg, sig, noi, initial=TriggerState.HIGH)
        low = run(cfg, sig, noi, initial=TriggerState.LOW)
        assert np.all(high.samples == 1.0)
        assert np.all(low.samples == -1.0)

    def test_no_chatter_on_slow_ramp(self):
        # one clean fall when a noiseless ramp climbs through the band
        cfg = ideal_config(1.0, 0.045, 0.5)
        dt = 1.0 / 20000.0
        sig = Trace(dt, -0.2 + 0.4 * (dt * np.arange(20000)))
        out = run(cfg, sig, _zeros_like(sig), initial=TriggerState.HIGH)
        assert transition_count(out) == 1
        assert out.samples[0] == 1.0
        assert out.samples[-1] == -1.0

    def test_output_takes_only_rail_values(self):
        cfg = TriggerConfig(0.93, -0.915, 0.049, -0.0375)
        sig = generate(Sine(0.2, 100.0), 10000.0, 0.1)
        noi = generate_noise(NoiseSpec(0.05, 10000.0, seed=1), 10000.0, 0.1)
        out = run(cfg, sig, noi)
        assert set(np.unique(out.samples)) <= {0.93, -0.915}

    def test_grid_mismatch_rejected(self):
        cfg = ideal_config()
        sig = Trace(1.0 / 10000.0, np.zeros(1000))
        with pytest.raises(ValueError):
            run(cfg, sig, Trace(1.0 / 20000.0, np.zeros(2000)))
        with pytest.raises(ValueError):
            run(cfg, sig, Trace(1.0 / 10000.0, np.zeros(500)))

    def test_forced_state_ignores_history(self):
        # a sample beyond a threshold pins the state no matter what came before
        cfg = TriggerConfig(1.0, -1.0, 0.1, -0.1, input_attenuation=1.0)
        samples = np.array([0.0, 0.2, 0.0, -0.2, 0.0, 0.2, 0.2, 0.0])
        sig = Trace(dt=1e-3, samples=samples)
        out = run(cfg, sig, _zeros_like(sig))
        np.testing.assert_array_equal(
            out.samples, [1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0, -1.0]
        )


class TestTransitionCount:
    # inputs of +-0.2 force the comparator's level at every sample
    CFG = TriggerConfig(1.0, -1.0, 0.1, -0.1, input_attenuation=1.0)

    def test_counts_level_changes(self):
        sig = Trace(1e-3, np.array([-0.2, -0.2, 0.2, 0.2, -0.2, 0.2]))
        out = run(self.CFG, sig, _zeros_like(sig))
        np.testing.assert_array_equal(out.samples, [1.0, 1.0, -1.0, -1.0, 1.0, -1.0])
        assert transition_count(out) == 3

    def test_constant_is_zero(self):
        sig = Trace(1e-3, np.full(100, -0.2))
        assert transition_count(run(self.CFG, sig, _zeros_like(sig))) == 0


class TestHysteresis:
    def test_measured_thresholds_at_divider_setting(self):
        # attenuation 0.5 and comparator band +/-0.045 put the raw switching
        # points at +/-0.090; quantization places the measured value within
        # one 0.0005 V sweep step past that (float residue in the grid decides
        # whether the on-threshold sample itself counts as strictly past)
        cfg = ideal_config(1.0, 0.045, 0.5)
        loop = hysteresis_sweep(cfg, -0.2, 0.2, points=801)
        step = 0.0005
        assert 0.09 - 1e-9 <= loop.measured_down_threshold <= 0.09 + step + 1e-9
        assert -0.09 - step - 1e-9 <= loop.measured_up_threshold <= -0.09 + 1e-9

    def test_branches_are_single_switch(self):
        cfg = ideal_config(1.0, 0.045, 0.5)
        loop = hysteresis_sweep(cfg, -0.2, 0.2, points=801)
        for out in (loop.ascending_output, loop.descending_output):
            flips = np.count_nonzero(out[1:] != out[:-1])
            assert flips == 1

    def test_ascending_branch_orientation(self):
        cfg = ideal_config(1.0, 0.045, 0.5)
        loop = hysteresis_sweep(cfg, -0.2, 0.2, points=801)
        # inverting element: starts HIGH at the low end, ends LOW at the top
        assert loop.ascending_output[0] == 1.0
        assert loop.ascending_output[-1] == -1.0
        assert loop.descending_output[0] == -1.0
        assert loop.descending_output[-1] == 1.0

    def test_sweep_inside_band_never_switches(self):
        cfg = ideal_config(1.0, 0.045, 0.5)
        loop = hysteresis_sweep(cfg, -0.08, 0.08, points=101)
        assert loop.measured_up_threshold is None
        assert loop.measured_down_threshold is None
        assert np.all(loop.ascending_output == 1.0)
        assert np.all(loop.descending_output == -1.0)

    def test_asymmetric_config(self):
        cfg = TriggerConfig(0.93, -0.915, 0.049, -0.0375, input_attenuation=0.5)
        loop = hysteresis_sweep(cfg, -0.2, 0.2, points=4001)
        assert loop.measured_down_threshold == pytest.approx(0.098, abs=1e-4 + 1e-12)
        assert loop.measured_up_threshold == pytest.approx(-0.075, abs=1e-4 + 1e-12)

    def test_validation(self):
        cfg = ideal_config()
        with pytest.raises(ValueError):
            hysteresis_sweep(cfg, 0.2, -0.2, points=100)
        # a point count is an integer in [2, MAX_SAMPLES]; 2.5 used to reach linspace
        for points in (1, MAX_SAMPLES + 1, 2.5, True):
            with pytest.raises(ValueError, match=r"^points must be an integer in \[2, "):
                hysteresis_sweep(cfg, -0.2, 0.2, points=points)
        for v_max in (float("inf"), float("nan")):
            with pytest.raises(ValueError):
                hysteresis_sweep(cfg, -0.2, v_max, points=100)

    def test_loop_is_dataclass(self):
        assert HysteresisLoop.__dataclass_fields__.keys() >= {
            "ascending_input",
            "measured_up_threshold",
        }
