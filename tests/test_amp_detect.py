import math

import numpy as np
import pytest
from scipy.special import ndtr

from srlab.amp_detect import (
    DecayEstimate,
    FitError,
    SigmoidFit,
    T0Stats,
    calibrate_and_estimate_decay,
    envelope_gap,
    expected_t0_for_config,
    expected_t0_theory,
    fit_sigmoid,
    last_transition_time,
    mean_t0_monte_carlo,
    t0_density_grid,
    t0_sigma_curve,
)
from srlab.signals import DampedSine, Trace, envelope, n_samples_for
from srlab.trigger import TriggerConfig, calibrated_config, run

CFG4 = calibrated_config(4.0, 0.5)  # threshold 0.199, attenuation 0.5
DRIVE = DampedSine(0.1, 5.0, 1000.0)


def _stats_from_xy(x, y):
    return [
        T0Stats(sigma=float(xi), mean_t0=float(yi), std_t0=0.0, n_runs=50, n_no_transition=0)
        for xi, yi in zip(x, y)
    ]


def _sigmoid(x, a, c, plateau=1.5):
    return plateau / (1.0 + np.exp(-a * (np.asarray(x) - c)))


class TestThresholdGap:
    def test_validation(self):
        with pytest.raises(ValueError):
            Trace(0.0, np.zeros(5))
        with pytest.raises(ValueError):
            t0_density_grid(Trace(1e-4, np.zeros(1)), 0.1)
        with pytest.raises(ValueError):
            Trace(1e-4, np.zeros((2, 2)))

    def test_grid_accessors(self):
        gap = Trace(0.25, np.zeros(5))
        np.testing.assert_allclose(gap.times(), [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_envelope_gap_formula(self):
        gap = envelope_gap(CFG4, DRIVE, 20000.0, 0.01)
        assert gap.samples.size == n_samples_for(20000.0, 0.01)
        t = gap.times()
        expected = CFG4.v_ut - 0.5 * envelope(DRIVE, t)
        np.testing.assert_allclose(gap.samples, expected, atol=1e-15)
        # decaying drive: the gap only opens with time
        assert np.all(np.diff(gap.samples) > 0.0)


class TestDensityGrid:
    def test_matches_brute_force_product(self):
        # independent scalar re-derivation: mass_k is the crossing chance at
        # t_k times exp of the trapezoid of ln Phi(v/sigma) from t_k to the
        # grid end
        values = np.linspace(-0.03, 0.15, 12)
        dt = 1e-3
        sigma = 0.05
        gap = Trace(dt, values)
        dens = t0_density_grid(gap, sigma)

        n = values.size
        brute = np.empty(n)
        for k in range(n):
            ln_hold = 0.0
            for j in range(k, n - 1):
                ln_hold += 0.5 * (
                    math.log(ndtr(values[j] / sigma)) + math.log(ndtr(values[j + 1] / sigma))
                )
            brute[k] = ndtr(-values[k] / sigma) * math.exp(ln_hold)
        np.testing.assert_allclose(dens * dt, brute, rtol=1e-10)

    def test_zero_gap_geometric_closed_form(self):
        # v == 0 everywhere: each step crosses with chance 1/2, so
        # mass_k = 0.5^(n-k) exactly
        n = 20
        gap = Trace(1e-3, np.zeros(n))
        masses = t0_density_grid(gap, 0.1) * gap.dt
        expected = 0.5 ** (n - np.arange(n))
        np.testing.assert_allclose(masses, expected, rtol=1e-12)

    def test_total_mass_at_most_one(self):
        for sigma in (0.02, 0.1, 0.5):
            gap = envelope_gap(CFG4, DRIVE, 5000.0, 1.5)
            total = float(np.sum(t0_density_grid(gap, sigma)) * gap.dt)
            assert total <= 1.0 + 1e-12
            assert total >= 0.0

    def test_one_point_gap_refused(self):
        # the model needs one step between two grid points
        gap = Trace(1e-3, np.full(1, 0.1))
        with pytest.raises(ValueError, match="2 grid points"):
            t0_density_grid(gap, 0.1)
        with pytest.raises(ValueError, match="2 grid points"):
            expected_t0_theory(gap, 0.1)

    def test_sigma_validated(self):
        gap = Trace(1e-3, np.full(5, 0.1))
        with pytest.raises(ValueError):
            t0_density_grid(gap, 0.0)
        with pytest.raises(ValueError):
            expected_t0_theory(gap, -0.1)


class TestExpectedT0:
    def test_zero_gap_closed_form_expectation(self):
        n = 30
        dt = 1e-3
        gap = Trace(dt, np.zeros(n))
        k = np.arange(n)
        expected = float(np.sum(k * dt * 0.5 ** (n - k)))
        assert expected_t0_theory(gap, 0.2) == pytest.approx(expected, rel=1e-12)

    def test_sigma_limits(self):
        gap = envelope_gap(CFG4, DRIVE, 5000.0, 1.5)
        # starved: essentially no crossings, mean near zero
        window = gap.times()[-1]
        assert expected_t0_theory(gap, 1e-3) < 0.01 * window
        # swamped: the last transition rides out to the end of the window
        assert expected_t0_theory(gap, 5.0) > 0.9 * window
        # interior level sits between the extremes
        mid = expected_t0_theory(gap, 0.05)
        assert 0.0 < mid < expected_t0_theory(gap, 5.0)

    def test_monotone_in_sigma(self):
        gap = envelope_gap(CFG4, DRIVE, 5000.0, 1.5)
        means = [expected_t0_theory(gap, s) for s in (0.02, 0.05, 0.1, 0.2, 0.4)]
        assert np.all(np.diff(means) > 0.0)

    def test_config_wrapper_applies_attenuation(self):
        sigma = 0.2
        gap = envelope_gap(CFG4, DRIVE, 5000.0, 1.5)
        direct = expected_t0_theory(gap, CFG4.input_attenuation * sigma)
        assert expected_t0_for_config(CFG4, DRIVE, sigma, 5000.0, 1.5) == direct


def _forced(levels, dt):
    """Comparator output at the given +1/-1 levels: each input sample lies
    beyond the threshold that forces its level."""
    cfg = TriggerConfig(1.0, -1.0, 0.1, -0.1, input_attenuation=1.0)
    drive = Trace(dt, -0.2 * np.asarray(levels, dtype=np.float64))
    return run(cfg, drive, Trace(dt, np.zeros(drive.n_samples)))


class TestLastTransition:
    def test_no_switch_is_zero_sentinel(self):
        assert last_transition_time(_forced(np.ones(100), 1e-4)) == 0.0

    def test_time_of_final_flip(self):
        out = _forced([1.0, -1.0, -1.0, 1.0, 1.0, 1.0], 1e-3)
        # flips after samples 0 and 2; the last new level appears at index 3
        assert last_transition_time(out) == pytest.approx(3e-3)

    def test_units_follow_dt(self):
        levels = [1.0, 1.0, -1.0, -1.0]
        assert last_transition_time(_forced(levels, 0.5)) == pytest.approx(1.0)
        assert last_transition_time(_forced(levels, 1e-4)) == pytest.approx(2e-4)


class TestT0Stats:
    def test_validation(self):
        with pytest.raises(ValueError):
            T0Stats(0.1, 0.5, 0.1, n_runs=0, n_no_transition=0)
        with pytest.raises(ValueError):
            T0Stats(0.1, 0.5, 0.1, n_runs=5, n_no_transition=6)
        with pytest.raises(ValueError):
            T0Stats(0.1, -0.5, 0.1, n_runs=5, n_no_transition=0)

    @pytest.mark.parametrize("field", ["sigma", "mean_t0", "std_t0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
    def test_non_finite_or_negative_field_named(self, field, value):
        fields = dict(sigma=0.1, mean_t0=0.5, std_t0=0.1, n_runs=5, n_no_transition=0)
        with pytest.raises(ValueError, match=f"^{field} must be finite and >= 0"):
            T0Stats(**{**fields, field: value})


class TestMonteCarlo:
    def test_deterministic(self):
        a = mean_t0_monte_carlo(CFG4, DRIVE, 0.2, 8, 3, 20000.0, 0.5)
        b = mean_t0_monte_carlo(CFG4, DRIVE, 0.2, 8, 3, 20000.0, 0.5)
        assert a == b

    def test_stream_base_changes_realizations(self):
        a = mean_t0_monte_carlo(CFG4, DRIVE, 0.2, 8, 3, 20000.0, 0.5, stream_base=0)
        b = mean_t0_monte_carlo(CFG4, DRIVE, 0.2, 8, 3, 20000.0, 0.5, stream_base=8)
        assert a.mean_t0 != b.mean_t0

    def test_sub_threshold_silence(self):
        # comparator sees at most 0.05 V against a 0.199 V threshold and the
        # noise is far too small to bridge the rest
        stats = mean_t0_monte_carlo(CFG4, DRIVE, 0.01, 6, 0, 20000.0, 0.3)
        assert stats.mean_t0 == 0.0
        assert stats.n_no_transition == 6

    def test_n_runs_validated(self):
        with pytest.raises(ValueError):
            mean_t0_monte_carlo(CFG4, DRIVE, 0.2, 0, 0, 20000.0, 0.5)
        with pytest.raises(ValueError, match="n_runs"):  # the cell ceiling
            mean_t0_monte_carlo(CFG4, DRIVE, 0.2, 10**12, 0, 20000.0, 0.5)

    def test_theory_tracks_monte_carlo(self):
        # one mid-curve point of the acceptance-scale comparison
        sigma = 0.2
        stats = mean_t0_monte_carlo(CFG4, DRIVE, sigma, 30, 123, 20000.0, 1.5)
        theory = expected_t0_for_config(CFG4, DRIVE, sigma, 20000.0, 1.5)
        se = stats.std_t0 / math.sqrt(stats.n_runs)
        assert abs(theory - stats.mean_t0) <= 4.0 * se


class TestSigmaCurve:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            t0_sigma_curve(CFG4, DRIVE, [], n_runs=2)
        with pytest.raises(ValueError):
            t0_sigma_curve(CFG4, DRIVE, [0.2, 0.1], n_runs=2)

    def test_zero_sigma_is_deterministic_shortcut(self):
        curve = t0_sigma_curve(
            CFG4, DRIVE, [0.0, 0.2], n_runs=5, seed_base=0, duration=0.5
        )
        first = curve[0]
        assert first.sigma == 0.0
        assert first.mean_t0 == 0.0  # sub-threshold drive, noiseless
        assert first.std_t0 == 0.0
        assert first.n_no_transition == first.n_runs

    def test_level_stream_protocol(self):
        # level i must use streams [i*n_runs, (i+1)*n_runs)
        curve = t0_sigma_curve(
            CFG4, DRIVE, [0.1, 0.2], n_runs=4, seed_base=9, duration=0.5
        )
        direct = mean_t0_monte_carlo(
            CFG4, DRIVE, 0.2, 4, 9, 20000.0, 0.5, stream_base=4
        )
        assert curve[1] == direct

    def test_curve_rises_with_sigma(self):
        sigmas = [0.0, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4]
        curve = t0_sigma_curve(CFG4, DRIVE, sigmas, n_runs=15, seed_base=2)
        means = [s.mean_t0 for s in curve]
        from scipy.stats import spearmanr

        rho = spearmanr(sigmas, means).statistic
        assert rho >= 0.95


class TestSigmoidFit:
    X = np.round(np.arange(0.0, 0.5001, 0.02), 10)

    def test_exact_recovery(self):
        y = _sigmoid(self.X, 20.0, 0.2)
        fit = fit_sigmoid(_stats_from_xy(self.X, y), plateau_T=1.5)
        assert fit.slope_a == pytest.approx(20.0, abs=1e-6)
        assert fit.center_b == pytest.approx(0.2, abs=1e-8)
        assert fit.plateau_T == 1.5
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.se_slope_a < 1e-4
        assert fit.se_center_b < 1e-6

    def test_float_plateau_recovers_height(self):
        y = _sigmoid(self.X, 20.0, 0.2, plateau=1.2)
        fit = fit_sigmoid(_stats_from_xy(self.X, y), plateau_T=1.5, float_plateau=True)
        assert fit.plateau_T == pytest.approx(1.2, abs=1e-6)
        assert fit.slope_a == pytest.approx(20.0, abs=1e-4)

    def test_wrong_fixed_plateau_costs_r_squared(self):
        y = _sigmoid(self.X, 20.0, 0.2, plateau=1.2)
        fixed = fit_sigmoid(_stats_from_xy(self.X, y), plateau_T=1.5)
        floated = fit_sigmoid(_stats_from_xy(self.X, y), plateau_T=1.5, float_plateau=True)
        assert floated.r_squared > fixed.r_squared
        assert fixed.r_squared < 0.999

    def test_deterministic(self):
        y = _sigmoid(self.X, 140.0, 0.1) + 0.01 * np.sin(37.0 * self.X)
        a = fit_sigmoid(_stats_from_xy(self.X, y))
        b = fit_sigmoid(_stats_from_xy(self.X, y))
        assert a == b

    def test_validation(self):
        y = _sigmoid(self.X, 20.0, 0.2)
        with pytest.raises(ValueError):
            fit_sigmoid(_stats_from_xy(self.X[:3], y[:3]))
        with pytest.raises(ValueError):
            fit_sigmoid(_stats_from_xy(self.X, y), plateau_T=0.0)
        with pytest.raises(ValueError):
            fit_sigmoid(_stats_from_xy(self.X[::-1], y))
        # the endpoints increase, but not every step does
        swapped, repeated = self.X.copy(), self.X.copy()
        swapped[[5, 6]] = swapped[[6, 5]]
        repeated[6] = repeated[5]
        for x in (swapped, repeated):
            with pytest.raises(ValueError, match="curve sigmas must be strictly increasing"):
                fit_sigmoid(_stats_from_xy(x, y))
        for plateau in (math.nan, math.inf):
            with pytest.raises(ValueError, match="plateau_T must be finite and > 0"):
                fit_sigmoid(_stats_from_xy(self.X, y), plateau_T=plateau)

    def test_degenerate_curve_raises_fit_error(self):
        flat = _stats_from_xy(self.X, np.zeros_like(self.X))
        with pytest.raises(FitError):
            fit_sigmoid(flat, float_plateau=True)

    def test_fit_object_validation(self):
        with pytest.raises(ValueError):
            SigmoidFit(20.0, 0.2, -1.0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            SigmoidFit(20.0, 0.2, 1.5, 1.5, 0.0, 0.0)


class TestDecayEstimation:
    X = np.round(np.arange(0.0, 0.5001, 0.01), 10)

    def _calibration(self, bs=(1.0, 3.0, 5.0, 7.0, 9.0)):
        # synthetic parameter laws, linear in the decay constant
        return {
            b: _stats_from_xy(self.X, _sigmoid(self.X, 100.0 + 8.0 * b, 0.05 + 0.01 * b))
            for b in bs
        }

    def _observed(self, b):
        return _stats_from_xy(self.X, _sigmoid(self.X, 100.0 + 8.0 * b, 0.05 + 0.01 * b))

    def test_recovers_knot_exactly(self):
        est = calibrate_and_estimate_decay(self._calibration(), self._observed(5.0))
        assert est.decay == 5.0
        assert not est.extrapolated
        assert isinstance(est, DecayEstimate)
        assert set(est.calibration_fits) == {1.0, 3.0, 5.0, 7.0, 9.0}

    def test_interpolates_between_knots(self):
        # pchip reproduces data linear in b, so an off-knot case lands on
        # the true value up to grid resolution
        est = calibrate_and_estimate_decay(self._calibration(), self._observed(4.0))
        assert est.decay == pytest.approx(4.0, abs=0.01)
        assert not est.extrapolated

    def test_leave_one_out(self):
        cal = self._calibration(bs=(1.0, 3.0, 7.0, 9.0))
        est = calibrate_and_estimate_decay(cal, self._observed(5.0))
        assert 3.0 <= est.decay <= 7.0
        assert abs(est.decay - 5.0) < 1.0

    def test_extrapolation_flagged(self):
        est = calibrate_and_estimate_decay(self._calibration(), self._observed(12.0))
        assert est.extrapolated
        assert est.decay == pytest.approx(9.0, abs=0.01)  # clamps to nearest end

    def test_needs_three_curves(self):
        cal = self._calibration(bs=(1.0, 9.0))
        with pytest.raises(ValueError):
            calibrate_and_estimate_decay(cal, self._observed(5.0))

    def test_non_finite_decay_label_refused(self):
        for label in (float("nan"), float("inf")):
            cal = self._calibration(bs=(1.0, 3.0, 5.0))
            cal[label] = cal.pop(5.0)
            with pytest.raises(ValueError, match="finite"):
                calibrate_and_estimate_decay(cal, self._observed(3.0))
