import numpy as np
import pytest

import srlab.experiments
from srlab.cli import main
from srlab.freq_detect import (
    DetectionSetup,
    FreqDetectReport,
    detect_frequency,
    error_rate_table,
    optimal_sigma_search,
    summarize_error_table,
    transition_spectrum,
)
from srlab.noise import NoiseSpec
from srlab.signals import DampedSine, Sine, Trace, generate
from srlab.spectral import second_peak_frequency
from srlab.trigger import TriggerConfig, ideal_config, run

CFG = ideal_config(1.0, 0.045, 0.5)


class TestReport:
    def test_detected_flag(self):
        hit = FreqDetectReport(500.0, 502.5, 0.5, 0.01, 0)
        miss = FreqDetectReport(500.0, None, None, 0.01, 0)
        assert hit.detected
        assert not miss.detected

    def test_partial_result_rejected(self):
        with pytest.raises(ValueError):
            FreqDetectReport(500.0, 502.5, None, 0.01, 0)
        with pytest.raises(ValueError):
            FreqDetectReport(500.0, None, 0.5, 0.01, 0)

    def test_inconsistent_error_rejected(self):
        with pytest.raises(ValueError):
            FreqDetectReport(500.0, 502.5, 3.0, 0.01, 0)


class TestTransitionSpectrum:
    # inputs of +-0.2 force the comparator's level at every sample
    UNIT = TriggerConfig(1.0, -1.0, 0.1, -0.1, input_attenuation=1.0)

    def _run(self, drive):
        sig = Trace(1e-4, np.asarray(drive, dtype=np.float64))
        return run(self.UNIT, sig, Trace(sig.dt, np.zeros(sig.n_samples)))

    def test_length_and_grid_preserved(self):
        out = self._run([-0.2, -0.2, 0.2, 0.2, -0.2, -0.2])
        np.testing.assert_array_equal(out.samples, [1.0, 1.0, -1.0, -1.0, 1.0, 1.0])
        spec = transition_spectrum(out)
        assert spec.n_samples == 6
        assert spec.df == pytest.approx(10000.0 / 6.0)

    def test_constant_output_is_silent(self):
        spec = transition_spectrum(self._run(np.full(1000, -0.2)))
        assert second_peak_frequency(spec) is None

    def test_flattens_dc_skirt(self):
        # a square wave's level trace has a huge DC-adjacent skirt; the
        # transition train removes most of it while keeping the fundamental
        cfg = TriggerConfig(1.0, -1.0, 0.045, -0.045, input_attenuation=1.0)
        sig = generate(Sine(0.2, 50.0), 20000.0, 0.4)
        silence = Trace(sig.dt, np.zeros(sig.n_samples))
        out = run(cfg, sig, silence)
        spec = transition_spectrum(out)
        mags = spec.mag_db
        k_sig = int(round(50.0 / spec.df))
        assert mags[k_sig] > np.median(mags) + 20.0
        # low-frequency skirt sits below the fundamental now
        assert np.all(mags[1:3] < mags[k_sig])


class TestDetectFrequency:
    def test_noiseless_super_threshold_exact(self):
        # undamped drive big enough to switch on its own: the estimate lands
        # on the exact signal bin
        damped = DampedSine(0.2, 0.0, 500.0)
        report = detect_frequency(
            CFG, damped, NoiseSpec(0.0, 20000.0, seed=0), 20000.0, 0.4
        )
        assert report.f_est == pytest.approx(500.0, abs=2.5)
        assert report.error_pct < 1.0

    def test_paper_config_single_run(self):
        damped = DampedSine(0.1, 5.0, 500.0)
        report = detect_frequency(
            CFG, damped, NoiseSpec(0.01, 20000.0, seed=0), 20000.0, 0.4
        )
        assert report.detected
        assert report.error_pct <= 1.0
        assert report.sigma == 0.01
        assert report.seed == 0

    def test_low_frequency_usually_missed(self):
        # 10 Hz gives at most a few modulation cycles in 0.4 s: below the
        # guard band, so the detector declines to answer
        damped = DampedSine(0.1, 5.0, 10.0)
        report = detect_frequency(
            CFG, damped, NoiseSpec(0.01, 20000.0, seed=0), 20000.0, 0.4
        )
        assert report.f_est is None

    def test_requires_damped_spec(self):
        with pytest.raises(ValueError):
            detect_frequency(
                CFG, Sine(0.1, 500.0), NoiseSpec(0.01, 20000.0, seed=0), 20000.0, 0.4
            )

    def test_deterministic(self):
        damped = DampedSine(0.1, 5.0, 500.0)
        a = detect_frequency(CFG, damped, NoiseSpec(0.01, 20000.0, seed=4), 20000.0, 0.4)
        b = detect_frequency(CFG, damped, NoiseSpec(0.01, 20000.0, seed=4), 20000.0, 0.4)
        assert a == b


BAD_GUARDS = [float("nan"), float("inf"), -float("inf"), -5.0, -1e-300]


class TestDcGuard:
    """A guard that is not a finite frequency >= 0 is refused before any
    noise is drawn."""

    @pytest.fixture
    def draws(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(srlab.experiments, "_draw_noise",
                            lambda *args: drawn.append(args) or 1 / 0)
        return drawn

    @pytest.mark.parametrize("guard", BAD_GUARDS)
    def test_setup_refuses(self, guard):
        with pytest.raises(ValueError, match="dc_guard_hz must be finite and >= 0"):
            DetectionSetup(dc_guard_hz=guard)

    @pytest.mark.parametrize("guard", BAD_GUARDS)
    def test_detector_refuses_before_drawing(self, draws, guard):
        with pytest.raises(ValueError, match="dc_guard_hz must be finite and >= 0"):
            detect_frequency(CFG, DampedSine(0.1, 5.0, 500.0), NoiseSpec(0.01, 20000.0),
                             20000.0, 0.05, dc_guard_hz=guard)
        assert draws == []

    @pytest.mark.parametrize("argv", [
        ["detect-freq", "--dc-guard", "nan"],
        ["detect-freq", "--dc-guard", "-5"],
        ["freq-table", "--dc-guard", "inf", "--frequencies", "50,500", "--repeats", "2"],
        ["freq-table", "--dc-guard", "-5", "--frequencies", "50,500", "--repeats", "2"],
    ], ids=lambda argv: "_".join(argv[:3]))
    def test_cli_exits_2_before_drawing(self, draws, tmp_path, argv):
        assert main([*argv, "--duration", "0.05", "--out-dir", str(tmp_path / "out")]) == 2
        assert draws == []

    def test_zero_and_default_guards_run(self):
        for guard in (None, 0.0):
            report = detect_frequency(CFG, DampedSine(0.1, 5.0, 500.0), NoiseSpec(0.01, 20000.0),
                                      20000.0, 0.05, dc_guard_hz=guard)
            assert report.f_true == 500.0


class TestErrorTable:
    def test_seed_and_stream_protocol(self):
        # repeat r uses seed_base + r; frequency i uses stream i — verify by
        # reproducing one cell directly
        setup = DetectionSetup(seed_base=100)
        reports = error_rate_table(CFG, [500.0, 1000.0], setup, repeats=2)
        assert len(reports) == 4
        cell = reports[3]  # frequency index 1, repeat 1
        direct = detect_frequency(
            CFG,
            DampedSine(setup.amplitude, setup.decay, 1000.0),
            NoiseSpec(setup.sigma, setup.sample_rate, seed=101),
            setup.sample_rate,
            setup.duration,
            stream=1,
        )
        assert cell == direct

    def test_empty_frequency_list_rejected(self):
        with pytest.raises(ValueError):
            error_rate_table(CFG, [], DetectionSetup())
        with pytest.raises(ValueError):
            error_rate_table(CFG, [500.0], DetectionSetup(), repeats=0)

    def test_repeated_frequency_rejected(self):
        # its rows would come from two streams and be merged into one summary
        with pytest.raises(ValueError, match="frequency 10.0 Hz is listed more than once"):
            error_rate_table(CFG, [10.0, 500.0, 10.0], DetectionSetup(duration=0.05))

    def test_unsorted_frequencies_keep_their_order(self):
        setup = DetectionSetup(duration=0.05)
        reports = error_rate_table(CFG, [500.0, 10.0], setup, repeats=2)
        assert [r.f_true for r in reports] == [500.0, 500.0, 10.0, 10.0]
        assert reports[3] == detect_frequency(
            CFG, DampedSine(setup.amplitude, setup.decay, 10.0),
            NoiseSpec(setup.sigma, setup.sample_rate, seed=1), setup.sample_rate,
            setup.duration, stream=1)

    def test_mid_band_accuracy_and_low_band_misses(self):
        reports = error_rate_table(CFG, [10.0, 500.0], DetectionSetup(), repeats=5)
        by_f = {s.f_true: s for s in summarize_error_table(reports)}
        assert by_f[500.0].n_detected == 5
        assert by_f[500.0].mean_error_pct <= 1.0
        assert by_f[10.0].n_detected <= 0.5 * by_f[10.0].n_runs


class TestSummary:
    def test_groups_and_averages(self):
        reports = [
            FreqDetectReport(500.0, 500.0, 0.0, 0.01, 0),
            FreqDetectReport(500.0, 510.0, 2.0, 0.01, 1),
            FreqDetectReport(10.0, None, None, 0.01, 0),
        ]
        by_f = {s.f_true: s for s in summarize_error_table(reports)}
        assert by_f[500.0].mean_error_pct == pytest.approx(1.0)
        assert by_f[500.0].n_detected == 2
        assert by_f[500.0].n_runs == 2
        assert by_f[10.0].mean_error_pct is None
        assert by_f[10.0].n_detected == 0
        assert by_f[10.0].n_runs == 1


class TestOptimalSigma:
    def test_star_sits_inside_sr_band(self):
        damped = DampedSine(0.1, 5.0, 500.0)
        sigma_star, curve = optimal_sigma_search(
            CFG, damped, [0.01, 0.02, 0.03, 0.04, 0.05], repeats=4, duration=0.4
        )
        assert 0.02 <= sigma_star <= 0.05
        assert len(curve) == 5
        # interior beats the starved low end
        assert curve.snr_mean_db[np.argmax(curve.snr_mean_db)] > curve.snr_mean_db[0]

    def test_short_grid_returns_argmax(self):
        damped = DampedSine(0.1, 5.0, 500.0)
        sigma_star, curve = optimal_sigma_search(
            CFG, damped, [0.01, 0.03], repeats=2, duration=0.2
        )
        assert sigma_star in (0.01, 0.03)
        assert len(curve) == 2

    def test_requires_damped_spec(self):
        with pytest.raises(ValueError):
            optimal_sigma_search(CFG, Sine(0.1, 500.0), [0.01, 0.02, 0.03])

    def test_detection_improves_at_star(self):
        # scoring at sigma* versus the grid floor: the calibrated level wins
        damped = DampedSine(0.1, 5.0, 500.0)
        sigma_star, _ = optimal_sigma_search(
            CFG, damped, [0.01, 0.02, 0.03, 0.04, 0.05], repeats=4, seed_base=0
        )

        def mean_error(sigma):
            errs = []
            for r in range(6):
                rep = detect_frequency(
                    CFG, damped, NoiseSpec(sigma, 20000.0, seed=7000 + r), 20000.0, 0.4
                )
                errs.append(rep.error_pct if rep.detected else 100.0)
            return float(np.mean(errs))

        assert mean_error(sigma_star) < mean_error(0.01)
