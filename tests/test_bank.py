import itertools
import re
import tracemalloc

import numpy as np
import pytest

from srlab.bank import (
    AmbiguousResonancePattern,
    BankConfig,
    BankReport,
    Detector,
    DetectorResult,
    amplitude_bracket,
    most_common_estimate,
    resonance_rate_for,
    run_bank,
    sigma_sweep_bank,
    threshold_sweep_bank,
    vote_bank,
)
from srlab.experiments import MAX_CELLS
from srlab.freq_detect import transition_spectrum
from srlab.noise import NoiseSpec, generate_noise
from srlab.signals import Sine, generate
from srlab.spectral import second_peak_frequency
from srlab.trigger import TriggerConfig, run, transition_count


def _result(threshold, resonating, f_est=None, rate=0.0, sigma=0.002):
    return DetectorResult(
        threshold=threshold,
        sigma=sigma,
        transition_rate_hz=rate,
        resonating=resonating,
        f_est=f_est,
    )


def _report(flags, thresholds=None):
    thresholds = thresholds or [0.001 * 2**i for i in range(len(flags))]
    return BankReport(results=[_result(t, f) for t, f in zip(thresholds, flags)])


class TestConfigs:
    def test_detector_validation(self):
        cfg = TriggerConfig(1.0, -1.0, 0.01, -0.01, input_attenuation=1.0)
        for bad in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                Detector(sigma=bad, config=cfg)
        assert Detector(sigma=0.0, config=cfg).sigma == 0.0

    def test_bank_needs_two_channels(self):
        cfg = TriggerConfig(1.0, -1.0, 0.01, -0.01, input_attenuation=1.0)
        with pytest.raises(ValueError):
            BankConfig(detectors=(Detector(0.1, cfg),), min_transition_rate_hz=100.0)
        for rate in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                BankConfig(
                    detectors=(Detector(0.1, cfg), Detector(0.2, cfg)),
                    min_transition_rate_hz=rate,
                )

    def test_resonance_rate(self):
        assert resonance_rate_for(500.0) == 500.0
        # nan and inf would pass through as the rate criterion itself
        for frequency in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="frequency must be finite and > 0"):
                resonance_rate_for(frequency)

    def test_threshold_sweep_preset(self):
        bank = threshold_sweep_bank([0.001, 0.002, 0.004], 0.002, 250.0)
        assert len(bank.detectors) == 3
        assert [d.config.v_ut for d in bank.detectors] == [0.001, 0.002, 0.004]
        assert all(d.config.v_lt == -d.config.v_ut for d in bank.detectors)
        assert all(d.config.input_attenuation == 1.0 for d in bank.detectors)
        assert all(d.sigma == 0.002 for d in bank.detectors)

    def test_sigma_sweep_preset(self):
        bank = sigma_sweep_bank([0.004, 0.008, 0.012], 0.02, 250.0)
        assert [d.sigma for d in bank.detectors] == [0.004, 0.008, 0.012]
        assert all(d.config.v_ut == 0.02 for d in bank.detectors)

    def test_preset_ordering_enforced(self):
        with pytest.raises(ValueError, match="thresholds must be strictly increasing"):
            threshold_sweep_bank([0.002, 0.001], 0.002, 250.0)
        with pytest.raises(ValueError, match="sigmas must be strictly increasing"):
            sigma_sweep_bank([0.01, 0.01], 0.02, 250.0)
        with pytest.raises(ValueError, match="thresholds is empty"):
            threshold_sweep_bank([], 0.002, 250.0)

    def test_preset_fields_are_python_floats(self):
        # results are compared and printed by repr, which differs for np.float64
        for bank in (threshold_sweep_bank(np.array([0.001, 0.002]), np.float64(0.002), 250.0),
                     sigma_sweep_bank(np.array([0.004, 0.008]), np.float64(0.02), 250.0)):
            for d in bank.detectors:
                assert type(d.sigma) is float and type(d.config.v_ut) is float
                assert (d.config.v_sat_pos, d.config.v_sat_neg) == (1.0, -1.0)
                assert d.config.v_lt == -d.config.v_ut

    def test_bracket_order_validated(self):
        with pytest.raises(ValueError):
            BankReport(results=[_result(0.001, True)], amplitude_low=0.02, amplitude_high=0.01)


class TestBracket:
    def test_boundary_inside_sweep(self):
        report = _report([True, True, True, False, False],
                         thresholds=[0.001, 0.004, 0.008, 0.02, 0.05])
        assert amplitude_bracket(report) == (0.008, 0.02)

    def test_all_resonating_is_open_above(self):
        assert amplitude_bracket(_report([True, True, True])) is None

    def test_none_resonating_is_open_below(self):
        assert amplitude_bracket(_report([False, False, False])) is None

    def test_non_monotone_raises(self):
        report = _report([True, False, True])
        with pytest.raises(AmbiguousResonancePattern) as err:
            amplitude_bracket(report)
        assert err.value.report.resonance_flags() == [True, False, True]
        assert "RnR" in str(err.value)

    def test_sorts_by_threshold_first(self):
        # same pattern handed over in scrambled channel order
        results = [_result(0.02, False), _result(0.001, True), _result(0.008, True)]
        report = BankReport(results=results)
        assert amplitude_bracket(report) == (0.008, 0.02)


SIGNAL = Sine(0.01, 500.0)
THRESHOLDS = [0.001, 0.002, 0.004, 0.008, 0.016, 0.032, 0.064]


class TestRunBank:
    def test_single_run_brackets_amplitude(self):
        bank = threshold_sweep_bank(THRESHOLDS, 0.002, resonance_rate_for(500.0) / 2.0)
        report = run_bank(bank, SIGNAL, 20000.0, 0.4, seed_base=0)
        low, high = amplitude_bracket(report)
        assert low < 0.01 < high

    def test_channel_results_are_ordered_like_detectors(self):
        bank = threshold_sweep_bank(THRESHOLDS, 0.002, 250.0)
        report = run_bank(bank, SIGNAL, 20000.0, 0.2)
        assert [r.threshold for r in report.results] == THRESHOLDS

    def test_rates_fall_with_threshold(self):
        bank = threshold_sweep_bank(THRESHOLDS, 0.002, 250.0)
        report = run_bank(bank, SIGNAL, 20000.0, 0.4)
        rates = [r.transition_rate_hz for r in report.results]
        # sub-amplitude channels hop every period, far-above ones barely move
        assert rates[0] > 100.0
        assert rates[-1] < 50.0
        assert rates[0] > rates[-1]

    def test_deterministic(self):
        bank = threshold_sweep_bank(THRESHOLDS, 0.002, 250.0)
        a = run_bank(bank, SIGNAL, 20000.0, 0.2, seed_base=5)
        b = run_bank(bank, SIGNAL, 20000.0, 0.2, seed_base=5)
        assert a == b
        c = run_bank(bank, SIGNAL, 20000.0, 0.2, seed_base=6)
        assert a != c

    def test_channel_stream_protocol(self):
        # channel i uses stream i of seed_base: rebuild every channel by hand
        bank = threshold_sweep_bank(THRESHOLDS, 0.002, 250.0)
        report = run_bank(bank, SIGNAL, 20000.0, 0.2, seed_base=5)
        signal = generate(SIGNAL, 20000.0, 0.2)
        for i, det in enumerate(bank.detectors):
            noise = generate_noise(NoiseSpec(det.sigma, 20000.0, seed=5), 20000.0, 0.2, stream=i)
            out = run(det.config, signal, noise)
            assert report.results[i].transition_rate_hz == transition_count(out) / 0.2
            assert report.results[i].f_est == second_peak_frequency(transition_spectrum(out))

    def test_resonating_channels_report_the_frequency(self):
        bank = threshold_sweep_bank(THRESHOLDS[:4], 0.002, 250.0)
        report = run_bank(bank, SIGNAL, 20000.0, 0.4)
        for r in report.results:
            if r.resonating:
                assert r.f_est == pytest.approx(500.0, abs=2.5)

    def test_tiny_noise_gives_exact_threshold_cut(self):
        # nearly-noiseless: channels below the amplitude switch, the rest
        # never do, and the bracket tightens onto the two adjacent rungs
        bank = threshold_sweep_bank(THRESHOLDS, 1e-5, 250.0)
        report = run_bank(bank, SIGNAL, 20000.0, 0.4)
        assert amplitude_bracket(report) == (0.008, 0.016)


class TestVoteBank:
    def test_voted_pattern_is_monotone_and_brackets(self):
        bank = threshold_sweep_bank(THRESHOLDS, 0.002, resonance_rate_for(500.0) / 2.0)
        report = vote_bank(bank, SIGNAL, 20000.0, 0.4, seed_bases=range(7))
        low, high = amplitude_bracket(report)
        assert low < 0.01 < high

    def test_frequency_consensus(self):
        bank = sigma_sweep_bank([0.004, 0.008, 0.012, 0.016], 0.02, 100.0)
        report = vote_bank(bank, SIGNAL, 20000.0, 0.4, seed_bases=range(5))
        ests = [r.f_est for r in report.results if r.resonating and r.f_est]
        assert ests  # at least one channel in resonance
        assert any(abs(f - 500.0) <= 2.5 for f in ests)

    def test_empty_seed_list_rejected(self):
        bank = threshold_sweep_bank(THRESHOLDS[:2], 0.002, 250.0)
        with pytest.raises(ValueError):
            vote_bank(bank, SIGNAL, 20000.0, 0.2, seed_bases=[])
        with pytest.raises(ValueError):
            vote_bank(bank, SIGNAL, 20000.0, 0.2, seed_bases=iter([]))
        with pytest.raises(ValueError, match="seed_bases"):  # the cell ceiling
            vote_bank(bank, SIGNAL, 20000.0, 0.2, seed_bases=range(10**12))

    @pytest.mark.parametrize("seeds", [
        lambda: iter(range(10**6)),
        lambda: range(10**20),  # too long for len()
        itertools.count,  # endless
    ], ids=["iterator", "huge_range", "endless"])
    def test_oversized_seed_iterable_refused_after_the_ceiling(self, seeds):
        # 10**6 seeds on 7 channels ask for 7 000 000 cells: vote_bank reads
        # one seed past the ceiling's worth and refuses, holding no more
        bank = threshold_sweep_bank(THRESHOLDS, 0.002, 250.0)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="seed_bases") as exc:
                vote_bank(bank, SIGNAL, 20000.0, 0.2, seed_bases=seeds())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        # the only number it states is the ceiling, not a count nobody asked for
        assert re.findall(r"\d+", str(exc.value)) == [str(MAX_CELLS)]

    def test_modal_estimate_tie_breaks_low(self):
        # vote arithmetic probed directly on two seeds engineered to give
        # one detection each; with both values seen once the lower wins
        bank = threshold_sweep_bank(THRESHOLDS[:2], 0.002, 250.0)
        voted = vote_bank(bank, SIGNAL, 20000.0, 0.4, seed_bases=[0, 1])
        per_seed = [
            run_bank(bank, SIGNAL, 20000.0, 0.4, seed_base=s).results for s in (0, 1)
        ]
        for ch, row in enumerate(voted.results):
            ests = [r[ch].f_est for r in per_seed if r[ch].f_est is not None]
            if ests:
                counts = {f: ests.count(f) for f in set(ests)}
                top = max(counts.values())
                assert row.f_est == min(f for f, c in counts.items() if c == top)
            else:
                assert row.f_est is None

    def test_most_common_estimate(self):
        assert most_common_estimate([None, 500.0, 250.0, 500.0, 250.0]) == 250.0
        assert most_common_estimate([250.0, 500.0, 500.0]) == 500.0
        assert most_common_estimate([None, None]) is None
        assert most_common_estimate([]) is None

    def test_mean_rate_aggregation(self):
        bank = threshold_sweep_bank(THRESHOLDS[:3], 0.002, 250.0)
        voted = vote_bank(bank, SIGNAL, 20000.0, 0.2, seed_bases=[2, 3])
        singles = [run_bank(bank, SIGNAL, 20000.0, 0.2, seed_base=s) for s in (2, 3)]
        for ch in range(3):
            expected = np.mean([s.results[ch].transition_rate_hz for s in singles])
            assert voted.results[ch].transition_rate_hz == pytest.approx(expected)
        # an iterator of seeds is counted once listed, and votes the same
        assert vote_bank(bank, SIGNAL, 20000.0, 0.2, seed_bases=iter([2, 3])) == voted
