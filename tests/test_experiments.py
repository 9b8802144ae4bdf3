import numpy as np
import pytest

from srlab.experiments import (
    SweepResult,
    capture_transitions,
    find_sr_peak,
    signal_frequency,
    snr_sigma_sweep,
)
from srlab.noise import NoiseSpec, generate_noise
from srlab.signals import DampedSine, Dc, Ramp, Sine, generate
from srlab.spectral import periodogram, snr_db
from srlab.trigger import ideal_config, run, transition_count

CFG = ideal_config(1.0, 0.045, 0.5)
SIGNAL = Sine(0.05, 500.0)  # sub-threshold after the divider


def _small_sweep(seed=0, repeats=4):
    return snr_sigma_sweep(
        CFG,
        SIGNAL,
        NoiseSpec(1.0, 20000.0, seed=seed),
        [0.005, 0.05, 0.3],
        20000.0,
        0.2,
        repeats=repeats,
    )


class TestSweepResult:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SweepResult([0.1, 0.2], [1.0], [0.0, 0.0], repeats=2, seed_base=0)

    def test_repeats_validated(self):
        with pytest.raises(ValueError):
            SweepResult([0.1], [1.0], [0.0], repeats=0, seed_base=0)

    def test_len(self):
        sw = SweepResult([0.1, 0.2, 0.3], [1.0, 2.0, 1.5], [0.1, 0.1, 0.1], 2, 0)
        assert len(sw) == 3


class TestSignalFrequency:
    def test_oscillatory_specs(self):
        assert signal_frequency(Sine(0.1, 250.0)) == 250.0
        assert signal_frequency(DampedSine(0.1, 5.0, 1000.0)) == 1000.0

    def test_non_oscillatory_rejected(self):
        with pytest.raises(ValueError):
            signal_frequency(Dc(0.1))
        with pytest.raises(ValueError):
            signal_frequency(Ramp(-0.1, 0.1))


class TestSweep:
    def test_reproducible(self):
        a = _small_sweep(seed=3)
        b = _small_sweep(seed=3)
        np.testing.assert_array_equal(a.snr_mean_db, b.snr_mean_db)
        np.testing.assert_array_equal(a.snr_std_db, b.snr_std_db)
        assert a.seed_base == 3

    def test_seed_changes_realizations(self):
        a = _small_sweep(seed=3)
        b = _small_sweep(seed=4)
        assert not np.array_equal(a.snr_mean_db, b.snr_mean_db)

    def test_resonance_shape(self):
        # the interior noise level beats both the starved and the swamped end
        sw = _small_sweep()
        assert sw.snr_mean_db[1] > sw.snr_mean_db[0]
        assert sw.snr_mean_db[1] > sw.snr_mean_db[2]

    def test_two_seed_bases_agree_on_the_peak(self):
        a = _small_sweep(seed=0)
        b = _small_sweep(seed=101)
        assert np.argmax(a.snr_mean_db) == np.argmax(b.snr_mean_db) == 1

    def test_cell_stream_protocol(self):
        # cell (i, r) uses stream i*repeats + r: rebuild every level by hand
        sigmas, repeats = [0.005, 0.05, 0.3], 3
        sw = snr_sigma_sweep(
            CFG, SIGNAL, NoiseSpec(1.0, 20000.0, seed=7), sigmas, 20000.0, 0.1, repeats
        )
        signal = generate(SIGNAL, 20000.0, 0.1)
        for i, sigma in enumerate(sigmas):
            snrs = [
                snr_db(periodogram(run(CFG, signal, generate_noise(
                    NoiseSpec(sigma, 20000.0, seed=7), 20000.0, 0.1, stream=i * repeats + r
                ))), 500.0)
                for r in range(repeats)
            ]
            assert sw.snr_mean_db[i] == np.mean(snrs)
            assert sw.snr_std_db[i] == np.std(snrs)

    def test_single_sigma_allowed(self):
        sw = snr_sigma_sweep(
            CFG, SIGNAL, NoiseSpec(1.0, 20000.0, seed=0), [0.05], 20000.0, 0.1, repeats=2
        )
        assert len(sw) == 1
        assert np.isfinite(sw.snr_mean_db).all()

    def test_grid_validation(self):
        ns = NoiseSpec(1.0, 20000.0, seed=0)
        with pytest.raises(ValueError):
            snr_sigma_sweep(CFG, SIGNAL, ns, [], 20000.0, 0.1)
        with pytest.raises(ValueError):
            snr_sigma_sweep(CFG, SIGNAL, ns, [0.1, 0.05], 20000.0, 0.1)
        with pytest.raises(ValueError):
            snr_sigma_sweep(CFG, SIGNAL, ns, [0.05], 20000.0, 0.1, repeats=0)

    def test_non_oscillatory_signal_rejected(self):
        with pytest.raises(ValueError):
            snr_sigma_sweep(
                CFG, Dc(0.05), NoiseSpec(1.0, 20000.0, seed=0), [0.05], 20000.0, 0.1
            )


class TestFindPeak:
    def test_picks_maximum(self):
        sw = SweepResult([0.1, 0.2, 0.3], [1.0, 5.0, 2.0], [0.1] * 3, 2, 0)
        assert find_sr_peak(sw) == (0.2, 5.0)

    def test_tie_goes_to_smaller_sigma(self):
        sw = SweepResult([0.1, 0.2, 0.3], [5.0, 5.0, 1.0], [0.1] * 3, 2, 0)
        assert find_sr_peak(sw)[0] == 0.1

    def test_needs_three_points(self):
        sw = SweepResult([0.1, 0.2], [1.0, 2.0], [0.1, 0.1], 2, 0)
        with pytest.raises(ValueError):
            find_sr_peak(sw)

    def test_peak_on_measured_curve(self):
        sigma_star, snr_star = find_sr_peak(_small_sweep())
        assert sigma_star == 0.05
        assert snr_star > 0.0


class TestCapture:
    def test_combined_is_attenuated_sum(self):
        sig, combined, out = capture_transitions(
            CFG, SIGNAL, NoiseSpec(0.1, 20000.0, seed=2), 20000.0, 0.05
        )
        assert sig.n_samples == combined.n_samples == out.n_samples
        assert sig.dt == combined.dt == out.dt
        # reconstruct the noise from the returned traces and recheck the sum
        noise = combined.samples / CFG.input_attenuation - sig.samples
        np.testing.assert_allclose(
            combined.samples, CFG.input_attenuation * (sig.samples + noise), atol=1e-15
        )

    def test_silent_sub_threshold_run_never_switches(self):
        _, _, out = capture_transitions(
            CFG, SIGNAL, NoiseSpec(0.0, 20000.0, seed=0), 20000.0, 0.1
        )
        assert transition_count(out) == 0
        assert np.all(out.samples == out.samples[0])

    def test_switching_rate_grows_with_sigma(self):
        counts = []
        for sigma in (0.02, 0.1, 0.4):
            _, _, out = capture_transitions(
                CFG, SIGNAL, NoiseSpec(sigma, 20000.0, seed=6), 20000.0, 0.2
            )
            counts.append(transition_count(out))
        assert counts[0] < counts[1] < counts[2]

    def test_stream_selects_realization(self):
        _, _, a = capture_transitions(
            CFG, SIGNAL, NoiseSpec(0.1, 20000.0, seed=2), 20000.0, 0.05, stream=0
        )
        _, _, b = capture_transitions(
            CFG, SIGNAL, NoiseSpec(0.1, 20000.0, seed=2), 20000.0, 0.05, stream=1
        )
        _, _, a2 = capture_transitions(
            CFG, SIGNAL, NoiseSpec(0.1, 20000.0, seed=2), 20000.0, 0.05, stream=0
        )
        assert not np.array_equal(a.samples, b.samples)
        np.testing.assert_array_equal(a.samples, a2.samples)
