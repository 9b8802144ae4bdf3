import numpy as np
import pytest

from srlab.noise import NoiseSpec, generate_noise
from srlab.signals import Sine, Trace, generate
from srlab.spectral import (
    MAG_FLOOR,
    Spectrum,
    periodogram,
    second_peak_frequency,
    snr_db,
)
from srlab.trigger import TriggerConfig, run


def _flat_spectrum(level_db, m=101, df=1.0):
    return Spectrum(df=df, mag_db=np.full(m, level_db), n_samples=2 * (m - 1))


class TestSpectrum:
    def test_validation(self):
        with pytest.raises(ValueError):
            Spectrum(df=0.0, mag_db=np.zeros(11), n_samples=20)
        with pytest.raises(ValueError):
            Spectrum(df=1.0, mag_db=np.zeros(10), n_samples=20)  # needs 11
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError):
                Spectrum(df=bad, mag_db=np.zeros(11), n_samples=20)
            mags = np.zeros(11)
            mags[4] = bad
            with pytest.raises(ValueError):
                Spectrum(df=1.0, mag_db=mags, n_samples=20)
        # a row count that is not an integer >= 1, even where mag_db's length fits it
        for mags, n in (([], -1), (np.zeros(1), 0), (np.zeros(11), 20.0), (np.zeros(11), True)):
            with pytest.raises(ValueError, match="n_samples must be an integer >= 1"):
                Spectrum(df=1.0, mag_db=mags, n_samples=n)


class TestPeriodogram:
    def test_on_bin_tone_magnitude(self):
        # unnormalized FFT of A*sin at an exact bin: |X| = A*n/2 there,
        # zero (floored) everywhere else
        tr = generate(Sine(0.1, 500.0), 20000.0, 0.1)  # n=2000, df=10
        spec = periodogram(tr)
        assert spec.df == pytest.approx(10.0)
        assert spec.mag_db[50] == pytest.approx(20.0 * np.log10(0.1 * 1000.0), abs=1e-9)
        assert spec.mag_db[10] == pytest.approx(20.0 * np.log10(MAG_FLOOR))

    def test_dc_bin(self):
        tr = Trace(1.0 / 1000.0, np.full(500, 0.25))
        spec = periodogram(tr)
        assert spec.mag_db[0] == pytest.approx(20.0 * np.log10(0.25 * 500.0), abs=1e-9)

    def test_parseval(self):
        # energy recovered from the dB magnitudes matches the time-domain
        # energy to high precision: sum|x|^2 == (|X0|^2 + |Xny|^2
        # + 2*sum_middle |Xk|^2) / n for even n
        tr = generate_noise(NoiseSpec(1.0, 8192.0, seed=17), 8192.0, 0.5)  # n=4096
        spec = periodogram(tr)
        mag = 10.0 ** (spec.mag_db / 20.0)
        spectral_energy = (
            mag[0] ** 2 + mag[-1] ** 2 + 2.0 * np.sum(mag[1:-1] ** 2)
        ) / tr.n_samples
        time_energy = float(np.sum(tr.samples**2))
        assert abs(spectral_energy - time_energy) / time_energy < 1e-9


class TestSnr:
    def test_pure_tone_is_loud(self):
        tr = generate(Sine(0.1, 500.0), 20000.0, 0.1)
        spec = periodogram(tr)
        assert snr_db(spec, 500.0) > 200.0

    def test_rounds_to_nearest_bin(self):
        tr = generate(Sine(0.1, 500.0), 20000.0, 0.1)  # df=10
        spec = periodogram(tr)
        assert snr_db(spec, 503.0) == snr_db(spec, 500.0)
        assert snr_db(spec, 497.0) == snr_db(spec, 500.0)

    def test_out_of_band_frequency_rejected(self):
        spec = _flat_spectrum(-100.0)
        with pytest.raises(ValueError):
            snr_db(spec, 0.0)
        with pytest.raises(ValueError):
            snr_db(spec, spec.df * (spec.mag_db.size - 1) + 1.0)

    def test_frequency_below_half_a_bin_refused(self):
        # bin 0 is DC: a drive whose nearest bin it is has no bin of its own
        spec = _flat_spectrum(-100.0, df=10.0)
        for f in (0.5, 4.9, 5.0):
            with pytest.raises(ValueError, match="half a bin"):
                snr_db(spec, f)
        assert snr_db(spec, 5.1) == snr_db(spec, 10.0)

    def test_noise_floor_snr_near_zero(self):
        # any single bin of a flat spectrum sits at the mean
        spec = _flat_spectrum(-100.0)
        assert snr_db(spec, 50.0) == pytest.approx(0.0, abs=1e-12)


class TestSecondPeak:
    def _with_tone(self, tone_bin, tone_db, slope=False):
        mags = np.full(101, -100.0)
        mags[0], mags[1], mags[2] = 0.0, -10.0, -20.0  # DC structure
        if slope:
            mags[3:11] = np.linspace(-25.0, -95.0, 8)  # monotone DC skirt
        mags[tone_bin] = tone_db
        return Spectrum(df=1.0, mag_db=mags, n_samples=200)

    def test_finds_dominant_non_dc_peak(self):
        spec = self._with_tone(25, -30.0)
        assert second_peak_frequency(spec) == 25.0

    def test_skirt_is_not_a_peak(self):
        # bins on the decaying DC skirt are larger than the tone but are not
        # local maxima, so the tone still wins
        spec = self._with_tone(25, -30.0, slope=True)
        assert second_peak_frequency(spec) == 25.0

    def test_prominence_gate(self):
        spec = self._with_tone(25, -95.0)  # only 5 dB above the -100 median
        assert second_peak_frequency(spec) is None
        assert second_peak_frequency(self._with_tone(25, -93.0)) == 25.0  # 7 dB

    def test_dc_guard_excludes_low_bins(self):
        spec = self._with_tone(2, -5.0)
        # default guard 2*df masks bin 2 entirely; nothing else stands out
        assert second_peak_frequency(spec) is None
        spec2 = self._with_tone(4, -30.0)
        assert second_peak_frequency(spec2, dc_guard_hz=10.0) is None
        for guard in (float("nan"), float("inf"), -5.0):
            with pytest.raises(ValueError):
                second_peak_frequency(spec2, dc_guard_hz=guard)

    def test_flat_spectrum_has_no_peak(self):
        assert second_peak_frequency(_flat_spectrum(-80.0)) is None

    def test_block_reads_each_row(self):
        tone = self._with_tone(25, -30.0)
        flat = _flat_spectrum(-80.0)
        block = Spectrum(df=1.0, mag_db=np.stack([tone.mag_db, flat.mag_db]), n_samples=200)
        assert second_peak_frequency(block) == [25.0, None]
        assert second_peak_frequency(block) == [second_peak_frequency(tone),
                                                second_peak_frequency(flat)]

    def test_square_wave_fundamental(self):
        # switched output driven by a super-threshold tone: the dominant
        # non-DC line is the drive frequency
        cfg = TriggerConfig(1.0, -1.0, 0.045, -0.045, input_attenuation=1.0)
        sig = generate(Sine(0.2, 500.0), 20000.0, 0.4)
        silence = Trace(sig.dt, np.zeros(sig.n_samples))
        out = run(cfg, sig, silence)
        spec = periodogram(Trace(out.dt, out.samples))
        assert second_peak_frequency(spec) == pytest.approx(500.0, abs=spec.df)
