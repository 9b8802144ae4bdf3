"""One-sided magnitude spectra and the SNR / peak-picking rules built on them.

Magnitudes come from an unnormalized forward FFT; everything downstream
works in dB, so any fixed normalization would cancel out of the SNR and
peak comparisons anyway.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from srlab.signals import Trace

MAG_FLOOR = 1e-12
MIN_PROMINENCE_DB = 6.0


@dataclass(frozen=True)
class Spectrum:
    """One-sided magnitude spectrum in dB.

    Bin k sits at frequency k * df; mag_db has floor(n/2)+1 entries for an
    n-sample trace.
    """

    df: float
    mag_db: np.ndarray
    n_samples: int

    def __post_init__(self):
        object.__setattr__(self, "mag_db", np.asarray(self.mag_db, dtype=np.float64))
        if not 0.0 < self.df < math.inf:
            raise ValueError(f"df must be finite and > 0, got {self.df}")
        if self.mag_db.size != self.n_samples // 2 + 1:
            raise ValueError(
                f"mag_db length {self.mag_db.size} inconsistent with n_samples {self.n_samples}"
            )
        if not np.all(np.isfinite(self.mag_db)):
            raise ValueError("mag_db must be finite")

    @property
    def nyquist(self) -> float:
        return self.df * (self.mag_db.size - 1)


def periodogram(trace: Trace) -> Spectrum:
    """One-sided magnitude spectrum of a trace (rectangular window, no
    taper); mag_db = 20*log10(|X_k|) with |X_k| clamped below by MAG_FLOOR."""
    x = trace.samples
    mag = np.abs(np.fft.rfft(x))
    np.maximum(mag, MAG_FLOOR, out=mag)
    return Spectrum(df=trace.sample_rate / x.size, mag_db=20.0 * np.log10(mag), n_samples=x.size)


def _bin_for(spectrum: Spectrum, f: float) -> int:
    if not 0.0 < f <= spectrum.nyquist:
        raise ValueError(
            f"frequency {f} Hz outside (0, {spectrum.nyquist}] Hz band"
        )
    return int(round(f / spectrum.df))


def snr_db(spectrum: Spectrum, f_signal: float) -> float:
    """Signal-to-noise ratio in dB: magnitude at the bin nearest f_signal
    minus the mean dB magnitude of the spectrum.

    The signal bin itself stays in the mean; its leverage over thousands of
    bins is negligible.
    """
    k = _bin_for(spectrum, f_signal)
    mags = spectrum.mag_db
    return float(mags[k] - float(np.mean(mags)))


def second_peak_frequency(
    spectrum: Spectrum, dc_guard_hz: float | None = None
) -> float | None:
    """Frequency of the dominant non-DC spectral peak, or None.

    The spectrum of a switched output always has its largest structure at
    and around 0 Hz, so candidate bins must lie above dc_guard_hz (default
    2*df, skipping DC and its immediate leakage) and be strict local maxima
    (a point standing above both neighbours rather than a slope of the DC
    structure).  The winner is the largest candidate; it must clear the
    spectrum's median magnitude by MIN_PROMINENCE_DB.
    """
    if dc_guard_hz is None:
        dc_guard_hz = 2.0 * spectrum.df
    elif not 0.0 <= dc_guard_hz < math.inf:
        raise ValueError(f"dc_guard_hz must be finite and >= 0, got {dc_guard_hz}")
    mags = spectrum.mag_db
    df = spectrum.df
    # The first bin k >= 1 whose frequency df * k exceeds dc_guard_hz; the
    # floor of the quotient never passes it and falls at most two bins short.
    lo = max(1, math.floor(min(dc_guard_hz / df, mags.size)))
    while lo < mags.size and not df * lo > dc_guard_hz:
        lo += 1
    inner = mags[lo:-1]
    idx = np.flatnonzero((inner > mags[lo - 1:-2]) & (inner > mags[lo + 1:]))
    if idx.size == 0:
        return None
    k = lo + int(idx[np.argmax(inner[idx])])
    # The median by selection; mag_db is finite, so this equals np.median up
    # to the sign of a zero median, which adding the prominence erases.
    h = mags.size // 2
    if mags.size % 2:
        median = np.partition(mags, h)[h]
    else:
        part = np.partition(mags, (h - 1, h))
        median = (part[h - 1] + part[h]) / 2.0
    if mags[k] < median + MIN_PROMINENCE_DB:
        return None
    return float(df * k)
