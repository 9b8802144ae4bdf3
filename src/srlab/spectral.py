"""One-sided magnitude spectra and the SNR / peak-picking rules built on them.

Magnitudes come from an unnormalized forward FFT; everything downstream
works in dB, so any fixed normalization would cancel out of the SNR and
peak comparisons anyway.

Experiments take their spectra a block of rows at a time: one rfft call
over up to BLOCK_SAMPLES samples costs each row about half of what a call
of its own does at n = 8 000 (the plan is made once per call), and each
row of the block gives the same bytes as its own call.  A Spectrum is one
row or such a block, and snr_db and second_peak_frequency read either.
The block path pays off while a block holds two rows or more, that is for
n <= BLOCK_SAMPLES / 2; a longer row is a block of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from srlab.signals import Trace, _require, _require_count

MAG_FLOOR = 1e-12
MIN_PROMINENCE_DB = 6.0
BLOCK_SAMPLES = 2**16  # samples per spectral block; a block holds at least one row


def block_rows(n_samples: int) -> int:
    """Rows of n_samples in one spectral block: as many as BLOCK_SAMPLES
    holds, and at least one, so a longer row keeps a block to itself."""
    return max(1, BLOCK_SAMPLES // n_samples)


@dataclass(frozen=True)
class Spectrum:
    """One-sided magnitude spectrum in dB, or a block of them on one grid.

    Bin k sits at frequency k * df; the last axis of mag_db has floor(n/2)+1
    entries for n-sample rows, and a 2-D mag_db holds one spectrum per row.
    """

    df: float
    mag_db: np.ndarray
    n_samples: int

    def __post_init__(self):
        object.__setattr__(self, "mag_db", np.asarray(self.mag_db, dtype=np.float64))
        _require("df", self.df, positive=True)
        _require_count("n_samples", self.n_samples, 1)
        if self.mag_db.ndim not in (1, 2):
            raise ValueError(f"mag_db must be 1-D or a 2-D block, got {self.mag_db.ndim}-D")
        if self.mag_db.shape[-1] != self.n_samples // 2 + 1:
            raise ValueError(
                f"mag_db length {self.mag_db.shape[-1]} inconsistent with "
                f"n_samples {self.n_samples}"
            )
        if not np.all(np.isfinite(self.mag_db)):
            raise ValueError("mag_db must be finite")


def _mag_db(rows: np.ndarray, fft_out=None, out=None) -> np.ndarray:
    """20*log10(|X_k|) of every row of a 2-D array, |X_k| clamped below by
    MAG_FLOOR, in one rfft call; into fft_out and out when they are given."""
    mag = np.abs(np.fft.rfft(rows, axis=-1, out=fft_out), out=out)
    np.maximum(mag, MAG_FLOOR, out=mag)
    np.log10(mag, out=mag)
    mag *= 20.0
    return mag


def periodogram(trace: Trace) -> Spectrum:
    """One-sided magnitude spectrum of a trace (rectangular window, no
    taper): the one-row case of the experiments' block spectra."""
    x = trace.samples
    return Spectrum(df=trace.sample_rate / x.size, mag_db=_mag_db(x[np.newaxis])[0],
                    n_samples=x.size)


class _SpectrumBlock:
    """Work arrays for the spectra of blocks of rows on a drive's grid, made
    once per experiment call and reused by every block.

    The reuse is part of the speed: a block's arrays are large enough that
    the allocator maps fresh pages for each new one and unmaps them when it
    is freed, and faulting those pages in again per block costs more than
    the batched FFT saves.  They are one allocation, not several: glibc
    returns the top of its heap to the system once more than twice its
    mmap threshold is free there, and the threshold follows the largest
    mapping freed so far; two buffers freed together crossed that line on
    some calls, one buffer does not.
    """

    def __init__(self, drive: Trace, max_rows: int):
        n = drive.n_samples
        rows = max(1, min(max_rows, block_rows(n)))
        self.df = drive.sample_rate / n
        self.n_samples = n
        bins = n // 2 + 1
        # One allocation holds the complex spectra, then the time rows; the
        # dB rows reuse the time rows' memory, which the FFT has read.
        work = np.empty(rows * bins + (rows * n + 1) // 2, dtype=np.complex128)
        self._fft = work[:rows * bins].reshape(rows, bins)
        flat = work[rows * bins:].view(np.float64)
        self.rows = flat[:rows * n].reshape(rows, n)
        self._mag = flat[:rows * bins].reshape(rows, bins)

    def spectrum(self, outputs, write_row) -> Spectrum:
        """Block spectrum of a list of outputs, at most one row each:
        write_row(output, row) fills an output's row, then one FFT covers
        the block.  Its mag_db is a view of the work array, which the next
        call overwrites, so the caller reduces it before asking again."""
        count = len(outputs)
        for output, row in zip(outputs, self.rows[:count], strict=True):
            write_row(output, row)
        mag = _mag_db(self.rows[:count], self._fft[:count], self._mag[:count])
        return Spectrum(df=self.df, mag_db=mag, n_samples=self.n_samples)


def signal_bin(df: float, n_samples: int, f: float) -> int:
    """Bin nearest f on the grid of n-sample spectra with step df; refuses f
    outside (0, Nyquist] and an f below half a bin, whose nearest bin is DC."""
    nyquist = df * (n_samples // 2)
    if not 0.0 < f <= nyquist:
        raise ValueError(f"frequency {f} Hz outside (0, {nyquist}] Hz band")
    k = int(round(f / df))
    if k == 0:
        raise ValueError(
            f"frequency {f} Hz is below half a bin ({df / 2.0} Hz), so its nearest bin is DC"
        )
    return k


def snr_db(spectrum: Spectrum, f_signal: float):
    """Signal-to-noise ratio in dB: magnitude at the bin nearest f_signal
    minus the mean dB magnitude of the spectrum; a float, or one per row of
    a block.

    The signal bin itself stays in the mean; its leverage over thousands of
    bins is negligible.
    """
    k = signal_bin(spectrum.df, spectrum.n_samples, f_signal)
    mags = spectrum.mag_db
    snr = mags[..., k] - np.mean(mags, axis=-1)
    return float(snr) if mags.ndim == 1 else snr


def second_peak_frequency(spectrum: Spectrum, dc_guard_hz: float | None = None):
    """Frequency of the dominant non-DC spectral peak, or None; one per row
    of a block, as a list.

    The spectrum of a switched output always has its largest structure at
    and around 0 Hz, so candidate bins must lie above dc_guard_hz (default
    2*df, skipping DC and its immediate leakage) and be strict local maxima
    (a point standing above both neighbours rather than a slope of the DC
    structure).  The winner is the largest candidate; it must clear the
    spectrum's median magnitude by MIN_PROMINENCE_DB.
    """
    lo = _first_candidate(spectrum, dc_guard_hz)
    mags = spectrum.mag_db
    if mags.ndim == 1:
        return _peak_frequency(mags, spectrum.df, lo)
    return [_peak_frequency(row, spectrum.df, lo) for row in mags]


def _first_candidate(spectrum: Spectrum, dc_guard_hz: float | None) -> int:
    # The first bin k >= 1 whose frequency df * k exceeds dc_guard_hz; the
    # floor of the quotient never passes it and falls at most two bins short.
    df = spectrum.df
    _check_dc_guard(dc_guard_hz)
    if dc_guard_hz is None:
        dc_guard_hz = 2.0 * df
    size = spectrum.mag_db.shape[-1]
    lo = max(1, math.floor(min(dc_guard_hz / df, size)))
    while lo < size and not df * lo > dc_guard_hz:
        lo += 1
    return lo


def _check_dc_guard(dc_guard_hz: float | None) -> None:
    # None picks the default guard; any other guard is a finite frequency >= 0
    if dc_guard_hz is not None:
        _require("dc_guard_hz", dc_guard_hz)


def _peak_frequency(mags: np.ndarray, df: float, lo: int) -> float | None:
    # second_peak_frequency of one row, candidates from bin lo up
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
