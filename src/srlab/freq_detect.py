"""Frequency detection of damped sinusoids from the comparator output.

The detector never reads the true frequency: it runs the trigger on
signal+noise, takes the spectrum of the output's transition train (the
first difference of the level trace), and picks the dominant non-DC peak.
The true frequency enters only when scoring a report or when searching for
the noise level that maximizes SNR at a hypothesized frequency.

Peak picking works on the transition train rather than the raw level trace
because a switched two-level output has a 1/f-shaped spectral skirt around
DC that can bury or impersonate the signal peak at low frequencies;
differencing applies a first-order high-pass that flattens the skirt while
leaving the switching periodicity in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from srlab.experiments import SweepResult, check_cells, simulate, snr_sigma_sweep
from srlab.noise import NoiseSpec
from srlab.signals import DampedSine, Trace, _require_count, generate
from srlab.spectral import (
    Spectrum,
    _check_dc_guard,
    _SpectrumBlock,
    periodogram,
    second_peak_frequency,
)
from srlab.trigger import SwitchList, TriggerConfig, transition_count


@dataclass(frozen=True)
class FreqDetectReport:
    """Outcome of one detection run.

    f_est and error_pct are None when no spectral peak qualified; sigma and
    seed record the noise condition the run used.
    """

    f_true: float
    f_est: float | None
    error_pct: float | None
    sigma: float
    seed: int

    def __post_init__(self):
        if (self.f_est is None) != (self.error_pct is None):
            raise ValueError("f_est and error_pct must be both present or both absent")
        if self.f_est is not None:
            expected = 100.0 * abs(self.f_est - self.f_true) / self.f_true
            if not np.isclose(self.error_pct, expected, rtol=1e-9, atol=1e-12):
                raise ValueError(
                    f"error_pct {self.error_pct} inconsistent with |{self.f_est} - "
                    f"{self.f_true}| / {self.f_true}"
                )

    @property
    def detected(self) -> bool:
        return self.f_est is not None


@dataclass(frozen=True)
class DetectionSetup:
    """Shared parameters for a detection campaign (everything but frequency).

    amplitude/decay describe the damped input at the generator; sigma the
    noise level; seed_base the first seed (repeat r uses seed_base + r).
    """

    amplitude: float = 0.1
    decay: float = 5.0
    sigma: float = 0.01
    sample_rate: float = 20000.0
    duration: float = 0.4
    seed_base: int = 0
    dc_guard_hz: float | None = None

    def __post_init__(self):
        _require_count("seed_base", self.seed_base, 0, 2**64)
        _check_dc_guard(self.dc_guard_hz)


def transition_spectrum(output: SwitchList) -> Spectrum:
    """Spectrum of the output's transition train (SwitchList.write_transitions),
    the one-row case of the detectors' block spectra."""
    return periodogram(Trace(dt=output.dt, samples=output.write_transitions(
        np.empty(output.n_samples))))


def _transition_peaks(cells, sample_rate, duration, dc_guard_hz=None) -> list:
    # (transition rate, f_est) of every simulate cell: the output's switches
    # per second and the second peak of its transition-train spectrum, in one
    # simulate call; every cell is on the first drive's grid, so one block fits.
    # A bad guard is refused here, before any noise is drawn
    _check_dc_guard(dc_guard_hz)
    block = _SpectrumBlock(cells[0][0], len(cells))

    def reduce(outs):
        f_ests = second_peak_frequency(
            block.spectrum(outs, SwitchList.write_transitions), dc_guard_hz)
        return [(transition_count(out) / duration, f_est) for out, f_est in zip(outs, f_ests)]

    return simulate(cells, sample_rate, duration, reduce)


def _detect_runs(trigger_config, runs, sample_rate, duration, dc_guard_hz) -> list:
    # the report of every (damped, drive, noise spec, stream) run
    peaks = _transition_peaks([(drive, trigger_config, spec, stream)
                               for _, drive, spec, stream in runs],
                              sample_rate, duration, dc_guard_hz)
    reports = []
    for (damped, _, spec, _), (_, f_est) in zip(runs, peaks):
        f = damped.frequency
        error = None if f_est is None else 100.0 * abs(f_est - f) / f
        reports.append(FreqDetectReport(f, f_est, error, spec.sigma, spec.seed))
    return reports


def detect_frequency(
    trigger_config: TriggerConfig,
    damped: DampedSine,
    noise_spec: NoiseSpec,
    sample_rate: float,
    duration: float,
    dc_guard_hz: float | None = None,
    stream: int = 0,
) -> FreqDetectReport:
    """Run one noisy trigger simulation and estimate the drive frequency
    from the output's transition-train spectrum.

    A run with no qualifying peak reports f_est=None — an answer ("nothing
    detected"), not an error.
    """
    if not isinstance(damped, DampedSine):
        raise ValueError(f"detector expects a damped sinusoid, got {damped!r}")
    drive = generate(damped, sample_rate, duration)
    [report] = _detect_runs(trigger_config, [(damped, drive, noise_spec, stream)],
                            sample_rate, duration, dc_guard_hz)
    return report


def error_rate_table(
    trigger_config: TriggerConfig,
    frequencies,
    base_params: DetectionSetup,
    repeats: int = 10,
) -> list[FreqDetectReport]:
    """Detection reports for every (frequency, repeat) cell.

    The frequencies must be distinct, in any order.  Repeat r of every
    frequency uses seed base_params.seed_base + r; cells of the same repeat
    differ by stream index, so the table is fully reproducible and every
    cell independent.  Each frequency's drive is generated once, up front,
    and the whole table is one simulate call.
    Use summarize_error_table() for the per-frequency aggregate view.
    """
    frequencies = [float(f) for f in frequencies]
    if not frequencies:
        raise ValueError("frequency list is empty")
    seen = set()
    for f in frequencies:
        if f in seen:  # summarize_error_table would merge its rows into one summary
            raise ValueError(f"frequency {f} Hz is listed more than once")
        seen.add(f)
    check_cells(len(frequencies), repeats, "repeats")
    p = base_params
    specs = [NoiseSpec(sigma=p.sigma, seed=p.seed_base + r)
             for r in range(repeats)]
    damped = [DampedSine(p.amplitude, p.decay, f) for f in frequencies]
    drives = [generate(d, p.sample_rate, p.duration) for d in damped]
    runs = [(d, drive, spec, i) for i, (d, drive) in enumerate(zip(damped, drives))
            for spec in specs]
    return _detect_runs(trigger_config, runs, p.sample_rate, p.duration, p.dc_guard_hz)


@dataclass(frozen=True)
class FreqErrorSummary:
    """Per-frequency aggregate of an error_rate_table run."""

    f_true: float
    mean_error_pct: float | None
    n_detected: int
    n_runs: int


def summarize_error_table(reports) -> list[FreqErrorSummary]:
    """Group reports by true frequency: mean error over detected runs (None
    if nothing was detected) plus detection counts."""
    by_freq: dict[float, list[FreqDetectReport]] = {}
    for rep in reports:
        by_freq.setdefault(rep.f_true, []).append(rep)
    summaries = []
    for f, reps in by_freq.items():
        errors = [r.error_pct for r in reps if r.detected]
        summaries.append(
            FreqErrorSummary(
                f_true=f,
                mean_error_pct=float(np.mean(errors)) if errors else None,
                n_detected=len(errors),
                n_runs=len(reps),
            )
        )
    return summaries


def optimal_sigma_search(
    trigger_config: TriggerConfig,
    damped: DampedSine,
    sigmas,
    repeats: int = 10,
    sample_rate: float = 20000.0,
    duration: float = 0.4,
    seed_base: int = 0,
    noise_rate: float | None = None,
) -> tuple[float, SweepResult]:
    """Pick the noise level that maximizes output SNR at the hypothesized
    frequency; returns (sigma_star, full SNR curve).

    This is the calibration step to run before detection when a frequency
    hypothesis exists: detection error at the returned sigma is typically
    far below the error at the grid's low end.
    """
    if not isinstance(damped, DampedSine):
        raise ValueError(f"expected a damped sinusoid, got {damped!r}")
    template = NoiseSpec(sigma=1.0, noise_rate=noise_rate, seed=seed_base)
    curve = snr_sigma_sweep(
        trigger_config, damped, template, sigmas, sample_rate, duration, repeats
    )
    return float(curve.sigmas[int(np.argmax(curve.snr_mean_db))]), curve
