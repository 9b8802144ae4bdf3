"""Parallel detector arrays for characterizing an unknown signal.

A single trigger+noise channel answers one question: "does this threshold,
at this noise level, resonate with the input?"  An array of channels
varying in threshold (at common noise) localizes an unknown amplitude: the
channels whose thresholds sit below the amplitude's reach switch
periodically, the rest only sporadically, and the boundary brackets the
amplitude.  An array varying in noise level (at common threshold) instead
finds a channel in resonance whose output spectrum reveals the frequency.

Resonance here is a transition-rate criterion — at resonance the output
hops about once per half period — and the stochastic boundary is smoothed
by majority voting over independent seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections import Counter
from collections.abc import Sized

import numpy as np

from srlab.experiments import check_cells, increasing_grid
from srlab.freq_detect import _transition_peaks
from srlab.noise import NoiseSpec
from srlab.signals import SignalSpec, generate
from srlab.trigger import TriggerConfig, _symmetric


@dataclass(frozen=True)
class Detector:
    """One channel: a noise level feeding one trigger configuration."""

    sigma: float
    config: TriggerConfig

    def __post_init__(self):
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")


@dataclass(frozen=True)
class BankConfig:
    """An array of detectors plus the resonance criterion.

    min_transition_rate_hz: output transition rate at or above which a
    channel counts as resonating.  Scale it to the expected signal band —
    resonance_rate_for(f) gives the natural choice of one hop per half
    period.
    """

    detectors: tuple
    min_transition_rate_hz: float

    def __post_init__(self):
        object.__setattr__(self, "detectors", tuple(self.detectors))
        if len(self.detectors) < 2:
            raise ValueError(f"a bank needs >= 2 detectors, got {len(self.detectors)}")
        if not 0.0 < self.min_transition_rate_hz < math.inf:
            raise ValueError(
                f"min_transition_rate_hz must be in (0, inf), got {self.min_transition_rate_hz}"
            )


def resonance_rate_for(frequency: float) -> float:
    """Transition-rate criterion matched to a drive frequency: at resonance
    the output crosses about once per half period, i.e. rate ~ frequency."""
    if frequency <= 0.0:
        raise ValueError(f"frequency must be > 0, got {frequency}")
    return frequency


@dataclass(frozen=True)
class DetectorResult:
    """Per-channel outcome of a bank run."""

    threshold: float
    sigma: float
    transition_rate_hz: float
    resonating: bool
    f_est: float | None


@dataclass(frozen=True)
class BankReport:
    """All channel outcomes, plus the amplitude bracket when the bank was a
    threshold sweep and the boundary fell inside it (None otherwise)."""

    results: tuple
    amplitude_low: float | None = None
    amplitude_high: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "results", tuple(self.results))
        if (
            self.amplitude_low is not None
            and self.amplitude_high is not None
            and not self.amplitude_low < self.amplitude_high
        ):
            raise ValueError(
                f"bracket must satisfy low < high, got [{self.amplitude_low}, "
                f"{self.amplitude_high}]"
            )

    def resonance_flags(self) -> list[bool]:
        return [r.resonating for r in self.results]


class AmbiguousResonancePattern(ValueError):
    """Raised when resonance flags are not monotone in threshold, so no
    single boundary exists; carries the offending report."""

    def __init__(self, report: BankReport):
        flags = "".join("R" if f else "n" for f in report.resonance_flags())
        super().__init__(f"resonance pattern {flags} is not monotone in threshold")
        self.report = report


def run_bank(
    bank: BankConfig,
    signal_spec: SignalSpec,
    sample_rate: float,
    duration: float,
    seed_base: int = 0,
    noise_rate: float | None = None,
) -> BankReport:
    """Run every detector on the same input with channel-independent noise
    (channel i uses stream i of seed_base); records each channel's
    transition rate, resonance flag, and spectral frequency estimate.

    This is vote_bank over the one seed base, whose vote is exact: the mean
    of one rate, the majority of one flag and the mode of one estimate."""
    return vote_bank(bank, signal_spec, sample_rate, duration, [seed_base], noise_rate)


def amplitude_bracket(report: BankReport) -> tuple[float, float] | None:
    """Boundary of the resonance pattern of a threshold-sweep report:
    (largest resonating threshold, smallest non-resonating threshold).

    None when the boundary lies outside the sweep (all channels resonate,
    or none do).  A non-monotone pattern raises AmbiguousResonancePattern —
    single noisy runs can flip isolated channels; vote_bank smooths that.
    """
    order = np.argsort([r.threshold for r in report.results], kind="stable")
    ordered = [report.results[i] for i in order]
    flags = [r.resonating for r in ordered]
    n_res = sum(flags)
    if flags != [True] * n_res + [False] * (len(flags) - n_res):
        raise AmbiguousResonancePattern(
            BankReport(results=ordered)
        )
    if n_res == 0 or n_res == len(flags):
        return None
    return ordered[n_res - 1].threshold, ordered[n_res].threshold


def most_common_estimate(estimates) -> float | None:
    """Most common frequency estimate, ties to the lowest; None entries
    (no detection) are skipped and an all-None input gives None."""
    counts = Counter(f for f in estimates if f is not None)
    if not counts:
        return None
    top = max(counts.values())
    return min(f for f, c in counts.items() if c == top)


def vote_bank(
    bank: BankConfig,
    signal_spec: SignalSpec,
    sample_rate: float,
    duration: float,
    seed_bases=range(20),
    noise_rate: float | None = None,
) -> BankReport:
    """Majority-voted bank run over independent seeds.

    Per channel: resonating by strict majority, transition rate averaged,
    frequency estimate the most common detected value (ties to the lowest).
    The voted pattern is what the amplitude bracket should be read from.
    """
    if not isinstance(seed_bases, Sized):  # an iterator is counted once listed
        seed_bases = list(seed_bases)
    check_cells(len(seed_bases) * len(bank.detectors), "seed_bases")
    seed_bases = list(seed_bases)
    if not seed_bases:
        raise ValueError("need at least one seed base to vote over")
    signal = generate(signal_spec, sample_rate, duration)
    # One simulate call over every (seed, channel) cell, seed-major;
    # channel i uses stream i of each seed base.
    cells = [(signal, det.config, NoiseSpec(det.sigma, noise_rate, seed=s), i)
             for s in seed_bases for i, det in enumerate(bank.detectors)]
    outcomes = _transition_peaks(cells, sample_rate, duration)
    n = len(bank.detectors)
    voted = []
    for i, det in enumerate(bank.detectors):
        rates, f_ests = zip(*outcomes[i::n])
        votes = sum(rate >= bank.min_transition_rate_hz for rate in rates)
        voted.append(DetectorResult(
            threshold=det.config.v_ut,
            sigma=det.sigma,
            transition_rate_hz=float(np.mean(rates)),
            resonating=votes * 2 > len(rates),
            f_est=most_common_estimate(f_ests),
        ))
    return BankReport(results=voted)


def threshold_sweep_bank(
    thresholds,
    sigma: float,
    min_transition_rate_hz: float,
) -> BankConfig:
    """Amplitude-bracketing preset: common noise level, symmetric threshold
    pairs swept over `thresholds` (strictly increasing), rails at +/-1 V.

    Channels take the raw input directly (no attenuator), so thresholds
    read in the same units as the signal amplitude being bracketed.
    """
    # tolist() and float(): DetectorResult fields stay Python floats, whose
    # repr is the plain number
    thresholds = increasing_grid(thresholds, "thresholds").tolist()
    detectors = tuple(Detector(sigma=float(sigma), config=_symmetric(1.0, t, 1.0))
                      for t in thresholds)
    return BankConfig(detectors=detectors, min_transition_rate_hz=min_transition_rate_hz)


def sigma_sweep_bank(
    sigmas,
    threshold: float,
    min_transition_rate_hz: float,
) -> BankConfig:
    """Frequency-hunting preset: common symmetric threshold, rails at
    +/-1 V, noise level swept over `sigmas` (strictly increasing); read
    f_est off whichever channels resonate."""
    sigmas = increasing_grid(sigmas, "sigmas").tolist()
    config = _symmetric(1.0, float(threshold), 1.0)
    detectors = tuple(Detector(sigma=s, config=config) for s in sigmas)
    return BankConfig(detectors=detectors, min_transition_rate_hz=min_transition_rate_hz)
