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

from dataclasses import dataclass, replace
from collections import Counter

import numpy as np

from srlab.experiments import simulate
from srlab.freq_detect import transition_spectrum
from srlab.noise import NoiseSpec
from srlab.signals import SignalSpec, generate
from srlab.spectral import second_peak_frequency
from srlab.trigger import TriggerConfig, transition_count


@dataclass(frozen=True)
class Detector:
    """One channel: a noise level feeding one trigger configuration."""

    sigma: float
    config: TriggerConfig

    def __post_init__(self):
        if self.sigma < 0.0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")


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
        if self.min_transition_rate_hz <= 0.0:
            raise ValueError(
                f"min_transition_rate_hz must be > 0, got {self.min_transition_rate_hz}"
            )


def resonance_rate_for(frequency: float, hops_per_period: float = 1.0) -> float:
    """Transition-rate criterion matched to a drive frequency: at resonance
    the output crosses about once per half period, i.e. rate ~ frequency."""
    if frequency <= 0.0:
        raise ValueError(f"frequency must be > 0, got {frequency}")
    return hops_per_period * frequency


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
    transition rate, resonance flag, and spectral frequency estimate."""
    signal = generate(signal_spec, sample_rate, duration)
    noise_rate = noise_rate if noise_rate is not None else sample_rate
    cells = [(det.config, NoiseSpec(det.sigma, noise_rate, seed=seed_base), i)
             for i, det in enumerate(bank.detectors)]
    outcomes = simulate(
        signal, cells, sample_rate, duration,
        lambda out: (transition_count(out) / duration,
                     second_peak_frequency(transition_spectrum(out))),
    )
    return BankReport(results=[
        DetectorResult(
            threshold=det.config.v_ut,
            sigma=det.sigma,
            transition_rate_hz=rate,
            resonating=rate >= bank.min_transition_rate_hz,
            f_est=f_est,
        )
        for det, (rate, f_est) in zip(bank.detectors, outcomes)
    ])


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
    seed_bases = list(seed_bases)
    if not seed_bases:
        raise ValueError("need at least one seed base to vote over")
    reports = [
        run_bank(bank, signal_spec, sample_rate, duration, seed_base=s,
                 noise_rate=noise_rate)
        for s in seed_bases
    ]
    voted = []
    for i in range(len(bank.detectors)):
        rows = [rep.results[i] for rep in reports]
        votes = sum(r.resonating for r in rows)
        voted.append(
            replace(
                rows[0],
                transition_rate_hz=float(np.mean([r.transition_rate_hz for r in rows])),
                resonating=votes * 2 > len(rows),
                f_est=most_common_estimate(r.f_est for r in rows),
            )
        )
    return BankReport(results=voted)


def threshold_sweep_bank(
    thresholds,
    sigma: float,
    min_transition_rate_hz: float,
    v_sat: float = 1.0,
) -> BankConfig:
    """Amplitude-bracketing preset: common noise level, symmetric threshold
    pairs swept over `thresholds` (strictly increasing).

    Channels take the raw input directly (no attenuator), so thresholds
    read in the same units as the signal amplitude being bracketed.
    """
    thresholds = [float(t) for t in thresholds]
    if len(thresholds) > 1 and not all(
        a < b for a, b in zip(thresholds, thresholds[1:])
    ):
        raise ValueError("thresholds must be strictly increasing")
    detectors = tuple(
        Detector(
            sigma=sigma,
            config=TriggerConfig(
                v_sat_pos=v_sat, v_sat_neg=-v_sat, v_ut=t, v_lt=-t,
                input_attenuation=1.0,
            ),
        )
        for t in thresholds
    )
    return BankConfig(detectors=detectors, min_transition_rate_hz=min_transition_rate_hz)


def sigma_sweep_bank(
    sigmas,
    threshold: float,
    min_transition_rate_hz: float,
    v_sat: float = 1.0,
) -> BankConfig:
    """Frequency-hunting preset: common symmetric threshold, noise level
    swept over `sigmas` (strictly increasing); read f_est off whichever
    channels resonate."""
    sigmas = [float(s) for s in sigmas]
    if len(sigmas) > 1 and not all(a < b for a, b in zip(sigmas, sigmas[1:])):
        raise ValueError("sigmas must be strictly increasing")
    config = TriggerConfig(
        v_sat_pos=v_sat, v_sat_neg=-v_sat, v_ut=threshold, v_lt=-threshold,
        input_attenuation=1.0,
    )
    detectors = tuple(Detector(sigma=s, config=config) for s in sigmas)
    return BankConfig(detectors=detectors, min_transition_rate_hz=min_transition_rate_hz)
