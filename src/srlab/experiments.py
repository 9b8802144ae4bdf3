"""Noise-level characterization: SNR-vs-sigma sweeps, resonance peak finding,
and waveform capture for inspecting individual noisy runs.

The signature result here is the non-monotone SNR curve: for a sub-threshold
periodic drive the output SNR rises with noise level up to an interior
maximum and falls again.  Sweeps repeat each noise level with independent
streams and report mean/std across repeats.

simulate() is the Monte-Carlo step shared by every experiment loop (the
sweep here, frequency detection, last-transition curves and detector banks).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from srlab.noise import NoiseSpec, generate_noise
from srlab.signals import DampedSine, SignalSpec, Sine, Trace, generate
from srlab.spectral import periodogram, snr_db
from srlab.trigger import TriggerConfig, run


@dataclass(frozen=True)
class SweepResult:
    """Aggregated SNR-vs-sigma sweep.

    snr_mean_db / snr_std_db hold the across-repeat statistics per noise
    level; seed_base is the noise seed shared by every cell (cells differ
    by stream index, so the whole sweep is one reproducible unit).
    """

    sigmas: np.ndarray
    snr_mean_db: np.ndarray
    snr_std_db: np.ndarray
    repeats: int
    seed_base: int

    def __post_init__(self):
        for name in ("sigmas", "snr_mean_db", "snr_std_db"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")
        n = self.sigmas.size
        if self.snr_mean_db.size != n or self.snr_std_db.size != n:
            raise ValueError(
                f"length mismatch: {n} sigmas vs {self.snr_mean_db.size} means, "
                f"{self.snr_std_db.size} stds"
            )

    def __len__(self) -> int:
        return int(self.sigmas.size)


def simulate(signal: Trace, cells, sample_rate: float, duration: float, reduce) -> list:
    """The Monte-Carlo step of every experiment: for each cell
    (trigger_config, noise_spec, stream), drive the comparator with signal
    plus the noise of (noise_spec.seed, stream) and reduce the output trace
    to one result.  Results come back in cell order; the caller picks every
    cell's address, so each experiment keeps its own stream layout."""
    results = []
    for config, spec, stream in cells:
        # `noise` stays bound until the next cell's draw replaces it.  Freeing
        # all of a cell's arrays at once lets glibc malloc trim the heap, and
        # on 30 000-sample cells the next cell then faults its pages back in:
        # 9x the page faults and 15-25% more wall time on fig13 curves.
        noise = generate_noise(spec, sample_rate, duration, stream=stream)
        results.append(reduce(run(config, signal, noise)))
    return results


def signal_frequency(spec: SignalSpec) -> float:
    """Oscillation frequency of a periodic signal spec.

    Raises ValueError for non-oscillatory specs (constant, ramp) — an SNR
    sweep needs a frequency bin to read.
    """
    if isinstance(spec, (Sine, DampedSine)):
        return spec.frequency
    raise ValueError(f"signal spec {spec!r} has no oscillation frequency")


def snr_sigma_sweep(
    trigger_config: TriggerConfig,
    signal_spec: SignalSpec,
    noise_template: NoiseSpec,
    sigmas,
    sample_rate: float,
    duration: float,
    repeats: int = 10,
) -> SweepResult:
    """Sweep the noise standard deviation, measuring output SNR at the
    signal frequency.

    noise_template provides everything about the noise except sigma (rate,
    clip limits, seed); cell (i, r) uses stream i*repeats + r, so every
    sigma and repeat sees an independent noise realization while the whole
    sweep stays a pure function of (inputs, seed).
    """
    sigmas = np.asarray(sigmas, dtype=np.float64)
    if sigmas.size == 0:
        raise ValueError("sigma grid is empty")
    if sigmas.size > 1 and not np.all(np.diff(sigmas) > 0.0):
        raise ValueError("sigma grid must be strictly increasing")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    f_signal = signal_frequency(signal_spec)

    signal = generate(signal_spec, sample_rate, duration)
    specs = [replace(noise_template, sigma=float(sigma)) for sigma in sigmas]
    cells = [(trigger_config, spec, i * repeats + r)
             for i, spec in enumerate(specs) for r in range(repeats)]
    snrs = np.reshape(
        simulate(signal, cells, sample_rate, duration,
                 lambda out: snr_db(periodogram(out), f_signal)),
        (sigmas.size, repeats),
    )
    return SweepResult(
        sigmas=sigmas,
        snr_mean_db=snrs.mean(axis=1),
        snr_std_db=snrs.std(axis=1),
        repeats=repeats,
        seed_base=noise_template.seed,
    )


def find_sr_peak(sweep: SweepResult) -> tuple[float, float]:
    """(sigma, SNR) of the sweep maximum; ties resolve to the smaller sigma."""
    if len(sweep) < 3:
        raise ValueError(f"need a sweep of >= 3 points to locate a peak, got {len(sweep)}")
    k = int(np.argmax(sweep.snr_mean_db))
    return float(sweep.sigmas[k]), float(sweep.snr_mean_db[k])


def capture_transitions(
    trigger_config: TriggerConfig,
    signal_spec: SignalSpec,
    noise_spec: NoiseSpec,
    sample_rate: float,
    duration: float,
    stream: int = 0,
) -> tuple[Trace, Trace, Trace]:
    """One noisy run with all three waveforms kept for inspection.

    Returns (input, combined, output): the clean signal, the attenuated
    signal+noise the comparator actually sees, and the output levels — all
    on the same time grid.
    """
    signal = generate(signal_spec, sample_rate, duration)
    noise = generate_noise(noise_spec, sample_rate, duration, stream=stream)
    combined = Trace(
        start_time=signal.start_time,
        dt=signal.dt,
        samples=trigger_config.input_attenuation * (signal.samples + noise.samples),
    )
    output = run(trigger_config, signal, noise)
    return signal, combined, output
