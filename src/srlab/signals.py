"""Deterministic test waveforms sampled on a uniform, left-aligned time grid."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np


@dataclass(frozen=True)
class Trace:
    """A uniformly sampled voltage record.

    Sample i sits at t = i * dt (left-aligned grid: the final sample lands
    one step short of n * dt).
    """

    dt: float
    samples: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.float64))
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise ValueError("samples must be a non-empty 1-D array")

    @property
    def n_samples(self) -> int:
        return int(self.samples.size)

    @property
    def sample_rate(self) -> float:
        return 1.0 / self.dt

    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.samples.size)


@dataclass(frozen=True)
class Sine:
    """amplitude * sin(2*pi*frequency*t)"""

    amplitude: float
    frequency: float

    def __post_init__(self):
        if not 0.0 <= self.amplitude < math.inf:
            raise ValueError(f"amplitude must be finite and >= 0, got {self.amplitude}")
        if not 0.0 < self.frequency < math.inf:
            raise ValueError(f"frequency must be finite and > 0, got {self.frequency}")


@dataclass(frozen=True)
class DampedSine:
    """amplitude * exp(-decay*t) * sin(2*pi*frequency*t)"""

    amplitude: float
    decay: float
    frequency: float

    def __post_init__(self):
        if not 0.0 <= self.amplitude < math.inf:
            raise ValueError(f"amplitude must be finite and >= 0, got {self.amplitude}")
        if not 0.0 <= self.decay < math.inf:
            raise ValueError(f"decay must be finite and >= 0, got {self.decay}")
        if not 0.0 < self.frequency < math.inf:
            raise ValueError(f"frequency must be finite and > 0, got {self.frequency}")


SignalSpec = Union[Sine, DampedSine]


# Largest grid any run may use: 2**25 = 33 554 432 samples, 256 MiB per
# float64 array, and a run holds several such arrays at once: its drive, the
# comparator's input and, in experiments.simulate, up to workers + 1 noise
# arrays drawn ahead (at most five).  A mistyped duration or rate is refused
# here, before anything is allocated.
MAX_SAMPLES = 2**25


def n_samples_for(sample_rate: float, duration: float) -> int:
    """Number of grid samples covering [0, duration) at sample_rate; at most
    MAX_SAMPLES."""
    if not 0.0 < sample_rate < math.inf:
        raise ValueError(f"sample_rate must be finite and > 0, got {sample_rate}")
    if not 0.0 < duration < math.inf:
        raise ValueError(f"duration must be finite and > 0, got {duration}")
    # the product of two finite floats can still overflow to inf
    n = int(round(min(sample_rate * duration, MAX_SAMPLES + 1)))
    if n > MAX_SAMPLES:
        raise ValueError(
            f"{sample_rate} Hz for {duration} s exceeds the ceiling of "
            f"{MAX_SAMPLES} samples per run"
        )
    if n < 1:
        raise ValueError(
            f"duration {duration} too short for sample_rate {sample_rate}"
        )
    return n


def generate(spec: SignalSpec, sample_rate: float, duration: float) -> Trace:
    """Sample a waveform spec on the grid t = i/sample_rate, i = 0..n-1.

    Each sample is the closed-form value of the waveform at its grid time;
    the same (spec, sample_rate, duration) always yields a bit-identical
    trace.  A frequency above sample_rate / 2 is refused: its samples alias
    to a lower tone (at sample_rate, to zero at every sample).
    """
    n = n_samples_for(sample_rate, duration)
    if not isinstance(spec, (Sine, DampedSine)):
        raise ValueError(f"unsupported signal spec: {spec!r}")
    if spec.frequency > sample_rate / 2.0:
        raise ValueError(
            f"frequency {spec.frequency} Hz is above the Nyquist frequency "
            f"{sample_rate / 2.0} Hz of sampling at {sample_rate} Hz"
        )
    dt = 1.0 / sample_rate
    t = dt * np.arange(n)
    if isinstance(spec, Sine):
        samples = spec.amplitude * np.sin(2.0 * math.pi * spec.frequency * t)
    else:
        samples = (
            spec.amplitude
            * np.exp(-spec.decay * t)
            * np.sin(2.0 * math.pi * spec.frequency * t)
        )
    return Trace(dt=dt, samples=samples)


def envelope(spec: DampedSine, t):
    """Decay envelope amplitude * exp(-decay*t); t may be a scalar or array."""
    if not isinstance(spec, DampedSine):
        raise ValueError("envelope is only defined for DampedSine specs")
    t_arr = np.asarray(t, dtype=np.float64)
    if np.any(t_arr < 0.0):
        raise ValueError("t must be >= 0")
    out = spec.amplitude * np.exp(-spec.decay * t_arr)
    return float(out) if np.isscalar(t) or out.ndim == 0 else out
