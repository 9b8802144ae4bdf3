"""Deterministic test waveforms sampled on a uniform, left-aligned time grid."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np


@dataclass(frozen=True)
class Trace:
    """A uniformly sampled voltage record.

    Sample i sits at t = start_time + i * dt (left-aligned grid: the final
    sample lands one step short of start_time + n * dt).
    """

    start_time: float
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
    def duration(self) -> float:
        return self.samples.size * self.dt

    @property
    def sample_rate(self) -> float:
        return 1.0 / self.dt

    def times(self) -> np.ndarray:
        return self.start_time + self.dt * np.arange(self.samples.size)


@dataclass(frozen=True)
class Sine:
    """amplitude * sin(2*pi*frequency*t + phase)"""

    amplitude: float
    frequency: float
    phase: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.amplitude < math.inf:
            raise ValueError(f"amplitude must be finite and >= 0, got {self.amplitude}")
        if not 0.0 < self.frequency < math.inf:
            raise ValueError(f"frequency must be finite and > 0, got {self.frequency}")
        if not math.isfinite(self.phase):
            raise ValueError(f"phase must be finite, got {self.phase}")


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


@dataclass(frozen=True)
class Dc:
    """Constant level."""

    level: float


@dataclass(frozen=True)
class Ramp:
    """Linear sweep from v_start at t=0 to v_end at t=duration."""

    v_start: float
    v_end: float


SignalSpec = Union[Sine, DampedSine, Dc, Ramp]


def n_samples_for(sample_rate: float, duration: float) -> int:
    """Number of grid samples covering [0, duration) at sample_rate."""
    if sample_rate <= 0.0:
        raise ValueError(f"sample_rate must be > 0, got {sample_rate}")
    if duration <= 0.0:
        raise ValueError(f"duration must be > 0, got {duration}")
    n = int(round(sample_rate * duration))
    if n < 1:
        raise ValueError(
            f"duration {duration} too short for sample_rate {sample_rate}"
        )
    return n


def generate(spec: SignalSpec, sample_rate: float, duration: float) -> Trace:
    """Sample a waveform spec on the grid t = i/sample_rate, i = 0..n-1.

    Each sample is the closed-form value of the waveform at its grid time;
    the same (spec, sample_rate, duration) always yields a bit-identical
    trace.
    """
    n = n_samples_for(sample_rate, duration)
    dt = 1.0 / sample_rate
    t = dt * np.arange(n)
    if isinstance(spec, Sine):
        samples = spec.amplitude * np.sin(2.0 * math.pi * spec.frequency * t + spec.phase)
    elif isinstance(spec, DampedSine):
        samples = (
            spec.amplitude
            * np.exp(-spec.decay * t)
            * np.sin(2.0 * math.pi * spec.frequency * t)
        )
    elif isinstance(spec, Dc):
        samples = np.full(n, float(spec.level))
    elif isinstance(spec, Ramp):
        samples = spec.v_start + (spec.v_end - spec.v_start) * (t / duration)
    else:
        raise ValueError(f"unsupported signal spec: {spec!r}")
    return Trace(start_time=0.0, dt=dt, samples=samples)


def envelope(spec: DampedSine, t):
    """Decay envelope amplitude * exp(-decay*t); t may be a scalar or array."""
    if not isinstance(spec, DampedSine):
        raise ValueError("envelope is only defined for DampedSine specs")
    t_arr = np.asarray(t, dtype=np.float64)
    if np.any(t_arr < 0.0):
        raise ValueError("t must be >= 0")
    out = spec.amplitude * np.exp(-spec.decay * t_arr)
    return float(out) if np.isscalar(t) or out.ndim == 0 else out
