"""Seeded Gaussian noise with amplitude clipping and zero-order-hold upsampling.

Streams use the counter-based Philox generator keyed by a SeedSequence over
(seed, stream_index), so any (seed, stream) pair addresses an independent,
reproducible stream without generating the ones before it.  That is the
whole parallelism contract: sweeps hand out stream indices, never shared
generator state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from srlab.signals import Trace, n_samples_for


@dataclass(frozen=True)
class NoiseSpec:
    """Gaussian noise description.

    sigma       standard deviation of the raw draws, volts
    noise_rate  rate at which fresh values are drawn, Hz; samples between
                draws repeat the previous value (zero-order hold)
    clip_low/high   hard amplitude limits applied per draw, volts
    seed        base seed; combined with a stream index at generation time
    """

    sigma: float
    noise_rate: float
    clip_low: float = -5.0
    clip_high: float = 5.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")
        if not 0.0 < self.noise_rate < math.inf:
            raise ValueError(f"noise_rate must be finite and > 0, got {self.noise_rate}")
        if not self.clip_low < self.clip_high:
            raise ValueError(
                f"clip_low must be < clip_high, got [{self.clip_low}, {self.clip_high}]"
            )


def noise_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Independent generator for (seed, stream); same pair, same draws."""
    ss = np.random.SeedSequence(entropy=int(seed) & 0xFFFFFFFFFFFFFFFF, spawn_key=(int(stream),))
    return np.random.Generator(np.random.Philox(ss))


def generate_noise(
    spec: NoiseSpec, sample_rate: float, duration: float, stream: int = 0
) -> Trace:
    """Draw clipped Gaussian noise at spec.noise_rate and hold it onto the
    output grid at sample_rate.

    Draw k covers times [k/noise_rate, (k+1)/noise_rate); with noise_rate =
    sample_rate / m (integer m) each draw therefore repeats exactly m times.
    Output is fully determined by (spec, sample_rate, duration, stream).
    """
    n = n_samples_for(sample_rate, duration)
    ratio = sample_rate / spec.noise_rate
    m = round(ratio)
    if m >= 1 and abs(ratio - m) < 1e-9:
        idx = np.arange(n) // m
    else:
        idx = (np.arange(n) / ratio).astype(np.int64)
    n_draws = int(idx[-1]) + 1
    rng = noise_stream(spec.seed, stream)
    draws = rng.normal(0.0, spec.sigma, size=n_draws)
    np.clip(draws, spec.clip_low, spec.clip_high, out=draws)
    return Trace(start_time=0.0, dt=1.0 / sample_rate, samples=draws[idx])
