"""Seeded Gaussian noise with amplitude clipping and zero-order-hold upsampling.

Streams use the counter-based Philox generator keyed by a SeedSequence over
(seed, stream_index), so any (seed, stream) pair addresses an independent,
reproducible stream without generating the ones before it.  That is the
whole parallelism contract: sweeps hand out stream indices, never shared
generator state.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from srlab.signals import MAX_SAMPLES, Trace, n_samples_for

CLIP_V = 5.0  # hard amplitude limit applied to every draw, volts


@dataclass(frozen=True)
class NoiseSpec:
    """Gaussian noise description.

    sigma       standard deviation of the raw draws, volts
    noise_rate  rate at which fresh values are drawn, Hz; samples between
                draws repeat the previous value (zero-order hold).  None,
                the default, draws one value per grid sample
    seed        base seed, an integer in [0, 2**64); combined with a
                stream index at generation time
    """

    sigma: float
    noise_rate: float | None = None
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")
        if self.noise_rate is not None and not 0.0 < self.noise_rate < math.inf:
            raise ValueError(f"noise_rate must be finite and > 0, got {self.noise_rate}")
        _check_seed(self.seed)


def _check_seed(seed: int) -> None:
    # Seeds are 64-bit integers: 1.5 is refused here rather than truncated to
    # 1, and 2**64 rather than wrapped onto 0 or handed to SeedSequence.
    if not isinstance(seed, numbers.Integral) or not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")


def noise_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Independent generator for (seed, stream); same pair, same draws.
    seed must be an integer in [0, 2**64) and stream an integer."""
    _check_seed(seed)
    if not isinstance(stream, numbers.Integral):
        raise ValueError(f"stream must be an integer, got {stream!r}")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),))
    return np.random.Generator(np.random.Philox(ss))


def generate_noise(
    spec: NoiseSpec, sample_rate: float, duration: float, stream: int = 0
) -> Trace:
    """Draw clipped Gaussian noise at spec.noise_rate and hold it onto the
    output grid at sample_rate; a noise_rate of None draws one value per
    sample, as noise_rate = sample_rate does.

    Draw k covers times [k/noise_rate, (k+1)/noise_rate); with noise_rate =
    sample_rate / m (integer m) each draw therefore repeats exactly m times.
    Output is fully determined by (spec, sample_rate, duration, stream).
    """
    return _draw_noise(spec, sample_rate, duration, stream)


def _draw_noise(spec: NoiseSpec, sample_rate: float, duration: float, stream: int) -> Trace:
    # The body of generate_noise under a private name: experiments.simulate
    # draws on pool threads through it, out of reach of wrappers around the
    # public name
    n = n_samples_for(sample_rate, duration)
    ratio = 1 if spec.noise_rate is None else sample_rate / spec.noise_rate
    m = round(ratio)
    if m >= 1 and abs(ratio - m) < 1e-9:
        ratio = m  # snap a near-whole ratio: draws then repeat exactly m times
    # the draws that cover the grid, idx[-1] + 1 below, counted before idx is
    # built; min keeps a quotient that overflowed to inf out of int()
    n_draws = n if ratio == 1 else int(min((n - 1) / ratio, MAX_SAMPLES)) + 1
    if n_draws > MAX_SAMPLES:
        raise ValueError(f"noise_rate {spec.noise_rate} Hz for {duration} s exceeds "
                         f"the ceiling of {MAX_SAMPLES} draws per run")
    # at ratio 1 the draws are the samples
    idx = None if ratio == 1 else (np.arange(n) / ratio).astype(np.int64)
    rng = noise_stream(spec.seed, stream)
    # normal(0, sigma), not sigma * standard_normal(): at sigma = 0 the
    # product turns negative draws into -0.0, where normal gives +0.0; the
    # + 0.0 turns a sigma of -0.0, which is zero, into the 0.0 numpy accepts
    draws = rng.normal(0.0, spec.sigma + 0.0, size=n_draws)
    np.clip(draws, -CLIP_V, CLIP_V, out=draws)
    samples = draws if idx is None else draws[idx]
    return Trace(dt=1.0 / sample_rate, samples=samples)
