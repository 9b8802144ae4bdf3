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

import os
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from srlab.noise import NoiseSpec, _draw_noise, generate_noise
from srlab.signals import SignalSpec, Trace, _require_count, generate, n_samples_for
from srlab.spectral import _SpectrumBlock, block_rows, signal_bin, snr_db
from srlab.trigger import SwitchList, TriggerConfig, run


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
        _require_count("repeats", self.repeats, 1)
        n = self.sigmas.size
        if self.snr_mean_db.size != n or self.snr_std_db.size != n:
            raise ValueError(
                f"length mismatch: {n} sigmas vs {self.snr_mean_db.size} means, "
                f"{self.snr_std_db.size} stds"
            )

    def __len__(self) -> int:
        return int(self.sigmas.size)


# Noise is drawn on a small thread pool that each simulate call makes and
# closes: numpy releases the GIL inside the Philox normal draw, and each
# (seed, stream) is independent of the others.  The calling thread keeps the
# comparator and the reducers, about a quarter of a t0 curve, and draws too
# while it waits, so the pool leaves it one CPU: a worker per CPU as well
# would put three threads on two CPUs, and the caller would lose its CPU
# and the GIL to workers refilling the window.
def _draw_workers() -> int:
    """Workers of simulate's draw pool: max(1, min(CPUs this process may
    use - 1, 3))."""
    # the CPUs this process may run on, where the OS says
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return max(1, min(cpus - 1, 3))


# Most cells one experiment call may simulate.  Every experiment builds its
# whole cell list before simulate runs, so a mistyped run count is refused
# here, before that list exists; the largest preset, fig13, has 2 501 cells.
MAX_CELLS = 2**20


def check_cells(levels: int, runs: int, name: str) -> None:
    """Size an experiment call of `runs` runs at each of `levels` levels:
    refuse a run count that is not an integer >= 1, or more than MAX_CELLS
    cells, naming the parameter `name` that sets the run count."""
    _require_count(name, runs, 1)
    if levels * runs > MAX_CELLS:
        raise ValueError(
            f"{name} asks for more cells than the ceiling of {MAX_CELLS} "
            f"cells per experiment call"
        )


def _drawn(spec: NoiseSpec, sample_rate: float, duration: float, stream: int) -> Future:
    """The noise of (spec, stream) drawn on the calling thread, as a done
    Future: a draw that raises does so when its cell's turn comes, as it
    would on the pool."""
    drawn = Future()
    try:
        drawn.set_result(_draw_noise(spec, sample_rate, duration, stream))
    except Exception as exc:
        drawn.set_exception(exc)
    return drawn


def simulate(cells, sample_rate: float, duration: float, reduce) -> list:
    """The Monte-Carlo step of every experiment: for each cell
    (drive, trigger_config, noise_spec, stream), drive the comparator with
    drive plus the noise of (noise_spec.seed, stream).  The outputs, each a
    trigger.SwitchList, go to reduce a block at a time, and reduce returns
    one result per output.  A block holds max(1, BLOCK_SAMPLES // n)
    outputs (block_rows) of the n-sample grid of (sample_rate, duration),
    whatever their drives, so a spectral reducer takes the block's spectra
    in one FFT, and runs of BLOCK_SAMPLES samples or more are reduced one
    at a time; run() refuses a drive on another grid.  Results come back in
    cell order; the caller picks every cell's address, so each experiment
    keeps its own stream layout and makes one call.

    The noise of the next workers + block_rows(n) + 1 cells is drawn ahead
    on a pool of _draw_workers() threads, one pool per call, so the workers
    keep drawing while reduce takes a full block, and at most that many
    noise arrays are held at once.  While the oldest cell's noise is not
    drawn, the calling thread draws the newest cell that no worker has
    started, so the far end of the window fills while the workers take the
    near end.  The comparator and reduce run on the calling thread, in cell
    order, so the results do not depend on the number of workers or on who
    drew a cell.  The pool is closed before simulate returns or raises:
    draws not yet started are cancelled and running ones waited for."""
    size = block_rows(n_samples_for(sample_rate, duration))
    workers = _draw_workers()
    results, block = [], []
    pool = ThreadPoolExecutor(workers, thread_name_prefix="srlab-noise")
    try:
        # each slot is [drive, config, spec, stream, the Future of its noise]
        slots = ([drive, config, spec, stream,
                  pool.submit(_draw_noise, spec, sample_rate, duration, stream)]
                 for drive, config, spec, stream in cells)
        pending = deque(islice(slots, workers + size + 1))
        while pending:
            while not pending[0][4].done():
                # cancel() succeeds only on a draw no worker has started
                steal = next((slot for slot in reversed(pending) if slot[4].cancel()), None)
                if steal is None:
                    break
                steal[4] = _drawn(steal[2], sample_rate, duration, steal[3])
            drive, config, _, _, draw = pending.popleft()
            block.append(run(config, drive, draw.result()))
            del draw  # drop its noise array before the next draw is submitted
            pending.extend(islice(slots, 1))
            if len(block) == size or not pending:
                results.extend(reduce(block))
                block = []
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    return results


def increasing_grid(values, name: str) -> np.ndarray:
    """A grid of noise levels or thresholds as a 1-D float64 array; refuses
    any other shape, an empty grid and one that is not strictly increasing,
    naming it `name`."""
    grid = np.asarray(values, dtype=np.float64)
    if grid.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got {grid.ndim}-D")
    if grid.size == 0:
        raise ValueError(f"{name} is empty")
    if grid.size > 1 and not np.all(np.diff(grid) > 0.0):
        raise ValueError(f"{name} must be strictly increasing")
    return grid


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

    noise_template provides everything about the noise except sigma (rate
    and seed); cell (i, r) uses stream i*repeats + r, so every
    sigma and repeat sees an independent noise realization while the whole
    sweep stays a pure function of (inputs, seed).
    """
    sigmas = increasing_grid(sigmas, "sigma grid")
    check_cells(sigmas.size, repeats, "repeats")
    f_signal = signal_spec.frequency
    specs = [replace(noise_template, sigma=float(sigma)) for sigma in sigmas]
    signal = generate(signal_spec, sample_rate, duration)
    cells = [(signal, trigger_config, spec, i * repeats + r)
             for i, spec in enumerate(specs) for r in range(repeats)]
    block = _SpectrumBlock(signal, len(cells))
    signal_bin(block.df, block.n_samples, f_signal)  # refused before any noise is drawn

    def reduce(outs):
        return snr_db(block.spectrum(outs, lambda out, row: np.copyto(row, out.samples)),
                      f_signal)

    snrs = np.reshape(simulate(cells, sample_rate, duration, reduce), (sigmas.size, repeats))
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
) -> tuple[Trace, Trace, SwitchList]:
    """One noisy run with all three waveforms kept for inspection.

    Returns (input, combined, output): the clean signal, the attenuated
    signal+noise the comparator actually sees, and the output switch list,
    whose samples are the output levels — all on the same time grid.
    """
    signal = generate(signal_spec, sample_rate, duration)
    noise = generate_noise(noise_spec, sample_rate, duration)
    combined = Trace(
        signal.dt, trigger_config.input_attenuation * (signal.samples + noise.samples)
    )
    output = run(trigger_config, signal, noise)
    return signal, combined, output
