"""The four benchmark workloads.

A workload is a closed loop of passes.  A pass is a fixed list of calls
into srlab's public API, built from one integer input index; each call is
one operation (`Op`) that the correctness gate checks.  Every noise seed a
pass hands to srlab is derived from its index, and indices never repeat
within a run, so no two calls in a run share a noise stream.

Each workload exists at two sizes: `preset`, the canned operating point
the benchmark measures, and `tiny`, used for the warm-up call during
set-up and by the benchmark's own tests.

The workloads call srlab through module attributes (`experiments.snr_sigma_sweep`,
not a name bound at import), so that the traced mode, which swaps module
attributes for timing wrappers, sees every call.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter as clock

import numpy as np

PRESET = "preset"
TINY = "tiny"
SAMPLE_RATE = 20000.0


def grid(start: float, stop: float, step: float) -> np.ndarray:
    """The CLI's `start:stop:step` grid (srlab.cli.parse_grid), rebuilt here
    so the library workloads need not import the CLI."""
    n = int(round((stop - start) / step)) + 1
    return np.linspace(start, start + (n - 1) * step, n)


@dataclass
class Op:
    """One call into srlab: its name, latency, and result (or the exception
    it raised).  `timed_call` marks the workload's top-level call, the one
    call_ms_p50 and call_ms_tail are taken over."""

    name: str
    seconds: float
    output: object
    timed_call: bool = True


def call(ops: list, name: str, fn, *args, timed_call: bool = True, **kwargs):
    """Time one call into srlab and append it to `ops`.  An exception is
    recorded as the op's output so the gate counts it and the loop goes on."""
    t0 = clock()
    try:
        out = fn(*args, **kwargs)
    except Exception as exc:  # counted as a failed operation by the gate
        out = exc
    ops.append(Op(name, clock() - t0, out, timed_call))
    return out


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


class Sweep:
    """fig5: `snr_sigma_sweep` at the divider-law point, several seed bases
    per pass.

    Why: the only workload that needs the dense output trace, because the
    periodogram reads the SNR at the drive frequency.  A change that skips
    the dense trace (an event-based comparator) should not move it, and it
    is the workload where `spectral` is a mid-sized share.
    """

    name = "sweep"
    why = ("fig5 SNR sweep: the only workload that needs the dense output trace "
           "(the periodogram reads SNR at f); noise, trigger and spectral all weigh")

    def __init__(self, size: str):
        if size == PRESET:
            self.sigmas, self.repeats, self.duration, self.seeds_per_pass = (
                grid(0.01, 0.2, 0.005), 10, 0.4, 4)
            self.pool = 96
        else:
            self.sigmas, self.repeats, self.duration, self.seeds_per_pass = (
                grid(0.05, 0.15, 0.05), 2, 0.05, 2)
            self.pool = 0
        n = int(round(SAMPLE_RATE * self.duration))
        cells = self.sigmas.size * self.repeats * self.seeds_per_pass
        self.shape = {
            "calls_per_pass": self.seeds_per_pass,
            "cells_per_pass": cells,
            "samples_per_cell": n,
            "samples_per_pass": cells * n,
            "layout": f"{self.sigmas.size} levels x {self.repeats} repeats x {n} samples "
                      f"x {self.seeds_per_pass} seed bases",
        }

    def setup(self, workdir: Path) -> None:
        from srlab import experiments, noise, signals, trigger

        self.experiments = experiments
        self.noise = noise
        self.config = trigger.ideal_config(1.0, 0.045, 0.5)
        self.signal = signals.Sine(0.05, 500.0)

    def prepare(self, index: int) -> None:
        pass

    def run_pass(self, index: int) -> list:
        ops: list = []
        for k in range(self.seeds_per_pass):
            template = self.noise.NoiseSpec(1.0, SAMPLE_RATE, seed=self.seeds_per_pass * index + k)
            call(ops, "snr_sigma_sweep", self.experiments.snr_sigma_sweep,
                 self.config, self.signal, template, self.sigmas, SAMPLE_RATE,
                 self.duration, self.repeats)
        return ops

    def collect(self, ops: list) -> None:
        pass

    def check(self, index: int, ops: list, k: int) -> str | None:
        r = ops[k].output
        ok = (len(r) == self.sigmas.size
              and np.array_equal(r.sigmas, self.sigmas)
              and np.all(np.isfinite(r.snr_mean_db))
              and np.all(r.snr_std_db >= 0.0)
              and r.repeats == self.repeats
              and r.seed_base == self.seeds_per_pass * index + k)
        return None if ok else "sweep result out of shape or not finite"


class T0Curve:
    """fig13: `t0_sigma_curve` at the calibrated-law point, one decay per
    pass, followed by `expected_t0_for_config` at every noise level above
    zero (the model needs sigma > 0) and by `fit_sigmoid`.

    Why: long runs where only the last transition matters.  Noise and the
    comparator dominate and `spectral` is zero, so a noise or comparator
    change shows its largest effect here and a spectral one must show none.
    """

    name = "t0curve"
    why = ("fig13 last-transition curves: long runs where only the last switch "
           "matters; noise and trigger dominate and spectral is zero")
    decays = (1.0, 3.0, 5.0, 7.0, 9.0)

    def __init__(self, size: str):
        if size == PRESET:
            self.sigmas, self.runs, self.duration = grid(0.0, 0.5, 0.01), 50, 1.5
            self.pool = 24
        else:
            self.sigmas, self.runs, self.duration = grid(0.0, 0.5, 0.1), 4, 0.1
            self.pool = 0
        n = int(round(SAMPLE_RATE * self.duration))
        noisy = int(np.count_nonzero(self.sigmas > 0.0))
        # A zero-noise level is simulated once, not `runs` times.
        cells = noisy * self.runs + (self.sigmas.size - noisy)
        self.shape = {
            "calls_per_pass": 1,
            "cells_per_pass": cells,
            "samples_per_cell": n,
            "samples_per_pass": cells * n,
            "layout": f"{self.sigmas.size} levels x {self.runs} runs x {n} samples, "
                      f"then {noisy} theory points and one sigmoid fit",
        }

    def setup(self, workdir: Path) -> None:
        from srlab import amp_detect, signals, trigger

        self.amp = amp_detect
        self.signals = signals
        self.config = trigger.calibrated_config(4.0, 0.5)

    def prepare(self, index: int) -> None:
        pass

    def run_pass(self, index: int) -> list:
        ops: list = []
        damped = self.signals.DampedSine(0.1, self.decays[index % len(self.decays)], 1000.0)
        curve = call(ops, "t0_sigma_curve", self.amp.t0_sigma_curve,
                     self.config, damped, self.sigmas, self.runs, index,
                     SAMPLE_RATE, self.duration)
        for sigma in self.sigmas[self.sigmas > 0.0]:
            call(ops, "expected_t0_for_config", self.amp.expected_t0_for_config,
                 self.config, damped, float(sigma), SAMPLE_RATE, self.duration,
                 timed_call=False)
        if isinstance(curve, list):
            call(ops, "fit_sigmoid", self.amp.fit_sigmoid, curve, self.duration,
                 timed_call=False)
        return ops

    def collect(self, ops: list) -> None:
        pass

    def check(self, index: int, ops: list, k: int) -> str | None:
        op = ops[k]
        r = op.output
        if op.name == "t0_sigma_curve":
            ok = (len(r) == self.sigmas.size
                  and all(s.sigma == float(g) and s.n_runs == self.runs
                          and 0.0 <= s.mean_t0 <= self.duration
                          for s, g in zip(r, self.sigmas)))
        elif op.name == "expected_t0_for_config":
            ok = _finite(r) and 0.0 <= r <= self.duration
        else:
            ok = (_finite(r.slope_a, r.center_b, r.se_slope_a, r.se_center_b)
                  and r.plateau_T == self.duration and r.r_squared <= 1.0)
        return None if ok else f"{op.name} result out of range"


class Detect:
    """table1 plus bank votes: one `error_rate_table` and two `vote_bank`
    calls (threshold mode, sigma mode) per pass, all on one seed base.

    Why: many short runs, each paying fixed per-call costs (SeedSequence and
    Philox construction, a NoiseSpec per cell, `detect_frequency`
    regenerating the signal on every call) plus peak picking.  A batching or
    caching change that pays off on t0curve must not cost here.
    """

    name = "detect"
    why = ("table1 error table plus threshold and sigma bank votes: many short runs "
           "paying fixed per-call costs (seeding, signal regeneration) and peak picking")
    seed_stride = 100  # seed bases of consecutive indices never overlap

    def __init__(self, size: str):
        if size == PRESET:
            self.freqs, self.repeats, self.duration, self.votes = (
                [10.0, 50.0, 100.0, 500.0, 1000.0, 2000.0], 10, 0.4, 20)
            self.pool = 384
        else:
            self.freqs, self.repeats, self.duration, self.votes = [500.0, 1000.0], 2, 0.05, 3
            self.pool = 0
        self.thresholds = [0.001, 0.002, 0.004, 0.008, 0.016, 0.032, 0.064]
        self.bank_sigmas = [0.004, 0.008, 0.012, 0.016, 0.024]
        n = int(round(SAMPLE_RATE * self.duration))
        cells = (len(self.freqs) * self.repeats
                 + self.votes * (len(self.thresholds) + len(self.bank_sigmas)))
        self.shape = {
            "calls_per_pass": 3,
            "cells_per_pass": cells,
            "samples_per_cell": n,
            "samples_per_pass": cells * n,
            "layout": f"table {len(self.freqs)} freqs x {self.repeats} repeats + votes "
                      f"{self.votes} x ({len(self.thresholds)} + {len(self.bank_sigmas)}) "
                      f"channels, {n} samples each",
        }

    def setup(self, workdir: Path) -> None:
        from srlab import bank, freq_detect, signals, trigger

        self.fd = freq_detect
        self.bank = bank
        self.config = trigger.ideal_config(1.0, 0.045, 0.5)
        self.tone = signals.Sine(0.01, 500.0)
        rate = bank.resonance_rate_for(500.0)
        self.threshold_bank = bank.threshold_sweep_bank(self.thresholds, 0.002, rate)
        self.sigma_bank = bank.sigma_sweep_bank(self.bank_sigmas, 0.02, rate)

    def prepare(self, index: int) -> None:
        pass

    def run_pass(self, index: int) -> list:
        ops: list = []
        base = self.seed_stride * index
        setup = self.fd.DetectionSetup(sigma=0.01, duration=self.duration, seed_base=base)
        call(ops, "error_rate_table", self.fd.error_rate_table,
             self.config, self.freqs, setup, self.repeats)
        seeds = range(base, base + self.votes)
        for name, bank in (("vote_bank_threshold", self.threshold_bank),
                           ("vote_bank_sigma", self.sigma_bank)):
            call(ops, name, self.bank.vote_bank, bank, self.tone, SAMPLE_RATE,
                 self.duration, seeds, SAMPLE_RATE)
        return ops

    def collect(self, ops: list) -> None:
        pass

    def check(self, index: int, ops: list, k: int) -> str | None:
        op = ops[k]
        r = op.output
        base = self.seed_stride * index
        if op.name == "error_rate_table":
            expect = [(f, base + j) for f in self.freqs for j in range(self.repeats)]
            ok = [(x.f_true, x.seed) for x in r] == expect and all(
                x.sigma == 0.01 for x in r)
        else:
            n = len(self.thresholds if op.name.endswith("threshold") else self.bank_sigmas)
            ok = len(r.results) == n and all(
                _finite(x.transition_rate_hz) and x.transition_rate_hz >= 0.0
                for x in r.results)
        return None if ok else f"{op.name} result out of shape"


CAL_DECAYS = (1.0, 5.0, 9.0)
CURVE_HEADER = "sigma_v,mean_t0_s,std_t0_s,n_runs,n_no_transition"
PLATEAU = 1.5


def synthetic_t0_curve(path: Path, decay: float, rng: random.Random) -> None:
    """A t0-curve CSV shaped like fig13 output: a sigmoid in sigma whose
    slope and centre drift with the decay, plus seeded jitter."""
    slope, center = 130.0 + 6.0 * decay, 0.098 + 0.0005 * decay
    lines = [CURVE_HEADER]
    for sigma in grid(0.0, 0.5, 0.01).tolist():
        mean = PLATEAU / (1.0 + math.exp(-slope * (sigma - center))) + rng.gauss(0.0, 0.01)
        mean = min(max(mean, 0.0), PLATEAU)
        std = 0.05 + 0.1 * rng.random()
        none = round(50 * (1.0 - mean / PLATEAU) ** 2)
        lines.append(f"{sigma!r},{mean!r},{std!r},50,{none}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


class CliIo:
    """In-process `srlab.cli.main` commands with light simulation and heavy
    output: reproduce fig4/fig6/fig8, a longer `transitions` capture,
    `fit-sigmoid` and `estimate-decay`.  Each command is followed by a
    `--config` replay of its manifest, whose files must match byte for byte.

    Why: the write-and-read-back path beside three compute-only workloads.
    `csvio` dominates and `cli` runs only here, so a stats sidecar, logging
    or a CSV-cell change that slows writing shows here and nowhere else.
    """

    name = "cli_io"
    why = ("in-process CLI commands with light simulation and heavy CSV and manifest "
           "writing, each replayed from its manifest; csvio dominates and cli runs only here")

    def __init__(self, size: str):
        self.capture_s = 2.0 if size == PRESET else 0.1
        self.pool = 192 if size == PRESET else 0
        fig4 = int(round(SAMPLE_RATE * 0.4))
        capture = int(round(SAMPLE_RATE * self.capture_s))
        self.shape = {
            "calls_per_pass": 12,
            "cells_per_pass": 4,
            "samples_per_cell": [fig4, fig4, capture, capture],
            "samples_per_pass": 2 * (fig4 + capture),
            "layout": "6 commands + 6 manifest replays; fig4 (8000 samples) and a "
                      f"{capture}-sample transitions capture simulate, twice each",
        }

    def setup(self, workdir: Path) -> None:
        import srlab.cli

        self.cli = srlab.cli
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        for b in CAL_DECAYS:
            synthetic_t0_curve(workdir / f"cal_{b:g}.csv", b, random.Random(int(b)))

    def prepare(self, index: int) -> None:
        # Each pass writes into a fresh directory, removed by collect():
        # rewriting existing files would make ext4 flush them on close,
        # which times the disk rather than srlab.
        (self.workdir / "pass").mkdir()
        rng = random.Random(index)
        self.observed_decay = 1.5 + 7.0 * rng.random()
        synthetic_t0_curve(self.workdir / "pass" / "obs.csv", self.observed_decay, rng)

    def commands(self, index: int) -> list:
        cal = [a for b in CAL_DECAYS for a in ("--calibration", f"{b:g}=cal_{b:g}.csv")]
        # (name, argv, argv prefix of the replay); each command writes
        # <name>.csv and <name>_manifest.ini
        return [
            ("fig4", ["reproduce", "fig4", "--seed", str(index)], ["reproduce", "fig4"]),
            ("fig6", ["reproduce", "fig6"], ["reproduce", "fig6"]),
            ("fig8", ["reproduce", "fig8"], ["reproduce", "fig8"]),
            ("transitions", ["transitions", "--duration", repr(self.capture_s),
                             "--seed", str(index)], ["transitions"]),
            ("fit_sigmoid", ["fit-sigmoid", "--input", "pass/obs.csv",
                             "--decay", repr(self.observed_decay)], ["fit-sigmoid"]),
            ("estimate_decay", ["estimate-decay", *cal, "--observed", "pass/obs.csv"],
             ["estimate-decay"]),
        ]

    def _main(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cli.main(argv)
        return rc, out.getvalue() + err.getvalue()

    def run_pass(self, index: int) -> list:
        ops: list = []
        home = os.getcwd()
        os.chdir(self.workdir)  # manifests then hold relative, path-free inputs
        try:
            for name, argv, replay in self.commands(index):
                out = f"pass/{name}"
                call(ops, name, self._main, [*argv, "--out-dir", out])
                call(ops, name + "_replay", self._main,
                     [*replay, "--config", f"{out}/{name}_manifest.ini",
                      "--out-dir", out + "_replay"])
        finally:
            os.chdir(home)
        return ops

    def collect(self, ops: list) -> None:
        """Read each command's files back after the timed pass."""
        for op in ops:
            if isinstance(op.output, tuple):
                rc, text = op.output
                out_dir = self.workdir / "pass" / op.name
                files = ({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
                         if out_dir.is_dir() else {})
                op.output = (rc, text, files)
        shutil.rmtree(self.workdir / "pass")

    def check(self, index: int, ops: list, k: int) -> str | None:
        rc, text, files = ops[k].output
        if rc != 0:
            return f"exit {rc}: {text.strip()}"
        if len(files) < 2 or not any(n.endswith("_manifest.ini") for n in files):
            return "missing CSV or manifest"
        if ops[k].name.endswith("_replay"):
            first = ops[k - 1].output
            if not (isinstance(first, tuple) and files == first[2]):
                return "replay is not byte-identical to its first run"
        return None


WORKLOADS = {w.name: w for w in (Sweep, T0Curve, Detect, CliIo)}


def make(name: str, size: str = PRESET):
    return WORKLOADS[name](size)
