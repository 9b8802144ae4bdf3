import importlib
import os
import sys
import threading
import time

import numpy as np
import pytest

import srlab.experiments
from srlab.amp_detect import mean_t0_monte_carlo, t0_sigma_curve
from srlab.bank import run_bank, sigma_sweep_bank, threshold_sweep_bank, vote_bank
from srlab.experiments import (
    SweepResult,
    capture_transitions,
    find_sr_peak,
    simulate,
    snr_sigma_sweep,
)
from srlab.freq_detect import DetectionSetup, detect_frequency, error_rate_table
from srlab.noise import NoiseSpec, generate_noise
from srlab.signals import DampedSine, Sine, generate
from srlab.spectral import BLOCK_SAMPLES, periodogram, snr_db
from srlab.trigger import ideal_config, run, transition_count

CFG = ideal_config(1.0, 0.045, 0.5)
SIGNAL = Sine(0.05, 500.0)  # sub-threshold after the divider


def _small_sweep(seed=0, repeats=4):
    return snr_sigma_sweep(
        CFG,
        SIGNAL,
        NoiseSpec(1.0, 20000.0, seed=seed),
        [0.005, 0.05, 0.3],
        20000.0,
        0.2,
        repeats=repeats,
    )


def count_draws(monkeypatch) -> dict:
    """Count the noise draws simulate starts and finishes on its pool."""
    draw, lock = srlab.experiments._draw_noise, threading.Lock()
    counts = {"started": 0, "finished": 0}

    def counted(*args):
        with lock:
            counts["started"] += 1
        try:
            return draw(*args)
        finally:
            with lock:
                counts["finished"] += 1

    monkeypatch.setattr(srlab.experiments, "_draw_noise", counted)
    return counts


class TestSweepResult:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SweepResult([0.1, 0.2], [1.0], [0.0, 0.0], repeats=2, seed_base=0)

    def test_repeats_validated(self):
        with pytest.raises(ValueError):
            SweepResult([0.1], [1.0], [0.0], repeats=0, seed_base=0)

    def test_len(self):
        sw = SweepResult([0.1, 0.2, 0.3], [1.0, 2.0, 1.5], [0.1, 0.1, 0.1], 2, 0)
        assert len(sw) == 3


class TestSweep:
    def test_reproducible(self):
        a = _small_sweep(seed=3)
        b = _small_sweep(seed=3)
        np.testing.assert_array_equal(a.snr_mean_db, b.snr_mean_db)
        np.testing.assert_array_equal(a.snr_std_db, b.snr_std_db)
        assert a.seed_base == 3

    def test_seed_changes_realizations(self):
        a = _small_sweep(seed=3)
        b = _small_sweep(seed=4)
        assert not np.array_equal(a.snr_mean_db, b.snr_mean_db)

    def test_resonance_shape(self):
        # the interior noise level beats both the starved and the swamped end
        sw = _small_sweep()
        assert sw.snr_mean_db[1] > sw.snr_mean_db[0]
        assert sw.snr_mean_db[1] > sw.snr_mean_db[2]

    def test_two_seed_bases_agree_on_the_peak(self):
        a = _small_sweep(seed=0)
        b = _small_sweep(seed=101)
        assert np.argmax(a.snr_mean_db) == np.argmax(b.snr_mean_db) == 1

    def test_cell_stream_protocol(self):
        # cell (i, r) uses stream i*repeats + r: rebuild every level by hand
        sigmas, repeats = [0.005, 0.05, 0.3], 3
        sw = snr_sigma_sweep(
            CFG, SIGNAL, NoiseSpec(1.0, 20000.0, seed=7), sigmas, 20000.0, 0.1, repeats
        )
        signal = generate(SIGNAL, 20000.0, 0.1)
        for i, sigma in enumerate(sigmas):
            snrs = [
                snr_db(periodogram(run(CFG, signal, generate_noise(
                    NoiseSpec(sigma, 20000.0, seed=7), 20000.0, 0.1, stream=i * repeats + r
                ))), 500.0)
                for r in range(repeats)
            ]
            assert sw.snr_mean_db[i] == np.mean(snrs)
            assert sw.snr_std_db[i] == np.std(snrs)

    def test_single_sigma_allowed(self):
        sw = snr_sigma_sweep(
            CFG, SIGNAL, NoiseSpec(1.0, 20000.0, seed=0), [0.05], 20000.0, 0.1, repeats=2
        )
        assert len(sw) == 1
        assert np.isfinite(sw.snr_mean_db).all()

    def test_sub_bin_frequency_refused_before_noise_is_drawn(self, monkeypatch):
        # at 0.01 s a bin is 100 Hz wide, so 0.5 Hz would be read at DC
        draws = count_draws(monkeypatch)
        with pytest.raises(ValueError, match="half a bin"):
            snr_sigma_sweep(CFG, Sine(0.05, 0.5), NoiseSpec(1.0, 20000.0), [0.01, 0.02],
                            20000.0, 0.01, repeats=2)
        assert draws == {"started": 0, "finished": 0}

    def test_grid_validation(self):
        ns = NoiseSpec(1.0, 20000.0, seed=0)
        with pytest.raises(ValueError):
            snr_sigma_sweep(CFG, SIGNAL, ns, [], 20000.0, 0.1)
        with pytest.raises(ValueError):
            snr_sigma_sweep(CFG, SIGNAL, ns, [0.1, 0.05], 20000.0, 0.1)
        with pytest.raises(ValueError):
            snr_sigma_sweep(CFG, SIGNAL, ns, [0.05], 20000.0, 0.1, repeats=0)

class TestSimulate:
    @pytest.mark.parametrize("n", [1000, 8000, 30000, BLOCK_SAMPLES, BLOCK_SAMPLES + 1])
    def test_reduce_sees_at_most_one_block(self, n):
        b = max(1, BLOCK_SAMPLES // n)
        signal = generate(SIGNAL, 20000.0, n / 20000.0)
        assert signal.n_samples == n
        spec = NoiseSpec(0.05, 20000.0, seed=2)
        cells = [(signal, CFG, spec, stream) for stream in range(2 * b + 1)]
        sizes = []

        def reduce(outs):
            sizes.append(len(outs))
            return [transition_count(out) for out in outs]

        got = simulate(cells, 20000.0, n / 20000.0, reduce)
        assert all(1 <= size <= b for size in sizes)
        assert sizes == [b, b, 1]
        if n > BLOCK_SAMPLES:
            assert set(sizes) == {1}  # a long run is reduced alone, as before blocks
        # results come back one per cell, in cell order
        assert got == [transition_count(run(CFG, signal, generate_noise(
            spec, 20000.0, n / 20000.0, stream=stream))) for _, _, _, stream in cells]

    def test_empty_cell_list(self):
        assert simulate([], 20000.0, 0.005, lambda outs: 1 / 0) == []

    def test_cells_of_different_drives_share_a_block(self):
        n, b = 8000, BLOCK_SAMPLES // 8000
        duration = n / 20000.0
        drives = [generate(s, 20000.0, duration)
                  for s in (SIGNAL, Sine(0.3, 120.0), DampedSine(0.4, 5.0, 700.0))]
        spec = NoiseSpec(0.05, 20000.0, seed=2)
        cells = [(drives[k % 3], CFG, spec, k) for k in range(2 * b + 1)]
        sizes = []

        def reduce(outs):
            sizes.append(len(outs))
            return [(out.first_high, out.switches.tobytes()) for out in outs]

        got = simulate(cells, 20000.0, duration, reduce)
        assert sizes == [b, b, 1]
        assert got == [simulate([cell], 20000.0, duration, reduce)[0] for cell in cells]
        # the drive reaches each cell's output: on the first drive alone they differ
        assert got != simulate([(drives[0], *cell[1:]) for cell in cells], 20000.0, duration,
                               reduce)


POOL_DRIVE = generate(SIGNAL, 20000.0, 0.4)  # 8 000 samples, 8 rows a block


class TestDrawPool:
    N = POOL_DRIVE.n_samples
    CELLS = [(POOL_DRIVE, CFG, NoiseSpec(0.05, 20000.0, seed=2), k) for k in range(40)]

    def test_worker_count(self):
        _, workers = srlab.experiments._draw_pool()
        assert workers == min(len(os.sched_getaffinity(0)), 4)

    def test_draws_run_at_most_a_window_ahead(self, monkeypatch):
        # the noise arrays held at once: drawn, or being drawn, and not yet run
        draws = count_draws(monkeypatch)
        _, workers = srlab.experiments._draw_pool()
        ahead = []

        def counted_run(config, drive, noise):
            ahead.append(draws["started"] - len(ahead))
            return run(config, drive, noise)

        monkeypatch.setattr(srlab.experiments, "run", counted_run)
        simulate(self.CELLS, 20000.0, self.N / 20000.0, lambda outs: outs)
        assert len(ahead) == len(self.CELLS) == draws["finished"]
        assert 1 <= max(ahead) <= workers + 8

    @pytest.mark.parametrize("where", ["reduce", "run", "draw"])
    def test_no_draw_outlives_a_raising_call(self, monkeypatch, where):
        draws = count_draws(monkeypatch)
        cells = list(self.CELLS)
        if where == "run":  # a drive on another grid, refused by run()
            cells[11] = (generate(SIGNAL, 20000.0, 0.1), *cells[11][1:])
        if where == "draw":  # a stream that SeedSequence refuses
            cells[11] = (*cells[11][:3], -1)

        def reduce(outs):
            if where == "reduce":
                raise ZeroDivisionError("reducer failed")
            return outs

        with pytest.raises((ZeroDivisionError, ValueError)):
            simulate(cells, 20000.0, self.N / 20000.0, reduce)
        after = dict(draws)
        assert after["started"] == after["finished"] < len(cells)
        time.sleep(0.05)
        assert draws == after
        # the pool is still usable
        assert len(simulate(self.CELLS[:3], 20000.0, self.N / 20000.0, lambda outs: outs)) == 3

    def test_concurrent_callers_share_the_pool(self):
        # more calling threads than workers and cores, switching often
        def digest(k):
            cells = [(*cell[:3], 100 * k + cell[3]) for cell in self.CELLS]
            outs = simulate(cells, 20000.0, self.N / 20000.0, lambda outs: outs)
            return b"".join(out.switches.tobytes() for out in outs)

        want = [digest(k) for k in range(6)]
        got = [None] * 6

        def caller(k):
            got[k] = digest(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == want

    # Python 3.12 on warns that forking a process with threads may deadlock:
    # the case this test makes
    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_forked_child_makes_its_own_pool(self):
        def digest():
            outs = simulate(self.CELLS, 20000.0, self.N / 20000.0, lambda outs: outs)
            return b"".join(out.switches.tobytes() for out in outs)

        want = digest()  # the parent's pool now has running threads
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: the parent's worker threads do not exist here
            os.close(read)
            try:
                got = digest()
                os.write(write, b"same" if got == want else b"diff")
                code = 0 if got == want else 1
            except BaseException:
                code = 2
            os._exit(code)
        os.close(write)
        deadline = time.monotonic() + 60.0
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
            if time.monotonic() > deadline:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
                pytest.fail("forked child hung in simulate")
            time.sleep(0.01)
        with os.fdopen(read, "rb") as pipe:
            said = pipe.read()
        assert (os.waitstatus_to_exitcode(done[1]), said) == (0, b"same")
        assert digest() == want  # and the parent's pool still works


# Each experiment call makes one kernel call.  Patched where each module
# binds simulate: freq_detect's binding also serves vote_bank and run_bank.
ONE_CALL_EXPERIMENTS = {
    "snr_sigma_sweep": ("srlab.experiments", lambda: snr_sigma_sweep(
        CFG, SIGNAL, NoiseSpec(1.0, 20000.0, seed=1), [0.01, 0.05], 20000.0, 0.05, 3)),
    "error_rate_table": ("srlab.freq_detect", lambda: error_rate_table(
        CFG, [500.0, 50.0, 1000.0], DetectionSetup(duration=0.05), 3)),
    "detect_frequency": ("srlab.freq_detect", lambda: detect_frequency(
        CFG, DampedSine(0.1, 5.0, 500.0), NoiseSpec(0.01, 20000.0), 20000.0, 0.05)),
    "t0_sigma_curve": ("srlab.amp_detect", lambda: t0_sigma_curve(
        CFG, DampedSine(0.1, 5.0, 500.0), [0.0, 0.05, 0.1], 3, duration=0.05)),
    "mean_t0_monte_carlo": ("srlab.amp_detect", lambda: mean_t0_monte_carlo(
        CFG, DampedSine(0.1, 5.0, 500.0), 0.05, 3, 0, 20000.0, 0.05)),
    "vote_bank": ("srlab.freq_detect", lambda: vote_bank(
        threshold_sweep_bank([0.01, 0.02, 0.03], 0.01, 500.0), SIGNAL, 20000.0, 0.05, [0, 1])),
    "run_bank": ("srlab.freq_detect", lambda: run_bank(
        sigma_sweep_bank([0.01, 0.02], 0.02, 50.0), SIGNAL, 20000.0, 0.05)),
}


@pytest.mark.parametrize("name", sorted(ONE_CALL_EXPERIMENTS))
def test_one_simulate_call_per_experiment(name, monkeypatch):
    module, experiment = ONE_CALL_EXPERIMENTS[name]
    calls = []

    def counted(*args):
        calls.append(len(args[0]))
        return simulate(*args)

    monkeypatch.setattr(importlib.import_module(module), "simulate", counted)
    experiment()
    assert len(calls) == 1 and calls[0] >= 1


class TestFindPeak:
    def test_picks_maximum(self):
        sw = SweepResult([0.1, 0.2, 0.3], [1.0, 5.0, 2.0], [0.1] * 3, 2, 0)
        assert find_sr_peak(sw) == (0.2, 5.0)

    def test_tie_goes_to_smaller_sigma(self):
        sw = SweepResult([0.1, 0.2, 0.3], [5.0, 5.0, 1.0], [0.1] * 3, 2, 0)
        assert find_sr_peak(sw)[0] == 0.1

    def test_needs_three_points(self):
        sw = SweepResult([0.1, 0.2], [1.0, 2.0], [0.1, 0.1], 2, 0)
        with pytest.raises(ValueError):
            find_sr_peak(sw)

    def test_peak_on_measured_curve(self):
        sigma_star, snr_star = find_sr_peak(_small_sweep())
        assert sigma_star == 0.05
        assert snr_star > 0.0


class TestCapture:
    def test_combined_is_attenuated_sum(self):
        sig, combined, out = capture_transitions(
            CFG, SIGNAL, NoiseSpec(0.1, 20000.0, seed=2), 20000.0, 0.05
        )
        assert sig.n_samples == combined.n_samples == out.n_samples
        assert sig.dt == combined.dt == out.dt
        # reconstruct the noise from the returned traces and recheck the sum
        noise = combined.samples / CFG.input_attenuation - sig.samples
        np.testing.assert_allclose(
            combined.samples, CFG.input_attenuation * (sig.samples + noise), atol=1e-15
        )

    def test_silent_sub_threshold_run_never_switches(self):
        _, _, out = capture_transitions(
            CFG, SIGNAL, NoiseSpec(0.0, 20000.0, seed=0), 20000.0, 0.1
        )
        assert transition_count(out) == 0
        assert np.all(out.samples == out.samples[0])

    def test_switching_rate_grows_with_sigma(self):
        counts = []
        for sigma in (0.02, 0.1, 0.4):
            _, _, out = capture_transitions(
                CFG, SIGNAL, NoiseSpec(sigma, 20000.0, seed=6), 20000.0, 0.2
            )
            counts.append(transition_count(out))
        assert counts[0] < counts[1] < counts[2]
