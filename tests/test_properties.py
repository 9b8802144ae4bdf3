"""Property tests: each vectorised fast path against its slow oracle.

- trigger.run and hysteresis_sweep against step() folded sample by sample;
- last_transition_time, transition_count and transition_spectrum, which
  read run()'s switch list, against the flip-list scan and the periodogram
  of the dense output's first difference;
- generate_noise against the index-gather zero-order hold;
- second_peak_frequency's selection median and first-bin guard against
  np.median over a mask built from the bin frequencies df * arange(n);
- csvio.write_rows, which formats float64 columns in blocks, against the
  row-by-row writer with one _cell call per value;
- block spectra (one rfft per block of rows into reused buffers) and the
  sweep, error table and bank vote built on them, against the per-row
  spectrum, SNR and peak picking that each cell used on its own;
- the in-place arithmetic of run()'s combined input, t0_density_grid and
  expected_t0_theory against the same formulas written as expressions.
- t0_sigma_curve, vote_bank, run_bank and error_rate_table, each one
  simulate call, against one call per noise level, per seed base and per
  frequency;
- simulate, which draws noise ahead on a thread pool, against a plain
  serial loop of run(config, drive, generate_noise(...)) reduced in the
  same blocks.

The oracles stay here as plain loops and formulas.  Equality is byte
equality (and, for result records, the type of every field): the fast
paths must not move a single output bit.
"""

from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import srlab.trigger  # noqa: E402
from srlab.amp_detect import (  # noqa: E402
    T0Stats,
    envelope_gap,
    expected_t0_theory,
    last_transition_time,
    mean_t0_monte_carlo,
    t0_density_grid,
    t0_sigma_curve,
)
from srlab.bank import (  # noqa: E402
    BankReport,
    DetectorResult,
    most_common_estimate,
    run_bank,
    sigma_sweep_bank,
    threshold_sweep_bank,
    vote_bank,
)
from srlab.csvio import _BLOCK, _cell, write_rows  # noqa: E402
from srlab.experiments import SweepResult, simulate, snr_sigma_sweep  # noqa: E402
from srlab.freq_detect import (  # noqa: E402
    DetectionSetup,
    FreqDetectReport,
    detect_frequency,
    error_rate_table,
    transition_spectrum,
)
from srlab.noise import CLIP_V, NoiseSpec, generate_noise, noise_stream  # noqa: E402
from srlab.signals import DampedSine, Sine, Trace, generate, n_samples_for  # noqa: E402
from srlab.spectral import (  # noqa: E402
    BLOCK_SAMPLES,
    MAG_FLOOR,
    MIN_PROMINENCE_DB,
    Spectrum,
    _block_peaks,
    _SpectrumBlock,
    block_rows,
    periodogram,
    second_peak_frequency,
    snr_db,
)
from srlab.trigger import (  # noqa: E402
    SwitchList,
    TriggerConfig,
    TriggerState,
    calibrated_config,
    hysteresis_sweep,
    ideal_config,
    run,
    step,
    transition_count,
)

# Derandomized: the suite checks the same examples on every run.
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)

# Asymmetric rails and thresholds, so a swapped level or threshold shows.
UNIT = TriggerConfig(1.0, -0.5, 0.1, -0.2, input_attenuation=1.0)
HALF = TriggerConfig(0.93, -0.915, 0.049, -0.0375, input_attenuation=0.5)


def _edges(cfg):
    """Raw inputs the comparator sees exactly on, or one ulp past, each
    threshold (dividing by 0.5 or 1.0 is exact)."""
    a = cfg.input_attenuation
    return [v / a for v in (cfg.v_ut, cfg.v_lt, np.nextafter(cfg.v_ut, 1.0),
                            np.nextafter(cfg.v_lt, -1.0), 0.0, -0.0)]


def _inputs(cfg):
    return st.one_of(st.sampled_from(_edges(cfg)), st.floats(-0.5, 0.5))


def folded_step(cfg, v_n, initial):
    state = initial
    out = np.empty(len(v_n))
    for i, v in enumerate(v_n):
        state = step(cfg, state, v)
        out[i] = cfg.v_sat_pos if state is TriggerState.HIGH else cfg.v_sat_neg
    return out


@st.composite
def drives(draw):
    cfg = draw(st.sampled_from([UNIT, HALF]))
    n = draw(st.integers(1, 40))
    signal = draw(st.lists(_inputs(cfg), min_size=n, max_size=n))
    noise = draw(st.lists(st.one_of(st.just(0.0), st.floats(-0.2, 0.2)),
                          min_size=n, max_size=n))
    return cfg, signal, noise


def _on_unit(signal):
    return UNIT, signal, [0.0] * len(signal)


class TestRunMatchesStep:
    @PROPERTY
    @given(drives(), st.sampled_from(list(TriggerState)))
    @example(_on_unit([0.5, 0.0, 0.0]), TriggerState.HIGH)   # forced LOW at sample 0
    @example(_on_unit([-0.5, 0.0]), TriggerState.LOW)        # forced HIGH at sample 0
    @example(_on_unit([0.5, 0.0]), TriggerState.LOW)         # sample 0 forces the held level
    @example(_on_unit([0.0, 0.05, -0.1]), TriggerState.HIGH)  # no forcing sample
    @example(_on_unit([0.0, 0.05, -0.1]), TriggerState.LOW)
    @example(_on_unit([0.1, -0.2, 0.1, -0.2]), TriggerState.HIGH)  # exactly on thresholds
    @example(_on_unit([0.1, 0.2, -0.2, -0.3]), TriggerState.HIGH)
    def test_run_equals_folded_step(self, drive, initial):
        cfg, signal, noise = drive
        sig = Trace(1e-3, np.array(signal))
        noi = Trace(1e-3, np.array(noise))
        out = run(cfg, sig, noi, initial=initial)
        v_n = [cfg.input_attenuation * (s + n) for s, n in zip(signal, noise)]
        assert out.samples.tobytes() == folded_step(cfg, v_n, initial).tobytes()

    @PROPERTY
    @given(st.sampled_from([UNIT, HALF]),
           st.lists(st.one_of(st.sampled_from(_edges(UNIT) + _edges(HALF)),
                              st.floats(-0.6, 0.6)), min_size=2, max_size=2, unique=True),
           st.integers(2, 120))
    def test_hysteresis_sweep_equals_folded_step(self, cfg, ends, points):
        v_min, v_max = sorted(ends)
        loop = hysteresis_sweep(cfg, v_min, v_max, points)
        a = cfg.input_attenuation
        up = folded_step(cfg, [a * v for v in loop.ascending_input], TriggerState.HIGH)
        down = folded_step(cfg, [a * v for v in loop.descending_input], TriggerState.LOW)
        assert loop.ascending_output.tobytes() == up.tobytes()
        assert loop.descending_output.tobytes() == down.tobytes()

        def first_switch(v, out, to_level):
            for i in range(1, len(out)):
                if out[i] != out[i - 1] and out[i] == to_level:
                    return float(v[i])
            return None

        assert loop.measured_up_threshold == first_switch(
            loop.descending_input, down, cfg.v_sat_pos)
        assert loop.measured_down_threshold == first_switch(
            loop.ascending_input, up, cfg.v_sat_neg)


def flip_scan_last_transition_time(output):
    s = output.samples
    flips = np.nonzero(s[1:] != s[:-1])[0]
    if flips.size == 0:
        return 0.0
    return float((flips[-1] + 1) * output.dt)


def flip_scan_transition_count(output):
    s = output.samples
    return int(np.nonzero(s[1:] != s[:-1])[0].size)


class TestTransitionStatistics:
    @PROPERTY
    @given(drives(), st.sampled_from(list(TriggerState)), st.floats(1e-7, 10.0))
    @example(_on_unit([0.5]), TriggerState.HIGH, 1e-3)
    @example(_on_unit([0.0, 0.0, 0.0]), TriggerState.HIGH, 1e-3)            # never switches
    @example(_on_unit([0.5, -0.5, 0.0]), TriggerState.HIGH, 1.0 / 20000.0)  # switch at sample 1
    @example(_on_unit([0.0, 0.0, 0.5]), TriggerState.HIGH, 1.0 / 20000.0)   # on the final sample
    def test_equal_flip_scan(self, drive, initial, dt):
        cfg, signal, noise = drive
        out = run(cfg, Trace(dt, np.array(signal)), Trace(dt, np.array(noise)), initial=initial)
        got = last_transition_time(out)
        want = flip_scan_last_transition_time(out)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert transition_count(out) == flip_scan_transition_count(out)
        diff = np.diff(out.samples, prepend=out.samples[0])
        want_db = periodogram(Trace(dt, diff)).mag_db
        assert transition_spectrum(out).mag_db.tobytes() == want_db.tobytes()
        v_n = [cfg.input_attenuation * (s + n) for s, n in zip(signal, noise)]
        assert out.samples.tobytes() == folded_step(cfg, v_n, initial).tobytes()

    def test_comparator_output(self):
        # a long run with many switches, as the t0 curves produce
        rng = np.random.default_rng(7)
        sig = Trace(1.0 / 20000.0, rng.normal(0.0, 0.3, 30000))
        out = run(HALF, sig, Trace(sig.dt, np.zeros(sig.n_samples)))
        assert transition_count(out) > 100
        assert last_transition_time(out) == flip_scan_last_transition_time(out)


def gather_noise(spec, sample_rate, duration, stream):
    """Zero-order hold by gathering draw k = floor(i / ratio) for sample i;
    a noise_rate of None is the sample rate."""
    n = n_samples_for(sample_rate, duration)
    rate = sample_rate if spec.noise_rate is None else spec.noise_rate
    ratio = sample_rate / rate
    m = round(ratio)
    if m >= 1 and abs(ratio - m) < 1e-9:
        idx = np.arange(n) // m
    else:
        idx = (np.arange(n) / ratio).astype(np.int64)
    draws = noise_stream(spec.seed, stream).normal(0.0, spec.sigma, size=int(idx[-1]) + 1)
    np.clip(draws, -CLIP_V, CLIP_V, out=draws)
    return draws[idx]


class TestNoiseHold:
    SAMPLE_RATE = 1000.0

    @PROPERTY
    @given(st.integers(1, 400),
           st.sampled_from([None, 1.0, 2.0, 3.0, 7.0, 2.5, 1.0 / 0.7, 0.8]),
           st.one_of(st.just(0.0), st.floats(0.0, 8.0)),
           st.integers(0, 2**32), st.integers(0, 1000))
    @example(300, 1.0, 0.4, 1, 2)     # m = 1: the draws are the samples
    @example(300, None, 0.4, 1, 2)    # no noise rate: one draw per sample
    @example(301, 3.0, 0.4, 1, 2)     # m = 3, n % m != 0
    @example(300, 2.5, 0.4, 1, 2)     # non-integer ratio
    @example(301, 3.0000000000000004, 0.4, 1, 2)  # near-whole ratio snaps to m = 3
    @example(300, 1.0, 0.0, 1, 2)     # sigma = 0
    @example(301, 3.0, 8.0, 1, 2)     # sigma = 8: the clip at +-CLIP_V bites
    @example(5, 2.0**40, 0.4, 1, 2)   # hold ratio far above n: one draw
    def test_equals_gather(self, n, ratio, sigma, seed, stream):
        spec = NoiseSpec(sigma, None if ratio is None else self.SAMPLE_RATE / ratio, seed=seed)
        duration = n / self.SAMPLE_RATE
        got = generate_noise(spec, self.SAMPLE_RATE, duration, stream=stream).samples
        want = gather_noise(spec, self.SAMPLE_RATE, duration, stream)
        assert got.size == n
        assert got.tobytes() == want.tobytes()
        if sigma == 0.0:
            assert not np.signbit(got).any()


def masked_second_peak_frequency(spectrum, dc_guard_hz=None):
    """Peak picking with np.median and a guard mask over the bin frequencies."""
    if dc_guard_hz is None:
        dc_guard_hz = 2.0 * spectrum.df
    mags = spectrum.mag_db
    freqs = spectrum.df * np.arange(mags.size)
    candidates = np.zeros(mags.size, dtype=bool)
    candidates[1:-1] = (mags[1:-1] > mags[:-2]) & (mags[1:-1] > mags[2:])
    candidates &= freqs > dc_guard_hz
    if not np.any(candidates):
        return None
    idx = np.nonzero(candidates)[0]
    k = idx[np.argmax(mags[idx])]
    if mags[k] < float(np.median(mags)) + MIN_PROMINENCE_DB:
        return None
    return float(freqs[k])


# Few distinct levels, so ties, plateaus and a signed-zero median are common;
# -6.0 sits one prominence below 0.0.  Small whole numbers put peaks exactly
# one prominence above either middle value of an even-sized spectrum.
_LEVELS = [-100.0, -6.0, -0.0, 0.0, 6.0, 6.0000000000000009]
_MAGS = st.one_of(st.sampled_from(_LEVELS), st.integers(-12, 12).map(float),
                  st.floats(-200.0, 200.0))


def _peak_input(mags, df=1.0, odd_samples=0):
    return Spectrum(df=df, mag_db=mags, n_samples=2 * (len(mags) - 1) + odd_samples)


@st.composite
def peak_inputs(draw):
    """A spectrum of odd or even size, and a guard: None, on a bin, between
    two bins, or anywhere up to past the last bin."""
    m = draw(st.integers(1, 40))
    mags = draw(st.lists(_MAGS, min_size=m, max_size=m))
    df = draw(st.sampled_from([1.0, 0.1, 2.5, 1.0 / 3.0, 7.0]))
    bins = st.integers(0, m + 1)
    guard = draw(st.one_of(st.none(), bins.map(lambda j: df * j),
                           bins.map(lambda j: df * (j + 0.5)),
                           st.floats(0.0, 2.0 * df * (m + 1))))
    return _peak_input(mags, df, draw(st.integers(0, 1))), guard


class TestSecondPeakSelection:
    @PROPERTY
    @given(peak_inputs())
    @example((_peak_input([0.0, -100.0, 6.0, -100.0, 6.0, -100.0, -100.0]), None))  # tied peaks
    @example((_peak_input([-0.0, -0.0, 6.0, -0.0]), 0.0))          # median -0.0, even size
    @example((_peak_input([0.0, -0.0, 6.0, -0.0, 0.0]), 0.0))      # median 0.0, odd size
    @example((_peak_input([0.0, -6.0, 0.0, -6.0, -6.0], 0.1), 0.2))  # guard on the peak's bin
    @example((_peak_input([0.0, -6.0, 0.0, -6.0, -6.0], 0.1), 0.15))  # guard between bins
    @example((_peak_input([0.0, -100.0, 6.0, -100.0], 2.5), 1e300))  # guard past the end
    @example((_peak_input([0.0, -10.0, -1.0, -10.0, -4.0, -10.0]), 0.0))  # middle pair -10, -4
    @example((_peak_input([0.0, 10.0, 0.0, 0.0]), 0.0))            # the peak is bin 1
    @example((_peak_input([5.0]), None))
    @example((_peak_input([5.0, 6.0]), 0.0))
    def test_equals_masked_median(self, case):
        spectrum, guard = case
        got = second_peak_frequency(spectrum, guard)
        want = masked_second_peak_frequency(spectrum, guard)
        assert type(got) is type(want)
        assert got == want


def rowwise_write_rows(path, header, rows):
    """The row-by-row writer: one _cell call per value, one string per file."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


# Signed zeros, infinities, NaN, the subnormal range and the values where
# repr switches between positional and exponent form (1e16 and 1e-4).
EDGE_FLOATS = [0.0, -0.0, float("inf"), -float("inf"), float("nan"), 5e-324,
               2.225073858507201e-308, 2.2250738585072014e-308, 1e16, 9999999999999998.0,
               1e-05, 9.999999999999999e-05, 0.0001, 0.1, 1.7976931348623157e308]
_FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
_OTHERS = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70), _FLOATS,
    st.text("abc xyz-_.", max_size=5),
    st.lists(st.one_of(st.none(), st.booleans(), st.integers(-9, 9), _FLOATS), max_size=3),
    _FLOATS.map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.booleans().map(np.bool_),
)
_MIXED = [None, True, 3, [0.5, None], np.float64(-0.0), np.bool_(False), "a b"]
# How a column's pool of values becomes a column of n values.
_KINDS = {
    "float64 array": lambda pool, idx: np.asarray(pool, dtype=np.float64)[idx],
    "float32 array": lambda pool, idx: np.asarray(pool, dtype=np.float32)[idx],
    "int64 array": lambda pool, idx: np.asarray(pool, dtype=np.int64)[idx],
    "list": lambda pool, idx: [pool[i] for i in idx.tolist()],
}
_POOLS = {
    "float64 array": st.lists(_FLOATS, min_size=1, max_size=20),
    "float32 array": st.lists(st.floats(width=32), min_size=1, max_size=20),
    "int64 array": st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=20),
    "list": st.lists(_OTHERS, min_size=1, max_size=20),
}


@st.composite
def csv_tables(draw):
    """A header and its columns: 0, 1 or a block's edge of rows, each column
    a float64, float32 or int64 array or a list of mixed values, drawn from
    a small pool in a random order."""
    n = draw(st.sampled_from([0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(sorted(_KINDS)))
        pool = draw(_POOLS[kind])
        columns.append(_KINDS[kind](pool, rng.integers(len(pool), size=n)))
    header = [f"c{i}" for i in range(len(columns))]
    return header, columns


class TestColumnWriter:
    @settings(PROPERTY, max_examples=60)
    @given(table=csv_tables())
    @example(table=(["x", "mixed"],
                    [np.resize(np.asarray(EDGE_FLOATS), 2 * _BLOCK + 1),
                     [_MIXED[i % len(_MIXED)] for i in range(2 * _BLOCK + 1)]]))
    def test_same_bytes_as_rowwise_writer(self, table, tmp_path_factory):
        header, columns = table
        out = tmp_path_factory.mktemp("csv")
        write_rows(out / "columns.csv", header, columns)
        rowwise_write_rows(out / "rows.csv", header, zip(*columns))
        assert (out / "columns.csv").read_bytes() == (out / "rows.csv").read_bytes()


def rowwise_mag_db(x):
    """The per-cell spectrum: one rfft call for one row, floored, in dB."""
    mag = np.abs(np.fft.rfft(x))
    np.maximum(mag, MAG_FLOOR, out=mag)
    return 20.0 * np.log10(mag)


def rowwise_snr_db(mags, df, f):
    k = int(round(f / df))
    return float(mags[k] - float(np.mean(mags)))


def rowwise_transitions(output):
    s = output.samples
    return np.diff(s, prepend=s[0])


def rowwise_peak(output, dc_guard_hz=None):
    """The per-cell detector: peak of the transition train's own spectrum."""
    n = output.n_samples
    return second_peak_frequency(
        Spectrum(output.sample_rate / n, rowwise_mag_db(rowwise_transitions(output)), n),
        dc_guard_hz)


_DENSE = {"rails": (SwitchList.write_samples, lambda out: out.samples),
          "transitions": (SwitchList.write_transitions, rowwise_transitions)}


@st.composite
def switch_blocks(draw):
    """1 to 17 switch lists on one odd or even grid, each with its own
    switch density (none up to every sample) and starting level."""
    n = draw(st.one_of(st.integers(4, 40), st.integers(41, 3000)))
    dt = draw(st.sampled_from([1.0 / 20000.0, 1e-3, 0.3]))
    v_pos, v_neg = draw(st.sampled_from([(1.0, -1.0), (0.93, -0.915), (4.0, -4.0)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    outs = []
    for _ in range(draw(st.integers(1, 17))):
        density = rng.choice([0.0, 0.002, 0.05, 0.5, 1.0])
        switches = np.flatnonzero(rng.random(n - 1) < density) + 1
        outs.append(SwitchList(dt, n, bool(rng.integers(2)), switches, v_pos, v_neg))
    return outs


class TestBlockSpectra:
    @PROPERTY
    @given(switch_blocks(), st.sampled_from(sorted(_DENSE)), st.data())
    def test_block_equals_rowwise(self, outs, kind, data):
        write, dense = _DENSE[kind]
        n, dt = outs[0].n_samples, outs[0].dt
        df = outs[0].sample_rate / n
        f = df * data.draw(st.integers(1, n // 2)) + data.draw(st.sampled_from([0.0, -0.3 * df]))
        guard = data.draw(st.one_of(st.none(), st.floats(0.0, df * n / 2)))
        block = _SpectrumBlock(Trace(dt, np.zeros(n)), len(outs))
        # a second, shorter block reuses the buffers: no row of the first may leak
        for part in (outs, outs[::-1][:max(1, len(outs) // 2)]):
            spectrum = block.spectrum(part, write)
            snrs = snr_db(spectrum, f)
            peaks = _block_peaks(spectrum, guard)
            assert spectrum.mag_db.shape == (len(part), n // 2 + 1)
            for i, out in enumerate(part):
                want = rowwise_mag_db(dense(out))
                assert spectrum.mag_db[i].tobytes() == want.tobytes()
                one = periodogram(Trace(dt, dense(out)))
                assert one.mag_db.tobytes() == want.tobytes()
                assert type(snr_db(one, f)) is float
                assert np.float64(snrs[i]).tobytes() == np.float64(
                    rowwise_snr_db(want, df, f)).tobytes()
                assert peaks[i] == second_peak_frequency(one, guard)
                if kind == "transitions":
                    assert transition_spectrum(out).mag_db.tobytes() == want.tobytes()


def rowwise_sweep(config, signal_spec, template, sigmas, sample_rate, duration, repeats):
    signal = generate(signal_spec, sample_rate, duration)
    snrs = np.empty((len(sigmas), repeats))
    for i, sigma in enumerate(sigmas):
        for r in range(repeats):
            out = run(config, signal, generate_noise(
                replace(template, sigma=sigma), sample_rate, duration, stream=i * repeats + r))
            snrs[i, r] = rowwise_snr_db(rowwise_mag_db(out.samples),
                                        out.sample_rate / out.n_samples, signal_spec.frequency)
    return SweepResult(sigmas, snrs.mean(axis=1), snrs.std(axis=1), repeats, template.seed)


def rowwise_error_table(config, frequencies, p, repeats):
    reports = []
    for fi, f in enumerate(frequencies):
        signal = generate(DampedSine(p.amplitude, p.decay, f), p.sample_rate, p.duration)
        for r in range(repeats):
            spec = NoiseSpec(p.sigma, p.sample_rate, seed=p.seed_base + r)
            f_est = rowwise_peak(run(config, signal, generate_noise(
                spec, p.sample_rate, p.duration, stream=fi)), p.dc_guard_hz)
            error = None if f_est is None else 100.0 * abs(f_est - f) / f
            reports.append(FreqDetectReport(f, f_est, error, spec.sigma, spec.seed))
    return reports


def rowwise_bank(bank, signal_spec, sample_rate, duration, seed_base):
    signal = generate(signal_spec, sample_rate, duration)
    results = []
    for i, det in enumerate(bank.detectors):
        out = run(det.config, signal, generate_noise(
            NoiseSpec(det.sigma, sample_rate, seed=seed_base), sample_rate, duration, stream=i))
        rate = transition_count(out) / duration
        results.append((det.config.v_ut, det.sigma, rate, rate >= bank.min_transition_rate_hz,
                        rowwise_peak(out)))
    return results


# n = 16 384 puts b = 4 rows in a block, so these counts are 1, b-1, b,
# b+1 and 2b+1 cells per simulate call.
B_DURATION = 0.8192
B = block_rows(n_samples_for(20000.0, B_DURATION))
CELL_COUNTS = [1, B - 1, B, B + 1, 2 * B + 1]


class TestBlockExperiments:
    def test_block_size(self):
        assert B == 4 and BLOCK_SAMPLES // 16384 == B

    @pytest.mark.parametrize("levels, repeats", [(1, 1), (1, 3), (2, 2), (1, 5), (3, 3)])
    def test_sweep(self, levels, repeats):
        assert levels * repeats in CELL_COUNTS
        args = (ideal_config(), Sine(0.05, 500.0), NoiseSpec(1.0, 20000.0, seed=3),
                np.array([0.02, 0.05, 0.1][:levels]), 20000.0, B_DURATION, repeats)
        got, want = snr_sigma_sweep(*args), rowwise_sweep(*args)
        for name in ("sigmas", "snr_mean_db", "snr_std_db"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert (got.repeats, got.seed_base) == (want.repeats, want.seed_base)

    @pytest.mark.parametrize("repeats", CELL_COUNTS)
    def test_error_rate_table(self, repeats):
        setup = DetectionSetup(duration=B_DURATION, seed_base=11)
        got = error_rate_table(ideal_config(), [50.0, 500.0], setup, repeats)
        assert got == rowwise_error_table(ideal_config(), [50.0, 500.0], setup, repeats)

    # A bank has at least two channels, so it has no one-cell case.
    @pytest.mark.parametrize("channels", CELL_COUNTS[1:])
    def test_vote_bank(self, channels):
        bank = threshold_sweep_bank([0.001 * 2**i for i in range(channels)], 0.002, 500.0)
        tone, seeds = Sine(0.01, 500.0), [4, 5, 6]
        rows = [rowwise_bank(bank, tone, 20000.0, B_DURATION, s) for s in seeds]
        for s, want in zip(seeds, rows):
            report = run_bank(bank, tone, 20000.0, B_DURATION, seed_base=s)
            assert [tuple(vars(r).values()) for r in report.results] == want
        voted = vote_bank(bank, tone, 20000.0, B_DURATION, seed_bases=seeds)
        assert isinstance(voted, BankReport)
        for i, r in enumerate(voted.results):
            chan = [row[i] for row in rows]
            assert r.transition_rate_hz == float(np.mean([c[2] for c in chan]))
            assert r.resonating == (2 * sum(c[3] for c in chan) > len(chan))


def per_level_curve(config, damped, sigmas, n_runs, seed_base, sample_rate, duration,
                    noise_rate):
    """t0_sigma_curve as one simulate call per noise level; a zero level
    runs once and stands for all n_runs runs."""
    signal = generate(damped, sample_rate, duration)
    rate = sample_rate if noise_rate is None else noise_rate
    curve = []
    for i, sigma in enumerate(sigmas):
        noiseless = sigma == 0.0
        runs = 1 if noiseless else n_runs
        spec = NoiseSpec(sigma=float(sigma), noise_rate=rate, seed=seed_base)
        cells = [(signal, config, spec, i * n_runs + r) for r in range(runs)]
        t0s = np.asarray(simulate(cells, sample_rate, duration,
                                  lambda outs: [last_transition_time(o) for o in outs]))
        stats = T0Stats(float(sigma), float(t0s.mean()), float(t0s.std()), runs,
                        int(np.count_nonzero(t0s == 0.0)))
        if noiseless:
            stats = replace(stats, sigma=0.0, n_runs=n_runs,
                            n_no_transition=n_runs * stats.n_no_transition)
        curve.append(stats)
    return curve


def per_seed_vote(bank, signal_spec, sample_rate, duration, seed_bases, noise_rate):
    """vote_bank as one simulate call per seed base (channel i on stream i),
    then the vote per channel: mean rate, strict majority, most common
    estimate.  Returns the per-seed reports and the voted one."""
    signal = generate(signal_spec, sample_rate, duration)
    block = _SpectrumBlock(signal, len(bank.detectors))
    rate = sample_rate if noise_rate is None else noise_rate

    def reduce(outs):
        f_ests = _block_peaks(block.spectrum(outs, SwitchList.write_transitions))
        return [(transition_count(out) / duration, f) for out, f in zip(outs, f_ests)]

    reports = []
    for s in seed_bases:
        cells = [(signal, det.config, NoiseSpec(det.sigma, rate, seed=s), i)
                 for i, det in enumerate(bank.detectors)]
        outcomes = simulate(cells, sample_rate, duration, reduce)
        reports.append(BankReport(results=[
            DetectorResult(det.config.v_ut, det.sigma, r, r >= bank.min_transition_rate_hz, f)
            for det, (r, f) in zip(bank.detectors, outcomes)]))
    voted = []
    for i in range(len(bank.detectors)):
        rows = [rep.results[i] for rep in reports]
        voted.append(replace(
            rows[0],
            transition_rate_hz=float(np.mean([r.transition_rate_hz for r in rows])),
            resonating=sum(r.resonating for r in rows) * 2 > len(rows),
            f_est=most_common_estimate(r.f_est for r in rows)))
    return reports, BankReport(results=voted)


def per_frequency_table(config, frequencies, p, repeats):
    """error_rate_table as one simulate call per frequency, each on its own
    drive (repeat r on seed seed_base + r, frequency i on stream i), every
    call's spectra in one set of buffers made for the first drive."""
    specs = [NoiseSpec(p.sigma, p.sample_rate, seed=p.seed_base + r) for r in range(repeats)]
    reports, block = [], None
    for i, f in enumerate(frequencies):
        signal = generate(DampedSine(p.amplitude, p.decay, f), p.sample_rate, p.duration)
        block = block or _SpectrumBlock(signal, repeats)
        f_ests = simulate([(signal, config, spec, i) for spec in specs], p.sample_rate,
                          p.duration, lambda outs: _block_peaks(
                              block.spectrum(outs, SwitchList.write_transitions), p.dc_guard_hz))
        for spec, f_est in zip(specs, f_ests):
            error = None if f_est is None else 100.0 * abs(f_est - f) / f
            reports.append(FreqDetectReport(f, f_est, error, spec.sigma, spec.seed))
    return reports


def typed_fields(records):
    """Every field of every record as (name, type, repr): equal lists mean
    equal bits (repr round-trips a float and tells -0.0 from 0.0) and equal
    types."""
    return [[(f.name, type(v), repr(v)) for f in fields(r) for v in [getattr(r, f.name)]]
            for r in records]


ONE_CALL = settings(max_examples=40, deadline=None, derandomize=True, database=None)
FIG13_DRIVE = DampedSine(0.1, 5.0, 1000.0)
NOISE_RATES = [None, 20000.0, 5000.0, 3000.0]


@st.composite
def curve_grids(draw):
    """One to three noise levels where the comparator switches, after an
    optional 0.0 or -0.0 level."""
    grid = sorted(draw(st.lists(st.sampled_from([0.05, 0.1, 0.2, 0.3, 0.5]), min_size=1,
                                max_size=3, unique=True)))
    zero = draw(st.sampled_from([None, 0.0, -0.0]))
    return grid if zero is None else [zero, *grid]


@st.composite
def banks(draw):
    """A threshold or sigma bank of two to five channels whose transition
    rates vary from seed to seed, with its drive."""
    channels = draw(st.integers(2, 5))
    if draw(st.booleans()):
        bank = threshold_sweep_bank([0.004 * (i + 1) for i in range(channels)], 0.01, 500.0)
        return bank, Sine(0.01, 500.0)
    sigmas = [0.01 * 2**i for i in range(channels)]
    return sigma_sweep_bank(sigmas, 0.05, 50.0), DampedSine(0.1, 2.0, 50.0)


class TestOneCallPerDrive:
    @ONE_CALL
    @given(curve_grids(), st.integers(1, 4), st.integers(0, 3), st.sampled_from(NOISE_RATES),
           st.sampled_from([calibrated_config(4.0), HALF]))
    def test_t0_curve_equals_per_level_calls(self, sigmas, n_runs, seed, noise_rate, config):
        args = (config, FIG13_DRIVE, sigmas, n_runs, seed, 20000.0, 0.02, noise_rate)
        got, want = t0_sigma_curve(*args), per_level_curve(*args)
        assert typed_fields(got) == typed_fields(want)
        for i, sigma in enumerate(sigmas):
            if sigma != 0.0:
                one = mean_t0_monte_carlo(config, FIG13_DRIVE, sigma, n_runs, seed, 20000.0,
                                          0.02, noise_rate, stream_base=i * n_runs)
                assert typed_fields([one]) == typed_fields([got[i]])

    # At B_DURATION a block holds 4 rows, so the one call's blocks mix
    # frequencies; frequencies come unsorted, and HALF at sigma 0.004 leaves
    # some runs undetected.
    @ONE_CALL
    @given(st.lists(st.sampled_from([50.0, 120.0, 500.0, 1000.0, 2500.0]), min_size=1,
                    max_size=3, unique=True),
           st.integers(1, 3), st.integers(0, 20), st.sampled_from([None, 0.0, 30.0, 200.0]),
           st.sampled_from([ideal_config(), HALF]), st.sampled_from([0.01, 0.004]))
    def test_error_table_equals_per_frequency_calls(self, frequencies, repeats, seed, guard,
                                                    config, sigma):
        setup = DetectionSetup(sigma=sigma, duration=B_DURATION, seed_base=seed,
                               dc_guard_hz=guard)
        got = error_rate_table(config, frequencies, setup, repeats)
        assert typed_fields(got) == typed_fields(
            per_frequency_table(config, frequencies, setup, repeats))
        for i, f in enumerate(frequencies):
            for r in range(repeats):
                one = detect_frequency(config, DampedSine(setup.amplitude, setup.decay, f),
                                       NoiseSpec(setup.sigma, setup.sample_rate, seed=seed + r),
                                       setup.sample_rate, setup.duration, guard, stream=i)
                assert typed_fields([one]) == typed_fields([got[i * repeats + r]])

    # n = 8 000 puts 8 rows in a block, so up to 15 cells cross a block
    # boundary inside a seed base.
    @ONE_CALL
    @given(banks(), st.lists(st.integers(0, 50), min_size=1, max_size=3),
           st.sampled_from([None, 10000.0]))
    def test_vote_and_run_bank_equal_per_seed_calls(self, bank_tone, seeds, noise_rate):
        bank, tone = bank_tone
        reports, voted = per_seed_vote(bank, tone, 20000.0, 0.4, seeds, noise_rate)
        got = vote_bank(bank, tone, 20000.0, 0.4, seeds, noise_rate)
        assert typed_fields(got.results) == typed_fields(voted.results)
        for s, want in zip(seeds, reports):
            one = run_bank(bank, tone, 20000.0, 0.4, s, noise_rate)
            assert typed_fields(one.results) == typed_fields(want.results)


def expression_t0_density(gap, sigma):
    from scipy.special import log_ndtr, ndtr

    x = gap.samples / sigma
    ln_hold = log_ndtr(x)
    steps = 0.5 * (ln_hold[1:] + ln_hold[:-1]) * gap.dt
    cum = np.concatenate(([0.0], np.cumsum(steps)))
    suffix = cum[-1] - cum
    return ndtr(-x) * np.exp(suffix / gap.dt) / gap.dt


def expression_t0_theory(gap, sigma):
    return float(np.sum(gap.times() * expression_t0_density(gap, sigma)) * gap.dt)


FINITE = st.floats(-1e6, 1e6, allow_subnormal=True)
# fig13's gap: calibrated law at 4 V, 0.1 V drive decaying at 5/s, 30 000 steps
FIG13_GAP = envelope_gap(calibrated_config(4.0), DampedSine(0.1, 5.0, 1000.0), 20000.0, 1.5)


@st.composite
def gaps(draw):
    n = draw(st.integers(2, 300))
    values = draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
    dt = draw(st.one_of(st.sampled_from([1.0 / 20000.0, 1e-3, 1.0]), st.floats(1e-7, 10.0)))
    return Trace(dt, np.array(values))


class TestInPlace:
    @PROPERTY
    @given(st.integers(1, 60).flatmap(lambda n: st.tuples(
               st.lists(FINITE, min_size=n, max_size=n), st.lists(FINITE, min_size=n, max_size=n))),
           st.one_of(st.sampled_from([1.0, 0.5, 0.1]), st.floats(1e-6, 1.0)))
    def test_run_combined_input(self, drive, a):
        signal, noise = (np.array(x) for x in drive)
        cfg = TriggerConfig(1.0, -1.0, 0.1, -0.1, input_attenuation=a)
        switches, seen = srlab.trigger._switches, []

        def spy(v_n, *args):
            seen.append(v_n.copy())
            return switches(v_n, *args)

        with mock.patch.object(srlab.trigger, "_switches", spy):
            out = run(cfg, Trace(1e-3, signal), Trace(1e-3, noise))
        want = a * (signal + noise)
        assert seen[0].tobytes() == want.tobytes()
        first_high, want_switches = switches(want, 0.1, -0.1, True)
        assert (out.first_high, out.switches.tobytes()) == (first_high, want_switches.tobytes())
        assert signal.tobytes() == np.array(drive[0]).tobytes()  # inputs left as they were

    @PROPERTY
    @given(gaps(), st.floats(1e-4, 10.0))
    @example(FIG13_GAP, 0.5 * 0.05)
    @example(FIG13_GAP, 0.5 * 0.5)
    def test_t0_density_and_theory(self, gap, sigma):
        before = gap.samples.tobytes()
        got = t0_density_grid(gap, sigma)
        assert got.tobytes() == expression_t0_density(gap, sigma).tobytes()
        theory = expected_t0_theory(gap, sigma)
        assert type(theory) is float
        assert np.float64(theory).tobytes() == np.float64(
            expression_t0_theory(gap, sigma)).tobytes()
        assert gap.samples.tobytes() == before


def serial_simulate(cells, sample_rate, duration, reduce):
    """simulate as a plain loop on the calling thread: each cell drawn with
    generate_noise and run in turn, the outputs reduced block_rows(n) at a
    time."""
    size = block_rows(n_samples_for(sample_rate, duration))
    outs = [run(config, drive, generate_noise(spec, sample_rate, duration, stream=stream))
            for drive, config, spec, stream in cells]
    return [r for i in range(0, len(outs), size) for r in reduce(outs[i:i + size])]


# (duration at 20 kHz, most cells): 400 samples give blocks of 163 rows,
# 8 000 of 8 and 30 000 of 2; 65 536 (BLOCK_SAMPLES) and 70 000 are one row
# a block.  The most cells make two full blocks and a remainder of one to
# four rows, and more cells than simulate draws ahead.
POOLED_GRIDS = [(0.02, 330), (0.4, 17), (1.5, 5), (BLOCK_SAMPLES / 20000.0, 3), (3.5, 3)]
POOLED_DRIVES = [Sine(0.05, 500.0), Sine(0.3, 120.0), DampedSine(0.4, 5.0, 700.0)]


@st.composite
def pooled_cells(draw):
    """Cells of mixed drives, comparators, noise levels (σ = 0 and -0.0
    among them), hold ratios, seeds and streams on one grid."""
    duration, most = draw(st.sampled_from(POOLED_GRIDS))
    drives = [generate(d, 20000.0, duration) for d in POOLED_DRIVES]
    cell = st.tuples(st.sampled_from(drives), st.sampled_from([ideal_config(), HALF]),
                     st.sampled_from([0.0, -0.0, 0.01, 0.05, 0.3]),
                     st.sampled_from([20000.0, 5000.0, 3000.0]), st.integers(0, 3),
                     st.integers(0, 2**20))
    count = draw(st.one_of(st.just(1), st.just(most), st.integers(2, most)))
    cells = [(drive, config, NoiseSpec(sigma, rate, seed=seed), stream)
             for drive, config, sigma, rate, seed, stream in draw(st.lists(
                 cell, min_size=count, max_size=count))]
    return cells, duration


def cycled_cells(duration, count):
    """count cells on one grid cycling through every drive, comparator,
    noise level and hold ratio pooled_cells draws from."""
    drives = [generate(d, 20000.0, duration) for d in POOLED_DRIVES]
    configs, rates = [ideal_config(), HALF], [20000.0, 5000.0, 3000.0]
    sigmas = [0.0, -0.0, 0.01, 0.05, 0.3]
    return [(drives[k % 3], configs[k % 2], NoiseSpec(sigmas[k % 5], rates[k % 3], seed=k % 4), k)
            for k in range(count)], duration


class TestPooledDraws:
    @ONE_CALL
    @given(pooled_cells())
    @example(cycled_cells(0.02, 330))
    @example(cycled_cells(0.4, 17))
    @example(cycled_cells(1.5, 5))
    def test_simulate_equals_serial_loop(self, cells_duration):
        cells, duration = cells_duration

        def reducer(sizes):
            def reduce(outs):
                sizes.append(len(outs))
                return list(outs)
            return reduce

        got_sizes, want_sizes = [], []
        got = simulate(cells, 20000.0, duration, reducer(got_sizes))
        want = serial_simulate(cells, 20000.0, duration, reducer(want_sizes))
        assert got_sizes == want_sizes
        assert len(got) == len(cells)
        for a, b in zip(got, want):
            assert [(f.name, type(getattr(a, f.name))) for f in fields(a)] == \
                [(f.name, type(getattr(b, f.name))) for f in fields(b)]
            assert (a.dt, a.n_samples, a.first_high, a.v_sat_pos, a.v_sat_neg) == \
                (b.dt, b.n_samples, b.first_high, b.v_sat_pos, b.v_sat_neg)
            assert a.switches.dtype == b.switches.dtype
            assert a.switches.tobytes() == b.switches.tobytes()
