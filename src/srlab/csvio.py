"""CSV and run-manifest serialization.

Every emitted file follows one bit-exact contract: UTF-8, LF line endings,
a header row, `.` decimal separator, floats written with repr() (shortest
round-trip form), empty cell for absent values, booleans as true/false.
Identical inputs therefore produce byte-identical files — the foundation
of the reproduce-from-manifest guarantee.

Manifests are flat INI files holding the fully resolved run configuration
(every parameter plus seed and package version); feeding one back as a
config file replays the run.
"""

from __future__ import annotations

import configparser
from pathlib import Path

import numpy as np

from srlab.amp_detect import T0Stats
from srlab.bank import BankReport
from srlab.experiments import SweepResult
from srlab.freq_detect import FreqDetectReport
from srlab.signals import Trace
from srlab.trigger import HysteresisLoop, SwitchList


def _cell(value) -> str:
    if type(value) is float:
        return repr(value)
    if value is None:
        return ""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, (list, tuple)):
        return ";".join(_cell(v) for v in value)
    return str(value)


# Rows are formatted and written this many at a time, so a writer's memory
# grows with the block, not with the file.
_BLOCK = 4096


def _format(column):
    if isinstance(column, np.ndarray) and column.dtype == np.float64:
        # repr of each Python float: the string _cell gives it, without a
        # call per value
        return map(repr, column.tolist())
    return map(_cell, column)


def write_rows(path, header, columns) -> None:
    """Write one CSV file under the package-wide byte contract into an
    existing directory.  `columns` holds one sequence per header name, all
    of one length; row i takes item i of each."""
    n = len(columns[0]) if columns else 0
    if len(columns) != len(header) or any(len(c) != n for c in columns):
        raise ValueError(f"need {len(header)} columns of one length for {path}")
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n, _BLOCK):
            cells = [_format(c[start:start + _BLOCK]) for c in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _columns(records, *names) -> list[list]:
    """One list per attribute name, read off each record in order."""
    records = list(records)
    return [[getattr(r, name) for r in records] for name in names]


def write_waveforms_csv(path, signal: Trace, combined: Trace, output: SwitchList) -> None:
    """Aligned capture of a single run: clean input, comparator input, output."""
    write_rows(
        path,
        ("time_s", "input_v", "combined_v", "output_v"),
        [np.asarray(c, dtype=np.float64)
         for c in (signal.times(), signal.samples, combined.samples, output.samples)],
    )


def write_hysteresis_csv(path, loop: HysteresisLoop) -> None:
    n_up, n_down = loop.ascending_input.size, loop.descending_input.size
    v_in = np.concatenate((loop.ascending_input, loop.descending_input), dtype=np.float64)
    v_out = np.concatenate((loop.ascending_output, loop.descending_output), dtype=np.float64)
    write_rows(path, ("direction", "v_in", "v_out"),
               (["ascending"] * n_up + ["descending"] * n_down, v_in, v_out))


def write_sweep_csv(path, sweep: SweepResult) -> None:
    write_rows(
        path,
        ("sigma_v", "snr_mean_db", "snr_std_db", "repeats"),
        (sweep.sigmas, sweep.snr_mean_db, sweep.snr_std_db,
         [sweep.repeats] * sweep.sigmas.size),
    )


def write_freq_table_csv(path, reports) -> None:
    write_rows(
        path,
        ("f_true_hz", "f_est_hz", "error_pct", "detected_bool", "sigma_v", "seed"),
        _columns(reports, "f_true", "f_est", "error_pct", "detected", "sigma", "seed"),
    )


def write_t0_curve_csv(path, curve) -> None:
    write_rows(
        path,
        ("sigma_v", "mean_t0_s", "std_t0_s", "n_runs", "n_no_transition"),
        _columns(curve, "sigma", "mean_t0", "std_t0", "n_runs", "n_no_transition"),
    )


def read_t0_curve_csv(path) -> list[T0Stats]:
    """Inverse of write_t0_curve_csv, for feeding saved curves back into
    the fitting commands."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ValueError(f"cannot read t0-curve file {path}: {exc.strerror}") from exc
    if not lines or lines[0] != "sigma_v,mean_t0_s,std_t0_s,n_runs,n_no_transition":
        raise ValueError(f"{path} is not a t0-curve CSV (bad header)")
    curve = []
    for number, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        try:
            sigma, mean, std, n_runs, n_none = line.split(",")
            curve.append(T0Stats(sigma=float(sigma), mean_t0=float(mean), std_t0=float(std),
                                 n_runs=int(n_runs), n_no_transition=int(n_none)))
        except ValueError as exc:
            raise ValueError(f"{path} line {number}: {exc}") from exc
    return curve


def write_fits_csv(path, fits) -> None:
    """One row per (decay, SigmoidFit) pair, in the order given; a decay of
    None (unlabelled curve) leaves its cell empty."""
    fits = list(fits)
    write_rows(
        path,
        ("decay_b", "slope_a", "center_b", "r2"),
        [[b for b, _ in fits],
         *_columns((f for _, f in fits), "slope_a", "center_b", "r_squared")],
    )


def write_bank_csv(path, report: BankReport) -> None:
    write_rows(
        path,
        ("idx", "threshold_v", "sigma_v", "transition_rate_hz", "resonating", "f_est_hz"),
        [range(len(report.results)),
         *_columns(report.results, "threshold", "sigma", "transition_rate_hz",
                   "resonating", "f_est")],
    )


def write_manifest(path, params: dict) -> None:
    """Flat INI manifest of a fully resolved run configuration."""
    parser = configparser.ConfigParser()
    parser["run"] = {k: _cell(v) for k, v in params.items()}
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        parser.write(fh)


def read_manifest(path) -> dict[str, str]:
    """Read a manifest (or any flat INI config); values come back as
    strings for the CLI to re-parse."""
    parser = configparser.ConfigParser()
    read = parser.read(path, encoding="utf-8")
    if not read:
        raise ValueError(f"cannot read config file {path}")
    if "run" not in parser:
        raise ValueError(f"config file {path} has no [run] section")
    return dict(parser["run"])
