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


def write_rows(path, header, rows) -> None:
    """Write one CSV file under the package-wide byte contract, creating
    its directory if needed."""
    path = Path(path)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_waveforms_csv(path, signal: Trace, combined: Trace, output: SwitchList) -> None:
    """Aligned capture of a single run: clean input, comparator input, output."""
    write_rows(
        path,
        ("time_s", "input_v", "combined_v", "output_v"),
        (
            (float(t), float(a), float(b), float(c))
            for t, a, b, c in zip(
                signal.times(), signal.samples, combined.samples, output.samples
            )
        ),
    )


def write_hysteresis_csv(path, loop: HysteresisLoop) -> None:
    def rows():
        for v_in, v_out in zip(loop.ascending_input, loop.ascending_output):
            yield ("ascending", float(v_in), float(v_out))
        for v_in, v_out in zip(loop.descending_input, loop.descending_output):
            yield ("descending", float(v_in), float(v_out))

    write_rows(path, ("direction", "v_in", "v_out"), rows())


def write_sweep_csv(path, sweep: SweepResult) -> None:
    write_rows(
        path,
        ("sigma_v", "snr_mean_db", "snr_std_db", "repeats"),
        (
            (float(s), float(m), float(d), sweep.repeats)
            for s, m, d in zip(sweep.sigmas, sweep.snr_mean_db, sweep.snr_std_db)
        ),
    )


def write_freq_table_csv(path, reports) -> None:
    write_rows(
        path,
        ("f_true_hz", "f_est_hz", "error_pct", "detected_bool", "sigma_v", "seed"),
        (
            (r.f_true, r.f_est, r.error_pct, r.detected, r.sigma, r.seed)
            for r in reports
        ),
    )


def write_t0_curve_csv(path, curve) -> None:
    write_rows(
        path,
        ("sigma_v", "mean_t0_s", "std_t0_s", "n_runs", "n_no_transition"),
        (
            (s.sigma, s.mean_t0, s.std_t0, s.n_runs, s.n_no_transition)
            for s in curve
        ),
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
    for line in lines[1:]:
        if not line:
            continue
        sigma, mean, std, n_runs, n_none = line.split(",")
        curve.append(
            T0Stats(
                sigma=float(sigma),
                mean_t0=float(mean),
                std_t0=float(std),
                n_runs=int(n_runs),
                n_no_transition=int(n_none),
            )
        )
    return curve


def write_fits_csv(path, fits) -> None:
    """One row per (decay, SigmoidFit) pair, in the order given; a decay of
    None (unlabelled curve) leaves its cell empty."""
    write_rows(
        path,
        ("decay_b", "slope_a", "center_b", "r2"),
        ((b, f.slope_a, f.center_b, f.r_squared) for b, f in fits),
    )


def write_bank_csv(path, report: BankReport) -> None:
    write_rows(
        path,
        ("idx", "threshold_v", "sigma_v", "transition_rate_hz", "resonating", "f_est_hz"),
        (
            (i, r.threshold, r.sigma, r.transition_rate_hz, r.resonating, r.f_est)
            for i, r in enumerate(report.results)
        ),
    )


def write_manifest(path, params: dict) -> None:
    """Flat INI manifest of a fully resolved run configuration."""
    parser = configparser.ConfigParser()
    parser["run"] = {k: _cell(v) for k, v in params.items()}
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
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
