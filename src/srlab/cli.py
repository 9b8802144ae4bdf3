"""Batch command-line front-end.

Every experiment is a subcommand that writes CSV artifacts plus a run
manifest (the fully resolved configuration as a flat INI file) into
--out-dir and prints a one-line summary.  Feeding a manifest back through
--config replays the run byte-for-byte; explicit flags win over config
values, which win over built-in defaults.  `reproduce <preset>` bundles
the canned parameter sets for the standard experiments.

Exit codes: 0 success, 2 bad usage/configuration, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

import srlab
from srlab.amp_detect import (
    FitError,
    calibrate_and_estimate_decay,
    fit_sigmoid,
    t0_sigma_curve,
)
from srlab.bank import (
    amplitude_bracket,
    most_common_estimate,
    resonance_rate_for,
    sigma_sweep_bank,
    threshold_sweep_bank,
    vote_bank,
)
from srlab.csvio import (
    read_manifest,
    read_t0_curve_csv,
    write_bank_csv,
    write_fits_csv,
    write_freq_table_csv,
    write_hysteresis_csv,
    write_manifest,
    write_rows,
    write_sweep_csv,
    write_t0_curve_csv,
    write_waveforms_csv,
)
from srlab.experiments import capture_transitions, find_sr_peak, snr_sigma_sweep
from srlab.freq_detect import (
    DetectionSetup,
    detect_frequency,
    error_rate_table,
    optimal_sigma_search,
    summarize_error_table,
)
from srlab.noise import NoiseSpec
from srlab.signals import MAX_SAMPLES, DampedSine, Sine
from srlab.trigger import (
    calibrated_config,
    hysteresis_sweep,
    ideal_config,
    transition_count,
    v_th_from_vdc,
)


def maybe_float(text: str) -> float | None:
    """A float, or None (the parameter is absent) for empty text."""
    return None if text.strip() == "" else float(text)


# Parameter tables: name -> (kind, default, help).  KINDS turns flag and config
# text into a value of each kind; a flag (store_true) and a strlist (repeatable
# flag, ";"-joined in a config) take their command-line form from _ACTIONS.
# A None default with no flag given and no config value means "required".
KINDS = {
    "float": float,
    "int": int,
    "str": str,
    "maybe_float": maybe_float,
    "flag": lambda text: text.strip().lower() == "true",
    "strlist": lambda text: [p for p in text.split(";") if p],
}
_ACTIONS = {"flag": "store_true", "strlist": "append"}

_SIM = {
    "sample_rate": ("float", 20000.0, "sampling rate, Hz"),
    "noise_rate": ("maybe_float", None, "noise draw rate, Hz (default: sample rate)"),
    "seed": ("int", 0, "base noise seed"),
}

_TRIG = {
    "vdc": ("float", 1.0, "supply voltage setting the rails/thresholds, V"),
    "ratio": ("float", 0.045, "feedback divider ratio (divider law only)"),
    "attenuation": ("float", 0.5, "input divider gain"),
    "law": ("str", "divider", "threshold law: divider or calibrated"),
}


def parse_grid(text: str) -> np.ndarray:
    """Grid syntax: 'start:stop:step' (inclusive of both ends when step
    divides the span) or a comma-separated list.  Values must be finite and
    a range may hold at most MAX_SAMPLES points, checked before allocating."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid {text!r} must be start:stop:step")
        start, stop, step = (float(p) for p in parts)
        if not all(math.isfinite(v) for v in (start, stop, step)):
            raise ValueError(f"grid {text!r} needs finite start, stop and step")
        if step <= 0.0 or stop <= start:
            raise ValueError(f"grid {text!r} needs stop > start and step > 0")
        # the quotient of two finite floats can still overflow to inf
        n = int(round(min((stop - start) / step, MAX_SAMPLES))) + 1
        if n > MAX_SAMPLES:
            raise ValueError(f"grid {text!r} has more than {MAX_SAMPLES} points")
        return np.linspace(start, start + (n - 1) * step, n)
    values = np.asarray([float(p) for p in text.split(",") if p.strip() != ""])
    if values.size == 0:
        raise ValueError(f"grid {text!r} is empty")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"grid {text!r} has non-finite values")
    return values


def add_table_arguments(parser: argparse.ArgumentParser, table: dict) -> None:
    for name, (kind, default, help_text) in table.items():
        flag = "--" + name.replace("_", "-")
        shown = f"{help_text} [default: {default}]" if default is not None else help_text
        how = {"action": _ACTIONS[kind]} if kind in _ACTIONS else {"type": KINDS[kind]}
        parser.add_argument(flag, default=None, help=shown, **how)


def resolve_params(args, table: dict, config: dict) -> dict:
    """Merge one parameter set: flag > config file > built-in default.
    Raises ValueError for missing required values."""
    out = {}
    for name, (kind, default, _help) in table.items():
        value = getattr(args, name, None)
        if value is None and name in config:
            value = KINDS[kind](config[name])
        if value is None:
            value = default
        if value is None and kind != "maybe_float":
            raise ValueError(f"--{name.replace('_', '-')} is required")
        out[name] = value
    return out


def build_trigger(p: dict):
    law = p["law"]
    if law == "divider":
        return ideal_config(p["vdc"], p["ratio"], p["attenuation"])
    if law == "calibrated":
        return calibrated_config(p["vdc"], p["attenuation"])
    raise ValueError(f"unknown threshold law {law!r} (use divider or calibrated)")


def _signal(p: dict):
    if p["decay"] == 0.0:
        return Sine(p["amplitude"], p["frequency"])
    return DampedSine(p["amplitude"], p["decay"], p["frequency"])


def _noise(p: dict) -> NoiseSpec:
    # resolved here, not by NoiseSpec: bench's generate_noise tracer divides by it
    rate = p["noise_rate"] if p["noise_rate"] is not None else p["sample_rate"]
    return NoiseSpec(sigma=p.get("sigma", 1.0), noise_rate=rate, seed=p["seed"])


def run_hysteresis(p: dict, out: Path, prefix: str) -> str:
    loop = hysteresis_sweep(build_trigger(p), p["v_min"], p["v_max"], p["points"])
    write_hysteresis_csv(out / f"{prefix}.csv", loop)
    return (
        f"output falls at {loop.measured_down_threshold} V, "
        f"rises at {loop.measured_up_threshold} V"
    )


def run_transitions(p: dict, out: Path, prefix: str) -> str:
    signal, combined, output = capture_transitions(
        build_trigger(p), _signal(p), _noise(p), p["sample_rate"], p["duration"]
    )
    write_waveforms_csv(out / f"{prefix}.csv", signal, combined, output)
    return f"{transition_count(output)} transitions in {p['duration']} s"


def run_snr_sweep(p: dict, out: Path, prefix: str) -> str:
    sweep = snr_sigma_sweep(
        build_trigger(p), _signal(p), _noise(p), parse_grid(p["sigma_grid"]),
        p["sample_rate"], p["duration"], p["repeats"],
    )
    write_sweep_csv(out / f"{prefix}.csv", sweep)
    if len(sweep) >= 3:
        s_star, snr_star = find_sr_peak(sweep)
        return f"peak SNR {snr_star:.2f} dB at sigma {s_star} V"
    return f"{len(sweep)}-point sweep"


def run_detect_freq(p: dict, out: Path, prefix: str) -> str:
    report = detect_frequency(
        build_trigger(p), _signal(p), _noise(p), p["sample_rate"], p["duration"],
        dc_guard_hz=p["dc_guard"],
    )
    write_freq_table_csv(out / f"{prefix}.csv", [report])
    if report.detected:
        return f"estimated {report.f_est} Hz (error {report.error_pct:.3f}%)"
    return "no spectral peak detected"


def run_freq_table(p: dict, out: Path, prefix: str) -> str:
    if p["noise_rate"] is not None:
        raise ValueError("freq-table draws noise at the sample rate; drop --noise-rate")
    setup = DetectionSetup(
        amplitude=p["amplitude"], decay=p["decay"], sigma=p["sigma"],
        sample_rate=p["sample_rate"], duration=p["duration"], seed_base=p["seed"],
        dc_guard_hz=p["dc_guard"],
    )
    frequencies = parse_grid(p["frequencies"])
    reports = error_rate_table(build_trigger(p), frequencies, setup, p["repeats"])
    write_freq_table_csv(out / f"{prefix}.csv", reports)
    parts = []
    for s in summarize_error_table(reports):
        err = "none" if s.mean_error_pct is None else f"{s.mean_error_pct:.2f}%"
        parts.append(f"{s.f_true:g}Hz:{err}({s.n_detected}/{s.n_runs})")
    return "mean error " + " ".join(parts)


def run_optimal_sigma(p: dict, out: Path, prefix: str) -> str:
    sigma_star, curve = optimal_sigma_search(
        build_trigger(p), _signal(p), parse_grid(p["sigma_grid"]), p["repeats"],
        p["sample_rate"], p["duration"], p["seed"], noise_rate=p["noise_rate"],
    )
    write_sweep_csv(out / f"{prefix}.csv", curve)
    return f"best sigma {sigma_star} V"


def run_t0_curve(p: dict, out: Path, prefix: str) -> str:
    curve = t0_sigma_curve(
        build_trigger(p),
        DampedSine(p["amplitude"], p["decay"], p["frequency"]),
        parse_grid(p["sigma_grid"]),
        n_runs=p["runs"], seed_base=p["seed"],
        sample_rate=p["sample_rate"], duration=p["duration"],
        noise_rate=p["noise_rate"],
    )
    write_t0_curve_csv(out / f"{prefix}.csv", curve)
    return f"{len(curve)} noise levels, final mean t0 {curve[-1].mean_t0:.4f} s"


def run_fig13(p: dict, out: Path, prefix: str) -> str:
    summary = run_t0_curve(p, out, prefix)
    fit = fit_sigmoid(read_t0_curve_csv(out / f"{prefix}.csv"), plateau_T=p["duration"])
    write_fits_csv(out / f"{prefix}_fit.csv", [(p["decay"], fit)])
    return f"{summary}; sigmoid r2 {fit.r_squared:.4f}"


def run_fit_sigmoid(p: dict, out: Path, prefix: str) -> str:
    curve = read_t0_curve_csv(p["input"])
    fit = fit_sigmoid(curve, plateau_T=p["plateau"], float_plateau=p["float_plateau"])
    write_fits_csv(out / f"{prefix}.csv", [(p["decay"], fit)])
    return (
        f"slope {fit.slope_a:.2f} 1/V, center {fit.center_b:.4f} V, "
        f"r2 {fit.r_squared:.4f}"
    )


def run_estimate_decay(p: dict, out: Path, prefix: str) -> str:
    paths = {}
    for entry in p["calibration"]:
        label, _, path = entry.partition("=")
        if not path:
            raise ValueError(f"calibration entry {entry!r} must be b=curve.csv")
        b = float(label)
        if b in paths:  # refused before any file is read
            raise ValueError(f"calibration entry {entry!r} repeats decay {b}")
        paths[b] = path
    curves = {b: read_t0_curve_csv(path) for b, path in paths.items()}
    estimate = calibrate_and_estimate_decay(
        curves, read_t0_curve_csv(p["observed"]), plateau_T=p["plateau"]
    )
    write_fits_csv(
        out / f"{prefix}.csv",
        [*sorted(estimate.calibration_fits.items()),
         (estimate.decay, estimate.observed_fit)],
    )
    note = " (extrapolated)" if estimate.extrapolated else ""
    return f"estimated decay {estimate.decay:.3f} 1/s{note}"


def run_bank_cmd(p: dict, out: Path, prefix: str) -> str:
    min_rate = (
        p["min_rate"] if p["min_rate"] is not None
        else resonance_rate_for(p["frequency"])
    )
    if p["mode"] == "threshold":
        bank = threshold_sweep_bank(
            parse_grid(p["thresholds"]), p["sigma"], min_rate
        )
    elif p["mode"] == "sigma":
        bank = sigma_sweep_bank(
            parse_grid(p["sigma_grid"]), p["threshold"], min_rate
        )
    else:
        raise ValueError(f"unknown bank mode {p['mode']!r} (use threshold or sigma)")
    report = vote_bank(
        bank, _signal(p), p["sample_rate"], p["duration"],
        seed_bases=range(p["seed"], p["seed"] + p["votes"]), noise_rate=p["noise_rate"],
    )
    write_bank_csv(out / f"{prefix}.csv", report)
    n_res = sum(report.resonance_flags())
    if p["mode"] == "threshold":
        bracket = amplitude_bracket(report)
        where = "outside the sweep" if bracket is None else f"in [{bracket[0]}, {bracket[1]}] V"
        return f"{n_res}/{len(report.results)} channels resonate; amplitude {where}"
    consensus = most_common_estimate(r.f_est for r in report.results if r.resonating)
    if consensus is not None:
        return f"{n_res} channels resonate; consensus frequency {consensus} Hz"
    return "no resonating channel produced a frequency estimate"


def run_threshold_law(p: dict, out: Path, prefix: str) -> str:
    grid = parse_grid(p["vdc_grid"])
    write_rows(
        out / f"{prefix}.csv",
        ("v_dc_v", "v_th_v"),
        (grid, [v_th_from_vdc(v) for v in grid.tolist()]),
    )
    return f"threshold law over {grid.size} supply settings"


# Subcommand -> (parameter table, runner).
COMMANDS = {
    "hysteresis": ({
        **_TRIG,
        "v_min": ("float", -0.2, "sweep start, V"),
        "v_max": ("float", 0.2, "sweep end, V"),
        "points": ("int", 801, "sweep points per branch"),
    }, run_hysteresis),
    "transitions": ({
        **_TRIG,
        "amplitude": ("float", 0.1, "signal amplitude, V"),
        "frequency": ("float", 100.0, "signal frequency, Hz"),
        "decay": ("float", 0.0, "decay constant, 1/s (0 = undamped)"),
        "sigma": ("float", 0.05, "noise SD, V"),
        "duration": ("float", 0.4, "acquisition time, s"),
        **_SIM,
    }, run_transitions),
    "snr-sweep": ({
        **_TRIG,
        "amplitude": ("float", 0.05, "signal amplitude, V"),
        "frequency": ("float", 500.0, "signal frequency, Hz"),
        "decay": ("float", 0.0, "decay constant, 1/s (0 = undamped)"),
        "sigma_grid": ("str", "0.01:0.2:0.005", "noise SD grid start:stop:step or list"),
        "repeats": ("int", 10, "repeats per noise level"),
        "duration": ("float", 0.4, "acquisition time, s"),
        **_SIM,
    }, run_snr_sweep),
    "detect-freq": ({
        **_TRIG,
        "amplitude": ("float", 0.1, "signal amplitude, V"),
        "decay": ("float", 5.0, "decay constant, 1/s"),
        "frequency": ("float", 500.0, "true signal frequency, Hz (scoring only)"),
        "sigma": ("float", 0.01, "noise SD, V"),
        "dc_guard": ("maybe_float", None, "ignore spectrum below this, Hz"),
        "duration": ("float", 0.4, "acquisition time, s"),
        **_SIM,
    }, run_detect_freq),
    "freq-table": ({
        **_TRIG,
        "amplitude": ("float", 0.1, "signal amplitude, V"),
        "decay": ("float", 5.0, "decay constant, 1/s"),
        "sigma": ("float", 0.01, "noise SD, V"),
        "frequencies": ("str", "10,50,100,500,1000,2000", "frequency list, Hz"),
        "repeats": ("int", 10, "runs per frequency"),
        "dc_guard": ("maybe_float", None, "ignore spectrum below this, Hz"),
        "duration": ("float", 0.4, "acquisition time, s"),
        **_SIM,
    }, run_freq_table),
    "optimal-sigma": ({
        **_TRIG,
        "amplitude": ("float", 0.1, "signal amplitude, V"),
        "decay": ("float", 5.0, "decay constant, 1/s"),
        "frequency": ("float", 50.0, "hypothesized frequency, Hz"),
        "sigma_grid": ("str", "0.01:0.05:0.01", "noise SD grid"),
        "repeats": ("int", 10, "repeats per noise level"),
        "duration": ("float", 0.4, "acquisition time, s"),
        **_SIM,
    }, run_optimal_sigma),
    "t0-curve": ({
        **_TRIG,
        "vdc": ("float", 4.0, "supply voltage, V"),
        "law": ("str", "calibrated", "threshold law: divider or calibrated"),
        "amplitude": ("float", 0.1, "signal amplitude, V"),
        "decay": ("float", 5.0, "decay constant, 1/s"),
        "frequency": ("float", 1000.0, "signal frequency, Hz"),
        "sigma_grid": ("str", "0:0.5:0.01", "noise SD grid"),
        "runs": ("int", 50, "runs per noise level"),
        "duration": ("float", 1.5, "acquisition time, s"),
        **_SIM,
    }, run_t0_curve),
    "fit-sigmoid": ({
        "input": ("str", None, "t0-curve CSV to fit (required)"),
        "plateau": ("float", 1.5, "sigmoid plateau, s"),
        "float_plateau": ("flag", False, "fit the plateau instead of fixing it"),
        "decay": ("maybe_float", None, "decay label for the output row"),
    }, run_fit_sigmoid),
    "estimate-decay": ({
        "calibration": ("strlist", None, "calibration entry b=curve.csv (repeat >= 3x)"),
        "observed": ("str", None, "observed t0-curve CSV (required)"),
        "plateau": ("float", 1.5, "sigmoid plateau, s"),
    }, run_estimate_decay),
    "bank": ({
        "mode": ("str", "threshold", "sweep axis: threshold or sigma"),
        "amplitude": ("float", 0.01, "signal amplitude, V"),
        "frequency": ("float", 500.0, "signal frequency, Hz"),
        "decay": ("float", 0.0, "decay constant, 1/s (0 = undamped)"),
        "thresholds": ("str", "0.001,0.002,0.004,0.008,0.016,0.032,0.064",
                       "threshold grid (threshold mode)"),
        "sigma": ("float", 0.002, "common noise SD (threshold mode), V"),
        "sigma_grid": ("str", "0.004,0.008,0.012,0.016,0.024",
                       "noise SD grid (sigma mode)"),
        "threshold": ("float", 0.02, "common threshold (sigma mode), V"),
        "min_rate": ("maybe_float", None,
                     "resonance transition rate, Hz (default: 1x frequency)"),
        "votes": ("int", 20, "seeds in the majority vote"),
        "duration": ("float", 0.4, "acquisition time, s"),
        **_SIM,
    }, run_bank_cmd),
}

# Preset -> (table, runner); fig8 runs no subcommand's defaults, and fig13
# fits the t0 curve it writes.
PRESETS = {
    "fig4": COMMANDS["transitions"],
    "fig5": COMMANDS["snr-sweep"],
    "fig6": COMMANDS["hysteresis"],
    "fig8": ({"vdc_grid": ("str", "1:4:0.25", "supply voltage grid, V")},
             run_threshold_law),
    "table1": COMMANDS["freq-table"],
    "fig12": COMMANDS["optimal-sigma"],
    "fig13": (COMMANDS["t0-curve"][0], run_fig13),
}

# (setting, value) -> parameters that value never reads.  Giving one of them
# as a flag, or a config-file value other than its default, is refused rather
# than recorded in a manifest that ignores it.  Manifests record the default
# for these keys, so replaying one passes.
_UNREAD = {
    ("law", "calibrated"): ("ratio",),
    ("mode", "threshold"): ("sigma_grid", "threshold"),
    ("mode", "sigma"): ("thresholds", "sigma"),
}


# Built once per process: parsing leaves the parser as it was, and adding
# every subcommand's arguments takes a few ms, on each main() call otherwise.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srlab",
        description="Bistable-trigger noise experiments: simulate, sweep, fit.",
    )
    parser.add_argument("--version", action="version", version=srlab.__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (table, _runner) in COMMANDS.items():
        add_table_arguments(sub.add_parser(name, help=f"run the {name} experiment"), table)
    rep = sub.add_parser("reproduce", help="run a canned experiment preset")
    rep.add_argument("preset", choices=sorted(PRESETS))
    rep.add_argument("--seed", type=int, default=None, help="base noise seed")
    for p in sub.choices.values():
        p.add_argument("--out-dir", default=".", help="artifact directory [default: .]")
        p.add_argument("--config", default=None, help="INI config/manifest to load")
    return parser


def _dispatch(args) -> str:
    if args.command == "reproduce":
        key, name, registry = "preset", args.preset, PRESETS
    else:
        key, name, registry = "subcommand", args.command, COMMANDS
    table, runner = registry[name]
    prefix = name.replace("-", "_")
    config = read_manifest(args.config) if args.config else {}
    stored = config.get(key)
    if stored not in (None, name):
        raise ValueError(f"config file is for {key} {stored!r}, not {name!r}")
    if getattr(args, "seed", None) is not None and "seed" not in table:
        raise ValueError(f"{name} draws no noise, so it takes no --seed")
    params = resolve_params(args, table, config)
    for (setting, value), unread in _UNREAD.items():
        if params.get(setting) != value:
            continue
        for n in unread:
            if getattr(args, n, None) is not None:
                flag = "--" + n.replace("_", "-")
                raise ValueError(f"{setting} {value} never reads {flag}; drop it")
            if params[n] != table[n][1]:
                raise ValueError(f"{setting} {value} never reads {n}; the config file's "
                                 f"{n} = {config[n]} would be ignored")
    out = Path(args.out_dir)
    summary = runner(params, out, prefix)
    # a subcommand's key is "subcommand" itself, so its manifest has no preset
    manifest = {"subcommand": args.command, key: name, **params, "version": srlab.__version__}
    write_manifest(out / f"{prefix}_manifest.ini", manifest)
    return summary


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        summary = _dispatch(args)
    except ValueError as exc:
        print(f"srlab: config error: {exc}", file=sys.stderr)
        return 2
    except (FitError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"srlab: computation error: {exc}", file=sys.stderr)
        return 3
    print(f"srlab {args.command}: {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
