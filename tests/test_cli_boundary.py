"""Generated boundary cases for every subcommand.

Each case starts from a tiny valid argv and sets one parameter of the
subcommand's table to an extreme value.  A NaN or infinite value is
refused at the boundary (exit 2).  A finite one either runs (exit 0) or is
refused (exit 2); with a finite value the two fitting commands may also
fail their fit (exit 3).  No traceback, no warning, no output directory
left behind by a refusal or a failed fit, and no large allocation before
the refusal.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from srlab.amp_detect import T0Stats
from srlab.cli import COMMANDS, main
from srlab.csvio import write_t0_curve_csv

# one run of 0.01 s, one repeat or vote, per subcommand; optimal-sigma's
# default 50 Hz is below half a bin of 0.01 s
BASE = {
    "hysteresis": [],
    "transitions": ["--duration=0.01"],
    "snr-sweep": ["--duration=0.01", "--repeats=1"],
    "detect-freq": ["--duration=0.01"],
    "freq-table": ["--duration=0.01", "--repeats=1"],
    "optimal-sigma": ["--duration=0.01", "--repeats=1", "--frequency=500"],
    "t0-curve": ["--duration=0.01", "--runs=1"],
    "bank": ["--duration=0.01", "--votes=1"],
}
FITTING = ("fit-sigmoid", "estimate-decay")
NUMBERS = [float("nan"), float("inf"), float("-inf"), -0.0, 0, -1,
           10**12, 10**20, 1e300, 1e-300]
GRIDS = ["nan", "", "0.1,0.1", "0.2,0.1", "1:2:0", "0:1e12:1"]
GRID_PARAMS = ("sigma_grid", "thresholds", "frequencies")
PEAK_LIMIT = 16 * 2**20
# parameters read only under another setting than the base's
READ_UNDER = {
    ("bank", "sigma_grid"): ["--mode=sigma"],
    ("bank", "threshold"): ["--mode=sigma"],
    ("t0-curve", "ratio"): ["--law=divider"],
}


def _bases(folder) -> dict:
    """BASE plus the two fitting commands, which read tiny t0 curves written
    into folder: sigmoids centred at 0.1, 0.15 and 0.2 V for the calibration
    decays 1, 5 and 9, and at 0.15 V for the observed curve."""
    sigmas = np.linspace(0.0, 0.35, 8)
    for name, center in (("cal1", 0.1), ("cal5", 0.15), ("cal9", 0.2), ("observed", 0.15)):
        write_t0_curve_csv(folder / f"{name}.csv", [
            T0Stats(float(s), 1.5 / (1.0 + math.exp(-40.0 * (s - center))), 0.1, 10, 0)
            for s in sigmas])
    return {
        **BASE,
        "fit-sigmoid": [f"--input={folder / 'observed.csv'}"],
        "estimate-decay": [*(f"--calibration={b}={folder / f'cal{b}.csv'}" for b in (1, 5, 9)),
                           f"--observed={folder / 'observed.csv'}"],
    }


def _non_finite(value) -> bool:
    return value == "nan" if isinstance(value, str) else not math.isfinite(value)


def _cases(bases):
    """(command, argv, whether the extreme value is NaN or infinite)"""
    for command, base in bases.items():
        for name, (kind, _default, _help) in COMMANDS[command][0].items():
            if kind in ("float", "int", "maybe_float"):
                values = NUMBERS
            elif name in GRID_PARAMS:
                values = GRIDS
            else:
                continue
            flag = "--" + name.replace("_", "-")
            for value in values:
                argv = [*base, *READ_UNDER.get((command, name), []), f"{flag}={value}"]
                yield command, argv, _non_finite(value)
    # estimate-decay's third calibration decay label
    cal1, cal5, cal9, observed = bases["estimate-decay"]
    for value in NUMBERS:
        yield ("estimate-decay", [cal1, cal5, cal9.replace("=9=", f"={value}=", 1), observed],
               _non_finite(value))


def _problems(argv, non_finite, out, capsys) -> list[str]:
    """What one case did wrong, if anything."""
    problems = []
    tracemalloc.start()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                rc = main([*argv, f"--out-dir={out}"])
            except SystemExit as exc:  # argparse refusing a malformed value
                rc = exc.code
            except Exception as exc:  # noqa: BLE001 - every escape is a failure
                rc = None
                problems.append(f"raised {type(exc).__name__}: {exc}")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    if non_finite:
        failed = allowed = (2,)
    else:
        failed = (2, 3) if argv[0] in FITTING else (2,)
        allowed = (0, *failed)
    if rc not in (*allowed, None):
        problems.append(f"exit {rc}: {err.strip()[-200:]}")
    if "Traceback" in err:
        problems.append("traceback")
    problems += dict.fromkeys(f"{w.category.__name__}: {w.message}" for w in caught)
    if rc in failed and out.exists():
        problems.append(f"output directory left after exit {rc}")
    if peak >= PEAK_LIMIT:
        problems.append(f"tracemalloc peak {peak / 2**20:.1f} MiB")
    return problems


def test_every_subcommand_refuses_or_runs_extreme_values(tmp_path, capsys):
    bases = _bases(tmp_path)
    for command, base in bases.items():  # imports (scipy's too) stay out of the peaks
        assert main([command, *base, f"--out-dir={tmp_path / 'warm-up'}"]) == 0
    failures = []
    for i, (command, argv, non_finite) in enumerate(_cases(bases)):
        problems = _problems([command, *argv], non_finite, tmp_path / f"case{i}", capsys)
        if problems:
            failures.append(f"{command} {' '.join(argv)}: {'; '.join(problems)}")
    assert not failures, f"{len(failures)} failing cases:\n" + "\n".join(failures)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_base_argv_runs(command, tmp_path, capsys):
    assert main([command, *_bases(tmp_path)[command], f"--out-dir={tmp_path}"]) == 0
    assert "Traceback" not in capsys.readouterr().err
