"""Generated boundary cases for every subcommand that simulates.

Each case starts from a tiny valid argv and sets one parameter of the
subcommand's table to an extreme value.  Whatever the value, the command
either runs (exit 0) or refuses it at the boundary (exit 2): no traceback,
no warning, no output directory left behind by a refusal, and no large
allocation before the refusal.
"""

import tracemalloc
import warnings

import pytest

from srlab.cli import COMMANDS, main

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


def _cases():
    for command, base in BASE.items():
        for name, (kind, _default, _help) in COMMANDS[command][0].items():
            if kind in ("float", "int", "maybe_float"):
                values = NUMBERS
            elif name in GRID_PARAMS:
                values = GRIDS
            else:
                continue
            flag = "--" + name.replace("_", "-")
            for value in values:
                yield command, [*base, *READ_UNDER.get((command, name), []), f"{flag}={value}"]


def _problems(argv, out, capsys) -> list[str]:
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
    if rc not in (0, 2, None):
        problems.append(f"exit {rc}: {err.strip()[-200:]}")
    if "Traceback" in err:
        problems.append("traceback")
    problems += dict.fromkeys(f"{w.category.__name__}: {w.message}" for w in caught)
    if rc == 2 and out.exists():
        problems.append("output directory left after exit 2")
    if peak >= PEAK_LIMIT:
        problems.append(f"tracemalloc peak {peak / 2**20:.1f} MiB")
    return problems


def test_every_simulating_subcommand_refuses_or_runs_extreme_values(tmp_path, capsys):
    failures = []
    for i, (command, argv) in enumerate(_cases()):
        problems = _problems([command, *argv], tmp_path / f"case{i}", capsys)
        if problems:
            failures.append(f"{command} {' '.join(argv)}: {'; '.join(problems)}")
    assert not failures, f"{len(failures)} failing cases:\n" + "\n".join(failures)


@pytest.mark.parametrize("command", sorted(BASE))
def test_base_argv_runs(command, tmp_path, capsys):
    assert main([command, *BASE[command], f"--out-dir={tmp_path}"]) == 0
    assert "Traceback" not in capsys.readouterr().err
