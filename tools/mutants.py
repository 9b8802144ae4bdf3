"""Mutation checks: every catalogued one-edit mutant of src/ must make its
pytest selection fail.

    python tools/mutants.py

Run from anywhere; the tests are taken from this checkout's tests/.  The
unmutated copy of src/ must first pass every selection.  Then, for each
mutant, src/ is copied to a temporary folder, the one edit is applied there
and the mutant's selection runs with -x -q against that copy.  A mutant is
caught when its selection fails; one that passes survives.  The exit status
is 0 when the unmutated copy passes and every mutant is caught, 1 otherwise.

Each mutant's old text must occur exactly once in its file (a tier-1 test
checks this), so a refactor that moves the code updates the catalogue too.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # under src/srlab
    old: str
    new: str
    selection: tuple[str, ...]  # pytest arguments


MUTANTS = (
    Mutant("first-change flag in _switches compared the wrong way", "trigger.py",
           "changed[0] = forced_high[0] != start_high",
           "changed[0] = forced_high[0] == start_high",
           ("tests/test_trigger.py",)),
    Mutant("inverted rails in SwitchList.samples", "trigger.py",
           "return np.where(toggled, self.v_sat_neg, self.v_sat_pos)",
           "return np.where(toggled, self.v_sat_pos, self.v_sat_neg)",
           ("tests/test_trigger.py",)),
    Mutant("block peaks read in reverse row order", "spectral.py",
           "for row in mags]",
           "for row in mags[::-1]]",
           ("tests/test_spectral.py",)),
    Mutant("no errstate around least_squares", "amp_detect.py",
           'with np.errstate(over="raise", invalid="raise", divide="raise"):\n'
           "        res = least_squares(",
           "if True:\n        res = least_squares(",
           ("tests/test_cli_boundary.py", "-k", "extreme_values")),
    Mutant("neighbour compare in _switches inverted", "trigger.py",
           "np.not_equal(forced_high[1:], forced_high[:-1]",
           "np.equal(forced_high[1:], forced_high[:-1]",
           ("tests/test_trigger.py",)),
    Mutant("transition_count miscounted", "trigger.py",
           "return int(output.switches.size)",
           "return int(output.switches.size) + 1",
           ("tests/test_trigger.py",)),
    Mutant("last transition read at the first switch", "amp_detect.py",
           "int(switches[-1])",
           "int(switches[0])",
           ("tests/test_amp_detect.py", "-k", "LastTransition")),
    Mutant("partial last block dropped", "experiments.py",
           "if len(block) == size or not pending:",
           "if len(block) == size:",
           ("tests/test_experiments.py", "-k", "Simulate")),
    Mutant("block one row too big", "experiments.py",
           "size = block_rows(n_samples_for(sample_rate, duration))",
           "size = block_rows(n_samples_for(sample_rate, duration)) + 1",
           ("tests/test_experiments.py", "-k", "Simulate")),
    Mutant("error table streams offset by one", "freq_detect.py",
           "runs = [(d, drive, spec, i) for",
           "runs = [(d, drive, spec, i + 1) for",
           ("tests/test_freq_detect.py",)),
    Mutant("no errstate around the Pchip interpolants", "amp_detect.py",
           'with np.errstate(over="raise", invalid="raise", divide="raise"):\n'
           "        a_grid = PchipInterpolator(",
           "if True:\n        a_grid = PchipInterpolator(",
           ("tests/test_cli_boundary.py", "-k", "extreme_values")),
    Mutant("ascending hysteresis branch started LOW", "trigger.py",
           "v_up, 1.0, start_high=True)",
           "v_up, 1.0, start_high=False)",
           ("tests/test_trigger.py",)),
    Mutant("bool taken as a count", "signals.py",
           "not isinstance(value, numbers.Integral) or isinstance(value, bool)",
           "not isinstance(value, numbers.Integral)",
           ("tests/test_noise.py",)),
    Mutant("a count one below the lower bound accepted", "signals.py",
           "not (low <= value and",
           "not (low - 1 <= value and",
           ("tests/test_noise.py",)),
)


def passes(src: Path, selection: tuple[str, ...]) -> bool:
    """Whether the selection passes with srlab imported from src; any other
    outcome than a clean pass or failing tests is an error."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *selection],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"pytest {' '.join(selection)} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}")
    return proc.returncode == 0


def copy_src(tmp: str, mutant: Mutant | None = None) -> Path:
    """A copy of src/ in tmp, with the mutant's one edit applied."""
    src = Path(tmp) / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        path = src / "srlab" / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            raise RuntimeError(f"{mutant.name}: old text occurs {text.count(mutant.old)} "
                               f"times in {mutant.file}")
        path.write_text(text.replace(mutant.old, mutant.new))
    return src


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        src = copy_src(tmp)
        for selection in dict.fromkeys(m.selection for m in MUTANTS):
            ok = passes(src, selection)
            failures += not ok
            print(f"{'pass' if ok else 'FAIL'}      unmutated: {' '.join(selection)}", flush=True)
    for mutant in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            survived = passes(copy_src(tmp, mutant), mutant.selection)
        failures += survived
        print(f"{'SURVIVED' if survived else 'caught  '}  {mutant.name}: "
              f"{' '.join(mutant.selection)}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
