import subprocess
import sys
from pathlib import Path

import numpy as np

import srlab
from srlab.amp_detect import T0Stats
from srlab.csvio import write_t0_curve_csv

SRC = str(Path(srlab.__file__).resolve().parents[1])

# Runs one CLI command in a fresh interpreter and reports whether any scipy
# module got loaded along the way.
CLI_SCRIPT = """\
import sys
sys.path.insert(0, sys.argv[1])
import srlab, srlab.cli
code = srlab.cli.main(sys.argv[2:])
print(code, any(m == "scipy" or m.startswith("scipy.") for m in sys.modules))
"""


def run_cli_fresh(*argv) -> tuple[int, bool]:
    proc = subprocess.run(
        [sys.executable, "-c", CLI_SCRIPT, SRC, *map(str, argv)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    code, loaded = proc.stdout.split()[-2:]
    return int(code), loaded == "True"


def test_star_import_defines_every_public_name():
    # a name deleted from the package but left in __all__ breaks `import *`
    namespace: dict = {}
    exec("from srlab import *", namespace)
    assert [name for name in srlab.__all__ if name not in namespace] == []


def test_hysteresis_preset_never_loads_scipy(tmp_path):
    assert run_cli_fresh("reproduce", "fig6", "--out-dir", tmp_path) == (0, False)
    assert (tmp_path / "fig6.csv").is_file()


def test_fit_sigmoid_loads_scipy_on_demand(tmp_path):
    sigmas = np.linspace(0.05, 0.5, 10)
    curve = [T0Stats(float(s), 1.5 / (1.0 + np.exp(-20.0 * (s - 0.25))), 0.1, 50, 0)
             for s in sigmas]
    write_t0_curve_csv(tmp_path / "curve.csv", curve)
    out = tmp_path / "fit"
    assert run_cli_fresh("fit-sigmoid", "--input", tmp_path / "curve.csv",
                         "--out-dir", out) == (0, True)
    assert (out / "fit_sigmoid.csv").is_file()
