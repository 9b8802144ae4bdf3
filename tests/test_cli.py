import argparse

import numpy as np
import pytest

from srlab.amp_detect import T0Stats
from srlab.cli import main, parse_grid, resolve_params
from srlab.csvio import read_manifest, write_t0_curve_csv


def _zero_curve_csv(path, n_points=26):
    x = np.round(np.linspace(0.0, 0.5, n_points), 10)
    curve = [T0Stats(float(s), 0.0, 0.0, 10, 10) for s in x]
    write_t0_curve_csv(path, curve)
    return path


class TestParseGrid:
    def test_range_syntax_includes_both_ends(self):
        grid = parse_grid("0:0.5:0.01")
        assert grid.size == 51
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(0.5)

    def test_list_syntax(self):
        np.testing.assert_allclose(parse_grid("0.01, 0.02,0.04"), [0.01, 0.02, 0.04])

    def test_bad_grids_rejected(self):
        for bad in ("0:0.5", "0.5:0:0.01", "0:0.5:-0.1", ""):
            with pytest.raises(ValueError):
                parse_grid(bad)


class TestResolveParams:
    TABLE = {
        "sigma": ("float", 0.05, "noise SD"),
        "seed": ("int", 0, "seed"),
        "label": ("str", None, "required text"),
    }

    def _args(self, **kw):
        ns = argparse.Namespace(sigma=None, seed=None, label=None)
        for k, v in kw.items():
            setattr(ns, k, v)
        return ns

    def test_precedence_flag_config_override_default(self):
        args = self._args(sigma=0.9, label="x")
        got = resolve_params(args, self.TABLE, {"sigma": "0.5"}, {"sigma": 0.3})
        assert got["sigma"] == 0.9  # flag wins
        got = resolve_params(self._args(label="x"), self.TABLE, {"sigma": "0.5"}, {"sigma": 0.3})
        assert got["sigma"] == 0.5  # then config
        got = resolve_params(self._args(label="x"), self.TABLE, {}, {"sigma": 0.3})
        assert got["sigma"] == 0.3  # then preset override
        got = resolve_params(self._args(label="x"), self.TABLE, {}, {})
        assert got["sigma"] == 0.05  # finally the built-in default

    def test_missing_required_raises(self):
        with pytest.raises(ValueError):
            resolve_params(self._args(), self.TABLE, {}, {})

    def test_env_seed_fallback(self, monkeypatch):
        monkeypatch.setenv("SRLAB_SEED", "77")
        got = resolve_params(self._args(label="x"), self.TABLE, {}, {})
        assert got["seed"] == 77
        # an explicit flag or config value beats the environment
        got = resolve_params(self._args(label="x", seed=3), self.TABLE, {}, {})
        assert got["seed"] == 3
        got = resolve_params(self._args(label="x"), self.TABLE, {"seed": "9"}, {})
        assert got["seed"] == 9


class TestExitCodes:
    def test_unknown_law_is_config_error(self, tmp_path):
        rc = main(["hysteresis", "--law", "nonsense", "--out-dir", str(tmp_path)])
        assert rc == 2

    def test_missing_required_flag(self, tmp_path):
        rc = main(["fit-sigmoid", "--out-dir", str(tmp_path)])
        assert rc == 2

    def test_degenerate_fit_is_numeric_error(self, tmp_path):
        curve = _zero_curve_csv(tmp_path / "zero.csv")
        rc = main(
            ["fit-sigmoid", "--input", str(curve), "--float-plateau",
             "--out-dir", str(tmp_path)]
        )
        assert rc == 3

    def test_nan_sigma_is_config_error(self, tmp_path):
        rc = main(["transitions", "--sigma", "nan", "--out-dir", str(tmp_path)])
        assert rc == 2

    def test_bad_calibration_entry(self, tmp_path):
        curve = _zero_curve_csv(tmp_path / "c.csv")
        rc = main(
            ["estimate-decay", "--calibration", "no-equals-sign",
             "--observed", str(curve), "--out-dir", str(tmp_path)]
        )
        assert rc == 2

    def test_config_subcommand_mismatch(self, tmp_path):
        rc = main(["hysteresis", "--out-dir", str(tmp_path)])
        assert rc == 0
        manifest = tmp_path / "hysteresis_manifest.ini"
        rc = main(["snr-sweep", "--config", str(manifest), "--out-dir", str(tmp_path)])
        assert rc == 2

    def test_config_preset_mismatch(self, tmp_path):
        rc = main(["reproduce", "fig6", "--out-dir", str(tmp_path)])
        assert rc == 0
        rc = main(
            ["reproduce", "fig8", "--config", str(tmp_path / "fig6_manifest.ini"),
             "--out-dir", str(tmp_path)]
        )
        assert rc == 2


class TestArtifacts:
    def test_hysteresis_writes_csv_and_manifest(self, tmp_path, capsys):
        rc = main(["hysteresis", "--out-dir", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "hysteresis.csv").read_text().splitlines()
        assert lines[0] == "direction,v_in,v_out"
        assert len(lines) == 1 + 2 * 801
        manifest = read_manifest(tmp_path / "hysteresis_manifest.ini")
        assert manifest["subcommand"] == "hysteresis"
        assert manifest["law"] == "divider"
        assert "version" in manifest
        out = capsys.readouterr().out
        assert "falls at" in out

    def test_out_dir_created(self, tmp_path):
        nested = tmp_path / "a" / "b"
        rc = main(["hysteresis", "--out-dir", str(nested)])
        assert rc == 0
        assert (nested / "hysteresis.csv").exists()

    def test_seed_env_fallback_lands_in_manifest(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SRLAB_SEED", "55")
        rc = main(
            ["detect-freq", "--duration", "0.1", "--out-dir", str(tmp_path)]
        )
        assert rc == 0
        assert read_manifest(tmp_path / "detect_freq_manifest.ini")["seed"] == "55"

    def test_explicit_seed_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SRLAB_SEED", "55")
        rc = main(
            ["detect-freq", "--duration", "0.1", "--seed", "3",
             "--out-dir", str(tmp_path)]
        )
        assert rc == 0
        assert read_manifest(tmp_path / "detect_freq_manifest.ini")["seed"] == "3"


SWEEP_ARGS = [
    "snr-sweep", "--sigma-grid", "0.02,0.05", "--repeats", "2",
    "--duration", "0.1",
]


class TestReplay:
    def test_same_flags_same_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(SWEEP_ARGS + ["--out-dir", str(a)]) == 0
        assert main(SWEEP_ARGS + ["--out-dir", str(b)]) == 0
        assert (a / "snr_sweep.csv").read_bytes() == (b / "snr_sweep.csv").read_bytes()

    def test_manifest_replay_is_byte_identical(self, tmp_path):
        a, c = tmp_path / "a", tmp_path / "c"
        assert main(SWEEP_ARGS + ["--out-dir", str(a)]) == 0
        manifest = a / "snr_sweep_manifest.ini"
        assert main(["snr-sweep", "--config", str(manifest), "--out-dir", str(c)]) == 0
        assert (a / "snr_sweep.csv").read_bytes() == (c / "snr_sweep.csv").read_bytes()
        assert manifest.read_bytes() == (c / "snr_sweep_manifest.ini").read_bytes()

    def test_replay_ignores_env_seed(self, tmp_path, monkeypatch):
        a, c = tmp_path / "a", tmp_path / "c"
        assert main(SWEEP_ARGS + ["--seed", "4", "--out-dir", str(a)]) == 0
        monkeypatch.setenv("SRLAB_SEED", "99")
        manifest = a / "snr_sweep_manifest.ini"
        assert main(["snr-sweep", "--config", str(manifest), "--out-dir", str(c)]) == 0
        assert read_manifest(c / "snr_sweep_manifest.ini")["seed"] == "4"


class TestPresets:
    def test_fig6_rows(self, tmp_path):
        rc = main(["reproduce", "fig6", "--out-dir", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "fig6.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 801
        manifest = read_manifest(tmp_path / "fig6_manifest.ini")
        assert manifest["preset"] == "fig6"
        assert manifest["subcommand"] == "reproduce"

    def test_fig8_threshold_table(self, tmp_path):
        rc = main(["reproduce", "fig8", "--out-dir", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "fig8.csv").read_text().splitlines()
        assert lines[0] == "v_dc_v,v_th_v"
        assert len(lines) == 1 + 13  # 1:4:0.25
        assert lines[1] == "1.0,0.046"
        assert lines[-1] == "4.0,0.199"

    def test_fig6_replay_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["reproduce", "fig6", "--out-dir", str(a)]) == 0
        assert main(
            ["reproduce", "fig6", "--config", str(a / "fig6_manifest.ini"),
             "--out-dir", str(b)]
        ) == 0
        assert (a / "fig6.csv").read_bytes() == (b / "fig6.csv").read_bytes()
