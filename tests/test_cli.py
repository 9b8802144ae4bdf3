import argparse
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from srlab.amp_detect import T0Stats
from srlab.cli import COMMANDS, build_parser, main, parse_grid, resolve_params
from srlab.csvio import read_manifest, write_t0_curve_csv


def _zero_curve_csv(path, n_points=26):
    x = np.round(np.linspace(0.0, 0.5, n_points), 10)
    curve = [T0Stats(float(s), 0.0, 0.0, 10, 10) for s in x]
    write_t0_curve_csv(path, curve)
    return path


def _sigmoid_curve_csv(path, decay):
    """A t0 curve whose sigmoid slope and centre grow linearly with decay."""
    x = np.round(np.linspace(0.0, 0.5, 51), 10)
    y = 1.5 / (1.0 + np.exp(-(100.0 + 8.0 * decay) * (x - 0.05 - 0.01 * decay)))
    write_t0_curve_csv(path, [T0Stats(float(s), float(t), 0.0, 50, 0) for s, t in zip(x, y)])
    return str(path)


class TestParseGrid:
    def test_range_syntax_includes_both_ends(self):
        grid = parse_grid("0:0.5:0.01")
        assert grid.size == 51
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(0.5)

    def test_list_syntax(self):
        np.testing.assert_allclose(parse_grid("0.01, 0.02,0.04"), [0.01, 0.02, 0.04])

    def test_bad_grids_rejected(self):
        for bad in ("0:0.5", "0.5:0:0.01", "0:0.5:-0.1", "", "0:inf:0.1", "nan:1:0.1",
                    "0:1:1e-12", "0:1e308:1e-308", "0.1,nan"):
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

    def test_precedence_flag_config_default(self):
        args = self._args(sigma=0.9, label="x")
        got = resolve_params(args, self.TABLE, {"sigma": "0.5"})
        assert got["sigma"] == 0.9  # flag wins
        got = resolve_params(self._args(label="x"), self.TABLE, {"sigma": "0.5"})
        assert got["sigma"] == 0.5  # then config
        got = resolve_params(self._args(label="x"), self.TABLE, {})
        assert got["sigma"] == 0.05  # finally the built-in default

    def test_missing_required_raises(self):
        with pytest.raises(ValueError):
            resolve_params(self._args(), self.TABLE, {})


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

    def test_infinite_duration_is_config_error(self, tmp_path):
        rc = main(["transitions", "--duration", "inf", "--out-dir", str(tmp_path)])
        assert rc == 2

    def test_oversized_run_refused_before_allocating(self, tmp_path):
        # 1e12 s at the default rate would need terabytes per array; the
        # sample ceiling refuses it while only a few MB have been allocated
        tracemalloc.start()
        try:
            rc = main(["transitions", "--duration", "1e12", "--out-dir", str(tmp_path)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 2
        assert peak < 16 * 2**20
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["snr-sweep", "--repeats", str(10**12)],
        ["freq-table", "--repeats", str(10**12)],
        ["t0-curve", "--runs", str(10**12)],
        ["bank", "--votes", str(10**12)],
    ])
    def test_oversized_run_count_refused_before_allocating(self, argv, tmp_path, capsys):
        # 10**12 runs would build a cell list of terabytes; the cell ceiling
        # refuses the count before any list is built
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            rc = main([*argv, "--out-dir", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 2
        assert peak < 16 * 2**20
        assert not out.exists()
        err = capsys.readouterr().err
        assert "ceiling" in err and "Traceback" not in err

    def test_oversized_sweep_is_config_error(self, tmp_path):
        rc = main(["hysteresis", "--points", str(10**12), "--out-dir", str(tmp_path)])
        assert rc == 2

    def test_oversized_grid_is_config_error(self, tmp_path):
        # 10**12 noise levels would ask numpy for 7.28 TiB before any check
        rc = main(["t0-curve", "--sigma-grid", "0:1:1e-12", "--out-dir", str(tmp_path)])
        assert rc == 2

    def test_missing_input_csv_is_config_error(self, tmp_path):
        missing = str(tmp_path / "missing.csv")
        curve = str(_zero_curve_csv(tmp_path / "c.csv"))
        cal = [a for b in (1, 2, 3) for a in ("--calibration", f"{b}={curve}")]
        for argv in (["fit-sigmoid", "--input", missing],
                     ["estimate-decay", *cal, "--observed", missing],
                     ["estimate-decay", *cal[:-1], f"3={missing}", "--observed", curve]):
            assert main([*argv, "--out-dir", str(tmp_path)]) == 2

    def test_bad_calibration_entry(self, tmp_path):
        curve = str(_zero_curve_csv(tmp_path / "c.csv"))
        cal = [a for b in (1, 3) for a in ("--calibration", f"{b}={curve}")]
        # a NaN label never equals itself as a dict key: it must be refused
        # before the fits are looked up by label
        for entries in (["--calibration", "no-equals-sign"],
                        [*cal, "--calibration", f"nan={curve}"]):
            rc = main(["estimate-decay", *entries, "--observed", curve,
                       "--out-dir", str(tmp_path)])
            assert rc == 2
        assert not list(tmp_path.glob("estimate_decay*"))

    def test_repeated_calibration_decay_refused_before_reading(self, tmp_path, capsys):
        # 5.0 repeats 5 as a float: the later curve used to replace the earlier
        # one unseen; the missing file shows that nothing was read first
        curves = {b: _sigmoid_curve_csv(tmp_path / f"c{b}.csv", b) for b in (1, 5, 9)}
        cal = [a for b, path in curves.items() for a in ("--calibration", f"{b}={path}")]
        out = tmp_path / "out"
        rc = main(["estimate-decay", *cal, "--calibration", f"5.0={tmp_path / 'missing.csv'}",
                   "--observed", curves[5], "--out-dir", str(out)])
        assert rc == 2
        assert "calibration entry '5.0=" in capsys.readouterr().err
        assert not out.exists()

    # the endpoints increase but one step does not, or the plateau is not finite
    @pytest.mark.parametrize("edit, flags, message", [
        ("swap", [], "curve sigmas must be strictly increasing"),
        ("repeat", [], "curve sigmas must be strictly increasing"),
        (None, ["--plateau", "nan"], "plateau_T must be finite and > 0, got nan"),
        (None, ["--plateau", "inf"], "plateau_T must be finite and > 0, got inf"),
    ], ids=["swapped_rows", "repeated_sigma", "plateau_nan", "plateau_inf"])
    def test_unfittable_curve_input_is_config_error(self, tmp_path, capsys, edit, flags,
                                                    message):
        path = tmp_path / "c.csv"
        lines = Path(_sigmoid_curve_csv(path, 5.0)).read_text().splitlines()
        if edit == "swap":
            lines[7], lines[8] = lines[8], lines[7]
        elif edit == "repeat":
            lines[8] = lines[7]
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["fit-sigmoid", "--input", str(path), *flags, "--out-dir", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    # a saved curve edited by hand: a non-finite or negative field
    @pytest.mark.parametrize("column, value", [
        (1, "nan"), (1, "inf"), (0, "nan"), (2, "nan"), (2, "-1.0"),
    ], ids=["mean_nan", "mean_inf", "sigma_nan", "std_nan", "std_negative"])
    def test_corrupt_curve_csv_is_config_error(self, tmp_path, capsys, column, value):
        path = tmp_path / "c.csv"
        lines = Path(_sigmoid_curve_csv(path, 5.0)).read_text().splitlines()
        row = lines[7].split(",")
        row[column] = value
        lines[7] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["fit-sigmoid", "--input", str(path), "--out-dir", str(out)]) == 2
        field = ("sigma", "mean_t0", "std_t0")[column]
        assert f"c.csv line 8: {field} must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()

    SHORT = ["--duration", "0.05"]
    ONE_CELL = ["--frequencies", "500", "--repeats", "1", *SHORT]

    @pytest.mark.parametrize("argv", [
        ["freq-table", "--repeats", "0"],
        ["detect-freq", "--dc-guard", "nan", *SHORT],
        ["detect-freq", "--dc-guard", "inf", *SHORT],
        ["freq-table", "--dc-guard", "nan", *ONE_CELL],
        ["freq-table", "--dc-guard", "inf", *ONE_CELL],
        ["bank", "--min-rate", "nan", "--votes", "1", *SHORT],
        ["bank", "--min-rate", "inf", "--votes", "1", *SHORT],
        ["hysteresis", "--v-max", "inf"],
        ["reproduce", "fig6", "--seed", "5"],
        ["reproduce", "fig8", "--seed", "5"],
        ["detect-freq", "--dc-guard", "-5", *SHORT],
        ["transitions", "--decay", "-1", *SHORT],
        ["transitions", "--decay", "nan", *SHORT],
        ["snr-sweep", "--decay", "-1", "--sigma-grid", "0.05", "--repeats", "1", *SHORT],
        ["snr-sweep", "--decay", "nan", "--sigma-grid", "0.05", "--repeats", "1", *SHORT],
        ["bank", "--decay", "-1", "--votes", "1", *SHORT],
        ["bank", "--decay", "nan", "--votes", "1", *SHORT],
        ["freq-table", "--noise-rate", "5000", *ONE_CELL],
        ["detect-freq", "--decay", "0", *SHORT],
        # seeds outside [0, 2**64), which used to wrap onto in-range ones
        ["transitions", "--seed", "-1", *SHORT],
        ["transitions", "--seed", str(2**64 + 5), *SHORT],
        ["bank", "--seed", str(2**64 - 3), "--votes", "5", *SHORT],
        # a repeated frequency, whose rows would be merged into one summary
        ["freq-table", "--frequencies", "10,10", "--repeats", "2", *SHORT],
        # a drive above Nyquist, zero at every sample
        ["freq-table", "--frequencies", "20000", "--repeats", "1", *SHORT],
        # flags that the selected law or bank mode never reads
        ["t0-curve", "--ratio", "0.3"],
        ["hysteresis", "--law", "calibrated", "--ratio", "0.045"],
        ["bank", "--sigma-grid", "0.5,0.6"],
        ["bank", "--threshold", "0.3"],
        ["bank", "--thresholds", "0.01", "--mode", "sigma"],
        ["bank", "--sigma", "0.01", "--mode", "sigma"],
    ], ids=lambda argv: "_".join(argv[:3]))
    def test_silent_bad_input_is_config_error(self, tmp_path, argv):
        out = tmp_path / "out"
        assert main([*argv, "--out-dir", str(out)]) == 2
        assert not out.exists()

    # config-file values that the selected law or bank mode never reads
    @pytest.mark.parametrize("argv, key, edited", [
        (["t0-curve", "--sigma-grid", "0,0.3", "--runs", "2", "--duration", "0.05"],
         "ratio", "0.05"),
        (["bank", "--votes", "1", "--duration", "0.05"], "sigma_grid", "0.5,0.6"),
    ], ids=["t0-curve_ratio", "bank_sigma_grid"])
    def test_unread_config_value_is_config_error(self, tmp_path, argv, key, edited):
        stem = argv[0].replace("-", "_")
        first, replay, out = tmp_path / "a", tmp_path / "b", tmp_path / "edited"
        assert main([*argv, "--out-dir", str(first)]) == 0
        manifest = first / f"{stem}_manifest.ini"
        # the unedited manifest records the default, so its replay runs
        assert main([argv[0], "--config", str(manifest), "--out-dir", str(replay)]) == 0
        for name in (f"{stem}.csv", f"{stem}_manifest.ini"):
            assert (first / name).read_bytes() == (replay / name).read_bytes()
        text, n = re.subn(rf"^{key} = .*$", f"{key} = {edited}", manifest.read_text(),
                          flags=re.M)
        assert n == 1
        config = tmp_path / "edited.ini"
        config.write_text(text)
        assert main([argv[0], "--config", str(config), "--out-dir", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["snr-sweep", "optimal-sigma"])
    def test_sub_bin_frequency_is_config_error(self, tmp_path, command, capsys):
        # 0.5 Hz over 0.01 s is below half a bin: its nearest bin is DC
        out = tmp_path / "out"
        rc = main([command, "--frequency", "0.5", "--duration", "0.01",
                   "--sigma-grid", "0.01:0.05:0.01", "--repeats", "2", "--out-dir", str(out)])
        assert rc == 2
        assert "half a bin" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_maybe_float_refused_by_argparse(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bank", "--min-rate", "abc", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "invalid maybe_float value" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [*COMMANDS, "reproduce"])
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert "--out-dir" in capsys.readouterr().out

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


class TestParser:
    def test_built_once_and_unchanged_by_use(self, tmp_path, capsys):
        build_parser.cache_clear()
        assert main(["hysteresis", "--points", "11", "--out-dir", str(tmp_path)]) == 0
        assert main(["reproduce", "fig8", "--out-dir", str(tmp_path)]) == 0
        assert build_parser.cache_info().misses == 1
        fresh = build_parser.__wrapped__()
        for argv in (["--help"], ["hysteresis", "--help"], ["reproduce", "--help"]):
            capsys.readouterr()
            with pytest.raises(SystemExit):
                main(argv)
            cached = capsys.readouterr().out
            with pytest.raises(SystemExit):
                fresh.parse_args(argv)
            assert cached == capsys.readouterr().out


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

    def test_environment_does_not_change_outputs(self, tmp_path, monkeypatch):
        # a run depends only on its flags, config and defaults
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["detect-freq", "--duration", "0.1", "--out-dir", str(a)]) == 0
        monkeypatch.setenv("SRLAB_SEED", "55")
        assert main(["detect-freq", "--duration", "0.1", "--out-dir", str(b)]) == 0
        for name in ("detect_freq.csv", "detect_freq_manifest.ini"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


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

    def test_flag_and_strlist_replay_is_byte_identical(self, tmp_path):
        # the flag and strlist kinds, which no other replay reads from a config
        curve = {b: _sigmoid_curve_csv(tmp_path / f"b{b}.csv", b) for b in (1, 3, 4, 5)}
        cal = [a for b in (1, 3, 5) for a in ("--calibration", f"{b}={curve[b]}")]
        runs = [(["fit-sigmoid", "--input", curve[4], "--float-plateau", "--decay", "5"],
                 "fit_sigmoid"),
                (["estimate-decay", *cal, "--observed", curve[4]], "estimate_decay")]
        for argv, stem in runs:
            a, c = tmp_path / f"{stem}_a", tmp_path / f"{stem}_c"
            assert main([*argv, "--out-dir", str(a)]) == 0
            manifest = a / f"{stem}_manifest.ini"
            assert main([argv[0], "--config", str(manifest), "--out-dir", str(c)]) == 0
            for name in (f"{stem}.csv", f"{stem}_manifest.ini"):
                assert (a / name).read_bytes() == (c / name).read_bytes()
        fit_manifest = read_manifest(tmp_path / "fit_sigmoid_a" / "fit_sigmoid_manifest.ini")
        assert fit_manifest["float_plateau"] == "true"


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

    def test_fig13_fits_the_curve_it_writes(self, tmp_path, capsys):
        # a short t0-curve manifest replayed as the fig13 preset
        a, b, fit = tmp_path / "a", tmp_path / "b", tmp_path / "fit"
        assert main(["t0-curve", "--sigma-grid", "0:0.3:0.02", "--runs", "10",
                     "--duration", "0.5", "--out-dir", str(a)]) == 0
        assert main(["reproduce", "fig13", "--config", str(a / "t0_curve_manifest.ini"),
                     "--out-dir", str(b)]) == 0
        summary = capsys.readouterr().out.splitlines()[-1]
        assert main(["fit-sigmoid", "--input", str(a / "t0_curve.csv"), "--plateau", "0.5",
                     "--decay", "5", "--out-dir", str(fit)]) == 0
        assert (b / "fig13.csv").read_bytes() == (a / "t0_curve.csv").read_bytes()
        assert (b / "fig13_fit.csv").read_bytes() == (fit / "fit_sigmoid.csv").read_bytes()
        assert re.search(r"; sigmoid r2 \d\.\d{4}$", summary)
        assert read_manifest(b / "fig13_manifest.ini")["preset"] == "fig13"

    def test_fig6_replay_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["reproduce", "fig6", "--out-dir", str(a)]) == 0
        assert main(
            ["reproduce", "fig6", "--config", str(a / "fig6_manifest.ini"),
             "--out-dir", str(b)]
        ) == 0
        assert (a / "fig6.csv").read_bytes() == (b / "fig6.csv").read_bytes()
