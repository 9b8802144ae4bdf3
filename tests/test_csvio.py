import hashlib

import numpy as np
import pytest

from srlab.amp_detect import SigmoidFit, T0Stats
from srlab.bank import BankReport, DetectorResult
from srlab.csvio import (
    _BLOCK,
    _cell,
    read_manifest,
    read_t0_curve_csv,
    write_bank_csv,
    write_fits_csv,
    write_freq_table_csv,
    write_hysteresis_csv,
    write_manifest,
    write_rows,
    write_t0_curve_csv,
    write_waveforms_csv,
)
from srlab.freq_detect import FreqDetectReport
from srlab.signals import Trace
from srlab.trigger import HysteresisLoop, SwitchList


class TestCellFormat:
    def test_none_is_empty(self):
        assert _cell(None) == ""

    def test_bools_are_lowercase_words(self):
        assert _cell(True) == "true"
        assert _cell(False) == "false"

    def test_floats_use_repr(self):
        assert _cell(0.1) == "0.1"
        assert _cell(1e-07) == "1e-07"
        assert _cell(0.19899999999999998) == "0.19899999999999998"

    def test_ints_plain(self):
        assert _cell(42) == "42"

    def test_sequences_join_with_semicolons(self):
        assert _cell([0.001, 0.002]) == "0.001;0.002"
        assert _cell((1, None, True)) == "1;;true"

    def test_numpy_scalars_match_python_ones(self):
        assert _cell(np.float64(0.5)) == "0.5"
        assert _cell(np.float64(0.19899999999999998)) == "0.19899999999999998"
        assert _cell(np.int64(42)) == "42"
        assert _cell(np.bool_(True)) == "true"
        assert _cell(np.bool_(False)) == "false"
        assert _cell([np.float64(0.001), np.int32(2)]) == "0.001;2"


class TestByteContract:
    def test_lf_endings_header_and_trailing_newline(self, tmp_path):
        path = tmp_path / "out.csv"
        write_rows(path, ("a", "b"), ([1, None], [2.5, True]))
        raw = path.read_bytes()
        assert raw == b"a,b\n1,2.5\n,true\n"

    def test_columns_must_match_header_and_each_other(self, tmp_path):
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError):
            write_rows(path, ("a", "b"), ([1, 2], [3]))
        with pytest.raises(ValueError):
            write_rows(path, ("a", "b"), ([1, 2],))
        assert not path.exists()

    def test_identical_input_identical_bytes(self, tmp_path):
        tr = Trace(1e-4, np.array([0.0, 0.5, -0.5]))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_waveforms_csv(p1, tr, tr, tr)
        write_waveforms_csv(p2, tr, tr, tr)
        assert p1.read_bytes() == p2.read_bytes()

    def test_trace_roundtrip_precision(self, tmp_path):
        # repr floats must round-trip exactly through the text form, in
        # every waveform column
        samples = np.array([0.1, 1 / 3, 0.19899999999999998])
        tr = Trace(1e-4, samples)
        path = tmp_path / "waveforms.csv"
        write_waveforms_csv(path, tr, Trace(1e-4, -samples), tr)
        rows = [r.split(",") for r in path.read_text().splitlines()[1:]]
        back = np.array([[float(v) for v in r[1:]] for r in rows])
        np.testing.assert_array_equal(back, np.column_stack([samples, -samples, samples]))


class TestGoldenBytes:
    """Digests recorded with the earlier row-by-row writer.  A replay
    compares a run with itself through the same writer, so only digests
    fixed in advance catch a change that moves every CSV alike.  Inputs are
    built from exact arithmetic only (no transcendental functions) and span
    three write blocks."""

    @staticmethod
    def _sha256(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def test_waveforms(self, tmp_path):
        n, dt = 10_000, 1 / 20000.0
        assert n > 2 * _BLOCK
        k = np.arange(n)
        path = tmp_path / "waveforms.csv"
        write_waveforms_csv(
            path,
            Trace(dt, k / 7.0),
            Trace(dt, (k - 5000) / -3e7),  # -0.0 at k = 5000, e-05 and e-08 forms
            SwitchList(dt, n, True, np.arange(3, n, 7), 5.0, -5.0),
        )
        assert self._sha256(path) == (
            "92fc0979778864e01a307d0e91e24de1c287be0f5cf1d4cde12497088a0faddb"
        )

    def test_hysteresis(self, tmp_path):
        m = 5_000
        assert 2 * m > 2 * _BLOCK
        j = np.arange(m)
        up = j / 7.0 - 300.0
        loop = HysteresisLoop(up, np.where(j < 2400, 5.0, -5.0), up[::-1].copy(),
                              np.where(j < 2600, -5.0, 5.0), None, None)
        path = tmp_path / "hysteresis.csv"
        write_hysteresis_csv(path, loop)
        assert self._sha256(path) == (
            "cb0fbcbb8f969bd644adaa16edf31c7d1a686512a702d0660fc75e7573d23cf2"
        )


class TestFreqTable:
    def test_missed_detection_has_empty_cells(self, tmp_path):
        reports = [
            FreqDetectReport(500.0, 502.5, 0.5, 0.01, 0),
            FreqDetectReport(10.0, None, None, 0.01, 1),
        ]
        path = tmp_path / "table.csv"
        write_freq_table_csv(path, reports)
        lines = path.read_text().splitlines()
        assert lines[0] == "f_true_hz,f_est_hz,error_pct,detected_bool,sigma_v,seed"
        assert lines[1] == "500.0,502.5,0.5,true,0.01,0"
        assert lines[2] == "10.0,,,false,0.01,1"


class TestT0Roundtrip:
    def test_write_read_identity(self, tmp_path):
        curve = [
            T0Stats(0.0, 0.0, 0.0, 50, 50),
            T0Stats(0.1, 0.6180339887498949, 0.21, 50, 3),
            T0Stats(0.2, 1.25, 0.15, 50, 0),
        ]
        path = tmp_path / "curve.csv"
        write_t0_curve_csv(path, curve)
        assert read_t0_curve_csv(path) == curve

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("sigma,mean\n0.1,0.5\n")
        with pytest.raises(ValueError):
            read_t0_curve_csv(path)


class TestOtherWriters:
    def test_fits_csv_sorted_by_decay(self, tmp_path):
        fits = {
            5.0: SigmoidFit(140.0, 0.102, 1.5, 0.999, 1.0, 0.001),
            1.0: SigmoidFit(134.0, 0.0999, 1.5, 0.999, 1.0, 0.001),
        }
        path = tmp_path / "fits.csv"
        write_fits_csv(path, sorted(fits.items()))
        lines = path.read_text().splitlines()
        assert lines[0] == "decay_b,slope_a,center_b,r2"
        assert lines[1].startswith("1.0,134.0")
        assert lines[2].startswith("5.0,140.0")

    def test_bank_csv_rows(self, tmp_path):
        report = BankReport(
            results=[
                DetectorResult(0.001, 0.002, 510.0, True, 500.0),
                DetectorResult(0.064, 0.002, 2.5, False, None),
            ]
        )
        path = tmp_path / "bank.csv"
        write_bank_csv(path, report)
        lines = path.read_text().splitlines()
        assert lines[1] == "0,0.001,0.002,510.0,true,500.0"
        assert lines[2] == "1,0.064,0.002,2.5,false,"


class TestManifest:
    def test_roundtrip_with_lists_and_none(self, tmp_path):
        params = {
            "subcommand": "snr-sweep",
            "seed": 7,
            "sigma_grid": [0.01, 0.02, 0.03],
            "noise_rate": None,
            "verbose": True,
        }
        path = tmp_path / "run_manifest.ini"
        write_manifest(path, params)
        back = read_manifest(path)
        assert back["subcommand"] == "snr-sweep"
        assert back["seed"] == "7"
        assert back["sigma_grid"] == "0.01;0.02;0.03"
        assert back["noise_rate"] == ""
        assert back["verbose"] == "true"

    def test_missing_file_and_section(self, tmp_path):
        with pytest.raises(ValueError):
            read_manifest(tmp_path / "absent.ini")
        bad = tmp_path / "bad.ini"
        bad.write_text("[other]\nx = 1\n")
        with pytest.raises(ValueError):
            read_manifest(bad)

    def test_manifest_bytes_stable(self, tmp_path):
        params = {"subcommand": "hysteresis", "points": 801, "v_min": -0.2}
        p1, p2 = tmp_path / "m1.ini", tmp_path / "m2.ini"
        write_manifest(p1, params)
        write_manifest(p2, params)
        assert p1.read_bytes() == p2.read_bytes()
