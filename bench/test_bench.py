"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

NAMES = list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_each_workload_runs_clean_at_tiny_size(name):
    result = worker.run(name, seed=0, seconds=0.2, size="tiny")
    assert result["walls"] and result["calls"]
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["errors"]


@pytest.mark.parametrize("name", NAMES)
def test_traced_pass_does_the_same_work_as_untraced(name):
    result = worker.run(name, seed=0, seconds=0.2, trace=True, size="tiny")
    # run() fails a traced pass whose call or sample count differs from the
    # untraced shape; check the totals here too.
    assert result["failed"] == 0, result["errors"]
    traced = len(result["trace"]["traced_walls"])
    totals = result["trace"]["totals"]
    assert traced >= 1
    assert totals["run"]["samples"] == traced * result["shape"]["samples_per_pass"]


def _pass_with_reference(wl, index):
    ops = wl.run_pass(index)
    wl.collect(ops)
    return ops, {index: [worker.digest(op.output) for op in ops]}


def test_gate_catches_a_perturbed_library_output(tmp_path, monkeypatch):
    import srlab.experiments

    wl = workloads.make("sweep", "tiny")
    wl.setup(tmp_path)
    ops, ref = _pass_with_reference(wl, 5)

    gate = worker.Gate(wl, ref)
    gate.check(5, wl.run_pass(5))
    assert (gate.failed, gate.by_reference) == (0, len(ops))

    snr_db = srlab.experiments.snr_db
    monkeypatch.setattr(srlab.experiments, "snr_db", lambda *a, **k: snr_db(*a, **k) + 1e-9)
    gate.check(5, wl.run_pass(5))
    assert gate.failed == len(ops)
    assert "digest differs" in gate.errors[0]


def test_gate_catches_perturbed_csv_bytes(tmp_path, monkeypatch):
    import srlab.csvio

    wl = workloads.make("cli_io", "tiny")
    wl.setup(tmp_path)
    wl.prepare(3)
    ops, ref = _pass_with_reference(wl, 3)

    cell = srlab.csvio._cell
    monkeypatch.setattr(srlab.csvio, "_cell",
                        lambda v: f"{v:.6g}" if isinstance(v, float) else cell(v))
    wl.prepare(3)
    perturbed = wl.run_pass(3)
    wl.collect(perturbed)
    gate = worker.Gate(wl, ref)
    gate.check(3, perturbed)
    assert gate.failed > 0
    assert all("digest differs" in e for e in gate.errors)


def test_gate_catches_a_replay_that_is_not_byte_identical(tmp_path, monkeypatch):
    import srlab.cli

    wl = workloads.make("cli_io", "tiny")
    wl.setup(tmp_path)
    write_manifest = srlab.cli.write_manifest

    def drop_seed(path, params):
        write_manifest(path, {k: v for k, v in params.items() if k != "seed"})

    monkeypatch.setattr(srlab.cli, "write_manifest", drop_seed)
    wl.prepare(7)
    ops = wl.run_pass(7)
    wl.collect(ops)
    gate = worker.Gate(wl, None)
    gate.check(7, ops)
    assert gate.failed == 2  # fig4 and transitions replay with the default seed
    assert all("not byte-identical" in e for e in gate.errors)


def test_gate_counts_an_exception_as_a_failure(tmp_path, monkeypatch):
    import srlab.amp_detect

    def broken(*args, **kwargs):
        raise FloatingPointError("injected")

    wl = workloads.make("t0curve", "tiny")
    wl.setup(tmp_path)
    monkeypatch.setattr(srlab.amp_detect, "fit_sigmoid", broken)
    gate = worker.Gate(wl, None)
    gate.check(0, wl.run_pass(0))
    assert gate.failed == 1 and "injected" in gate.errors[0]


@pytest.mark.parametrize("name", NAMES)
def test_committed_references_hold_at_this_commit(name, tmp_path):
    wl = workloads.make(name)
    ref, note = worker.load_reference(name, wl.shape)
    if ref is None:
        pytest.skip(note)
    wl.setup(tmp_path)
    index = min(ref)
    wl.prepare(index)
    ops = wl.run_pass(index)
    wl.collect(ops)
    gate = worker.Gate(wl, ref)
    gate.check(index, ops)
    assert gate.failed == 0, gate.errors
    assert gate.by_reference == len(ops)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_command_prints_every_named_metric(name, trace):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", "4",
         "--seconds", "0.3", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    ).stdout.splitlines()
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    report = "\n".join(out[:-1])
    for m in spec:
        assert m["name"] in report
    assert "nproc=" in report and "numpy=" in report and "samples/pass=" in report
    if not trace:
        assert "failed_frac" in report
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"] and spec["paths"] == ["bench"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (n, w.why) for n, w in workloads.WORKLOADS.items()]
    assert run.WORKLOADS == tuple(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER.items())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_without_a_source_tree_the_command_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile([float(v) for v in range(1, 101)]) == (90, 90.0, 10)
    assert run.tail_percentile([float(v) for v in range(1, 16)]) == (33, 5.0, 10)
    assert run.tail_percentile([1.0, 2.0, 3.0]) == (100, 3.0, 0)


def test_call_tail_is_a_median_over_processes_unless_one_has_ten_calls_or_fewer():
    many = [[float(v) for v in range(1, 101)], [float(v) for v in range(101, 201)],
            [float(v) for v in range(1001, 1101)]]
    assert run.call_tail(many)[0] == 190.0
    few = [[float(v) for v in range(1, 6)], [float(v) for v in range(6, 11)],
           [float(v) for v in range(11, 16)]]
    assert run.call_tail(few)[0] == 5.0


def test_input_order_is_a_function_of_the_seed():
    first = [worker.input_order(3, 10)(p) for p in range(14)]
    assert first == [worker.input_order(3, 10)(p) for p in range(14)]
    assert sorted(first[:10]) == list(range(10))
    assert first[10:] == list(range(first[10], first[10] + 4)) and first[10] >= 10
    assert first != [worker.input_order(4, 10)(p) for p in range(14)]
