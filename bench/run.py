"""srlab benchmark: one command that measures a workload end to end (or,
with --trace 1, layer by layer) and checks every output.

    python3 bench/run.py --workload sweep --seed 0 --seconds 24 --trace 0
    python3 bench/run.py --workload t0curve --seed 0 --seconds 24 --trace 1
    python3 bench/run.py --record            # rewrite bench/reference.json

Run from the root of a source checkout; srlab is imported from src/.  The
run starts CHILDREN fresh worker processes one after another.  Each is
timed from spawn until it has imported srlab, built its inputs and made
one warm-up call (setup_s), then runs passes for its share of --seconds.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter as clock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILDREN = 3
RUN_LIMIT_S = 170.0  # the whole run, set-up included, must end within this
WORKLOADS = ("sweep", "t0curve", "detect", "cli_io")

# End-to-end metrics of an untraced run: name -> unit.  failed_frac is
# printed too, but it is 0 on a correct run, so it is carried by the
# result's attempted/failed counts rather than listed as a metric.
END_TO_END = {
    "wall_s": "s",
    "ns_per_sample": "ns",
    "call_ms_p50": "ms",
    "call_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def worker_env() -> dict:
    """One thread of work: BLAS and OpenMP pools capped at one thread, no
    inherited SRLAB_SEED, srlab from this checkout's src/.  Bytecode
    caching stays on, as in an installed package, so setup_s counts
    imports but not compiling srlab's source."""
    env = dict(os.environ)
    env.pop("SRLAB_SEED", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list, env: dict, timeout: float) -> tuple[float, dict]:
    """Run one worker; return (seconds from spawn to READY, its result).
    The worker is killed if it outlives `timeout`, and always waited for."""
    t0 = clock()
    with subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *argv], cwd=ROOT,
                          env=env, stdout=subprocess.PIPE, text=True) as proc:
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            first = proc.stdout.readline()
            setup_s = clock() - t0
            rest = proc.stdout.read()
            rc = proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if first.strip() != "READY" or rc != 0:
        raise RuntimeError(f"worker {argv} exited with {rc} before reporting")
    lines = [line for line in rest.splitlines() if line.startswith("RESULT ")]
    if not lines:
        raise RuntimeError(f"worker {argv} printed no result")
    return setup_s, json.loads(lines[-1][len("RESULT "):])


def tail_percentile(values: list) -> tuple[int, float, int]:
    """The highest integer percentile (nearest rank) with at least ten
    samples beyond it: (percentile, value, samples beyond).  With ten or
    fewer samples no percentile qualifies and the maximum is returned."""
    xs = sorted(values)
    n = len(xs)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, xs[rank - 1], n - rank
    return 100, xs[-1], 0


def call_tail(per_process: list) -> tuple[float, str]:
    """call_ms_tail and how it was taken.  When every process made more than
    ten calls, the median over processes of each one's tail_percentile: a
    burst of interference from other tenants then moves one process's
    tail, not the reported value.  Otherwise the tail of all calls pooled."""
    if all(len(calls) > 10 for calls in per_process):
        tails = [tail_percentile(calls) for calls in per_process]
        value = statistics.median(t[1] for t in tails)
        return value, "median over processes of " + ", ".join(
            f"p{p} of {len(c)} calls ({b} beyond)" for (p, _, b), c in zip(tails, per_process))
    pct, value, beyond = tail_percentile([c for calls in per_process for c in calls])
    return value, f"p{pct} of all {sum(map(len, per_process))} calls ({beyond} beyond)"


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def end_to_end(results: list, setups: list) -> tuple[dict, list]:
    """End-to-end metrics and the report lines describing them."""
    shape = results[0]["shape"]
    walls = [w for r in results for w in r["walls"]]
    per_process = [[c * 1e3 for c in r["calls"]] for r in results]
    calls = [c for p in per_process for c in p]
    q1, wall, q3 = quartiles(walls)
    tail, tail_note = call_tail(per_process)
    s1, setup, s3 = quartiles(setups)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    metrics = {
        "wall_s": wall,
        "ns_per_sample": 1e9 * wall / shape["samples_per_pass"],
        "call_ms_p50": statistics.median(calls),
        "call_ms_tail": tail,
        "setup_s": setup,
        "peak_rss_mb": max(r["rss_mb"] for r in results),
    }
    notes = {
        "wall_s": f"median of {len(walls)} passes (q1 {q1:.6g}, q3 {q3:.6g})",
        "ns_per_sample": f"wall_s / {shape['samples_per_pass']} comparator samples per pass",
        "call_ms_p50": f"p50 of {len(calls)} calls",
        "call_ms_tail": tail_note,
        "setup_s": f"median of {len(setups)} fresh processes (q1 {s1:.6g}, q3 {s3:.6g})",
        "peak_rss_mb": f"max over {len(results)} processes",
    }
    lines = [f"metric {name:<14} {metrics[name]:>14.6g} {unit:<5} {notes[name]}"
             for name, unit in END_TO_END.items()]
    lines.append(f"metric {'failed_frac':<14} {failed / attempted:>14.6g} {'ratio':<5} "
                 f"{failed} failed / {attempted} attempted")
    return {n: {"value": v, "unit": END_TO_END[n]} for n, v in metrics.items()}, lines


def per_layer(results: list) -> tuple[dict, list]:
    import tracing

    totals, traced, untraced = {}, [], []
    for r in results:
        tracing.merge(totals, r["trace"]["totals"])
        traced += r["trace"]["traced_walls"]
        untraced += r["walls"]
    metrics = tracing.layer_metrics(totals, len(traced), sum(traced),
                                    sum(untraced) / len(untraced))
    lines = [f"layer {name:<30} {metrics[name]:>14.6g} {unit}"
             for name, unit in tracing.PER_LAYER.items()]
    lines.append(f"layer passes: {len(traced)} traced, {len(untraced)} untraced; "
                 f"counts and seconds are per traced pass; spans in "
                 + ", ".join(r["trace"]["spans"] for r in results))
    return {n: {"value": v, "unit": tracing.PER_LAYER[n]} for n, v in metrics.items()}, lines


def measure(args) -> int:
    env = worker_env()
    start = clock()
    # Compile srlab's bytecode and warm the file cache, so that every timed
    # set-up starts from the same state.
    subprocess.run([sys.executable, "-c", "import srlab.cli"], cwd=ROOT, env=env,
                   check=True, timeout=60, stdout=subprocess.DEVNULL)
    results, setups = [], []
    for child in range(CHILDREN):
        argv = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds / CHILDREN), "--child", str(child),
                "--children", str(CHILDREN), "--trace", str(args.trace), "--size", args.size]
        setup_s, result = spawn(argv, env, RUN_LIMIT_S - (clock() - start))
        setups.append(setup_s)
        results.append(result)

    first = results[0]
    versions = first["platform"]
    shape = first["shape"]
    print(f"srlab benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}, size {args.size}")
    print(f"env nproc={os.cpu_count()} cpu={cpu_model()!r} python={versions['python']} "
          f"numpy={versions['numpy']} scipy={versions['scipy']} worker_threads=1 "
          f"processes={CHILDREN}")
    print(f"shape {args.workload}: {shape['layout']}; calls/pass={shape['calls_per_pass']} "
          f"cells/pass={shape['cells_per_pass']} samples/cell={shape['samples_per_cell']} "
          f"samples/pass={shape['samples_per_pass']}")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    by_ref = sum(r["by_reference"] for r in results)
    replays = sum(r["replays"] for r in results)
    warmup = sum(r["warmup_ops"] for r in results)
    gate = (f"gate: {attempted} ops ({warmup} in tiny warm-up calls), {by_ref} matched "
            f"against {first['reference']}, {attempted - by_ref} by self-consistency only")
    if replays:
        gate += f", {replays} manifest replays byte-compared"
    print(gate)
    for r in results:
        for err in r["errors"]:
            print(f"FAILED {err}")

    metrics, lines = per_layer(results) if args.trace else end_to_end(results, setups)
    for line in lines:
        print(line)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="srlab benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("preset", "tiny"), default="preset",
                        help="tiny runs every workload at a toy size, for tests")
    parser.add_argument("--record", action="store_true",
                        help="rewrite bench/reference.json from this checkout")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "srlab" / "__init__.py").is_file():
        print(f"bench: no srlab source tree at {ROOT / 'src' / 'srlab'}", file=sys.stderr)
        return 2
    if args.record:
        return subprocess.run([sys.executable, str(BENCH / "worker.py"), "--record"],
                              cwd=ROOT, env=worker_env()).returncode
    if args.workload is None:
        parser.error("--workload is required")
    try:
        return measure(args)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
