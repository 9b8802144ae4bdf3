"""One benchmark process.

It sets up (imports srlab, builds inputs, makes one warm-up call at the
tiny size), prints READY, runs passes of its workload until its share of
the run's seconds is spent, checks every operation with the correctness
gate and prints one `RESULT <json>` line.  run.py starts several of these
in turn and times each one from spawn to READY; that is setup_s.

    python3 bench/worker.py --workload sweep --seed 0 --seconds 8 --size tiny
    python3 bench/worker.py --record          # rewrite bench/reference.json
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import sys
from pathlib import Path
from time import perf_counter as clock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference.json"
WORK = ROOT / ".bench_work"


def digest(obj) -> str:
    """Hash of a result: array bytes with dtype and shape, dataclass fields
    in order, floats by repr (exact round trip), files by their bytes."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()[:16]


def _feed(h, obj) -> None:
    import numpy as np

    if isinstance(obj, np.ndarray):
        h.update(f"nd{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            h.update(f.name.encode())
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, (list, tuple)):
        h.update(b"[%d" % len(obj))
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    elif isinstance(obj, dict):
        h.update(b"{%d" % len(obj))
        for key in sorted(obj):
            _feed(h, key)
            _feed(h, obj[key])
        h.update(b"}")
    elif isinstance(obj, bytes):
        h.update(b"b%d:" % len(obj))
        h.update(obj)
    else:
        h.update(repr(obj).encode())


def platform_key() -> dict:
    """What the reference digests depend on besides srlab: interpreter,
    library versions and the SIMD paths numpy dispatches to."""
    import numpy as np
    import scipy

    try:
        from numpy._core._multiarray_umath import __cpu_features__
        simd = ",".join(sorted(k for k, on in __cpu_features__.items() if on))
    except ImportError:
        simd = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "simd": hashlib.sha256(simd.encode()).hexdigest()[:16],
    }


def load_reference(workload: str, shape: dict) -> tuple[dict | None, str]:
    """Reference digests by input index, or None and the reason there are none."""
    if not REFERENCE.is_file():
        return None, "no reference file"
    data = json.loads(REFERENCE.read_text(encoding="utf-8"))
    if data["platform"] != platform_key():
        return None, "reference recorded on another platform"
    entry = data["workloads"].get(workload)
    if entry is None or entry["shape"] != json.loads(json.dumps(shape)):
        return None, "no reference for this workload shape"
    return {i: line.split() for i, line in enumerate(entry["passes"])}, "reference digests"


class Gate:
    """Counts operations and failures.  A failure is an exception, a failed
    self-consistency check (which covers a non-zero CLI exit and a replay
    that is not byte-identical), or a digest that differs from the
    reference for that input index."""

    def __init__(self, workload, reference: dict | None):
        self.workload = workload
        self.reference = reference
        self.attempted = self.failed = self.by_reference = self.replays = 0
        self.errors: list = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)

    def check(self, index: int, ops: list) -> None:
        ref = self.reference.get(index) if self.reference else None
        if ref is not None and len(ref) != len(ops):
            self.fail(f"input {index}: {len(ops)} calls, reference has {len(ref)}")
            ref = None
        for k, op in enumerate(ops):
            self.attempted += 1
            self.replays += op.name.endswith("_replay")
            if isinstance(op.output, BaseException):
                problem = f"raised {op.output!r}"
            else:
                try:
                    problem = self.workload.check(index, ops, k)
                except Exception as exc:  # a malformed result is a failure, not a crash
                    problem = f"self-consistency check raised {exc!r}"
                if problem is None and ref is not None:
                    self.by_reference += 1
                    if digest(op.output) != ref[k]:
                        problem = "digest differs from the reference"
            if problem:
                self.fail(f"input {index} {op.name}: {problem}")


def input_order(seed: int, pool: int):
    """Input index for each pass position: the referenced pool in a
    seed-shuffled order, then fresh indices (from a seed-chosen offset)
    that have no reference."""
    rng = random.Random(seed)
    order = rng.sample(range(pool), pool)
    offset = pool + rng.randrange(1 << 20) * (1 << 12)
    return lambda pos: order[pos] if pos < pool else offset + pos - pool


def run(workload: str, seed: int, seconds: float, child: int = 0, children: int = 1,
        trace: bool = False, size: str = "preset", ready=None) -> dict:
    """Set up, warm up, call `ready`, then run passes for `seconds`.
    Positions child, child + children, ... of the input order are this
    process's share.  In traced mode every second pass is traced."""
    import tracing
    import workloads

    wl = workloads.make(workload, size)
    warm = workloads.make(workload, workloads.TINY)
    work = WORK / f"{workload}-{os.getpid()}-{child}"
    tracer = tracing.Tracer() if trace else None
    try:
        wl.setup(work / "main")
        warm.setup(work / "warm")
        warm.prepare(child)
        warm_ops = warm.run_pass(child)
        warm.collect(warm_ops)
        if ready:
            ready()
        deadline = clock() + seconds

        reference, note = load_reference(workload, wl.shape)
        gate = Gate(wl, reference)
        warm_gate = Gate(warm, None)
        warm_gate.check(child, warm_ops)

        order = input_order(seed, wl.pool)
        walls, calls, traced_walls, totals = [], [], [], {}
        position = child
        while True:
            index = order(position)
            traced = tracer is not None and len(walls) > len(traced_walls)
            wl.prepare(index)
            if traced:
                tracer.install()
            try:
                t0 = clock()
                ops = wl.run_pass(index)
                wall = clock() - t0
            finally:
                if traced:
                    tracer.uninstall()
            if traced:
                pass_totals, top_level = tracer.take()
                tracing.merge(totals, pass_totals)
                traced_walls.append(wall)
                samples = pass_totals.get("run", {}).get("samples", 0)
                if samples != wl.shape["samples_per_pass"] or top_level != len(ops):
                    gate.fail(f"input {index}: traced pass made {top_level} calls and "
                              f"{samples} comparator samples, untraced shape is "
                              f"{len(ops)} calls and {wl.shape['samples_per_pass']} samples")
            else:
                walls.append(wall)
                calls.extend(op.seconds for op in ops if op.timed_call)
            wl.collect(ops)
            gate.check(index, ops)
            position += children
            if clock() >= deadline and (tracer is None or traced_walls):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "workload": workload,
        "shape": wl.shape,
        "walls": walls,
        "calls": calls,
        "attempted": gate.attempted + warm_gate.attempted,
        "warmup_ops": warm_gate.attempted,
        "failed": gate.failed + warm_gate.failed,
        "by_reference": gate.by_reference,
        "replays": gate.replays,
        "reference": note,
        "errors": warm_gate.errors + gate.errors,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "platform": platform_key(),
    }
    if tracer is not None:
        spans = WORK / f"spans-{workload}-{child}.jsonl"
        tracer.write_spans(spans)
        result["trace"] = {"totals": totals, "traced_walls": traced_walls,
                           "spans": str(spans.relative_to(ROOT))}
    return result


def record() -> dict:
    """Run every referenced input of each workload once at the preset size
    and return its digests; every op must pass its self-consistency check."""
    import workloads

    out = {"platform": platform_key(), "workloads": {}}
    for name in workloads.WORKLOADS:
        wl = workloads.make(name)
        work = WORK / f"record-{name}-{os.getpid()}"
        try:
            wl.setup(work)
            passes = []
            for index in range(wl.pool):
                wl.prepare(index)
                ops = wl.run_pass(index)
                wl.collect(ops)
                gate = Gate(wl, None)
                gate.check(index, ops)
                if gate.failed:
                    raise RuntimeError(f"{name}: {gate.errors}")
                passes.append(" ".join(digest(op.output) for op in ops))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        out["workloads"][name] = {"shape": wl.shape, "ops": [op.name for op in ops],
                                  "passes": passes}
        print(f"recorded {name}: {len(passes)} inputs", file=sys.stderr)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--child", type=int, default=0)
    parser.add_argument("--children", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("preset", "tiny"), default="preset")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import srlab

    if src not in Path(srlab.__file__).resolve().parents:
        print(f"worker: srlab imported from {srlab.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.record:
        data = record()
        REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        return 0
    result = run(args.workload, args.seed, args.seconds, args.child, args.children,
                 bool(args.trace), args.size, ready=lambda: print("READY", flush=True))
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
