"""Traced mode: spans around srlab's layer-boundary public functions.

Callers inside srlab bind these functions with `from ... import`, so a
wrapper must replace the function in the namespace of every module that
holds it, not only where it is defined.  `Tracer.install` does that by
identity and `Tracer.uninstall` puts the originals back; nothing under
src/ changes.

A span records name, start, end, parent span and the id of the top-level
call it belongs to.  Spans stay in memory and are written out when the run
ends.  A span's self time is its duration minus the time its child spans
cover.  Work the wrapper itself does (taking counts from a result) is
timed separately and charged to neither the span nor its parent.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from time import perf_counter as clock

import numpy as np

LAYERS = ("signals", "noise", "trigger", "spectral", "experiments", "freq_detect",
          "amp_detect", "bank", "csvio", "cli")

# (defining module, function, layer).  read_manifest lives in csvio but is
# the CLI's config read, so it is charged to cli.
TRACED = (
    ("srlab.signals", "generate", "signals"),
    ("srlab.noise", "generate_noise", "noise"),
    ("srlab.trigger", "run", "trigger"),
    ("srlab.trigger", "transition_count", "trigger"),
    ("srlab.spectral", "periodogram", "spectral"),
    ("srlab.spectral", "snr_db", "spectral"),
    ("srlab.spectral", "second_peak_frequency", "spectral"),
    ("srlab.experiments", "snr_sigma_sweep", "experiments"),
    ("srlab.experiments", "capture_transitions", "experiments"),
    ("srlab.freq_detect", "error_rate_table", "freq_detect"),
    ("srlab.freq_detect", "detect_frequency", "freq_detect"),
    ("srlab.freq_detect", "transition_spectrum", "freq_detect"),
    ("srlab.amp_detect", "t0_sigma_curve", "amp_detect"),
    ("srlab.amp_detect", "mean_t0_monte_carlo", "amp_detect"),
    ("srlab.amp_detect", "last_transition_time", "amp_detect"),
    ("srlab.amp_detect", "expected_t0_for_config", "amp_detect"),
    ("srlab.amp_detect", "fit_sigmoid", "amp_detect"),
    ("srlab.amp_detect", "calibrate_and_estimate_decay", "amp_detect"),
    ("srlab.bank", "vote_bank", "bank"),
    ("srlab.bank", "run_bank", "bank"),
    ("srlab.csvio", "write_rows", "csvio"),
    ("srlab.csvio", "write_manifest", "csvio"),
    ("srlab.csvio", "read_t0_curve_csv", "csvio"),
    ("srlab.csvio", "read_manifest", "cli"),
    ("srlab.cli", "resolve_params", "cli"),
    ("srlab.cli", "main", "cli"),
)
LAYER_OF = {name: layer for _, name, layer in TRACED}


def _draws(args, out) -> dict:
    # Same draw count generate_noise makes: one draw per hold period.
    spec, sample_rate = args[0], args[1]
    n = out.samples.size
    ratio = sample_rate / spec.noise_rate
    m = round(ratio)
    draws = (n - 1) // m + 1 if m >= 1 and abs(ratio - m) < 1e-9 else int((n - 1) / ratio) + 1
    return {"draws": draws}


def _run(args, out) -> dict:
    s = out.samples
    return {"samples": s.size, "transitions": int(np.count_nonzero(s[1:] != s[:-1]))}


def _written(args, out) -> dict:
    data = Path(args[0]).read_bytes()
    return {"rows": data.count(b"\n") - 1, "bytes": len(data)}


COUNTERS = {
    "generate_noise": _draws,
    "run": _run,
    "periodogram": lambda args, out: {"points": args[0].samples.size},
    "detect_frequency": lambda args, out: {"detected": int(out.detected)},
    "last_transition_time": lambda args, out: {"no_transition": int(out == 0.0)},
    "run_bank": lambda args, out: {"channels": len(out.results),
                                   "resonating": sum(out.resonance_flags())},
    "write_rows": _written,
    "write_manifest": lambda args, out: {"rows": len(args[1]),
                                         "bytes": os.path.getsize(args[0])},
    "read_t0_curve_csv": lambda args, out: {"rows": len(out),
                                            "bytes": os.path.getsize(args[0])},
}


class Tracer:
    """Span recorder for one process.  `totals` holds, per traced function,
    calls, self and inclusive seconds and the counts taken from results."""

    def __init__(self):
        self.spans: list = []
        self.totals: dict = {}
        self.top_level_calls = 0
        self._stack: list = []
        self._plan: list | None = None
        self._next_id = 0
        self._next_call = 0

    def _wrap(self, fn, name: str):
        counter = COUNTERS.get(name)
        stack, spans, totals = self._stack, self.spans, self.totals

        def traced(*args, **kwargs):
            t_in = clock()
            if stack:
                parent_id, call_id = stack[-1][0], stack[-1][1]
            else:
                self.top_level_calls += 1
                self._next_call += 1
                parent_id, call_id = -1, self._next_call
            frame = [self._next_id, call_id, 0.0]
            self._next_id += 1
            stack.append(frame)
            ok = False
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                t1 = clock()
                stack.pop()
                counts = counter(args, out) if ok and counter else None
                spans.append((frame[0], name, parent_id, call_id, t0, t1, t1 - t0 - frame[2]))
                total = totals.get(name)
                if total is None:
                    total = totals[name] = {"calls": 0, "self_s": 0.0, "incl_s": 0.0}
                total["calls"] += 1
                total["self_s"] += t1 - t0 - frame[2]
                total["incl_s"] += t1 - t0
                if counts:
                    for key, value in counts.items():
                        total[key] = total.get(key, 0) + value
                if stack:  # the parent's child time includes this wrapper's own work
                    stack[-1][2] += clock() - t_in

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._plan is None:
            modules = [m for n, m in list(sys.modules.items())
                       if n == "srlab" or n.startswith("srlab.")]
            self._plan = []
            for mod_name, name, _layer in TRACED:
                if mod_name not in sys.modules:
                    continue
                fn = getattr(sys.modules[mod_name], name)
                wrapper = self._wrap(fn, name)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            self._plan.append((m, attr, fn, wrapper))
        for m, attr, _fn, wrapper in self._plan:
            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, fn, _wrapper in reversed(self._plan or ()):
            setattr(m, attr, fn)

    def take(self) -> tuple[dict, int]:
        """Function totals and top-level call count since the last take()."""
        out = {name: dict(t) for name, t in self.totals.items()}, self.top_level_calls
        self.totals.clear()
        self.top_level_calls = 0
        return out

    def write_spans(self, path: Path) -> None:
        """One JSON array per line: id, name, layer, parent id (-1 at top
        level), top-level call id, start s, end s, self s."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for sid, name, parent, call_id, t0, t1, self_s in self.spans:
                fh.write(json.dumps([sid, name, LAYER_OF[name], parent, call_id,
                                     t0, t1, self_s]) + "\n")


def merge(into: dict, totals: dict) -> None:
    for name, t in totals.items():
        dst = into.setdefault(name, {})
        for key, value in t.items():
            dst[key] = dst.get(key, 0) + value


# Per-layer metrics of the traced run: name -> unit.  Counts and seconds are
# per traced pass; *_frac, *.share and rates come from run totals.
PER_LAYER = {
    "noise.calls": "count", "noise.draws": "count", "noise.self_s": "s",
    "noise.ns_per_draw": "ns",
    "trigger.calls": "count", "trigger.samples": "count", "trigger.transitions": "count",
    "trigger.self_s": "s", "trigger.ns_per_sample": "ns",
    "spectral.calls": "count", "spectral.fft_points": "count", "spectral.self_s": "s",
    "spectral.ns_per_point": "ns",
    "signals.calls": "count", "signals.self_s": "s",
    "experiments.self_s": "s",
    "freq_detect.calls": "count", "freq_detect.self_s": "s",
    "freq_detect.detected_frac": "ratio",
    "amp_detect.lt_calls": "count", "amp_detect.lt_self_s": "s",
    "amp_detect.no_transition_frac": "ratio", "amp_detect.theory_s": "s",
    "amp_detect.fit_calls": "count", "amp_detect.fit_s": "s", "amp_detect.self_s": "s",
    "bank.channel_runs": "count", "bank.self_s": "s", "bank.resonating_frac": "ratio",
    "csvio.calls": "count", "csvio.rows": "count", "csvio.bytes": "count",
    "csvio.self_s": "s", "csvio.mb_per_s": "MB/s",
    "cli.commands": "count", "cli.self_s": "s",
    **{f"{layer}.share": "ratio" for layer in LAYERS},
    "glue_s": "s",
    "trace_overhead_frac": "ratio",
}


def layer_metrics(totals: dict, passes: int, traced_wall_s: float,
                  untraced_pass_s: float) -> dict:
    """Per-layer metrics from function totals summed over `passes` traced
    passes lasting `traced_wall_s` in all; `untraced_pass_s` is the mean
    untraced pass time of the same run."""

    def tot(names, key="calls"):
        return sum(totals.get(n, {}).get(key, 0) for n in names)

    def ratio(num, den):
        return num / den if den else 0.0

    fns = {layer: [n for n, lay in LAYER_OF.items() if lay == layer] for layer in LAYERS}
    self_s = {layer: tot(fns[layer], "self_s") for layer in LAYERS}
    draws = tot(["generate_noise"], "draws")
    samples = tot(["run"], "samples")
    points = tot(["periodogram"], "points")
    csv_files = ["write_rows", "write_manifest", "read_t0_curve_csv"]
    csv_bytes = tot(csv_files, "bytes")
    per_pass = {
        "noise.calls": tot(fns["noise"]), "noise.draws": draws,
        "noise.self_s": self_s["noise"],
        "trigger.calls": tot(fns["trigger"]), "trigger.samples": samples,
        "trigger.transitions": tot(["run"], "transitions"),
        "trigger.self_s": self_s["trigger"],
        "spectral.calls": tot(fns["spectral"]), "spectral.fft_points": points,
        "spectral.self_s": self_s["spectral"],
        "signals.calls": tot(fns["signals"]), "signals.self_s": self_s["signals"],
        "experiments.self_s": self_s["experiments"],
        "freq_detect.calls": tot(["detect_frequency"]),
        "freq_detect.self_s": self_s["freq_detect"],
        "amp_detect.lt_calls": tot(["last_transition_time"]),
        "amp_detect.lt_self_s": tot(["last_transition_time"], "self_s"),
        "amp_detect.theory_s": tot(["expected_t0_for_config"], "incl_s"),
        "amp_detect.fit_calls": tot(["fit_sigmoid"]),
        "amp_detect.fit_s": (tot(["fit_sigmoid"], "incl_s")
                             + tot(["calibrate_and_estimate_decay"], "self_s")),
        "amp_detect.self_s": self_s["amp_detect"],
        "bank.channel_runs": tot(["run_bank"], "channels"), "bank.self_s": self_s["bank"],
        "csvio.calls": tot(csv_files), "csvio.rows": tot(csv_files, "rows"),
        "csvio.bytes": csv_bytes, "csvio.self_s": self_s["csvio"],
        "cli.commands": tot(["main"]), "cli.self_s": self_s["cli"],
        "glue_s": traced_wall_s - sum(self_s.values()),
    }
    metrics = {name: value / passes for name, value in per_pass.items()}
    metrics.update({
        "noise.ns_per_draw": ratio(1e9 * self_s["noise"], draws),
        "trigger.ns_per_sample": ratio(1e9 * self_s["trigger"], samples),
        "spectral.ns_per_point": ratio(1e9 * self_s["spectral"], points),
        "freq_detect.detected_frac": ratio(tot(["detect_frequency"], "detected"),
                                           tot(["detect_frequency"])),
        "amp_detect.no_transition_frac": ratio(tot(["last_transition_time"], "no_transition"),
                                               tot(["last_transition_time"])),
        "bank.resonating_frac": ratio(tot(["run_bank"], "resonating"),
                                      tot(["run_bank"], "channels")),
        "csvio.mb_per_s": ratio(csv_bytes / 1e6, self_s["csvio"]),
        "trace_overhead_frac": ratio(traced_wall_s / passes, untraced_pass_s) - 1.0,
    })
    metrics.update({f"{layer}.share": ratio(self_s[layer], traced_wall_s) for layer in LAYERS})
    return {name: metrics[name] for name in PER_LAYER}
