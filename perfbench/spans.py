"""Per-layer tracing of one CLI operation, applied from outside the package.

`install` replaces each public function in `WRAPPED` by a wrapper that
records a span (name, start, end, parent) in memory. The wrapper is bound
under every name the package binds the original to: `cli` imports `evolve`,
`lqfi` and others by name, so patching only the defining module would miss
every call made from the CLI. A name that no longer exists is reported as
absent, and its metrics are left out rather than failing the run.

`layer_metrics` turns the spans of one operation into per-layer numbers.
Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

# (module, function) pairs; a span is named "<module>.<function>".
WRAPPED = [
    ("cli", "main"),
    ("cli", "parse_config_file"),
    ("cli", "scenario_from_entries"),
    ("cli", "scenario_rows"),
    ("cli", "write_csv"),
    ("cli", "detect_events"),
    ("cli", "run_validate"),
    ("dynamics", "evolve"),
    ("dynamics", "analytic_state"),
    ("dynamics", "steady_state_limit"),
    ("dynamics", "lindblad_rhs"),
    ("dynamics", "record_from_state"),
    ("measures", "evaluate_measures"),
    ("measures", "lqfi"),
    ("measures", "concurrence_x"),
    ("measures", "l1_coherence"),
    ("measures", "concurrence_generic"),
    ("measures", "lqfi_bruteforce"),
    ("model", "hamiltonian_block"),
    ("model", "jump_operators"),
    ("plotting", "read_csv"),
    ("plotting", "emit_plot"),
]

LAYERS = ("cli", "dynamics", "measures", "model", "plotting")


def _argument(fn, args, kwargs, name):
    try:
        return inspect.signature(fn).bind(*args, **kwargs).arguments.get(name)
    except TypeError:
        return None


def _count_evolve(fn, args, kwargs, result, counts):
    cfg = _argument(fn, args, kwargs, "cfg")
    if cfg is not None:
        counts["dynamics.evolve.steps"] += round(cfg.t_max / cfg.dt)
    # a list of (t, rho) samples, or a (times, states) pair of arrays
    times = result[0] if isinstance(result, tuple) and hasattr(result[0], "shape") else result
    counts["dynamics.evolve.samples"] += len(times)


def _count_file(argument, counter):
    def count(fn, args, kwargs, result, counts):
        path = _argument(fn, args, kwargs, argument)
        if path is not None and os.path.exists(path):
            counts[counter] += os.path.getsize(path)
    return count


# wrapped name -> (the counts it keeps, the function that updates them)
COUNTERS = {
    "dynamics.evolve": (("dynamics.evolve.steps", "dynamics.evolve.samples"), _count_evolve),
    "cli.write_csv": (("cli.write_csv.bytes",), _count_file("path", "cli.write_csv.bytes")),
    "plotting.emit_plot": (("plotting.svg_bytes",), _count_file("out_path", "plotting.svg_bytes")),
}


class Tracer:
    """Spans of one operation, kept in memory until `dump`."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []

    def wrap(self, name, fn):
        keys, counter = COUNTERS.get(name, ((), None))
        self.counts.update(dict.fromkeys(keys, 0))
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                counter(fn, args, kwargs, result, self.counts)
            return result

        return wrapper

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "absent": self.absent}


def install() -> Tracer:
    """Wrap every function in WRAPPED wherever the loaded package binds it."""
    tracer = Tracer()
    package = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "spinchain" or n.startswith("spinchain."))]
    for module_name, attr in WRAPPED:
        name = f"{module_name}.{attr}"
        home = sys.modules.get(f"spinchain.{module_name}")
        original = getattr(home, attr, None) if home is not None else None
        if not callable(original):
            tracer.absent.append(name)
            continue
        wrapper = tracer.wrap(name, original)
        for module in package:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    return tracer


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced operation.

    For each wrapped name: `.calls`, `.busy_s` (time inside its spans) and
    `.self_s` (busy time minus child spans). For each layer (module):
    `layer.<m>.self_s`, and `layer.<m>.busy_s` counting only spans whose
    parent is in another layer. Absent names produce no metrics.
    """
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start

    out: dict[str, float] = {}
    for module_name, attr in WRAPPED:
        name = f"{module_name}.{attr}"
        if name not in trace["absent"]:
            out[f"{name}.calls"] = 0
            out[f"{name}.busy_s"] = 0.0
            out[f"{name}.self_s"] = 0.0
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = 0.0
        out[f"layer.{layer}.busy_s"] = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        layer = name.split(".", 1)[0]
        duration = end - start
        out[f"{name}.calls"] += 1
        out[f"{name}.busy_s"] += duration
        out[f"{name}.self_s"] += duration - child_time[i]
        out[f"layer.{layer}.self_s"] += duration - child_time[i]
        if parent < 0 or spans[parent][0].split(".", 1)[0] != layer:
            out[f"layer.{layer}.busy_s"] += duration
    out.update(trace["counts"])

    derived = {
        "dynamics.evolve.us_per_step": ("dynamics.evolve.busy_s", "dynamics.evolve.steps"),
        "measures.evaluate_measures.us_per_call": ("measures.evaluate_measures.busy_s",
                                                   "measures.evaluate_measures.calls"),
    }
    for key, (busy, count) in derived.items():
        if busy in out and out.get(count):
            out[key] = 1e6 * out[busy] / out[count]
    config = [out[k] for k in ("cli.parse_config_file.busy_s", "cli.scenario_from_entries.busy_s")
              if k in out]
    if config:
        out["cli.config_s"] = sum(config)
    if "dynamics.record_from_state.busy_s" in out:
        out["per_sample.busy_s"] = out["layer.measures.busy_s"] + out["dynamics.record_from_state.busy_s"]
    out["trace.spans"] = len(spans)
    return out
