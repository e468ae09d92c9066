"""Spans around the program's public functions, installed from outside.

:class:`Tracer` replaces module attributes of ``eventstates`` (and every
module that imported the same object by name) with thin wrappers that
record a span per call: name, start, end, parent span and operation id.
Spans stay in memory; :meth:`Tracer.dump` writes them out at the end.
``layer_stats`` turns spans into the per-layer figures the benchmark
reports.  Nothing in the program is edited.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
import tracemalloc

# (module, attribute, options).  Options: "mem" records the tracemalloc peak
# inside the call when the tracer runs in memory mode, "bytes" the length of
# the returned text, "nfev" the objective evaluations of a scipy result.
# Targets without a per-layer metric (build_event_state, load_scenario,
# EventTiming, chebyshev_check, load_json_file) are wrapped so that their
# time is not counted as the caller's self time or as uncovered.
TARGETS = [
    ("cli", "main", ()),
    ("scenario", "scenario_from_json", ()),
    ("scenario", "load_scenario", ()),
    ("quantum_core", "validate_density", ()),
    ("quantum_core", "MeasurementModel", ()),
    ("event_states", "EventScenario", ()),
    ("event_states", "EventState", ()),
    ("event_states", "EventTiming", ()),
    ("event_states", "conditional_decomposition", ()),
    ("event_states", "build_event_state", ()),
    ("event_states", "build_sl_instant", ()),
    ("event_states", "build_tl_instant", ()),
    ("event_states", "build_sl_fuzzy", ()),
    ("event_states", "build_tl_fuzzy", ("mem",)),
    ("event_states", "build_timed_state", ("mem",)),
    ("event_states", "trace_out_timers", ()),
    ("event_states", "timer_distribution", ()),
    ("timing", "exponential_profile", ()),
    ("timing", "exponential_conditional", ("mem",)),
    ("timing", "joint_time_distribution", ()),
    ("timing", "continuum_limit_check", ()),
    ("witnesses", "coherence_witness", ()),
    ("witnesses", "time_witness", ()),
    ("witnesses", "chebyshev_check", ()),
    ("inference", "classical_correlation", ()),
    ("inference", "find_deterministic_basis", ()),
    ("inference", "minimize", ("nfev",)),
    ("inference", "predict_future_outcome", ()),
    ("inference", "determinism_check", ()),
    ("bell", "chsh_scenarios", ()),
    ("bell", "chsh_value", ()),
    ("serialize", "state_to_json", ()),
    ("serialize", "canonical_dumps", ("bytes",)),
    ("serialize", "state_from_json", ()),
    ("serialize", "load_json_file", ()),
]
# The jsonschema call scenario_from_json makes, reported under the scenario layer.
SCHEMA_SPAN = "scenario.schema_validate"


class Tracer:
    """Records spans for one process; install, run operations, uninstall."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, extra]
        self._stack: list[int] = []
        self.op = None
        self.memory = False
        self._patches: list[tuple] = []  # (owner, attribute, original, wrapper)

    # ------------------------------------------------------------ wrapping

    def _wrap(self, name: str, fn, options=()):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        want_mem, want_bytes, want_nfev = "mem" in options, "bytes" in options, "nfev" in options

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else None
            span = [name, clock(), None, parent, self.op, None]
            spans.append(span)
            stack.append(index)
            tracing_mem = want_mem and self.memory and not tracemalloc.is_tracing()
            if tracing_mem:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if tracing_mem:
                    span[5] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if want_bytes:
                span[5] = len(result)
            elif want_nfev:
                span[5] = int(getattr(result, "nfev", 0))
            return result

        traced.__wrapped__ = fn
        return traced

    def prepare(self) -> None:
        """Find every place eventstates modules hold a reference to a target."""
        import jsonschema

        package = importlib.import_module("eventstates")
        modules = [package] + [
            mod for key, mod in sorted(sys.modules.items()) if key.startswith("eventstates.") and mod
        ]
        for module_name, attr, options in TARGETS:
            home = importlib.import_module(f"eventstates.{module_name}")
            original = getattr(home, attr)
            name = f"{module_name}.{attr}"
            if isinstance(original, type):
                # Classes are shared objects: wrap the constructor once.
                init = original.__init__
                self._patches.append((original, "__init__", init, self._wrap(name, init, options)))
                continue
            wrapper = self._wrap(name, original, options)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original, wrapper))
        self._patches.append(
            (jsonschema, "validate", jsonschema.validate, self._wrap(SCHEMA_SPAN, jsonschema.validate))
        )

    def install(self) -> None:
        if not self._patches:
            self.prepare()
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in self._patches:
            setattr(owner, attr, original)

    # ------------------------------------------------------------- output

    def add_span(self, name: str, start: float, end: float, op, parent=None, extra=None) -> int:
        self.spans.append([name, start, end, parent, op, extra])
        return len(self.spans) - 1

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load_spans(path: str) -> list[list]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ------------------------------------------------------------------ stats

# Per-layer metrics: (metric name, span name, statistic, unit).
SELF_TIMED = [
    "cli.main",
    "scenario.scenario_from_json",
    SCHEMA_SPAN,
    "quantum_core.validate_density",
    "quantum_core.MeasurementModel",
    "event_states.EventScenario",
    "event_states.EventState",
    "event_states.conditional_decomposition",
    "event_states.build_sl_instant",
    "event_states.build_tl_instant",
    "event_states.build_sl_fuzzy",
    "event_states.build_tl_fuzzy",
    "event_states.build_timed_state",
    "event_states.trace_out_timers",
    "event_states.timer_distribution",
    "timing.exponential_profile",
    "timing.exponential_conditional",
    "timing.joint_time_distribution",
    "timing.continuum_limit_check",
    "witnesses.coherence_witness",
    "witnesses.time_witness",
    "inference.classical_correlation",
    "inference.find_deterministic_basis",
    "inference.predict_future_outcome",
    "inference.determinism_check",
    "bell.chsh_scenarios",
    "bell.chsh_value",
    "serialize.state_to_json",
    "serialize.canonical_dumps",
    "serialize.state_from_json",
]
CALLS = [SCHEMA_SPAN, "quantum_core.validate_density", "event_states.EventState", "inference.minimize"]
PEAKS = ["event_states.build_tl_fuzzy", "event_states.build_timed_state", "timing.exponential_conditional"]
PER_OP_EXTRA = {"inference.minimize": ("nfev", "count"), "serialize.canonical_dumps": ("bytes", "bytes")}


def metric_specs() -> list[tuple[str, str, str, str]]:
    """(metric, span, statistic, unit) for every span-derived per-layer metric."""
    specs = [(f"{name}.self_s", name, "self", "s") for name in SELF_TIMED]
    specs += [(f"{name}.calls", name, "calls", "count") for name in CALLS]
    specs += [(f"{name}.peak_alloc_mb", name, "peak", "MB") for name in PEAKS]
    specs += [(f"{name}.{stat}", name, stat, unit) for name, (stat, unit) in PER_OP_EXTRA.items()]
    return specs


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    out = [s[2] - s[1] for s in spans]
    for span in spans:
        if span[3] is not None:
            out[span[3]] -= span[2] - span[1]
    return out


def layer_stats(spans: list[list], ops: list) -> dict[str, float | None]:
    """Per-layer figures over the given operation ids; None where a span never ran.

    Self time is the median per call; calls, nfev and bytes are medians per
    operation; peaks are medians per call of the tracemalloc peak, in MB.
    """
    selfs = self_times(spans)
    wanted = set(ops)
    by_name: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        if span[4] in wanted:
            by_name.setdefault(span[0], []).append(index)
    out: dict[str, float | None] = {}
    for metric, name, stat, _unit in metric_specs():
        idx = by_name.get(name, [])
        if not idx:
            out[metric] = None
        elif stat == "self":
            out[metric] = statistics.median(selfs[i] for i in idx)
        elif stat == "peak":
            peaks = [spans[i][5] for i in idx if spans[i][5] is not None]
            out[metric] = statistics.median(peaks) / 2**20 if peaks else None
        else:
            per_op = {op: 0 for op in ops}
            for i in idx:
                per_op[spans[i][4]] += 1 if stat == "calls" else spans[i][5]
            out[metric] = statistics.median(per_op.values())
    return out


def uncovered_share(spans: list[list], op_windows: dict) -> float:
    """Median over operations of the share of wall time no top-level span covers."""
    covered = {op: 0.0 for op in op_windows}
    for span in spans:
        if span[3] is None and span[4] in covered:
            covered[span[4]] += span[2] - span[1]
    shares = [1.0 - covered[op] / (end - start) for op, (start, end) in op_windows.items()]
    return statistics.median(shares)
