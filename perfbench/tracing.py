"""Bench-side layer tracing for ``run.py --trace 1``.

The program has no spans of its own yet, so this module wraps the
public entry points of each layer from the outside: it replaces the
class and module attributes in :data:`ENTRY_POINTS` with timing
wrappers while a traced window runs, and puts the originals back
afterwards.  Untraced runs never install it.

Every operation the benchmark times (one run, one replayed log, one
analysed workload) becomes a root span.  Coarse entry points (one call
per operation, such as ``Simulator.run``) are kept as child spans one by
one.  Hot entry points (one call per simulated access or per sample,
such as ``TsxEngine.on_access``) are only counted: their calls and
nanoseconds are added to the enclosing operation's span.  A layer's
self time is its wrapped time minus the wrapped time of everything
nested inside it; what no wrapper covers is charged to ``other``.
Spans stay in memory until :meth:`LayerTracer.write_chrome`.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import Any

#: (entry, layer, module, class or None for a module function,
#: attribute, hot).  Hot entry points run once per simulated access or
#: per sample; their calls are aggregated instead of kept one by one.
ENTRY_POINTS: tuple[tuple[str, str, str, str | None, str, bool], ...] = (
    ("sim.run", "sim", "repro.sim.engine", "Simulator", "run", False),
    ("htm.on_access", "htm", "repro.htm.tsx", "TsxEngine", "on_access", True),
    ("htm.track", "htm", "repro.htm.tsx", "TsxEngine", "track_read", True),
    ("htm.track", "htm", "repro.htm.tsx", "TsxEngine", "track_write", True),
    ("pmu.add", "pmu", "repro.pmu.counters", "CounterBank", "add", True),
    ("core.on_sample", "core", "repro.core.profiler", "TxSampler",
     "on_sample", True),
    ("core.build_profile", "core", "repro.core.profiler", "TxSampler",
     "build_profile", False),
    ("replay.record", "replay.write", "repro.replay.recorder",
     "ObservationRecorder", "record", True),
    ("replay.finalize", "replay.write", "repro.replay.recorder",
     "ObservationRecorder", "finalize", False),
    ("replay.finalize", "replay.write", "repro.replay.log", "ReplayWriter",
     "dumps", False),
    ("replay.parse", "replay.read", "repro.replay.log", None,
     "loads_replay", False),
    # the worker imported profile_to_dict by name, so both bindings
    # are wrapped
    ("export", "export", "repro.core.export", None, "profile_to_dict", False),
    ("export", "export", "repro.campaign.worker", None, "profile_to_dict",
     False),
    ("analysis.ir", "analysis.ir", "repro.analysis.lint", None,
     "extract_workload", False),
    ("analysis.summarize", "analysis.summarize", "repro.analysis.lint", None,
     "summarize", False),
    ("analysis.lint", "analysis.lint", "repro.analysis.lint", None,
     "lint_summary", False),
    ("analysis.races", "analysis.races", "repro.analysis.races", None,
     "analyze_races", False),
    ("analysis.dataflow", "analysis.dataflow", "repro.analysis.dataflow",
     None, "analyze_dataflow", False),
    ("analysis.dataflow", "analysis.dataflow", "repro.analysis.dataflow",
     None, "attach_witnesses", False),
    ("analysis.predict", "analysis.predict", "repro.analysis.predict", None,
     "predict_workload", False),
)

#: every layer a share is reported for, in report order; ``other`` is
#: operation time no wrapper covers (harness and glue code)
LAYERS = (
    "sim", "htm", "pmu", "core", "replay.write", "replay.read", "export",
    "htmbench", "analysis.ir", "analysis.summarize", "analysis.lint",
    "analysis.races", "analysis.dataflow", "analysis.predict", "other",
)


class LayerTracer:
    """Wraps the layer entry points and accumulates spans and totals."""

    def __init__(self) -> None:
        #: entry -> [calls, total ns, self ns]
        self.totals: dict[str, list[int]] = {}
        self.layer_of: dict[str, str] = {}
        self.hot: set[str] = set()
        #: summed wall time of all operation spans, and the part of it
        #: no wrapper covers
        self.op_ns = 0
        self.op_self_ns = 0
        self.ops = 0
        #: (name, category, start ns, duration ns, parent, request id, args)
        self._spans: list[tuple[str, str, int, int, str | None, str,
                                dict[str, Any] | None]] = []
        #: open frames: [ns covered by wrapped children, span name]
        self._stack: list[list[Any]] = []
        self._rid = ""
        self._saved: list[tuple[Any, str, Any]] = []
        self._t0 = time.perf_counter_ns()

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        for entry, layer, module, owner, attr, hot in ENTRY_POINTS:
            target = importlib.import_module(module)
            if owner is not None:
                target = getattr(target, owner)
            self._patch(target, attr, entry, layer, hot)
        from repro.htmbench.base import WORKLOADS, Workload

        # a program may inherit build() from an unregistered helper class
        owners = {k for cls in WORKLOADS.values() for k in cls.__mro__
                  if "build" in vars(k) and k is not Workload}
        for owner in sorted(owners, key=lambda k: k.__qualname__):
            self._patch(owner, "build", "htmbench.build", "htmbench", False)

    def uninstall(self) -> None:
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)

    def _patch(self, target: Any, attr: str, entry: str, layer: str,
               hot: bool) -> None:
        original = (vars(target)[attr] if isinstance(target, type)
                    else getattr(target, attr))
        self._saved.append((target, attr, original))
        self.layer_of[entry] = layer
        if hot:
            self.hot.add(entry)
        setattr(target, attr, self._wrap(original, entry, hot))

    def _wrap(self, fn: Callable, entry: str, hot: bool) -> Callable:
        rec = self.totals.setdefault(entry, [0, 0, 0])
        stack = self._stack
        spans = self._spans
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = [0, entry]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - start
                stack.pop()
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if not hot:
                    spans.append((entry, tracer.layer_of[entry], start, dt,
                                  stack[-1][1] if stack else None,
                                  tracer._rid, None))

        return traced

    # ---------------------------------------------------------------- spans

    @contextmanager
    def op(self, name: str, rid: str) -> Iterator[None]:
        """One timed operation: a root span with request id ``rid``;
        the hot calls made inside it are attached to it as totals."""
        before = {e: (r[0], r[1]) for e, r in self.totals.items()
                  if e in self.hot}
        frame = [0, name]
        self._stack.append(frame)
        self._rid = rid
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            dt = time.perf_counter_ns() - start
            self._stack.pop()
            self.op_ns += dt
            self.op_self_ns += dt - frame[0]
            self.ops += 1
            hot = {}
            for entry, (calls, ns) in before.items():
                rec = self.totals[entry]
                if rec[0] != calls:
                    hot[entry] = {"calls": rec[0] - calls,
                                  "ns": rec[1] - ns}
            self._spans.append((name, "op", start, dt, None, rid, hot))

    # -------------------------------------------------------------- reports

    def layer_self_ns(self) -> dict[str, int]:
        """Self time per layer, with ``other`` the uncovered op time."""
        out = dict.fromkeys(LAYERS, 0)
        for entry, (_, _, self_ns) in self.totals.items():
            out[self.layer_of[entry]] += self_ns
        out["other"] = self.op_self_ns
        return out

    def table(self) -> dict[str, Any]:
        """The per-layer table: shares of operation time per layer and
        call counts and costs per entry point."""
        op_ns = self.op_ns or 1
        layers = {
            layer: {"self_ms": ns / 1e6, "self_pct": 100.0 * ns / op_ns}
            for layer, ns in self.layer_self_ns().items()
        }
        entries = {}
        for entry, (calls, total, self_ns) in sorted(self.totals.items()):
            if not calls:
                continue
            entries[entry] = {
                "layer": self.layer_of[entry],
                "calls": calls,
                "total_ms": total / 1e6,
                "self_ms": self_ns / 1e6,
                "ns_per_call": total / calls,
            }
        return {"ops": self.ops, "op_ms": self.op_ns / 1e6,
                "layers": layers, "entries": entries}

    def write_chrome(self, path: Path) -> None:
        """Write every span as a Chrome trace (``chrome://tracing``)."""
        spans = []
        for name, cat, start, dt, parent, rid, extra in self._spans:
            args: dict[str, Any] = {"request_id": rid}
            if parent is not None:
                args["parent"] = parent
            if extra:
                args["hot_calls"] = extra
            spans.append(span_event(name, cat, (start - self._t0) / 1e3,
                                    dt / 1e3, args))
        write_chrome(path, spans)


def span_event(name: str, cat: str, ts_us: float, dur_us: float,
               args: dict[str, Any]) -> dict[str, Any]:
    """One complete ("X") Chrome trace event."""
    return {"name": name, "cat": cat, "ph": "X", "pid": os.getpid(),
            "tid": 0, "ts": ts_us, "dur": dur_us, "args": args}


def write_chrome(path: Path, spans: list[dict[str, Any]]) -> None:
    events: list[dict[str, Any]] = [{
        "ph": "M", "name": "process_name", "pid": os.getpid(), "tid": 0,
        "args": {"name": "perfbench"},
    }]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events + spans,
                                "displayTimeUnit": "ms"}))
