"""Per-layer attribution from outside the program.

The traced load process wraps public calls of the program's modules in
spans (:meth:`Tracer.install`) and restores every patched binding on
exit (:meth:`Tracer.restore`); the untraced process patches nothing.  A
span records name, start, end, parent span, operation id and thread,
and is kept in memory until :meth:`Tracer.write_chrome_trace`.

A layer's self time is its spans' duration minus their child spans.
Self times partition the thread that runs the operation: the root span
``op`` (the whole timed call) is the only unnamed layer, so its self
time is the ``unattributed`` share.  Spans opened on other threads
(fleet executor threads polling remote workers) overlap the operation
thread's wait and are reported but left out of that partition.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from urllib.parse import urlsplit

ROOT = "op"


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "tid", "args")

    def __init__(self, name, parent, op, tid):
        self.name = name
        self.parent = parent
        self.op = op
        self.tid = tid
        self.start = self.end = 0.0
        self.args = None


def _http_route(args, kwargs) -> str:
    url = kwargs.get("url", args[1] if len(args) > 1 else "")
    parts = urlsplit(url).path.strip("/").split("/")
    return parts[0] or "root"


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore = []

    # -- spans -------------------------------------------------------------
    def _open(self, name):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = Span(name, stack[-1] if stack else -1, self.op, threading.get_ident())
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        span.start = time.perf_counter()
        return span, stack

    def wrap(self, name, fn, annotate=None):
        """``fn`` inside a span; ``annotate(args, kwargs, result)`` -> span args.

        ``name`` may be a callable of ``(args, kwargs)`` for spans named
        by their input (HTTP routes).
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            span, stack = tracer._open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if annotate is not None:
                span.args = annotate(args, kwargs, result)
            return result

        return traced

    def run_op(self, index, fn, *args):
        """``fn(*args)`` as operation ``index``, under the root span."""
        self.op = index
        try:
            return self.wrap(ROOT, fn)(*args)
        finally:
            self.op = None

    # -- patching ----------------------------------------------------------
    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            self._restore.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._restore.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def patch_function(self, function, name, annotate=None):
        """Wrap ``function`` in every ``repro`` module that binds it."""
        wrapper = self.wrap(name, function, annotate)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is function:
                    self._set(module, key, wrapper)

    def patch_method(self, cls, attr, name, annotate=None):
        self._set(cls, attr, self.wrap(name, cls.__dict__[attr], annotate))

    def install(self, workload: str) -> None:
        """Wrap the layer boundaries that the workload's operations cross."""
        from repro.analysis import cachesweep, report
        from repro.core.memo import MemoCache
        from repro.core.runner import ConfigSweep, ExperimentRunner
        from repro.sim import batch
        from repro.sim.artifact import TraceArtifact, TraceStore
        from repro.workloads.tensorflow import network

        for key, builder in list(cachesweep.WORKLOADS.items()):
            self._set(
                cachesweep.WORKLOADS, key,
                self.wrap("workloads.trace_build", builder,
                          lambda a, k, r: {"accesses": len(r)}),
            )
        self.patch_method(
            TraceStore, "get_or_build", "sim.artifact.get_or_build",
            lambda a, k, r: {"bytes": r.path.stat().st_size if r.path else 0},
        )
        self._set(
            TraceArtifact, "load",
            classmethod(self.wrap("sim.artifact.load",
                                  TraceArtifact.__dict__["load"].__func__)),
        )
        self.patch_function(
            batch.sweep_batch, "sim.batch.sweep",
            lambda a, k, r: {"maccesses": len(a[0]) * len(a[1]) / 1e6},
        )
        self.patch_method(ConfigSweep, "evaluate", "core.runner.config_sweep")
        self.patch_method(ExperimentRunner, "evaluate", "core.runner.targets")
        caches = [MemoCache]
        if workload == "sweep_fleet":
            from repro.fleet import wire
            from repro.fleet.cache import RemoteMemoCache

            caches.append(RemoteMemoCache)
            self.patch_function(
                wire.http_json,
                lambda a, k: "fleet.http." + _http_route(a, k),
                lambda a, k, r: {"status": r[0]},
            )
        for cls in caches:
            self.patch_method(
                cls, "get", "core.memo.get",
                lambda a, k, r: {"hit": r is not None},
            )
            self.patch_method(cls, "put", "core.memo.put")
            self.patch_method(cls, "flush", "core.memo.flush")
        self.patch_function(network.network_functions, "workloads.network_functions")
        self.patch_function(cachesweep.run_sweep, "analysis.run_sweep")
        self._set(
            vars(report), "EXPERIMENTS",
            tuple(self.wrap("analysis." + fn.__name__, fn)
                  for fn in report.EXPERIMENTS),
        )

    def restore(self) -> None:
        while self._restore:
            owner, key, value = self._restore.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    # -- analysis ----------------------------------------------------------
    def self_times(self):
        """Each span's duration minus its children's, by span index."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        return [
            (s.end - s.start) - child[i] for i, s in enumerate(self.spans)
        ]

    def layer_table(self):
        """``{layer: self seconds}`` over every op, plus the op total.

        Only spans on the thread that ran their operation enter the
        table; the root span's self time is reported as
        ``unattributed``.
        """
        own = self.self_times()
        roots = {
            s.op: s.tid for s in self.spans if s.name == ROOT and s.parent < 0
        }
        table = defaultdict(float)
        total = 0.0
        for span, self_s in zip(self.spans, own):
            if roots.get(span.op) != span.tid:
                continue
            if span.name == ROOT:
                table["unattributed"] += self_s
                total += span.end - span.start
            else:
                table[span.name] += self_s
        return dict(table), total

    def write_chrome_trace(self, path) -> None:
        """Every span as a Chrome-trace (chrome://tracing) complete event."""
        t0 = min((s.start for s in self.spans), default=0.0)
        events = [
            {
                "name": s.name,
                "ph": "X",
                "ts": (s.start - t0) * 1e6,
                "dur": (s.end - s.start) * 1e6,
                "pid": 1,
                "tid": s.tid,
                "args": dict(s.args or {}, op=s.op, span=i, parent=s.parent),
            }
            for i, s in enumerate(self.spans)
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
