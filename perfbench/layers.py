"""Spans recorded from the benchmark's own files, around calls into each
layer's public functions, plus self time per layer and Chrome export.

Nothing in the VM changes: :func:`install` swaps a timing wrapper in for
each layer entry point at the module attribute its caller looks up, and
the returned callable puts the originals back.  Spans are kept per
thread (the serving workers run in their own threads) and written out
once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from typing import Callable, Dict, List, Tuple

#: instants of a name seen more often than this (an OSR fire per call)
#: are left out of the Chrome trace; their counters keep the totals
INSTANT_CAP = 1000
#: above 0 while spans are paused (see :func:`paused`)
_paused = [0]


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return None


class _NoSpans:
    """The untraced recorder: every span is a shared no-op."""

    _span = _NullSpan()

    def span(self, name: str):
        return self._span


NO_SPANS = _NoSpans()


class _Span:
    __slots__ = ("_spans", "_name", "_start")

    def __init__(self, spans: "Spans", name: str):
        self._spans = spans
        self._name = name

    def __enter__(self):
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb):
        end = time.perf_counter_ns()
        self._spans.records.append(
            (self._name, threading.get_ident(), self._start, end))
        return None


class Spans:
    """In-memory span log: ``(name, thread id, start ns, end ns)``.

    A span's layer is its name up to the first dot.  ``list.append`` is
    atomic, so worker threads record without a lock.
    """

    def __init__(self):
        self.records: List[Tuple[str, int, int, int]] = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def totals(self) -> Dict[str, float]:
        """Seconds inside each span name (nested spans counted in full)."""
        out: Dict[str, float] = {}
        for name, _, start, end in self.records:
            out[name] = out.get(name, 0.0) + (end - start) / 1e9
        return out

    def self_time(self) -> Dict[str, float]:
        """Seconds per layer not covered by a child span on the same
        thread: a span's duration minus its children's."""
        out: Dict[str, float] = {}
        by_thread: Dict[int, list] = {}
        for record in self.records:
            by_thread.setdefault(record[1], []).append(record)
        for records in by_thread.values():
            # parents sort before the children they contain
            records.sort(key=lambda r: (r[2], -r[3]))
            stack: List[list] = []  # [layer, end, child ns, own ns]

            def close(entry):
                layer, _, child, own = entry
                out[layer] = out.get(layer, 0.0) + (own - child) / 1e9

            for name, _, start, end in records:
                while stack and stack[-1][1] <= start:
                    close(stack.pop())
                if stack:
                    stack[-1][2] += end - start
                stack.append([name.split(".", 1)[0], end, 0, end - start])
            while stack:
                close(stack.pop())
        return out

    def chrome_events(self) -> List[Dict[str, object]]:
        tids: Dict[int, int] = {threading.main_thread().ident: 1}
        events = []
        for name, ident, start, end in self.records:
            tid = tids.setdefault(ident, len(tids) + 1)
            events.append({
                "name": name, "cat": "perfbench." + name.split(".", 1)[0],
                "ph": "X", "ts": start / 1000.0, "dur": (end - start) / 1000.0,
                "pid": 1, "tid": tid,
            })
        return events


class _Untraced:
    """An untraced run: no spans, engines keep their default telemetry."""

    spans = NO_SPANS

    def telemetry(self):
        return None


UNTRACED = _Untraced()


class Tracing:
    """A traced run: the benchmark's layer spans plus one program
    telemetry per engine (a shared one would merge every engine's
    counters into one registry)."""

    def __init__(self):
        self.spans = Spans()
        self.telemetries = []

    def telemetry(self):
        from repro.obs import Telemetry

        telemetry = Telemetry()
        self.telemetries.append(telemetry)
        return telemetry

    def write_chrome_trace(self, path: str) -> int:
        """One Chrome trace holding the layer spans and the events every
        program telemetry emitted, less instants of a name seen more than
        ``INSTANT_CAP`` times; returns the event count."""
        from repro.obs.export import chrome_events_from_raw

        raw = [e for t in self.telemetries for e in t.tracer.events]
        seen: Dict[str, int] = {}
        for event in raw:
            if event["ph"] == "i":
                seen[event["name"]] = seen.get(event["name"], 0) + 1
        dropped = {n: c for n, c in seen.items() if c > INSTANT_CAP}
        events = self.spans.chrome_events()
        events.extend(chrome_events_from_raw(
            [e for e in raw if e["ph"] != "i" or e["name"] not in dropped]))
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": {"producer": "perfbench",
                                     "instants_left_out": dropped}}, fh)
        return len(events)


@contextlib.contextmanager
def paused():
    """Wrapped entry points record no span inside this block: the
    references computed there belong to no layer."""
    _paused[0] += 1
    try:
        yield
    finally:
        _paused[0] -= 1


def _wrap(spans: Spans, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if _paused[0]:
            return fn(*args, **kwargs)
        with spans.span(name):
            return fn(*args, **kwargs)

    return traced


def install(spans: Spans) -> Callable[[], None]:
    """Wrap every layer entry point the workloads reach; returns the
    function that restores the originals."""
    import repro.core.instrument as instrument
    import repro.mcvm.feval as feval
    import repro.mcvm.vm as mcvm
    import repro.serve.diskcache as diskcache
    import repro.serve.server as server
    import repro.spec.deopt as deopt
    import repro.vm.background as background
    import repro.vm.engine as engine
    import repro.vm.jit as jit

    targets = [
        (engine, "decode_function", "decode"),
        (jit, "codegen_function", "jit.codegen"),
        (background, "codegen_function", "jit.codegen"),
        # the feval optimizer's open-OSR insertion (it builds its own
        # open stub rather than calling insert_open_osr_point)
        (mcvm, "insert_feval_osr_point", "core.insert"),
        (instrument, "generate_continuation", "core.continuation"),
        (feval, "generate_continuation", "core.continuation"),
        (deopt, "generate_continuation", "core.continuation"),
        (mcvm.McVM, "run", "mcvm.run"),
        # not ExecutionEngine.call: the decoded tier calls it per IR call
        (engine.ExecutionEngine, "run", "engine.run"),
        (server.VMServer, "submit", "serve.submit"),
        (server.VMServer, "_execute", "serve.execute"),
        (server.PendingRequest, "result", "serve.result"),
        (diskcache.DiskCodeCache, "load", "diskcache.load"),
        (diskcache.DiskCodeCache, "store", "diskcache.store"),
    ]
    saved = []
    for owner, attr, name in targets:
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, _wrap(spans, name, original))

    def restore() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore
