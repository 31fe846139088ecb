"""Span recording for the traced benchmark run.

The traced run wraps the program's public functions from the
benchmark's own files — nothing under ``src/`` gains a span.
``Tracer.wrap`` swaps an attribute for a recording wrapper and
``Tracer.uninstall`` puts the originals back.  Spans (id, name, start,
end, parent) stay in memory and are written as JSON when the run ends.

Wrappers run in the benchmark process only: calls made inside worker
processes are invisible, which is why simulation phase 1 and the CV
folds are timed at the parent's fan-out call.
"""

from __future__ import annotations

import functools
import pickle
from collections import defaultdict
from time import perf_counter

#: Span of the benchmark's own byte-counting probes.  Its time is taken
#: out of every enclosing span so that layer times exclude the probe.
PROBE = "bench.probe"
ROOT = "bench.workload"


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "attrs")

    def __init__(self, span_id: int, name: str, parent: int | None, start: float) -> None:
        self.id = span_id
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            **({"attrs": self.attrs} if self.attrs else {}),
        }


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    @property
    def active(self) -> bool:
        """True while a span is open (the workload span, at the root)."""
        return bool(self._stack)

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def span(self, name: str):
        """Context manager for a span around the benchmark's own calls."""
        return _SpanContext(self, name)

    # -- patching -------------------------------------------------------
    def wrap(self, owner, attr: str, name, on_return=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        Calls record a span only inside an open span, so the output
        checks that follow the timed section stay untraced.

        ``name`` is a span name or ``callable(args, kwargs) -> name``;
        ``on_return(span, args, kwargs, result)`` may attach attributes.
        """
        raw = owner.__dict__[attr]
        static = isinstance(raw, staticmethod)
        fn = raw.__func__ if static else raw
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:  # outside the workload span: the checks
                return fn(*args, **kwargs)
            span = tracer.open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if on_return is not None:
                on_return(span, args, kwargs, result)
            return result

        self.patch(owner, attr, staticmethod(wrapper) if static else wrapper)

    def patch(self, owner, attr: str, replacement) -> None:
        """Replace ``owner.attr`` until :meth:`uninstall`."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def to_json(self) -> list[dict]:
        return [span.to_json() for span in self.spans]


class _SpanContext:
    __slots__ = ("_tracer", "_name", "_span")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> Span:
        self._span = self._tracer.open(self._name)
        return self._span

    def __exit__(self, *exc) -> None:
        self._tracer.close(self._span)


def set_attr(span: Span, key: str, value) -> None:
    if span.attrs is None:
        span.attrs = {}
    span.attrs[key] = value


class FallbackCounter:
    """Counts process pools that fell back to serial execution.

    ``ProcessExecutor.map`` re-runs its tasks through ``SerialExecutor``
    when a pool cannot start; a serial map entered while a process map
    is active is that fallback.  Installed in every run, traced or not,
    because an ``n_jobs=2`` figure only counts when this stays 0.
    """

    def __init__(self) -> None:
        self.count = 0
        self._depth = 0
        self._patches: list[tuple[type, str, object]] = []

    def install(self) -> None:
        from repro.parallel.executor import ProcessExecutor, SerialExecutor

        process_map = ProcessExecutor.__dict__["map"]
        serial_map = SerialExecutor.__dict__["map"]
        counter = self

        @functools.wraps(process_map)
        def tracked_process_map(executor, fn, tasks):
            counter._depth += 1
            try:
                return process_map(executor, fn, tasks)
            finally:
                counter._depth -= 1

        @functools.wraps(serial_map)
        def tracked_serial_map(executor, fn, tasks):
            if counter._depth:
                counter.count += 1
            return serial_map(executor, fn, tasks)

        self._patches = [
            (ProcessExecutor, "map", process_map),
            (SerialExecutor, "map", serial_map),
        ]
        ProcessExecutor.map = tracked_process_map
        SerialExecutor.map = tracked_serial_map

    def uninstall(self) -> None:
        for owner, attr, raw in self._patches:
            setattr(owner, attr, raw)
        self._patches = []


def pickled_size(obj) -> int:
    return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


# -- analysis ------------------------------------------------------------
def probe_free_durations(spans: list[Span]) -> list[float]:
    """Each span's duration minus the probe time nested anywhere inside."""
    durations = [span.duration for span in spans]
    for span in spans:
        if span.name != PROBE:
            continue
        parent = span.parent
        while parent is not None:
            durations[parent] -= span.duration
            parent = spans[parent].parent
    return durations


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Children of one span never overlap (one thread), so this is the
    part of the span that no child covers.
    """
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.duration
    return own


def aggregate(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total (probe-free) seconds and self seconds."""
    totals = probe_free_durations(spans)
    selves = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for span, total, own in zip(spans, totals, selves):
        entry = out[span.name]
        entry["calls"] += 1
        entry["total_s"] += total
        entry["self_s"] += own
    return dict(out)
