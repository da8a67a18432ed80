"""Outside-in span tracing for the end-to-end benchmark.

The program under test is not edited: hooks installed from this file wrap
instance methods, class methods and module functions, and every call to a
wrapped attribute records one span in memory:
``[name, start, end, parent, trace]``.  ``parent`` is the index of the
enclosing span in the same thread's list (-1 for a root) and ``trace`` is
the benchmark operation (iteration, request, match or replay) that was
current when the span started.  Spans are kept per thread and written out
once, when the run ends.

A span's self time is its duration minus the union of the intervals its
child spans cover, so the self times of one thread's spans add up to the
wall time of its root spans.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

__all__ = ["Tracer", "covered_length", "self_times"]


def covered_length(intervals, start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: list[list]) -> list[float]:
    """Self time of every span of one thread, in list order."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [end - start - covered_length(children.get(i, ()), start, end)
            for i, (_, start, end, _, _) in enumerate(spans)]


class Tracer:
    """Span recorder plus the attribute hooks that feed it.

    Every :meth:`hook` and :meth:`count` patch is recorded and undone by
    :meth:`restore`, which puts back the exact attribute that was there:
    an instance or class that did not own the attribute gets it deleted
    again, so lookups fall through to the class or base as before.
    """

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._local = threading.local()
        self._threads: list[list[list]] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, bool, object]] = []
        self.counts: dict[str, int] = {}
        self.trace_id = 0

    # ------------------------------------------------------------- recording

    def _state(self) -> tuple[list, list]:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], [])
            with self._lock:
                self._threads.append(state[0])
        return state

    def _open(self, name: str) -> list:
        spans, stack = self._state()
        record = [name, self._clock(), 0.0, stack[-1] if stack else -1,
                  self.trace_id]
        stack.append(len(spans))
        spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[2] = self._clock()
        self._state()[1].pop()

    @contextmanager
    def span(self, name: str):
        """Record the ``with`` block as one span called ``name``."""
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def next_trace(self) -> int:
        """Start a new operation: later spans carry the next trace id."""
        self.trace_id += 1
        return self.trace_id

    # ----------------------------------------------------------------- hooks

    def _patch(self, owner, attr: str, replacement) -> None:
        own = vars(owner)
        self._patches.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, replacement)

    def hook(self, owner, attr: str, name: str) -> None:
        """Wrap ``owner.attr`` so each call records a span called ``name``.

        ``owner`` may be an instance (the bound method is wrapped and
        stored on the instance), a class (the function is wrapped and
        binds as before) or a module.
        """
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(record)

        self._patch(owner, attr, traced)

    def count(self, owner, attr: str, name: str) -> None:
        """Wrap ``owner.attr`` with a call counter (no span): ``counts[name]``."""
        fn = getattr(owner, attr)
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        self._patch(owner, attr, counted)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, owned, original = self._patches.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # --------------------------------------------------------------- reading

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``self_s`` and ``total_s`` over all threads."""
        out: dict[str, dict[str, float]] = {}
        with self._lock:
            threads = list(self._threads)
        for spans in threads:
            for span, own in zip(spans, self_times(spans)):
                row = out.setdefault(span[0], {"calls": 0, "self_s": 0.0,
                                               "total_s": 0.0})
                row["calls"] += 1
                row["self_s"] += own
                row["total_s"] += span[2] - span[1]
        return out

    def write(self, path: str | Path) -> None:
        """Write every thread's spans and the counters as one JSON file."""
        with self._lock:
            threads = list(self._threads)
        doc = {"fields": ["name", "start", "end", "parent", "trace"],
               "threads": threads, "counts": self.counts}
        Path(path).write_text(json.dumps(doc, separators=(",", ":")))
