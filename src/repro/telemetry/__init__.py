"""Telemetry subsystem: run manifests, metrics, JSONL events, timers.

Layering (each usable on its own):

1. :mod:`~repro.telemetry.clock` — injectable ``Clock`` (``WallClock``
   in production, ``ManualClock`` in tests).  All timestamps flow
   through a clock; that is the determinism contract.
2. :mod:`~repro.telemetry.metrics` — ``MetricsRegistry`` of counters,
   gauges, EWMA timers, and histogram summaries.
3. :mod:`~repro.telemetry.events` — ``JsonlEventSink`` with buffered
   atomic appends; deterministic ``payload`` vs non-deterministic
   ``perf`` split per event.
4. :mod:`~repro.telemetry.manifest` — ``RunManifest``: config, seeds,
   package versions, wall-clock bounds, exit status, crash records;
   atomic temp-file + ``os.replace`` writes.
5. :mod:`~repro.telemetry.run` — the per-run ``Telemetry`` facade plus
   the ambient-telemetry contextvar (``use_telemetry``) that lets the
   experiments CLI instrument training loops without parameter plumbing;
   ``Telemetry.timer(name)`` times a block.

Telemetry is opt-in everywhere: hot paths take ``telemetry=None`` and
fall back to the ambient context; with neither set they run at baseline
speed.
"""

from .clock import Clock, ManualClock, WallClock
from .events import (
    EventSink,
    JsonlEventSink,
    MemoryEventSink,
    NullEventSink,
    read_jsonl,
    strip_perf,
)
from .manifest import EVENTS_NAME, MANIFEST_NAME, RunManifest, package_versions
from .metrics import Counter, EwmaTimer, Gauge, Histogram, MetricsRegistry
from .run import Telemetry, current_telemetry, use_telemetry

__all__ = [
    "Clock", "WallClock", "ManualClock",
    "EventSink", "NullEventSink", "MemoryEventSink", "JsonlEventSink",
    "read_jsonl", "strip_perf",
    "RunManifest", "package_versions", "MANIFEST_NAME", "EVENTS_NAME",
    "Counter", "Gauge", "EwmaTimer", "Histogram", "MetricsRegistry",
    "Telemetry", "use_telemetry", "current_telemetry",
]
