"""Deterministic fault-injection harness (chaos testing for the runtime).

Everything the fault-containment layer defends against can be produced
on demand, reproducibly:

* :class:`FaultyEnv` / :class:`FaultSpec` — make ``env.step`` raise,
  hang, or emit NaN observations at exact step counts (or with a
  ``SeedSequence``-seeded per-step probability).
* :class:`WorkerFault` — a picklable job-function wrapper that crashes
  the worker process (``os._exit``), hangs it, or raises, a bounded
  number of times across *all* processes (marker-file claimed, so
  retried attempts see the fault already spent and succeed).
* :func:`truncate_blob` — corrupt an artifact-store blob behind its
  valid sidecar, the failure mode ``ArtifactStore.verify``/``get`` must
  catch.
* :func:`truncate_queue_entry` / :func:`skew_lease` — damage a fabric
  queue entry (→ ``queue_corrupt`` quarantine) or age a healthy lease's
  heartbeat into the past (→ a clock-skew steal the fenced owner must
  survive by abandoning its result).

``tests/test_chaos.py`` drives the scheduler, worker pool, health
guards, and store through these faults.
"""

from .injector import (
    FAULT_KINDS,
    FaultInjectionError,
    FaultInjector,
    FaultSpec,
    FaultyEnv,
    WorkerFault,
    skew_lease,
    truncate_blob,
    truncate_queue_entry,
)

__all__ = [
    "FAULT_KINDS",
    "FaultInjectionError",
    "FaultInjector",
    "FaultSpec",
    "FaultyEnv",
    "WorkerFault",
    "skew_lease",
    "truncate_blob",
    "truncate_queue_entry",
]
