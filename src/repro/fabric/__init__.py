"""Fault-tolerant multi-host job fabric: leases, fencing, work stealing.

The sweep grid is bigger than one machine; everything the scheduler
already relies on — heartbeat files, checkpoint requeue, the
content-addressed store, O_EXCL marker files — is filesystem-mediated,
so the fabric promotes a shared directory into a job queue that any
number of worker daemons on any number of hosts drain together:

* :mod:`~repro.fabric.lease` — O_EXCL token files with monotonically
  increasing **fencing tokens**: exactly one owner per token, stealers
  take token N+1 once token N's heartbeat goes stale, and a fenced
  zombie abandons its result instead of publishing it.
* :mod:`~repro.fabric.queue` — the directory layout: payload+entry
  commits, token-stamped result envelopes (highest token wins; a stale
  writer physically cannot clobber a re-run), attempt records for
  ``orphaned``/``lease_lost`` churn, worker heartbeats, and successful
  results deduplicated through the content-addressed store.
* :mod:`~repro.fabric.worker` — the daemon
  (``python -m repro.fabric.worker SHARED_DIR``): claim → execute on a
  one-worker ``WorkerPool`` (same watchdog and ``error_kind`` taxonomy)
  → fencing-checked commit.
* :mod:`~repro.fabric.submit` — the ``run_parallel(fabric_dir=)`` side:
  enqueue, poll, and degrade to inline execution (through the same
  lease protocol) when no live worker appears within a grace window.

Checkpoints live inside the fabric directory, so a stolen job resumes
from its last healthy :class:`~repro.store.TrainingCheckpoint` on
whatever host re-leased it and completes **bit-identically** to an
uninterrupted run — the chaos battery in ``tests/test_chaos.py``
asserts this for SIGKILL, SIGSTOP-zombie, and clock-skew steals.
"""

from .lease import Lease, LeaseLost, highest_token, try_acquire
from .queue import FabricConfig, FabricQueue, JobEntry, QueueCorrupt, worker_identity
from .submit import FabricSubmitter
from .worker import FabricWorker

__all__ = [
    "FabricConfig", "FabricQueue", "FabricSubmitter", "FabricWorker",
    "JobEntry", "Lease", "LeaseLost", "QueueCorrupt",
    "highest_token", "try_acquire", "worker_identity",
]
