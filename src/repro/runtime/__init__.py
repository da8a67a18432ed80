"""Parallel execution runtime: vectorized envs, batched rollout
collection, and a fault-contained experiment scheduler.

Layering (each layer usable on its own):

1. :mod:`~repro.runtime.vec_env` — ``VectorEnv``/``SyncVectorEnv`` step
   N seeded env copies in lockstep with auto-reset.
2. :mod:`~repro.runtime.collector` — ``collect_lanes`` is the one loop
   that fills a training batch, from N lanes with batched policy
   forwards; serial collection is one lane.  ``train_ppo``, the adversary
   trainer (``collect_adversary_rollout_vec`` adds its telemetry) and
   perturbed victim training all call it.
3. :mod:`~repro.runtime.pool` — ``WorkerPool``, the one process lane:
   long-lived supervised workers with per-job timeouts, sweep deadlines,
   heartbeat checks, SIGTERM→SIGKILL kills, and replacement of dead
   workers.
4. :mod:`~repro.runtime.scheduler` — ``run_parallel`` executes whole
   experiment cells inline, on a ``WorkerPool`` (caller-owned or
   ephemeral), or on the fabric, with structured failure capture, the
   ``error_kind`` taxonomy (``ERROR_KINDS``), seeded retry backoff, and
   ``SeedSequence``-derived per-job seeds.
5. :mod:`repro.fabric` — ``run_parallel(fabric_dir=...)`` scales the
   same job model across hosts via a shared-directory queue with lease
   fencing; :mod:`~repro.runtime.janitor` sweeps pool directories left
   by SIGKILLed parents.
"""

from .collector import collect_adversary_rollout_vec, collect_lanes, knn_feature
from .janitor import pid_alive, sweep_stale_pool_dirs
from .pool import WorkerPool
from .scheduler import (
    ERROR_KINDS,
    Job,
    JobResult,
    ScheduleReport,
    WorkerTimeout,
    classify_exception,
    compute_backoff,
    derive_job_seeds,
    run_parallel,
)
from .vec_env import LANE_SEED_STRIDE, SyncVectorEnv, VectorEnv

__all__ = [
    "VectorEnv", "SyncVectorEnv", "LANE_SEED_STRIDE",
    "collect_lanes", "collect_adversary_rollout_vec", "knn_feature",
    "Job", "JobResult", "ScheduleReport", "run_parallel", "derive_job_seeds",
    "compute_backoff", "ERROR_KINDS", "WorkerPool",
    "WorkerTimeout", "classify_exception",
    "pid_alive", "sweep_stale_pool_dirs",
]
