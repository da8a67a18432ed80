"""Experiment scheduler with fault containment.

Experiment grids (attacks × victims × seeds) are embarrassingly
parallel: every cell is a pure function of its arguments and its seed.
:func:`run_parallel` executes a list of :class:`Job`\\ s on one of three
lanes, chosen once per call:

* **inline** — ``max_workers <= 1`` or a single job, and no watchdog
  knob set: a plain for-loop in the parent process, no pickling;
* **worker pool** — everything else: a caller-owned
  :class:`~repro.runtime.pool.WorkerPool` (``pool=``) or an ephemeral
  one for this call.  The pool is the watchdog — per-job ``timeout=`` /
  ``Job.timeout``, sweep ``deadline=`` and ``heartbeat_timeout=`` kill
  hung or stalled workers — and it replaces a worker that died, so a
  crash fails exactly the job that caused it;
* **fabric** — ``fabric_dir=`` hands the batch to :mod:`repro.fabric`.

Every retry round of a call runs on the lane its first round used, so a
job that crashed its worker is never retried in the parent process.

* **Error taxonomy** — every failed :class:`JobResult` carries
  ``error_kind`` ∈ :data:`ERROR_KINDS` so sweep tooling can retry,
  reroute, or alert per class.
* **Retries with seeded backoff** — ``retries=k`` requeues failures up
  to k more times; ``retry_backoff=b`` sleeps ``b·2^(round-1)`` seconds
  with deterministic ``SeedSequence``-seeded jitter between rounds.
  A ``numerical`` failure (see :mod:`repro.rl.health`) retried with
  checkpointing enabled resumes from its last *healthy* checkpoint —
  the guards fire before a poisoned iteration can checkpoint.

Seed derivation for sweeps uses ``np.random.SeedSequence`` so job seeds
are statistically independent regardless of how the grid is enumerated
(``derive_job_seeds``).  Jobs with an explicit ``seed`` get it injected
as a ``seed=`` keyword argument.
"""

from __future__ import annotations

import dataclasses
import pickle
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from ..telemetry import current_telemetry
from .pool import WorkerPool

__all__ = [
    "Job", "JobResult", "ScheduleReport", "run_parallel", "derive_job_seeds",
    "compute_backoff", "ERROR_KINDS", "WorkerTimeout", "classify_exception",
]

# The structured failure taxonomy.  The last three only ever originate
# from repro.fabric lease churn and queue damage.
ERROR_KINDS = ("crash", "timeout", "numerical", "pickling",
               "lease_lost", "orphaned", "queue_corrupt")


class WorkerTimeout(TimeoutError):
    """A job exceeded its per-job timeout or the sweep deadline."""


def classify_exception(exc: BaseException) -> str:
    """Map an exception to the structured ``error_kind`` taxonomy.

    Matching on class *names* as well as classes keeps this usable on
    exceptions that crossed a process boundary or would otherwise drag in
    circular imports (``NumericalDivergence`` lives in ``repro.rl``).
    """
    name = type(exc).__name__
    if isinstance(exc, pickle.PicklingError) or "pickle" in str(exc).lower():
        return "pickling"
    if name == "NumericalDivergence":
        return "numerical"
    if name == "LeaseLost":  # repro.fabric.lease — fenced mid-execution
        return "lease_lost"
    if name == "QueueCorrupt":  # repro.fabric.queue — damaged entry/payload
        return "queue_corrupt"
    if isinstance(exc, TimeoutError):
        return "timeout"
    return "crash"


def derive_job_seeds(base_seed: int, n_jobs: int) -> list[int]:
    """Independent per-job seeds via ``SeedSequence.spawn`` (not ``base+i``).

    Inputs are validated here so a bad sweep config fails with a clear
    message instead of an opaque ``SeedSequence`` traceback from deep
    inside numpy.
    """
    if isinstance(base_seed, bool) or not isinstance(base_seed, (int, np.integer)):
        raise TypeError(
            f"derive_job_seeds: base_seed must be an integer, got "
            f"{base_seed!r} ({type(base_seed).__name__})")
    if (isinstance(n_jobs, bool) or not isinstance(n_jobs, (int, np.integer))
            or n_jobs < 0):
        raise ValueError(
            f"derive_job_seeds: n_jobs must be a non-negative integer, got "
            f"{n_jobs!r}")
    children = np.random.SeedSequence(int(base_seed)).spawn(int(n_jobs))
    return [int(child.generate_state(1)[0]) for child in children]


def compute_backoff(base: float, round_index: int,
                    rng: np.random.Generator, cap: float = 60.0) -> float:
    """Seeded exponential backoff with jitter for retry round ``round_index``.

    ``base * 2^(round-1)`` capped at ``cap`` seconds, jittered uniformly
    into ``[0.5, 1.0]ד`` so simultaneous sweeps don't retry in
    lockstep.  ``base <= 0`` disables backoff entirely (and draws nothing
    from ``rng``, keeping the generator untouched for determinism).  The
    exponent is clamped before exponentiation so absurd round counts
    (a fabric job stolen hundreds of times) saturate at ``cap`` instead
    of overflowing ``float``.
    """
    if base <= 0.0:
        return 0.0
    scale = base * (2.0 ** min(63, max(0, round_index - 1)))
    return float(min(cap, scale) * (0.5 + 0.5 * rng.random()))


@dataclass
class Job:
    """One schedulable unit of work: ``fn(*args, **kwargs)`` in a worker."""

    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    name: str = ""
    seed: int | None = None  # injected as kwargs["seed"] when set
    # When True and run_parallel was given a checkpoint_dir, the scheduler
    # injects checkpoint_path=/checkpoint_every= kwargs so a retried job
    # resumes from its last on-disk checkpoint instead of from scratch.
    # fn must accept those keywords (train_ppo / AdversaryTrainer.train do).
    checkpointable: bool = False
    # Per-job wall-clock budget in seconds; overrides run_parallel's
    # timeout= for this job.  Any timeout routes the batch onto a worker
    # pool, whose watchdog kills the worker on expiry.
    timeout: float | None = None
    # Serialized form of this job, filled lazily by payload() and reused
    # verbatim by every retry/requeue — the fix for re-pickling a large
    # policy once per attempt.  Never pickled itself (see __getstate__).
    _payload: bytes | None = field(default=None, init=False, repr=False,
                                   compare=False)

    def payload(self) -> bytes:
        """This job's pickle, serialized exactly once and cached.

        The pool and fabric lanes ship ``payload()`` bytes instead of the
        job object, so retries of the same job never re-serialize its
        (possibly policy-sized) arguments.
        """
        if self._payload is None:
            self._payload = pickle.dumps(self)
        return self._payload

    def __getstate__(self):
        # The payload *is* this object's pickle: dropping it keeps the
        # serialized form minimal and non-recursive.
        state = self.__dict__.copy()
        state["_payload"] = None
        return state


@dataclass
class JobResult:
    """Outcome of one job: either ``value`` or a captured, classified error."""

    name: str
    ok: bool
    value: Any = None
    error: str | None = None
    traceback: str | None = None
    duration: float = 0.0
    attempts: int = 1
    # Structured failure taxonomy (None while ok): one of ERROR_KINDS.
    error_kind: str | None = None


@dataclass
class ScheduleReport:
    """Ordered job results plus wall-clock/throughput statistics."""

    results: list[JobResult]
    wall_clock: float
    max_workers: int
    # Failed attempts that were requeued: (attempt_number, JobResult).
    retried: list[tuple[int, JobResult]] = field(default_factory=list)
    # True if a worker-less fabric forced inline execution;
    # degraded_reason says why.
    degraded: bool = False
    degraded_reason: str = ""
    # Watchdog actions (kills, deadline drops) taken during the run.
    interventions: list[dict] = field(default_factory=list)

    @property
    def n_failed(self) -> int:
        return sum(not r.ok for r in self.results)

    @property
    def failures(self) -> list[JobResult]:
        return [r for r in self.results if not r.ok]

    def failures_by_kind(self) -> dict[str, list[JobResult]]:
        """Failed results grouped by their ``error_kind`` taxonomy tag."""
        grouped: dict[str, list[JobResult]] = {}
        for result in self.failures:
            grouped.setdefault(result.error_kind or "crash", []).append(result)
        return grouped

    @property
    def total_job_time(self) -> float:
        """Sum of per-job durations (the sequential-equivalent wall clock)."""
        return float(sum(r.duration for r in self.results))

    @property
    def speedup(self) -> float:
        """total_job_time / wall_clock — parallel efficiency × workers.

        A degenerate ``wall_clock == 0`` (manual clocks, sub-resolution
        sweeps) reports a neutral 1.0 rather than a bogus "0.00x".
        """
        if self.wall_clock <= 0.0:
            return 1.0
        return self.total_job_time / self.wall_clock

    def values(self) -> list[Any]:
        """Job values in submission order (``None`` for failed jobs)."""
        return [r.value if r.ok else None for r in self.results]

    def summary(self) -> str:
        ok = len(self.results) - self.n_failed
        speedup = (f", {self.speedup:.2f}x speedup"
                   if self.wall_clock > 0.0 else "")
        degraded = ", degraded to inline" if self.degraded else ""
        return (f"{ok}/{len(self.results)} jobs ok in {self.wall_clock:.1f}s "
                f"wall ({self.total_job_time:.1f}s of work{speedup}, "
                f"{self.max_workers} workers{degraded})")


def _execute_job(job: Job) -> JobResult:
    """Run one job, converting any exception into a structured error."""
    start = time.perf_counter()
    try:
        kwargs = dict(job.kwargs)
        if job.seed is not None and "seed" not in kwargs:
            kwargs["seed"] = job.seed
        value = job.fn(*job.args, **kwargs)
        return JobResult(name=job.name, ok=True, value=value,
                         duration=time.perf_counter() - start)
    except Exception as exc:  # noqa: BLE001 — a cell failure must not kill the sweep
        return JobResult(name=job.name, ok=False,
                         error=f"{type(exc).__name__}: {exc}",
                         traceback=traceback.format_exc(),
                         duration=time.perf_counter() - start,
                         error_kind=classify_exception(exc))


def _execute_payload(payload: bytes) -> JobResult:
    """Worker-side entry: unpickle a cached job payload and execute it."""
    try:
        job = pickle.loads(payload)
    except Exception as exc:  # corrupted/undeserializable payload
        return JobResult(name="", ok=False,
                         error=f"{type(exc).__name__}: {exc}",
                         traceback=traceback.format_exc(),
                         error_kind="pickling")
    return _execute_job(job)


def _record_schedule(telemetry, report: ScheduleReport) -> None:
    """Per-attempt events + per-job crash records, in deterministic order.

    Runs in the submitting process after results are gathered, so event
    order is deterministic (failed attempts in retry order, then final
    results in submission order) regardless of worker completion order.
    Worker processes themselves run untelemetered — an open JSONL sink
    does not cross a fork/spawn boundary.
    """
    for attempt, result in report.retried:
        telemetry.metrics.counter("scheduler.retries").inc()
        telemetry.event("job.attempt", payload={
            "name": result.name, "attempt": attempt, "ok": False,
            "error": result.error, "error_kind": result.error_kind,
        }, perf={"duration": result.duration})
    if report.degraded:
        telemetry.metrics.counter("scheduler.degraded").inc()
        telemetry.event("schedule.degraded",
                        payload={"reason": report.degraded_reason})
    for result in report.results:
        telemetry.metrics.counter(
            "scheduler.jobs_ok" if result.ok else "scheduler.jobs_failed").inc()
        telemetry.metrics.observe_duration("scheduler.job", result.duration)
        telemetry.event("job.finished", payload={
            "name": result.name, "ok": result.ok, "error": result.error,
            "attempts": result.attempts, "error_kind": result.error_kind,
        }, perf={"duration": result.duration})
        telemetry.record_job(result.name, result.ok, duration=result.duration,
                             error=result.error, traceback=result.traceback,
                             attempts=result.attempts,
                             error_kind=result.error_kind)
    telemetry.event("schedule.complete", payload={
        "n_jobs": len(report.results), "n_failed": report.n_failed,
    }, perf={"wall_clock": report.wall_clock, "speedup": report.speedup,
             "max_workers": report.max_workers})


def _job_checkpoint_path(checkpoint_dir: Path, job: Job, index: int) -> Path:
    safe = (job.name or f"job{index}").replace("/", "_").replace(" ", "_")
    return checkpoint_dir / f"{safe}.ckpt.npz"


def _prepare_jobs(jobs: list[Job], checkpoint_dir, checkpoint_every: int) -> list[Job]:
    """Inject checkpoint kwargs into checkpointable jobs (non-destructively)."""
    if checkpoint_dir is None or not checkpoint_every:
        return jobs
    checkpoint_dir = Path(checkpoint_dir)
    checkpoint_dir.mkdir(parents=True, exist_ok=True)
    prepared = []
    for i, job in enumerate(jobs):
        if job.checkpointable and "checkpoint_path" not in job.kwargs:
            kwargs = dict(job.kwargs)
            kwargs["checkpoint_path"] = str(_job_checkpoint_path(checkpoint_dir, job, i))
            kwargs["checkpoint_every"] = checkpoint_every
            job = dataclasses.replace(job, kwargs=kwargs)
        prepared.append(job)
    return prepared


def run_parallel(jobs: Iterable[Job] | Sequence[Job], max_workers: int = 1,
                 telemetry=None, retries: int = 0,
                 checkpoint_dir: str | Path | None = None,
                 checkpoint_every: int = 0,
                 timeout: float | None = None,
                 deadline: float | None = None,
                 heartbeat_timeout: float | None = None,
                 retry_backoff: float = 0.0,
                 backoff_seed: int = 0,
                 pool: WorkerPool | None = None,
                 fabric_dir: str | Path | None = None) -> ScheduleReport:
    """Execute ``jobs`` and return per-job results in submission order.

    The lane is chosen once, and every retry round uses it:

    * ``fabric_dir=`` — the multi-host job fabric (:mod:`repro.fabric`):
      jobs are enqueued into the shared directory and executed by
      whatever worker daemons drain it, with lease fencing,
      checkpoint-resumed steals, and store-deduplicated results.  If no
      live daemon appears within the fabric's grace window the batch
      degrades to inline execution (``report.degraded`` + a
      ``schedule.degraded`` event) — a sweep never hangs on an empty
      fabric.  Checkpointable jobs default their ``checkpoint_dir`` into
      the fabric so a stolen job resumes on whichever host re-leased it.
    * ``pool=`` — that :class:`~repro.runtime.pool.WorkerPool`, whose
      warm workers outlive this call.
    * inline — when ``max_workers <= 1`` or there is a single job, and
      no ``timeout`` / ``deadline`` / ``heartbeat_timeout`` /
      ``Job.timeout`` is set: no processes, no pickling, identical to a
      plain for-loop.
    * otherwise an ephemeral ``WorkerPool(min(max_workers, len(jobs)))``,
      closed before this call returns.

    On a pool, a job that raises, fails to pickle, or loses its worker
    is reported as a failed :class:`JobResult` while the rest of the
    sweep completes; ``timeout`` / ``Job.timeout`` / ``deadline`` /
    ``heartbeat_timeout`` kill hung or stalled workers, classified
    ``error_kind="timeout"``.  Job payloads are serialized once
    (``Job.payload``) and reshipped as bytes on retries.

    ``retries=k`` requeues each failed job up to k more times, sleeping
    ``compute_backoff(retry_backoff, round, rng)`` between rounds (seeded
    jitter; ``retry_backoff=0`` disables sleeping).  With
    ``checkpoint_dir`` + ``checkpoint_every`` set, jobs flagged
    :attr:`Job.checkpointable` get ``checkpoint_path=`` /
    ``checkpoint_every=`` kwargs injected, so a crashed, killed, or
    numerically-diverged training job's retry resumes from its last
    healthy on-disk checkpoint instead of restarting from scratch; the
    result is bit-identical to an uninterrupted run.  ``telemetry``
    (default: the ambient one) receives per-attempt events and crash
    records into the run manifest.
    """
    jobs = list(jobs)
    telemetry = telemetry if telemetry is not None else current_telemetry()
    start = time.perf_counter()
    fabric = None
    if fabric_dir is not None:
        if pool is not None:
            raise ValueError(
                "run_parallel: fabric_dir= and pool= are mutually exclusive "
                "execution lanes")
        from ..fabric import FabricSubmitter

        fabric = FabricSubmitter(fabric_dir, telemetry=telemetry)
        if checkpoint_dir is None and checkpoint_every:
            # Checkpoints must live on the shared directory, or a stolen
            # job cannot resume on the host that re-leased it.
            checkpoint_dir = Path(fabric_dir) / "checkpoints"
    prepared = _prepare_jobs(jobs, checkpoint_dir, checkpoint_every)
    effective_workers = (pool.max_workers if pool is not None
                         else max(1, max_workers))
    watchdog = (timeout is not None or deadline is not None
                or heartbeat_timeout is not None
                or any(job.timeout is not None for job in prepared))
    owned_pool = None
    if (fabric is None and pool is None and prepared
            and (watchdog or (max_workers > 1 and len(prepared) > 1))):
        pool = owned_pool = WorkerPool(min(max_workers, len(prepared)))
    degraded = False
    degraded_reason = ""
    fabric_churn: list[JobResult] = []
    interventions: list[dict] = []
    backoff_rng = np.random.default_rng(np.random.SeedSequence(backoff_seed))

    def deadline_left() -> float | None:
        if deadline is None:
            return None
        return max(0.0, deadline - (time.perf_counter() - start))

    def run_batch(subset: list[Job]) -> list[JobResult]:
        if fabric is not None:
            batch, acts, churn = fabric.run_batch(
                subset, timeout=timeout, deadline=deadline_left())
            fabric_churn.extend(churn)
        elif pool is not None:
            batch, acts = pool.run(subset, timeout=timeout,
                                   deadline=deadline_left(),
                                   heartbeat_timeout=heartbeat_timeout)
        else:
            return [_execute_job(job) for job in subset]
        interventions.extend(acts)
        return batch

    try:
        results = run_batch(prepared)
        attempts = [1] * len(results)
        retried: list[tuple[int, JobResult]] = []
        pending = [i for i, r in enumerate(results) if not r.ok]
        retry_round = 0
        while pending and max(attempts[i] for i in pending) <= retries:
            retry_round += 1
            delay = compute_backoff(retry_backoff, retry_round, backoff_rng)
            if delay > 0.0:
                time.sleep(delay)
            for i in pending:
                retried.append((attempts[i], results[i]))
            retry_results = run_batch([prepared[i] for i in pending])
            for i, result in zip(pending, retry_results):
                attempts[i] += 1
                results[i] = result
            pending = [i for i in pending if not results[i].ok]
    finally:
        if owned_pool is not None:
            owned_pool.close()
    for i, result in enumerate(results):
        result.attempts = attempts[i]
    if fabric is not None:
        if fabric.degraded:
            degraded = True
            degraded_reason = ("no live fabric workers within the grace "
                               "window; batch executed inline by the "
                               "submitter")
        # Lease churn (steals, fenced abandonments) surfaces as failed
        # attempt records so report.retried and telemetry show exactly
        # what containment the fabric performed.
        churn_counts: dict[str, int] = {}
        for record in fabric_churn:
            churn_counts[record.name] = churn_counts.get(record.name, 0) + 1
            retried.append((churn_counts[record.name], record))
    report = ScheduleReport(results=results,
                            wall_clock=time.perf_counter() - start,
                            max_workers=effective_workers,
                            retried=retried, degraded=degraded,
                            degraded_reason=degraded_reason,
                            interventions=interventions)
    if telemetry is not None:
        _record_schedule(telemetry, report)
    return report
