"""Fabric worker: claim, execute, commit — on any host that sees the dir.

Run as a daemon::

    python -m repro.fabric.worker SHARED_DIR [--max-jobs N] [--idle-exit S]

Any number of daemons on any number of hosts drain one queue.  Each
scan walks the sorted entries and tries to claim the first job that has
no committed result and no live lease (:func:`repro.fabric.lease.
try_acquire` — O_EXCL token files, so every claim race has exactly one
winner).  While a job runs, a **keeper thread** renews the lease token's
mtime every ``renew_interval`` and re-checks fencing; the daemon's own
liveness heartbeat (``workers/<id>``) is renewed by a second thread so
submitters can tell "workers exist but are busy" from "no workers".

Execution reuses the scheduler's process lane: the job runs on a
one-worker :class:`~repro.runtime.pool.WorkerPool` with the entry's
per-job ``timeout``, so a hung cell is killed and classified
``error_kind="timeout"`` on whatever host it ran.  Results are committed
through :class:`~repro.fabric.queue.FabricQueue` — successes into the
content-addressed store (identical specs from racing hosts converge to
one artifact), failures as queue-local envelopes so retries re-run.

The split-brain cases:

* **We stole the lease** from an expired token whose recorded owner's
  daemon heartbeat is also stale → that attempt is recorded with
  ``error_kind="orphaned"`` (the owner is presumed dead; it cannot
  report for itself).
* **Our lease was stolen** (we were SIGSTOPped past the heartbeat
  timeout, our clock is skewed, the filesystem stalled) → the keeper
  thread or the final pre-commit check trips, the result is **abandoned**
  and recorded with ``error_kind="lease_lost"``.  A zombie never
  publishes: the committed result always belongs to the highest token.
"""

from __future__ import annotations

import argparse
import os
import pickle
import signal
import threading
import time
import traceback

from .lease import Lease, try_acquire
from .queue import FabricConfig, FabricQueue, JobEntry, QueueCorrupt, worker_identity

__all__ = ["FabricWorker", "main"]


class _LeaseKeeper(threading.Thread):
    """Renew one lease until stopped; flag the lease lost when fenced."""

    def __init__(self, lease: Lease, interval: float):
        super().__init__(daemon=True)
        self.lease = lease
        self.interval = interval
        # N.B. not `_stop` — that would shadow threading.Thread._stop().
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self.interval):
            if not self.lease.renew():
                return  # fenced: lease.lost is set; nothing left to renew

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=5.0)


class FabricWorker:
    """One claim-execute-commit loop over a :class:`FabricQueue`.

    ``job_filter`` restricts claims to a set of job ids — the degraded
    submitter uses it to drain only its own batch.  ``supervise=False``
    executes jobs inline in this process (no per-job child, no timeout
    enforcement); the daemon default is supervised.
    """

    def __init__(self, queue: FabricQueue, worker_id: str | None = None,
                 supervise: bool = True, job_filter=None, telemetry=None):
        self.queue = queue
        self.worker_id = worker_id or worker_identity(os.urandom(3).hex())
        self.supervise = supervise
        self.job_filter = set(job_filter) if job_filter is not None else None
        self.telemetry = telemetry
        self.jobs_completed = 0
        self.attempts_abandoned = 0

    # ------------------------------------------------------------ liveness

    def _heartbeat_thread(self, stop: threading.Event) -> threading.Thread:
        interval = self.queue.config.renew_interval

        def beat() -> None:
            self.queue.touch_worker(self.worker_id)
            while not stop.wait(interval):
                self.queue.touch_worker(self.worker_id)

        thread = threading.Thread(target=beat, daemon=True)
        thread.start()
        return thread

    # ---------------------------------------------------------------- scan

    def scan_once(self) -> bool:
        """Try to claim and finish one job; True if any progress was made."""
        for job_id in self.queue.entries():
            if self.job_filter is not None and job_id not in self.job_filter:
                continue
            if self.queue.result_envelope(job_id) is not None:
                continue
            try:
                entry = self.queue.read_entry(job_id)
            except QueueCorrupt as exc:
                self._contain_corrupt(job_id, str(exc))
                return True
            lease = try_acquire(self.queue.lease_dir(job_id), job_id,
                                self.worker_id,
                                self.queue.config.lease_timeout)
            if lease is None:
                continue  # live lease elsewhere, or we lost the claim race
            self._record_supersede(job_id, lease)
            self._execute(entry, lease)
            return True
        return False

    def work(self, max_jobs: int | None = None, idle_exit: float | None = None,
             deadline: float | None = None, stop_event=None) -> int:
        """Drain the queue; returns the number of jobs this worker completed.

        Exits when ``max_jobs`` jobs are done, the queue stays idle for
        ``idle_exit`` seconds, ``deadline`` (absolute seconds from now)
        passes, or ``stop_event`` is set.  With all four None it serves
        forever — the daemon mode.
        """
        stop = threading.Event()
        heartbeat = self._heartbeat_thread(stop)
        start = time.monotonic()
        last_progress = start
        completed_at_entry = self.jobs_completed
        try:
            while True:
                if stop_event is not None and stop_event.is_set():
                    break
                if (max_jobs is not None
                        and self.jobs_completed - completed_at_entry >= max_jobs):
                    break
                if deadline is not None and time.monotonic() - start >= deadline:
                    break
                if self.scan_once():
                    last_progress = time.monotonic()
                    continue
                if (idle_exit is not None
                        and time.monotonic() - last_progress >= idle_exit):
                    break
                time.sleep(self.queue.config.poll_interval)
        finally:
            stop.set()
            heartbeat.join(timeout=5.0)
            self.queue.retire_worker(self.worker_id)
        return self.jobs_completed - completed_at_entry

    # ------------------------------------------------------------- execute

    def _record_supersede(self, job_id: str, lease: Lease) -> None:
        """A steal from a dead owner is the orphaned-job case; log it."""
        if lease.superseded_token is None:
            return
        owner = lease.superseded_owner or "<unknown>"
        if (lease.superseded_owner is not None
                and self.queue.worker_live(lease.superseded_owner)):
            # Owner is alive (clock skew / stall): it will fence itself
            # and report lease_lost on its own — don't double-record.
            return
        self.queue.record_attempt(job_id, lease.superseded_token, {
            "ok": False, "error_kind": "orphaned",
            "error": f"lease t{lease.superseded_token} held by {owner} "
                     "expired with its worker heartbeat stale; job stolen "
                     f"by {self.worker_id} with fencing token t{lease.token}",
            "owner": owner, "stolen_by": self.worker_id,
        })

    def _contain_corrupt(self, job_id: str, reason: str) -> None:
        """Quarantine a damaged entry and answer it with a classified
        failure, under a lease so racing workers contain it exactly once."""
        lease = try_acquire(self.queue.lease_dir(job_id), job_id,
                            self.worker_id, self.queue.config.lease_timeout)
        if lease is None:
            return
        self.queue.quarantine(job_id, reason)
        self.queue.commit_result(job_id, lease.token, {
            "job_id": job_id, "ok": False, "name": "",
            "error": f"QueueCorrupt: {reason}",
            "traceback": "(no traceback: entry failed validation)",
            "error_kind": "queue_corrupt", "worker": self.worker_id,
        })
        self.jobs_completed += 1

    def _run_payload(self, entry: JobEntry, payload: bytes):
        """Execute the payload exactly as the scheduler's lanes would."""
        from ..runtime import WorkerPool
        from ..runtime.scheduler import JobResult, _execute_payload

        if not self.supervise:
            return _execute_payload(payload)
        try:
            job = pickle.loads(payload)
        except Exception as exc:  # noqa: BLE001 — classify, don't crash the daemon
            return JobResult(name=entry.name, ok=False,
                             error=f"{type(exc).__name__}: {exc}",
                             traceback=traceback.format_exc(),
                             error_kind="pickling")
        with WorkerPool(max_workers=1) as pool:
            results, _ = pool.run([job], timeout=entry.timeout)
        return results[0]

    def _execute(self, entry: JobEntry, lease: Lease) -> None:
        keeper = _LeaseKeeper(lease, self.queue.config.renew_interval)
        keeper.start()
        start = time.monotonic()
        dedup = False
        try:
            try:
                payload = self.queue.read_payload(entry)
            except QueueCorrupt as exc:
                keeper.stop()
                if lease.is_supreme():
                    self.queue.quarantine(entry.job_id, str(exc))
                    self.queue.commit_result(entry.job_id, lease.token, {
                        "job_id": entry.job_id, "ok": False, "name": entry.name,
                        "error": f"QueueCorrupt: {exc}",
                        "traceback": "(no traceback: payload failed validation)",
                        "error_kind": "queue_corrupt", "worker": self.worker_id,
                    })
                    self.jobs_completed += 1
                return
            result = self.queue.cached_success(entry.payload_sha256)
            if result is not None:
                dedup = True  # another host already ran this exact spec
            else:
                result = self._run_payload(entry, payload)
        finally:
            keeper.stop()
        duration = time.monotonic() - start
        if not lease.is_supreme():
            # Fenced mid-flight: we are the zombie.  Abandon the result —
            # whoever holds the newer token owns this job now.
            self.attempts_abandoned += 1
            self.queue.record_attempt(entry.job_id, lease.token, {
                "ok": False, "error_kind": "lease_lost", "name": entry.name,
                "error": f"lease t{lease.token} on {entry.job_id} was "
                         f"superseded while {self.worker_id} was running the "
                         "job; result abandoned",
                "duration": duration, "owner": self.worker_id,
            })
            return
        envelope = {
            "job_id": entry.job_id, "name": entry.name, "ok": bool(result.ok),
            "worker": self.worker_id, "duration": result.duration,
            "dedup": dedup, "payload_sha256": entry.payload_sha256,
        }
        if result.ok:
            envelope["store_key"] = self.queue.store_success(
                entry.payload_sha256, result)
        else:
            envelope.update(error=result.error, traceback=result.traceback,
                            error_kind=result.error_kind or "crash")
        if not lease.is_supreme():  # final fencing check before publishing
            self.attempts_abandoned += 1
            self.queue.record_attempt(entry.job_id, lease.token, {
                "ok": False, "error_kind": "lease_lost", "name": entry.name,
                "error": "lease superseded between execution and commit; "
                         "result abandoned", "owner": self.worker_id,
            })
            return
        self.queue.commit_result(entry.job_id, lease.token, envelope)
        self.jobs_completed += 1


# ------------------------------------------------------------------ CLI

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fabric.worker",
        description="Fabric worker daemon: claim and run jobs from a "
                    "shared queue directory.")
    parser.add_argument("fabric_dir", help="the shared fabric directory")
    parser.add_argument("--max-jobs", type=int, default=None,
                        help="exit after completing this many jobs")
    parser.add_argument("--idle-exit", type=float, default=None,
                        metavar="SECONDS",
                        help="exit after the queue stays idle this long "
                             "(default: serve forever)")
    parser.add_argument("--worker-id", default=None,
                        help="override the <host>-<pid>-<nonce> identity")
    parser.add_argument("--no-supervise", action="store_true",
                        help="run jobs inline instead of in a supervised "
                             "child process (disables per-job timeouts)")
    parser.add_argument("--lease-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="lease staleness before stealing; only applied "
                             "when this worker creates a fresh fabric.json "
                             "(an existing one wins)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = None
    if args.lease_timeout is not None:
        config = FabricConfig(lease_timeout=args.lease_timeout,
                              renew_interval=min(1.0, args.lease_timeout / 4))
    queue = FabricQueue(args.fabric_dir, config=config)
    worker = FabricWorker(queue, worker_id=args.worker_id,
                          supervise=not args.no_supervise)
    stop = threading.Event()

    def _graceful(signum, frame):  # noqa: ARG001 — signal handler signature
        stop.set()

    signal.signal(signal.SIGTERM, _graceful)
    signal.signal(signal.SIGINT, _graceful)
    completed = worker.work(max_jobs=args.max_jobs, idle_exit=args.idle_exit,
                            stop_event=stop)
    print(f"[fabric.worker {worker.worker_id}] completed {completed} jobs, "
          f"abandoned {worker.attempts_abandoned} fenced attempts")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
