"""Persistent worker pool: the one process lane of the scheduler.

:func:`~repro.runtime.scheduler.run_parallel` runs every job that needs
a separate process on a :class:`WorkerPool` — a caller-owned one passed
as ``pool=`` and reused across any number of sweeps, or an ephemeral one
it creates for a single call.  Each job is shipped once as cached pickle
bytes (:meth:`~repro.runtime.scheduler.Job.payload`) over an always-open
duplex pipe, executed, and the worker goes back to the idle set.

The pool is also the watchdog:

* worker dead without a result → ``error_kind="crash"`` (exit code
  recorded) and the worker is **replaced** without losing the pool;
* per-job ``timeout`` / sweep ``deadline`` exceeded → SIGTERM, then
  SIGKILL, then replace; ``error_kind="timeout"``;
* heartbeat file stale for ``heartbeat_timeout`` → the worker process is
  wedged (SIGSTOP, D-state I/O) even though it is alive → same kill path.

Workers touch their heartbeat file from a daemon thread every
``heartbeat_interval`` seconds, so a hung *job function* (which still
yields the GIL) keeps beating and is caught by the per-job timeout,
while a wedged *process* stops beating and is caught by the heartbeat
check.

:meth:`WorkerPool.run` sleeps in :func:`multiprocessing.connection.wait`
on the busy workers' pipes and process sentinels, so a result or a death
wakes it at once; the wait times out only at the next per-job kill time,
the sweep deadline, or — with ``heartbeat_timeout`` set — the next
heartbeat check.

Replacement is observable (:attr:`WorkerPool.replacements` and the
interventions list) but results are not affected: a job is a pure
function of its payload, so a re-dispatched job returns bit-identical
values no matter which worker ran it — ``tests/test_determinism.py``
asserts this, including across a replacement.

Heartbeat files live in one pool-owned temporary directory that is
removed on :meth:`close`; a worker killed mid-job has its file removed
at replacement time, so neither graceful shutdown nor SIGKILL leaves
stale heartbeat files behind (chaos-tested).

``run()`` is thread-safe: concurrent calls check workers out of a
shared idle set under a condition variable, so e.g. the serve lane can
schedule independent single-job sweeps onto one warm pool.
"""

from __future__ import annotations

import multiprocessing
import os
import tempfile
import threading
import time
import weakref
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait
from pathlib import Path

__all__ = ["WorkerPool"]

# How often a worker's daemon thread touches its heartbeat file.
DEFAULT_HEARTBEAT_INTERVAL = 0.25
# How long after SIGTERM before escalating to SIGKILL.
_TERM_GRACE = 0.5
# While another run() holds some of the pool's workers, re-check for a
# free one this often (the idle set has no pipe to wait on).
_CHECKOUT_POLL = 0.05

# Give up on a job whose dispatch keeps landing on dead workers (each
# failed dispatch already replaced the worker, so >2 means something is
# systematically wrong with the pool, not with one worker).
_MAX_DISPATCH_ATTEMPTS = 3


def _touch(path: Path) -> None:
    try:
        path.touch()
    except OSError:
        pass  # heartbeat is advisory; never kill the job over it


def _heartbeat_loop(path: Path, interval: float, stop: threading.Event) -> None:
    while not stop.wait(interval):
        _touch(path)


def _pool_worker(conn, heartbeat_path: str, heartbeat_interval: float) -> None:
    """Process target: serve ``("job", index, payload)`` requests forever.

    The payload is the job's cached pickle (see ``Job.payload``); the
    worker unpickles and executes it, answering ``(index, JobResult)``.
    A ``("stop",)`` message or a closed pipe ends the loop.
    """
    from .scheduler import JobResult, _execute_payload

    stop = threading.Event()
    path = Path(heartbeat_path)
    _touch(path)
    threading.Thread(target=_heartbeat_loop,
                     args=(path, heartbeat_interval, stop),
                     daemon=True).start()
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break  # parent gone
            if msg[0] == "stop":
                break
            _, index, payload = msg
            result = _execute_payload(payload)
            try:
                conn.send((index, result))
            except (BrokenPipeError, OSError):
                break  # parent gone mid-job
            except Exception as exc:  # unpicklable job value
                import traceback

                conn.send((index, JobResult(
                    name=result.name, ok=False,
                    error=f"{type(exc).__name__}: {exc}",
                    traceback=traceback.format_exc(),
                    duration=result.duration, error_kind="pickling")))
    finally:
        stop.set()
        conn.close()


@dataclass
class _Worker:
    wid: int
    process: multiprocessing.process.BaseProcess
    conn: object
    heartbeat: Path


@dataclass
class _Busy:
    worker: _Worker
    started: float
    kill_at: float | None


class WorkerPool:
    """``max_workers`` persistent supervised workers shared across sweeps."""

    def __init__(self, max_workers: int = 2,
                 heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL):
        self.max_workers = max(1, int(max_workers))
        self.heartbeat_interval = heartbeat_interval
        # Before claiming our own heartbeat dir, sweep ones orphaned by a
        # SIGKILLed parent — TemporaryDirectory's finalizer never ran there.
        from .janitor import OWNER_FILE, sweep_stale_pool_dirs

        sweep_stale_pool_dirs()
        self._tmp = tempfile.TemporaryDirectory(prefix="repro-pool-")
        self._root = Path(self._tmp.name)
        (self._root / OWNER_FILE).write_text(f"{os.getpid()}\n", encoding="utf-8")
        self._cond = threading.Condition()
        self._idle: list[_Worker] = []
        self._live: list[_Worker] = []  # every not-yet-discarded worker
        self._next_wid = 0
        self._closed = False
        # Observability: how many workers were killed and respawned, and
        # how many jobs this pool has executed across all run() calls.
        self.replacements = 0
        self.jobs_run = 0
        for _ in range(self.max_workers):
            self._idle.append(self._spawn())
        # Workers are non-daemon (jobs may spawn their own children), so
        # an unclosed pool would hang interpreter exit on
        # multiprocessing's child join.  The finalizer stops them.
        self._finalizer = weakref.finalize(
            self, WorkerPool._shutdown, self._live, self._tmp)

    # ------------------------------------------------------- worker lifecycle

    def _spawn(self) -> _Worker:
        wid, self._next_wid = self._next_wid, self._next_wid + 1
        parent_conn, child_conn = multiprocessing.Pipe(duplex=True)
        heartbeat = self._root / f"worker-{wid}.heartbeat"
        process = multiprocessing.Process(
            target=_pool_worker,
            args=(child_conn, str(heartbeat), self.heartbeat_interval),
            daemon=False)
        process.start()
        child_conn.close()
        worker = _Worker(wid, process, parent_conn, heartbeat)
        self._live.append(worker)
        return worker

    def _discard(self, worker: _Worker) -> None:
        """SIGTERM→SIGKILL the worker and remove its heartbeat file."""
        process = worker.process
        if process.is_alive():
            process.terminate()
            process.join(_TERM_GRACE)
            if process.is_alive():
                process.kill()
                process.join(_TERM_GRACE)
        try:
            worker.conn.close()
        except Exception:
            pass
        try:
            worker.heartbeat.unlink()
        except OSError:
            pass
        if worker in self._live:
            self._live.remove(worker)

    def _replace(self, worker: _Worker) -> _Worker:
        self._discard(worker)
        self.replacements += 1
        return self._spawn()

    # --------------------------------------------------------- idle checkout

    def _checkout(self, want: int, block: bool) -> list[_Worker]:
        with self._cond:
            while block and not self._idle and not self._closed:
                self._cond.wait(_CHECKOUT_POLL)
            if self._closed:
                raise RuntimeError("WorkerPool is closed")
            take = min(want, len(self._idle))
            return [self._idle.pop() for _ in range(take)]

    def _checkin(self, workers: list[_Worker]) -> None:
        if not workers:
            return
        with self._cond:
            self._idle.extend(workers)
            self._cond.notify_all()

    # ------------------------------------------------------------------- run

    def run(self, jobs, timeout: float | None = None,
            deadline: float | None = None,
            heartbeat_timeout: float | None = None) -> tuple[list, list[dict]]:
        """Execute ``jobs`` on the pool; ``(results, interventions)``.

        Per-job ``timeout`` (``Job.timeout`` overrides), batch
        ``deadline`` and stale-heartbeat kills as described in the module
        docstring; a killed or crashed worker is replaced so the pool
        never shrinks.
        """
        from .scheduler import JobResult

        jobs = list(jobs)
        results: list[JobResult | None] = [None] * len(jobs)
        interventions: list[dict] = []
        queue = deque(range(len(jobs)))
        dispatch_attempts = [0] * len(jobs)
        busy: dict[int, _Busy] = {}
        held: list[_Worker] = []  # idle workers checked out by this call
        start = time.monotonic()
        expire_at = None if deadline is None else start + deadline

        def fail(index: int, busy_entry: _Busy | None, kind: str, error: str,
                 action: str) -> JobResult:
            interventions.append({"index": index, "name": jobs[index].name,
                                  "action": action, "detail": error})
            duration = (0.0 if busy_entry is None
                        else time.monotonic() - busy_entry.started)
            return JobResult(name=jobs[index].name, ok=False, error=error,
                            traceback=f"(no worker traceback: {action})",
                            duration=duration, error_kind=kind)

        try:
            while queue or busy:
                now = time.monotonic()
                sweep_expired = expire_at is not None and now >= expire_at
                if sweep_expired and queue:
                    while queue:
                        index = queue.popleft()
                        results[index] = fail(
                            index, None, "timeout",
                            f"WorkerTimeout: sweep deadline {deadline:.1f}s "
                            "exceeded before the job started", "deadline-drop")
                # Dispatch queued jobs onto idle workers (ours or newly
                # checked out); block for one only when nothing is running.
                while queue and not sweep_expired:
                    if not held:
                        held.extend(self._checkout(
                            min(len(queue), self.max_workers) - len(busy),
                            block=not busy))
                        if not held:
                            break
                    index = queue.popleft()
                    job = jobs[index]
                    try:
                        payload = job.payload()
                    except Exception as exc:
                        import traceback as tb

                        results[index] = JobResult(
                            name=job.name, ok=False,
                            error=f"{type(exc).__name__}: {exc}",
                            traceback=tb.format_exc(), error_kind="pickling")
                        continue
                    worker = held.pop()
                    try:
                        worker.conn.send(("job", index, payload))
                    except Exception:
                        # Worker died while idle; replace it and retry the
                        # dispatch (the job never started).
                        held.append(self._replace(worker))
                        dispatch_attempts[index] += 1
                        if dispatch_attempts[index] >= _MAX_DISPATCH_ATTEMPTS:
                            results[index] = fail(
                                index, None, "crash",
                                "WorkerCrash: job could not be dispatched "
                                f"after {dispatch_attempts[index]} attempts",
                                "dispatch-failed")
                        else:
                            queue.appendleft(index)
                        continue
                    now = time.monotonic()
                    job_timeout = (job.timeout if job.timeout is not None
                                   else timeout)
                    busy[index] = _Busy(
                        worker=worker, started=now,
                        kill_at=None if job_timeout is None
                        else now + job_timeout)
                if not busy:
                    continue
                # Sleep until a busy worker answers or dies, or until the
                # next moment a watchdog rule could fire.
                wake = [entry.kill_at for entry in busy.values()
                        if entry.kill_at is not None]
                if expire_at is not None:
                    wake.append(expire_at)
                if heartbeat_timeout is not None:
                    wake.append(now + self.heartbeat_interval)
                if queue and len(busy) < self.max_workers:
                    wake.append(now + _CHECKOUT_POLL)
                wait([entry.worker.conn for entry in busy.values()]
                     + [entry.worker.process.sentinel for entry in busy.values()],
                     max(0.0, min(wake) - time.monotonic()) if wake else None)
                sweep_expired = (expire_at is not None
                                 and time.monotonic() >= expire_at)
                for index, entry in list(busy.items()):
                    now = time.monotonic()
                    worker = entry.worker
                    if worker.conn.poll(0):
                        try:
                            _, result = worker.conn.recv()
                            results[index] = result
                            held.append(worker)
                        except (EOFError, OSError):
                            worker.process.join(_TERM_GRACE)
                            results[index] = fail(
                                index, entry, "crash",
                                "WorkerCrash: pool worker exited with code "
                                f"{worker.process.exitcode} before delivering "
                                "a result", "crash")
                            held.append(self._replace(worker))
                        del busy[index]
                    elif not worker.process.is_alive():
                        results[index] = fail(
                            index, entry, "crash",
                            "WorkerCrash: pool worker exited with code "
                            f"{worker.process.exitcode} before delivering "
                            "a result", "crash")
                        held.append(self._replace(worker))
                        del busy[index]
                    elif sweep_expired:
                        results[index] = fail(
                            index, entry, "timeout",
                            f"WorkerTimeout: sweep deadline {deadline:.1f}s "
                            "exceeded", "deadline-kill")
                        held.append(self._replace(worker))
                        del busy[index]
                    elif entry.kill_at is not None and now >= entry.kill_at:
                        budget = entry.kill_at - entry.started
                        results[index] = fail(
                            index, entry, "timeout",
                            f"WorkerTimeout: job exceeded its {budget:.1f}s "
                            "timeout", "timeout-kill")
                        held.append(self._replace(worker))
                        del busy[index]
                    elif self._heartbeat_stale(entry, heartbeat_timeout, now):
                        results[index] = fail(
                            index, entry, "timeout",
                            "WorkerTimeout: worker stalled (heartbeat stale "
                            f"for > {heartbeat_timeout:.1f}s)",
                            "heartbeat-kill")
                        held.append(self._replace(worker))
                        del busy[index]
        finally:
            self._checkin(held)
        self.jobs_run += len(jobs)
        return [r for r in results if r is not None], interventions

    def _heartbeat_stale(self, entry: _Busy, heartbeat_timeout: float | None,
                         now: float) -> bool:
        if heartbeat_timeout is None:
            return False
        # Grace period from dispatch: the worker may not have beaten yet.
        if now - entry.started < max(heartbeat_timeout,
                                     2 * self.heartbeat_interval):
            return False
        try:
            age = time.time() - entry.worker.heartbeat.stat().st_mtime
        except OSError:
            age = now - entry.started
        return age > heartbeat_timeout

    # -------------------------------------------------------------- shutdown

    def close(self) -> None:
        """Stop every worker and remove the heartbeat directory.  Idempotent.

        Workers busy in a concurrent :meth:`run` are killed like any
        other — close the pool only once in-flight sweeps are done.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._idle = []
            self._cond.notify_all()
        self._finalizer.detach()
        self._shutdown(self._live, self._tmp)

    @staticmethod
    def _shutdown(live: list[_Worker], tmp) -> None:
        for worker in list(live):
            try:
                worker.conn.send(("stop",))
            except Exception:
                pass
        for worker in list(live):
            worker.process.join(_TERM_GRACE)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(_TERM_GRACE)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(_TERM_GRACE)
            try:
                worker.conn.close()
            except Exception:
                pass
        live.clear()
        try:
            tmp.cleanup()
        except OSError:
            pass

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else f"{len(self._idle)} idle"
        return (f"<WorkerPool max_workers={self.max_workers} {state} "
                f"replacements={self.replacements} jobs_run={self.jobs_run}>")
