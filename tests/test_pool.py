"""WorkerPool unit battery: reuse, supervision, payload caching, cleanup.

The determinism-facing properties (cold vs warm pool bit-identity,
replacement transparency) live in ``tests/test_determinism.py``; the
fault-injection cases (SIGKILL mid-job, leak checks under SIGKILL) in
``tests/test_chaos.py``.  This file covers the pool's own mechanics.
"""

from __future__ import annotations

import os
import pickle
import signal
import tempfile
import time
from pathlib import Path

import pytest

from repro.runtime import Job, WorkerPool, run_parallel
from repro.runtime.scheduler import _execute_payload


def _pid_job(seed=None):
    return os.getpid()


def _square_job(x, seed=None):
    return x * x


def _sleep_job(seconds=3600.0, seed=None):
    time.sleep(seconds)
    return "woke"


def _sigstop_job(seed=None):
    os.kill(os.getpid(), signal.SIGSTOP)
    return "resumed"


def _pool_dirs_job(seed=None):
    return sorted(p.name for p in Path(tempfile.gettempdir()).glob("repro-pool-*"))


_REDUCE_CALLS = {"n": 0}


def _rebuild_counted(attempts_left):
    fn = _CountedFailingFn(attempts_left)
    return fn


class _CountedFailingFn:
    """Callable that fails its first ``attempts_left`` calls and counts
    how many times the *parent* process pickles it."""

    def __init__(self, attempts_left: int, marker: str | None = None):
        self.attempts_left = attempts_left
        self.marker = marker

    def __reduce__(self):
        _REDUCE_CALLS["n"] += 1
        return (_rebuild_counted, (self.attempts_left,))

    def __call__(self, seed=None):
        # Cross-process attempt counting via O_EXCL marker files is
        # overkill here: each attempt runs in a fresh unpickle of this
        # object, so "fail always" + retries exercises the requeue path.
        if self.attempts_left > 0:
            raise ValueError("injected failure")
        return "ok"


class TestWorkerPoolBasics:
    def test_run_returns_results_in_job_order(self):
        with WorkerPool(max_workers=2) as pool:
            jobs = [Job(fn=_square_job, args=(i,), name=f"sq{i}")
                    for i in range(6)]
            results, interventions = pool.run(jobs)
        assert interventions == []
        assert [r.value for r in results] == [i * i for i in range(6)]
        assert all(r.ok for r in results)

    def test_workers_are_reused_across_runs(self):
        with WorkerPool(max_workers=2) as pool:
            first, _ = pool.run([Job(fn=_pid_job, name=f"a{i}")
                                 for i in range(4)])
            second, _ = pool.run([Job(fn=_pid_job, name=f"b{i}")
                                  for i in range(4)])
            assert pool.jobs_run == 8
            assert pool.replacements == 0
        first_pids = {r.value for r in first}
        second_pids = {r.value for r in second}
        assert len(first_pids) <= 2
        assert first_pids == second_pids  # same processes, not respawns

    def test_run_parallel_pool_routing_and_report(self):
        with WorkerPool(max_workers=3) as pool:
            jobs = [Job(fn=_square_job, args=(i,), name=f"sq{i}")
                    for i in range(5)]
            report = run_parallel(jobs, pool=pool)
        assert report.n_failed == 0
        assert report.values() == [i * i for i in range(5)]
        assert report.max_workers == 3

    def test_close_is_idempotent_and_run_after_close_raises(self):
        pool = WorkerPool(max_workers=1)
        pool.run([Job(fn=_square_job, args=(2,), name="warm")])
        pool.close()
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.run([Job(fn=_square_job, args=(3,), name="late")])

    def test_heartbeat_files_match_live_workers_and_cleanup(self):
        pool = WorkerPool(max_workers=2)
        root = Path(pool._tmp.name)
        # One heartbeat file per live worker while the pool is up.
        deadline = time.monotonic() + 5.0
        while (len(list(root.glob("*.heartbeat"))) < 2
               and time.monotonic() < deadline):
            time.sleep(0.05)
        assert len(list(root.glob("*.heartbeat"))) == 2
        pool.close()
        assert not root.exists()  # whole directory removed with the pool


class TestWorkerPoolSupervision:
    def test_timeout_kills_and_replaces(self):
        with WorkerPool(max_workers=1) as pool:
            results, interventions = pool.run(
                [Job(fn=_sleep_job, name="hang")], timeout=0.5)
            assert not results[0].ok
            assert results[0].error_kind == "timeout"
            assert interventions[0]["action"] == "timeout-kill"
            assert pool.replacements == 1
            # The replacement worker serves the next sweep normally.
            results, _ = pool.run([Job(fn=_square_job, args=(3,), name="ok")])
            assert results[0].value == 9

    def test_job_timeout_field_overrides_run_timeout(self):
        with WorkerPool(max_workers=1) as pool:
            results, _ = pool.run(
                [Job(fn=_sleep_job, name="hang", timeout=0.5)], timeout=3600.0)
            assert results[0].error_kind == "timeout"

    def test_deadline_drops_queued_and_kills_running(self):
        with WorkerPool(max_workers=1) as pool:
            jobs = [Job(fn=_sleep_job, name="running"),
                    Job(fn=_sleep_job, name="queued")]
            results, interventions = pool.run(jobs, deadline=0.5)
        assert all(not r.ok and r.error_kind == "timeout" for r in results)
        actions = {i["action"] for i in interventions}
        assert actions == {"deadline-kill", "deadline-drop"}

    def test_stalled_worker_caught_by_heartbeat(self):
        with WorkerPool(max_workers=1, heartbeat_interval=0.05) as pool:
            results, interventions = pool.run(
                [Job(fn=_sigstop_job, name="stall")], heartbeat_timeout=0.5)
            assert results[0].error_kind == "timeout"
            assert interventions[0]["action"] == "heartbeat-kill"
            assert pool.replacements == 1


class TestPayloadCaching:
    def test_payload_is_cached_on_the_job(self):
        job = Job(fn=_square_job, args=(4,), name="sq")
        assert job.payload() is job.payload()
        assert _execute_payload(job.payload()).value == 16

    def test_payload_dropped_when_job_itself_is_pickled(self):
        job = Job(fn=_square_job, args=(4,), name="sq")
        job.payload()
        clone = pickle.loads(pickle.dumps(job))
        assert clone._payload is None  # no double-shipping of cached bytes
        assert _execute_payload(clone.payload()).value == 16

    def test_retries_reuse_one_serialization(self):
        """Regression: requeues/retries must not re-pickle the job.

        The job fn counts parent-side ``__reduce__`` calls; with
        ``retries=2`` the job is attempted three times on the pool, and
        the payload must have been serialized exactly once.
        """
        _REDUCE_CALLS["n"] = 0
        job = Job(fn=_CountedFailingFn(attempts_left=99), name="flaky")
        with WorkerPool(max_workers=1) as pool:
            report = run_parallel([job], pool=pool, retries=2)
        assert report.results[0].ok is False
        assert len(report.retried) == 2  # two requeued attempts before giving up
        assert _REDUCE_CALLS["n"] == 1

    def test_unpicklable_job_is_classified_not_fatal(self):
        with WorkerPool(max_workers=1) as pool:
            results, _ = pool.run(
                [Job(fn=lambda seed=None: 1, name="lambda")])
        assert not results[0].ok
        assert results[0].error_kind == "pickling"


class TestEphemeralPool:
    def test_no_pool_dir_left_after_run_parallel(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        report = run_parallel([Job(fn=_pool_dirs_job, name=f"j{i}")
                               for i in range(3)], max_workers=2)
        assert report.n_failed == 0, report.failures
        # The jobs ran on a pool that owned a heartbeat directory ...
        assert all(len(dirs) == 1 for dirs in report.values())
        # ... and run_parallel closed it before returning.
        assert sorted(tmp_path.glob("repro-pool-*")) == []

    def test_watchdog_routes_a_single_job_onto_a_pool(self):
        report = run_parallel([Job(fn=_pid_job, name="one")], timeout=60.0)
        assert report.results[0].ok
        assert report.values()[0] != os.getpid()
