"""Fabric unit tests: leases, fencing, the queue, degradation, janitor.

The cross-process split-brain battery (SIGKILL / SIGSTOP / clock skew /
two-daemon sweeps) lives in ``tests/test_chaos.py``; this file covers
the protocol pieces in isolation — token monotonicity, O_EXCL claim
races, queue validation and quarantine, store-backed dedup, graceful
degradation of a worker-less fabric, lease pruning, the worker CLI, and
the stale pool-directory janitor.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from repro.fabric import (
    FabricConfig,
    FabricQueue,
    FabricSubmitter,
    FabricWorker,
    LeaseLost,
    QueueCorrupt,
    highest_token,
    try_acquire,
    worker_identity,
)
from repro.fabric.probe import probe_job
from repro.faultinject import skew_lease
from repro.runtime import (
    Job,
    WorkerPool,
    pid_alive,
    run_parallel,
    sweep_stale_pool_dirs,
)
from repro.telemetry import Telemetry

_FORK = multiprocessing.get_context("fork")

# Fast timings for single-process protocol tests.
CFG = FabricConfig(lease_timeout=0.5, renew_interval=0.05, poll_interval=0.02,
                   worker_timeout=0.5, grace=0.2)


def _ok(value=1, seed=None):
    return value


def _dead_pid() -> int:
    proc = _FORK.Process(target=_ok)
    proc.start()
    proc.join()
    return proc.pid


def _age(path: Path, seconds: float) -> None:
    stat = path.stat()
    os.utime(path, (stat.st_atime - seconds, stat.st_mtime - seconds))


# ------------------------------------------------------------------- leases

class TestLease:
    def test_fresh_claim_gets_token_one(self, tmp_path):
        lease = try_acquire(tmp_path / "job", "job", "w1", 1.0)
        assert lease is not None
        assert lease.token == 1
        assert lease.superseded_token is None
        assert lease.path.read_text().strip() == "w1"

    def test_live_lease_cannot_be_stolen(self, tmp_path):
        assert try_acquire(tmp_path / "job", "job", "w1", 1.0) is not None
        assert try_acquire(tmp_path / "job", "job", "w2", 1.0) is None

    def test_expired_lease_stolen_with_next_token(self, tmp_path):
        first = try_acquire(tmp_path / "job", "job", "w1", 1.0)
        _age(first.path, 5.0)
        second = try_acquire(tmp_path / "job", "job", "w2", 1.0)
        assert second is not None and second.token == 2
        assert second.superseded_token == 1
        assert second.superseded_owner == "w1"
        # the second claimant of the same expired token loses the race
        _age(first.path, 5.0)
        assert try_acquire(tmp_path / "job", "job", "w3", 1.0) is None

    def test_fenced_lease_stops_renewing_and_raises(self, tmp_path):
        first = try_acquire(tmp_path / "job", "job", "w1", 1.0)
        assert first.renew()  # healthy: renewal freshens the heartbeat
        _age(first.path, 5.0)
        second = try_acquire(tmp_path / "job", "job", "w2", 1.0)
        assert second is not None
        assert not first.renew()  # fenced by the newer token
        assert first.lost
        with pytest.raises(LeaseLost):
            first.check()
        assert second.is_supreme()

    def test_vanished_token_counts_as_fenced(self, tmp_path):
        lease = try_acquire(tmp_path / "job", "job", "w1", 1.0)
        lease.path.unlink()
        assert not lease.renew()
        assert lease.lost

    def test_skew_lease_invites_a_steal(self, tmp_path):
        queue = FabricQueue(tmp_path / "fabric", config=CFG)
        job = Job(_ok, name="skewed")
        queue.enqueue(job, "j1", job.payload())
        assert try_acquire(queue.lease_dir("j1"), "j1", "w1",
                           CFG.lease_timeout) is not None
        # healthy heartbeat: no steal possible...
        assert try_acquire(queue.lease_dir("j1"), "j1", "w2",
                           CFG.lease_timeout) is None
        skew_lease(queue, "j1", 60.0)
        # ...but after the injected skew the same claim succeeds
        stolen = try_acquire(queue.lease_dir("j1"), "j1", "w2",
                             CFG.lease_timeout)
        assert stolen is not None and stolen.token == 2

    def test_tokens_sort_numerically(self, tmp_path):
        lease_dir = tmp_path / "job"
        lease = try_acquire(lease_dir, "job", "w", 1.0)
        for _ in range(10):
            _age(lease.path, 5.0)
            lease = try_acquire(lease_dir, "job", "w", 1.0)
        assert lease.token == 11
        assert highest_token(lease_dir)[0] == 11


# -------------------------------------------------------------------- queue

class TestQueue:
    def test_config_first_writer_wins(self, tmp_path):
        FabricQueue(tmp_path / "f", config=CFG)
        later = FabricQueue(tmp_path / "f",
                            config=FabricConfig(lease_timeout=99.0))
        assert later.config == CFG  # the file, not the argument, wins

    def test_config_validation(self):
        with pytest.raises(ValueError, match="renew_interval"):
            FabricConfig(lease_timeout=1.0, renew_interval=2.0).validate()
        with pytest.raises(ValueError, match="positive"):
            FabricConfig(lease_timeout=0.0).validate()

    def test_entry_round_trip(self, tmp_path):
        queue = FabricQueue(tmp_path / "f", config=CFG)
        job = Job(_ok, kwargs={"value": 5}, name="cell", timeout=3.0)
        payload = job.payload()
        queue.enqueue(job, "j1", payload, submitter="me")
        assert queue.entries() == ["j1"]
        entry = queue.read_entry("j1")
        assert entry.name == "cell" and entry.timeout == 3.0
        assert entry.payload_bytes == len(payload)
        assert queue.read_payload(entry) == payload

    def test_damaged_payload_is_queue_corrupt(self, tmp_path):
        queue = FabricQueue(tmp_path / "f", config=CFG)
        job = Job(_ok, name="cell")
        queue.enqueue(job, "j1", job.payload())
        entry = queue.read_entry("j1")
        payload_path = queue._payload_path("j1")
        payload_path.write_bytes(payload_path.read_bytes()[:4])
        with pytest.raises(QueueCorrupt, match="truncated"):
            queue.read_payload(entry)
        # same length, flipped bytes → hash mismatch
        payload_path.write_bytes(bytes(entry.payload_bytes))
        with pytest.raises(QueueCorrupt, match="corrupt"):
            queue.read_payload(entry)

    def test_result_envelope_highest_token_wins(self, tmp_path):
        queue = FabricQueue(tmp_path / "f", config=CFG)
        queue.commit_result("j1", 1, {"ok": True, "worker": "zombie"})
        queue.commit_result("j1", 2, {"ok": False, "worker": "thief"})
        envelope = queue.result_envelope("j1")
        assert envelope["worker"] == "thief" and envelope["token"] == 2
        # a stale writer committing *after* the thief changes nothing
        queue.commit_result("j1", 1, {"ok": True, "worker": "zombie-late"})
        assert queue.result_envelope("j1")["worker"] == "thief"

    def test_success_dedup_through_store(self, tmp_path):
        queue = FabricQueue(tmp_path / "f", config=CFG)
        from repro.runtime import JobResult

        sha = "ab" * 32
        queue.store_success(sha, JobResult(name="cell", ok=True, value=41))
        cached = queue.cached_success(sha)
        assert cached is not None and cached.value == 41
        assert queue.cached_success("cd" * 32) is None

    def test_failures_never_dedup(self, tmp_path):
        queue = FabricQueue(tmp_path / "f", config=CFG)
        from repro.runtime import JobResult

        sha = "ab" * 32
        queue.store_success(sha, JobResult(name="cell", ok=False,
                                           error="boom"))
        assert queue.cached_success(sha) is None  # failures re-run

    def test_worker_identity_is_host_and_pid(self):
        identity = worker_identity()
        assert str(os.getpid()) in identity
        assert worker_identity("abc").endswith("-abc")

    def test_prune_leases(self, tmp_path):
        queue = FabricQueue(tmp_path / "f", config=CFG)
        # job "done": superseded + current token, result committed
        done_dir = queue.lease_dir("done")
        lease = try_acquire(done_dir, "done", "w", CFG.lease_timeout)
        _age(lease.path, 5.0)
        try_acquire(done_dir, "done", "w", CFG.lease_timeout)
        queue.commit_result("done", 2, {"ok": True})
        # job "running": superseded + current token, no result
        running_dir = queue.lease_dir("running")
        lease = try_acquire(running_dir, "running", "w", CFG.lease_timeout)
        _age(lease.path, 5.0)
        current = try_acquire(running_dir, "running", "w", CFG.lease_timeout)
        # one stale + one fresh worker heartbeat
        queue.touch_worker("stale-w")
        _age(queue.workers_dir / "stale-w", 60.0)
        queue.touch_worker("fresh-w")

        removed = queue.prune_leases()
        assert not done_dir.exists()  # finished job: whole lease dir gone
        assert [p.name for p in running_dir.iterdir()] == [current.path.name]
        assert current.is_supreme()  # the live fence was never touched
        assert not (queue.workers_dir / "stale-w").exists()
        assert (queue.workers_dir / "fresh-w").exists()
        assert len(removed) == 4  # 2×done tokens + 1 superseded + 1 heartbeat


# -------------------------------------------------- degradation + submitter

class TestDegradation:
    def test_worker_less_fabric_runs_inline_and_reports(self, tmp_path):
        FabricQueue(tmp_path / "f", config=CFG)
        telemetry = Telemetry.in_memory()
        report = run_parallel(
            [Job(_ok, kwargs={"value": 3}, name="a"),
             Job(_ok, kwargs={"value": 4}, name="b")],
            fabric_dir=tmp_path / "f", telemetry=telemetry)
        assert report.values() == [3, 4]
        assert report.degraded
        assert "no live fabric workers" in report.degraded_reason
        assert any(act["action"] == "fabric-degraded"
                   for act in report.interventions)
        degraded_events = [e["payload"] for e in telemetry.sink.events
                          if e["type"] == "schedule.degraded"]
        assert degraded_events and "fabric" in degraded_events[0]["reason"]

    def test_resubmission_served_from_store_without_workers(self, tmp_path):
        FabricQueue(tmp_path / "f", config=CFG)
        jobs = lambda: [Job(_ok, kwargs={"value": v}, name=f"j{v}")
                        for v in (7, 8)]
        first = run_parallel(jobs(), fabric_dir=tmp_path / "f")
        assert first.degraded and first.values() == [7, 8]
        start = time.monotonic()
        second = run_parallel(jobs(), fabric_dir=tmp_path / "f")
        assert second.values() == [7, 8]
        assert not second.degraded  # nothing pending: dedup, not degrade
        assert time.monotonic() - start < CFG.grace + 2.0

    def test_batch_deadline_drops_pending_jobs(self, tmp_path):
        config = FabricConfig(lease_timeout=0.5, renew_interval=0.05,
                              poll_interval=0.02, worker_timeout=0.5,
                              grace=60.0)  # never degrade: force the deadline
        queue = FabricQueue(tmp_path / "f", config=config)
        submitter = FabricSubmitter(tmp_path / "f")
        results, interventions, _ = submitter.run_batch(
            [Job(_ok, name="dropped")], deadline=0.3)
        assert len(results) == 1 and not results[0].ok
        assert results[0].error_kind == "timeout"
        assert any(act["action"] == "deadline-drop" for act in interventions)
        assert queue.result_envelope(queue.entries()[0]) is None

    def test_fabric_and_pool_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(ValueError, match="mutually exclusive"):
            run_parallel([Job(_ok)], fabric_dir=tmp_path / "f",
                         pool=object())


# ------------------------------------------------------------ in-process run

class TestWorkerLoop:
    def test_scan_executes_and_commits(self, tmp_path):
        queue = FabricQueue(tmp_path / "f", config=CFG)
        job = Job(_ok, kwargs={"value": 17}, name="cell")
        queue.enqueue(job, "j1", job.payload())
        worker = FabricWorker(queue, worker_id="w1", supervise=False)
        assert worker.scan_once()
        assert not worker.scan_once()  # envelope committed: nothing left
        envelope = queue.result_envelope("j1")
        assert envelope["ok"] and envelope["worker"] == "w1"
        assert queue.load_result("j1", envelope).value == 17
        assert worker.jobs_completed == 1

    def test_job_filter_restricts_claims(self, tmp_path):
        queue = FabricQueue(tmp_path / "f", config=CFG)
        for job_id in ("mine", "theirs"):
            job = Job(_ok, name=job_id)
            queue.enqueue(job, job_id, job.payload())
        worker = FabricWorker(queue, worker_id="w1", supervise=False,
                              job_filter={"mine"})
        assert worker.work(idle_exit=0.1) == 1
        assert queue.result_envelope("mine") is not None
        assert queue.result_envelope("theirs") is None

    def test_failure_envelope_carries_taxonomy(self, tmp_path):
        queue = FabricQueue(tmp_path / "f", config=CFG)
        job = Job(_raises, name="boom")
        queue.enqueue(job, "j1", job.payload())
        FabricWorker(queue, worker_id="w1", supervise=False).scan_once()
        envelope = queue.result_envelope("j1")
        assert not envelope["ok"] and envelope["error_kind"] == "crash"
        result = queue.load_result("j1", envelope)
        assert "ValueError" in result.error
        # failures are queue-local: nothing was deduplicated to the store
        assert queue.cached_success(envelope["payload_sha256"]) is None

    def test_worker_cli_drains_a_queue(self, tmp_path):
        fabric = tmp_path / "fabric"
        queue = FabricQueue(fabric, config=CFG)
        job = Job(probe_job, name="cli-cell", kwargs={"steps": 8, "seed": 5})
        queue.enqueue(job, "j1", job.payload())
        env = dict(os.environ)
        src = Path(__file__).resolve().parent.parent / "src"
        env["PYTHONPATH"] = f"{src}{os.pathsep}" + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.fabric.worker", str(fabric),
             "--max-jobs", "1", "--idle-exit", "5", "--worker-id", "cli-w",
             "--no-supervise"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "completed 1 jobs" in proc.stdout
        envelope = queue.result_envelope("j1")
        assert envelope["ok"] and envelope["worker"] == "cli-w"
        assert queue.load_result("j1", envelope).value == probe_job(steps=8,
                                                                    seed=5)


def _raises(seed=None):
    raise ValueError("injected failure")


# ------------------------------------------------------------------ janitor

class TestJanitor:
    def test_pid_alive(self):
        assert pid_alive(os.getpid())
        assert not pid_alive(_dead_pid())
        assert not pid_alive(-1)

    def test_sweep_pool_dirs_only_dead_owners(self, tmp_path):
        dead = tmp_path / "repro-pool-dead"
        dead.mkdir()
        (dead / "owner.pid").write_text(f"{_dead_pid()}\n")
        live = tmp_path / "repro-pool-live"
        live.mkdir()
        (live / "owner.pid").write_text(f"{os.getpid()}\n")
        unstamped = tmp_path / "repro-pool-unstamped"
        unstamped.mkdir()  # no owner file: not provably ours, never touched
        removed = sweep_stale_pool_dirs(tmp_path)
        assert removed == [dead]
        assert not dead.exists() and live.exists() and unstamped.exists()

    def test_worker_pool_init_sweeps_orphans(self):
        root = Path(tempfile.gettempdir())
        orphan = root / f"repro-pool-orphan-{os.urandom(4).hex()}"
        orphan.mkdir()
        (orphan / "owner.pid").write_text(f"{_dead_pid()}\n")
        try:
            with WorkerPool(max_workers=1) as pool:
                assert not orphan.exists()  # swept during __init__
                assert (Path(pool._tmp.name) / "owner.pid").exists()
        finally:
            if orphan.exists():
                import shutil

                shutil.rmtree(orphan)


# ----------------------------------------------------------------- store gc

class TestStoreGcLeases:
    def test_leases_subcommand_prunes(self, tmp_path):
        queue = FabricQueue(tmp_path / "fabric", config=CFG)
        lease = try_acquire(queue.lease_dir("done"), "done", "w",
                            CFG.lease_timeout)
        queue.commit_result("done", lease.token, {"ok": True})
        script = Path(__file__).resolve().parent.parent / "scripts" / "store_gc.py"
        proc = subprocess.run(
            [sys.executable, str(script), "leases",
             "--fabric-dir", str(tmp_path / "fabric"), "--yes"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "removed 1 lease" in proc.stdout
        assert not queue.lease_dir("done").exists()
