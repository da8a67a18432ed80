"""Chaos battery: the fault-containment layer under injected faults.

Every fault here is produced by :mod:`repro.faultinject` — seeded,
step-addressed, marker-file counted — so failures replay exactly.

1. Env faults: ``FaultyEnv`` raises / emits NaN at specified steps,
   deterministically per injector seed.
2. Numerical-health guards: NaN/Inf/magnitude violations raise
   structured ``NumericalDivergence`` before any optimizer or
   checkpoint mutation.
3. Watchdog: hung, stalled (SIGSTOP), and crashed workers are killed
   and classified; sweep deadlines always terminate.
4. Scheduler containment: retries with seeded backoff, a crash retried
   on the same worker pool without touching its neighbours, and the
   acceptance sweep — one hang, one crash, one NaN divergence,
   everything else succeeds and the diverged cell recovers
   bit-identically from its last healthy checkpoint.
5. Store corruption: a truncated blob behind a valid sidecar is caught
   by ``verify`` and treated as a cache miss by ``get``.
"""

from __future__ import annotations

import os
import pickle
import signal
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import envs
from repro.attacks import AttackConfig
from repro.attacks.imap.regularizers import RiskRegularizer
from repro.fabric import FabricConfig, FabricQueue, FabricWorker
from repro.faultinject import (
    FaultInjectionError,
    FaultInjector,
    FaultSpec,
    WorkerFault,
    skew_lease,
    truncate_blob,
    truncate_queue_entry,
)
from repro.nn import as_tensor
from repro.rl import (
    NumericalDivergence,
    TrainConfig,
    check_finite,
    check_gradients,
    train_ppo,
)
from repro.runtime import (
    ERROR_KINDS,
    Job,
    WorkerPool,
    WorkerTimeout,
    compute_backoff,
    classify_exception,
    run_parallel,
)
from repro.store import ArtifactStore
from repro.telemetry import Telemetry

SEED = 5
STEPS = 64


# ----------------------------------------------------- picklable job helpers

def _ok_job(value=1, seed=None):
    return value


def _value_and_pid_job(value=1, seed=None):
    return value, os.getpid()


def _sleep_job(seconds=3600.0, seed=None):
    time.sleep(seconds)
    return "woke"


def _sigstop_job(seed=None):
    # Freeze this worker process without exiting: heartbeat thread stops
    # beating while the process stays "alive" — the stalled-worker case.
    os.kill(os.getpid(), signal.SIGSTOP)
    return "resumed"


def _backoff_schedule(seed, rounds=6):
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return [compute_backoff(0.2, r, rng) for r in range(1, rounds + 1)]


def _send_backoff_schedule(conn, seed):
    conn.send(_backoff_schedule(seed))
    conn.close()


@dataclass
class _InjectedNaNLoss:
    """extra_loss hook that returns one NaN once armed, else exact zero.

    Arming is two-stage so the fault fires *after* a healthy checkpoint
    exists: the training callback writes ``phase_path`` when iteration 0
    completes, and the first extra-loss call after that claims
    ``marker`` (O_EXCL, cross-process) and returns NaN.  With
    ``marker=None`` the hook is inert but still runs the same zero-loss
    code path, so faulted-and-recovered runs stay bit-comparable to an
    unfaulted baseline.
    """

    marker: str | None = None
    phase_path: str | None = None

    def __call__(self, policy, obs, dist):
        if (self.marker is not None and self.phase_path is not None
                and os.path.exists(self.phase_path)):
            try:
                os.close(os.open(self.marker,
                                 os.O_CREAT | os.O_EXCL | os.O_WRONLY))
                return as_tensor(float("nan"))
            except FileExistsError:
                pass
        return as_tensor(0.0)


def _train_job(checkpoint_path=None, checkpoint_every=0, nan_marker=None,
               phase_path=None, hang_marker=None, iterations=3, seed=None):
    """Picklable training cell with optional injected NaN loss or hang.

    ``nan_marker``+``phase_path``: diverge once during iteration 1 (see
    :class:`_InjectedNaNLoss`).  ``hang_marker``: hang once in the
    iteration-1 callback (after iteration 0 checkpointed) — pair with a
    supervisor timeout.  Returns history + final parameters so tests can
    assert bit-identical recovery.
    """
    extra = _InjectedNaNLoss(marker=nan_marker, phase_path=phase_path)

    def callback(iteration, policy, record):
        if phase_path is not None and iteration == 0:
            open(phase_path, "w").close()
        if hang_marker is not None and iteration == 1:
            try:
                os.close(os.open(hang_marker,
                                 os.O_CREAT | os.O_EXCL | os.O_WRONLY))
                time.sleep(3600.0)
            except FileExistsError:
                pass

    config = TrainConfig(iterations=iterations, steps_per_iteration=STEPS,
                         seed=SEED)
    result = train_ppo(envs.make("Hopper-v0"), config, extra_loss=extra,
                       callback=callback, checkpoint_path=checkpoint_path,
                       checkpoint_every=checkpoint_every)
    return {"history": result.history, "params": result.policy.state_dict()}


def _assert_same_outcome(actual: dict, baseline: dict) -> None:
    assert actual["history"] == baseline["history"]
    assert sorted(actual["params"]) == sorted(baseline["params"])
    for key, value in baseline["params"].items():
        np.testing.assert_array_equal(actual["params"][key], value,
                                      err_msg=key)


# -------------------------------------------------------------- env faults

class TestFaultyEnv:
    def _env(self, *specs, seed=0):
        injector = FaultInjector(seed=seed)
        return injector, injector.wrap_env(envs.make("Hopper-v0"), *specs)

    def test_raise_at_exact_step(self):
        injector, env = self._env(FaultSpec("raise", at_step=3))
        env.reset(seed=0)
        action = np.zeros(env.action_space.shape)
        with injector:
            env.step(action)
            env.step(action)
            with pytest.raises(FaultInjectionError, match="step 3"):
                env.step(action)
        assert injector.fired == [(3, "raise")]

    def test_nan_poisons_obs_and_reward_once(self):
        injector, env = self._env(FaultSpec("nan", at_step=2))
        env.reset(seed=0)
        action = np.zeros(env.action_space.shape)
        with injector:
            obs1, reward1, *_ = env.step(action)
            obs2, reward2, *_ = env.step(action)
            obs3, reward3, *_ = env.step(action)
        assert np.isfinite(obs1).all() and np.isfinite(reward1)
        assert np.isnan(obs2).all() and np.isnan(reward2)
        assert np.isfinite(obs3).all() and np.isfinite(reward3)  # once=True

    def test_probabilistic_faults_replay_identically(self):
        def fire_steps(seed):
            injector, env = self._env(
                FaultSpec("nan", probability=0.3, once=False), seed=seed)
            env.reset(seed=0)
            action = np.zeros(env.action_space.shape)
            with injector:
                for _ in range(30):
                    env.step(action)
            return injector.fired

        assert fire_steps(11) == fire_steps(11)
        assert fire_steps(11) != fire_steps(12)

    def test_inactive_injector_passes_through(self):
        injector, env = self._env(FaultSpec("raise", at_step=1))
        env.reset(seed=0)
        env.step(np.zeros(env.action_space.shape))  # no `with`: no fault
        assert injector.fired == []

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("explode", at_step=1)
        with pytest.raises(ValueError, match="can never fire"):
            FaultSpec("raise")
        with pytest.raises(ValueError, match="unknown worker fault kind"):
            WorkerFault(_ok_job, "explode", "marker")


# ------------------------------------------------------------ health guards

class TestHealthGuards:
    def test_clean_values_pass_through(self):
        values = np.array([1.0, -2.0, 3.0])
        assert check_finite("returns", values) is values

    def test_nan_raises_with_stats(self):
        with pytest.raises(NumericalDivergence) as excinfo:
            check_finite("returns", np.array([1.0, np.nan, np.inf]),
                         iteration=4)
        err = excinfo.value
        assert err.what == "returns" and err.iteration == 4
        assert err.stats["nan"] == 1 and err.stats["inf"] == 1
        assert "returns" in str(err) and "iteration 4" in str(err)

    def test_magnitude_guard(self):
        check_finite("loss", 1e5, max_abs=1e6)
        with pytest.raises(NumericalDivergence, match="loss"):
            check_finite("loss", -1e9, max_abs=1e6)

    def test_gradient_guard(self):
        class Param:
            def __init__(self, grad):
                self.grad = grad

        check_gradients([Param(np.ones(3)), Param(None)])
        with pytest.raises(NumericalDivergence, match="gradients"):
            check_gradients([Param(np.array([1.0, np.nan]))])

    def test_regularizer_bonus_guard(self):
        reg = RiskRegularizer(AttackConfig())
        with pytest.raises(NumericalDivergence, match="RiskRegularizer"):
            reg._checked(np.array([0.0, np.nan]))

    def test_nan_loss_aborts_training_before_checkpoint(self, tmp_path):
        phase = tmp_path / "phase"
        open(phase, "w").close()  # armed from the start ...
        ckpt = tmp_path / "ppo.ckpt.npz"
        with pytest.raises(NumericalDivergence, match="loss"):
            _train_job(checkpoint_path=str(ckpt), checkpoint_every=1,
                       nan_marker=str(tmp_path / "nan"),
                       phase_path=str(phase))
        # ... so the divergence hit in iteration 0, before any checkpoint.
        assert not ckpt.exists()

    def test_classification_taxonomy(self):
        assert classify_exception(RuntimeError("boom")) == "crash"
        assert classify_exception(TimeoutError()) == "timeout"
        assert classify_exception(WorkerTimeout()) == "timeout"
        assert classify_exception(pickle.PicklingError("no")) == "pickling"
        try:
            check_finite("x", np.array([np.nan]))
        except NumericalDivergence as exc:
            assert classify_exception(exc) == "numerical"
        from repro.fabric import LeaseLost, QueueCorrupt
        assert classify_exception(LeaseLost("fenced")) == "lease_lost"
        assert classify_exception(QueueCorrupt("garbled")) == "queue_corrupt"
        assert set(ERROR_KINDS) == {
            "crash", "timeout", "numerical", "pickling",
            "lease_lost", "orphaned", "queue_corrupt"}


# ----------------------------------------------------------------- watchdog

class TestSupervisor:
    def test_hung_worker_killed_at_timeout(self):
        start = time.perf_counter()
        report = run_parallel([
            Job(_ok_job, kwargs={"value": 7}, name="fine"),
            Job(_sleep_job, name="hung", timeout=1.0),
        ], max_workers=2)
        assert time.perf_counter() - start < 30.0  # not 3600
        by_name = {r.name: r for r in report.results}
        assert by_name["fine"].ok and by_name["fine"].value == 7
        assert not by_name["hung"].ok
        assert by_name["hung"].error_kind == "timeout"
        assert any(act["action"] == "timeout-kill"
                   for act in report.interventions)

    def test_crashed_worker_classified_and_retried(self, tmp_path):
        marker = tmp_path / "crash-once"
        report = run_parallel(
            [Job(WorkerFault(_ok_job, "crash", str(marker)),
                 kwargs={"value": 3}, name="crashy")],
            retries=1, timeout=60.0)
        result = report.results[0]
        assert result.ok and result.value == 3 and result.attempts == 2
        (attempt, failed), = [r for r in report.retried]
        assert attempt == 1 and failed.error_kind == "crash"
        assert "exited with code 13" in failed.error

    def test_stalled_worker_caught_by_heartbeat(self):
        report = run_parallel([Job(_sigstop_job, name="stalled")],
                              heartbeat_timeout=1.0)
        result = report.results[0]
        assert not result.ok and result.error_kind == "timeout"
        assert "heartbeat" in result.error
        assert any(act["action"] == "heartbeat-kill"
                   for act in report.interventions)

    def test_sweep_deadline_terminates_everything(self):
        start = time.perf_counter()
        report = run_parallel(
            [Job(_sleep_job, name=f"h{i}") for i in range(3)],
            max_workers=1, deadline=1.5)
        assert time.perf_counter() - start < 30.0
        assert all(r.error_kind == "timeout" for r in report.results)
        actions = {act["action"] for act in report.interventions}
        assert "deadline-kill" in actions and "deadline-drop" in actions


# --------------------------------------------------------- retries + backoff

class TestRetryBackoff:
    def test_backoff_is_seeded_and_exponential(self):
        a = [compute_backoff(0.1, r, np.random.default_rng(3))
             for r in (1, 2, 3)]
        b = [compute_backoff(0.1, r, np.random.default_rng(3))
             for r in (1, 2, 3)]
        assert a == b  # same seed, same delays
        for round_index, delay in enumerate(a, start=1):
            scale = 0.1 * 2 ** (round_index - 1)
            assert 0.5 * scale <= delay <= scale

    def test_zero_base_disables_backoff_without_touching_rng(self):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        assert compute_backoff(0.0, 5, rng) == 0.0
        assert rng.bit_generator.state == before

    def test_run_parallel_sleeps_between_retry_rounds(self, tmp_path):
        marker = tmp_path / "raise-twice"
        start = time.perf_counter()
        report = run_parallel(
            [Job(WorkerFault(_ok_job, "raise", str(marker), times=2),
                 name="flaky")],
            retries=2, retry_backoff=0.2, backoff_seed=1)
        elapsed = time.perf_counter() - start
        assert report.results[0].ok and report.results[0].attempts == 3
        assert elapsed >= 0.2  # round 1 ≥ 0.1, round 2 ≥ 0.2

    def test_rounds_beyond_the_cap_stay_bounded(self):
        # 2^9999 would overflow float; the exponent clamp + cap must not.
        delay = compute_backoff(1.0, 10_000, np.random.default_rng(0))
        assert 0.0 < delay <= 60.0
        assert compute_backoff(5.0, 1_000, np.random.default_rng(1),
                               cap=2.5) <= 2.5
        # The cap bounds the scale *before* jitter, so delays never grow
        # past cap no matter the round.
        rng = np.random.default_rng(2)
        delays = [compute_backoff(0.5, r, rng) for r in range(1, 80)]
        assert max(delays) <= 60.0
        assert all(d > 0.0 for d in delays)

    def test_zero_backoff_never_sleeps(self, tmp_path, monkeypatch):
        import repro.runtime.scheduler as sched_mod

        sleeps: list[float] = []
        monkeypatch.setattr(sched_mod.time, "sleep",
                            lambda s: sleeps.append(s))
        marker = tmp_path / "raise-twice-nosleep"
        report = run_parallel(
            [Job(WorkerFault(_ok_job, "raise", str(marker), times=2),
                 name="flaky")],
            retries=2, retry_backoff=0.0, backoff_seed=1)
        assert report.results[0].ok and report.results[0].attempts == 3
        assert sleeps == []

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40))
    def test_identical_seed_yields_identical_schedule(self, seed, rounds):
        def schedule():
            rng = np.random.default_rng(np.random.SeedSequence(seed))
            return [compute_backoff(0.3, r, rng) for r in range(1, rounds + 1)]

        assert schedule() == schedule()

    def test_schedule_identical_across_processes(self):
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        parent, child = ctx.Pipe()
        proc = ctx.Process(target=_send_backoff_schedule, args=(child, 123))
        proc.start()
        remote = parent.recv()
        proc.join(timeout=10)
        assert remote == _backoff_schedule(123)


# ---------------------------------------------------------- crash containment

class TestCrashContainment:
    def test_crash_retried_on_the_pool_neighbours_untouched(self, tmp_path):
        """A worker crash fails only its own job, and the one-job retry
        round runs on the same pool — never inline, where a second crash
        would take the parent down."""
        marker = tmp_path / "crash-once"
        jobs = [Job(WorkerFault(_value_and_pid_job, "crash", str(marker)),
                    kwargs={"value": 0}, name="crasher")]
        jobs += [Job(_value_and_pid_job, kwargs={"value": i}, name=f"ok{i}")
                 for i in (1, 2, 3)]
        report = run_parallel(jobs, max_workers=2, retries=1)
        assert report.n_failed == 0, report.failures
        crasher = report.results[0]
        assert crasher.ok and crasher.attempts == 2
        (attempt, failed), = report.retried
        assert attempt == 1 and failed.name == "crasher"
        assert failed.error_kind == "crash"
        assert [r.attempts for r in report.results[1:]] == [1, 1, 1]
        assert [value for value, _ in report.values()] == [0, 1, 2, 3]
        # Every attempt, the retry included, ran in a worker process.
        assert all(pid != os.getpid() for _, pid in report.values())
        assert not report.degraded


# ------------------------------------------------------------ the acceptance

class TestAcceptanceSweep:
    def test_faulted_sweep_contains_all_three_faults(self, tmp_path):
        baseline = _train_job(iterations=3)

        jobs = [
            Job(_ok_job, kwargs={"value": 11}, name="cell-a"),
            Job(_train_job, name="diverge", checkpointable=True,
                kwargs={"nan_marker": str(tmp_path / "nan"),
                        "phase_path": str(tmp_path / "phase")}),
            Job(WorkerFault(_ok_job, "hang", str(tmp_path / "hang"),
                            times=99), name="hung", timeout=1.5),
            Job(WorkerFault(_ok_job, "crash", str(tmp_path / "crash")),
                kwargs={"value": 33}, name="crashed"),
            Job(_ok_job, kwargs={"value": 22}, name="cell-b"),
        ]
        telemetry = Telemetry.in_memory()
        report = run_parallel(jobs, max_workers=2, retries=1, timeout=90.0,
                              checkpoint_dir=tmp_path / "ckpts",
                              checkpoint_every=1, telemetry=telemetry)

        by_name = {r.name: r for r in report.results}
        # Every healthy cell succeeded despite its faulty neighbours.
        assert by_name["cell-a"].ok and by_name["cell-a"].value == 11
        assert by_name["cell-b"].ok and by_name["cell-b"].value == 22
        # The permanently hung cell was killed (twice) and classified.
        assert not by_name["hung"].ok
        assert by_name["hung"].error_kind == "timeout"
        assert by_name["hung"].attempts == 2
        # The crash was classified and its retry succeeded.
        assert by_name["crashed"].ok and by_name["crashed"].value == 33
        assert by_name["crashed"].attempts == 2
        # Requeued attempts carry the correct taxonomy tags.
        retried_kinds = {r.name: r.error_kind for _, r in report.retried}
        assert retried_kinds["crashed"] == "crash"
        assert retried_kinds["diverge"] == "numerical"
        assert retried_kinds["hung"] == "timeout"
        # The diverged cell recovered bit-identically from the last
        # healthy checkpoint (iteration 1, written before the NaN fired).
        assert by_name["diverge"].ok and by_name["diverge"].attempts == 2
        _assert_same_outcome(by_name["diverge"].value, baseline)
        # ... and telemetry classified every requeued attempt.
        attempts = [e["payload"] for e in telemetry.sink.events
                    if e["type"] == "job.attempt"]
        assert ({(p["name"], p["error_kind"]) for p in attempts}
                >= {("crashed", "crash"), ("diverge", "numerical"),
                    ("hung", "timeout")})

    def test_kill_and_resume_under_injected_hang(self, tmp_path):
        baseline = _train_job(iterations=3)
        report = run_parallel(
            [Job(_train_job, name="hangs-mid-train", checkpointable=True,
                 kwargs={"hang_marker": str(tmp_path / "hang")},
                 timeout=10.0)],
            retries=1, checkpoint_dir=tmp_path / "ckpts", checkpoint_every=1)
        result = report.results[0]
        assert result.ok and result.attempts == 2
        (attempt, failed), = report.retried
        assert failed.error_kind == "timeout"
        # Killed mid-iteration-1; the retry resumed from iteration 1's
        # checkpoint and finished exactly as a run that never hung.
        _assert_same_outcome(result.value, baseline)


# ------------------------------------------------------------ store faults

class TestStoreCorruption:
    def _store(self, tmp_path) -> tuple[ArtifactStore, str]:
        store = ArtifactStore(tmp_path / "store")
        entry = store.put({"kind": "victim", "env_id": "Hopper-v0"},
                          {"w": np.arange(64, dtype=np.float64)})
        return store, entry.key

    def test_truncated_blob_reported_by_verify(self, tmp_path):
        store, key = self._store(tmp_path)
        assert store.verify() == []
        truncate_blob(store, key)
        problems = store.verify()
        assert len(problems) == 1
        assert "truncated" in problems[0] or "bytes" in problems[0]

    def test_truncated_blob_is_a_cache_miss(self, tmp_path):
        store, key = self._store(tmp_path)
        spec = {"kind": "victim", "env_id": "Hopper-v0"}
        assert store.get(spec) is not None
        truncate_blob(store, key)
        assert store.get(spec) is None  # caller falls back to retraining

    def test_truncate_requires_committed_artifact(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        with pytest.raises(FileNotFoundError):
            truncate_blob(store, "0" * 64)


# ---------------------------------------------------- persistent pool chaos

def _rollout_job(seed=7):
    """Deterministic mini-rollout: real env stepping inside the worker."""
    env = envs.make("Hopper-v0")
    env.seed(seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    obs = env.reset()
    total = 0.0
    for _ in range(STEPS):
        obs, reward, terminated, truncated, _ = env.step(
            rng.uniform(-1.0, 1.0, size=env.action_space.shape))
        total += reward
        if terminated or truncated:
            obs = env.reset()
    return {"total": total, "final_obs": np.asarray(obs).tolist()}


class TestWorkerPoolChaos:
    def test_worker_killed_mid_rollout_requeued_bit_identical(self, tmp_path):
        """SIGKILL-equivalent crash mid-job: classified, replaced, retried.

        The fault fires once (marker-counted), so the retry on the
        replacement worker runs the rollout clean — and must return the
        same bits an unfaulted inline run produces.
        """
        marker = tmp_path / "pool-crash"
        job = Job(fn=WorkerFault(_rollout_job, "crash", str(marker)),
                  name="rollout")
        with WorkerPool(max_workers=2) as pool:
            report = run_parallel([job], pool=pool, retries=1)
            assert pool.replacements == 1
            heartbeats = list(Path(pool._tmp.name).glob("*.heartbeat"))
            assert len(heartbeats) == 2  # dead worker's file was removed
        assert report.n_failed == 0
        assert len(report.retried) == 1
        assert report.retried[0][1].error_kind == "crash"
        assert "exited with code 13" in report.retried[0][1].error
        assert report.values()[0] == _rollout_job()

    def test_crash_without_retry_is_contained(self, tmp_path):
        """No retries: the crash is a classified failure, not an exception,
        and the refilled pool keeps serving subsequent sweeps."""
        marker = tmp_path / "pool-crash-noretry"
        with WorkerPool(max_workers=1) as pool:
            report = run_parallel(
                [Job(fn=WorkerFault(_ok_job, "crash", str(marker)),
                     name="boom")], pool=pool)
            assert report.results[0].error_kind == "crash"
            follow_up = run_parallel(
                [Job(fn=_ok_job, args=(5,), name="after")], pool=pool)
        assert follow_up.values() == [5]

    def test_no_stale_files_after_graceful_close_and_sigkill(self):
        """Neither shutdown mode leaves the heartbeat directory behind."""
        pool = WorkerPool(max_workers=2)
        root = Path(pool._tmp.name)
        pool.run([Job(fn=_ok_job, args=(1,), name="warm")])
        pool.close()
        assert not root.exists()

        pool = WorkerPool(max_workers=2)
        root = Path(pool._tmp.name)
        pool.run([Job(fn=_ok_job, args=(1,), name="warm")])
        for worker in list(pool._live):
            os.kill(worker.process.pid, signal.SIGKILL)
            worker.process.join(5.0)
        pool.close()  # close after carnage still cleans the directory
        assert not root.exists()

# ------------------------------------------------- fabric split-brain battery

from repro.fabric import highest_token, try_acquire  # noqa: E402
from repro.fabric.probe import probe_job  # noqa: E402

_FORK = __import__("multiprocessing").get_context("fork")
# Aggressive timings so steals happen in test time; worker_timeout is
# deliberately *shorter* than lease_timeout, so by the time a token is
# stealable its dead owner's daemon heartbeat is unambiguously stale.
_FAB_CFG = FabricConfig(lease_timeout=1.0, renew_interval=0.1,
                        poll_interval=0.05, worker_timeout=0.5, grace=30.0)


def _fabric_daemon(fabric_dir, worker_id, supervise=False, idle_exit=None,
                   max_jobs=None):
    """Fork-process target: one worker daemon draining the shared dir."""
    queue = FabricQueue(fabric_dir)
    worker = FabricWorker(queue, worker_id=worker_id, supervise=supervise)
    worker.work(idle_exit=idle_exit, max_jobs=max_jobs)


def _wait_for(predicate, timeout=60.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestFabricSplitBrain:
    def test_sigkill_mid_lease_stolen_and_bit_identical(self, tmp_path):
        """Daemon SIGKILLed mid-job: the job is re-leased by a second
        daemon, resumed from its fabric checkpoint, recorded as an
        ``orphaned`` steal, and completes bit-identically."""
        import threading

        baseline = _train_job(iterations=3)
        fabric = tmp_path / "fabric"
        queue = FabricQueue(fabric, config=_FAB_CFG)
        hang = tmp_path / "hang"
        daemon_a = _FORK.Process(target=_fabric_daemon,
                                 args=(str(fabric), "daemon-a"))
        daemon_a.start()
        spawned: dict = {}
        chaos_errors: list[str] = []

        def chaos():
            # The job claims `hang` inside iteration 1, after iteration
            # 1's checkpoint hit the shared dir — that's "mid-lease".
            if not _wait_for(hang.exists, timeout=120.0):
                chaos_errors.append("job never reached the hang marker")
                return
            os.kill(daemon_a.pid, signal.SIGKILL)
            daemon_b = _FORK.Process(target=_fabric_daemon,
                                     args=(str(fabric), "daemon-b"),
                                     kwargs={"idle_exit": 2.0})
            daemon_b.start()
            spawned["daemon_b"] = daemon_b

        thread = threading.Thread(target=chaos)
        thread.start()
        report = run_parallel(
            [Job(_train_job, name="stolen-cell", checkpointable=True,
                 kwargs={"hang_marker": str(hang)})],
            fabric_dir=fabric, checkpoint_every=1)
        thread.join()
        assert chaos_errors == []
        daemon_a.join(5.0)
        spawned["daemon_b"].join(30.0)

        result = report.results[0]
        assert result.ok
        # Resumed on daemon-b from daemon-a's checkpoint: same bits as a
        # run that was never interrupted.
        _assert_same_outcome(result.value, baseline)
        # The steal was surfaced as an orphaned attempt in the report.
        assert "orphaned" in [r.error_kind for _, r in report.retried]
        job_id, = queue.entries()
        envelope = queue.result_envelope(job_id)
        assert envelope["worker"] == "daemon-b"
        assert envelope["token"] == 2  # the thief's newer fencing token
        assert not report.degraded

    def test_sigstop_zombie_fences_itself(self, tmp_path):
        """Daemon SIGSTOPped past the heartbeat timeout: its job is
        stolen and completed; on SIGCONT the zombie must abandon its
        result (``lease_lost``) — the committed envelope is the thief's."""
        fabric = tmp_path / "fabric"
        queue = FabricQueue(fabric, config=_FAB_CFG)
        started = tmp_path / "started"
        release = tmp_path / "release"
        job = Job(probe_job, name="held",
                  kwargs={"steps": 16, "start_marker": str(started),
                          "hold_until": str(release), "seed": 3})
        job_id = "000001-held"
        queue.enqueue(job, job_id, job.payload())

        zombie = _FORK.Process(target=_fabric_daemon,
                               args=(str(fabric), "zombie-a"),
                               kwargs={"idle_exit": 2.0})
        zombie.start()
        assert _wait_for(started.exists)
        os.kill(zombie.pid, signal.SIGSTOP)  # freeze mid-job: heartbeats stop
        time.sleep(_FAB_CFG.lease_timeout + 0.3)  # let token t1 go stale

        thief = _FORK.Process(target=_fabric_daemon,
                              args=(str(fabric), "thief-b"),
                              kwargs={"idle_exit": 2.0})
        thief.start()
        assert _wait_for(lambda: (highest_token(queue.lease_dir(job_id))
                                  or (0,))[0] >= 2)
        release.touch()
        assert _wait_for(lambda: queue.result_envelope(job_id) is not None)
        os.kill(zombie.pid, signal.SIGCONT)
        zombie.join(30.0)
        thief.join(30.0)

        envelope = queue.result_envelope(job_id)
        assert envelope["token"] == 2 and envelope["worker"] == "thief-b"
        kinds = {record["error_kind"] for record in queue.attempts(job_id)}
        assert "lease_lost" in kinds  # the zombie abandoned, not published
        assert "orphaned" in kinds    # the thief logged the dead-looking owner
        result = queue.load_result(job_id, envelope)
        assert result.ok
        assert result.value == probe_job(steps=16, seed=3)  # markers change nothing

    def test_clock_skewed_steal_makes_owner_abandon(self, tmp_path):
        """A claimant whose clock runs fast steals a *healthy* lease.
        Both sides are alive: the owner must fence itself and abandon,
        and nobody records it as orphaned (it reports for itself)."""
        fabric = tmp_path / "fabric"
        queue = FabricQueue(fabric, config=_FAB_CFG)
        started = tmp_path / "started"
        release = tmp_path / "release"
        job = Job(probe_job, name="skewed",
                  kwargs={"steps": 16, "start_marker": str(started),
                          "hold_until": str(release), "seed": 4})
        job_id = "000001-skewed"
        queue.enqueue(job, job_id, job.payload())

        owner = _FORK.Process(target=_fabric_daemon,
                              args=(str(fabric), "owner-a"),
                              kwargs={"idle_exit": 2.0})
        owner.start()
        assert _wait_for(started.exists)
        # Steal with a clock 60s ahead: to the thief, the owner's fresh
        # heartbeat looks long-expired even though it renews constantly.
        lease = try_acquire(queue.lease_dir(job_id), job_id, "skewed-thief",
                            _FAB_CFG.lease_timeout, now=time.time() + 60.0)
        assert lease is not None and lease.token == 2
        assert lease.superseded_owner == "owner-a"
        # The thief starts executing right away (its keeper renews t2 —
        # otherwise the fenced owner would steal the job *back* at t3).
        import threading

        entry = queue.read_entry(job_id)
        thief = FabricWorker(queue, worker_id="skewed-thief", supervise=False)
        thief_thread = threading.Thread(target=thief._execute,
                                        args=(entry, lease))
        thief_thread.start()
        release.touch()
        thief_thread.join(30.0)
        owner.join(30.0)  # owner finishes, fences itself, abandons, idles out

        envelope = queue.result_envelope(job_id)
        assert envelope["token"] == 2 and envelope["worker"] == "skewed-thief"
        records = queue.attempts(job_id)
        # Exactly one containment record: the owner's self-report.  The
        # live owner is never double-logged as orphaned by its thief.
        assert [r["error_kind"] for r in records] == ["lease_lost"]
        assert records[0]["owner"] == "owner-a"
        assert queue.load_result(job_id, envelope).ok

    def test_truncated_queue_entry_quarantined(self, tmp_path):
        """A damaged entry is classified queue_corrupt, moved aside, and
        answered — it can never wedge the scan loop."""
        queue = FabricQueue(tmp_path / "fabric", config=_FAB_CFG)
        job = Job(_ok_job, kwargs={"value": 9}, name="damaged")
        queue.enqueue(job, "000001-damaged", job.payload())
        truncate_queue_entry(queue, "000001-damaged")

        worker = FabricWorker(queue, worker_id="contain", supervise=False)
        assert worker.scan_once()
        envelope = queue.result_envelope("000001-damaged")
        assert envelope["error_kind"] == "queue_corrupt"
        assert queue.entries() == []  # quarantined, not rescanned
        assert (queue.quarantine_dir / "000001-damaged.json").exists()
        result = queue.load_result("000001-damaged", envelope)
        assert not result.ok and result.error_kind == "queue_corrupt"

    def test_two_daemons_one_queue_bit_identical_to_single_host(self, tmp_path):
        """The acceptance sweep: two supervised daemons race over one
        queue; every cell matches a single-host run_parallel bit for bit."""
        def jobs():
            return [Job(probe_job, name=f"cell-{s}",
                        kwargs={"steps": 24, "seed": s}) for s in range(6)]

        baseline = run_parallel(jobs(), max_workers=2)
        fabric = tmp_path / "fabric"
        queue = FabricQueue(fabric, config=_FAB_CFG)
        daemons = [
            _FORK.Process(target=_fabric_daemon,
                          args=(str(fabric), f"sweeper-{i}"),
                          kwargs={"idle_exit": 2.0, "supervise": True})
            for i in range(2)
        ]
        for proc in daemons:
            proc.start()
        report = run_parallel(jobs(), fabric_dir=fabric)
        for proc in daemons:
            proc.join(60.0)

        assert not report.degraded and report.n_failed == 0
        assert ([r.name for r in report.results]
                == [r.name for r in baseline.results])
        for ours, reference in zip(report.results, baseline.results):
            assert ours.value == reference.value  # bit-identical cross-host
        committed = {queue.result_envelope(job_id)["worker"]
                     for job_id in queue.entries()}
        assert committed <= {"sweeper-0", "sweeper-1"}
