"""Determinism battery: same seed ⇒ bit-identical results and telemetry.

Five layers of the reproducibility contract:

1. In-process repeatability — two ``train_ppo``/``AdversaryTrainer``
   runs with the same seed produce bit-identical histories.
2. Serial/vectorized parity — adversary training over a plain env and a
   ``SyncVectorEnv`` with one lane produce bit-identical histories *and*
   telemetry event streams (payloads, and timestamps under a
   ``ManualClock``).
3. Cross-process — the same training job executed in two fresh worker
   processes via ``run_parallel`` returns bit-identical histories.
4. Cross-lane — serial and ``SyncVectorEnv`` backends produce
   bit-identical trainer histories at matched seeds.
5. Cold vs warm pool — ``run_parallel(max_workers=2)`` on an ephemeral
   pool returns the same bits as ``run_parallel(pool=...)`` on a warm,
   caller-owned ``WorkerPool``, including after a worker was killed and
   replaced.

"Bit-identical" means ``==`` on the float dicts — no tolerances.
"""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest

from repro import envs
from repro.attacks import AttackConfig, StatePerturbationEnv
from repro.attacks.imap.regularizers import make_regularizer
from repro.attacks.trainer import AdversaryTrainer
from repro.rl import TrainConfig, train_ppo
from repro.runtime import Job, SyncVectorEnv, WorkerPool, run_parallel
from repro.telemetry import ManualClock, Telemetry


@pytest.fixture(scope="module")
def small_victim():
    result = train_ppo(envs.make("Hopper-v0"),
                       TrainConfig(iterations=1, steps_per_iteration=256, seed=0))
    result.policy.freeze_normalizer()
    return result.policy


def _train_attack(env, telemetry=None, regularizer_name="pc"):
    config = AttackConfig(iterations=2, steps_per_iteration=128, seed=3)
    regularizer = make_regularizer(regularizer_name, config)
    trainer = AdversaryTrainer(env, config, regularizer=regularizer,
                               telemetry=telemetry)
    return trainer.train()


class TestInProcessDeterminism:
    def test_train_ppo_history_bit_identical(self):
        config = TrainConfig(iterations=2, steps_per_iteration=128, seed=7)
        first = train_ppo(envs.make("Hopper-v0"), config)
        second = train_ppo(envs.make("Hopper-v0"), config)
        assert first.history == second.history
        assert first.final_return == second.final_return

    def test_attack_history_bit_identical(self, small_victim):
        def env():
            return StatePerturbationEnv(envs.make("Hopper-v0"), small_victim,
                                        epsilon=0.6, seed=0)

        assert _train_attack(env()).history == _train_attack(env()).history

    def test_telemetry_trace_bit_identical(self, small_victim):
        """Whole event streams (incl. ManualClock timestamps) reproduce."""
        def run():
            telemetry = Telemetry.in_memory(clock=ManualClock(0.0, auto_tick=0.25))
            env = StatePerturbationEnv(envs.make("Hopper-v0"), small_victim,
                                       epsilon=0.6, seed=0)
            _train_attack(env, telemetry=telemetry)
            return telemetry.sink.events

        assert run() == run()


class TestSerialVsVectorizedDeterminism:
    def test_history_and_event_payloads_identical(self, small_victim):
        def adv_env():
            return StatePerturbationEnv(envs.make("Hopper-v0"), small_victim,
                                        epsilon=0.6, seed=0)

        serial_t = Telemetry.in_memory(clock=ManualClock(0.0, auto_tick=0.25))
        serial = _train_attack(adv_env(), telemetry=serial_t)

        vec_t = Telemetry.in_memory(clock=ManualClock(0.0, auto_tick=0.25))
        vectorized = _train_attack(SyncVectorEnv([adv_env()]), telemetry=vec_t)

        assert serial.history == vectorized.history
        # Deterministic payloads match event-for-event; only perf
        # (steps/sec, collector flavour) may differ between the paths.
        assert serial_t.sink.payloads() == vec_t.sink.payloads()
        assert [e["type"] for e in serial_t.sink.events] == \
            [e["type"] for e in vec_t.sink.events]


def _attack_history_job(seed: int = 3):
    """Self-contained training cell for the cross-process test (picklable)."""
    victim = train_ppo(envs.make("Hopper-v0"),
                       TrainConfig(iterations=1, steps_per_iteration=256, seed=0)).policy
    victim.freeze_normalizer()
    env = StatePerturbationEnv(envs.make("Hopper-v0"), victim, epsilon=0.6, seed=0)
    config = AttackConfig(iterations=1, steps_per_iteration=128, seed=seed)
    trainer = AdversaryTrainer(env, config,
                               regularizer=make_regularizer("pc", config))
    return trainer.train().history


class TestCrossProcessDeterminism:
    def test_run_parallel_fresh_processes_identical(self):
        jobs = [Job(fn=_attack_history_job, kwargs={"seed": 3}, name=f"run{i}")
                for i in range(2)]
        report = run_parallel(jobs, max_workers=2)
        assert report.n_failed == 0, report.failures
        first, second = report.values()
        assert first == second
        # ... and both match an in-process run of the same cell.
        assert first == _attack_history_job(seed=3)


class TestThreeLaneDeterminism:
    """Serial vs SyncVectorEnv at matched seeds."""

    def test_trainer_histories_identical_across_backends(self, small_victim):
        def adv_env():
            return StatePerturbationEnv(envs.make("Hopper-v0"), small_victim,
                                        epsilon=0.6, seed=0)

        serial = _train_attack(adv_env())
        sync = _train_attack(SyncVectorEnv([adv_env()]))
        assert serial.history == sync.history


def _seeded_values_job(seed: int = 0):
    """Pure function of a SeedSequence-derived generator (picklable)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return rng.standard_normal(16).tolist()


class TestColdVsWarmPoolDeterminism:
    def test_cold_ephemeral_pool_matches_warm_pool_training_cells(self):
        def jobs():
            return [Job(fn=_attack_history_job, kwargs={"seed": s},
                        name=f"seed{s}") for s in (3, 4)]

        cold_report = run_parallel(jobs(), max_workers=2)
        assert cold_report.n_failed == 0, cold_report.failures
        with WorkerPool(max_workers=2) as pool:
            warmup = [Job(fn=_seeded_values_job, name=f"warm{i}")
                      for i in range(2)]
            run_parallel(warmup, pool=pool)
            warm_report = run_parallel(jobs(), pool=pool)
        assert warm_report.n_failed == 0, warm_report.failures
        assert cold_report.values() == warm_report.values()

    def test_results_identical_after_worker_replacement(self):
        def jobs():
            return [Job(fn=_seeded_values_job, kwargs={"seed": s},
                        name=f"seed{s}") for s in range(6)]

        expected = [_seeded_values_job(seed=s) for s in range(6)]
        with WorkerPool(max_workers=2) as pool:
            before = run_parallel(jobs(), pool=pool)
            # Kill an idle worker between sweeps: the next dispatch that
            # lands on the corpse is replaced and requeued transparently.
            victim = pool._idle[0]
            os.kill(victim.process.pid, signal.SIGKILL)
            victim.process.join(5.0)
            after = run_parallel(jobs(), pool=pool)
            assert pool.replacements >= 1
        assert before.n_failed == after.n_failed == 0
        assert before.values() == expected
        assert after.values() == expected
