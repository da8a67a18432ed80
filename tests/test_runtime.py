"""Parallel execution runtime: vectorized envs, collector parity, scheduler."""

from __future__ import annotations

import numpy as np
import pytest

from repro import envs
from repro.attacks import AttackConfig, StatePerturbationEnv, collect_adversary_rollout, train_sarl
from repro.attacks.base import knn_feature
from repro.envs.core import Env
from repro.envs.spaces import Box
from repro.experiments import ExperimentScale, train_best_of_seeds, train_single_agent_attack
from repro.rl import TrainConfig, train_ppo
from repro.rl.policy import ActorCritic
from repro.runtime import (
    LANE_SEED_STRIDE,
    Job,
    SyncVectorEnv,
    collect_adversary_rollout_vec,
    collect_lanes,
    derive_job_seeds,
    run_parallel,
)

from . import reference_collectors as reference

EPISODE_LEN = 8


class ScriptedEnv(Env):
    """Deterministic env: fixed-length episodes, reward 1 per step, no KNN keys."""

    def __init__(self, ends_with: str = "terminated"):
        super().__init__()
        self.observation_space = Box(-np.inf, np.inf, (3,))
        self.action_space = Box(-1.0, 1.0, (2,))
        self.ends_with = ends_with
        self._t = 0

    def _reset(self) -> np.ndarray:
        self._t = 0
        return np.zeros(3)

    def step(self, action):
        self._t += 1
        obs = np.full(3, float(self._t))
        ends = self._t >= EPISODE_LEN
        terminated = ends and self.ends_with == "terminated"
        truncated = ends and self.ends_with == "truncated"
        info = {"success": ends, "victim_reward": 2.0}
        return obs, 1.0, terminated, truncated, info


def scripted_policy(rng_seed: int = 7) -> ActorCritic:
    return ActorCritic(3, 2, hidden_sizes=(8,), rng=np.random.default_rng(rng_seed))


@pytest.fixture(scope="module")
def small_victim():
    result = train_ppo(envs.make("Hopper-v0"),
                       TrainConfig(iterations=1, steps_per_iteration=256, seed=0))
    result.policy.freeze_normalizer()
    return result.policy


class TestSyncVectorEnv:
    def test_shapes_and_autoreset(self):
        vec = SyncVectorEnv([ScriptedEnv() for _ in range(3)])
        obs = vec.reset(seed=0)
        assert obs.shape == (3, 3)
        for t in range(1, EPISODE_LEN):
            obs, rewards, term, trunc, infos = vec.step(np.zeros((3, 2)))
            assert not term.any() and not trunc.any()
            assert np.allclose(obs, t)
        obs, rewards, term, trunc, infos = vec.step(np.zeros((3, 2)))
        assert term.all()
        # auto-reset: obs is the new episode's start, final obs in info
        assert np.allclose(obs, 0.0)
        for info in infos:
            assert np.allclose(info["final_obs"], EPISODE_LEN)

    def test_lane_zero_seed_matches_single_env(self):
        single = ScriptedEnv()
        single.seed(123)
        vec = SyncVectorEnv([ScriptedEnv(), ScriptedEnv()])
        vec.seed(123)
        assert (vec.envs[0].np_random.bit_generator.state
                == single.np_random.bit_generator.state)
        other = ScriptedEnv()
        other.seed(123 + LANE_SEED_STRIDE)
        assert (vec.envs[1].np_random.bit_generator.state
                == other.np_random.bit_generator.state)

    def test_factory_and_validation(self):
        vec = SyncVectorEnv.from_factory(ScriptedEnv, 4)
        assert vec.num_envs == len(vec) == 4
        with pytest.raises(ValueError):
            SyncVectorEnv([])
        with pytest.raises(ValueError):
            vec.step(np.zeros((3, 2)))


class TestKnnFeatureFallback:
    def test_missing_keys_default_to_zero(self):
        assert np.array_equal(knn_feature({}, "knn_victim", 4), np.zeros(4))
        value = knn_feature({"knn_victim": [1.0, 2.0]}, "knn_victim", 4)
        assert np.array_equal(value, [1.0, 2.0])

    def test_serial_collector_survives_non_imap_env(self):
        env = ScriptedEnv()
        env.seed(0)
        rollout = collect_adversary_rollout(env, scripted_policy(), 32,
                                            np.random.default_rng(0))
        assert rollout.knn_victim.shape == (32, 3)
        assert np.all(rollout.knn_victim == 0.0)


class TestLaneLoopStepArrays:
    def test_stores_the_observations_the_policy_saw_without_normalizer(self):
        # The env's step arrays are overwritten by its next step, so a
        # policy without a normalizer must not hand back a view of them.
        vec = SyncVectorEnv([ScriptedEnv()])
        vec.seed(0)
        policy = ActorCritic(3, 2, hidden_sizes=(8,), normalize_obs=False,
                             rng=np.random.default_rng(7))
        rollout = collect_lanes(vec, policy, 2 * EPISODE_LEN, np.random.default_rng(0))
        seen = np.tile(np.arange(EPISODE_LEN, dtype=float), 2)
        np.testing.assert_array_equal(rollout.obs, np.repeat(seen[:, None], 3, axis=1))


class TestCollectorParity:
    FIELDS = ("obs", "actions", "log_probs", "rewards", "values_e", "values_i",
              "dones", "terminated", "bootstrap_e", "bootstrap_i",
              "knn_victim", "knn_adversary")

    def _assert_identical(self, serial, vectorized):
        for field in self.FIELDS:
            a, b = getattr(serial, field), getattr(vectorized, field)
            assert np.array_equal(a, b), f"{field} differs between serial and vec"
        assert serial.episode_rewards == vectorized.episode_rewards
        assert serial.episode_victim_rewards == vectorized.episode_victim_rewards
        assert serial.episode_successes == vectorized.episode_successes

    @pytest.mark.parametrize("ends_with", ["terminated", "truncated"])
    def test_scripted_env_bit_identical(self, ends_with):
        serial_env = ScriptedEnv(ends_with)
        serial_env.seed(5)
        serial = reference.collect_adversary_rollout(serial_env, scripted_policy(), 36,
                                                     np.random.default_rng(3))
        vec = SyncVectorEnv([ScriptedEnv(ends_with)])
        vec.seed(5)
        vectorized = collect_adversary_rollout_vec(vec, scripted_policy(), 36,
                                                   np.random.default_rng(3))
        self._assert_identical(serial, vectorized)

    def test_hopper_adversary_bit_identical(self, small_victim):
        def adv_env():
            return StatePerturbationEnv(envs.make("Hopper-v0"), small_victim,
                                        epsilon=0.6, seed=0)

        def policy(env):
            return ActorCritic(env.observation_space.shape[0],
                               env.action_space.shape[0],
                               rng=np.random.default_rng(11))

        serial_env = adv_env()
        serial_env.seed(5)
        serial = reference.collect_adversary_rollout(serial_env, policy(serial_env), 192,
                                                     np.random.default_rng(3))
        vec = SyncVectorEnv([adv_env()])
        vec.seed(5)
        vectorized = collect_adversary_rollout_vec(vec, policy(vec), 192,
                                                   np.random.default_rng(3))
        self._assert_identical(serial, vectorized)

    def test_requires_divisible_steps(self):
        vec = SyncVectorEnv([ScriptedEnv() for _ in range(3)])
        with pytest.raises(ValueError, match="divisible"):
            collect_adversary_rollout_vec(vec, scripted_policy(), 32,
                                          np.random.default_rng(0))


class TestCollectorMultiLane:
    @pytest.mark.parametrize("n_envs", [2, 4])
    def test_episode_stats_consistent(self, n_envs):
        # 24 steps per lane = exactly 3 scripted episodes per lane.
        n_steps = 24 * n_envs
        vec = SyncVectorEnv([ScriptedEnv() for _ in range(n_envs)])
        vec.seed(0)
        rollout = collect_adversary_rollout_vec(vec, scripted_policy(), n_steps,
                                                np.random.default_rng(0))
        assert len(rollout) == n_steps
        assert rollout.obs.shape == (n_steps, 3)
        assert len(rollout.episode_rewards) == 3 * n_envs
        assert all(r == float(EPISODE_LEN) for r in rollout.episode_rewards)
        assert all(v == 2.0 * EPISODE_LEN for v in rollout.episode_victim_rewards)
        assert rollout.victim_success_rate == 1.0
        assert rollout.j_ap == float(EPISODE_LEN)

    def test_lane_boundaries_are_truncations(self):
        # Lane length 20 cuts the third scripted episode mid-flight: interior
        # lane ends must read as truncations with a bootstrapped value.
        vec = SyncVectorEnv([ScriptedEnv() for _ in range(2)])
        vec.seed(0)
        rollout = collect_adversary_rollout_vec(vec, scripted_policy(), 40,
                                                np.random.default_rng(0))
        lane_end = 19  # last index of lane 0's block
        assert rollout.dones[lane_end] == 1.0
        assert rollout.terminated[lane_end] == 0.0
        assert rollout.bootstrap_e[lane_end] != 0.0
        # only 2 completed episodes per lane survive the cut
        assert len(rollout.episode_rewards) == 4

    def test_trainer_accepts_vector_env(self, small_victim):
        def adv_env():
            return StatePerturbationEnv(envs.make("Hopper-v0"), small_victim,
                                        epsilon=0.6, seed=0)

        vec = SyncVectorEnv([adv_env() for _ in range(2)])
        config = AttackConfig(iterations=1, steps_per_iteration=128, seed=0)
        result = train_sarl(vec, config)
        assert len(result.history) == 1
        assert result.history[0]["samples"] == 128.0

    def test_runner_n_envs_plumbing(self, small_victim):
        scale = ExperimentScale(name="smoke", victim_iterations=1,
                                attack_iterations=1, steps_per_iteration=64,
                                eval_episodes=2, game_victim_iterations=1,
                                game_hardening_iterations=0, game_attack_iterations=1)
        result = train_single_agent_attack("Hopper-v0", small_victim, "sarl",
                                           scale, seed=0, n_envs=2)
        assert result is not None and len(result.history) == 1


# --- scheduler ---------------------------------------------------------

def _square(x, seed=None):
    return x * x


def _use_seed(seed=None):
    return seed


def _boom(seed=None):
    raise ValueError("injected worker failure")


class TestScheduler:
    def _jobs(self):
        return [Job(fn=_square, args=(2,), name="a"),
                Job(fn=_boom, name="b"),
                Job(fn=_square, args=(3,), name="c")]

    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_failure_is_captured_not_fatal(self, max_workers):
        report = run_parallel(self._jobs(), max_workers=max_workers)
        assert [r.name for r in report.results] == ["a", "b", "c"]
        assert report.values() == [4, None, 9]
        assert report.n_failed == 1
        failure = report.failures[0]
        assert failure.name == "b"
        assert "ValueError" in failure.error
        assert "injected worker failure" in failure.traceback
        assert "2/3 jobs ok" in report.summary()

    def test_seed_injection(self):
        jobs = [Job(fn=_use_seed, name=f"j{i}", seed=seed)
                for i, seed in enumerate(derive_job_seeds(0, 3))]
        report = run_parallel(jobs, max_workers=2)
        assert report.n_failed == 0
        assert report.values() == derive_job_seeds(0, 3)

    def test_derived_seeds_are_stable_and_distinct(self):
        seeds = derive_job_seeds(42, 8)
        assert seeds == derive_job_seeds(42, 8)
        assert len(set(seeds)) == 8
        assert derive_job_seeds(43, 8) != seeds

    def test_stats(self):
        report = run_parallel([Job(fn=_square, args=(i,)) for i in range(4)],
                              max_workers=2)
        assert report.wall_clock > 0
        assert report.total_job_time >= 0
        assert report.max_workers == 2

    def test_zero_wall_clock_reports_neutral_speedup(self):
        from repro.runtime import JobResult, ScheduleReport
        report = ScheduleReport(
            results=[JobResult(name="a", ok=True, duration=0.0)],
            wall_clock=0.0, max_workers=2)
        # Sub-resolution sweeps must not claim "0.00x speedup".
        assert report.speedup == 1.0
        assert "speedup" not in report.summary()
        assert "1/1 jobs ok" in report.summary()

    def test_derive_job_seeds_rejects_bad_inputs(self):
        with pytest.raises(TypeError, match="base_seed must be an integer"):
            derive_job_seeds("42", 3)
        with pytest.raises(TypeError, match="base_seed must be an integer"):
            derive_job_seeds(True, 3)
        with pytest.raises(ValueError, match="non-negative integer"):
            derive_job_seeds(42, -1)
        with pytest.raises(ValueError, match="non-negative integer"):
            derive_job_seeds(42, 2.5)
        assert derive_job_seeds(42, 0) == []
        assert derive_job_seeds(np.int64(42), 2) == derive_job_seeds(42, 2)


class TestMultiSeedParallel:
    def test_parallel_matches_sequential_selection(self, small_victim):
        scale = ExperimentScale(name="smoke", victim_iterations=1,
                                attack_iterations=1, steps_per_iteration=128,
                                eval_episodes=3, game_victim_iterations=1,
                                game_hardening_iterations=0, game_attack_iterations=1)
        sequential = train_best_of_seeds("Hopper-v0", small_victim, "sarl",
                                         scale, seeds=(0, 1))
        parallel = train_best_of_seeds("Hopper-v0", small_victim, "sarl",
                                       scale, seeds=(0, 1), max_workers=2)
        assert parallel.errors == []
        assert parallel.seeds == [0, 1]
        assert [e.mean_reward for e in parallel.evaluations] == \
            [e.mean_reward for e in sequential.evaluations]
        assert parallel.best_index == sequential.best_index
        assert np.array_equal(
            parallel.best_result.policy.state_dict()["actor.output.weight"],
            sequential.best_result.policy.state_dict()["actor.output.weight"])


class TestCliJobsFlag:
    def test_parser_accepts_jobs(self):
        from repro.experiments.cli import build_parser
        args = build_parser().parse_args(["table1", "--jobs", "3"])
        assert args.jobs == 3
        assert build_parser().parse_args(["table1"]).jobs == 1

    def test_parser_accepts_job_timeout(self):
        from repro.experiments.cli import build_parser
        args = build_parser().parse_args(["table1", "--job-timeout", "120"])
        assert args.job_timeout == 120.0
        assert build_parser().parse_args(["table1"]).job_timeout is None

    def test_run_short_experiments_parser(self):
        import importlib.util
        from pathlib import Path
        spec = importlib.util.spec_from_file_location(
            "run_short_experiments",
            Path(__file__).resolve().parents[1] / "scripts" / "run_short_experiments.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert len(module.SECTIONS) == 6
