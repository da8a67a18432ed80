"""Tests for the lockstep evaluator behind both serve lanes.

The contract under test: each step makes one ``act_batch`` call per
policy (attacker before victim) whose rows are the live lanes in
episode-index order, finished lanes drop out, and the whole evaluation
is a pure function of its arguments.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import envs
from repro.attacks import RandomAttackPolicy
from repro.envs.core import Env
from repro.eval import evaluate_lockstep
from repro.runtime.scheduler import derive_job_seeds

OBS_DIM = 3


class CountdownEnv(Env):
    """Lane i's episode lasts ``lengths[i]`` steps; obs carries the lane id.

    Lanes are told apart by creation order, so the observation a policy
    sees says which lane (and which step of it) a batch row belongs to.
    """

    def __init__(self, lane: int, length: int):
        super().__init__()
        self.lane, self.length, self.t = lane, length, 0

    def _reset(self):
        self.t = 0
        return self._obs()

    def step(self, action):
        self.t += 1
        done = self.t >= self.length
        return self._obs(), 1.0, done, False, {"success": self.lane == 0}

    def _obs(self):
        return np.array([float(self.lane), float(self.t), 0.0])


def countdown_factory(lengths):
    lanes = iter(range(len(lengths)))

    def factory():
        lane = next(lanes)
        return CountdownEnv(lane, lengths[lane])

    return factory


class RecordingPolicy:
    """Records every ``act_batch`` call as (name, lane ids, step ids)."""

    def __init__(self, name, log, action_dim):
        self.name, self.log, self.action_dim = name, log, action_dim

    def normalize(self, obs):
        return np.asarray(obs, dtype=np.float64)

    def act_batch(self, obs, rng, deterministic=False):
        assert deterministic
        lanes = [int(round(row[0])) for row in obs]
        steps = [int(round(row[1])) for row in obs]
        self.log.append((self.name, lanes, steps))
        actions = np.zeros((len(obs), self.action_dim))
        return actions, None, None, None, obs


class TestComposition:
    def test_one_act_batch_per_policy_per_step_over_live_lanes(self):
        lengths = [3, 1, 4, 2]
        log = []
        victim = RecordingPolicy("victim", log, 1)
        attacker = RecordingPolicy("attacker", log, OBS_DIM)
        evaluation = evaluate_lockstep(
            countdown_factory(lengths), victim, episodes=len(lengths), seed=0,
            attack_policy=attacker, epsilon=0.0)

        expected = []
        for t in range(max(lengths)):
            live = [i for i, n in enumerate(lengths) if n > t]
            expected += [("attacker", live, [t] * len(live)),
                         ("victim", live, [t] * len(live))]
        assert log == expected
        assert evaluation.episode_lengths == lengths
        assert evaluation.episode_rewards == [float(n) for n in lengths]
        assert evaluation.episode_successes == [True, False, False, False]

    def test_clean_evaluation_batches_only_the_victim(self):
        lengths = [2, 2]
        log = []
        victim = RecordingPolicy("victim", log, 1)
        evaluate_lockstep(countdown_factory(lengths), victim, episodes=2, seed=0)
        assert log == [("victim", [0, 1], [0, 0]), ("victim", [0, 1], [1, 1])]

    def test_progress_counts_finished_episodes(self):
        lengths = [3, 1, 3, 2]
        seen = []
        evaluate_lockstep(countdown_factory(lengths),
                          RecordingPolicy("victim", [], 1), episodes=4, seed=0,
                          on_progress=lambda done, total: seen.append((done, total)))
        assert seen == [(1, 4), (2, 4), (3, 4), (4, 4)]

    def test_policy_failure_propagates(self):
        class Broken(RecordingPolicy):
            def act_batch(self, obs, rng, deterministic=False):
                raise RuntimeError("injected forward failure")

        with pytest.raises(RuntimeError, match="injected forward"):
            evaluate_lockstep(countdown_factory([2]), Broken("v", [], 1),
                              episodes=1, seed=0)


class TestEvaluateLockstep:
    def test_deterministic_across_runs(self, tiny_victim):
        kwargs = dict(episodes=3, seed=11)
        first = evaluate_lockstep(lambda: envs.make("Hopper-v0"),
                                  tiny_victim, **kwargs)
        second = evaluate_lockstep(lambda: envs.make("Hopper-v0"),
                                   tiny_victim, **kwargs)
        assert first.episode_rewards == second.episode_rewards
        assert first.episode_lengths == second.episode_lengths
        assert first.episode_successes == second.episode_successes

    def test_seed_changes_result(self, tiny_victim):
        a = evaluate_lockstep(lambda: envs.make("Hopper-v0"), tiny_victim,
                              episodes=3, seed=11)
        b = evaluate_lockstep(lambda: envs.make("Hopper-v0"), tiny_victim,
                              episodes=3, seed=12)
        assert a.episode_rewards != b.episode_rewards

    def test_episode_seeds_are_prefix_stable(self, tiny_victim):
        """Episode i gets the same env seed whether 3 or 5 episodes run,
        but its result still depends on the batch its forwards ride in
        (plain ``X @ W`` is not row-stable), so each count is its own
        reproducible result."""
        assert derive_job_seeds(7, 5)[:3] == derive_job_seeds(7, 3)
        three = evaluate_lockstep(lambda: envs.make("Hopper-v0"),
                                  tiny_victim, episodes=3, seed=7)
        rerun = evaluate_lockstep(lambda: envs.make("Hopper-v0"),
                                  tiny_victim, episodes=3, seed=7)
        assert three.episode_rewards == rerun.episode_rewards

    def test_random_attack_perturbs_outcome(self, tiny_victim):
        obs_dim = envs.make("Hopper-v0").observation_space.shape[0]
        clean = evaluate_lockstep(lambda: envs.make("Hopper-v0"),
                                  tiny_victim, episodes=3, seed=7)
        attacked = evaluate_lockstep(
            lambda: envs.make("Hopper-v0"), tiny_victim, episodes=3, seed=7,
            attack_policy=RandomAttackPolicy(obs_dim, seed=7),
            epsilon=0.6, norm="linf")
        assert clean.episode_rewards != attacked.episode_rewards

    def test_random_attack_draws_from_each_lanes_rng(self, tiny_victim):
        """A policy without act_batch gets lane i's RNG, not its own."""
        obs_dim = envs.make("Hopper-v0").observation_space.shape[0]
        kwargs = dict(episodes=2, seed=3, epsilon=0.6)
        a = evaluate_lockstep(lambda: envs.make("Hopper-v0"), tiny_victim,
                              attack_policy=RandomAttackPolicy(obs_dim, seed=0),
                              **kwargs)
        b = evaluate_lockstep(lambda: envs.make("Hopper-v0"), tiny_victim,
                              attack_policy=RandomAttackPolicy(obs_dim, seed=99),
                              **kwargs)
        assert a.episode_rewards == b.episode_rewards

    def test_rejects_nonpositive_episodes(self, tiny_victim):
        with pytest.raises(ValueError, match="episodes must be positive"):
            evaluate_lockstep(lambda: envs.make("Hopper-v0"), tiny_victim,
                              episodes=0, seed=1)
