"""ActorCritic policy, PPO updater, rollout collection, training loop."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import envs
from repro.nn import Tensor
from repro.rl import (
    ActorCritic,
    EpisodeStats,
    PPOConfig,
    PPOUpdater,
    TrainConfig,
    evaluate_policy,
    train_ppo,
)
from repro.runtime import SyncVectorEnv, collect_lanes


@pytest.fixture
def policy(rng):
    return ActorCritic(4, 2, hidden_sizes=(16,), rng=rng)


class TestActorCritic:
    def test_act_outputs(self, policy, rng):
        action, logp, ve, vi, normalized = policy.act(np.ones(4), rng)
        assert action.shape == (2,)
        assert isinstance(logp, float) and isinstance(ve, float)
        assert vi == 0.0  # single head by default
        assert normalized.shape == (4,)

    def test_deterministic_mode_repeats(self, policy, rng):
        a1 = policy.action(np.ones(4), rng, deterministic=True)
        a2 = policy.action(np.ones(4), rng, deterministic=True)
        np.testing.assert_array_equal(a1, a2)

    def test_stochastic_varies(self, policy, rng):
        a1 = policy.action(np.ones(4), rng)
        a2 = policy.action(np.ones(4), rng)
        assert not np.allclose(a1, a2)

    def test_dual_value_head(self, rng):
        policy = ActorCritic(4, 2, dual_value=True, rng=rng)
        _, _, ve, vi, _ = policy.act(np.ones(4), rng)
        assert policy.value_intrinsic(np.ones((3, 4))).shape == (3,)

    def test_intrinsic_head_requires_dual(self, policy):
        with pytest.raises(RuntimeError):
            policy.value_intrinsic(np.ones((2, 4)))

    def test_normalizer_optional(self, rng):
        policy = ActorCritic(3, 1, normalize_obs=False, rng=rng)
        obs = np.array([100.0, -50.0, 0.0])
        np.testing.assert_array_equal(policy.normalize(obs), obs)

    def test_checkpoint_roundtrip_includes_normalizer(self, rng):
        a = ActorCritic(3, 2, rng=rng)
        for _ in range(10):
            a.normalize(rng.standard_normal(3) * 7.0, update=True)
        state = a.checkpoint_state()
        b = ActorCritic(3, 2, rng=np.random.default_rng(77))
        b.load_checkpoint_state(state)
        x = rng.standard_normal(3)
        np.testing.assert_allclose(a.normalize(x, update=False),
                                   b.normalize(x, update=False))
        np.testing.assert_allclose(a.actor(np.ones(3)).data, b.actor(np.ones(3)).data)


def make_batch(policy, rng, n=64):
    obs = rng.standard_normal((n, 4))
    from repro import nn
    with nn.no_grad():
        dist = policy.distribution(obs)
        actions = dist.sample(rng)
        logp = dist.log_prob(actions).data
    return {
        "obs": obs,
        "actions": actions,
        "log_probs": logp,
        "advantages_e": rng.standard_normal(n),
        "advantages_i": np.zeros(n),
        "returns_e": rng.standard_normal(n),
        "returns_i": np.zeros(n),
    }


class TestPPOUpdater:
    def test_update_changes_parameters(self, policy, rng):
        updater = PPOUpdater(policy, PPOConfig(epochs=2, minibatches=2))
        before = policy.state_dict()
        stats = updater.update(make_batch(policy, rng), rng=rng)
        after = policy.state_dict()
        assert any(not np.allclose(before[k], after[k]) for k in before)
        for key in ("policy_loss", "value_loss", "entropy", "approx_kl", "updates"):
            assert key in stats

    def test_target_kl_early_stop(self, policy, rng):
        config = PPOConfig(epochs=50, minibatches=1, learning_rate=0.05, target_kl=1e-4)
        updater = PPOUpdater(policy, config)
        stats = updater.update(make_batch(policy, rng), rng=rng)
        assert stats["updates"] < 50

    def test_tau_mixes_intrinsic_advantages(self, policy, rng):
        batch = make_batch(policy, rng)
        batch["advantages_e"] = np.zeros_like(batch["advantages_e"])
        batch["advantages_i"] = rng.standard_normal(len(batch["obs"]))
        updater = PPOUpdater(policy, PPOConfig(epochs=1, minibatches=1))
        before = policy.state_dict()
        updater.update(batch, tau=0.0, rng=rng)
        # zero combined advantage: actor weights barely move (entropy only
        # touches log_std; the value heads do move)
        mid = policy.state_dict()
        assert np.allclose(before["actor.layer0.weight"], mid["actor.layer0.weight"],
                           atol=1e-9)
        updater.update(batch, tau=1.0, rng=rng)
        after = policy.state_dict()
        assert not np.allclose(mid["actor.layer0.weight"], after["actor.layer0.weight"])

    def test_extra_loss_hook_invoked(self, policy, rng):
        calls = []

        def hook(p, obs, dist):
            calls.append(len(obs))
            return (dist.mean**2).mean() * 0.0

        updater = PPOUpdater(policy, PPOConfig(epochs=1, minibatches=2), extra_loss=hook)
        updater.update(make_batch(policy, rng), rng=rng)
        assert len(calls) == 2


class ToyTargetEnv(envs.Env):
    """Reward = -(action - obs)^2: optimal policy copies its observation."""

    def __init__(self):
        super().__init__()
        self.observation_space = envs.Box(-1.0, 1.0, (1,))
        self.action_space = envs.Box(-1.0, 1.0, (1,))
        self.t = 0

    def _reset(self):
        self.t = 0
        self.obs = self.np_random.uniform(-1, 1, 1)
        return self.obs

    def step(self, action):
        reward = -float((action[0] - self.obs[0]) ** 2)
        self.t += 1
        self.obs = self.np_random.uniform(-1, 1, 1)
        return self.obs, reward, False, self.t >= 20, {}


class TestRolloutAndTraining:
    def test_collect_rollout_fills_buffer(self, rng):
        env = envs.make("Hopper-v0")
        policy = ActorCritic(11, 3, hidden_sizes=(16,), rng=rng)
        env.seed(0)
        rollout = collect_lanes(SyncVectorEnv([env]), policy, 100, rng)
        assert len(rollout) == 100 and rollout.obs.shape == (100, 11)
        assert len(rollout.episode_rewards) == len(rollout.episode_successes)
        assert rollout.dones.sum() == len(rollout.episode_rewards)

    def test_evaluate_policy_counts_episodes(self, rng):
        env = envs.make("FetchReach-v0")
        policy = ActorCritic(10, 3, hidden_sizes=(16,), rng=rng)
        stats = evaluate_policy(env, policy, episodes=3, rng=rng)
        assert len(stats) == 3
        assert all(length <= 60 for length in stats.lengths)

    def test_train_ppo_improves_toy_task(self):
        result = train_ppo(ToyTargetEnv(), TrainConfig(
            iterations=15, steps_per_iteration=400, hidden_sizes=(16,), seed=0))
        first = result.history[0]["mean_return"]
        last = result.final_return
        assert not math.isnan(last)  # trained runs always have history
        assert last > first + 1.0  # clearly learned to copy obs

    def test_final_return_nan_on_empty_history(self):
        result = train_ppo(ToyTargetEnv(), TrainConfig(
            iterations=0, steps_per_iteration=60, hidden_sizes=(8,), seed=0))
        assert result.history == []
        # nan, not 0.0: "no data" must not look like a real zero return
        assert math.isnan(result.final_return)

    def test_history_fields(self):
        result = train_ppo(ToyTargetEnv(), TrainConfig(
            iterations=2, steps_per_iteration=100, hidden_sizes=(8,), seed=0))
        for key in ("iteration", "mean_return", "success_rate", "approx_kl"):
            assert key in result.history[0]

    def test_callback_invoked(self):
        seen = []
        train_ppo(ToyTargetEnv(), TrainConfig(iterations=3, steps_per_iteration=60,
                                              hidden_sizes=(8,), seed=0),
                  callback=lambda i, p, s: seen.append(i))
        assert seen == [0, 1, 2]

    def test_quick_eval_rejects_zero_episodes(self, rng):
        from repro.rl import quick_eval
        env = envs.make("Hopper-v0")
        policy = ActorCritic(11, 3, hidden_sizes=(16,), rng=rng)
        for episodes in (0, -1):
            with pytest.raises(ValueError, match="episodes >= 1"):
                quick_eval(env, policy, episodes=episodes)
            with pytest.raises(ValueError, match="episodes >= 1"):
                evaluate_policy(env, policy, episodes=episodes, rng=rng)

    def test_empty_episode_stats_refuse_to_aggregate(self):
        stats = EpisodeStats()
        assert len(stats) == 0
        for aggregate in ("mean_return", "std_return", "success_rate"):
            with pytest.raises(ValueError, match="zero finished episodes"):
                getattr(stats, aggregate)
