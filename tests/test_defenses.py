"""Defense registry, smoothness losses, ATLA perturbed rollouts."""

from __future__ import annotations

import numpy as np
import pytest

from repro import envs, nn
from repro.defenses import (
    DefenseTrainConfig,
    adversarial_smoothness_loss,
    defense_names,
    fgsm_perturbation,
    get_defense,
    random_smoothness_loss,
    register_defense,
)
from repro.defenses.perturbed_training import PerturbedVictim, PolicyPerturbation
from repro.defenses.sa_regularizer import make_sa_loss
from repro.defenses.wocar import make_wocar_loss
from repro.rl import ActorCritic
from repro.runtime import SyncVectorEnv, collect_lanes


@pytest.fixture
def policy(rng):
    return ActorCritic(6, 2, hidden_sizes=(16,), rng=rng)


class TestRegistry:
    def test_all_paper_defenses_registered(self):
        assert set(defense_names()) >= {"ppo", "sa", "radial", "wocar", "atla", "atla_sa"}

    def test_unknown_defense(self):
        with pytest.raises(KeyError):
            get_defense("magic")

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            register_defense("ppo")(lambda f, c: None)


class TestSmoothnessLosses:
    def test_random_smoothness_nonnegative(self, policy, rng):
        obs = rng.standard_normal((16, 6))
        dist = policy.distribution(obs)
        loss = random_smoothness_loss(policy, obs, dist, epsilon=0.1, rng=rng)
        assert float(loss.data) >= 0.0

    def test_random_smoothness_zero_at_zero_eps(self, policy, rng):
        obs = rng.standard_normal((8, 6))
        dist = policy.distribution(obs)
        loss = random_smoothness_loss(policy, obs, dist, epsilon=0.0, rng=rng)
        assert float(loss.data) == pytest.approx(0.0, abs=1e-12)

    def test_random_smoothness_backward(self, policy, rng):
        obs = rng.standard_normal((8, 6))
        dist = policy.distribution(obs)
        loss = random_smoothness_loss(policy, obs, dist, epsilon=0.2, rng=rng)
        loss.backward()
        assert any(p.grad is not None for p in policy.actor.parameters())

    def test_fgsm_within_ball(self, policy, rng):
        obs = rng.standard_normal((10, 6))
        delta = fgsm_perturbation(policy, obs, epsilon=0.15, rng=rng)
        assert np.abs(delta).max() <= 0.15 + 1e-12
        assert delta.shape == obs.shape

    def test_fgsm_leaves_no_grads_behind(self, policy, rng):
        obs = rng.standard_normal((4, 6))
        fgsm_perturbation(policy, obs, epsilon=0.1, rng=rng)
        assert all(p.grad is None for p in policy.parameters())

    def test_adversarial_beats_random_smoothness(self, policy, rng):
        """FGSM perturbations should induce at least as much KL as random."""
        obs = rng.standard_normal((64, 6))
        dist = policy.distribution(obs)
        adv = float(adversarial_smoothness_loss(policy, obs, dist, 0.3, rng=rng).data)
        rand = float(random_smoothness_loss(policy, obs, dist, 0.3, rng).data)
        assert adv >= rand * 0.5  # allow slack; usually adv >> rand

    def test_wocar_loss_backward(self, policy, rng):
        obs = rng.standard_normal((16, 6))
        dist = policy.distribution(obs)
        loss = make_wocar_loss(0.2, weight=1.0, seed=0)(policy, obs, dist)
        assert float(loss.data) >= 0.0
        loss.backward()
        grads = [p.grad is not None for p in policy.parameters()]
        assert any(grads)

    def test_sa_loss_factory_weight(self, policy, rng):
        obs = rng.standard_normal((8, 6))
        dist = policy.distribution(obs)
        l1 = float(make_sa_loss(0.2, weight=1.0, seed=5)(policy, obs, dist).data)
        l2 = float(make_sa_loss(0.2, weight=2.0, seed=5)(policy, obs, dist).data)
        assert l2 == pytest.approx(2.0 * l1)


class TestDefenseTrainers:
    @pytest.mark.parametrize("name", ["ppo", "sa", "radial", "wocar"])
    def test_trainer_produces_frozen_victim(self, name):
        cfg = DefenseTrainConfig(iterations=1, steps_per_iteration=128,
                                 hidden_sizes=(8,), seed=0, epsilon=0.3)
        victim = get_defense(name)(lambda: envs.make("Hopper-v0"), cfg)
        assert victim.normalizer.frozen
        assert victim.actor.output.weight.data.shape == (8, 3)

    def test_atla_runs(self):
        cfg = DefenseTrainConfig(iterations=2, steps_per_iteration=128,
                                 hidden_sizes=(8,), seed=0, epsilon=0.3,
                                 atla_phases=2, atla_adversary_iterations=1)
        victim = get_defense("atla")(lambda: envs.make("Hopper-v0"), cfg)
        assert victim.normalizer.frozen

    def test_atla_sa_runs(self):
        cfg = DefenseTrainConfig(iterations=2, steps_per_iteration=128,
                                 hidden_sizes=(8,), seed=0, epsilon=0.3,
                                 atla_phases=1, atla_adversary_iterations=1)
        victim = get_defense("atla_sa")(lambda: envs.make("Hopper-v0"), cfg)
        assert victim.normalizer.frozen


def collect_perturbed(env, victim, adversary, epsilon, n_steps, rng):
    """ATLA's victim-phase collection: the adversary (or none) perturbs."""
    perturbation = (PolicyPerturbation(adversary, epsilon, rng)
                    if adversary is not None else None)
    return collect_lanes(SyncVectorEnv([env]), PerturbedVictim(victim, perturbation),
                         n_steps, rng)


class TestPerturbedRollout:
    def test_without_adversary_fills_buffer(self, rng):
        env = envs.make("Hopper-v0")
        env.seed(0)
        victim = ActorCritic(11, 3, hidden_sizes=(8,), rng=rng)
        rollout = collect_perturbed(env, victim, None, 0.3, 64, rng)
        assert len(rollout) == 64
        assert np.isfinite(rollout.rewards).all()

    def test_with_adversary_perturbs_observations(self, rng):
        env = envs.make("Hopper-v0")
        env.seed(0)
        victim = ActorCritic(11, 3, hidden_sizes=(8,), rng=rng)

        class BigAttack:
            def action(self, obs, rng=None, deterministic=False):
                return np.ones(11)

        victim2 = ActorCritic(11, 3, hidden_sizes=(8,), rng=np.random.default_rng(12345))
        victim2.load_state_dict(victim.state_dict())
        rollout = collect_perturbed(env, victim, BigAttack(), 0.5, 32, rng)
        # stored observations include the +0.5 shift from the attack
        env2 = envs.make("Hopper-v0")
        env2.seed(0)
        clean = collect_perturbed(env2, victim2, None, 0.5, 32,
                                  np.random.default_rng(12345))
        assert not np.allclose(rollout.obs[0], clean.obs[0])
