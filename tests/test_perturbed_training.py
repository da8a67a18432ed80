"""Perturbation-aware training: models and the perturbed victim view."""

from __future__ import annotations

import numpy as np
import pytest

from repro import envs
from repro.defenses import (
    DefenseTrainConfig,
    FgsmPerturbation,
    PolicyPerturbation,
    PerturbedVictim,
    RandomNoisePerturbation,
    train_with_perturbation,
)
from repro.density import ParzenDensityEstimator
from repro.rl import ActorCritic
from repro.runtime import SyncVectorEnv, collect_lanes


class TestPerturbationModels:
    def test_random_noise_bounded(self, tiny_victim, rng):
        pert = RandomNoisePerturbation(0.25, rng)
        delta = pert(tiny_victim, np.zeros(11))
        assert np.abs(delta).max() <= 0.25
        assert delta.shape == (11,)

    def test_fgsm_bounded(self, tiny_victim, rng):
        pert = FgsmPerturbation(0.2, rng)
        delta = pert(tiny_victim, rng.standard_normal((4, 11)))
        assert np.abs(delta).max() <= 0.2 + 1e-12

    def test_policy_perturbation_projects(self, tiny_victim, rng):
        class Big:
            def action(self, obs, rng=None, deterministic=False):
                return np.full(11, 7.0)

        pert = PolicyPerturbation(Big(), 0.3, rng)
        delta = pert(tiny_victim, np.zeros(11))
        np.testing.assert_allclose(delta, np.full(11, 0.3))


def collect(env, victim, perturbation, n_steps, rng):
    return collect_lanes(SyncVectorEnv([env]), PerturbedVictim(victim, perturbation),
                         n_steps, rng)


class TestCollector:
    def test_stores_perturbed_inputs(self, rng):
        env = envs.make("Hopper-v0")
        env.seed(0)
        victim = ActorCritic(11, 3, hidden_sizes=(8,), rng=rng)

        class Shift:
            def __call__(self, v, normalized):
                return np.full_like(normalized, 0.5)

        victim2 = ActorCritic(11, 3, hidden_sizes=(8,), rng=np.random.default_rng(12345))
        victim2.load_state_dict(victim.state_dict())
        rollout = collect(env, victim, Shift(), 32, rng)
        env2 = envs.make("Hopper-v0")
        env2.seed(0)
        clean = collect(env2, victim2, None, 32, np.random.default_rng(12345))
        # the stored observations differ by construction
        assert not np.allclose(rollout.obs[0], clean.obs[0])
        np.testing.assert_allclose(rollout.obs[0], clean.obs[0] + 0.5)

    def test_returns_mean_episode_return(self, rng):
        env = envs.make("FetchReach-v0")
        env.seed(0)
        victim = ActorCritic(10, 3, hidden_sizes=(8,), rng=rng)
        rollout = collect(env, victim, None, 150, rng)
        assert rollout.episode_rewards
        assert np.isfinite(rollout.episode_rewards).all()

    def test_one_lane_only(self, rng):
        victim = ActorCritic(11, 3, hidden_sizes=(8,), rng=rng)
        lanes = SyncVectorEnv([envs.make("Hopper-v0") for _ in range(2)])
        with pytest.raises(ValueError, match="one lane"):
            collect_lanes(lanes, PerturbedVictim(victim), 8, rng)


class TestTrainWithPerturbation:
    def test_produces_frozen_victim(self):
        cfg = DefenseTrainConfig(iterations=1, steps_per_iteration=128,
                                 hidden_sizes=(8,), seed=0, epsilon=0.3)
        victim = train_with_perturbation(
            lambda: envs.make("Hopper-v0"), cfg,
            lambda rng: RandomNoisePerturbation(cfg.epsilon, rng))
        assert victim.normalizer.frozen

    def test_none_perturbation_builder(self):
        cfg = DefenseTrainConfig(iterations=1, steps_per_iteration=128,
                                 hidden_sizes=(8,), seed=0)
        victim = train_with_perturbation(
            lambda: envs.make("Hopper-v0"), cfg, lambda rng: None)
        assert victim.actor.output.weight.data.shape == (8, 3)


class TestParzen:
    def test_density_higher_in_cluster(self, rng):
        refs = np.vstack([rng.normal(0, 0.2, (80, 2)), rng.normal(8, 0.2, (5, 2))])
        est = ParzenDensityEstimator(refs, bandwidth=0.5)
        dens = est.density(np.array([[0.0, 0.0], [8.0, 8.0], [4.0, 4.0]]))
        assert dens[0] > dens[1] > dens[2]

    def test_bandwidth_validated(self):
        with pytest.raises(ValueError):
            ParzenDensityEstimator(np.zeros((3, 2)), bandwidth=0.0)

    def test_log_density_finite_far_away(self, rng):
        est = ParzenDensityEstimator(rng.standard_normal((20, 2)), bandwidth=0.3)
        out = est.log_density(np.array([[100.0, 100.0]]))
        assert np.isfinite(out).all()

    def test_empty_references(self):
        est = ParzenDensityEstimator(np.zeros((0, 2)))
        np.testing.assert_array_equal(est.density(np.zeros((3, 2))), np.ones(3))

    def test_chunked_matches_unchunked(self, rng):
        refs = rng.standard_normal((50, 3))
        queries = rng.standard_normal((30, 3))
        a = ParzenDensityEstimator(refs, bandwidth=0.7, chunk_size=7).density(queries)
        b = ParzenDensityEstimator(refs, bandwidth=0.7, chunk_size=1000).density(queries)
        np.testing.assert_allclose(a, b, atol=1e-12)
