"""Threat-model adapters: perturbation projection, adversary MDP semantics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import envs
from repro.attacks import (
    EPSILON_BUDGETS,
    OpponentEnv,
    RandomAttackPolicy,
    StatePerturbationEnv,
    default_epsilon,
    project_perturbation,
)
from repro.rl import ActorCritic


class TestProjection:
    def test_linf_scales_and_clips(self):
        raw = np.array([2.0, -0.5, -3.0])
        out = project_perturbation(raw, epsilon=0.1, norm="linf")
        np.testing.assert_allclose(out, [0.1, -0.05, -0.1])

    def test_l2_inside_ball_unchanged(self):
        raw = np.array([0.3, 0.4])  # norm 0.5 * eps
        out = project_perturbation(raw, epsilon=1.0, norm="l2")
        np.testing.assert_allclose(out, [0.3, 0.4])

    def test_l2_projects_to_sphere(self):
        raw = np.array([3.0, 4.0])
        out = project_perturbation(raw, epsilon=1.0, norm="l2")
        assert np.linalg.norm(out) == pytest.approx(1.0)

    def test_unknown_norm(self):
        with pytest.raises(ValueError):
            project_perturbation(np.zeros(2), 0.1, norm="l7")

    def test_epsilon_budgets_match_paper_ordering(self):
        assert EPSILON_BUDGETS["Walker2d-v0"] < EPSILON_BUDGETS["Hopper-v0"]
        assert EPSILON_BUDGETS["Hopper-v0"] < EPSILON_BUDGETS["HalfCheetah-v0"]
        assert EPSILON_BUDGETS["HalfCheetah-v0"] == EPSILON_BUDGETS["Ant-v0"]
        assert default_epsilon("SparseHopper-v0") > 0


class TestStatePerturbationEnv:
    def test_spaces(self, tiny_victim):
        adv = StatePerturbationEnv(envs.make("Hopper-v0"), tiny_victim, epsilon=0.1)
        assert adv.observation_space.shape == (11,)
        assert adv.action_space.shape == (11,)

    def test_surrogate_reward_is_indicator(self, tiny_victim, rng):
        adv = StatePerturbationEnv(envs.make("Hopper-v0"), tiny_victim, epsilon=0.1)
        obs = adv.reset(seed=0)
        rewards = set()
        for _ in range(50):
            obs, r, term, trunc, info = adv.step(rng.uniform(-1, 1, 11))
            rewards.add(r)
            assert "victim_reward" in info
            if term or trunc:
                adv.reset()
        assert rewards <= {0.0, -1.0}

    def test_perturbation_bounded(self, tiny_victim, rng):
        eps = 0.2
        adv = StatePerturbationEnv(envs.make("Hopper-v0"), tiny_victim, epsilon=eps)
        adv.reset(seed=0)
        _, _, _, _, info = adv.step(rng.uniform(-5, 5, 11))
        assert np.abs(info["perturbation"]).max() <= eps + 1e-12

    def test_zero_attack_matches_clean_victim(self, tiny_victim):
        """With a zero perturbation the victim behaves exactly as unattacked."""
        env1, env2 = envs.make("Hopper-v0"), envs.make("Hopper-v0")
        adv = StatePerturbationEnv(env1, tiny_victim, epsilon=0.5, seed=7)
        adv.seed(42)
        obs_a = adv.reset()
        env2.seed(42)
        obs_c = env2.reset()
        rng = np.random.default_rng(3)
        for _ in range(20):
            _, _, term_a, trunc_a, info = adv.step(np.zeros(11))
            action = tiny_victim.action(obs_c, rng, deterministic=True)
            obs_c, reward_c, term_c, trunc_c, _ = env2.step(action)
            assert info["victim_reward"] == pytest.approx(reward_c)
            assert term_a == term_c
            if term_a or trunc_a:
                break

    def test_step_requires_reset(self, tiny_victim):
        adv = StatePerturbationEnv(envs.make("Hopper-v0"), tiny_victim, epsilon=0.1)
        with pytest.raises(RuntimeError):
            adv.step(np.zeros(11))

    def test_knn_features_present(self, tiny_victim, rng):
        adv = StatePerturbationEnv(envs.make("Hopper-v0"), tiny_victim, epsilon=0.1)
        adv.reset(seed=0)
        _, _, _, _, info = adv.step(rng.uniform(-1, 1, 11))
        assert info["knn_victim"].shape == (11,)
        assert info["knn_adversary"].shape == (11,)

    def test_knn_features_share_one_copy_apart_from_observation(self, tiny_victim, rng):
        adv = StatePerturbationEnv(envs.make("Hopper-v0"), tiny_victim, epsilon=0.1)
        adv.reset(seed=0)
        obs, _, _, _, info = adv.step(rng.uniform(-1, 1, 11))
        assert info["knn_victim"] is info["knn_adversary"]
        assert np.array_equal(info["knn_victim"], obs)
        assert not np.shares_memory(info["knn_victim"], obs)
        # A wrapper that poisons the observation in place (FaultyEnv's NaN
        # fault) leaves the density features intact.
        obs[...] = np.nan
        assert np.isfinite(info["knn_victim"]).all()

    def test_observation_is_normalized_victim_view(self, tiny_victim):
        adv = StatePerturbationEnv(envs.make("Hopper-v0"), tiny_victim, epsilon=0.1)
        obs = adv.reset(seed=5)
        assert np.abs(obs).max() <= tiny_victim.normalizer.clip + 1e-9


class TestOpponentEnv:
    @pytest.fixture
    def game_victim(self, rng):
        return ActorCritic(14, 3, hidden_sizes=(16,), rng=rng)

    def test_spaces(self, game_victim):
        adv = OpponentEnv(envs.make_game("YouShallNotPass-v0"), game_victim)
        assert adv.observation_space.shape == (14,)
        assert adv.action_space.shape == (3,)

    def test_episode_produces_outcome(self, game_victim, rng):
        adv = OpponentEnv(envs.make_game("YouShallNotPass-v0"), game_victim, seed=0)
        adv.reset(seed=0)
        done = False
        while not done:
            _, r, done, trunc, info = adv.step(rng.uniform(-1, 1, 3))
        assert info["victim_win"] != info["adversary_win"]
        assert info["knn_victim"].shape == (6,)

    def test_reward_only_on_victim_win(self, game_victim, rng):
        adv = OpponentEnv(envs.make_game("YouShallNotPass-v0"), game_victim, seed=0)
        adv.reset(seed=0)
        total = 0.0
        done = False
        while not done:
            _, r, done, _, info = adv.step(rng.uniform(-1, 1, 3))
            total += r
        expected = -1.0 if info["victim_win"] else 0.0
        assert total == pytest.approx(expected)


class TestRandomAttackPolicy:
    def test_actions_uniform_in_cube(self):
        pol = RandomAttackPolicy(5, seed=0)
        acts = np.array([pol.action(np.zeros(5)) for _ in range(200)])
        assert acts.min() >= -1.0 and acts.max() <= 1.0
        assert abs(acts.mean()) < 0.1

    def test_for_env_helper(self, tiny_victim):
        adv = StatePerturbationEnv(envs.make("Hopper-v0"), tiny_victim, epsilon=0.1)
        pol = RandomAttackPolicy.for_env(adv)
        assert pol.action_dim == 11


@settings(max_examples=30, deadline=None)
@given(arrays(np.float64, 6, elements=st.floats(-10, 10)), st.floats(0.01, 2.0))
def test_property_linf_projection_in_ball(raw, eps):
    out = project_perturbation(raw, epsilon=eps, norm="linf")
    assert np.abs(out).max() <= eps + 1e-12


@settings(max_examples=30, deadline=None)
@given(arrays(np.float64, 6, elements=st.floats(-10, 10)), st.floats(0.01, 2.0))
def test_property_l2_projection_in_ball(raw, eps):
    out = project_perturbation(raw, epsilon=eps, norm="l2")
    assert np.linalg.norm(out) <= eps + 1e-9


class _StatelessGame:
    """A two-player game that forgets to publish per-body state vectors."""

    def __init__(self, info):
        from repro.envs.spaces import Box

        self._info = dict(info)
        self.adversary_observation_space = Box(-np.inf, np.inf, (3,))
        self.adversary_action_space = Box(-1.0, 1.0, (2,))

    def seed(self, seed):
        pass

    def reset(self):
        return np.zeros(4), np.zeros(3)

    def step(self, victim_action, adversary_action):
        return (np.zeros(4), np.zeros(3)), (0.0, 0.0), True, dict(self._info)


class _StubVictim:
    def action(self, obs, rng, deterministic=True):
        return np.zeros(1)


class TestOpponentEnvStateValidation:
    """Missing/bad body state must raise, not become a 0-d NaN (bugfix)."""

    def _step(self, info):
        adv = OpponentEnv(_StatelessGame(info), _StubVictim())
        adv.reset()
        return adv.step(np.zeros(2))

    def test_missing_victim_state_raises(self):
        with pytest.raises(KeyError, match="victim_state"):
            self._step({"adversary_state": np.zeros(4)})

    def test_missing_adversary_state_raises(self):
        with pytest.raises(KeyError, match="adversary_state"):
            self._step({"victim_state": np.zeros(4)})

    def test_wrong_shape_raises(self):
        with pytest.raises(ValueError, match="1-d state vector"):
            self._step({"victim_state": np.zeros((2, 2)),
                        "adversary_state": np.zeros(4)})

    def test_empty_state_raises(self):
        with pytest.raises(ValueError, match="1-d state vector"):
            self._step({"victim_state": np.zeros(0),
                        "adversary_state": np.zeros(4)})

    def test_non_numeric_state_raises(self):
        with pytest.raises(ValueError, match="not convertible"):
            self._step({"victim_state": ["a", "b"],
                        "adversary_state": np.zeros(4)})

    def test_valid_states_pass_through(self):
        _, _, _, _, info = self._step({"victim_state": np.arange(4.0),
                                       "adversary_state": np.ones(5)})
        np.testing.assert_array_equal(info["knn_victim"], np.arange(4.0))
        np.testing.assert_array_equal(info["knn_adversary"], np.ones(5))
