"""Running statistics, normalizers, GAE buffers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.attacks.base import AdversaryRollout
from repro.rl import (
    ObservationNormalizer,
    RewardNormalizer,
    RolloutBuffer,
    RunningMeanStd,
    compute_gae,
    gae_batch,
)


class TestRunningMeanStd:
    def test_matches_numpy_batched(self, rng):
        rms = RunningMeanStd((4,))
        data = rng.standard_normal((500, 4)) * 3.0 + 2.0
        for chunk in np.array_split(data, 7):
            rms.update(chunk)
        # the 1e-4 initial pseudo-count introduces a tiny, harmless bias
        np.testing.assert_allclose(rms.mean, data.mean(axis=0), atol=1e-5)
        np.testing.assert_allclose(rms.var, data.var(axis=0), rtol=1e-3)

    def test_single_sample_update(self):
        rms = RunningMeanStd((2,))
        rms.update(np.array([1.0, 2.0]))
        np.testing.assert_allclose(rms.mean, [1.0, 2.0], atol=1e-3)

    def test_state_roundtrip(self, rng):
        rms = RunningMeanStd((3,))
        rms.update(rng.standard_normal((50, 3)))
        clone = RunningMeanStd((3,))
        clone.load(rms.state())
        np.testing.assert_array_equal(clone.mean, rms.mean)
        np.testing.assert_array_equal(clone.var, rms.var)
        assert clone.count == rms.count


class TestObservationNormalizer:
    def test_output_standardized(self, rng):
        norm = ObservationNormalizer((3,))
        data = rng.standard_normal((2000, 3)) * 5.0 + 10.0
        outs = np.array([norm(row) for row in data])
        assert abs(outs[-500:].mean()) < 0.3
        assert abs(outs[-500:].std() - 1.0) < 0.3

    def test_freeze_stops_updates(self, rng):
        norm = ObservationNormalizer((2,))
        norm(np.array([1.0, 1.0]))
        norm.freeze()
        count = norm.rms.count
        norm(np.array([100.0, 100.0]))
        assert norm.rms.count == count

    def test_clipping(self):
        norm = ObservationNormalizer((1,), clip=2.0)
        norm(np.array([0.0]))
        out = norm(np.array([1e9]), update=False)
        assert out[0] == 2.0

    def test_update_false_leaves_stats(self):
        norm = ObservationNormalizer((1,))
        norm(np.array([5.0]))
        count = norm.rms.count
        norm(np.array([7.0]), update=False)
        assert norm.rms.count == count


class TestRewardNormalizer:
    def test_scales_to_unit_order(self, rng):
        norm = RewardNormalizer(gamma=0.99)
        outs = [norm(float(r), done=False) for r in rng.standard_normal(500) * 50.0]
        assert np.abs(np.array(outs[-100:])).mean() < 5.0

    def test_done_resets_return(self):
        norm = RewardNormalizer(gamma=0.99)
        norm(10.0, done=True)
        assert norm._ret == 0.0


def brute_force_gae(rewards, values, boundary, bootstrap, gamma, lam):
    n = len(rewards)
    adv = np.zeros(n)
    for t in range(n):
        coeff, total, k = 1.0, 0.0, t
        while True:
            delta = rewards[k] + gamma * bootstrap[k] - values[k]
            total += coeff * delta
            if boundary[k] >= 0.5 or k == n - 1:
                break
            coeff *= gamma * lam
            k += 1
        adv[t] = total
    return adv


class TestGAE:
    def test_matches_brute_force(self, rng):
        n = 30
        rewards = rng.standard_normal(n)
        values = rng.standard_normal(n)
        boundary = (rng.random(n) < 0.2).astype(float)
        boundary[-1] = 1.0
        bootstrap = rng.standard_normal(n) * (1.0 - boundary) + 0.0
        adv, ret = compute_gae(rewards, values, boundary, bootstrap, 0.95, 0.9)
        expected = brute_force_gae(rewards, values, boundary, bootstrap, 0.95, 0.9)
        np.testing.assert_allclose(adv, expected, atol=1e-10)
        np.testing.assert_allclose(ret, expected + values, atol=1e-10)

    def test_single_terminated_step(self):
        adv, ret = compute_gae(np.array([2.0]), np.array([0.5]), np.array([1.0]),
                               np.array([0.0]), 0.99, 0.95)
        np.testing.assert_allclose(adv, [1.5])
        np.testing.assert_allclose(ret, [2.0])

    def test_bootstrap_at_truncation(self):
        # one-step episode, truncated with V(s')=10
        adv, _ = compute_gae(np.array([0.0]), np.array([0.0]), np.array([1.0]),
                             np.array([10.0]), 0.9, 1.0)
        np.testing.assert_allclose(adv, [9.0])


def as_rollout(buf: RolloutBuffer) -> AdversaryRollout:
    """The filled part of ``buf`` as the rollout ``gae_batch`` reads."""
    n = buf.ptr
    return AdversaryRollout(
        obs=buf.obs[:n], actions=buf.actions[:n], log_probs=buf.log_probs[:n],
        rewards=buf.rewards_e[:n], values_e=buf.values_e[:n],
        values_i=buf.values_i[:n], dones=buf.dones[:n],
        terminated=buf.terminated[:n], bootstrap_e=buf.bootstrap_e[:n],
        bootstrap_i=buf.bootstrap_i[:n], knn_victim=np.zeros((n, 0)),
        knn_adversary=np.zeros((n, 0)), episode_rewards=[],
        episode_victim_rewards=[], episode_successes=[])


class TestRolloutBuffer:
    def _fill(self, buffer, n, rng, done_at=()):
        for i in range(n):
            done = i in done_at
            buffer.add(rng.standard_normal(3), rng.standard_normal(2), -0.5,
                       reward_e=1.0, value_e=0.3, value_i=0.1, done=done,
                       terminated=done)

    def test_capacity_enforced(self, rng):
        buf = RolloutBuffer(4, 3, 2)
        self._fill(buf, 4, rng)
        assert buf.full
        with pytest.raises(RuntimeError):
            buf.add(np.zeros(3), np.zeros(2), 0.0, 0.0, 0.0)

    def test_gae_batch_shapes(self, rng):
        buf = RolloutBuffer(8, 3, 2)
        self._fill(buf, 8, rng, done_at=(3,))
        batch = gae_batch(as_rollout(buf), 0.99, 0.95)
        for key in ("obs", "actions", "log_probs", "advantages_e",
                    "advantages_i", "returns_e", "returns_i"):
            assert len(batch[key]) == 8, key

    def test_intrinsic_rewards_injection(self, rng):
        buf = RolloutBuffer(5, 3, 2)
        self._fill(buf, 5, rng)
        rollout = as_rollout(buf)
        # lam 0 on one open episode: adv_i = r_i + V_I(next) - V_I = r_i
        batch = gae_batch(rollout, 1.0, 0.0, intrinsic=np.arange(5.0))
        np.testing.assert_allclose(batch["advantages_i"][:4], np.arange(4.0))
        np.testing.assert_array_equal(gae_batch(rollout, 1.0, 0.0)["advantages_i"][:4],
                                      np.zeros(4))
        with pytest.raises(ValueError):
            gae_batch(rollout, 1.0, 0.0, intrinsic=np.zeros(3))

    def test_termination_zeroes_bootstrap(self, rng):
        buf = RolloutBuffer(2, 1, 1)
        buf.add(np.zeros(1), np.zeros(1), 0.0, reward_e=1.0, value_e=5.0,
                done=True, terminated=True)
        buf.add(np.zeros(1), np.zeros(1), 0.0, reward_e=1.0, value_e=5.0,
                done=True, terminated=True)
        batch = gae_batch(as_rollout(buf), 1.0, 1.0)
        # delta = r - V at terminations
        np.testing.assert_allclose(batch["advantages_e"], [-4.0, -4.0])

    def test_mid_episode_bootstrap_uses_next_value(self, rng):
        buf = RolloutBuffer(2, 1, 1)
        buf.add(np.zeros(1), np.zeros(1), 0.0, reward_e=0.0, value_e=1.0)
        buf.add(np.zeros(1), np.zeros(1), 0.0, reward_e=0.0, value_e=3.0)
        buf.set_bootstrap(1, 7.0)
        batch = gae_batch(as_rollout(buf), 1.0, 0.0)  # lam 0: adv = delta
        np.testing.assert_allclose(batch["advantages_e"], [2.0, 4.0])


@settings(max_examples=25, deadline=None)
@given(arrays(np.float64, 12, elements=st.floats(-3, 3)),
       arrays(np.float64, 12, elements=st.floats(-3, 3)),
       st.floats(0.5, 0.999), st.floats(0.0, 1.0))
def test_property_gae_matches_brute_force(rewards, values, gamma, lam):
    n = len(rewards)
    boundary = np.zeros(n)
    boundary[5] = 1.0
    boundary[-1] = 1.0
    bootstrap = np.zeros(n)
    adv, _ = compute_gae(rewards, values, boundary, bootstrap, gamma, lam)
    expected = brute_force_gae(rewards, values, boundary, bootstrap, gamma, lam)
    np.testing.assert_allclose(adv, expected, atol=1e-9)
