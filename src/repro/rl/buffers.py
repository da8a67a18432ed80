"""Rollout storage with dual-channel Generalized Advantage Estimation."""

from __future__ import annotations

import numpy as np

__all__ = ["RolloutBuffer", "compute_gae", "gae_batch"]


def compute_gae(rewards: np.ndarray, values: np.ndarray, terminated: np.ndarray,
                bootstrap: np.ndarray, gamma: float, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """GAE(λ) over a flat rollout with episode boundaries.

    ``bootstrap[t]`` must hold V(s_{t+1}) for every step (0 where the
    episode terminated).  Episode ends (terminated or truncated) stop the
    advantage recursion.  Returns ``(advantages, returns)``.
    """
    n = len(rewards)
    advantages = np.zeros(n)
    last_adv = 0.0
    for t in range(n - 1, -1, -1):
        next_value = bootstrap[t]
        delta = rewards[t] + gamma * next_value - values[t]
        if terminated[t] >= 0.5:  # episode boundary: no flow-through
            last_adv = delta
        else:
            last_adv = delta + gamma * lam * last_adv
        advantages[t] = last_adv
    returns = advantages + values
    return advantages, returns


def gae_batch(rollout, gamma: float, lam: float,
              intrinsic: np.ndarray | None = None) -> dict[str, np.ndarray]:
    """The PPO batch, with per-channel GAE, of a collected rollout.

    ``rollout`` is what :func:`repro.runtime.collector.collect_lanes`
    returns.  A step bootstraps from the next stored value within an
    episode, from zero at a termination, and from its ``bootstrap_*``
    value at a truncation or lane end.  ``intrinsic`` (e.g. IMAP's KNN
    bonus) defaults to zeros.
    """
    n = len(rollout)
    if intrinsic is not None and np.shape(intrinsic) != (n,):
        raise ValueError(f"expected intrinsic rewards of shape ({n},), "
                         f"got {np.shape(intrinsic)}")
    boot_e = rollout.bootstrap_e.copy()
    boot_i = rollout.bootstrap_i.copy()
    for t in range(n - 1):
        if rollout.dones[t] < 0.5:
            boot_e[t] = rollout.values_e[t + 1]
            boot_i[t] = rollout.values_i[t + 1]
    boot_e[rollout.terminated >= 0.5] = 0.0
    boot_i[rollout.terminated >= 0.5] = 0.0
    # The end of the batch and truncations stop the recursion too.
    boundary = rollout.dones.copy()
    boundary[-1] = 1.0

    adv_e, ret_e = compute_gae(rollout.rewards, rollout.values_e, boundary, boot_e, gamma, lam)
    rewards_i = intrinsic if intrinsic is not None else np.zeros(n)
    adv_i, ret_i = compute_gae(rewards_i, rollout.values_i, boundary, boot_i, gamma, lam)
    return {
        "obs": rollout.obs,
        "actions": rollout.actions,
        "log_probs": rollout.log_probs,
        "advantages_e": adv_e,
        "advantages_i": adv_i,
        "returns_e": ret_e,
        "returns_i": ret_i,
    }


class RolloutBuffer:
    """Fixed-size storage for one lane of on-policy experience."""

    def __init__(self, capacity: int, obs_dim: int, action_dim: int):
        self.capacity = capacity
        self.obs = np.zeros((capacity, obs_dim))
        self.actions = np.zeros((capacity, action_dim))
        self.log_probs = np.zeros(capacity)
        self.rewards_e = np.zeros(capacity)
        self.values_e = np.zeros(capacity)
        self.values_i = np.zeros(capacity)
        # done[t]: 1 if the episode ended after step t (either way);
        # terminated[t]: 1 only for true environment termination.
        self.dones = np.zeros(capacity)
        self.terminated = np.zeros(capacity)
        self.bootstrap_e = np.zeros(capacity)
        self.bootstrap_i = np.zeros(capacity)
        self.ptr = 0

    @property
    def full(self) -> bool:
        return self.ptr >= self.capacity

    def add(self, obs, action, log_prob, reward_e, value_e, value_i=0.0,
            done=False, terminated=False) -> None:
        if self.full:
            raise RuntimeError("rollout buffer is full")
        i = self.ptr
        self.obs[i] = obs
        self.actions[i] = action
        self.log_probs[i] = log_prob
        self.rewards_e[i] = reward_e
        self.values_e[i] = value_e
        self.values_i[i] = value_i
        self.dones[i] = float(done)
        self.terminated[i] = float(terminated)
        self.ptr += 1

    def set_bootstrap(self, index: int, value_e: float, value_i: float = 0.0) -> None:
        """Record V(s_{t+1}) for a step (used at truncations and buffer end)."""
        self.bootstrap_e[index] = value_e
        self.bootstrap_i[index] = value_i
