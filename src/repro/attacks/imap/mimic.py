"""Adversarial mimic policy π^{α,m} for the D-driven regularizer.

The mimic imitates the mixture of the adversary's past policies
(minimizing KL(π^{α,m}, {π_i})) by maximum-likelihood regression on a
reservoir of (state, past-policy-mean) snapshots: the mean head matches
the past means and the state-independent log-std widens to cover the
mixture's spread.
"""

from __future__ import annotations

import numpy as np

from ... import nn
from ...nn import MLP, DiagGaussian, Parameter, Tensor

__all__ = ["MimicPolicy"]


class MimicPolicy(nn.Module):
    """Gaussian MLP distilled from past adversary policies."""

    def __init__(self, obs_dim: int, action_dim: int, hidden: tuple[int, ...] = (64, 64),
                 buffer_capacity: int = 20_000, learning_rate: float = 1e-3,
                 batch_size: int = 256, seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.net = MLP(obs_dim, hidden, action_dim, output_gain=0.01, rng=rng)
        self.log_std = Parameter(np.full(action_dim, -0.5))
        self.optimizer = nn.Adam(self.parameters(), lr=learning_rate)
        self.batch_size = batch_size
        self.buffer_capacity = buffer_capacity
        self._rng = np.random.default_rng(seed + 1)
        self._obs: list[np.ndarray] = []
        self._means: list[np.ndarray] = []
        self._seen = 0
        self.trained = False

    # ---------------------------------------------------------------- buffer

    def absorb(self, obs_batch: np.ndarray, policy) -> None:
        """Store (state, current-policy-mean) snapshots via reservoir sampling."""
        means = policy.actor.infer(obs_batch)
        for o, m in zip(obs_batch, means):
            self._seen += 1
            if len(self._obs) < self.buffer_capacity:
                self._obs.append(np.asarray(o, dtype=np.float64))
                self._means.append(np.asarray(m, dtype=np.float64))
            else:
                j = int(self._rng.integers(self._seen))
                if j < self.buffer_capacity:
                    self._obs[j] = np.asarray(o, dtype=np.float64)
                    self._means[j] = np.asarray(m, dtype=np.float64)

    # -------------------------------------------------------------- training

    def fit(self, steps: int = 40) -> float:
        """Regress the mimic onto the stored snapshots; returns final loss."""
        if not self._obs:
            return 0.0
        obs = np.asarray(self._obs)
        means = np.asarray(self._means)
        loss_value = 0.0
        for _ in range(steps):
            idx = self._rng.integers(len(obs), size=min(self.batch_size, len(obs)))
            dist = DiagGaussian(self.net(obs[idx]), self.log_std)
            # Maximum likelihood of the past means under the mimic ≈
            # KL(mixture || mimic) up to the mixture entropy.
            loss = -dist.log_prob(Tensor(means[idx])).mean()
            self.optimizer.zero_grad()
            loss.backward()
            self.optimizer.step()
            loss_value = float(loss.data)
        self.trained = True
        return loss_value

    # ------------------------------------------------------------- inference

    def distribution(self, obs_batch) -> DiagGaussian:
        return DiagGaussian(self.net(obs_batch), self.log_std)

    # ------------------------------------------------------------ checkpoint

    def checkpoint_state(self) -> dict:
        """Resumable snapshot: params, optimizer moments, reservoir, RNG."""
        empty = np.zeros((0, 0))
        return {
            "obs_dim": self.net.hidden[0].in_features if self.net.hidden
                       else self.net.output.in_features,
            "action_dim": self.net.output.out_features,
            "params": self.state_dict(),
            "optimizer": self.optimizer.state_dict(),
            "rng": self._rng.bit_generator.state,
            "obs": np.asarray(self._obs) if self._obs else empty,
            "means": np.asarray(self._means) if self._means else empty,
            "seen": self._seen,
            "trained": self.trained,
        }

    def load_checkpoint_state(self, state: dict) -> None:
        self.load_state_dict(state["params"])
        self.optimizer.load_state_dict(state["optimizer"])
        self._rng.bit_generator.state = state["rng"]
        obs = np.asarray(state["obs"], dtype=np.float64)
        means = np.asarray(state["means"], dtype=np.float64)
        self._obs = [row.copy() for row in obs]
        self._means = [row.copy() for row in means]
        self._seen = int(state["seen"])
        self.trained = bool(state["trained"])
