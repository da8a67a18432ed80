"""Episode statistics and policy evaluation for single-agent Envs.

Training rollouts are collected by :func:`repro.runtime.collector.collect_lanes`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..envs.core import Env
from .policy import ActorCritic

__all__ = ["EpisodeStats", "evaluate_policy"]


@dataclass
class EpisodeStats:
    """Aggregates over the episodes finished during a rollout.

    Aggregating zero episodes raises :class:`ValueError` rather than
    dividing by zero (or silently returning 0.0, which is
    indistinguishable from a genuinely zero-return policy).  Callers
    that may legitimately see an empty rollout — e.g. a training batch
    that ends mid-first-episode — should branch on ``len(stats)`` first.
    """

    returns: list[float] = field(default_factory=list)
    lengths: list[int] = field(default_factory=list)
    successes: list[bool] = field(default_factory=list)

    def add(self, ep_return: float, length: int, success: bool) -> None:
        self.returns.append(ep_return)
        self.lengths.append(length)
        self.successes.append(success)

    def _require_episodes(self, what: str) -> None:
        if not self.returns:
            raise ValueError(
                f"cannot aggregate {what} over zero finished episodes; "
                "check len(stats) before aggregating")

    @property
    def mean_return(self) -> float:
        self._require_episodes("mean_return")
        return float(np.mean(self.returns))

    @property
    def std_return(self) -> float:
        self._require_episodes("std_return")
        return float(np.std(self.returns))

    @property
    def success_rate(self) -> float:
        self._require_episodes("success_rate")
        return float(np.mean(self.successes))

    def __len__(self) -> int:
        return len(self.returns)


def evaluate_policy(env: Env, policy: ActorCritic, episodes: int,
                    rng: np.random.Generator, deterministic: bool = True,
                    ) -> EpisodeStats:
    """Run ``episodes`` evaluation episodes (no learning side effects)."""
    if episodes < 1:
        raise ValueError(
            f"evaluate_policy needs episodes >= 1, got {episodes}: an empty "
            "evaluation has no statistics to aggregate")
    stats = EpisodeStats()
    for _ in range(episodes):
        obs = env.reset()
        done = False
        ep_return, ep_length, ep_success = 0.0, 0, False
        while not done:
            action = policy.action(obs, rng, deterministic=deterministic)
            obs, reward, terminated, truncated, info = env.step(action)
            done = terminated or truncated
            ep_return += reward
            ep_length += 1
            ep_success = ep_success or bool(info.get("success", False))
        stats.add(ep_return, ep_length, ep_success)
    return stats
