"""Vectorized environments: step N seeded env copies in lockstep.

:class:`SyncVectorEnv` is the synchronous reference implementation — it
steps each lane in-process and auto-resets finished episodes, exposing
the final observation of an ended episode via ``info["final_obs"]`` (the
gym convention).  The batched observation array it returns lets one
policy forward pass serve every lane.

Seeding: ``seed(s)`` gives lane ``i`` the seed ``s + LANE_SEED_STRIDE*i``
so lane 0 reproduces a single env seeded with ``s`` exactly (the
n_envs=1 parity guarantee) while other lanes get well-separated streams.
Scheduler-level seed derivation (for independent *jobs* rather than
lanes) uses ``np.random.SeedSequence`` instead — see
:mod:`repro.runtime.scheduler`.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..envs.core import Env
from ..envs.spaces import Space

__all__ = ["VectorEnv", "SyncVectorEnv", "LANE_SEED_STRIDE"]

# Large odd stride keeps lane seeds disjoint from the +1 offsets some
# envs use internally for auxiliary generators (e.g. victim rngs).
LANE_SEED_STRIDE = 9973


class VectorEnv:
    """Batched environment API over ``num_envs`` lanes.

    ``observation_space``/``action_space`` describe a *single* lane, so a
    VectorEnv can be dropped in wherever code only inspects the spaces.
    """

    num_envs: int
    observation_space: Space
    action_space: Space

    def seed(self, seed: int | None) -> None:
        raise NotImplementedError

    def reset(self, seed: int | None = None) -> np.ndarray:
        """Reset every lane; returns observations of shape (num_envs, obs_dim)."""
        raise NotImplementedError

    def step(self, actions: np.ndarray):
        """Step every lane with ``actions[i]``; auto-resets finished lanes.

        Returns ``(obs, rewards, terminated, truncated, infos)`` where the
        first four are batched arrays and ``infos`` is a list of dicts.
        For a lane whose episode just ended, ``obs[i]`` is the *new*
        episode's initial observation and ``infos[i]["final_obs"]`` holds
        the last observation of the finished episode.  The four arrays
        belong to the env and the next ``step`` overwrites them: copy what
        must outlive it.
        """
        raise NotImplementedError

    def __len__(self) -> int:
        return self.num_envs

    def __repr__(self) -> str:
        return f"<{type(self).__name__} num_envs={self.num_envs}>"


class SyncVectorEnv(VectorEnv):
    """Synchronous vectorization: N env copies stepped in a loop."""

    def __init__(self, envs: Sequence[Env | Callable[[], Env]]):
        if not envs:
            raise ValueError("SyncVectorEnv needs at least one env")
        self.envs: list[Env] = [e() if callable(e) else e for e in envs]
        self.num_envs = len(self.envs)
        self.observation_space = self.envs[0].observation_space
        self.action_space = self.envs[0].action_space
        for env in self.envs[1:]:
            if env.observation_space.shape != self.observation_space.shape:
                raise ValueError("all lanes must share an observation space")
            if env.action_space.shape != self.action_space.shape:
                raise ValueError("all lanes must share an action space")
        n = self.num_envs
        # step()'s output arrays, refilled by every step.
        self._outputs = (np.empty((n,) + self.observation_space.shape), np.empty(n),
                         np.empty(n, dtype=bool), np.empty(n, dtype=bool))

    @classmethod
    def from_factory(cls, factory: Callable[[], Env], n_envs: int) -> "SyncVectorEnv":
        return cls([factory() for _ in range(n_envs)])

    def seed(self, seed: int | None) -> None:
        for i, env in enumerate(self.envs):
            env.seed(None if seed is None else seed + LANE_SEED_STRIDE * i)

    def reset(self, seed: int | None = None) -> np.ndarray:
        if seed is not None:
            self.seed(seed)
        return np.stack([env.reset() for env in self.envs])

    def step(self, actions: np.ndarray):
        actions = np.asarray(actions)
        if len(actions) != self.num_envs:
            raise ValueError(f"expected {self.num_envs} actions, got {len(actions)}")
        obs_batch, rewards, terminated, truncated = self._outputs
        infos: list[dict] = []
        for i, env in enumerate(self.envs):
            obs, reward, term, trunc, info = env.step(actions[i])
            if term or trunc:
                info = dict(info)
                info["final_obs"] = np.array(obs, dtype=np.float64)
                obs = env.reset()
            obs_batch[i] = obs
            rewards[i] = reward
            terminated[i] = term
            truncated[i] = trunc
            infos.append(info)
        return obs_batch, rewards, terminated, truncated, infos
