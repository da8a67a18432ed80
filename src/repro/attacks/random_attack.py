"""Random attack baselines: uniform ε-ball noise / a random opponent."""

from __future__ import annotations

import numpy as np

__all__ = ["RandomAttackPolicy"]


class RandomAttackPolicy:
    """Drop-in "policy" that emits uniform random actions.

    On a :class:`StatePerturbationEnv` this is the paper's *Random*
    column (uniform noise in the ε-ball); on an :class:`OpponentEnv` it
    is a flailing random opponent.
    """

    def __init__(self, action_dim: int, seed: int = 0):
        self.action_dim = action_dim
        self._rng = np.random.default_rng(seed)

    def action(self, obs: np.ndarray, rng: np.random.Generator | None = None,
               deterministic: bool = False) -> np.ndarray:
        del obs, deterministic
        rng = rng or self._rng
        return rng.uniform(-1.0, 1.0, size=self.action_dim)

    @staticmethod
    def for_env(env, seed: int = 0) -> "RandomAttackPolicy":
        return RandomAttackPolicy(env.action_space.shape[0], seed=seed)
