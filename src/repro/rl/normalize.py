"""Running statistics and observation/reward normalization."""

from __future__ import annotations

import numpy as np

__all__ = ["RunningMeanStd", "ObservationNormalizer", "RewardNormalizer"]


class RunningMeanStd:
    """Numerically stable streaming mean/variance (Chan et al. parallel form)."""

    def __init__(self, shape: tuple[int, ...] = ()):
        self.mean = np.zeros(shape)
        self.var = np.ones(shape)
        self.count = 1e-4

    # ``std`` is cached until ``var`` is next assigned: a frozen normalizer
    # divides by the same std on every step.  ``var`` is rebound, never
    # written in place, by ``update`` and ``load``.

    @property
    def var(self) -> np.ndarray:
        return self._var

    @var.setter
    def var(self, value: np.ndarray) -> None:
        self._var = value
        self._std = None

    def __getstate__(self) -> dict:
        # The pre-cache layout, so pickles stay byte-identical both ways.
        return {"mean": self.mean, "var": self._var, "count": self.count}

    def __setstate__(self, state: dict) -> None:
        self.mean = state["mean"]
        self.var = state["var"]
        self.count = state["count"]

    def update(self, batch: np.ndarray) -> None:
        batch = np.asarray(batch, dtype=np.float64)
        if batch.ndim == len(self.mean.shape):
            batch = batch[None]
        batch_count = batch.shape[0]
        if batch_count == 1:
            # The one-lane collector's per-step update: the batch mean is
            # the row and the variance (x - x)**2, 0 for a finite x and NaN
            # for NaN/inf, as the general reduction gives.  The general
            # formulas' products with the batch count are products with 1,
            # which change no bits; leaving them out makes an update of an
            # 11-dim row about 30% faster (9.6 -> 6.8 us on a 2-vCPU x86
            # VM), about 5% of a one-lane Hopper collection.
            row = batch[0]
            deviation = row - row
            delta = row - self.mean
            count, total = self.count, self.count + 1
            self.mean = self.mean + delta / total
            self.var = (self.var * count + deviation * deviation
                        + delta**2 * count / total) / total
            self.count = total
            return
        batch_mean = batch.mean(axis=0)
        batch_var = batch.var(axis=0)
        delta = batch_mean - self.mean
        total = self.count + batch_count
        new_mean = self.mean + delta * batch_count / total
        m_a = self.var * self.count
        m_b = batch_var * batch_count
        m2 = m_a + m_b + delta**2 * self.count * batch_count / total
        self.mean = new_mean
        self.var = m2 / total
        self.count = total

    @property
    def std(self) -> np.ndarray:
        std = self._std
        if std is None:
            std = self._std = np.sqrt(self._var + 1e-8)
        return std

    def state(self) -> dict[str, np.ndarray]:
        return {"mean": self.mean.copy(), "var": self.var.copy(), "count": np.array(self.count)}

    def load(self, state: dict[str, np.ndarray]) -> None:
        self.mean = np.asarray(state["mean"], dtype=np.float64).copy()
        self.var = np.asarray(state["var"], dtype=np.float64).copy()
        self.count = float(np.asarray(state["count"]))


class ObservationNormalizer:
    """Normalize observations to ~N(0, 1) with clipping.

    The normalizer is part of the deployed policy: attacks that perturb
    "the inputs of the victim policy network" operate in this normalized
    space (as in SA-RL).
    """

    def __init__(self, shape: tuple[int, ...], clip: float = 10.0):
        self.rms = RunningMeanStd(shape)
        self.clip = clip
        self.frozen = False

    def __call__(self, obs: np.ndarray, update: bool = True) -> np.ndarray:
        obs = np.asarray(obs, dtype=np.float64)
        if update and not self.frozen:
            self.rms.update(obs)
        # np.clip's ufuncs without its Python wrappers (see DESIGN.md)
        clip = self.clip
        return np.minimum(np.maximum((obs - self.rms.mean) / self.rms.std, -clip), clip)

    def freeze(self) -> None:
        self.frozen = True

    def state(self) -> dict[str, np.ndarray]:
        return self.rms.state()

    def load(self, state: dict[str, np.ndarray]) -> None:
        self.rms.load(state)


class RewardNormalizer:
    """Scale rewards by the running std of the discounted return."""

    def __init__(self, gamma: float = 0.99, clip: float = 10.0):
        self.rms = RunningMeanStd(())
        self.gamma = gamma
        self.clip = clip
        self._ret = 0.0

    def __call__(self, reward: float, done: bool) -> float:
        self._ret = self.gamma * self._ret + reward
        self.rms.update(np.array([self._ret]))
        if done:
            self._ret = 0.0
        return float(np.clip(reward / float(self.rms.std), -self.clip, self.clip))

    def state(self) -> dict[str, np.ndarray]:
        return {**self.rms.state(), "ret": np.array(self._ret)}

    def load(self, state: dict[str, np.ndarray]) -> None:
        self.rms.load(state)
        self._ret = float(np.asarray(state["ret"]))
