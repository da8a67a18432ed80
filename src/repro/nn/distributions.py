"""Probability distributions for stochastic policies.

Both distributions support differentiable ``log_prob``/``entropy``/``kl``
through the autograd engine, plus cheap non-differentiable sampling for
environment rollouts.  The ``gaussian_*`` functions are the numpy-only
inference path for a diagonal Gaussian: the same operations as the
``DiagGaussian`` methods (and, for ``gaussian_kl_grad_mean_q``, their
autograd backward), in the same order, so bit-identical to them.
"""

from __future__ import annotations

import numpy as np

from .autograd import Tensor, as_tensor
from .functional import log_softmax, softmax

__all__ = ["DiagGaussian", "Categorical", "gaussian_sample", "gaussian_log_prob",
           "gaussian_kl", "gaussian_kl_grad_mean_q"]

_LOG_2PI = float(np.log(2.0 * np.pi))


def gaussian_sample(mean: np.ndarray, log_std: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
    """One draw per row of ``mean``; what :meth:`DiagGaussian.sample` draws."""
    return mean + np.exp(log_std) * rng.standard_normal(mean.shape)


def gaussian_log_prob(actions: np.ndarray, mean: np.ndarray,
                      log_std: np.ndarray) -> np.ndarray:
    """Numpy :meth:`DiagGaussian.log_prob`, summed over the action dimension."""
    z = (actions - mean) * np.exp(-log_std)
    per_dim = z**2 * -0.5 - log_std - 0.5 * _LOG_2PI
    return per_dim.sum(axis=-1)


def gaussian_kl(mean_p: np.ndarray, log_std_p: np.ndarray,
                mean_q: np.ndarray, log_std_q: np.ndarray) -> np.ndarray:
    """Numpy :meth:`DiagGaussian.kl`: KL(p || q) summed over the action dimension."""
    var_ratio = np.exp((log_std_p - log_std_q) * 2.0)
    mean_term = ((mean_p - mean_q) * np.exp(-log_std_q)) ** 2
    per_dim = (var_ratio + mean_term - 1.0) * 0.5 + (log_std_q - log_std_p)
    return per_dim.sum(axis=-1)


def gaussian_kl_grad_mean_q(mean_p: np.ndarray, mean_q: np.ndarray,
                            log_std_q: np.ndarray) -> np.ndarray:
    """Gradient of ``gaussian_kl(p, q).mean()`` w.r.t. ``mean_q``.

    Repeats the autograd chain of ``DiagGaussian.kl(...).mean()`` op for
    op: the seed gradient 1.0 times ``mean``'s ``1/count``, the ``* 0.5``
    of the per-dimension term, the ``** 2`` of the mean term, its
    ``* exp(-log_std_q)`` and the negation of ``mean_p - mean_q``.
    ``count`` is the number of KL rows (1 for a single row).
    """
    count = int(np.prod(mean_q.shape[:-1]))
    scale = 1.0 * (1.0 / count)
    t = (mean_p - mean_q) * np.exp(-log_std_q)
    return -((((scale * 0.5) * 2.0) * t) * np.exp(-log_std_q))


class DiagGaussian:
    """Diagonal Gaussian over continuous actions.

    Parameters may be Tensors (for differentiable losses) or arrays (for
    rollout-time sampling).  ``mean`` has shape (..., dim); ``log_std``
    broadcasts against it (typically shape (dim,): state-independent).
    """

    def __init__(self, mean, log_std):
        self.mean = as_tensor(mean)
        self.log_std = as_tensor(log_std)

    @property
    def std(self) -> Tensor:
        return self.log_std.exp()

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return gaussian_sample(self.mean.data, self.log_std.data, rng)

    def mode(self) -> np.ndarray:
        return self.mean.data.copy()

    def log_prob(self, actions) -> Tensor:
        """Log density, summed over the action dimension."""
        actions = as_tensor(actions)
        z = (actions - self.mean) * (-self.log_std).exp()
        per_dim = z**2 * -0.5 - self.log_std - 0.5 * _LOG_2PI
        return per_dim.sum(axis=-1)

    def entropy(self) -> Tensor:
        per_dim = self.log_std + 0.5 * (1.0 + _LOG_2PI)
        # Broadcast state-independent log_std to the batch shape of mean.
        batch = self.mean * 0.0
        return (per_dim + batch).sum(axis=-1)

    def kl(self, other: "DiagGaussian") -> Tensor:
        """KL(self || other), summed over the action dimension."""
        var_ratio = ((self.log_std - other.log_std) * 2.0).exp()
        mean_term = ((self.mean - other.mean) * (-other.log_std).exp()) ** 2
        per_dim = (var_ratio + mean_term - 1.0) * 0.5 + (other.log_std - self.log_std)
        return per_dim.sum(axis=-1)


class Categorical:
    """Categorical distribution over discrete actions, from logits."""

    def __init__(self, logits):
        self.logits = as_tensor(logits)

    def probs(self) -> Tensor:
        return softmax(self.logits, axis=-1)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        p = self.probs().data
        if p.ndim == 1:
            return np.asarray(rng.choice(len(p), p=p))
        cumulative = np.cumsum(p, axis=-1)
        draws = rng.random(p.shape[:-1] + (1,))
        return (draws < cumulative).argmax(axis=-1)

    def mode(self) -> np.ndarray:
        return self.logits.data.argmax(axis=-1)

    def log_prob(self, actions) -> Tensor:
        logp = log_softmax(self.logits, axis=-1)
        actions = np.asarray(actions.data if isinstance(actions, Tensor) else actions, dtype=int)
        if logp.data.ndim == 1:
            return logp[int(actions)]
        rows = np.arange(logp.data.shape[0])
        return logp[rows, actions]

    def entropy(self) -> Tensor:
        logp = log_softmax(self.logits, axis=-1)
        return -(logp.exp() * logp).sum(axis=-1)

    def kl(self, other: "Categorical") -> Tensor:
        logp = log_softmax(self.logits, axis=-1)
        logq = log_softmax(other.logits, axis=-1)
        return (logp.exp() * (logp - logq)).sum(axis=-1)
