"""Actor-critic policies with optional dual value heads.

The extrinsic head estimates ``V_E`` and the (optional) intrinsic head
``V_I``; IMAP optimizes the combined advantage ``Â_E + τ_k Â_I``
(paper Eq. 14).
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import (MLP, DiagGaussian, Parameter, Tensor, gaussian_kl_grad_mean_q,
                  gaussian_log_prob, gaussian_sample)
from .normalize import ObservationNormalizer

__all__ = ["ActorCritic"]


class ActorCritic(nn.Module):
    """Gaussian MLP policy + one or two value heads + obs normalizer."""

    def __init__(self, obs_dim: int, action_dim: int,
                 hidden_sizes: tuple[int, ...] = (64, 64),
                 log_std_init: float = -0.5,
                 dual_value: bool = False,
                 normalize_obs: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.obs_dim = obs_dim
        self.action_dim = action_dim
        self.dual_value = dual_value
        self.actor = MLP(obs_dim, hidden_sizes, action_dim, output_gain=0.01, rng=rng)
        self.log_std = Parameter(np.full(action_dim, log_std_init))
        self.critic = MLP(obs_dim, hidden_sizes, 1, output_gain=1.0, rng=rng)
        if dual_value:
            self.critic_intrinsic = MLP(obs_dim, hidden_sizes, 1, output_gain=1.0, rng=rng)
        self.normalizer = ObservationNormalizer((obs_dim,)) if normalize_obs else None

    # ------------------------------------------------------------ observation

    def normalize(self, obs: np.ndarray, update: bool = False) -> np.ndarray:
        if self.normalizer is None:
            return np.asarray(obs, dtype=np.float64)
        return self.normalizer(obs, update=update)

    def freeze_normalizer(self) -> None:
        if self.normalizer is not None:
            self.normalizer.freeze()

    # ----------------------------------------------------------- distribution

    def distribution(self, normalized_obs) -> DiagGaussian:
        """Policy distribution over actions; input must already be normalized."""
        return DiagGaussian(self.actor(normalized_obs), self.log_std)

    def act_normalized(self, normalized: np.ndarray, rng: np.random.Generator,
                       deterministic: bool = False):
        """Rollout forward on already-normalized input, in plain numpy.

        ``normalized`` is one row (obs_dim,) or a batch (n, obs_dim).
        Returns ``(action, log_prob, value_e, value_i)``; the last three
        have the batch shape (``()`` for one row), and ``value_i`` is zero
        without an intrinsic head.  Bit-identical to the same quantities
        built from :meth:`distribution` and the critics, with no graph.
        """
        mean = self.actor.infer(normalized)
        log_std = self.log_std.data
        action = mean if deterministic else gaussian_sample(mean, log_std, rng)
        log_prob = gaussian_log_prob(action, mean, log_std)
        value_e = self.critic.infer(normalized)[..., 0]
        value_i = (self.critic_intrinsic.infer(normalized)[..., 0] if self.dual_value
                   else np.zeros(mean.shape[:-1]))
        return action, log_prob, value_e, value_i

    def sample_action(self, normalized: np.ndarray, rng: np.random.Generator,
                      deterministic: bool = False) -> np.ndarray:
        """Just the action of :meth:`act_normalized`: same draws, no critics."""
        mean = self.actor.infer(normalized)
        return mean if deterministic else gaussian_sample(mean, self.log_std.data, rng)

    def act(self, obs: np.ndarray, rng: np.random.Generator,
            deterministic: bool = False, update_normalizer: bool = False):
        """Single-step rollout action.

        Returns ``(action, log_prob, value_e, value_i, normalized_obs)``.
        """
        normalized = self.normalize(obs, update=update_normalizer)
        action, log_prob, value_e, value_i = self.act_normalized(
            normalized, rng, deterministic=deterministic)
        return action, float(log_prob), float(value_e), float(value_i), normalized

    def act_batch(self, obs: np.ndarray, rng: np.random.Generator,
                  deterministic: bool = False, update_normalizer: bool = False):
        """Batched rollout action for vectorized envs.

        ``obs`` has shape (n_envs, obs_dim); returns ``(actions,
        log_probs, values_e, values_i, normalized_obs)`` with a leading
        n_envs axis each.  A batch of one routes through :meth:`act` so
        the forward pass and RNG draws are bit-identical to the serial
        rollout path (the n_envs=1 parity guarantee).
        """
        obs = np.asarray(obs, dtype=np.float64)
        if obs.ndim != 2:
            raise ValueError(f"act_batch expects (n_envs, obs_dim), got {obs.shape}")
        if obs.shape[0] == 1:
            action, log_prob, value_e, value_i, normalized = self.act(
                obs[0], rng, deterministic=deterministic,
                update_normalizer=update_normalizer)
            return (action[None].copy(), np.array([log_prob]),
                    np.array([value_e]), np.array([value_i]), normalized[None].copy())
        normalized = self.normalize(obs, update=update_normalizer)
        return (*self.act_normalized(normalized, rng, deterministic=deterministic),
                normalized)

    def action(self, obs: np.ndarray, rng: np.random.Generator,
               deterministic: bool = False) -> np.ndarray:
        """Convenience: just the action (used for deployed/fixed policies)."""
        return self.sample_action(self.normalize(obs), rng, deterministic=deterministic)

    # ----------------------------------------------------------------- values

    def value(self, normalized_obs) -> Tensor:
        return self.critic(normalized_obs).reshape((-1,))

    def value_intrinsic(self, normalized_obs) -> Tensor:
        if not self.dual_value:
            raise RuntimeError("policy was built without an intrinsic value head")
        return self.critic_intrinsic(normalized_obs).reshape((-1,))

    # -------------------------------------------------------- input gradients

    def kl_input_gradient(self, anchor_mean: np.ndarray, normalized: np.ndarray) -> np.ndarray:
        """Gradient w.r.t. ``normalized`` of the mean KL(anchor ‖ π(normalized)).

        The anchor is the Gaussian with mean ``anchor_mean`` and this
        policy's ``log_std``.  Plain numpy, bit-identical to the ``x.grad``
        that ``DiagGaussian.kl(...).mean().backward()`` leaves; parameter
        grads are not touched.
        """
        mean, vjp = self.actor.infer_vjp(normalized)
        return vjp(gaussian_kl_grad_mean_q(anchor_mean, mean, self.log_std.data))

    def value_input_gradient(self, normalized: np.ndarray) -> np.ndarray:
        """Gradient w.r.t. ``normalized`` of the summed extrinsic value estimate."""
        value, vjp = self.critic.infer_vjp(normalized)
        return vjp(np.ones_like(value))

    # ------------------------------------------------------------- checkpoint

    def checkpoint_state(self) -> dict[str, np.ndarray]:
        state = self.state_dict()
        if self.normalizer is not None:
            for key, value in self.normalizer.state().items():
                state[f"__norm__{key}"] = value
        return state

    def load_checkpoint_state(self, state: dict[str, np.ndarray]) -> None:
        params = {k: v for k, v in state.items() if not k.startswith("__norm__")}
        self.load_state_dict(params)
        norm = {k[len("__norm__"):]: v for k, v in state.items() if k.startswith("__norm__")}
        if norm and self.normalizer is not None:
            self.normalizer.load(norm)
