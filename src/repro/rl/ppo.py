"""Proximal Policy Optimization (clip variant).

Implements Eq. 1 / Eq. 14 of the paper: the clipped surrogate objective
over the combined advantage ``Â_E + τ_k Â_I``, plus value regression for
the extrinsic (and, when present, intrinsic) heads and an entropy bonus.
The loss and its gradients run in numpy (:func:`ppo_loss`); only a
defense's ``extra_loss`` puts the update on the autograd tape.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import nn
from ..nn import Tensor
from ..nn import functional as F
from .health import check_finite, clip_checked_gradients
from .policy import ActorCritic

__all__ = ["PPOConfig", "PPOUpdater", "ppo_loss"]

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class PPOConfig:
    learning_rate: float = 3e-4
    clip_epsilon: float = 0.2
    epochs: int = 8
    minibatches: int = 4
    gamma: float = 0.99
    gae_lambda: float = 0.95
    entropy_coef: float = 0.003
    value_coef: float = 0.5
    max_grad_norm: float = 0.5
    target_kl: float | None = 0.05
    normalize_advantages: bool = True
    extra_loss_weight: float = 1.0  # weight for defense regularizer terms
    # Health guard: any |loss| above this raises NumericalDivergence even
    # before it turns into an actual NaN/Inf.  None disables the bound
    # (the NaN/Inf check itself is always on).
    max_loss_magnitude: float | None = 1e6
    extra_kwargs: dict = field(default_factory=dict)


class PPOUpdater:
    """Performs PPO updates on an :class:`ActorCritic`.

    ``extra_loss`` hooks let the defense methods (SA / RADIAL / WocaR)
    add their regularizers to the PPO loss without subclassing.
    """

    def __init__(self, policy: ActorCritic, config: PPOConfig | None = None,
                 extra_loss=None, telemetry=None):
        self.policy = policy
        self.config = config or PPOConfig()
        self.optimizer = nn.Adam(policy.parameters(), lr=self.config.learning_rate)
        self._named_parameters = list(policy.named_parameters())
        self.extra_loss = extra_loss
        # Optional repro.telemetry.Telemetry: times each update as
        # "ppo.update" and records the loss gauges.
        self.telemetry = telemetry

    def update(self, batch: dict[str, np.ndarray], tau: float = 0.0,
               rng: np.random.Generator | None = None) -> dict[str, float]:
        """Run minibatch epochs on a finished rollout batch.

        ``tau`` is the intrinsic temperature τ_k; 0 recovers vanilla PPO.
        Returns diagnostics (mean losses, approximate KL).
        """
        if self.telemetry is None:
            return self._update(batch, tau, rng)
        with self.telemetry.timer("ppo.update"):
            return self._update(batch, tau, rng)

    def _update(self, batch, tau, rng) -> dict[str, float]:
        cfg = self.config
        rng = rng or np.random.default_rng()
        n = len(batch["obs"])
        check_finite("returns", batch["returns_e"])
        advantages = batch["advantages_e"] + tau * batch["advantages_i"]
        check_finite("advantages", advantages)
        if cfg.normalize_advantages and n > 1:
            advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)

        stats = {"policy_loss": 0.0, "value_loss": 0.0, "entropy": 0.0,
                 "approx_kl": 0.0, "clip_fraction": 0.0, "extra_loss": 0.0}
        updates = 0
        early_stop = False
        for _ in range(cfg.epochs):
            if early_stop:
                break
            perm = rng.permutation(n)
            for chunk in np.array_split(perm, cfg.minibatches):
                if len(chunk) == 0:
                    continue
                diag = self._update_minibatch(batch, advantages, chunk, tau)
                for key, value in diag.items():
                    stats[key] += value
                updates += 1
                if cfg.target_kl is not None and diag["approx_kl"] > 1.5 * cfg.target_kl:
                    early_stop = True
                    break
        if updates:
            stats = {k: v / updates for k, v in stats.items()}
        stats["updates"] = updates
        if self.telemetry is not None:
            metrics = self.telemetry.metrics
            for key in ("policy_loss", "value_loss", "approx_kl", "clip_fraction"):
                metrics.gauge(f"ppo.{key}").set(stats[key])
            metrics.counter("ppo.minibatch_updates").inc(updates)
        return stats

    def _update_minibatch(self, batch, advantages, idx, tau) -> dict[str, float]:
        cfg = self.config
        obs = batch["obs"][idx]
        actions = batch["actions"][idx]
        old_log_probs = batch["log_probs"][idx]
        returns_i = batch["returns_i"][idx] if self.policy.dual_value else None
        if self.extra_loss is None:
            terms, backward = ppo_loss(self.policy, cfg, obs, actions, old_log_probs,
                                       advantages[idx], batch["returns_e"][idx], returns_i)
        else:
            terms, backward = self._tensor_loss(obs, actions, old_log_probs,
                                                advantages[idx], batch["returns_e"][idx],
                                                returns_i)

        # Guards run before the optimizer mutates any state, so a diverged
        # minibatch leaves parameters and moments exactly as checkpointed.
        check_finite("loss", terms["loss"], max_abs=cfg.max_loss_magnitude)
        backward()
        clip_checked_gradients(self._named_parameters, cfg.max_grad_norm)
        self.optimizer.step()

        log_ratio = terms["log_probs"] - old_log_probs
        approx_kl = float(np.mean(np.exp(log_ratio) - 1.0 - log_ratio))
        clip_fraction = float(np.mean(np.abs(terms["ratio"] - 1.0) > cfg.clip_epsilon))
        return {
            "policy_loss": float(terms["policy_loss"]),
            "value_loss": float(terms["value_loss"]),
            "entropy": float(terms["entropy"]),
            "approx_kl": approx_kl,
            "clip_fraction": clip_fraction,
            "extra_loss": terms["extra_loss"],
        }

    def _tensor_loss(self, obs, actions, old_log_probs, advantages, returns_e, returns_i):
        """The PPO loss on the autograd tape, plus ``extra_loss``.

        The defense regularizers are Tensor functions of ``dist``; their
        gradients accumulate into the shared ``dist.mean``, so this loss
        stays on the tape.  Returns the loss terms and a ``backward()``
        that leaves every parameter gradient in ``.grad``.
        """
        cfg = self.config
        adv = Tensor(advantages)
        dist = self.policy.distribution(obs)
        log_probs = dist.log_prob(actions)
        ratio = (log_probs - Tensor(old_log_probs)).exp()
        clipped = ratio.clip(1.0 - cfg.clip_epsilon, 1.0 + cfg.clip_epsilon)
        policy_loss = -F.minimum(ratio * adv, clipped * adv).mean()

        value_loss = F.mse_loss(self.policy.value(obs), returns_e)
        if self.policy.dual_value:
            value_loss = value_loss + F.mse_loss(self.policy.value_intrinsic(obs), returns_i)

        entropy = dist.entropy().mean()
        loss = policy_loss + cfg.value_coef * value_loss - cfg.entropy_coef * entropy
        extra = self.extra_loss(self.policy, obs, dist)
        loss = loss + cfg.extra_loss_weight * extra

        def backward() -> None:
            self.optimizer.zero_grad()
            loss.backward()

        terms = {"loss": float(loss.data), "policy_loss": policy_loss.data,
                 "value_loss": value_loss.data, "entropy": entropy.data,
                 "extra_loss": float(extra.data), "log_probs": log_probs.data,
                 "ratio": ratio.data}
        return terms, backward


def ppo_loss(policy: ActorCritic, cfg: PPOConfig, obs, actions, old_log_probs,
             advantages, returns_e, returns_i=None):
    """The PPO loss of one minibatch and its parameter gradients, in numpy.

    The same quantities as :meth:`PPOUpdater._tensor_loss` without an
    extra loss: the clipped surrogate, the MSE of each value head and the
    entropy bonus.  The forward repeats the Tensor ops of
    ``DiagGaussian.log_prob``/``entropy``, ``F.minimum`` and
    ``F.mse_loss`` (``a - b`` as ``a + (-b)``, ``mean`` as
    ``sum() * (1 / n)``); ``backward()`` repeats their autograd backward op
    for op, including where contributions are summed: the actor output
    adds its log-prob and entropy terms, and ``log_std`` adds its two
    log-prob terms and then its entropy term.  So the loss terms and the
    ``.grad`` that ``backward()`` assigns to every parameter are the bits
    the tape gives.  Returns ``(terms, backward)`` like ``_tensor_loss``.
    """
    n = len(obs)
    inv_n = 1.0 / n
    mean, actor_vjp = policy.actor.infer_param_vjp(obs)
    log_std = policy.log_std.data

    # DiagGaussian.log_prob
    diff = actions + -mean
    inv_std = np.exp(-log_std)
    z = diff * inv_std
    log_probs = ((z**2 * -0.5 + -log_std) + -(0.5 * _LOG_2PI)).sum(axis=-1)

    # Clipped surrogate
    ratio = np.exp(log_probs + -old_log_probs)
    low, high = 1.0 - cfg.clip_epsilon, 1.0 + cfg.clip_epsilon
    surrogate = ratio * advantages
    surrogate_clipped = np.clip(ratio, low, high) * advantages
    take_unclipped = surrogate <= surrogate_clipped
    policy_loss = -(np.minimum(surrogate, surrogate_clipped).sum() * inv_n)

    # Value heads
    heads = [(policy.critic, returns_e)]
    if policy.dual_value:
        heads.append((policy.critic_intrinsic, returns_i))
    errors, value_loss = [], None
    for critic, returns in heads:
        values, critic_vjp = critic.infer_param_vjp(obs)
        error = values.reshape((-1,)) + -np.asarray(returns, dtype=np.float64)
        head_loss = (error**2).sum() * inv_n
        value_loss = head_loss if value_loss is None else value_loss + head_loss
        errors.append((error, critic_vjp))

    # DiagGaussian.entropy
    entropy = ((log_std + 0.5 * (1.0 + _LOG_2PI)) + mean * 0.0).sum(axis=-1).sum() * inv_n
    loss = (policy_loss + value_loss * cfg.value_coef) + -(entropy * cfg.entropy_coef)

    def backward() -> None:
        # The mean()s hand every row the same gradient, broadcast by sum().
        g_rows = np.full(n, -1.0 * inv_n)
        g_entropy = np.full(mean.shape, (-1.0 * cfg.entropy_coef) * inv_n)
        # F.minimum sends each row to one branch; the clip passes the
        # gradient strictly inside (low, high) only.
        g_unclipped = (g_rows * take_unclipped) * advantages
        g_clipped = ((g_rows * ~take_unclipped) * advantages
                     * ((ratio > low) & (ratio < high)))
        g_per_dim = np.broadcast_to(((g_unclipped + g_clipped) * ratio)[:, None],
                                    mean.shape).copy()
        g_z = g_per_dim * -0.5 * 2 * z**1
        g_mean = -(g_z * inv_std) + g_entropy * 0.0
        g_log_std = (-((g_z * diff).sum(axis=(0,)) * inv_std)
                     + -g_per_dim.sum(axis=(0,))) + g_entropy.sum(axis=(0,))
        grads = [g_log_std, *actor_vjp(g_mean)]
        g_head = np.full(n, (1.0 * cfg.value_coef) * inv_n)
        for error, critic_vjp in errors:
            grads += critic_vjp((g_head * 2 * error**1).reshape((n, 1)))
        for param, grad in zip(policy.parameters(), grads, strict=True):
            param.grad = grad

    terms = {"loss": float(loss), "policy_loss": policy_loss, "value_loss": value_loss,
             "entropy": entropy, "extra_loss": 0.0, "log_probs": log_probs,
             "ratio": ratio}
    return terms, backward
