"""Proximal Policy Optimization (clip variant) on the autograd stack.

Implements Eq. 1 / Eq. 14 of the paper: the clipped surrogate objective
over the combined advantage ``Â_E + τ_k Â_I``, plus value regression for
the extrinsic (and, when present, intrinsic) heads and an entropy bonus.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import nn
from ..nn import Tensor
from ..nn import functional as F
from ..telemetry import profiled
from .health import check_finite, check_gradients
from .policy import ActorCritic

__all__ = ["PPOConfig", "PPOUpdater"]


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
        self.extra_loss = extra_loss
        # Optional repro.telemetry.Telemetry; @profiled reads it per call.
        self.telemetry = telemetry

    @profiled("ppo.update")
    def update(self, batch: dict[str, np.ndarray], tau: float = 0.0,
               rng: np.random.Generator | None = None) -> dict[str, float]:
        """Run minibatch epochs on a finished rollout batch.

        ``tau`` is the intrinsic temperature τ_k; 0 recovers vanilla PPO.
        Returns diagnostics (mean losses, approximate KL).
        """
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
        adv = Tensor(advantages[idx])

        dist = self.policy.distribution(obs)
        log_probs = dist.log_prob(actions)
        ratio = (log_probs - Tensor(old_log_probs)).exp()
        clipped = ratio.clip(1.0 - cfg.clip_epsilon, 1.0 + cfg.clip_epsilon)
        policy_loss = -F.minimum(ratio * adv, clipped * adv).mean()

        value_loss = F.mse_loss(self.policy.value(obs), batch["returns_e"][idx])
        if self.policy.dual_value:
            value_loss = value_loss + F.mse_loss(
                self.policy.value_intrinsic(obs), batch["returns_i"][idx]
            )

        entropy = dist.entropy().mean()
        loss = policy_loss + cfg.value_coef * value_loss - cfg.entropy_coef * entropy

        extra_value = 0.0
        if self.extra_loss is not None:
            extra = self.extra_loss(self.policy, obs, dist)
            extra_value = float(extra.data)
            loss = loss + cfg.extra_loss_weight * extra

        # Guards run before the optimizer mutates any state, so a diverged
        # minibatch leaves parameters and moments exactly as checkpointed.
        check_finite("loss", float(loss.data), max_abs=cfg.max_loss_magnitude)
        self.optimizer.zero_grad()
        loss.backward()
        check_gradients(self.policy.parameters())
        nn.clip_grad_norm(self.policy.parameters(), cfg.max_grad_norm)
        self.optimizer.step()

        log_ratio = log_probs.data - old_log_probs
        approx_kl = float(np.mean(np.exp(log_ratio) - 1.0 - log_ratio))
        clip_fraction = float(np.mean(np.abs(ratio.data - 1.0) > cfg.clip_epsilon))
        return {
            "policy_loss": float(policy_loss.data),
            "value_loss": float(value_loss.data),
            "entropy": float(entropy.data),
            "approx_kl": approx_kl,
            "clip_fraction": clip_fraction,
            "extra_loss": extra_value,
        }
