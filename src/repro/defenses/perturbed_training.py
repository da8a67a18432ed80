"""Perturbation-aware victim training.

In this substrate, output-smoothness alone *weakens* the stabilizing
feedback the victim needs (see DESIGN.md), so each robust-regularizer
defense is realized as the combination the original method's *intent*
implies: train on perturbed observations (its perturbation model) plus
its loss term.  The perturbation models:

* ``RandomNoisePerturbation``  — uniform δ in the ε-ball (SA's smoothed
  neighbourhood);
* ``FgsmPerturbation``         — per-state one-step worst case (RADIAL /
  WocaR's bound surrogate);
* ``PolicyPerturbation``       — a learned SA-RL attacker (ATLA).
"""

from __future__ import annotations

import numpy as np

from ..attacks.threat_models import project_perturbation
from ..rl.buffers import RolloutBuffer
from ..rl.policy import ActorCritic
from ..rl.ppo import PPOUpdater
from .base import DefenseTrainConfig

__all__ = [
    "RandomNoisePerturbation",
    "FgsmPerturbation",
    "PolicyPerturbation",
    "collect_rollout_with_perturbation",
    "train_with_perturbation",
]


class RandomNoisePerturbation:
    """Uniform observation noise in the l∞ ε-ball."""

    def __init__(self, epsilon: float, rng: np.random.Generator):
        self.epsilon = epsilon
        self._rng = rng

    def __call__(self, victim: ActorCritic, normalized_obs: np.ndarray) -> np.ndarray:
        return self._rng.uniform(-self.epsilon, self.epsilon, size=normalized_obs.shape)


class FgsmPerturbation:
    """Per-state one-step worst-case perturbation of the victim policy."""

    def __init__(self, epsilon: float, rng: np.random.Generator):
        self.epsilon = epsilon
        self._rng = rng

    def __call__(self, victim: ActorCritic, normalized_obs: np.ndarray) -> np.ndarray:
        from .smoothing import fgsm_perturbation

        return fgsm_perturbation(victim, normalized_obs, self.epsilon, rng=self._rng)


class PolicyPerturbation:
    """A (frozen) learned adversary policy generating the perturbation."""

    def __init__(self, adversary, epsilon: float, rng: np.random.Generator):
        self.adversary = adversary
        self.epsilon = epsilon
        self._rng = rng

    def __call__(self, victim: ActorCritic, normalized_obs: np.ndarray) -> np.ndarray:
        raw = self.adversary.action(normalized_obs, self._rng, deterministic=False)
        return project_perturbation(raw, self.epsilon)


def collect_rollout_with_perturbation(env, victim: ActorCritic, perturbation,
                                      buffer: RolloutBuffer,
                                      rng: np.random.Generator) -> float:
    """On-policy collection where the victim sees perturbed observations.

    Stores the perturbed inputs (what the network consumed), keeping the
    PPO update on-policy.  Returns the mean episode return.
    """
    obs = env.reset()
    returns, ep_return = [], 0.0
    buffer.reset()
    while not buffer.full:
        normalized = victim.normalize(obs, update=True)
        if perturbation is not None:
            normalized = normalized + perturbation(victim, normalized)
        action, log_prob, value, _ = victim.act_normalized(normalized, rng)
        next_obs, reward, terminated, truncated, info = env.step(action)
        done = terminated or truncated
        ep_return += reward
        buffer.add(normalized, action, float(log_prob), reward, float(value),
                   done=done, terminated=terminated)
        index = buffer.ptr - 1
        if done:
            if not terminated:
                nxt = victim.normalize(next_obs)
                buffer.set_bootstrap(index, float(victim.critic.infer(nxt).item()))
            returns.append(ep_return)
            ep_return = 0.0
            obs = env.reset()
        else:
            obs = next_obs
            if buffer.full:
                nxt = victim.normalize(obs)
                buffer.set_bootstrap(index, float(victim.critic.infer(nxt).item()))
    return float(np.mean(returns)) if returns else ep_return


def train_with_perturbation(env_factory, config: DefenseTrainConfig,
                            perturbation_builder, extra_loss=None) -> ActorCritic:
    """PPO victim training on perturbed observations (+ optional loss term).

    ``perturbation_builder(rng) -> callable | None`` builds the
    perturbation model once training starts.
    """
    rng = np.random.default_rng(config.seed)
    env = env_factory()
    env.seed(config.seed)
    obs_dim = env.observation_space.shape[0]
    action_dim = env.action_space.shape[0]
    victim = ActorCritic(obs_dim, action_dim, hidden_sizes=config.hidden_sizes,
                         rng=np.random.default_rng(config.seed))
    updater = PPOUpdater(victim, config.ppo, extra_loss=extra_loss)
    buffer = RolloutBuffer(config.steps_per_iteration, obs_dim, action_dim)
    perturbation = perturbation_builder(rng)
    for _ in range(config.iterations):
        collect_rollout_with_perturbation(env, victim, perturbation, buffer, rng)
        batch = buffer.finish(config.ppo.gamma, config.ppo.gae_lambda)
        updater.update(batch, rng=rng)
    victim.freeze_normalizer()
    return victim
