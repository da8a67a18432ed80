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

Training collects with :func:`~repro.runtime.collector.collect_lanes`,
the loop every trainer uses, over a one-lane ``SyncVectorEnv``; the
policy it drives is a :class:`PerturbedVictim` view, which adds the
perturbation and keeps this module's own bootstrap rule (critic only).
:class:`PerturbedTraining` holds what a run carries across ATLA's phases.
"""

from __future__ import annotations

import numpy as np

from ..attacks.threat_models import project_perturbation
from ..rl.buffers import gae_batch
from ..rl.policy import ActorCritic
from ..rl.ppo import PPOUpdater
from ..runtime.collector import collect_lanes
from ..runtime.vec_env import SyncVectorEnv
from .base import DefenseTrainConfig

__all__ = [
    "RandomNoisePerturbation",
    "FgsmPerturbation",
    "PolicyPerturbation",
    "PerturbedVictim",
    "PerturbedTraining",
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


class PerturbedVictim:
    """Collector view of a victim that acts on perturbed observations.

    A step normalizes the observation (updating the normalizer), adds
    ``perturbation(victim, normalized)`` if there is one, and acts on,
    and stores, the sum, so the PPO update stays on-policy.  A cut's value
    is the critic alone on the clean normalized observation: no draw and
    no normalizer update, even with ``perturbation=None``.  One lane only,
    on the 1-D row: a ``(1, d)`` matmul (FGSM's too) may change bits.
    """

    def __init__(self, victim: ActorCritic, perturbation=None):
        self.victim = victim
        self.perturbation = perturbation

    @staticmethod
    def _row(obs: np.ndarray) -> np.ndarray:
        if len(obs) != 1:
            raise ValueError(f"PerturbedVictim collects one lane, got {len(obs)}")
        return obs[0]

    def act_batch(self, obs: np.ndarray, rng: np.random.Generator,
                  update_normalizer: bool = True):
        victim = self.victim
        normalized = victim.normalize(self._row(obs), update=update_normalizer)
        if self.perturbation is not None:
            normalized = normalized + self.perturbation(victim, normalized)
        action, log_prob, value_e, value_i = victim.act_normalized(normalized, rng)
        return (action[None], log_prob[None], value_e[None], value_i[None],
                normalized[None])

    def bootstrap_values(self, obs: np.ndarray, rng: np.random.Generator,
                         update_normalizer: bool = True):
        value = self.victim.critic.infer(self.victim.normalize(self._row(obs)))
        return value, np.zeros(1)


class PerturbedTraining:
    """A victim, its PPO updater, env and loop RNG, trained in phases:
    one :meth:`train` call per perturbation model (ATLA: per attacker)."""

    def __init__(self, env_factory, config: DefenseTrainConfig, extra_loss=None):
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        env = env_factory()
        env.seed(config.seed)
        self.lanes = SyncVectorEnv([env])
        self.victim = ActorCritic(env.observation_space.shape[0],
                                  env.action_space.shape[0],
                                  hidden_sizes=config.hidden_sizes,
                                  rng=np.random.default_rng(config.seed))
        self.updater = PPOUpdater(self.victim, config.ppo, extra_loss=extra_loss)

    def train(self, perturbation, iterations: int) -> None:
        cfg = self.config
        policy = PerturbedVictim(self.victim, perturbation)
        for _ in range(iterations):
            rollout = collect_lanes(self.lanes, policy, cfg.steps_per_iteration, self.rng)
            self.updater.update(gae_batch(rollout, cfg.ppo.gamma, cfg.ppo.gae_lambda),
                                rng=self.rng)


def train_with_perturbation(env_factory, config: DefenseTrainConfig,
                            perturbation_builder, extra_loss=None) -> ActorCritic:
    """PPO victim training on perturbed observations (+ optional loss term).

    ``perturbation_builder(rng) -> callable | None`` builds the
    perturbation model once training starts.
    """
    run = PerturbedTraining(env_factory, config, extra_loss)
    run.train(perturbation_builder(run.rng), config.iterations)
    run.victim.freeze_normalizer()
    return run.victim
