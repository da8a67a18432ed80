"""ATLA / ATLA-SA defenses (Zhang et al., 2021): alternating training of
the victim and a learned RL attacker.

Each phase first trains an SA-RL attacker against the current victim,
then trains the victim on observations perturbed by that attacker.
ATLA-SA additionally applies the SA smoothness regularizer to the victim
(the original also swaps in an LSTM; we keep MLPs — see DESIGN.md).
"""

from __future__ import annotations

from ..attacks.base import AttackConfig
from ..attacks.sarl import train_sarl
from ..attacks.threat_models import StatePerturbationEnv
from ..rl.policy import ActorCritic
from .base import DefenseTrainConfig, register_defense
from .perturbed_training import PerturbedTraining, PolicyPerturbation
from .sa_regularizer import make_sa_loss

__all__ = ["train_atla", "train_atla_sa"]


def _train_atla_impl(env_factory, config: DefenseTrainConfig, use_sa: bool) -> ActorCritic:
    extra = make_sa_loss(config.epsilon, config.regularizer_weight, config.seed) if use_sa else None
    run = PerturbedTraining(env_factory, config, extra_loss=extra)
    phases = max(1, config.atla_phases)
    victim_iters = max(1, config.iterations // phases)
    adversary = None
    for phase in range(phases):
        # Victim phase: learn under the current attacker's perturbations.
        run.train(None if adversary is None
                  else PolicyPerturbation(adversary, config.epsilon, run.rng),
                  victim_iters)
        # Attacker phase: retrain SA-RL against the updated victim.
        attack_cfg = AttackConfig(
            iterations=config.atla_adversary_iterations,
            steps_per_iteration=config.steps_per_iteration,
            hidden_sizes=config.hidden_sizes,
            seed=config.seed + 100 + phase,
        )
        adv_env = StatePerturbationEnv(env_factory(), run.victim, epsilon=config.epsilon,
                                       victim_deterministic=False)
        adversary = train_sarl(adv_env, attack_cfg).policy
    run.victim.freeze_normalizer()
    return run.victim


@register_defense("atla")
def train_atla(env_factory, config: DefenseTrainConfig) -> ActorCritic:
    return _train_atla_impl(env_factory, config, use_sa=False)


@register_defense("atla_sa")
def train_atla_sa(env_factory, config: DefenseTrainConfig) -> ActorCritic:
    return _train_atla_impl(env_factory, config, use_sa=True)
