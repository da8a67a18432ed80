"""Victim training with robustness defenses.

Registered defenses (Table 1 rows): ``ppo`` (vanilla), ``sa``,
``radial``, ``wocar`` (robust regularizers), ``atla``, ``atla_sa``
(adversarial training).
"""

from . import atla, radial, sa_regularizer, vanilla, wocar  # noqa: F401  (register)
from .base import DefenseTrainConfig, defense_names, get_defense, register_defense
from .detection import DetectionReport, DynamicsModel, ForesightDetector
from .perturbed_training import (
    FgsmPerturbation,
    PerturbedVictim,
    PolicyPerturbation,
    RandomNoisePerturbation,
    train_with_perturbation,
)
from .smoothing import adversarial_smoothness_loss, fgsm_perturbation, random_smoothness_loss

__all__ = [
    "DefenseTrainConfig", "get_defense", "register_defense", "defense_names",
    "random_smoothness_loss", "adversarial_smoothness_loss", "fgsm_perturbation",
    "RandomNoisePerturbation", "FgsmPerturbation", "PolicyPerturbation",
    "PerturbedVictim", "train_with_perturbation",
    "ForesightDetector", "DynamicsModel", "DetectionReport",
]
