"""On-policy RL machinery: PPO, GAE buffers, rollouts, normalization."""

from .buffers import RolloutBuffer, compute_gae, gae_batch
from .health import NumericalDivergence, array_health, check_finite, check_gradients
from .normalize import ObservationNormalizer, RewardNormalizer, RunningMeanStd
from .policy import ActorCritic
from .ppo import PPOConfig, PPOUpdater
from .rollout import EpisodeStats, evaluate_policy
from .trainer import TrainConfig, TrainResult, quick_eval, train_ppo

__all__ = [
    "RolloutBuffer", "compute_gae", "gae_batch",
    "NumericalDivergence", "array_health", "check_finite", "check_gradients",
    "RunningMeanStd", "ObservationNormalizer", "RewardNormalizer",
    "ActorCritic",
    "PPOConfig", "PPOUpdater",
    "EpisodeStats", "evaluate_policy",
    "TrainConfig", "TrainResult", "train_ppo", "quick_eval",
]
