"""SA-RL baseline (Zhang et al., 2021) under the strict black-box model.

SA-RL is plain PPO on the state-perturbation adversary MDP with trivial
(dithering) exploration — i.e. the shared trainer with no intrinsic
regularizer.  The original SA-RL relaxes the threat model and trains on
the victim's dense reward; for the fair comparison in the paper both
SA-RL and IMAP use the surrogate ``-r̂`` (Section 6.2).  The relaxed
variant is available via ``use_dense_reward=True`` for the ablation
bench.
"""

from __future__ import annotations

from ..envs.core import Env, Wrapper
from .base import AttackConfig, AttackResult
from .trainer import AdversaryTrainer

__all__ = ["train_sarl", "DenseRewardAdversaryWrapper"]


class DenseRewardAdversaryWrapper(Wrapper):
    """Relaxed threat model: adversary reward = −(victim dense reward)."""

    def __init__(self, env: Env, scale: float = 0.01):
        super().__init__(env)
        self.scale = scale

    def step(self, action):
        obs, _, terminated, truncated, info = self.env.step(action)
        reward = -self.scale * float(info.get("victim_reward", 0.0))
        return obs, reward, terminated, truncated, info


def train_sarl(adversary_env: Env, config: AttackConfig,
               use_dense_reward: bool = False, callback=None) -> AttackResult:
    """Train the SA-RL baseline attack."""
    env = DenseRewardAdversaryWrapper(adversary_env) if use_dense_reward else adversary_env
    name = "SA-RL(dense)" if use_dense_reward else "SA-RL"
    trainer = AdversaryTrainer(env, config, regularizer=None, name=name)
    return trainer.train(callback=callback)
