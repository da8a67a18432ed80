"""Dense-reward locomotion environments (Hopper, Walker2d, HalfCheetah,
Ant, Humanoid, HumanoidStandup proxies).

Each environment wraps a :class:`~repro.envs.physics.LinkChainBody`.  The
observation is the body's core state padded with deterministic
"contact-like" features (a fixed tanh random projection of the core
state) so the observation dimensionality matches the paper's MuJoCo
tasks (Hopper 11, Walker2d/HalfCheetah 17, Ant 111, Humanoid 376).

Reward structure mirrors Gym MuJoCo: forward velocity + alive bonus −
control cost (this is the victim's *private* training reward).  The
black-box surrogate signal is ``info["success"]``: True once the agent
has run past ``success_distance`` (locomotion) or stood up (standup).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace

import numpy as np

from .core import Env
from .physics import BodyConfig, LinkChainBody
from .spaces import Box

__all__ = [
    "LocomotionConfig",
    "LocomotionEnv",
    "HopperEnv",
    "Walker2dEnv",
    "HalfCheetahEnv",
    "AntEnv",
    "HumanoidEnv",
    "HumanoidStandupEnv",
    "LOCOMOTION_CONFIGS",
]


@dataclass
class LocomotionConfig:
    """Task-level parameters layered on a body."""

    name: str
    body: BodyConfig
    obs_dim: int
    forward_reward_weight: float = 1.0
    alive_bonus: float = 1.0
    ctrl_cost_weight: float = 0.05
    success_distance: float = 6.0
    terminate_unhealthy: bool = True
    standup: bool = False
    standup_height: float = 1.1
    fallen_pitch: float = 0.9


def _padding_projection(name: str, core_dim: int, pad_dim: int) -> np.ndarray:
    """Deterministic projection for the contact-like padding features.

    Uses a stable (non-salted) hash so cached victim checkpoints keep
    seeing the same observation layout across processes.
    """
    seed = zlib.crc32(f"repro-env-padding:{name}".encode("utf-8"))
    rng = np.random.default_rng(seed)
    return rng.standard_normal((core_dim, pad_dim)) / np.sqrt(core_dim)


class LocomotionEnv(Env):
    """Dense-reward locomotion over a link-chain body."""

    def __init__(self, config: LocomotionConfig):
        super().__init__()
        self.config = config
        self.body = LinkChainBody(config.body)
        core_dim = self.body.core_dim
        if config.obs_dim < core_dim:
            raise ValueError(
                f"{config.name}: obs_dim {config.obs_dim} smaller than core dim {core_dim}"
            )
        self._pad_dim = config.obs_dim - core_dim
        self._projection = (
            _padding_projection(config.name, core_dim, self._pad_dim)
            if self._pad_dim
            else None
        )
        self.observation_space = Box(-np.inf, np.inf, (config.obs_dim,))
        self.action_space = Box(-1.0, 1.0, (config.body.n_joints,))
        self._succeeded = False
        self._prev_z = 0.0

    # ---------------------------------------------------------------- helpers

    def _observe(self) -> np.ndarray:
        obs = np.empty(self.config.obs_dim)
        core_dim = self.config.obs_dim - self._pad_dim
        core = self.body.core_state(out=obs[:core_dim])
        if self._projection is not None:
            obs[core_dim:] = np.tanh(core @ self._projection)
        return obs

    def _success_now(self) -> bool:
        if self.config.standup:
            return self.body.z >= self.config.standup_height
        return self.body.x >= self.config.success_distance

    # ------------------------------------------------------------------- API

    def _reset(self) -> np.ndarray:
        pitch0 = self.config.fallen_pitch if self.config.standup else 0.0
        self.body.reset(self.np_random, pitch0=pitch0)
        self._succeeded = False
        self._prev_z = self.body.z
        return self._observe()

    def step(self, action):
        cfg = self.config
        body = self.body
        action = body.step(action, rng=self.np_random)

        if cfg.standup:
            progress = (body.z - self._prev_z) / cfg.body.dt
            self._prev_z = body.z
        else:
            progress = body.v
        # mean (not sum) so the cost scale is joint-count independent;
        # np.add.reduce(x) / n averages as numpy's mean does (see physics.py)
        ctrl_cost = cfg.ctrl_cost_weight * (
            float(np.add.reduce(action * action)) / cfg.body.n_joints)
        reward = cfg.forward_reward_weight * progress + cfg.alive_bonus - ctrl_cost

        healthy = body.healthy
        terminated = cfg.terminate_unhealthy and not healthy
        success = False
        if not terminated and not self._succeeded and self._success_now():
            success = True
            self._succeeded = True

        info = {
            "success": success,
            "x_position": body.x,
            "forward_velocity": body.v,
            "height": body.z,
            "pitch": body.pitch,
            "healthy": healthy,
        }
        return self._observe(), reward, terminated, False, info


def _dense(name: str, n_joints: int, obs_dim: int, **task_kwargs) -> LocomotionConfig:
    return LocomotionConfig(name=name, body=BodyConfig(n_joints=n_joints), obs_dim=obs_dim, **task_kwargs)


LOCOMOTION_CONFIGS: dict[str, LocomotionConfig] = {
    "Hopper": _dense("Hopper", 3, 11, success_distance=6.5),
    "Walker2d": _dense("Walker2d", 6, 17, success_distance=6.5),
    # HalfCheetah cannot fall over in MuJoCo; mirror that with a very
    # forgiving health region and no unhealthy termination.  The attack
    # surface is speed, not falling: corrupted observations make the gait
    # inefficient or reversed.
    "HalfCheetah": replace(
        _dense("HalfCheetah", 6, 17, success_distance=9.0, alive_bonus=0.0,
               terminate_unhealthy=False),
        body=BodyConfig(n_joints=6, pitch_max=np.inf, z_min=-np.inf, drive_gain=6.5,
                        speed_coupling=0.0, tip_gain=0.0),
    ),
    "Ant": _dense("Ant", 8, 111, success_distance=6.5),
    "Humanoid": replace(
        _dense("Humanoid", 17, 376, success_distance=4.5),
        body=BodyConfig(n_joints=17, speed_coupling=2.4, pitch_noise=0.4),
    ),
    "HumanoidStandup": LocomotionConfig(
        name="HumanoidStandup",
        # Standing is actively unstable: gravity tipping beats the passive
        # stiffness, so the policy must balance with observed pitch.
        body=BodyConfig(n_joints=17, pitch_max=2.6, z_min=-np.inf,
                        pitch_stiffness=1.2, tip_gain=1.6, imbalance_gain=2.5,
                        speed_coupling=0.0, drive_gain=0.0),
        obs_dim=376,
        standup=True,
        alive_bonus=0.0,
        forward_reward_weight=2.0,
        terminate_unhealthy=False,
    ),
}


class HopperEnv(LocomotionEnv):
    def __init__(self):
        super().__init__(LOCOMOTION_CONFIGS["Hopper"])


class Walker2dEnv(LocomotionEnv):
    def __init__(self):
        super().__init__(LOCOMOTION_CONFIGS["Walker2d"])


class HalfCheetahEnv(LocomotionEnv):
    def __init__(self):
        super().__init__(LOCOMOTION_CONFIGS["HalfCheetah"])


class AntEnv(LocomotionEnv):
    def __init__(self):
        super().__init__(LOCOMOTION_CONFIGS["Ant"])


class HumanoidEnv(LocomotionEnv):
    def __init__(self):
        super().__init__(LOCOMOTION_CONFIGS["Humanoid"])


class HumanoidStandupEnv(LocomotionEnv):
    def __init__(self):
        super().__init__(LOCOMOTION_CONFIGS["HumanoidStandup"])
