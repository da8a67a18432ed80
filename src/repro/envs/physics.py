"""Analytic rigid-body-proxy dynamics for the locomotion suite.

MuJoCo is replaced (see DESIGN.md) by a torque-driven joint chain with an
explicit balance channel.  The model keeps the properties the paper's
attacks exploit:

* forward thrust requires coordinated joint motion (``a · tanh(q̇)``);
* running fast destabilizes the torso pitch (``speed_coupling · v · φ``),
  so a competent policy must close a feedback loop on the pitch it
  *observes* — which is exactly the loop an observation attacker corrupts;
* an unhealthy region (torso too low / pitch too large) terminates the
  episode, i.e. the agent "falls".

All states integrate with semi-implicit Euler at ``dt``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["BodyConfig", "LinkChainBody"]


@dataclass
class BodyConfig:
    """Parameters of a link-chain locomotion body."""

    n_joints: int = 3
    dt: float = 0.05
    torque_gain: float = 8.0
    joint_damping: float = 2.0
    joint_stiffness: float = 3.0
    drive_gain: float = 5.0
    drag: float = 1.0
    imbalance_gain: float = 2.0
    pitch_stiffness: float = 2.0
    pitch_damping: float = 1.0
    pitch_noise: float = 0.9
    tip_gain: float = 0.6  # gravity tipping torque coefficient (destabilizing)
    speed_coupling: float = 5.0
    z_rest: float = 1.25
    height_sag: float = 0.9
    crouch_sag: float = 0.35
    z_min: float = 0.7
    pitch_max: float = 0.3
    # joint torques that feed the pitch channel; alternating signs by default
    imbalance_weights: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        # A jointless body has no mean joint angle: every state would be NaN.
        if self.n_joints < 1:
            raise ValueError(f"n_joints must be at least 1, got {self.n_joints}")

    def weights(self) -> np.ndarray:
        if self.imbalance_weights is not None:
            w = np.asarray(self.imbalance_weights, dtype=np.float64)
            if w.shape != (self.n_joints,):
                raise ValueError("imbalance_weights must have shape (n_joints,)")
            return w
        signs = np.where(np.arange(self.n_joints) % 2 == 0, 1.0, -1.0)
        signs = signs - signs.mean()  # symmetric torque produces no net tipping
        total = np.abs(signs).sum()
        return signs / (total if total > 0 else 1.0)


class LinkChainBody:
    """Stateful integrator for the body model.

    State vector layout (``core_state``):
    ``[z, pitch, q_0..q_{n-1}, v, pitch_dot, qd_0..qd_{n-1}]``
    The absolute forward position ``x`` is tracked separately (it is not
    observed, matching MuJoCo's convention of excluding the root x).
    """

    def __init__(self, config: BodyConfig):
        self.config = config
        self._w = config.weights()
        self.reset(np.random.default_rng(0))

    # ------------------------------------------------------------- lifecycle

    def reset(self, rng: np.random.Generator, pitch0: float = 0.0) -> None:
        c = self.config
        n = c.n_joints
        self.q = rng.uniform(-0.05, 0.05, size=n)
        self.qd = np.zeros(n)
        self.pitch = pitch0 + rng.uniform(-0.03, 0.03)
        self.pitch_dot = 0.0
        self.v = 0.0
        self.x = 0.0
        self._update_height()

    def _update_height(self, cos_q: np.ndarray | None = None) -> None:
        """Recompute ``z``; ``cos_q`` is ``np.cos(self.q)`` when the caller has it."""
        c = self.config
        if cos_q is None:
            cos_q = np.cos(self.q)
        crouch = float(np.add.reduce(1.0 - cos_q)) / c.n_joints
        self.z = c.z_rest - c.height_sag * (1.0 - np.cos(self.pitch)) - c.crouch_sag * crouch

    # ------------------------------------------------------------- dynamics
    #
    # The step runs once per environment step, on arrays of a few joints,
    # so numpy's per-call dispatch is most of its cost.  It calls the
    # ufuncs that numpy's clip and mean wrappers run, without the wrappers
    # (see DESIGN.md, "Per-step hot path"): ``np.minimum(np.maximum(a, lo),
    # hi)`` to clip and ``np.add.reduce(x) / n`` to average, which keeps
    # numpy's pairwise summation.

    def step(self, action: np.ndarray, rng: np.random.Generator | None = None) -> np.ndarray:
        """Integrate one ``dt``; returns the action applied, clipped to [-1, 1]."""
        c = self.config
        n = c.n_joints
        a = np.asarray(action, dtype=np.float64)
        if a.shape != (n,):
            raise ValueError(f"action must have shape ({n},), got {a.shape}")
        a = np.minimum(np.maximum(a, -1.0), 1.0)

        qdd = c.torque_gain * a - c.joint_damping * self.qd - c.joint_stiffness * self.q
        self.qd = self.qd + c.dt * qdd
        self.q = self.q + c.dt * self.qd
        cos_q = np.cos(self.q)

        # Thrust: symmetric torque drives the gait; over-extended joints
        # (large |q|) lose leverage, so pushing harder is not always faster.
        # The clip to [0, 1] passes -0.0 and NaN through, as numpy's does.
        efficiency = float(np.add.reduce(cos_q)) / n
        if efficiency < 0.0:
            efficiency = 0.0
        elif efficiency > 1.0:
            efficiency = 1.0
        thrust = c.drive_gain * (float(np.add.reduce(a)) / n) * efficiency
        self.v = self.v + c.dt * (thrust - c.drag * self.v)
        self.x = self.x + c.dt * self.v

        noise = float(rng.standard_normal()) * c.pitch_noise if rng is not None else 0.0
        pitch_acc = (
            c.imbalance_gain * float(self._w @ a)
            - c.pitch_stiffness * self.pitch
            + c.tip_gain * np.sin(self.pitch)
            - c.pitch_damping * self.pitch_dot
            + c.speed_coupling * self.v * self.pitch
            + noise
        )
        self.pitch_dot = self.pitch_dot + c.dt * pitch_acc
        self.pitch = self.pitch + c.dt * self.pitch_dot
        self._update_height(cos_q)
        return a

    # ----------------------------------------------------------- observation

    @property
    def healthy(self) -> bool:
        c = self.config
        return self.z >= c.z_min and abs(self.pitch) <= c.pitch_max

    def core_state(self, out: np.ndarray | None = None) -> np.ndarray:
        """The core state, written into ``out`` (a new array by default)."""
        n = self.config.n_joints
        if out is None:
            out = np.empty(4 + 2 * n)
        out[0] = self.z
        out[1] = self.pitch
        out[2:n + 2] = self.q
        out[n + 2] = self.v
        out[n + 3] = self.pitch_dot
        out[n + 4:] = self.qd
        return out

    @property
    def core_dim(self) -> int:
        return 4 + 2 * self.config.n_joints
