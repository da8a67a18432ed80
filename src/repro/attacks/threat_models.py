"""Threat-model MDP adapters (Section 4 of the paper).

* :class:`StatePerturbationEnv` — single-agent threat model: the
  adversary emits an ``l_p``-bounded perturbation that is added to the
  victim's (normalized) observation before the victim acts.
* :class:`OpponentEnv` — multi-agent threat model: the adversary controls
  the opponent body in a two-player zero-sum game against a fixed victim.

Both expose a standard single-agent :class:`~repro.envs.core.Env` whose
reward is the black-box surrogate ``-r̂ = -1(victim succeeds)``.  The
victim's private shaped reward is passed through in
``info["victim_reward"]`` strictly for *evaluation* (Tables 1-3 report
the victim's episode reward), never for attack training.
"""

from __future__ import annotations

import numpy as np

from ..envs.core import Env
from ..envs.multiagent.core import TwoPlayerEnv
from ..envs.spaces import Box
from ..rl.policy import ActorCritic

__all__ = ["project_perturbation", "StatePerturbationEnv", "OpponentEnv", "EPSILON_BUDGETS"]

# Per-task perturbation budgets.  The four dense tasks use the paper's
# published ε (Table 1 row headers); the rest use a common default.
# NOTE: the paper's raw budgets (Hopper 0.075, Walker 0.05, HalfCheetah
# 0.15, Ant 0.15) are calibrated to MuJoCo victims' sensitivity.  Our
# analytic substrate produces smoother victims, so the budgets are
# rescaled (x ~6) while preserving the paper's relative ordering
# (Walker < Hopper < HalfCheetah = Ant).  See DESIGN.md "Substitutions".
EPSILON_BUDGETS: dict[str, float] = {
    "Hopper-v0": 0.6,
    "Walker2d-v0": 0.5,
    "HalfCheetah-v0": 1.0,
    "Ant-v0": 1.0,
    "Humanoid-v0": 1.0,
    "HumanoidStandup-v0": 1.0,
}
DEFAULT_EPSILON = 0.6


def default_epsilon(env_id: str) -> float:
    return EPSILON_BUDGETS.get(env_id, DEFAULT_EPSILON)


def project_perturbation(raw: np.ndarray, epsilon: float, norm: str = "linf") -> np.ndarray:
    """Project a raw adversary action into the ε-ball ``‖a‖_p ≤ ε``."""
    raw = np.asarray(raw, dtype=np.float64)
    if norm == "linf":
        # np.clip's ufuncs without its Python wrappers (see DESIGN.md)
        return epsilon * np.minimum(np.maximum(raw, -1.0), 1.0)
    if norm == "l2":
        scaled = epsilon * raw
        length = float(np.linalg.norm(scaled))
        if length > epsilon:
            scaled *= epsilon / length
        return scaled
    raise ValueError(f"unsupported norm {norm!r}")


class StatePerturbationEnv(Env):
    """Adversary MDP for observation attacks on a fixed single-agent victim.

    The adversary observes the victim's normalized observation and emits a
    raw action in [-1, 1]^obs_dim that is scaled/projected into the ε-ball
    and added to what the victim sees:
    ``a_v = π_v(normalize(s) + δ)``.
    """

    def __init__(self, env: Env, victim: ActorCritic, epsilon: float,
                 norm: str = "linf", victim_deterministic: bool = True,
                 seed: int = 0):
        super().__init__()
        self.env = env
        self.victim = victim
        self.epsilon = float(epsilon)
        self.norm = norm
        self.victim_deterministic = victim_deterministic
        obs_dim = env.observation_space.shape[0]
        self.observation_space = Box(-np.inf, np.inf, (obs_dim,))
        self.action_space = Box(-1.0, 1.0, (obs_dim,))
        self._victim_rng = np.random.default_rng(seed)
        self._current_normalized: np.ndarray | None = None

    def seed(self, seed: int | None) -> None:
        super().seed(seed)
        self.env.seed(seed)
        self._victim_rng = np.random.default_rng(None if seed is None else seed + 1)

    def _reset(self) -> np.ndarray:
        obs = self.env.reset()
        self._current_normalized = self.victim.normalize(obs)
        return self._current_normalized

    def step(self, action):
        if self._current_normalized is None:
            raise RuntimeError("call reset() before step()")
        delta = project_perturbation(action, self.epsilon, self.norm)
        perturbed = self._current_normalized + delta
        victim_action = self._victim_action(perturbed)
        obs, victim_reward, terminated, truncated, info = self.env.step(victim_action)
        success = bool(info.get("success", False))
        adversary_reward = -1.0 if success else 0.0
        self._current_normalized = self.victim.normalize(obs)
        info = dict(info)
        info["victim_reward"] = victim_reward
        info["perturbation"] = delta
        # Features for the IMAP KNN density estimators: the victim-space
        # state (here identical to the adversary's view).  Both keys share
        # one copy: the collectors only read them (``knn_feature``) and
        # stack them into fresh arrays, and the copy keeps them apart from
        # the returned observation, which wrappers may overwrite in place.
        features = self._current_normalized.copy()
        info["knn_victim"] = features
        info["knn_adversary"] = features
        return self._current_normalized, adversary_reward, terminated, truncated, info

    def _victim_action(self, normalized_obs: np.ndarray) -> np.ndarray:
        return self.victim.sample_action(normalized_obs, self._victim_rng,
                                         deterministic=self.victim_deterministic)

    def sample_initial_victim_state(self) -> np.ndarray:
        """Victim's normalized initial state (default IMAP-R target s₀^v).

        Note: this resets the wrapped environment; call it before training
        starts, not mid-episode.
        """
        return self.victim.normalize(self.env.reset())


class OpponentEnv(Env):
    """Adversary MDP for controlling the opponent in a two-player game."""

    def __init__(self, game: TwoPlayerEnv, victim: ActorCritic,
                 victim_deterministic: bool = True, seed: int = 0):
        super().__init__()
        self.game = game
        self.victim = victim
        self.victim_deterministic = victim_deterministic
        self.observation_space = game.adversary_observation_space
        self.action_space = game.adversary_action_space
        self._victim_rng = np.random.default_rng(seed)
        self._victim_obs: np.ndarray | None = None

    def seed(self, seed: int | None) -> None:
        super().seed(seed)
        self.game.seed(seed)
        self._victim_rng = np.random.default_rng(None if seed is None else seed + 1)

    def _reset(self) -> np.ndarray:
        victim_obs, adversary_obs = self.game.reset()
        self._victim_obs = victim_obs
        return adversary_obs

    def _body_state(self, info: dict, key: str) -> np.ndarray:
        """``info[key]`` validated as a 1-d float vector, or a clear error.

        ``np.asarray(info.get(key), dtype=np.float64)`` on a game that
        omits the key yields a silent 0-d NaN array (``asarray(None)``)
        that poisons the IMAP KNN density features downstream — the
        regularizer bonuses degrade to garbage without ever crashing.
        """
        value = info.get(key)
        if value is None:
            raise KeyError(
                f"OpponentEnv: {type(self.game).__name__}.step() info is "
                f"missing {key!r} — two-player games must publish per-body "
                "state vectors for the IMAP density features (see "
                "repro.envs.multiagent.core); got info keys "
                f"{sorted(info)}")
        try:
            state = np.asarray(value, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"OpponentEnv: info[{key!r}] is not convertible to a float "
                f"vector ({exc})") from None
        if state.ndim != 1 or state.size == 0:
            raise ValueError(
                f"OpponentEnv: info[{key!r}] must be a non-empty 1-d state "
                f"vector, got shape {state.shape}")
        return state

    def step(self, action):
        if self._victim_obs is None:
            raise RuntimeError("call reset() before step()")
        victim_action = self.victim.action(
            self._victim_obs, self._victim_rng, deterministic=self.victim_deterministic
        )
        (victim_obs, adversary_obs), (victim_reward, _), done, info = self.game.step(
            victim_action, action
        )
        self._victim_obs = victim_obs
        victim_win = bool(info.get("victim_win", False))
        adversary_reward = -1.0 if victim_win else 0.0
        info = dict(info)
        info["victim_reward"] = victim_reward
        info["success"] = victim_win  # "the victim succeeds"
        info["knn_victim"] = self._body_state(info, "victim_state")
        info["knn_adversary"] = self._body_state(info, "adversary_state")
        return adversary_obs, adversary_reward, done, False, info
