"""Active detection of observation attacks (Section 7 of the paper).

The paper surveys detection defenses that compare predicted and observed
inputs (Lin et al.'s "visual foresight").  This module implements that
idea for our vector observations: a learned one-step dynamics model
predicts the next normalized observation; an observation whose
prediction error exceeds a clean-calibrated quantile is flagged as
adversarial.  The paper argues such defenses sacrifice natural
performance; the detector here is evaluation-only (it flags, it does not
filter), so it can be used to *measure* attack detectability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import nn
from ..nn import MLP, Tensor
from ..nn import functional as F
from ..rl.policy import ActorCritic

__all__ = ["DynamicsModel", "ForesightDetector", "DetectionReport"]


class DynamicsModel(nn.Module):
    """One-step predictor: (normalized obs, action) -> next normalized obs."""

    def __init__(self, obs_dim: int, action_dim: int, hidden: tuple[int, ...] = (64, 64),
                 learning_rate: float = 1e-3, seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.net = MLP(obs_dim + action_dim, hidden, obs_dim, output_gain=0.1, rng=rng)
        self.optimizer = nn.Adam(self.parameters(), lr=learning_rate)

    def predict(self, obs: np.ndarray, action: np.ndarray) -> np.ndarray:
        """Predicted *delta* added to the current observation."""
        x = np.concatenate([np.atleast_2d(obs), np.atleast_2d(action)], axis=1)
        delta = self.net.infer(x)
        return np.atleast_2d(obs) + delta

    def fit(self, obs: np.ndarray, actions: np.ndarray, next_obs: np.ndarray,
            epochs: int = 20, batch_size: int = 256,
            rng: np.random.Generator | None = None) -> float:
        rng = rng or np.random.default_rng()
        inputs = np.concatenate([obs, actions], axis=1)
        targets = next_obs - obs
        loss_value = 0.0
        for _ in range(epochs):
            idx = rng.permutation(len(inputs))
            for chunk in np.array_split(idx, max(1, len(idx) // batch_size)):
                pred = self.net(inputs[chunk])
                loss = F.mse_loss(pred, Tensor(targets[chunk]))
                self.optimizer.zero_grad()
                loss.backward()
                self.optimizer.step()
                loss_value = float(loss.data)
        return loss_value


@dataclass
class DetectionReport:
    false_positive_rate: float
    detection_rate: float
    threshold: float


class ForesightDetector:
    """Flags observations inconsistent with the learned clean dynamics."""

    def __init__(self, victim: ActorCritic, quantile: float = 0.99, seed: int = 0):
        if not 0.5 < quantile < 1.0:
            raise ValueError("quantile must be in (0.5, 1)")
        self.victim = victim
        self.quantile = quantile
        self.model = DynamicsModel(victim.obs_dim, victim.action_dim, seed=seed)
        self.threshold: float | None = None
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------ fit

    def _collect_clean(self, env, steps: int):
        obs_list, act_list, next_list = [], [], []
        obs = env.reset()
        normalized = self.victim.normalize(obs)
        while len(obs_list) < steps:
            action = self.victim.action(obs, self._rng, deterministic=False)
            next_obs, _, terminated, truncated, _ = env.step(action)
            next_normalized = self.victim.normalize(next_obs)
            obs_list.append(normalized)
            act_list.append(np.clip(action, -1.0, 1.0))
            next_list.append(next_normalized)
            if terminated or truncated:
                obs = env.reset()
                normalized = self.victim.normalize(obs)
            else:
                obs = next_obs
                normalized = next_normalized
        return np.asarray(obs_list), np.asarray(act_list), np.asarray(next_list)

    def fit(self, env, steps: int = 4096, epochs: int = 15) -> float:
        """Train the dynamics model on clean victim play and calibrate the
        flagging threshold at the configured quantile of clean errors."""
        obs, actions, next_obs = self._collect_clean(env, steps)
        split = int(0.8 * len(obs))
        self.model.fit(obs[:split], actions[:split], next_obs[:split],
                       epochs=epochs, rng=self._rng)
        errors = self.errors(obs[split:], actions[split:], next_obs[split:])
        self.threshold = float(np.quantile(errors, self.quantile))
        return self.threshold

    # ---------------------------------------------------------------- scoring

    def errors(self, obs: np.ndarray, actions: np.ndarray,
               observed_next: np.ndarray) -> np.ndarray:
        predicted = self.model.predict(obs, actions)
        return np.linalg.norm(predicted - np.atleast_2d(observed_next), axis=1)

    def flags(self, obs, actions, observed_next) -> np.ndarray:
        if self.threshold is None:
            raise RuntimeError("call fit() before flagging")
        return self.errors(obs, actions, observed_next) > self.threshold

    # -------------------------------------------------------------- evaluate

    def evaluate(self, env_factory, attack_policy, epsilon: float,
                 episodes: int = 10, seed: int = 0) -> DetectionReport:
        """Per-step detection rate under attack vs clean false positives."""
        from ..attacks.threat_models import StatePerturbationEnv

        if self.threshold is None:
            raise RuntimeError("call fit() before evaluate()")
        rng = np.random.default_rng(seed)

        def run(attacked: bool) -> float:
            flagged = total = 0
            for ep in range(episodes):
                adv_env = StatePerturbationEnv(env_factory(), self.victim,
                                               epsilon=epsilon, seed=seed + ep)
                adv_env.seed(seed + ep)
                obs = adv_env.reset()
                seen_prev = None
                victim_action_prev = None
                done = False
                while not done:
                    raw = (attack_policy.action(obs, rng, deterministic=True)
                           if attacked else np.zeros_like(obs))
                    prev = obs
                    obs, _, term, trunc, info = adv_env.step(raw)
                    done = term or trunc
                    # The defender monitors exactly what the victim's network
                    # consumed: the perturbed observation stream.
                    seen_now = prev + info["perturbation"]
                    if seen_prev is not None:
                        error = self.errors(seen_prev[None], victim_action_prev[None],
                                            seen_now[None])[0]
                        flagged += int(error > self.threshold)
                        total += 1
                    seen_prev = seen_now
                    victim_action_prev = np.clip(
                        self.victim.actor.infer(seen_now), -1.0, 1.0)
            return flagged / max(total, 1)

        return DetectionReport(
            false_positive_rate=run(attacked=False),
            detection_rate=run(attacked=True),
            threshold=self.threshold,
        )
