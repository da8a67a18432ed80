"""Shared adversarial-policy training loop (Algorithm 1 of the paper).

With ``regularizer=None`` this is exactly the SA-RL / AP-MARL baseline:
PPO on the adversary MDP with the black-box surrogate reward.  With an
:class:`~repro.attacks.imap.regularizers.IntrinsicRegularizer` it becomes
IMAP; with ``use_bias_reduction`` it adds the Lagrangian temperature
schedule (Eq. 15-17).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..envs.core import Env
from ..rl.buffers import gae_batch
from ..rl.health import check_finite
from ..rl.policy import ActorCritic
from ..rl.ppo import PPOUpdater
from ..runtime import collector
from ..runtime.vec_env import SyncVectorEnv, VectorEnv
from ..telemetry import current_telemetry
from .base import AdversaryRollout, AttackConfig, AttackResult

__all__ = ["collect_adversary_rollout", "AdversaryTrainer", "record_rollout_telemetry"]

CHECKPOINT_KIND = "adversary"


def record_rollout_telemetry(telemetry, rollout: AdversaryRollout,
                             seconds: float, n_envs: int) -> None:
    """Rollout instrumentation for one adversary batch from ``n_envs`` lanes.

    The event payload holds only seed-deterministic episode statistics;
    steps/sec and the lane count live under ``perf``.
    """
    n = len(rollout)
    telemetry.metrics.observe_duration("rollout.collect", seconds)
    telemetry.metrics.counter("rollout.steps").inc(n)
    telemetry.metrics.counter("rollout.episodes").inc(len(rollout.episode_rewards))
    telemetry.event("rollout.complete", payload={
        "steps": n,
        "episodes": len(rollout.episode_rewards),
        "j_ap": rollout.j_ap,
        "victim_success_rate": rollout.victim_success_rate,
        "mean_victim_reward": (float(np.mean(rollout.episode_victim_rewards))
                               if rollout.episode_victim_rewards else 0.0),
    }, perf={
        "seconds": seconds,
        # None, not inf: an injected zero-elapsed clock would otherwise
        # put "Infinity" in JSONL lines, which RFC 8259 forbids.
        "steps_per_s": n / seconds if seconds > 0 else None,
        "collector": f"vec{n_envs}",
    })


def collect_adversary_rollout(env: Env, policy: ActorCritic, n_steps: int,
                              rng: np.random.Generator,
                              update_normalizer: bool = True,
                              telemetry=None) -> AdversaryRollout:
    """Collect ``n_steps`` of adversary experience from ``env`` as one lane."""
    return collector.collect_adversary_rollout_vec(
        SyncVectorEnv([env]), policy, n_steps, rng,
        update_normalizer=update_normalizer, telemetry=telemetry)


class AdversaryTrainer:
    """PPO loop over an adversary MDP with optional intrinsic regularizer.

    ``env`` may be a plain :class:`~repro.envs.core.Env`, collected as a
    one-lane :class:`~repro.runtime.vec_env.SyncVectorEnv`, or a
    :class:`~repro.runtime.vec_env.VectorEnv`, in which case each
    iteration's batch is filled from all lanes with batched policy
    forwards (same total sample count per iteration).  Checkpoints
    capture the RNGs of ``env`` as passed.
    """

    def __init__(self, env: Env | VectorEnv, config: AttackConfig, regularizer=None,
                 name: str = "attack", telemetry=None):
        self.env = env
        self._lanes = env if isinstance(env, VectorEnv) else SyncVectorEnv([env])
        self.config = config
        self.regularizer = regularizer
        self.name = name
        self.telemetry = telemetry if telemetry is not None else current_telemetry()
        rng_init = np.random.default_rng(config.seed)
        self.policy = ActorCritic(
            env.observation_space.shape[0],
            env.action_space.shape[0],
            hidden_sizes=config.hidden_sizes,
            dual_value=regularizer is not None and not config.single_value_head,
            rng=rng_init,
        )
        self.updater = PPOUpdater(self.policy, config.ppo, telemetry=self.telemetry)
        self.rng = np.random.default_rng(config.seed + 7)
        self.tau = config.tau0 if regularizer is not None else 0.0
        self._lambda = 0.0
        self._prev_j_ap: float | None = None
        self._best_asr = -1.0
        self._best_state: dict | None = None

    def _collect(self, n_steps: int) -> AdversaryRollout:
        return collector.collect_adversary_rollout_vec(
            self._lanes, self.policy, n_steps, self.rng, telemetry=self.telemetry)

    def _bias_reduction_step(self, j_ap: float) -> None:
        """λ_{k+1} = max(0, λ_k − η (J_k+1 − J_k)); τ = 1/(1+λ) (Eq. 16-17)."""
        if self._prev_j_ap is not None:
            self._lambda = max(0.0, self._lambda - self.config.br_eta * (j_ap - self._prev_j_ap))
            self.tau = 1.0 / (1.0 + self._lambda)
        self._prev_j_ap = j_ap

    # ------------------------------------------------------------ checkpoint

    def capture_checkpoint(self, iteration: int, history: list[dict]):
        """Full trainer state at an iteration boundary (see module docstring
        of :mod:`repro.store.checkpoint` for the bit-identity contract)."""
        from ..store.checkpoint import TrainingCheckpoint, capture_rng_states

        return TrainingCheckpoint(
            kind=CHECKPOINT_KIND, iteration=iteration, history=list(history),
            state={
                "policy": self.policy.checkpoint_state(),
                "optimizer": self.updater.optimizer.state_dict(),
                "rng": self.rng.bit_generator.state,
                "env_rngs": capture_rng_states(self.env),
                "tau": self.tau,
                "lambda": self._lambda,
                "prev_j_ap": self._prev_j_ap,
                "best_asr": self._best_asr,
                "best_state": self._best_state,
                "regularizer": (self.regularizer.state_dict()
                                if self.regularizer is not None else None),
            },
        )

    def restore_checkpoint(self, ckpt) -> tuple[int, list[dict]]:
        """Load a checkpoint into this trainer; returns (iteration, history).

        The env RNGs are restored here, *after* ``env.seed`` ran inside
        :meth:`train`, so call this only through ``train(checkpoint_path=...)``
        or re-seed the env first.
        """
        from ..store.checkpoint import restore_rng_states

        ckpt.expect_kind(CHECKPOINT_KIND)
        state = ckpt.state
        self.policy.load_checkpoint_state(state["policy"])
        self.updater.optimizer.load_state_dict(state["optimizer"])
        self.rng.bit_generator.state = state["rng"]
        restore_rng_states(self.env, state["env_rngs"])
        self.tau = float(state["tau"])
        self._lambda = float(state["lambda"])
        self._prev_j_ap = (None if state["prev_j_ap"] is None
                           else float(state["prev_j_ap"]))
        self._best_asr = float(state["best_asr"])
        self._best_state = state["best_state"]
        if self.regularizer is not None:
            self.regularizer.load_state_dict(state["regularizer"] or {})
        return ckpt.iteration, list(ckpt.history)

    def train(self, callback=None, checkpoint_path: str | Path | None = None,
              checkpoint_every: int = 0, resume: bool = True) -> AttackResult:
        """Run the attack-training loop.

        ``checkpoint_path`` + ``checkpoint_every=k`` snapshot the full
        trainer state every k completed iterations; with ``resume=True``
        an existing checkpoint at that path is loaded first and training
        continues from it bit-identically (same params, history, and
        telemetry payloads as the uninterrupted run).
        """
        cfg = self.config
        telemetry = self.telemetry
        self.env.seed(cfg.seed)
        start_iteration = 0
        history: list[dict[str, float]] = []
        if checkpoint_path is not None and resume and Path(checkpoint_path).exists():
            from ..store.checkpoint import TrainingCheckpoint

            start_iteration, history = self.restore_checkpoint(
                TrainingCheckpoint.load(checkpoint_path))
        for iteration in range(start_iteration, cfg.iterations):
            rollout = self._collect(cfg.steps_per_iteration)
            check_finite("rewards", rollout.rewards, iteration=iteration)
            intrinsic = None
            if self.regularizer is not None:
                if telemetry is not None:
                    with telemetry.timer("attack.knn_bonus"):
                        intrinsic = self.regularizer.compute(rollout, self.policy)
                else:
                    intrinsic = self.regularizer.compute(rollout, self.policy)
                # KNN-density bonuses are the classic NaN source here (log/
                # sqrt of degenerate distances, exploding mimic KL): catch
                # them before they reach the advantage estimator.
                intrinsic = self._standardize(intrinsic) * cfg.intrinsic_reward_scale
                check_finite("intrinsic_bonus", intrinsic, iteration=iteration)
            if cfg.single_value_head and intrinsic is not None:
                # ablation: one mixed-reward channel instead of Eq. 14's
                # separate Â_E + τ Â_I estimation
                rollout.rewards = rollout.rewards + self.tau * intrinsic
                batch = gae_batch(rollout, cfg.ppo.gamma, cfg.ppo.gae_lambda)
                diag = self.updater.update(batch, tau=0.0, rng=self.rng)
            else:
                batch = gae_batch(rollout, cfg.ppo.gamma, cfg.ppo.gae_lambda,
                                  intrinsic)
                diag = self.updater.update(batch, tau=self.tau, rng=self.rng)
            if self.regularizer is not None:
                if telemetry is not None:
                    with telemetry.timer("attack.knn_buffers"):
                        self.regularizer.after_update(rollout, self.policy)
                else:
                    self.regularizer.after_update(rollout, self.policy)
            if cfg.use_bias_reduction and self.regularizer is not None:
                self._bias_reduction_step(rollout.j_ap)
            record = {
                "iteration": iteration,
                "samples": float(len(rollout)),
                "j_ap": rollout.j_ap,
                "victim_success_rate": rollout.victim_success_rate,
                "asr": 1.0 - rollout.victim_success_rate,
                "mean_victim_reward": (
                    float(np.mean(rollout.episode_victim_rewards))
                    if rollout.episode_victim_rewards else 0.0
                ),
                "tau": self.tau,
                "lambda": self._lambda,
                **diag,
            }
            history.append(record)
            if telemetry is not None:
                metrics = telemetry.metrics
                metrics.gauge("attack.asr").set(record["asr"])
                metrics.gauge("attack.tau").set(record["tau"])
                telemetry.event("attack.iteration", payload={
                    "name": self.name, **record,
                }, perf={
                    "rollout_s": metrics.ewma("rollout.collect").ewma,
                    "update_s": metrics.ewma("ppo.update").ewma,
                    "knn_bonus_s": (metrics.ewma("attack.knn_bonus").ewma
                                    if self.regularizer is not None else None),
                })
            if cfg.select_best and len(rollout.episode_successes) >= 3:
                asr = record["asr"]
                if asr >= self._best_asr:
                    self._best_asr = asr
                    self._best_state = self.policy.checkpoint_state()
            if callback is not None:
                callback(iteration, self.policy, record)
            if (checkpoint_path is not None and checkpoint_every
                    and (iteration + 1) % checkpoint_every == 0):
                self.capture_checkpoint(iteration + 1, history).save(checkpoint_path)
        if cfg.select_best and self._best_state is not None:
            self.policy.load_checkpoint_state(self._best_state)
        return AttackResult(policy=self.policy, history=history, name=self.name)

    @staticmethod
    def _standardize(values: np.ndarray) -> np.ndarray:
        std = float(values.std())
        if std < 1e-8:
            return values - float(values.mean())
        return (values - float(values.mean())) / std
