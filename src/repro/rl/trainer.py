"""Generic PPO training loop over a single-agent Env."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..envs.core import Env
from ..telemetry import current_telemetry
from .buffers import gae_batch
from .health import check_finite
from .policy import ActorCritic
from .ppo import PPOConfig, PPOUpdater
from .rollout import evaluate_policy

__all__ = ["TrainConfig", "TrainResult", "train_ppo"]

CHECKPOINT_KIND = "train_ppo"


@dataclass
class TrainConfig:
    iterations: int = 40
    steps_per_iteration: int = 2048
    hidden_sizes: tuple[int, ...] = (64, 64)
    seed: int = 0
    ppo: PPOConfig = field(default_factory=PPOConfig)
    log_every: int = 0  # 0 = silent


@dataclass
class TrainResult:
    policy: ActorCritic
    history: list[dict[str, float]]

    @property
    def final_return(self) -> float:
        """Mean return of the last training iteration.

        ``nan`` (not 0.0) when the history is empty — a zero-iteration
        run is "no data", which must stay distinguishable from a genuine
        zero return.  Compare via ``math.isnan`` before ordering on it.
        """
        return self.history[-1]["mean_return"] if self.history else float("nan")


def _capture_train_ppo_checkpoint(iteration, history, policy, updater, rng, env):
    from ..store.checkpoint import TrainingCheckpoint, capture_rng_states

    return TrainingCheckpoint(
        kind=CHECKPOINT_KIND, iteration=iteration, history=list(history),
        state={
            "policy": policy.checkpoint_state(),
            "optimizer": updater.optimizer.state_dict(),
            "rng": rng.bit_generator.state,
            "env_rngs": capture_rng_states(env),
        },
    )


def train_ppo(env: Env, config: TrainConfig | None = None,
              policy: ActorCritic | None = None, extra_loss=None,
              callback=None, telemetry=None,
              checkpoint_path: str | Path | None = None,
              checkpoint_every: int = 0, resume: bool = True) -> TrainResult:
    """Train an actor-critic with PPO on ``env``.

    ``extra_loss(policy, obs, dist) -> Tensor`` lets defenses add their
    regularizer; ``callback(iteration, policy, stats)`` supports
    adversarial-training loops (ATLA) and curve recording.  ``telemetry``
    (a :class:`repro.telemetry.Telemetry`, default: the ambient one, or
    none) records per-iteration events plus rollout/update timings.

    ``checkpoint_path`` + ``checkpoint_every=k`` write a full-state
    :class:`~repro.store.checkpoint.TrainingCheckpoint` every k completed
    iterations (atomic; the previous checkpoint survives a mid-write
    crash).  With ``resume=True`` (default) an existing checkpoint at
    that path is loaded and training continues from it, bit-identically
    to an uninterrupted run.  The checkpoint covers the policy,
    optimizer, normalizer, loop RNG, and env RNGs — ``extra_loss``
    closures must be stateless across iterations for resume to hold
    (the built-in defenses' regularizers are).
    """
    from ..runtime.collector import collect_lanes  # runtime imports rl
    from ..runtime.vec_env import SyncVectorEnv
    from ..store.checkpoint import TrainingCheckpoint, restore_rng_states

    config = config or TrainConfig()
    telemetry = telemetry if telemetry is not None else current_telemetry()
    rng = np.random.default_rng(config.seed)
    env.seed(config.seed)
    obs_dim = env.observation_space.shape[0]
    action_dim = env.action_space.shape[0]
    if policy is None:
        policy = ActorCritic(obs_dim, action_dim, hidden_sizes=config.hidden_sizes,
                             rng=np.random.default_rng(config.seed))
    updater = PPOUpdater(policy, config.ppo, extra_loss=extra_loss,
                         telemetry=telemetry)
    lanes = SyncVectorEnv([env])

    start_iteration = 0
    history: list[dict[str, float]] = []
    if checkpoint_path is not None and resume and Path(checkpoint_path).exists():
        ckpt = TrainingCheckpoint.load(checkpoint_path).expect_kind(CHECKPOINT_KIND)
        policy.load_checkpoint_state(ckpt.state["policy"])
        updater.optimizer.load_state_dict(ckpt.state["optimizer"])
        rng.bit_generator.state = ckpt.state["rng"]
        restore_rng_states(env, ckpt.state["env_rngs"])
        start_iteration = ckpt.iteration
        history = list(ckpt.history)

    for iteration in range(start_iteration, config.iterations):
        if telemetry is not None:
            with telemetry.timer("ppo.rollout") as rollout_timer:
                rollout = collect_lanes(lanes, policy, config.steps_per_iteration, rng)
            telemetry.metrics.counter("ppo.env_steps").inc(config.steps_per_iteration)
        else:
            rollout = collect_lanes(lanes, policy, config.steps_per_iteration, rng)
        batch = gae_batch(rollout, config.ppo.gamma, config.ppo.gae_lambda)
        # Divergence raised here (or inside the update's own guards) fires
        # before this iteration checkpoints, so the last on-disk checkpoint
        # is always healthy and a retry can roll back to it.
        check_finite("returns", batch["returns_e"], iteration=iteration)
        diag = updater.update(batch, rng=rng)
        returns, successes = rollout.episode_rewards, rollout.episode_successes
        record = {
            "iteration": iteration,
            "mean_return": float(np.mean(returns)) if returns else 0.0,
            "success_rate": float(np.mean(successes)) if successes else 0.0,
            "episodes": float(len(returns)),
            **diag,
        }
        history.append(record)
        if telemetry is not None:
            rollout_s = rollout_timer.seconds
            telemetry.event("ppo.iteration", payload=record, perf={
                "rollout_s": rollout_s,
                "update_s": telemetry.metrics.ewma("ppo.update").ewma,
                # None, not inf: "Infinity" is not valid RFC 8259 JSON
                "steps_per_s": (config.steps_per_iteration / rollout_s
                                if rollout_s > 0 else None),
            })
        if config.log_every and iteration % config.log_every == 0:
            print(
                f"[ppo] iter {iteration:3d} return {record['mean_return']:9.2f} "
                f"success {record['success_rate']:5.2f} kl {diag['approx_kl']:.4f}"
            )
        if callback is not None:
            callback(iteration, policy, record)
        if (checkpoint_path is not None and checkpoint_every
                and (iteration + 1) % checkpoint_every == 0):
            _capture_train_ppo_checkpoint(
                iteration + 1, history, policy, updater, rng, env,
            ).save(checkpoint_path)
    return TrainResult(policy=policy, history=history)


def quick_eval(env: Env, policy: ActorCritic, episodes: int = 20, seed: int = 123):
    """Deterministic evaluation helper returning EpisodeStats.

    ``episodes`` must be >= 1: a zero-episode evaluation has no
    statistics, and silently returning zeros would be indistinguishable
    from a genuinely zero-reward policy.
    """
    if episodes < 1:
        raise ValueError(
            f"quick_eval needs episodes >= 1, got {episodes}: an empty "
            "evaluation has no reward statistics to aggregate")
    rng = np.random.default_rng(seed)
    env.seed(seed)
    return evaluate_policy(env, policy, episodes, rng)
