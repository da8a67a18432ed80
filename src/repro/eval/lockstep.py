"""Lockstep evaluation: one lane per episode, live lanes batched in order.

Each episode of a request is a lane with its own env, env seed and RNG
(``derive_job_seeds(seed, episodes)``), so per-episode randomness does
not depend on the order lanes are stepped in.  Every step runs the live
lanes as one batch, in episode-index order: one attacker ``act_batch``,
the ε-projection, one victim ``act_batch``, then each lane's env step.
Finished lanes drop out of the next batch.

**Why the batch is the request's own lanes:** batched float64 matmul
(plain ``X @ W``) is *not* bit-identical row-wise to single-row forwards
(BLAS blocks differently), and trajectories are chaotic — one low-order
action bit diverges into macroscopically different episode rewards.  The
batch a forward rides in is therefore part of the result, and defining
it as "this request's live episodes, in index order" makes the result a
pure function of the arguments: the same bits in the serve daemon's
inline lane and in a pool worker, whatever else either is doing.

This protocol differs from the sequential
:func:`~repro.eval.evaluate_single_agent` (one shared env and RNG,
serial episodes); serve requests are defined by this one.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..attacks.threat_models import project_perturbation
from ..envs.core import Env
from ..rl.policy import ActorCritic
from ..runtime.scheduler import derive_job_seeds
from .harness import AttackEvaluation

__all__ = ["evaluate_lockstep"]

# act_batch requires an rng parameter; mode (deterministic) forwards never
# draw from it, so one shared dummy generator is safe and stateless here.
_MODE_RNG = np.random.default_rng(0)


def _mode_actions(policy, batch: np.ndarray) -> np.ndarray:
    actions, _, _, _, _ = policy.act_batch(batch, _MODE_RNG, deterministic=True)
    return actions


def evaluate_lockstep(
    env_factory: Callable[[], Env],
    victim: ActorCritic,
    *,
    episodes: int,
    seed: int,
    attack_policy=None,
    epsilon: float = 0.0,
    norm: str = "linf",
    on_progress: Callable[[int, int], None] | None = None,
) -> AttackEvaluation:
    """Victim episode rewards over ``episodes`` lockstep lanes.

    ``attack_policy=None`` evaluates the clean victim.  A policy exposing
    ``act_batch`` (a trained adversary) takes one deterministic batched
    forward per step; any other policy (e.g.
    :class:`~repro.attacks.RandomAttackPolicy`) is called once per live
    lane with that lane's RNG.  ``on_progress(done, episodes)`` fires as
    each episode ends, lanes finishing on the same step in index order.
    """
    if episodes <= 0:
        raise ValueError(f"episodes must be positive, got {episodes}")
    batchable_attack = attack_policy is not None and hasattr(attack_policy, "act_batch")
    envs: list[Env] = []
    rngs: list[np.random.Generator] = []
    views: list[np.ndarray] = []
    for lane_seed in derive_job_seeds(seed, episodes):
        env = env_factory()
        env.seed(lane_seed)
        envs.append(env)
        rngs.append(np.random.default_rng(lane_seed + 1))
        views.append(victim.normalize(env.reset()))
    evaluation = AttackEvaluation(episode_rewards=[0.0] * episodes,
                                  episode_successes=[False] * episodes,
                                  episode_lengths=[0] * episodes)
    live = list(range(episodes))
    done = 0
    while live:
        batch = np.stack([views[i] for i in live])
        if attack_policy is not None:
            if batchable_attack:
                raw = _mode_actions(attack_policy, batch)
            else:
                raw = [attack_policy.action(views[i], rngs[i]) for i in live]
            batch = np.stack([views[i] + project_perturbation(row, epsilon, norm)
                              for i, row in zip(live, raw)])
        # act_batch normalizes ``batch`` again with the victim's own
        # normalizer, unlike StatePerturbationEnv; stored serve results
        # are defined this way, so it stays until their keys change.
        actions = _mode_actions(victim, batch)
        still_live = []
        for i, action in zip(live, actions):
            obs, reward, terminated, truncated, info = envs[i].step(action)
            views[i] = victim.normalize(obs)
            evaluation.episode_rewards[i] += float(reward)
            evaluation.episode_lengths[i] += 1
            if info.get("success", False):
                evaluation.episode_successes[i] = True
            if terminated or truncated:
                done += 1
                if on_progress is not None:
                    on_progress(done, episodes)
            else:
                still_live.append(i)
        live = still_live
    return evaluation
