"""Micro-batching inference lane with a deterministic composition contract.

Concurrent episode coroutines submit single-observation forward passes;
the :class:`MicroBatcher` holds them until every live member has one
pending, then services each policy's group with a single
:meth:`~repro.rl.policy.ActorCritic.act_batch` call and wakes everyone.

**Why composition is per-request, not per-server:** batched float64
matmul is *not* bit-identical row-wise to single-row forwards (BLAS
blocks differently), and trajectories are chaotic — one low-order action
bit diverges into macroscopically different episode rewards.  If the
batch mixed forwards from whatever requests happened to be in flight,
the number a request gets (and the artifact the store then caches
forever) would depend on server load.  So the batch is defined as *the
request's own live episodes, in episode-index order*: a pure function of
the request, bit-reproducible no matter what else the server is doing,
identical between the in-server lane and a pool worker process.

:func:`batched_evaluate` is that canonical evaluator: it runs a
request's episodes as concurrent coroutines (each with its own
``SeedSequence``-derived env seed and RNG, so per-episode randomness is
order-independent), funnels every victim/attacker forward pass through
one batcher, and assembles an :class:`~repro.eval.AttackEvaluation` in
episode order.  It intentionally differs from the sequential
:func:`~repro.eval.evaluate_single_agent` protocol (shared env/RNG,
serial episodes) — the serve result contract is *this* evaluator, in
every lane.
"""

from __future__ import annotations

import asyncio
from typing import Callable

import numpy as np

from ..attacks.threat_models import project_perturbation
from ..envs.core import Env
from ..eval.harness import AttackEvaluation
from ..rl.policy import ActorCritic
from ..runtime.scheduler import derive_job_seeds

__all__ = ["MicroBatcher", "batched_evaluate", "run_batched_evaluate"]

# act_batch requires an rng parameter; mode (deterministic) forwards never
# draw from it, so one shared dummy generator is safe and stateless here.
_MODE_RNG = np.random.default_rng(0)


class MicroBatcher:
    """Collects concurrent forward passes into single ``act_batch`` calls.

    Members (episode indices) :meth:`join` before submitting and
    :meth:`leave` when their episode ends.  A flush happens exactly when
    every current member has a pending submission, so batch contents are
    ``[live episodes, in index order]`` — deterministic for a given
    request regardless of event-loop scheduling.  Groups are formed per
    policy object (attacker and victim forwards flush as separate
    ``act_batch`` calls, which is also what keeps their shapes uniform).
    """

    def __init__(self, telemetry=None):
        self._members: set[int] = set()
        self._pending: dict[int, tuple[object, np.ndarray, asyncio.Future]] = {}
        self._telemetry = telemetry
        # Introspection for tests/benchmarks: forwards requested vs
        # act_batch calls actually issued.
        self.calls = 0
        self.items = 0

    def join(self, member: int) -> None:
        if member in self._members:
            raise ValueError(f"member {member} already joined")
        self._members.add(member)

    def leave(self, member: int) -> None:
        self._members.discard(member)
        pending = self._pending.pop(member, None)
        if pending is not None and not pending[2].done():
            pending[2].cancel()
        self._maybe_flush()

    async def act(self, member: int, policy: ActorCritic,
                  normalized_obs: np.ndarray) -> np.ndarray:
        """Deterministic (mode) action for one member's observation.

        ``normalized_obs`` must already be normalized — batching happens
        below the normalizer, exactly where ``act_batch`` expects it.
        """
        if member not in self._members:
            raise ValueError(f"member {member} must join before submitting")
        if member in self._pending:
            raise ValueError(f"member {member} already has a pending forward")
        future = asyncio.get_running_loop().create_future()
        self._pending[member] = (policy, np.asarray(normalized_obs,
                                                    dtype=np.float64), future)
        self._maybe_flush()
        return await future

    def _maybe_flush(self) -> None:
        if not self._members or set(self._pending) != self._members:
            return
        pending, self._pending = self._pending, {}
        groups: dict[int, tuple[object, list[int]]] = {}
        for member in sorted(pending):
            policy = pending[member][0]
            groups.setdefault(id(policy), (policy, []))[1].append(member)
        for policy, members in groups.values():
            batch = np.stack([pending[m][1] for m in members])
            try:
                actions, _, _, _, _ = policy.act_batch(
                    batch, _MODE_RNG, deterministic=True)
            except Exception as exc:  # noqa: BLE001 — fail the waiters, not the loop
                for m in members:
                    future = pending[m][2]
                    if not future.done():
                        future.set_exception(exc)
                continue
            self.calls += 1
            self.items += len(members)
            if self._telemetry is not None:
                self._telemetry.metrics.counter("serve.batch.calls").inc()
                self._telemetry.metrics.counter("serve.batch.items").inc(len(members))
            for row, m in enumerate(members):
                future = pending[m][2]
                if not future.done():
                    future.set_result(actions[row].copy())


async def batched_evaluate(
    env_factory: Callable[[], Env],
    victim: ActorCritic,
    *,
    episodes: int,
    seed: int,
    attack_policy=None,
    epsilon: float = 0.0,
    norm: str = "linf",
    batcher: MicroBatcher | None = None,
    telemetry=None,
    on_progress: Callable[[int, int], None] | None = None,
) -> AttackEvaluation:
    """Canonical serve-lane evaluation: concurrent episodes, batched forwards.

    ``attack_policy=None`` evaluates the clean victim.  A policy exposing
    ``act_batch`` (a trained adversary) is batched deterministically; any
    other policy (e.g. :class:`~repro.attacks.RandomAttackPolicy`) is
    called per-step with the episode's own RNG.  Per-episode env seeds
    and RNGs come from ``derive_job_seeds(seed, episodes)``, so every
    episode's randomness is independent of scheduling order and the
    result is a pure function of the arguments.
    """
    if episodes <= 0:
        raise ValueError(f"episodes must be positive, got {episodes}")
    batcher = batcher or MicroBatcher(telemetry=telemetry)
    seeds = derive_job_seeds(seed, episodes)
    results: list[tuple[float, bool, int] | None] = [None] * episodes
    done_count = 0
    batchable_attack = attack_policy is not None and hasattr(attack_policy, "act_batch")

    async def episode(i: int) -> None:
        nonlocal done_count
        env = env_factory()
        env.seed(seeds[i])
        rng = np.random.default_rng(seeds[i] + 1)
        ep_reward, ep_len, ep_success = 0.0, 0, False
        try:
            obs = env.reset()
            normalized = victim.normalize(obs)
            done = False
            while not done:
                if attack_policy is None:
                    victim_view = normalized
                else:
                    if batchable_attack:
                        raw = await batcher.act(i, attack_policy, normalized)
                    else:
                        raw = attack_policy.action(normalized, rng)
                    delta = project_perturbation(raw, epsilon, norm)
                    victim_view = normalized + delta
                action = await batcher.act(i, victim, victim_view)
                obs, reward, terminated, truncated, info = env.step(action)
                normalized = victim.normalize(obs)
                done = terminated or truncated
                ep_reward += float(reward)
                ep_len += 1
                ep_success = ep_success or bool(info.get("success", False))
        finally:
            batcher.leave(i)
        results[i] = (ep_reward, ep_success, ep_len)
        done_count += 1
        if on_progress is not None:
            on_progress(done_count, episodes)

    for i in range(episodes):
        batcher.join(i)
    tasks = [asyncio.create_task(episode(i)) for i in range(episodes)]
    try:
        await asyncio.gather(*tasks)
    except BaseException:
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        raise

    evaluation = AttackEvaluation()
    for outcome in results:
        assert outcome is not None
        reward, success, length = outcome
        evaluation.episode_rewards.append(reward)
        evaluation.episode_successes.append(success)
        evaluation.episode_lengths.append(length)
    return evaluation


def run_batched_evaluate(*args, **kwargs) -> AttackEvaluation:
    """Synchronous entry to :func:`batched_evaluate` for worker processes."""
    return asyncio.run(batched_evaluate(*args, **kwargs))
