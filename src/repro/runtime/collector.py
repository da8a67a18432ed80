"""Rollout collection: the one loop that fills a training batch.

:func:`collect_lanes` steps a :class:`~repro.runtime.vec_env.VectorEnv`
with one batched policy call per step.  ``train_ppo``, the adversary
trainer and perturbed victim training (SA, RADIAL, WocaR, ATLA) all call
it; serial collection is a one-lane ``SyncVectorEnv``.

Each lane fills its own :class:`~repro.rl.buffers.RolloutBuffer` before
the next step overwrites the env's step arrays; the step infos are kept
and read once, after the loop, for the episode statistics and KNN
features.  The batch is assembled lane-major (lane 0's block first) so
GAE's flow-through bootstrap stays within one trajectory, and a lane end
inside an episode is marked as a bootstrapped truncation.

The policy provides ``act_batch(obs, rng, update_normalizer=)`` and
``bootstrap_values(obs, rng, update_normalizer=)``, the values at a cut
(a truncation or a lane end).  The cut rule is the policy's:
:class:`~repro.rl.policy.ActorCritic` runs a full ``act_batch`` (a draw
and a normalizer update), :class:`~repro.defenses.perturbed_training.
PerturbedVictim` only the critic on the clean normalized observation.
"""

from __future__ import annotations

import numpy as np

from ..attacks.base import AdversaryRollout, knn_feature
from ..rl.buffers import RolloutBuffer
from .vec_env import VectorEnv

__all__ = ["collect_lanes", "collect_adversary_rollout_vec", "knn_feature"]


def collect_lanes(vec_env: VectorEnv, policy, n_steps: int,
                  rng: np.random.Generator,
                  update_normalizer: bool = True) -> AdversaryRollout:
    """Collect ``n_steps`` of experience split evenly across the lanes."""
    n_envs = vec_env.num_envs
    if n_steps % n_envs != 0:
        raise ValueError(
            f"n_steps={n_steps} must be divisible by n_envs={n_envs} "
            "so every lane contributes a full block")
    steps_per_lane = n_steps // n_envs
    obs_dim = vec_env.observation_space.shape[0]
    action_dim = vec_env.action_space.shape[0]
    buffers = [RolloutBuffer(steps_per_lane, obs_dim, action_dim) for _ in range(n_envs)]
    step_infos: list[list[dict]] = []

    obs = vec_env.reset()
    for _ in range(steps_per_lane):
        actions, log_probs, values_e, values_i, normalized = policy.act_batch(
            obs, rng, update_normalizer=update_normalizer)
        obs, rewards, terminated, truncated, infos = vec_env.step(actions)
        step_infos.append(infos)
        cut = []
        for i, (buffer, term, trunc) in enumerate(zip(
                buffers, terminated.tolist(), truncated.tolist())):
            buffer.add(normalized[i], actions[i], log_probs[i], rewards[i],
                       values_e[i], values_i[i], done=term or trunc, terminated=term)
            if trunc and not term:
                cut.append(i)
        # Bootstrap truncated episodes from their final (pre-reset) obs in
        # one batched call, in lane order.
        if cut:
            final_obs = np.stack([infos[i]["final_obs"] for i in cut])
            boot_e, boot_i = policy.bootstrap_values(
                final_obs, rng, update_normalizer=update_normalizer)
            for j, i in enumerate(cut):
                buffers[i].set_bootstrap(buffers[i].ptr - 1, boot_e[j], boot_i[j])

    # Lanes whose last step didn't end an episode bootstrap from the
    # current observation.
    open_lanes = [i for i, buffer in enumerate(buffers) if buffer.dones[-1] < 0.5]
    if open_lanes:
        boot_e, boot_i = policy.bootstrap_values(
            obs[open_lanes], rng, update_normalizer=update_normalizer)
        for j, i in enumerate(open_lanes):
            buffers[i].set_bootstrap(steps_per_lane - 1, boot_e[j], boot_i[j])
    return _assemble(buffers, step_infos, obs_dim)


def collect_adversary_rollout_vec(vec_env: VectorEnv, policy, n_steps: int,
                                  rng: np.random.Generator,
                                  update_normalizer: bool = True,
                                  telemetry=None) -> AdversaryRollout:
    """:func:`collect_lanes` for the adversary trainer, with rollout telemetry."""
    if telemetry is None:
        return collect_lanes(vec_env, policy, n_steps, rng, update_normalizer)
    from ..attacks.trainer import record_rollout_telemetry

    start = telemetry.clock.perf()
    rollout = collect_lanes(vec_env, policy, n_steps, rng, update_normalizer)
    record_rollout_telemetry(telemetry, rollout, telemetry.clock.perf() - start,
                             vec_env.num_envs)
    return rollout


def _assemble(buffers: list[RolloutBuffer], step_infos: list[list[dict]],
              obs_dim: int) -> AdversaryRollout:
    """Concatenate the lane blocks, lane 0's first, into one rollout, with
    each lane's episode statistics and KNN feature streams."""
    dones_blocks = []
    episode_rewards: list[float] = []
    episode_victim_rewards: list[float] = []
    episode_successes: list[bool] = []
    for i, buffer in enumerate(buffers):
        ep_reward, ep_victim, ep_success = 0.0, 0.0, False
        for reward, done, infos in zip(buffer.rewards_e.tolist(), buffer.dones.tolist(),
                                       step_infos):
            info = infos[i]
            ep_reward += reward
            ep_victim += float(info.get("victim_reward", 0.0))
            ep_success = ep_success or bool(info.get("success", False))
            if done:
                episode_rewards.append(ep_reward)
                episode_victim_rewards.append(ep_victim)
                episode_successes.append(ep_success)
                ep_reward, ep_victim, ep_success = 0.0, 0.0, False
        dones = buffer.dones.copy()
        # Interior lane boundaries become truncations so GAE never flows
        # from one lane's block into the next.  The last lane's end is
        # left untouched: downstream GAE forces a boundary there anyway.
        if i < len(buffers) - 1:
            dones[-1] = 1.0
        dones_blocks.append(dones)
    lane_infos = [infos[i] for i in range(len(buffers)) for infos in step_infos]

    def cat(field: str) -> np.ndarray:
        return np.concatenate([getattr(buffer, field) for buffer in buffers])

    return AdversaryRollout(
        obs=cat("obs"),
        actions=cat("actions"),
        log_probs=cat("log_probs"),
        rewards=cat("rewards_e"),
        values_e=cat("values_e"),
        values_i=cat("values_i"),
        dones=np.concatenate(dones_blocks),
        terminated=cat("terminated"),
        bootstrap_e=cat("bootstrap_e"),
        bootstrap_i=cat("bootstrap_i"),
        knn_victim=np.asarray([knn_feature(info, "knn_victim", obs_dim)
                               for info in lane_infos]),
        knn_adversary=np.asarray([knn_feature(info, "knn_adversary", obs_dim)
                                  for info in lane_infos]),
        episode_rewards=episode_rewards,
        episode_victim_rewards=episode_victim_rewards,
        episode_successes=episode_successes,
    )

