"""Parity oracles: the serial rollout collectors the lane loop replaced.

Verbatim copies of the functions ``repro.runtime.collector``'s lane loop
took over, kept only so ``tests/test_collector_parity.py`` (and the
serial-vs-lane checks in ``tests/test_runtime.py``) can compare the one
loop with what each caller used to run, byte for byte:

* ``collect_rollout`` — ``rl.rollout.collect_rollout`` (``train_ppo``);
* ``collect_rollout_with_perturbation`` — the perturbed-observation
  collector of ``defenses.perturbed_training`` (SA, RADIAL, WocaR);
* ``collect_perturbed_rollout`` — ATLA's wrapper around it;
* ``collect_adversary_rollout`` — the serial adversary collector of
  ``attacks.trainer``;
* ``RolloutBuffer`` — the buffer as it was, with ``finish``, the GAE
  batch builder ``rl.buffers.gae_batch`` replaced;
* ``SerialAdversaryTrainer``, ``train_ppo``, ``train_with_perturbation``
  and ``train_atla`` — the training loops over those collectors, minus
  telemetry and checkpoints.

Nothing here is imported by the package.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.base import AdversaryRollout, AttackConfig, knn_feature
from repro.attacks.threat_models import StatePerturbationEnv
from repro.attacks.trainer import AdversaryTrainer
from repro.defenses.perturbed_training import PolicyPerturbation
from repro.defenses.sa_regularizer import make_sa_loss
from repro.rl.buffers import compute_gae
from repro.rl.policy import ActorCritic
from repro.rl.ppo import PPOUpdater
from repro.rl.rollout import EpisodeStats


class RolloutBuffer:
    """Fixed-size on-policy rollout with extrinsic + intrinsic channels.

    Intrinsic rewards may be filled in *after* collection (IMAP computes
    the bonus from KNN density over the finished batch) via
    :meth:`set_intrinsic_rewards`.
    """

    def __init__(self, capacity: int, obs_dim: int, action_dim: int):
        self.capacity = capacity
        self.obs = np.zeros((capacity, obs_dim))
        self.actions = np.zeros((capacity, action_dim))
        self.log_probs = np.zeros(capacity)
        self.rewards_e = np.zeros(capacity)
        self.rewards_i = np.zeros(capacity)
        self.values_e = np.zeros(capacity)
        self.values_i = np.zeros(capacity)
        # done[t]: 1 if the episode ended after step t (either way);
        # terminated[t]: 1 only for true environment termination.
        self.dones = np.zeros(capacity)
        self.terminated = np.zeros(capacity)
        self.bootstrap_e = np.zeros(capacity)
        self.bootstrap_i = np.zeros(capacity)
        self.ptr = 0

    def __len__(self) -> int:
        return self.ptr

    @property
    def full(self) -> bool:
        return self.ptr >= self.capacity

    def add(self, obs, action, log_prob, reward_e, value_e, value_i=0.0,
            reward_i=0.0, done=False, terminated=False) -> None:
        if self.full:
            raise RuntimeError("rollout buffer is full")
        i = self.ptr
        self.obs[i] = obs
        self.actions[i] = action
        self.log_probs[i] = log_prob
        self.rewards_e[i] = reward_e
        self.rewards_i[i] = reward_i
        self.values_e[i] = value_e
        self.values_i[i] = value_i
        self.dones[i] = float(done)
        self.terminated[i] = float(terminated)
        self.ptr += 1

    def set_intrinsic_rewards(self, rewards: np.ndarray) -> None:
        rewards = np.asarray(rewards, dtype=np.float64)
        if rewards.shape != (self.ptr,):
            raise ValueError(f"expected shape ({self.ptr},), got {rewards.shape}")
        self.rewards_i[: self.ptr] = rewards

    def set_bootstrap(self, index: int, value_e: float, value_i: float = 0.0) -> None:
        """Record V(s_{t+1}) for a step (used at truncations and buffer end)."""
        self.bootstrap_e[index] = value_e
        self.bootstrap_i[index] = value_i

    def finish(self, gamma: float, lam: float) -> dict[str, np.ndarray]:
        """Compute per-channel advantages/returns; returns the training batch."""
        n = self.ptr
        # Default bootstrap: next stored value (same trajectory); zero at
        # terminations; explicit values at truncations/buffer end were set
        # via set_bootstrap.
        boot_e = self.bootstrap_e[:n].copy()
        boot_i = self.bootstrap_i[:n].copy()
        for t in range(n - 1):
            if self.dones[t] < 0.5:
                boot_e[t] = self.values_e[t + 1]
                boot_i[t] = self.values_i[t + 1]
        boot_e[self.terminated[:n] >= 0.5] = 0.0
        boot_i[self.terminated[:n] >= 0.5] = 0.0

        # Treat the end of the buffer / truncations as boundaries for the
        # recursion (terminated OR truncated stops flow-through).
        boundary = self.dones[:n].copy()
        boundary[-1] = 1.0
        adv_e, ret_e = compute_gae(self.rewards_e[:n], self.values_e[:n], boundary,
                                   boot_e, gamma, lam)
        adv_i, ret_i = compute_gae(self.rewards_i[:n], self.values_i[:n], boundary,
                                   boot_i, gamma, lam)
        return {
            "obs": self.obs[:n],
            "actions": self.actions[:n],
            "log_probs": self.log_probs[:n],
            "advantages_e": adv_e,
            "advantages_i": adv_i,
            "returns_e": ret_e,
            "returns_i": ret_i,
        }

    def reset(self) -> None:
        self.ptr = 0
        self.bootstrap_e[:] = 0.0
        self.bootstrap_i[:] = 0.0


def collect_rollout(env, policy: ActorCritic, buffer: RolloutBuffer,
                    rng: np.random.Generator, update_normalizer: bool = True,
                    ) -> EpisodeStats:
    """Fill ``buffer`` with on-policy experience from ``env``.

    The buffer stores *normalized* observations (the exact inputs the
    policy saw), so PPO updates are consistent even while the normalizer
    statistics move.
    """
    stats = EpisodeStats()
    obs = env.reset()
    ep_return, ep_length, ep_success = 0.0, 0, False
    buffer.reset()
    while not buffer.full:
        action, log_prob, value_e, value_i, normalized = policy.act(
            obs, rng, update_normalizer=update_normalizer
        )
        next_obs, reward, terminated, truncated, info = env.step(action)
        done = terminated or truncated
        ep_return += reward
        ep_length += 1
        ep_success = ep_success or bool(info.get("success", False))
        buffer.add(normalized, action, log_prob, reward, value_e, value_i,
                   done=done, terminated=terminated)
        index = buffer.ptr - 1
        if done:
            if not terminated:  # truncation: bootstrap with V(s_next)
                _, _, be, bi, _ = policy.act(next_obs, rng,
                                             update_normalizer=update_normalizer)
                buffer.set_bootstrap(index, be, bi)
            stats.add(ep_return, ep_length, ep_success)
            obs = env.reset()
            ep_return, ep_length, ep_success = 0.0, 0, False
        else:
            obs = next_obs
            if buffer.full:  # buffer ends mid-episode: bootstrap
                _, _, be, bi, _ = policy.act(obs, rng,
                                             update_normalizer=update_normalizer)
                buffer.set_bootstrap(index, be, bi)
    return stats


def collect_rollout_with_perturbation(env, victim: ActorCritic, perturbation,
                                      buffer: RolloutBuffer,
                                      rng: np.random.Generator) -> float:
    """On-policy collection where the victim sees perturbed observations.

    Stores the perturbed inputs (what the network consumed), keeping the
    PPO update on-policy.  Returns the mean episode return.
    """
    obs = env.reset()
    returns, ep_return = [], 0.0
    buffer.reset()
    while not buffer.full:
        normalized = victim.normalize(obs, update=True)
        if perturbation is not None:
            normalized = normalized + perturbation(victim, normalized)
        action, log_prob, value, _ = victim.act_normalized(normalized, rng)
        next_obs, reward, terminated, truncated, info = env.step(action)
        done = terminated or truncated
        ep_return += reward
        buffer.add(normalized, action, float(log_prob), reward, float(value),
                   done=done, terminated=terminated)
        index = buffer.ptr - 1
        if done:
            if not terminated:
                nxt = victim.normalize(next_obs)
                buffer.set_bootstrap(index, float(victim.critic.infer(nxt).item()))
            returns.append(ep_return)
            ep_return = 0.0
            obs = env.reset()
        else:
            obs = next_obs
            if buffer.full:
                nxt = victim.normalize(obs)
                buffer.set_bootstrap(index, float(victim.critic.infer(nxt).item()))
    return float(np.mean(returns)) if returns else ep_return


def collect_perturbed_rollout(env, victim: ActorCritic, adversary, epsilon: float,
                              buffer: RolloutBuffer, rng: np.random.Generator) -> float:
    """Collect victim experience with a learned adversary corrupting
    observations (thin wrapper over the shared perturbed-rollout collector)."""
    perturbation = (
        PolicyPerturbation(adversary, epsilon, rng) if adversary is not None else None
    )
    return collect_rollout_with_perturbation(env, victim, perturbation, buffer, rng)


def collect_adversary_rollout(env, policy: ActorCritic, n_steps: int,
                              rng: np.random.Generator,
                              update_normalizer: bool = True) -> AdversaryRollout:
    """Collect ``n_steps`` of adversary experience, tracking KNN features."""
    obs_dim = env.observation_space.shape[0]
    action_dim = env.action_space.shape[0]
    buffer = RolloutBuffer(n_steps, obs_dim, action_dim)
    knn_victim: list[np.ndarray] = []
    knn_adversary: list[np.ndarray] = []
    episode_rewards: list[float] = []
    episode_victim_rewards: list[float] = []
    episode_successes: list[bool] = []

    obs = env.reset()
    ep_reward, ep_victim, ep_success = 0.0, 0.0, False
    while not buffer.full:
        action, log_prob, value_e, value_i, normalized = policy.act(
            obs, rng, update_normalizer=update_normalizer
        )
        next_obs, reward, terminated, truncated, info = env.step(action)
        done = terminated or truncated
        ep_reward += reward
        ep_victim += float(info.get("victim_reward", 0.0))
        ep_success = ep_success or bool(info.get("success", False))
        buffer.add(normalized, action, log_prob, reward, value_e, value_i,
                   done=done, terminated=terminated)
        knn_victim.append(knn_feature(info, "knn_victim", obs_dim))
        knn_adversary.append(knn_feature(info, "knn_adversary", obs_dim))
        index = buffer.ptr - 1
        if done:
            if not terminated:
                _, _, be, bi, _ = policy.act(next_obs, rng,
                                             update_normalizer=update_normalizer)
                buffer.set_bootstrap(index, be, bi)
            episode_rewards.append(ep_reward)
            episode_victim_rewards.append(ep_victim)
            episode_successes.append(ep_success)
            obs = env.reset()
            ep_reward, ep_victim, ep_success = 0.0, 0.0, False
        else:
            obs = next_obs
            if buffer.full:
                _, _, be, bi, _ = policy.act(obs, rng,
                                             update_normalizer=update_normalizer)
                buffer.set_bootstrap(index, be, bi)

    n = buffer.ptr
    return AdversaryRollout(
        obs=buffer.obs[:n].copy(),
        actions=buffer.actions[:n].copy(),
        log_probs=buffer.log_probs[:n].copy(),
        rewards=buffer.rewards_e[:n].copy(),
        values_e=buffer.values_e[:n].copy(),
        values_i=buffer.values_i[:n].copy(),
        dones=buffer.dones[:n].copy(),
        terminated=buffer.terminated[:n].copy(),
        bootstrap_e=buffer.bootstrap_e[:n].copy(),
        bootstrap_i=buffer.bootstrap_i[:n].copy(),
        knn_victim=np.asarray(knn_victim),
        knn_adversary=np.asarray(knn_adversary),
        episode_rewards=episode_rewards,
        episode_victim_rewards=episode_victim_rewards,
        episode_successes=episode_successes,
    )


class SerialAdversaryTrainer(AdversaryTrainer):
    """``AdversaryTrainer`` filling each batch with :func:`collect_adversary_rollout`."""

    def _collect(self, n_steps: int) -> AdversaryRollout:
        return collect_adversary_rollout(self.env, self.policy, n_steps, self.rng)


def train_ppo(env, config, extra_loss=None) -> ActorCritic:
    """``rl.trainer.train_ppo``'s loop over :func:`collect_rollout`."""
    rng = np.random.default_rng(config.seed)
    env.seed(config.seed)
    obs_dim = env.observation_space.shape[0]
    action_dim = env.action_space.shape[0]
    policy = ActorCritic(obs_dim, action_dim, hidden_sizes=config.hidden_sizes,
                         rng=np.random.default_rng(config.seed))
    updater = PPOUpdater(policy, config.ppo, extra_loss=extra_loss)
    buffer = RolloutBuffer(config.steps_per_iteration, obs_dim, action_dim)
    for _ in range(config.iterations):
        collect_rollout(env, policy, buffer, rng)
        batch = buffer.finish(config.ppo.gamma, config.ppo.gae_lambda)
        updater.update(batch, rng=rng)
    return policy


def train_with_perturbation(env_factory, config, perturbation_builder,
                            extra_loss=None) -> ActorCritic:
    """PPO victim training on perturbed observations (+ optional loss term).

    ``perturbation_builder(rng) -> callable | None`` builds the
    perturbation model once training starts.
    """
    rng = np.random.default_rng(config.seed)
    env = env_factory()
    env.seed(config.seed)
    obs_dim = env.observation_space.shape[0]
    action_dim = env.action_space.shape[0]
    victim = ActorCritic(obs_dim, action_dim, hidden_sizes=config.hidden_sizes,
                         rng=np.random.default_rng(config.seed))
    updater = PPOUpdater(victim, config.ppo, extra_loss=extra_loss)
    buffer = RolloutBuffer(config.steps_per_iteration, obs_dim, action_dim)
    perturbation = perturbation_builder(rng)
    for _ in range(config.iterations):
        collect_rollout_with_perturbation(env, victim, perturbation, buffer, rng)
        batch = buffer.finish(config.ppo.gamma, config.ppo.gae_lambda)
        updater.update(batch, rng=rng)
    victim.freeze_normalizer()
    return victim


def train_atla(env_factory, config, use_sa: bool = False) -> ActorCritic:
    """``defenses.atla._train_atla_impl`` over :func:`collect_perturbed_rollout`."""
    rng = np.random.default_rng(config.seed)
    env = env_factory()
    env.seed(config.seed)
    obs_dim = env.observation_space.shape[0]
    action_dim = env.action_space.shape[0]
    victim = ActorCritic(obs_dim, action_dim, hidden_sizes=config.hidden_sizes,
                         rng=np.random.default_rng(config.seed))
    extra = make_sa_loss(config.epsilon, config.regularizer_weight, config.seed) if use_sa else None
    updater = PPOUpdater(victim, config.ppo, extra_loss=extra)
    buffer = RolloutBuffer(config.steps_per_iteration, obs_dim, action_dim)

    phases = max(1, config.atla_phases)
    victim_iters = max(1, config.iterations // phases)
    adversary = None
    for phase in range(phases):
        # Victim phase: learn under the current attacker's perturbations.
        for _ in range(victim_iters):
            collect_perturbed_rollout(env, victim, adversary, config.epsilon, buffer, rng)
            batch = buffer.finish(config.ppo.gamma, config.ppo.gae_lambda)
            updater.update(batch, rng=rng)
        # Attacker phase: retrain SA-RL against the updated victim.
        attack_cfg = AttackConfig(
            iterations=config.atla_adversary_iterations,
            steps_per_iteration=config.steps_per_iteration,
            hidden_sizes=config.hidden_sizes,
            seed=config.seed + 100 + phase,
        )
        adv_env = StatePerturbationEnv(env_factory(), victim, epsilon=config.epsilon,
                                       victim_deterministic=False)
        adversary = SerialAdversaryTrainer(adv_env, attack_cfg, name="SA-RL").train().policy
    victim.freeze_normalizer()
    return victim
