"""Shared experiment plumbing: victims, attacks, and cell evaluation.

Learned attacks are cached in the content-addressed artifact store keyed
by (env, attack name, full attack config, victim parameter fingerprint,
code version): re-running a completed sweep retrains nothing, while any
change to the victim or the attack budget produces fresh keys.
"""

from __future__ import annotations

import dataclasses
from dataclasses import replace

from ..attacks import (
    AttackConfig,
    AttackResult,
    OpponentEnv,
    RandomAttackPolicy,
    StatePerturbationEnv,
    default_epsilon,
    train_apmarl,
    train_imap,
    train_sarl,
)
from ..defenses import DefenseTrainConfig
from ..envs import make, make_game
from ..eval import AttackEvaluation, evaluate_game, evaluate_single_agent
from ..rl.policy import ActorCritic
from ..runtime import SyncVectorEnv
from ..store import CODE_VERSION, ArtifactStore, default_store, state_fingerprint
from ..zoo import get_game_victim, get_victim
from .config import ExperimentScale

__all__ = [
    "ATTACK_NAMES", "parse_attack_name", "victim_for", "victim_config_for",
    "game_victim_for", "attack_config_for", "make_adversary_env",
    "train_single_agent_attack", "train_attack", "train_game_attack",
    "evaluate_cell",
]

ATTACK_NAMES = [
    "random", "sarl",
    "imap-sc", "imap-pc", "imap-r", "imap-d",
    "imap-sc+br", "imap-pc+br", "imap-r+br", "imap-d+br",
]


def parse_attack_name(name: str) -> dict:
    """Split an attack name into its family and options."""
    name = name.lower()
    if name in ("random", "sarl", "apmarl"):
        return {"family": name}
    if name.startswith("imap-"):
        rest = name[len("imap-"):]
        use_br = rest.endswith("+br")
        regularizer = rest[:-3] if use_br else rest
        if regularizer not in ("sc", "pc", "r", "d"):
            raise ValueError(f"unknown IMAP regularizer in {name!r}")
        return {"family": "imap", "regularizer": regularizer, "use_br": use_br}
    raise ValueError(f"unknown attack {name!r}; options: {ATTACK_NAMES + ['apmarl']}")


def victim_config_for(env_id: str, scale: ExperimentScale, seed: int = 0) -> DefenseTrainConfig:
    """The defense training config :func:`victim_for` uses for this cell.

    Exposed separately so callers that only need the victim's
    content-address spec (e.g. league match keys) can compute it without
    training — the config *is* the victim's identity.
    """
    return DefenseTrainConfig(
        iterations=scale.victim_iterations,
        steps_per_iteration=scale.steps_per_iteration,
        seed=seed,
        epsilon=default_epsilon(env_id),
    )


def victim_for(env_id: str, defense: str, scale: ExperimentScale, seed: int = 0,
               store: ArtifactStore | None = None) -> ActorCritic:
    config = victim_config_for(env_id, scale, seed=seed)
    return get_victim(env_id, defense, config=config, budget_tag=scale.budget_tag,
                      seed=seed, store=store)


def game_victim_for(game_id: str, scale: ExperimentScale, seed: int = 0) -> ActorCritic:
    return get_game_victim(
        game_id,
        iterations=scale.game_victim_iterations,
        steps_per_iteration=scale.steps_per_iteration,
        hardening_iterations=scale.game_hardening_iterations,
        hardening_attack_iterations=max(1, scale.game_attack_iterations // 2),
        budget_tag=scale.budget_tag,
        seed=seed,
    )


def attack_config_for(scale: ExperimentScale, seed: int, **overrides) -> AttackConfig:
    config = AttackConfig(
        iterations=scale.attack_iterations,
        steps_per_iteration=scale.steps_per_iteration,
        seed=seed,
    )
    return replace(config, **overrides) if overrides else config


def make_adversary_env(env_id: str, victim: ActorCritic, epsilon: float,
                       seed: int = 0, n_envs: int = 1):
    """Single-agent adversary MDP; ``n_envs > 1`` returns a
    :class:`~repro.runtime.SyncVectorEnv` over that many lanes.

    Lane seeds are derived from ``seed`` inside the vector env (see
    :mod:`repro.runtime.vec_env`); the trainer re-seeds it with the
    attack config's seed before collecting.
    """
    def one(lane_seed: int) -> StatePerturbationEnv:
        return StatePerturbationEnv(make(env_id), victim, epsilon=epsilon, seed=lane_seed)

    if n_envs <= 1:
        return one(seed)
    return SyncVectorEnv([one(seed + i) for i in range(n_envs)])


def attack_spec(kind: str, env_id: str, attack: str, config: AttackConfig,
                victim: ActorCritic, **extra) -> dict:
    """Content-address spec for a trained attack artifact.

    The victim enters via a fingerprint of its parameters (not its
    training recipe): a retrained or differently-configured victim
    changes the fingerprint and therefore the key.
    """
    return {
        "kind": kind,
        "env_id": env_id,
        "attack": attack,
        "config": dataclasses.asdict(config),
        "victim": state_fingerprint(victim.checkpoint_state()),
        "code_version": CODE_VERSION,
        **extra,
    }


def _load_cached_attack(store: ArtifactStore, spec: dict) -> AttackResult | None:
    hit = store.get(spec)
    if hit is None:
        return None
    state, entry = hit
    meta = entry.metadata
    try:
        policy = ActorCritic(int(meta["obs_dim"]), int(meta["action_dim"]),
                             hidden_sizes=tuple(meta["hidden_sizes"]),
                             dual_value=bool(meta["dual_value"]))
        policy.load_checkpoint_state(state)
    except (KeyError, ValueError, TypeError):
        return None
    return AttackResult(policy=policy, history=list(meta["history"]),
                        name=str(meta["name"]))


def _store_attack(store: ArtifactStore, spec: dict, result: AttackResult,
                  config: AttackConfig) -> None:
    policy = result.policy
    store.put(spec, policy.checkpoint_state(), metadata={
        "env_id": spec["env_id"],
        "attack": spec["attack"],
        "obs_dim": policy.obs_dim,
        "action_dim": policy.action_dim,
        "hidden_sizes": list(config.hidden_sizes),
        "dual_value": policy.dual_value,
        "history": result.history,
        "name": result.name,
    })


def train_single_agent_attack(env_id: str, victim: ActorCritic, attack: str,
                              scale: ExperimentScale, seed: int = 0,
                              epsilon: float | None = None, n_envs: int = 1,
                              callback=None, store: ArtifactStore | None = None,
                              use_cache: bool = True,
                              **config_overrides) -> AttackResult | None:
    """Train one attack against one victim; None for non-learned attacks.

    The attack config comes from ``scale`` and ``seed`` (plus
    ``config_overrides``); everything else is :func:`train_attack`.
    """
    return train_attack(env_id, victim, attack,
                        attack_config_for(scale, seed, **config_overrides),
                        epsilon=epsilon, n_envs=n_envs, callback=callback,
                        store=store, use_cache=use_cache)


def train_attack(env_id: str, victim: ActorCritic, attack: str,
                 config: AttackConfig, epsilon: float | None = None,
                 n_envs: int = 1, callback=None,
                 store: ArtifactStore | None = None,
                 use_cache: bool = True) -> AttackResult | None:
    """Train ``attack`` with ``config`` against ``victim``; None for random.

    ``n_envs > 1`` collects each PPO batch from that many env copies via
    the vectorized rollout collector (same samples per iteration).  The
    adversary env is seeded with ``config.seed``.

    Results are cached in the artifact store; a cache hit skips training
    entirely.  Passing a ``callback`` disables the cache — a callback
    observes training as it happens, which a cached result cannot replay.
    """
    spec = parse_attack_name(attack)
    epsilon = default_epsilon(env_id) if epsilon is None else epsilon
    if spec["family"] == "random":
        return None
    cacheable = use_cache and callback is None
    if cacheable:
        store = store if store is not None else default_store()
        key_spec = attack_spec("attack", env_id, attack, config, victim,
                               epsilon=epsilon, n_envs=n_envs)
        cached = _load_cached_attack(store, key_spec)
        if cached is not None:
            return cached
    adv_env = make_adversary_env(env_id, victim, epsilon, seed=config.seed,
                                 n_envs=n_envs)
    if spec["family"] == "sarl":
        result = train_sarl(adv_env, config, callback=callback)
    elif spec["family"] == "apmarl":
        # AP-MARL is the shared trainer with no regularizer; on a
        # StatePerturbationEnv it doubles as a policy-optimization
        # perturbation baseline (the league's population uses it).
        result = train_apmarl(adv_env, config, callback=callback)
    else:
        result = train_imap(adv_env, spec["regularizer"], config,
                            use_bias_reduction=spec["use_br"], callback=callback)
    if cacheable:
        _store_attack(store, key_spec, result, config)
    return result


def train_game_attack(game_id: str, victim: ActorCritic, attack: str,
                      scale: ExperimentScale, seed: int = 0,
                      callback=None, store: ArtifactStore | None = None,
                      use_cache: bool = True, **config_overrides) -> AttackResult:
    spec = parse_attack_name(attack)
    overrides = {"iterations": scale.game_attack_iterations,
                 "intrinsic_reward_scale": 0.05, **config_overrides}
    config = attack_config_for(scale, seed, **overrides)
    cacheable = use_cache and callback is None
    if cacheable:
        store = store if store is not None else default_store()
        key_spec = attack_spec("game_attack", game_id, attack, config, victim)
        cached = _load_cached_attack(store, key_spec)
        if cached is not None:
            return cached
    adv_env = OpponentEnv(make_game(game_id), victim, seed=seed)
    if spec["family"] in ("sarl", "apmarl"):
        result = train_apmarl(adv_env, config, callback=callback)
    else:
        result = train_imap(adv_env, spec["regularizer"], config, multi_agent=True,
                            use_bias_reduction=spec["use_br"], callback=callback)
    if cacheable:
        _store_attack(store, key_spec, result, config)
    return result


def evaluate_cell(env_id: str, victim: ActorCritic, attack: str,
                  result: AttackResult | None, scale: ExperimentScale,
                  seed: int = 1000, epsilon: float | None = None) -> AttackEvaluation:
    """Evaluate a (victim, attack) pair on the published task."""
    epsilon = default_epsilon(env_id) if epsilon is None else epsilon
    spec = parse_attack_name(attack) if attack != "none" else {"family": "none"}
    env = make(env_id)
    if spec["family"] == "none":
        return evaluate_single_agent(env, victim, None, episodes=scale.eval_episodes, seed=seed)
    if spec["family"] == "random":
        policy = RandomAttackPolicy(env.observation_space.shape[0], seed=seed)
        return evaluate_single_agent(env, victim, policy, epsilon=epsilon,
                                     episodes=scale.eval_episodes, seed=seed,
                                     attack_deterministic=False)
    assert result is not None, "learned attacks need a trained AttackResult"
    return evaluate_single_agent(env, victim, result.policy, epsilon=epsilon,
                                 episodes=scale.eval_episodes, seed=seed)


def evaluate_game_cell(game_id: str, victim: ActorCritic, result: AttackResult,
                       scale: ExperimentScale, seed: int = 1000) -> AttackEvaluation:
    return evaluate_game(make_game(game_id), victim, result.policy,
                         episodes=scale.eval_episodes, seed=seed)
