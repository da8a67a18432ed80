"""The lane loop against the serial collectors it replaced, byte for byte.

``repro.runtime.collector.collect_lanes`` is the only code that steps an
env to fill a training batch.  Each test here runs it on a one-lane
``SyncVectorEnv`` next to a verbatim copy of the serial collector a
caller used before (``tests/reference_collectors.py``), from the same
seeds, and compares everything the training loop consumes: the rollout
fields, the GAE batch, the normalizer state, the loop RNG state and the
episode statistics.  The whole-run tests compare trained parameters by
``state_fingerprint``.

Each case checks that the reference run really met the events the
collector treats specially: a termination, a time-limit truncation, and
a batch that ends mid-episode.  The two bootstrap rules differ there:
``ActorCritic`` bootstraps with a full ``act_batch`` (a draw and a
normalizer update), ``PerturbedVictim`` with the critic alone.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import envs
from repro.attacks import AttackConfig, StatePerturbationEnv, collect_adversary_rollout
from repro.attacks.imap import make_regularizer
from repro.attacks.trainer import AdversaryTrainer
from repro.defenses import (
    DefenseTrainConfig,
    FgsmPerturbation,
    PerturbedVictim,
    PolicyPerturbation,
    RandomNoisePerturbation,
    get_defense,
    train_with_perturbation,
)
from repro.defenses.sa_regularizer import make_sa_loss
from repro.rl import ActorCritic, TrainConfig, gae_batch, train_ppo
from repro.runtime import SyncVectorEnv, collect_lanes
from repro.store import state_fingerprint

from . import reference_collectors as reference

ENV_IDS = ("Hopper-v0", "Walker2d-v0")
STEPS = 256
ROUNDS = 3          # consecutive collections sharing policy, env and RNG
EPSILON = 0.3
GAMMA, LAM = 0.99, 0.95
ROLLOUT_FIELDS = ("obs", "actions", "log_probs", "rewards", "values_e", "values_i",
                  "dones", "terminated", "bootstrap_e", "bootstrap_i")
BUFFER_FIELDS = {"rewards": "rewards_e"}
BATCH_KEYS = ("obs", "actions", "log_probs", "advantages_e", "advantages_i",
              "returns_e", "returns_i")


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same(a, b, what: str) -> None:
    assert same_bits(a, b), f"{what} differs"


def make_env(env_id: str, seed: int = 3):
    """The task env; its 200-step time limit supplies the truncations."""
    env = envs.make(env_id)
    env.seed(seed)
    return env


def dims(env_id: str) -> tuple[int, int]:
    env = envs.make(env_id)
    return env.observation_space.shape[0], env.action_space.shape[0]


def make_policy(obs_dim: int, action_dim: int, seed: int = 11) -> ActorCritic:
    return ActorCritic(obs_dim, action_dim, hidden_sizes=(16,),
                       rng=np.random.default_rng(seed))


class EventLog:
    """Which collector events the reference runs met, over every round."""

    def __init__(self):
        self.terminations = self.truncations = self.open_ends = 0

    def record(self, dones: np.ndarray, terminated: np.ndarray) -> None:
        self.terminations += int(terminated.sum())
        self.truncations += int(((dones > 0.5) & (terminated < 0.5))[:-1].sum())
        self.open_ends += int(dones[-1] < 0.5)

    def assert_all_met(self) -> None:
        assert self.terminations and self.truncations and self.open_ends, vars(self)


def assert_buffer_matches(buffer, rollout) -> None:
    n = buffer.ptr
    assert n == len(rollout)
    for field in ROLLOUT_FIELDS:
        assert_same(getattr(buffer, BUFFER_FIELDS.get(field, field))[:n],
                    getattr(rollout, field), field)
    ref_batch = buffer.finish(GAMMA, LAM)
    batch = gae_batch(rollout, GAMMA, LAM)
    for key in BATCH_KEYS:
        assert_same(ref_batch[key], batch[key], f"batch[{key}]")


def assert_state_matches(ref_policy, policy, ref_rng, rng) -> None:
    ref_norm, norm = ref_policy.normalizer.rms.state(), policy.normalizer.rms.state()
    assert sorted(ref_norm) == sorted(norm)
    for key in ref_norm:
        assert_same(ref_norm[key], norm[key], f"normalizer {key}")
    assert ref_rng.bit_generator.state == rng.bit_generator.state, "loop RNG differs"


# ----------------------------------------------------------- train_ppo rule

@pytest.mark.parametrize("env_id", ENV_IDS)
def test_train_ppo_collection_matches_serial(env_id):
    obs_dim, action_dim = dims(env_id)
    ref_env, env = make_env(env_id), make_env(env_id)
    ref_policy, policy = make_policy(obs_dim, action_dim), make_policy(obs_dim, action_dim)
    ref_rng, rng = np.random.default_rng(5), np.random.default_rng(5)
    buffer = reference.RolloutBuffer(STEPS, obs_dim, action_dim)
    lanes = SyncVectorEnv([env])
    events = EventLog()
    for _ in range(ROUNDS):
        stats = reference.collect_rollout(ref_env, ref_policy, buffer, ref_rng)
        rollout = collect_lanes(lanes, policy, STEPS, rng)
        events.record(buffer.dones[:STEPS], buffer.terminated[:STEPS])
        assert_buffer_matches(buffer, rollout)
        assert_state_matches(ref_policy, policy, ref_rng, rng)
        assert stats.returns == rollout.episode_rewards
        assert stats.successes == rollout.episode_successes
    events.assert_all_met()


# ---------------------------------------------------------- adversary rule

@pytest.fixture(scope="module")
def victims():
    """An untrained, frozen victim per task, to perturb against."""
    out = {}
    for env_id in ENV_IDS:
        out[env_id] = make_policy(*dims(env_id), seed=0)
        out[env_id].freeze_normalizer()
    return out


@pytest.mark.parametrize("env_id", ENV_IDS)
def test_adversary_collection_matches_serial(env_id, victims):
    obs_dim, _ = dims(env_id)

    def adv_env():
        # A stochastic untrained victim falls often enough to terminate.
        env = StatePerturbationEnv(envs.make(env_id), victims[env_id], epsilon=EPSILON,
                                   victim_deterministic=False, seed=0)
        env.seed(3)
        return env

    ref_env, env = adv_env(), adv_env()
    ref_policy, policy = make_policy(obs_dim, obs_dim), make_policy(obs_dim, obs_dim)
    ref_rng, rng = np.random.default_rng(5), np.random.default_rng(5)
    events = EventLog()
    for _ in range(ROUNDS):
        ref = reference.collect_adversary_rollout(ref_env, ref_policy, STEPS, ref_rng)
        rollout = collect_adversary_rollout(env, policy, STEPS, rng)
        events.record(ref.dones, ref.terminated)
        for field in ROLLOUT_FIELDS + ("knn_victim", "knn_adversary"):
            assert_same(getattr(ref, field), getattr(rollout, field), field)
        assert ref.episode_rewards == rollout.episode_rewards
        assert ref.episode_victim_rewards == rollout.episode_victim_rewards
        assert ref.episode_successes == rollout.episode_successes
        assert_state_matches(ref_policy, policy, ref_rng, rng)
        intrinsic = np.random.default_rng(1).standard_normal(STEPS)
        for bonus in (None, intrinsic):
            ref_batch = gae_batch(ref, GAMMA, LAM, bonus)
            batch = gae_batch(rollout, GAMMA, LAM, bonus)
            for key in BATCH_KEYS:
                assert_same(ref_batch[key], batch[key], f"batch[{key}]")
    events.assert_all_met()


# ---------------------------------------------------------- perturbed rule

def perturbation_for(kind: str, obs_dim: int, rng: np.random.Generator):
    if kind == "none":
        return None
    if kind == "noise":
        return RandomNoisePerturbation(EPSILON, rng)
    if kind == "fgsm":
        return FgsmPerturbation(EPSILON, rng)
    adversary = make_policy(obs_dim, obs_dim, seed=21)
    return PolicyPerturbation(adversary, EPSILON, rng)


@pytest.mark.parametrize("kind", ["none", "noise", "fgsm", "policy"])
@pytest.mark.parametrize("env_id", ENV_IDS)
def test_perturbed_collection_matches_serial(env_id, kind):
    obs_dim, action_dim = dims(env_id)
    ref_env, env = make_env(env_id), make_env(env_id)
    ref_victim, victim = make_policy(obs_dim, action_dim), make_policy(obs_dim, action_dim)
    ref_rng, rng = np.random.default_rng(5), np.random.default_rng(5)
    ref_perturbation = perturbation_for(kind, obs_dim, ref_rng)
    policy = PerturbedVictim(victim, perturbation_for(kind, obs_dim, rng))
    buffer = reference.RolloutBuffer(STEPS, obs_dim, action_dim)
    lanes = SyncVectorEnv([env])
    events = EventLog()
    for _ in range(ROUNDS):
        mean_return = reference.collect_rollout_with_perturbation(
            ref_env, ref_victim, ref_perturbation, buffer, ref_rng)
        rollout = collect_lanes(lanes, policy, STEPS, rng)
        events.record(buffer.dones[:STEPS], buffer.terminated[:STEPS])
        assert_buffer_matches(buffer, rollout)
        assert_state_matches(ref_victim, victim, ref_rng, rng)
        assert rollout.episode_rewards
        assert mean_return == float(np.mean(rollout.episode_rewards))
    events.assert_all_met()


def test_atla_wrapper_matches_policy_view():
    """ATLA's victim phase: a fresh ``PolicyPerturbation`` per collection."""
    obs_dim, action_dim = dims("Hopper-v0")
    adversary = make_policy(obs_dim, obs_dim, seed=21)
    ref_env, env = make_env("Hopper-v0"), make_env("Hopper-v0")
    ref_victim, victim = make_policy(obs_dim, action_dim), make_policy(obs_dim, action_dim)
    ref_rng, rng = np.random.default_rng(5), np.random.default_rng(5)
    buffer = reference.RolloutBuffer(STEPS, obs_dim, action_dim)
    lanes = SyncVectorEnv([env])
    for phase_adversary in (None, adversary):
        reference.collect_perturbed_rollout(ref_env, ref_victim, phase_adversary,
                                            EPSILON, buffer, ref_rng)
        perturbation = (None if phase_adversary is None
                        else PolicyPerturbation(phase_adversary, EPSILON, rng))
        rollout = collect_lanes(lanes, PerturbedVictim(victim, perturbation), STEPS, rng)
        assert_buffer_matches(buffer, rollout)
        assert_state_matches(ref_victim, victim, ref_rng, rng)


def test_perturbed_victim_rejects_several_lanes():
    obs_dim, action_dim = dims("Hopper-v0")
    lanes = SyncVectorEnv([make_env("Hopper-v0"), make_env("Hopper-v0", seed=4)])
    with pytest.raises(ValueError, match="one lane"):
        collect_lanes(lanes, PerturbedVictim(make_policy(obs_dim, action_dim)), 16,
                      np.random.default_rng(0))


# --------------------------------------------------------------- whole runs

def fingerprint(policy: ActorCritic) -> str:
    return state_fingerprint(policy.checkpoint_state())


@pytest.mark.parametrize("env_id", ENV_IDS)
def test_train_ppo_run_matches_serial(env_id):
    config = TrainConfig(iterations=2, steps_per_iteration=STEPS, hidden_sizes=(16,), seed=2)
    expected = reference.train_ppo(make_env(env_id), config)
    assert fingerprint(train_ppo(make_env(env_id), config).policy) == fingerprint(expected)


def defense_config(**overrides) -> DefenseTrainConfig:
    fields = dict(iterations=2, steps_per_iteration=128, hidden_sizes=(8,), seed=0,
                  epsilon=EPSILON)
    fields.update(overrides)
    return DefenseTrainConfig(**fields)


@pytest.mark.parametrize("kind", ["none", "noise", "fgsm"])
def test_train_with_perturbation_run_matches_serial(kind):
    config = defense_config()
    factory = lambda: envs.make("Walker2d-v0")  # noqa: E731
    builders = {"none": lambda rng: None,
                "noise": lambda rng: RandomNoisePerturbation(EPSILON, rng),
                "fgsm": lambda rng: FgsmPerturbation(EPSILON, rng)}
    extra = make_sa_loss(EPSILON, 0.1, 0) if kind == "noise" else None
    expected = reference.train_with_perturbation(factory, config, builders[kind], extra)
    extra = make_sa_loss(EPSILON, 0.1, 0) if kind == "noise" else None
    victim = train_with_perturbation(factory, config, builders[kind], extra)
    assert fingerprint(victim) == fingerprint(expected)


@pytest.mark.parametrize("name", ["atla", "atla_sa"])
def test_train_atla_run_matches_serial(name):
    config = defense_config(atla_phases=2, atla_adversary_iterations=1)
    factory = lambda: envs.make("Hopper-v0")  # noqa: E731
    expected = reference.train_atla(factory, config, use_sa=name == "atla_sa")
    assert fingerprint(get_defense(name)(factory, config)) == fingerprint(expected)


@pytest.mark.parametrize("regularizer", [None, "pc"])
def test_adversary_trainer_run_matches_serial(regularizer, victims):
    config = AttackConfig(iterations=2, steps_per_iteration=STEPS, hidden_sizes=(16,),
                          seed=4)

    def run(trainer_cls):
        env = StatePerturbationEnv(envs.make("Hopper-v0"), victims["Hopper-v0"],
                                   epsilon=EPSILON, seed=0)
        module = make_regularizer(regularizer, config) if regularizer else None
        trainer = trainer_cls(env, config, module)
        return trainer.train(), trainer

    expected, ref_trainer = run(reference.SerialAdversaryTrainer)
    result, trainer = run(AdversaryTrainer)
    assert fingerprint(result.policy) == fingerprint(expected.policy)
    assert result.history == expected.history
    assert trainer.rng.bit_generator.state == ref_trainer.rng.bit_generator.state
