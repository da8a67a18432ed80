"""The numpy inference path is bit-identical to the autograd forwards.

``MLP.infer`` and ``ActorCritic.act``/``act_batch``/``action``/
``sample_action`` must return exactly the bits that the ``Tensor``
forwards (``distribution()``/``critic()`` under ``no_grad``) return,
and draw the same RNG stream.  ``RunningMeanStd.update``'s one-row
branch must match the general mean/var reduction bit for bit.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import nn
from repro.nn import MLP
from repro.rl import ActorCritic, ObservationNormalizer, RewardNormalizer, RunningMeanStd

OBS_DIM, ACTION_DIM = 11, 3


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ------------------------------------------------------------------ MLP.infer


@pytest.mark.parametrize("activation", ["tanh", "relu", "sigmoid", "identity"])
@pytest.mark.parametrize("layout", ["C", "F"])
def test_mlp_infer_matches_forward(activation, layout, rng):
    mlp = MLP(OBS_DIM, (64, 32), ACTION_DIM, hidden_activation=activation,
              output_gain=1.0, rng=rng)
    for p in mlp.parameters():
        values = p.data + rng.standard_normal(p.data.shape) * 0.3
        p.data = np.array(values, order=layout)
        assert p.data.flags[f"{layout}_CONTIGUOUS"]
    for x in (rng.standard_normal(OBS_DIM) * 3.0,
              rng.standard_normal((7, OBS_DIM)) * 3.0,
              np.zeros(OBS_DIM)):
        assert same_bits(mlp.infer(x), mlp(x).data)


# ------------------------------------------------------------ ActorCritic


def reference_act(policy, obs, rng, deterministic, update):
    """The autograd ``act``: distribution and critics under ``no_grad``."""
    normalized = policy.normalize(obs, update=update)
    with nn.no_grad():
        dist = policy.distribution(normalized)
        action = dist.mode() if deterministic else dist.sample(rng)
        log_prob = float(dist.log_prob(action).data.item())
        value_e = float(policy.critic(normalized).data.item())
        value_i = (float(policy.critic_intrinsic(normalized).data.item())
                   if policy.dual_value else 0.0)
    return action, log_prob, value_e, value_i, normalized


def reference_act_batch(policy, obs, rng, deterministic, update):
    """The autograd ``act_batch`` for more than one row."""
    normalized = policy.normalize(obs, update=update)
    with nn.no_grad():
        dist = policy.distribution(normalized)
        actions = dist.mode() if deterministic else dist.sample(rng)
        log_probs = dist.log_prob(actions).data.copy()
        values_e = policy.critic(normalized).data.reshape(-1).copy()
        values_i = (policy.critic_intrinsic(normalized).data.reshape(-1).copy()
                    if policy.dual_value else np.zeros(obs.shape[0]))
    return actions, log_probs, values_e, values_i, normalized


def make_pair(dual_value: bool, seed: int = 3):
    """Two identical policies with non-trivial weights: one under test, one reference."""
    policies = []
    for _ in range(2):
        policy = ActorCritic(OBS_DIM, ACTION_DIM, hidden_sizes=(32, 32),
                             dual_value=dual_value, rng=np.random.default_rng(seed))
        noise = np.random.default_rng(seed + 1)
        for p in policy.parameters():
            p.data += noise.standard_normal(p.data.shape) * 0.2
        policies.append(policy)
    return policies


def assert_same_outputs(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is type(w)
        assert same_bits(g, w)


def observations(seed: int):
    rng = np.random.default_rng(seed)
    while True:
        yield rng.standard_normal(OBS_DIM) * 2.5 + 0.7


@pytest.mark.parametrize("dual_value", [False, True])
@pytest.mark.parametrize("deterministic", [False, True])
def test_act_matches_reference_over_a_rollout(dual_value, deterministic):
    policy, twin = make_pair(dual_value)
    rng, twin_rng = np.random.default_rng(9), np.random.default_rng(9)
    stream = observations(21)
    for step in range(2000):
        obs = next(stream)
        if step == 1000:
            # Resume mid-rollout from a checkpoint and from a pickle.
            restored = ActorCritic(OBS_DIM, ACTION_DIM, hidden_sizes=(32, 32),
                                   dual_value=dual_value, rng=np.random.default_rng(77))
            restored.load_checkpoint_state(policy.checkpoint_state())
            policy = pickle.loads(pickle.dumps(restored))
        got = policy.act(obs, rng, deterministic=deterministic, update_normalizer=True)
        want = reference_act(twin, obs, twin_rng, deterministic, update=True)
        assert_same_outputs(got, want)
    assert rng.bit_generator.state == twin_rng.bit_generator.state
    assert same_bits(policy.normalizer.rms.mean, twin.normalizer.rms.mean)
    assert same_bits(policy.normalizer.rms.var, twin.normalizer.rms.var)


@pytest.mark.parametrize("dual_value", [False, True])
@pytest.mark.parametrize("deterministic", [False, True])
@pytest.mark.parametrize("n_envs", [1, 4])
def test_act_batch_matches_reference(dual_value, deterministic, n_envs):
    policy, twin = make_pair(dual_value)
    rng, twin_rng = np.random.default_rng(4), np.random.default_rng(4)
    obs_rng = np.random.default_rng(8)
    for _ in range(300):
        obs = obs_rng.standard_normal((n_envs, OBS_DIM)) * 2.5
        got = policy.act_batch(obs, rng, deterministic=deterministic,
                               update_normalizer=True)
        if n_envs == 1:
            action, log_prob, value_e, value_i, normalized = reference_act(
                twin, obs[0], twin_rng, deterministic, update=True)
            want = (action[None], np.array([log_prob]), np.array([value_e]),
                    np.array([value_i]), normalized[None])
        else:
            want = reference_act_batch(twin, obs, twin_rng, deterministic, update=True)
        for g, w in zip(got, want):
            assert same_bits(g, w)
    assert rng.bit_generator.state == twin_rng.bit_generator.state


@pytest.mark.parametrize("dual_value", [False, True])
@pytest.mark.parametrize("deterministic", [False, True])
def test_action_and_sample_action_match_reference(dual_value, deterministic):
    policy, twin = make_pair(dual_value)
    stream = observations(5)
    for _ in range(50):  # warm the normalizers identically
        obs = next(stream)
        policy.normalize(obs, update=True)
        twin.normalize(obs, update=True)
    rng, twin_rng = np.random.default_rng(6), np.random.default_rng(6)
    for _ in range(500):
        obs = next(stream)
        want = reference_act(twin, obs, twin_rng, deterministic, update=False)[0]
        assert same_bits(policy.action(obs, rng, deterministic=deterministic), want)
        want = reference_act(twin, obs, twin_rng, deterministic, update=False)[0]
        got = policy.sample_action(policy.normalize(obs), rng, deterministic=deterministic)
        assert same_bits(got, want)
    assert rng.bit_generator.state == twin_rng.bit_generator.state


@pytest.mark.parametrize("deterministic", [False, True])
def test_action_draws_the_same_rng_as_act(deterministic):
    policy, _ = make_pair(dual_value=True)
    obs = next(observations(2))
    after_action, after_act = np.random.default_rng(1), np.random.default_rng(1)
    policy.action(obs, after_action, deterministic=deterministic)
    policy.act(obs, after_act, deterministic=deterministic)
    assert after_action.bit_generator.state == after_act.bit_generator.state


def test_gaussian_kl_matches_diag_gaussian(rng):
    mean_p, mean_q = rng.standard_normal((2, 9, ACTION_DIM))
    log_std_p, log_std_q = rng.standard_normal((2, ACTION_DIM)) * 0.5
    want = nn.DiagGaussian(mean_p, log_std_p).kl(nn.DiagGaussian(mean_q, log_std_q))
    assert same_bits(nn.gaussian_kl(mean_p, log_std_p, mean_q, log_std_q), want.data)


# -------------------------------------------------------------- RunningMeanStd


def reference_update(rms: RunningMeanStd, batch) -> None:
    """``RunningMeanStd.update`` through the general mean/var reduction only."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim == len(rms.mean.shape):
        batch = batch[None]
    batch_mean = batch.mean(axis=0)
    batch_var = batch.var(axis=0)
    batch_count = batch.shape[0]
    delta = batch_mean - rms.mean
    total = rms.count + batch_count
    new_mean = rms.mean + delta * batch_count / total
    m2 = rms.var * rms.count + batch_var * batch_count + delta**2 * rms.count * batch_count / total
    rms.mean = new_mean
    rms.var = m2 / total
    rms.count = total


def assert_same_stats(rms: RunningMeanStd, ref: RunningMeanStd) -> None:
    assert same_bits(rms.mean, ref.mean)
    assert same_bits(rms.var, ref.var)
    assert rms.count == ref.count


def test_one_row_update_matches_general_path_vector():
    rows = np.random.default_rng(0).standard_normal((20_000, 6)) * 4.0 + 3.0
    rows[::97, 2] = -0.0
    normalizer, ref = ObservationNormalizer((6,)), RunningMeanStd((6,))
    for row in rows:
        normalizer(row)
        reference_update(ref, row)
        assert_same_stats(normalizer.rms, ref)


def test_one_row_update_matches_general_path_scalar():
    rewards = np.random.default_rng(1).standard_normal(20_000) * 2.0
    rewards[::89] = -0.0
    normalizer, ref = RewardNormalizer(gamma=0.99), RunningMeanStd(())
    ret = 0.0
    for i, reward in enumerate(rewards):
        done = i % 250 == 249
        normalizer(float(reward), done)
        ret = 0.99 * ret + float(reward)
        reference_update(ref, np.array([ret]))
        if done:
            ret = 0.0
        assert_same_stats(normalizer.rms, ref)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.0])
@pytest.mark.parametrize("shape", [(4,), ()])
def test_one_row_update_keeps_non_finite_semantics(bad, shape):
    warm = np.random.default_rng(2).standard_normal((10, *shape))
    rms, ref = RunningMeanStd(shape), RunningMeanStd(shape)
    for row in warm:
        batch = row if shape else np.array([row])
        rms.update(batch)
        reference_update(ref, batch)
    row = warm[0].copy()
    if shape:
        row[1] = bad
    else:
        row = np.array([bad])
    with np.errstate(invalid="ignore"):
        rms.update(row)
        reference_update(ref, row)
    assert_same_stats(rms, ref)
