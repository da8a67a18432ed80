"""Numpy input gradients are bit-identical to the autograd backward.

``MLP.infer_vjp``, ``nn.gaussian_kl_grad_mean_q`` and the
``ActorCritic.kl_input_gradient``/``value_input_gradient`` built on them
must give exactly the bits that ``Tensor.backward`` leaves in ``x.grad``.
``PgdAttack``, ``CriticPgdAttack`` and ``fgsm_perturbation`` must return
the same bytes as the autograd implementations kept below as references.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.attacks import CriticPgdAttack, PgdAttack
from repro.defenses import fgsm_perturbation
from repro.nn import MLP, Tensor
from repro.rl import ActorCritic

OBS_DIM, ACTION_DIM = 11, 3


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def make_victim(seed: int = 3) -> ActorCritic:
    """A Hopper-sized policy with non-trivial weights in their init layouts."""
    policy = ActorCritic(OBS_DIM, ACTION_DIM, rng=np.random.default_rng(seed))
    noise = np.random.default_rng(seed + 1)
    for p in policy.parameters():
        p.data += noise.standard_normal(p.data.shape) * 0.2
    return policy


# ------------------------------------------------ autograd reference attacks


def reference_pgd_action(attack, obs):
    """``PgdAttack.action`` through the autograd graph."""
    victim = attack.victim
    anchor = nn.DiagGaussian(Tensor(victim.actor.infer(obs)),
                             Tensor(victim.log_std.data.copy()))
    delta = attack._rng.uniform(-0.25, 0.25, size=obs.shape)
    for _ in range(attack.steps):
        x = Tensor(obs + delta, requires_grad=True)
        kl = anchor.kl(victim.distribution(x)).mean()
        for p in victim.parameters():
            p.zero_grad()
        kl.backward()
        delta = np.clip(delta + attack.step_size * np.sign(x.grad), -1.0, 1.0)
    for p in victim.parameters():
        p.zero_grad()
    return delta


def reference_critic_pgd_action(attack, obs):
    """``CriticPgdAttack.action`` through the autograd graph."""
    victim = attack.victim
    delta = attack._rng.uniform(-0.25, 0.25, size=obs.shape)
    for _ in range(attack.steps):
        x = Tensor(obs + delta, requires_grad=True)
        value = victim.critic(x).sum()
        for p in victim.parameters():
            p.zero_grad()
        value.backward()
        delta = np.clip(delta - attack.step_size * np.sign(x.grad), -1.0, 1.0)
    for p in victim.parameters():
        p.zero_grad()
    return delta


def reference_fgsm(policy, obs, epsilon, rng):
    """``fgsm_perturbation`` through the autograd graph."""
    obs = np.asarray(obs, dtype=np.float64)
    delta0 = rng.uniform(-0.5 * epsilon, 0.5 * epsilon, size=obs.shape)
    x = Tensor(obs + delta0, requires_grad=True)
    dist = policy.distribution(x)
    anchor = nn.DiagGaussian(Tensor(policy.actor.infer(obs)),
                             Tensor(policy.log_std.data.copy()))
    kl = anchor.kl(dist).mean()
    for p in policy.parameters():
        p.zero_grad()
    kl.backward()
    grad = x.grad if x.grad is not None else np.zeros_like(obs)
    for p in policy.parameters():
        p.zero_grad()
    return np.clip(delta0 + epsilon * np.sign(grad), -epsilon, epsilon)


# ------------------------------------------------------------ MLP.infer_vjp


@pytest.mark.parametrize("activation", ["tanh", "relu", "sigmoid", "identity"])
@pytest.mark.parametrize("layout", ["C", "F"])
@pytest.mark.parametrize("out_features", [ACTION_DIM, 32])
def test_infer_vjp_matches_autograd(activation, layout, out_features, rng):
    # 32 outputs: BLAS gives an F-ordered cotangent other bits than a C-ordered one.
    mlp = MLP(OBS_DIM, (64, 32), out_features, hidden_activation=activation,
              output_gain=1.0, rng=rng)
    for p in mlp.parameters():
        values = p.data + rng.standard_normal(p.data.shape) * 0.3
        p.data = np.array(values, order=layout)
        assert p.data.flags[f"{layout}_CONTIGUOUS"]
    for shape in ((OBS_DIM,), (1, OBS_DIM), (7, OBS_DIM), (64, OBS_DIM)):
        x = rng.standard_normal(shape) * 3.0
        g_out = rng.standard_normal(shape[:-1] + (out_features,))
        if g_out.ndim == 2:
            g_out = np.asfortranarray(g_out)
        out, vjp = mlp.infer_vjp(x)
        leaf = Tensor(x, requires_grad=True)
        mlp(leaf).backward(g_out)
        mlp.zero_grad()
        assert same_bits(out, mlp(x).data)
        assert same_bits(vjp(g_out), leaf.grad)
        assert all(p.grad is None for p in mlp.parameters())


# ------------------------------------------------------- KL and value grads


@pytest.mark.parametrize("shape", [(ACTION_DIM,), (1, ACTION_DIM), (7, ACTION_DIM),
                                   (256, ACTION_DIM)])
def test_kl_grad_matches_autograd(shape, rng):
    for _ in range(5):
        mean_p = rng.standard_normal(shape)
        mean_q = Tensor(mean_p + rng.standard_normal(shape) * 0.5, requires_grad=True)
        log_std = rng.standard_normal(ACTION_DIM) * 0.3 - 0.5
        anchor = nn.DiagGaussian(Tensor(mean_p), Tensor(log_std.copy()))
        anchor.kl(nn.DiagGaussian(mean_q, nn.Parameter(log_std.copy()))).mean().backward()
        got = nn.gaussian_kl_grad_mean_q(mean_p, mean_q.data, log_std)
        assert same_bits(got, mean_q.grad)


@pytest.mark.parametrize("rows", [None, 1, 7, 256])
def test_policy_input_gradients_match_autograd(rows, rng):
    victim = make_victim()
    shape = (OBS_DIM,) if rows is None else (rows, OBS_DIM)
    for _ in range(5):
        obs = rng.standard_normal(shape)
        anchor_mean = victim.actor.infer(obs + rng.standard_normal(shape) * 0.3)
        anchor = nn.DiagGaussian(Tensor(anchor_mean), Tensor(victim.log_std.data.copy()))
        x = Tensor(obs, requires_grad=True)
        anchor.kl(victim.distribution(x)).mean().backward()
        assert same_bits(victim.kl_input_gradient(anchor_mean, obs), x.grad)
        x = Tensor(obs, requires_grad=True)
        victim.critic(x).sum().backward()
        assert same_bits(victim.value_input_gradient(obs), x.grad)
        victim.zero_grad()


# --------------------------------------------------------- attack parity


@pytest.mark.parametrize("attack_cls, reference", [
    (PgdAttack, reference_pgd_action),
    (CriticPgdAttack, reference_critic_pgd_action),
])
def test_pgd_attacks_match_autograd_reference(attack_cls, reference):
    victim = make_victim()
    attack = attack_cls(victim, steps=5, seed=7)
    ref_attack = attack_cls(victim, steps=5, seed=7)
    obs = np.random.default_rng(11).standard_normal((1500, OBS_DIM)) * 2.0
    for o in obs:
        assert same_bits(attack.action(o), reference(ref_attack, o))
    assert same_bits(attack._rng.random(), ref_attack._rng.random())


def test_fgsm_matches_autograd_reference():
    victim = make_victim()
    rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    obs_rng = np.random.default_rng(13)
    for o in obs_rng.standard_normal((1500, OBS_DIM)) * 2.0:
        assert same_bits(fgsm_perturbation(victim, o, 0.15, rng=rng),
                         reference_fgsm(victim, o, 0.15, ref_rng))
    for rows in (1, 2, 7, 64, 256):
        batch = obs_rng.standard_normal((rows, OBS_DIM)) * 2.0
        assert same_bits(fgsm_perturbation(victim, batch, 0.15, rng=rng),
                         reference_fgsm(victim, batch, 0.15, ref_rng))


def test_attacks_clear_stale_parameter_grads(rng):
    victim = make_victim()
    obs = rng.standard_normal(OBS_DIM)
    for run in (lambda: PgdAttack(victim, steps=2).action(obs),
                lambda: CriticPgdAttack(victim, steps=2).action(obs),
                lambda: fgsm_perturbation(victim, obs, 0.1, rng=rng)):
        for p in victim.parameters():
            p.grad = np.ones_like(p.data)
        run()
        assert all(p.grad is None for p in victim.parameters())
