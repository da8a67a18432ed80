"""The numpy PPO update and the flat Adam are bit-identical to the tape.

``PPOUpdater`` computes the PPO loss and its parameter gradients in numpy
(``ppo_loss``) unless an ``extra_loss`` is set, and ``Adam`` steps flat
moment buffers.  The autograd minibatch and the per-parameter Adam they
replace are kept below as references; every test compares gradients,
parameters, Adam moments and the stats dict byte for byte.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.attacks.imap.mimic import MimicPolicy
from repro.defenses.detection import DynamicsModel
from repro.nn import Adam, Tensor
from repro.nn import functional as F
from repro.rl import ActorCritic, NumericalDivergence, PPOConfig, PPOUpdater, check_gradients
from repro.rl.health import check_finite, clip_checked_gradients

OBS_DIM, ACTION_DIM = 11, 3


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ------------------------------------------------------------- references


class ReferenceAdam(nn.Optimizer):
    """The per-parameter Adam: one set of ops per parameter, new arrays."""

    def __init__(self, parameters, lr=3e-4, betas=(0.9, 0.999), eps=1e-8):
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def state_dict(self) -> dict:
        return {**super().state_dict(), "betas": [self.beta1, self.beta2],
                "eps": self.eps, "step": self._step,
                "m": [m.copy() for m in self._m], "v": [v.copy() for v in self._v]}

    def step(self) -> None:
        self._step += 1
        correction1 = 1.0 - self.beta1**self._step
        correction2 = 1.0 - self.beta2**self._step
        for p, m, v in zip(self.parameters, self._m, self._v):
            if p.grad is None:
                continue
            m *= self.beta1
            m += (1.0 - self.beta1) * p.grad
            v *= self.beta2
            v += (1.0 - self.beta2) * p.grad**2
            m_hat = m / correction1
            v_hat = v / correction2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class ReferenceUpdater(PPOUpdater):
    """``PPOUpdater`` with the autograd minibatch and the per-parameter Adam."""

    def __init__(self, policy, config, extra_loss=None):
        super().__init__(policy, config, extra_loss=extra_loss)
        self.optimizer = ReferenceAdam(policy.parameters(), lr=config.learning_rate)

    def _update_minibatch(self, batch, advantages, idx, tau):
        cfg = self.config
        obs = batch["obs"][idx]
        actions = batch["actions"][idx]
        old_log_probs = batch["log_probs"][idx]
        adv = Tensor(advantages[idx])

        dist = self.policy.distribution(obs)
        log_probs = dist.log_prob(actions)
        ratio = (log_probs - Tensor(old_log_probs)).exp()
        clipped = ratio.clip(1.0 - cfg.clip_epsilon, 1.0 + cfg.clip_epsilon)
        policy_loss = -F.minimum(ratio * adv, clipped * adv).mean()

        value_loss = F.mse_loss(self.policy.value(obs), batch["returns_e"][idx])
        if self.policy.dual_value:
            value_loss = value_loss + F.mse_loss(
                self.policy.value_intrinsic(obs), batch["returns_i"][idx]
            )

        entropy = dist.entropy().mean()
        loss = policy_loss + cfg.value_coef * value_loss - cfg.entropy_coef * entropy

        extra_value = 0.0
        if self.extra_loss is not None:
            extra = self.extra_loss(self.policy, obs, dist)
            extra_value = float(extra.data)
            loss = loss + cfg.extra_loss_weight * extra

        check_finite("loss", float(loss.data), max_abs=cfg.max_loss_magnitude)
        self.optimizer.zero_grad()
        loss.backward()
        check_gradients(self.policy.parameters())
        nn.clip_grad_norm(self.policy.parameters(), cfg.max_grad_norm)
        self.optimizer.step()

        log_ratio = log_probs.data - old_log_probs
        approx_kl = float(np.mean(np.exp(log_ratio) - 1.0 - log_ratio))
        clip_fraction = float(np.mean(np.abs(ratio.data - 1.0) > cfg.clip_epsilon))
        return {
            "policy_loss": float(policy_loss.data),
            "value_loss": float(value_loss.data),
            "entropy": float(entropy.data),
            "approx_kl": approx_kl,
            "clip_fraction": clip_fraction,
            "extra_loss": extra_value,
        }


# ---------------------------------------------------------------- helpers


def make_policy(dual: bool, seed: int = 3) -> ActorCritic:
    """A Hopper-sized policy with non-trivial weights in their init layouts."""
    policy = ActorCritic(OBS_DIM, ACTION_DIM, dual_value=dual,
                         rng=np.random.default_rng(seed))
    noise = np.random.default_rng(seed + 1)
    for p in policy.parameters():
        p.data += noise.standard_normal(p.data.shape) * 0.2
    return policy


def make_batch(policy: ActorCritic, n: int, seed: int = 0, spread: float = 0.05) -> dict:
    """A rollout batch whose behaviour log-probs sit ``spread`` off the policy's."""
    rng = np.random.default_rng(seed)
    obs = rng.standard_normal((n, OBS_DIM))
    mean = policy.actor.infer(obs)
    actions = mean + np.exp(policy.log_std.data) * rng.standard_normal(mean.shape)
    log_probs = nn.gaussian_log_prob(actions, mean, policy.log_std.data)
    return {
        "obs": obs, "actions": actions,
        "log_probs": log_probs + rng.standard_normal(n) * spread,
        "returns_e": rng.standard_normal(n) * 3.0, "returns_i": rng.standard_normal(n),
        "advantages_e": rng.standard_normal(n) * 2.0, "advantages_i": rng.standard_normal(n),
    }


def updater_pair(dual: bool, config: PPOConfig, extra_loss=None, seed: int = 3):
    new = PPOUpdater(make_policy(dual, seed), config, extra_loss=extra_loss)
    ref = ReferenceUpdater(make_policy(dual, seed), config, extra_loss=extra_loss)
    return new, ref


def assert_same_state(new: PPOUpdater, ref: PPOUpdater) -> None:
    pairs = zip(new.policy.named_parameters(), ref.policy.parameters())
    for (name, p), q in pairs:
        assert same_bits(p.data, q.data), name
        assert p.data.flags.f_contiguous == q.data.flags.f_contiguous, name
        assert p.data.flags.c_contiguous == q.data.flags.c_contiguous, name
        assert (p.grad is None) == (q.grad is None), name
        if p.grad is not None:
            assert same_bits(p.grad, q.grad), name
    new_state, ref_state = new.optimizer.state_dict(), ref.optimizer.state_dict()
    assert new_state["step"] == ref_state["step"]
    for key in ("m", "v"):
        for a, b in zip(new_state[key], ref_state[key], strict=True):
            assert same_bits(a, b)
            assert a.flags.c_contiguous == b.flags.c_contiguous


def run_updates(new, ref, batch, tau=0.0, updates=3, seed=11):
    for k in range(updates):
        stats_new = new.update(batch, tau=tau, rng=np.random.default_rng(seed + k))
        stats_ref = ref.update(batch, tau=tau, rng=np.random.default_rng(seed + k))
        assert stats_new.keys() == stats_ref.keys()
        for key in stats_ref:
            assert same_bits(stats_new[key], stats_ref[key]), key
        assert_same_state(new, ref)
    return stats_new


# ------------------------------------------------- MLP parameter gradients


@pytest.mark.parametrize("activation", ["tanh", "relu", "sigmoid", "identity"])
@pytest.mark.parametrize("rows, width", [(1, 3), (64, 3), (64, 1)])
def test_infer_param_vjp_matches_backward(activation, rows, width):
    mlp = nn.MLP(7, (48, 32), width, hidden_activation=activation,
                 rng=np.random.default_rng(4))
    rng = np.random.default_rng(5)
    x = rng.standard_normal((rows, 7))
    g_out = np.asfortranarray(rng.standard_normal((rows, width)))
    out, vjp = mlp.infer_param_vjp(x)
    grads = vjp(g_out)
    mlp.zero_grad()
    reference = mlp(x)
    reference.backward(g_out)
    assert same_bits(out, reference.data)
    for (name, p), grad in zip(mlp.named_parameters(), grads, strict=True):
        assert same_bits(grad, p.grad), name
        assert grad.flags.c_contiguous, name


# ------------------------------------------------------------ PPO update


@pytest.mark.parametrize("dual", [False, True])
@pytest.mark.parametrize("tau", [0.0, 0.7])
def test_update_matches_tape(dual, tau):
    config = PPOConfig(epochs=3, minibatches=4, target_kl=None)
    new, ref = updater_pair(dual, config)
    batch = make_batch(new.policy, 203)
    run_updates(new, ref, batch, tau=tau)


def test_update_without_advantage_normalization():
    config = PPOConfig(epochs=2, minibatches=3, target_kl=None, normalize_advantages=False)
    new, ref = updater_pair(True, config)
    run_updates(new, ref, make_batch(new.policy, 96), tau=0.3)


def test_one_row_minibatches():
    # array_split(9 rows, 8) gives one 2-row and seven 1-row minibatches.
    config = PPOConfig(epochs=2, minibatches=8, target_kl=None)
    new, ref = updater_pair(True, config)
    run_updates(new, ref, make_batch(new.policy, 9), tau=0.5)


def test_one_row_batch():
    config = PPOConfig(epochs=2, minibatches=1, target_kl=None)
    new, ref = updater_pair(False, config)
    stats = run_updates(new, ref, make_batch(new.policy, 1))
    assert stats["updates"] == 2


def test_ratios_inside_and_outside_the_clip():
    config = PPOConfig(epochs=2, minibatches=2, target_kl=None, clip_epsilon=0.1)
    new, ref = updater_pair(True, config)
    batch = make_batch(new.policy, 128, spread=0.3)
    stats = run_updates(new, ref, batch, tau=0.2)
    assert 0.0 < stats["clip_fraction"] < 1.0


def test_target_kl_early_stop():
    config = PPOConfig(epochs=8, minibatches=4, target_kl=1e-4)
    new, ref = updater_pair(True, config)
    stats = run_updates(new, ref, make_batch(new.policy, 64, spread=0.3), updates=2)
    assert stats["updates"] < config.epochs * config.minibatches


def test_extra_loss_keeps_the_tape():
    """With a defense term the Tensor path runs, and matches the reference."""

    def extra_loss(policy, obs, dist):
        return (dist.mean * dist.mean).mean() * 0.1

    config = PPOConfig(epochs=2, minibatches=2, target_kl=None)
    new, ref = updater_pair(True, config, extra_loss=extra_loss)
    stats = run_updates(new, ref, make_batch(new.policy, 64))
    assert stats["extra_loss"] > 0.0


def test_numpy_path_builds_no_tensor(monkeypatch):
    built = []
    original = Tensor.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    new = PPOUpdater(make_policy(True), PPOConfig(epochs=1, minibatches=2))
    batch = make_batch(new.policy, 32)
    monkeypatch.setattr(Tensor, "__init__", counting_init)
    new.update(batch, tau=0.5, rng=np.random.default_rng(0))
    assert built == []


def _poisoned_batch(policy, advantage_sign: float) -> dict:
    batch = make_batch(policy, 32)
    batch["advantages_e"] = np.full(32, advantage_sign)
    batch["advantages_i"] = np.zeros(32)
    # An infinite ratio: clipped away for a positive advantage (finite
    # loss, NaN gradient through exp's 0 * inf), taken for a negative one
    # (infinite loss).
    batch["log_probs"][5] = -np.inf
    return batch


@pytest.mark.parametrize("extra", [False, True])
@pytest.mark.parametrize("advantage_sign, what", [(1.0, "gradients"), (-1.0, "loss")])
def test_divergence_raises_before_any_state_changes(extra, advantage_sign, what):
    config = PPOConfig(epochs=1, minibatches=1, normalize_advantages=False)
    extra_loss = (lambda policy, obs, dist: dist.mean.sum() * 0.0) if extra else None
    new, ref = updater_pair(True, config, extra_loss=extra_loss)
    run_updates(new, ref, make_batch(new.policy, 32), updates=1)
    before = {name: p.data.copy() for name, p in new.policy.named_parameters()}
    moments = new.optimizer.state_dict()
    batch = _poisoned_batch(new.policy, advantage_sign)
    errors = []
    with np.errstate(all="ignore"):
        for updater in (new, ref):
            with pytest.raises(NumericalDivergence) as excinfo:
                updater.update(batch, rng=np.random.default_rng(0))
            assert excinfo.value.what == what
            errors.append(excinfo.value)
    if what == "gradients":
        # Named on the numpy path and on the tape (``extra``): log_std is
        # the first parameter, and the NaN reaches it.
        assert errors[0].detail == "first non-finite parameter log_std"
    for name, p in new.policy.named_parameters():
        assert same_bits(p.data, before[name]), name
    after = new.optimizer.state_dict()
    assert after["step"] == moments["step"]
    for key in ("m", "v"):
        for a, b in zip(after[key], moments[key]):
            assert same_bits(a, b)


def test_check_gradients_names_first_non_finite_parameter():
    policy = make_policy(False)
    for p in policy.parameters():
        p.grad = np.zeros_like(p.data)
    policy.actor.output.weight.grad[1, 2] = np.inf
    policy.critic.layer0.bias.grad[0] = np.nan
    with pytest.raises(NumericalDivergence, match="actor.output.weight") as excinfo:
        check_gradients(policy.named_parameters())
    assert excinfo.value.what == "gradients"
    assert excinfo.value.stats["inf"] == 1
    # Bare parameters still work, without a name.
    with pytest.raises(NumericalDivergence) as excinfo:
        check_gradients(policy.parameters())
    assert excinfo.value.detail == ""


@pytest.mark.parametrize("case", ["clipped", "below", "no_grad", "overflow",
                                  "nan", "inf_after_overflow"])
def test_clip_checked_gradients_matches_check_then_clip(case):
    """One pass gives check_gradients' error, or clip_grad_norm's norm and
    scaled gradients, bit for bit."""
    def policy_with_grads():
        policy = make_policy(False)
        rng = np.random.default_rng(5)
        for p in policy.parameters():
            p.grad = rng.normal(size=p.data.shape) * (1e-4 if case == "below" else 3.0)
        named = dict(policy.named_parameters())
        if case == "no_grad":
            named["actor.layer0.bias"].grad = None
        if case in ("overflow", "inf_after_overflow"):
            named["actor.layer0.weight"].grad[0, 0] = 1e200  # finite, square is inf
        if case == "nan":
            named["actor.output.weight"].grad[1, 2] = np.nan
        if case == "inf_after_overflow":
            named["critic.layer0.bias"].grad[0] = -np.inf
        return policy

    new, ref = policy_with_grads(), policy_with_grads()
    with np.errstate(all="ignore"):
        try:
            check_gradients(ref.named_parameters())
            expected = nn.clip_grad_norm(ref.parameters(), 0.5)
        except NumericalDivergence as exc:
            expected = exc
        if isinstance(expected, NumericalDivergence):
            with pytest.raises(NumericalDivergence) as excinfo:
                clip_checked_gradients(new.named_parameters(), 0.5)
            assert excinfo.value.detail == expected.detail
            assert excinfo.value.stats == expected.stats
        else:
            assert same_bits(clip_checked_gradients(new.named_parameters(), 0.5), expected)
    assert isinstance(expected, NumericalDivergence) == (case in ("nan", "inf_after_overflow"))
    for (name, p), q in zip(new.named_parameters(), ref.parameters()):
        assert (p.grad is None) == (q.grad is None), name
        if p.grad is not None:
            assert same_bits(p.grad, q.grad), name


# ------------------------------------------------------------- flat Adam


def _adam_pair(make_params, lr=0.01):
    params_new, params_ref = make_params(), make_params()
    return Adam(params_new, lr=lr), ReferenceAdam(params_ref, lr=lr)


def _mlp_params():
    return nn.MLP(5, (32, 8), 2, rng=np.random.default_rng(0)).parameters()


def _assert_adam_same(new: Adam, ref: ReferenceAdam) -> None:
    for p, q in zip(new.parameters, ref.parameters, strict=True):
        assert same_bits(p.data, q.data)
        assert p.data.flags.f_contiguous == q.data.flags.f_contiguous
    new_state, ref_state = new.state_dict(), ref.state_dict()
    assert new_state.keys() == ref_state.keys()
    for key in ("m", "v"):
        for a, b in zip(new_state[key], ref_state[key], strict=True):
            assert same_bits(a, b)
            assert a.flags.c_contiguous and b.flags.c_contiguous


def test_flat_adam_skips_parameters_without_gradient():
    new, ref = _adam_pair(_mlp_params)
    assert any(p.data.flags.f_contiguous and not p.data.flags.c_contiguous
               for p in new.parameters), "want an F-ordered weight in the mix"
    rng = np.random.default_rng(1)
    for step in range(6):
        grads = [rng.standard_normal(p.data.shape) for p in new.parameters]
        for i, (p, q, g) in enumerate(zip(new.parameters, ref.parameters, grads)):
            skip = step % 2 == 0 and i in (1, 4)
            p.grad = None if skip else g.copy()
            q.grad = None if skip else g.copy()
        before = [m.copy() for m in new.state_dict()["m"]]
        new.step()
        ref.step()
        _assert_adam_same(new, ref)
        if step % 2 == 0:
            for i in (1, 4):
                assert same_bits(new.state_dict()["m"][i], before[i])


def test_flat_adam_state_dict_round_trip():
    new, ref = _adam_pair(_mlp_params)
    rng = np.random.default_rng(2)

    def step_both(adams):
        grads = [rng.standard_normal(p.data.shape) for p in adams[0].parameters]
        for adam in adams:
            for p, g in zip(adam.parameters, grads):
                p.grad = g.copy()
            adam.step()

    for _ in range(3):
        step_both((new, ref))
    _assert_adam_same(new, ref)

    # Restore into fresh parameters copied from the live ones.
    params = _mlp_params()
    for p, q in zip(params, new.parameters):
        np.copyto(p.data, q.data)
    restored = Adam(params, lr=0.5)
    restored.load_state_dict(new.state_dict())
    assert restored.lr == 0.01
    for a, b in zip(restored.state_dict()["m"] + restored.state_dict()["v"],
                    new.state_dict()["m"] + new.state_dict()["v"]):
        assert same_bits(a, b)
    for _ in range(3):
        step_both((new, ref, restored))
    _assert_adam_same(new, ref)
    _assert_adam_same(restored, ref)


def test_flat_adam_rejects_mismatched_state():
    new, _ = _adam_pair(_mlp_params)
    state = new.state_dict()
    with pytest.raises(ValueError):
        new.load_state_dict({**state, "m": state["m"][:-1]})
    with pytest.raises(ValueError):
        new.load_state_dict({**state, "v": [np.zeros(3)] * len(state["v"])})


def test_mimic_fit_matches_reference_adam():
    def make():
        mimic = MimicPolicy(OBS_DIM, ACTION_DIM, batch_size=64, seed=4)
        policy = make_policy(False)
        mimic.absorb(np.random.default_rng(5).standard_normal((300, OBS_DIM)), policy)
        return mimic

    new, ref = make(), make()
    ref.optimizer = ReferenceAdam(ref.parameters(), lr=1e-3)
    assert same_bits(new.fit(steps=25), ref.fit(steps=25))
    _assert_adam_same(new.optimizer, ref.optimizer)


def test_dynamics_fit_matches_reference_adam():
    rng = np.random.default_rng(6)
    obs = rng.standard_normal((300, OBS_DIM))
    actions = rng.standard_normal((300, ACTION_DIM))
    next_obs = obs + rng.standard_normal((300, OBS_DIM)) * 0.1
    new, ref = DynamicsModel(OBS_DIM, ACTION_DIM, seed=2), DynamicsModel(OBS_DIM, ACTION_DIM, seed=2)
    ref.optimizer = ReferenceAdam(ref.parameters(), lr=1e-3)
    losses = [model.fit(obs, actions, next_obs, epochs=3, batch_size=64,
                        rng=np.random.default_rng(7)) for model in (new, ref)]
    assert same_bits(*losses)
    _assert_adam_same(new.optimizer, ref.optimizer)
