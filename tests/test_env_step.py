"""The per-step hot path is bit-identical to its plain-numpy reference.

``LinkChainBody.step``, ``LocomotionEnv.step``/``_observe``,
``ObservationNormalizer.__call__`` and ``project_perturbation`` skip
numpy's Python wrappers (``np.clip``, ``np.mean``, ``np.concatenate``)
and reuse work within a step.  They must return exactly the bytes, and
the Python types, that the implementations kept below as references
return: observation, reward, flags and every ``info`` value, for every
dense and sparse locomotion task, under actions outside [-1, 1], NaN,
±inf and -0.0.  The normalizer's cached std must follow every
assignment to ``rms.var`` and survive pickles written before the cache.
"""

from __future__ import annotations

import copyreg
import io
import pickle
import types

import numpy as np
import pytest

from repro.attacks import project_perturbation
from repro.envs.locomotion import LOCOMOTION_CONFIGS, LocomotionEnv
from repro.envs.physics import BodyConfig, LinkChainBody
from repro.envs.sparse import (SparseAntEnv, SparseHalfCheetahEnv, SparseHopperEnv,
                               SparseHumanoidEnv, SparseHumanoidStandupEnv,
                               SparseWalker2dEnv)
from repro.rl import ObservationNormalizer, RunningMeanStd

STEPS = 4_000
EPISODE = 200
SPARSE = {
    "SparseHopper": SparseHopperEnv, "SparseWalker2d": SparseWalker2dEnv,
    "SparseHalfCheetah": SparseHalfCheetahEnv, "SparseAnt": SparseAntEnv,
    "SparseHumanoid": SparseHumanoidEnv, "SparseHumanoidStandup": SparseHumanoidStandupEnv,
}


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def same_value(a, b) -> bool:
    """Same Python type and the same bits."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return same_bits(a, b)
    if isinstance(a, (float, np.floating)):
        return np.float64(a).tobytes() == np.float64(b).tobytes()
    return a == b


# ------------------------------------------------------- reference hot path


def reference_update_height(body: LinkChainBody) -> None:
    c = body.config
    crouch = float(np.mean(1.0 - np.cos(body.q))) if c.n_joints else 0.0
    body.z = c.z_rest - c.height_sag * (1.0 - np.cos(body.pitch)) - c.crouch_sag * crouch


def reference_body_step(body: LinkChainBody, action, rng=None) -> None:
    """``LinkChainBody.step`` through np.clip, np.mean and a second cos."""
    c = body.config
    a = np.clip(np.asarray(action, dtype=np.float64), -1.0, 1.0)
    if a.shape != (c.n_joints,):
        raise ValueError(f"action must have shape ({c.n_joints},), got {a.shape}")

    qdd = c.torque_gain * a - c.joint_damping * body.qd - c.joint_stiffness * body.q
    body.qd = body.qd + c.dt * qdd
    body.q = body.q + c.dt * body.qd

    efficiency = float(np.clip(np.mean(np.cos(body.q)), 0.0, 1.0))
    thrust = c.drive_gain * float(np.mean(a)) * efficiency
    body.v = body.v + c.dt * (thrust - c.drag * body.v)
    body.x = body.x + c.dt * body.v

    noise = float(rng.standard_normal()) * c.pitch_noise if rng is not None else 0.0
    pitch_acc = (
        c.imbalance_gain * float(body._w @ a)
        - c.pitch_stiffness * body.pitch
        + c.tip_gain * np.sin(body.pitch)
        - c.pitch_damping * body.pitch_dot
        + c.speed_coupling * body.v * body.pitch
        + noise
    )
    body.pitch_dot = body.pitch_dot + c.dt * pitch_acc
    body.pitch = body.pitch + c.dt * body.pitch_dot
    reference_update_height(body)


def reference_observe(env: LocomotionEnv) -> np.ndarray:
    body = env.body
    core = np.concatenate(([body.z, body.pitch], body.q, [body.v, body.pitch_dot], body.qd))
    if env._projection is None:
        return core
    pad = np.tanh(core @ env._projection)
    return np.concatenate([core, pad])


def reference_env_step(env: LocomotionEnv, action):
    """``LocomotionEnv.step`` clipping twice and reading ``healthy`` twice."""
    cfg = env.config
    action = np.clip(np.asarray(action, dtype=np.float64), -1.0, 1.0)
    reference_body_step(env.body, action, rng=env.np_random)

    if cfg.standup:
        progress = (env.body.z - env._prev_z) / cfg.body.dt
        env._prev_z = env.body.z
    else:
        progress = env.body.v
    ctrl_cost = cfg.ctrl_cost_weight * float(np.mean(action**2))
    reward = cfg.forward_reward_weight * progress + cfg.alive_bonus - ctrl_cost

    terminated = cfg.terminate_unhealthy and not env.body.healthy
    success = False
    if not terminated and not env._succeeded and env._success_now():
        success = True
        env._succeeded = True

    info = {
        "success": success,
        "x_position": env.body.x,
        "forward_velocity": env.body.v,
        "height": env.body.z,
        "pitch": env.body.pitch,
        "healthy": env.body.healthy,
    }
    return reference_observe(env), reward, terminated, False, info


def reference_normalize(normalizer: ObservationNormalizer, obs, update: bool = True):
    obs = np.asarray(obs, dtype=np.float64)
    if update and not normalizer.frozen:
        normalizer.rms.update(obs)
    std = np.sqrt(normalizer.rms.var + 1e-8)
    return np.clip((obs - normalizer.rms.mean) / std, -normalizer.clip, normalizer.clip)


def reference_project(raw, epsilon: float) -> np.ndarray:
    return epsilon * np.clip(np.asarray(raw, dtype=np.float64), -1.0, 1.0)


# ---------------------------------------------------------------- the twins


def make_pair(task: str):
    """(env, reference twin); the twin's locomotion step is the reference."""
    if task in SPARSE:
        env, twin = SPARSE[task](), SPARSE[task]()
        twin._inner.step = types.MethodType(reference_env_step, twin._inner)
        return env, twin.step, twin
    env = LocomotionEnv(LOCOMOTION_CONFIGS[task])
    twin = LocomotionEnv(LOCOMOTION_CONFIGS[task])
    return env, (lambda action: reference_env_step(twin, action)), twin


def hostile_actions(n_joints: int, seed: int) -> np.ndarray:
    """Mostly in-range actions, 1 in 4 beyond [-1, 1], with NaN, ±inf, -0.0."""
    rng = np.random.default_rng(seed)
    actions = rng.uniform(-1.0, 1.0, (STEPS, n_joints))
    actions[::4] *= 2.5
    specials = np.array([np.nan, -np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0, -1.0])
    mask = rng.random(actions.shape) < 0.01
    actions[mask] = rng.choice(specials, size=int(mask.sum()))
    actions[rng.random(STEPS) < 0.002] = np.nan  # the whole row
    return actions


@pytest.mark.parametrize("task", [*LOCOMOTION_CONFIGS, *SPARSE])
def test_step_matches_reference(task):
    env, reference_step, twin = make_pair(task)
    n_joints = env.action_space.shape[0]
    actions = hostile_actions(n_joints, seed=len(task))
    episode, seed = 0, 0
    assert same_bits(env.reset(seed=seed), twin.reset(seed=seed))
    with np.errstate(invalid="ignore"):
        for action in actions:
            got = env.step(action)
            want = reference_step(action)
            obs, reward, terminated, truncated, info = got
            assert same_bits(obs, want[0]), task
            for value, ref in zip(got[1:4], want[1:4]):
                assert same_value(value, ref), (task, value, ref)
            assert list(info) == list(want[4])
            for key, value in info.items():
                assert same_value(value, want[4][key]), (task, key, value, want[4][key])
            episode += 1
            if terminated or truncated or episode == EPISODE:
                seed, episode = seed + 1, 0
                assert same_bits(env.reset(seed=seed), twin.reset(seed=seed))


def test_observation_is_fresh_each_step():
    env = LocomotionEnv(LOCOMOTION_CONFIGS["Hopper"])
    first = env.reset(seed=0)
    kept = first.copy()
    second = env.step(np.zeros(3))[0]
    assert second is not first and not np.shares_memory(first, second)
    assert same_bits(first, kept)


def test_body_step_matches_reference_without_rng():
    body, twin = LinkChainBody(BodyConfig(n_joints=17)), LinkChainBody(BodyConfig(n_joints=17))
    rng = np.random.default_rng(5)
    body.reset(rng)
    twin.reset(np.random.default_rng(5))
    for action in hostile_actions(17, seed=9)[:500]:
        with np.errstate(invalid="ignore"):
            applied = body.step(action)
            reference_body_step(twin, action)
        assert same_bits(applied, np.clip(action, -1.0, 1.0))
        assert same_bits(body.core_state(), twin.core_state())
        assert same_value(body.z, twin.z) and same_value(body.x, twin.x)


@pytest.mark.parametrize("shape", [(4,), (2,), (3, 1), (1, 3), ()])
def test_wrong_shape_action_raises(shape):
    body = LinkChainBody(BodyConfig(n_joints=3))
    with pytest.raises(ValueError, match="action must have shape"):
        body.step(np.zeros(shape))
    env = LocomotionEnv(LOCOMOTION_CONFIGS["Hopper"])
    env.reset(seed=0)
    with pytest.raises(ValueError, match="action must have shape"):
        env.step(np.zeros(shape))
    sparse = SparseHopperEnv()
    sparse.reset(seed=0)
    with pytest.raises(ValueError, match="action must have shape"):
        sparse.step(np.zeros(shape))


# ----------------------------------------------------------- normalizer, ε


def test_normalizer_matches_reference_through_update_and_freeze():
    env = LocomotionEnv(LOCOMOTION_CONFIGS["Walker2d"])
    rows = [env.reset(seed=0)]
    actions = hostile_actions(6, seed=1)[:1_500]
    for action in actions:
        with np.errstate(invalid="ignore"):
            obs, _, terminated, _, _ = env.step(action)
        rows.append(obs)
        if terminated:
            rows.append(env.reset(seed=len(rows)))
    rows = np.array(rows)
    rows[::37, 3] = np.inf
    rows[::53, 5] = -0.0
    normalizer, ref = ObservationNormalizer((17,)), ObservationNormalizer((17,))
    with np.errstate(invalid="ignore"):
        for i, row in enumerate(rows[:-300]):
            update = i % 7 != 3
            assert same_bits(normalizer(row, update=update), reference_normalize(ref, row, update))
            assert same_bits(normalizer.rms.var, ref.rms.var)
    for norm in (normalizer, ref):
        norm.rms.load(ObservationNormalizer((17,)).rms.state())
        norm(rows[0])
    normalizer.freeze()
    ref.freeze()
    for row in rows[-300:]:
        assert same_bits(normalizer(row), reference_normalize(ref, row))


def test_project_perturbation_matches_reference():
    rng = np.random.default_rng(4)
    raw = rng.standard_normal((2_000, 11)) * 1.5
    raw[rng.random(raw.shape) < 0.02] = np.nan
    raw[::11, 0] = np.inf
    raw[::13, 1] = -np.inf
    raw[::17, 2] = -0.0
    raw[::19, 3] = -np.nan
    for row in raw:
        for epsilon in (0.6, 0.075):
            assert same_bits(project_perturbation(row, epsilon), reference_project(row, epsilon))
            assert same_bits(project_perturbation(list(row), epsilon),
                             reference_project(row, epsilon))


def cached_std_is_current(rms: RunningMeanStd) -> bool:
    return same_bits(rms.std, np.sqrt(rms.var + 1e-8))


def test_std_cache_follows_every_var_assignment():
    rms = RunningMeanStd((3,))
    assert cached_std_is_current(rms)
    first = rms.std
    assert rms.std is first  # reused while var is unchanged
    rms.var = np.array([4.0, 9.0, 0.25])
    assert cached_std_is_current(rms)
    rms.update(np.array([1.0, -2.0, 3.0]))
    assert cached_std_is_current(rms)
    rms.update(np.random.default_rng(0).standard_normal((5, 3)))
    assert cached_std_is_current(rms)
    rms.load({"mean": np.zeros(3), "var": np.full(3, 16.0), "count": np.array(3.0)})
    assert same_bits(rms.std, np.sqrt(np.full(3, 16.0) + 1e-8))
    rms.var += 1.0  # an augmented assignment rebinds through the setter too
    assert cached_std_is_current(rms)


def test_normalizer_updates_after_freeze_and_load():
    normalizer = ObservationNormalizer((2,))
    normalizer(np.array([1.0, 2.0]))
    normalizer.freeze()
    frozen = normalizer(np.array([3.0, -1.0]))
    assert same_bits(frozen, normalizer(np.array([3.0, -1.0])))
    normalizer.load({"mean": np.array([1.0, 1.0]), "var": np.array([4.0, 0.25]),
                     "count": np.array(10.0)})
    assert same_bits(normalizer(np.array([3.0, -1.0])),
                     np.clip((np.array([3.0, -1.0]) - 1.0) / np.sqrt(np.array([4.0, 0.25]) + 1e-8),
                             -10.0, 10.0))
    normalizer.frozen = False
    ref = ObservationNormalizer((2,))
    ref.load(normalizer.state())
    for row in np.random.default_rng(3).standard_normal((20, 2)):
        assert same_bits(normalizer(row), reference_normalize(ref, row))
    normalizer.rms.update(np.array([5.0, 5.0]))
    assert cached_std_is_current(normalizer.rms)


# ----------------------------------------------------------------- pickles


class PreCachePickler(pickle.Pickler):
    """Pickles ``RunningMeanStd`` as the default reduction did before the
    std cache: ``NEWOBJ`` plus the instance ``__dict__``."""

    def reducer_override(self, obj):
        if type(obj) is RunningMeanStd:
            state = {"mean": obj.mean, "var": obj.var, "count": obj.count}
            return copyreg.__newobj__, (RunningMeanStd,), state
        return NotImplemented


def pre_cache_dumps(obj, protocol: int) -> bytes:
    buffer = io.BytesIO()
    PreCachePickler(buffer, protocol).dump(obj)
    return buffer.getvalue()


def fitted_normalizer() -> ObservationNormalizer:
    normalizer = ObservationNormalizer((3,))
    for row in ([1.0, 2.0, 3.0], [0.5, -1.0, 4.0], [2.0, 0.0, -2.0]):
        normalizer(np.array(row))
    normalizer.freeze()
    return normalizer


# ``pickle.dumps(fitted_normalizer(), protocol=4)`` written by the
# normalizer before the std cache (numpy 2.x), and what it normalized
# ``[0.25, 1.0, -3.0]`` to.
PRE_CACHE_PICKLE = bytes.fromhex(
    "80049569010000000000008c12726570726f2e726c2e6e6f726d616c697a65948c154f62"
    "736572766174696f6e4e6f726d616c697a65729493942981947d94288c03726d73946800"
    "8c0e52756e6e696e674d65616e5374649493942981947d94288c046d65616e948c166e75"
    "6d70792e5f636f72652e6d756c74696172726179948c0c5f7265636f6e73747275637494"
    "93948c056e756d7079948c076e6461727261799493944b0085944301629487945294284b"
    "014b038594680e8c0564747970659493948c02663894898887945294284b038c013c944e"
    "4e4e4affffffff4affffffff4b0074946289431833a6dbe381aaf23fa62b44bb2655d53f"
    "9136156a70aafa3f947494628c0376617294680d68104b008594681287945294284b014b"
    "038594681a894318b9c07ef1a1e4d83f45af2ab07ee3f83fee8524b41d8e1b4094749462"
    "8c05636f756e749447400800346dc5d63875628c04636c6970944740240000000000008c"
    "0666726f7a656e948875622e"
)
PRE_CACHE_OUTPUT = bytes.fromhex("76acd5d21884f7bfc4dba3e9e61ae13fc4e567d4a972fcbf")


def test_pickles_keep_the_pre_cache_layout():
    normalizer = fitted_normalizer()
    normalizer(np.zeros(3))  # fill the cache; it is not pickled
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.dumps(normalizer, protocol) == pre_cache_dumps(normalizer, protocol)


@pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
def test_pre_cache_pickle_normalizes_to_the_same_bits(protocol):
    normalizer = fitted_normalizer()
    loaded = pickle.loads(pre_cache_dumps(normalizer, protocol))
    assert type(loaded.rms) is RunningMeanStd
    row = np.array([0.25, 1.0, -3.0])
    assert same_bits(loaded(row), normalizer(row))
    assert same_bits(loaded.rms.std, normalizer.rms.std)
    loaded.frozen = normalizer.frozen = False
    assert same_bits(loaded(row), normalizer(row))  # an update invalidates both
    assert cached_std_is_current(loaded.rms)


@pytest.mark.skipif(not hasattr(np, "_core"), reason="the pickle names numpy._core")
def test_pickle_written_before_the_cache_loads():
    loaded = pickle.loads(PRE_CACHE_PICKLE)
    assert loaded(np.array([0.25, 1.0, -3.0]), update=False).tobytes() == PRE_CACHE_OUTPUT
    assert pickle.dumps(loaded, protocol=4) == PRE_CACHE_PICKLE
