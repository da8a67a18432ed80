"""LinkChainBody dynamics invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.envs.physics import BodyConfig, LinkChainBody


def make_body(**kwargs) -> LinkChainBody:
    return LinkChainBody(BodyConfig(**kwargs))


class TestWeights:
    def test_weights_zero_sum(self):
        for n in (2, 3, 6, 8, 17):
            w = BodyConfig(n_joints=n).weights()
            assert abs(w.sum()) < 1e-12, n
            assert abs(np.abs(w).sum() - 1.0) < 1e-12, n

    def test_custom_weights_validated(self):
        with pytest.raises(ValueError):
            LinkChainBody(BodyConfig(n_joints=3, imbalance_weights=np.ones(4)))

    @pytest.mark.parametrize("n_joints", [0, -1])
    def test_jointless_body_rejected(self, n_joints):
        # n_joints=0 used to build a body whose every state was NaN.
        with pytest.raises(ValueError, match="n_joints must be at least 1"):
            BodyConfig(n_joints=n_joints)

    def test_single_joint_body_is_finite(self, rng):
        body = make_body(n_joints=1)
        body.reset(rng)
        for _ in range(20):
            body.step(np.array([0.5]), rng)
        assert np.all(np.isfinite(body.core_state())) and body.healthy

    def test_custom_weights_used(self):
        w = np.array([0.5, -0.5, 0.0])
        body = LinkChainBody(BodyConfig(n_joints=3, imbalance_weights=w))
        np.testing.assert_array_equal(body._w, w)


class TestDynamics:
    def test_action_shape_enforced(self, rng):
        body = make_body(n_joints=3)
        with pytest.raises(ValueError):
            body.step(np.zeros(4), rng)

    def test_symmetric_action_moves_forward(self, rng):
        # speed_coupling off: checks the thrust channel in isolation
        body = make_body(n_joints=3, pitch_noise=0.0, speed_coupling=0.0)
        body.reset(rng)
        for _ in range(100):
            body.step(np.full(3, 0.33))
        assert body.x > 1.0
        assert abs(body.pitch) < 0.2  # zero-sum weights: no tipping torque

    def test_zero_action_stays_put(self, rng):
        body = make_body(n_joints=4, pitch_noise=0.0)
        body.reset(rng)
        for _ in range(50):
            body.step(np.zeros(4))
        assert abs(body.x) < 0.1

    def test_full_torque_is_not_fastest(self, rng):
        """cos(q) leverage: over-extension loses thrust (nontrivial optimum)."""
        def final_x(u):
            body = make_body(n_joints=3, pitch_noise=0.0)
            body.reset(np.random.default_rng(0))
            for _ in range(150):
                body.step(np.full(3, u))
            return body.x
        assert final_x(0.33) > final_x(1.0)

    def test_backward_action_moves_backward(self, rng):
        body = make_body(n_joints=3, pitch_noise=0.0)
        body.reset(rng)
        for _ in range(80):
            body.step(np.full(3, -0.3))
        assert body.x < -0.3

    def test_speed_destabilizes_pitch(self):
        """At cruise speed, the pitch channel has an unstable pole."""
        body = make_body(n_joints=3, pitch_noise=0.0)
        body.reset(np.random.default_rng(0))
        body.v = 1.0
        body.pitch = 0.05
        for _ in range(60):
            body.step(np.full(3, 0.33))
            body.v = 1.0  # hold speed
        assert abs(body.pitch) > 0.3

    def test_stationary_pitch_is_stable(self):
        body = make_body(n_joints=3, pitch_noise=0.0)
        body.reset(np.random.default_rng(0))
        body.pitch = 0.1
        for _ in range(100):
            body.step(np.zeros(3))
        assert abs(body.pitch) < 0.05

    def test_imbalance_channel_controls_pitch(self):
        body = make_body(n_joints=3, pitch_noise=0.0)
        body.reset(np.random.default_rng(0))
        direction = body._w / float(body._w @ body._w)
        for _ in range(30):
            body.step(np.clip(0.5 * direction, -1, 1))
        assert body.pitch > 0.02  # positive w·a tips forward

    def test_height_drops_with_pitch_and_crouch(self):
        body = make_body(n_joints=3)
        body.reset(np.random.default_rng(0))
        z0 = body.z
        body.pitch = 0.3
        body._update_height()
        z_pitched = body.z
        assert z_pitched < z0
        body.q = np.full(3, 1.5)
        body._update_height()
        assert body.z < z_pitched

    def test_healthy_boundaries(self):
        body = make_body(n_joints=3)
        body.reset(np.random.default_rng(0))
        assert body.healthy
        body.pitch = body.config.pitch_max + 0.01
        assert not body.healthy
        body.pitch = 0.0
        body.q = np.full(3, 2.5)  # deep crouch -> z below z_min
        body._update_height()
        assert not body.healthy

    def test_core_state_layout(self, rng):
        body = make_body(n_joints=2)
        body.reset(rng)
        state = body.core_state()
        assert state.shape == (body.core_dim,) == (8,)
        assert state[0] == body.z
        assert state[1] == body.pitch
        np.testing.assert_array_equal(state[2:4], body.q)
        assert state[4] == body.v
        assert state[5] == body.pitch_dot
        np.testing.assert_array_equal(state[6:8], body.qd)

    def test_noise_requires_rng(self):
        body = make_body(n_joints=3, pitch_noise=5.0)
        body.reset(np.random.default_rng(0))
        pitch0 = body.pitch
        body.step(np.zeros(3), rng=None)  # no rng -> deterministic
        body2 = make_body(n_joints=3, pitch_noise=5.0)
        body2.reset(np.random.default_rng(0))
        body2.pitch = pitch0
        body2.step(np.zeros(3), rng=None)
        assert body.pitch == body2.pitch


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 10), st.integers(0, 1000))
def test_property_reset_is_healthy_and_near_origin(n_joints, seed):
    body = make_body(n_joints=n_joints)
    body.reset(np.random.default_rng(seed))
    assert body.healthy
    assert body.x == 0.0 and body.v == 0.0
    assert abs(body.pitch) < 0.1


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 100))
def test_property_actions_clipped(seed):
    """Huge actions behave exactly like clipped ones."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-5, 5, size=3)
    b1 = make_body(n_joints=3, pitch_noise=0.0)
    b2 = make_body(n_joints=3, pitch_noise=0.0)
    b1.reset(np.random.default_rng(seed))
    b2.reset(np.random.default_rng(seed))
    b1.step(a)
    b2.step(np.clip(a, -1, 1))
    assert b1.x == b2.x and b1.pitch == b2.pitch
