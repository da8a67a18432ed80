"""White-box gradient attack baselines (PGD family, strategic timing)."""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro import envs
from repro.attacks import CriticPgdAttack, PgdAttack, StrategicallyTimedAttack
from repro.eval import evaluate_single_agent


class TestPgdAttack:
    def test_output_in_unit_cube(self, tiny_victim, rng):
        attack = PgdAttack(tiny_victim, steps=3)
        obs = rng.standard_normal(11)
        delta = attack.action(obs)
        assert delta.shape == (11,)
        assert np.abs(delta).max() <= 1.0 + 1e-12

    def test_shifts_victim_action(self, tiny_victim, rng):
        """The PGD direction should shift the victim more than noise does."""
        from repro import nn
        attack = PgdAttack(tiny_victim, steps=5, seed=0)
        obs = rng.standard_normal(11)
        eps = 0.5
        delta = attack.action(obs)
        with nn.no_grad():
            base = tiny_victim.distribution(obs).mean.data
            pgd = tiny_victim.distribution(obs + eps * delta).mean.data
            noise = tiny_victim.distribution(
                obs + eps * rng.uniform(-1, 1, 11)).mean.data
        # tiny 2-iteration victims have nearly flat policies; require only
        # that the PGD direction is competitive with random noise
        assert np.linalg.norm(pgd - base) >= 0.2 * np.linalg.norm(noise - base)

    def test_leaves_no_victim_gradients(self, tiny_victim, rng):
        PgdAttack(tiny_victim, steps=2).action(rng.standard_normal(11))
        assert all(p.grad is None for p in tiny_victim.parameters())

    def test_usable_in_harness(self, tiny_victim):
        attack = PgdAttack(tiny_victim, steps=2, seed=0)
        ev = evaluate_single_agent(envs.make("Hopper-v0"), tiny_victim, attack,
                                   epsilon=0.3, episodes=2, seed=5)
        assert len(ev.episode_rewards) == 2


class TestCriticPgd:
    def test_decreases_value_estimate(self, tiny_victim, rng):
        from repro import nn
        attack = CriticPgdAttack(tiny_victim, steps=5, seed=0)
        obs = rng.standard_normal(11)
        eps = 0.5
        delta = attack.action(obs)
        with nn.no_grad():
            v_clean = float(tiny_victim.critic(obs).data.item())
            v_adv = float(tiny_victim.critic(obs + eps * delta).data.item())
        assert v_adv <= v_clean + 1e-6


class TestStrategicTiming:
    def test_fraction_validated(self, tiny_victim):
        with pytest.raises(ValueError):
            StrategicallyTimedAttack(tiny_victim, PgdAttack(tiny_victim),
                                     attack_fraction=0.0)

    def test_attacks_only_critical_steps(self, tiny_victim, rng):
        inner = PgdAttack(tiny_victim, steps=1, seed=0)
        calib = rng.standard_normal((200, 11))
        timed = StrategicallyTimedAttack(tiny_victim, inner, attack_fraction=0.3,
                                         calibration_obs=calib)
        actions = np.array([timed.action(o) for o in calib])
        active = (np.abs(actions).max(axis=1) > 0).mean()
        assert 0.05 <= active <= 0.6  # roughly the configured fraction

    def test_zero_below_threshold(self, tiny_victim):
        inner = PgdAttack(tiny_victim, steps=1, seed=0)
        timed = StrategicallyTimedAttack(tiny_victim, inner, attack_fraction=0.5)
        timed._threshold = np.inf
        np.testing.assert_array_equal(timed.action(np.zeros(11)), np.zeros(11))


class TestRendering:
    def test_locomotion_trace(self):
        from repro.eval import render_locomotion_trace
        out = render_locomotion_trace([1.0, 1.1, 1.0, 0.8], [0.0, 0.2, -0.2, 0.5],
                                      fell=True)
        assert "FELL" in out and "X" in out

    def test_empty_trace(self):
        from repro.eval import render_locomotion_trace
        assert "empty" in render_locomotion_trace([], [], fell=False)

    def test_arena(self):
        from repro.eval import render_arena
        out = render_arena(
            {"r": [np.array([0.0, 0.0]), np.array([1.0, 1.0])],
             "b": [np.array([-1.0, -1.0])]},
            bounds=(-2, 2, -2, 2), events={"X": np.array([1.0, 1.0])})
        assert "r" in out and "b" in out and "X" in out

    def test_arena_rejects_long_glyph(self):
        from repro.eval import render_arena
        with pytest.raises(ValueError):
            render_arena({"ab": [np.zeros(2)]}, bounds=(-1, 1, -1, 1))


class TestMultiSeed:
    def test_outcome_selects_best(self):
        from repro.eval.harness import AttackEvaluation
        from repro.experiments.multiseed import MultiSeedOutcome

        outcome = MultiSeedOutcome(attack="imap-r")
        for reward in (5.0, 1.0, 3.0):
            ev = AttackEvaluation(episode_rewards=[reward],
                                  episode_successes=[False], episode_lengths=[1])
            outcome.evaluations.append(ev)
            outcome.results.append(None)
        assert outcome.best_index == 1
        assert outcome.best.mean_reward == 1.0
        assert outcome.median_reward == 3.0
        assert outcome.seed_spread == 4.0


def _dead_victim(victim):
    """A copy of ``victim`` whose actor and critic output weights are zero.

    Its action mean and value no longer depend on the observation, so
    every input gradient is exactly zero: the PGD steps would go nowhere
    and leave the attack at its random initialization.
    """
    dead = copy.deepcopy(victim)
    for head in (dead.actor, dead.critic):
        head.output.weight.data[...] = 0.0
    return dead


class TestDeadGraphDetection:
    """A zero input gradient must raise, not silently no-op (bugfix)."""

    def test_pgd_raises_on_detached_graph(self, tiny_victim, rng):
        attack = PgdAttack(_dead_victim(tiny_victim), steps=3, seed=0)
        with pytest.raises(RuntimeError, match="zero or absent input gradient"):
            attack.action(rng.standard_normal(11))

    def test_critic_pgd_raises_on_detached_graph(self, tiny_victim, rng):
        attack = CriticPgdAttack(_dead_victim(tiny_victim), steps=3, seed=0)
        with pytest.raises(RuntimeError, match="zero or absent input gradient"):
            attack.action(rng.standard_normal(11))

    def test_dead_graph_counter_fires(self, tiny_victim, rng):
        from repro.telemetry import Telemetry, use_telemetry

        telemetry = Telemetry.in_memory()
        attack = PgdAttack(_dead_victim(tiny_victim), steps=2, seed=0)
        with use_telemetry(telemetry):
            with pytest.raises(RuntimeError):
                attack.action(rng.standard_normal(11))
        assert telemetry.metrics.counter("attacks.pgd.dead_graph").value == 1

    def test_live_graph_unaffected(self, tiny_victim, rng):
        """The guard must not fire when gradients flow normally."""
        delta = PgdAttack(tiny_victim, steps=3, seed=0).action(
            rng.standard_normal(11))
        assert np.abs(delta).max() <= 1.0 + 1e-12


class TestLazySelfCalibration:
    """Uncalibrated STA must track attack_fraction, not attack 100% (bugfix)."""

    def test_attack_rate_tracks_fraction(self, tiny_victim, rng):
        inner = PgdAttack(tiny_victim, steps=1, seed=0)
        timed = StrategicallyTimedAttack(tiny_victim, inner, attack_fraction=0.3,
                                         calibration_steps=128)
        obs = rng.standard_normal((600, 11))
        actions = np.array([timed.action(o) for o in obs])
        active = (np.abs(actions).max(axis=1) > 0).mean()
        assert 0.1 <= active <= 0.5  # ~attack_fraction, NOT ~1.0
        assert timed.threshold is not None

    def test_calibration_recorded_for_reproducibility(self, tiny_victim, rng):
        inner = PgdAttack(tiny_victim, steps=1, seed=0)
        timed = StrategicallyTimedAttack(tiny_victim, inner, attack_fraction=0.3,
                                         calibration_steps=16)
        assert timed.calibration is None
        for o in rng.standard_normal((16, 11)):
            timed.action(o)
        assert timed.calibration == {
            "threshold": timed.threshold,
            "n_obs": 16,
            "attack_fraction": 0.3,
            "source": "lazy",
        }

    def test_explicit_calibration_recorded(self, tiny_victim, rng):
        inner = PgdAttack(tiny_victim, steps=1, seed=0)
        timed = StrategicallyTimedAttack(tiny_victim, inner, attack_fraction=0.3,
                                         calibration_obs=rng.standard_normal((32, 11)))
        assert timed.calibration["source"] == "explicit"
        assert timed.calibration["n_obs"] == 32

    def test_calibration_steps_validated(self, tiny_victim):
        with pytest.raises(ValueError):
            StrategicallyTimedAttack(tiny_victim, PgdAttack(tiny_victim),
                                     calibration_steps=0)
