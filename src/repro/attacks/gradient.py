"""White-box gradient-based evasion baselines (paper Section 2 /
Appendix A related work).

These are the FGSM-family attacks the adversarial-policy literature
compares against.  They *break the black-box threat model* (they need
the victim's parameters for input gradients) and are provided as upper
reference points and for building ATLA-style curricula:

* :class:`PgdAttack` — per-step projected gradient descent maximizing
  the KL shift of the victim's action distribution (Zhang et al.'s
  "Maximal Action Difference" flavour);
* :class:`CriticPgdAttack` — PGD minimizing the victim's own value
  estimate (Pattanaik-style);
* :class:`StrategicallyTimedAttack` — Lin et al.'s timing heuristic:
  spend the budget only on steps where the victim's action preference
  is strong.
"""

from __future__ import annotations

import numpy as np

from ..rl.policy import ActorCritic
from ..telemetry import current_telemetry

__all__ = ["PgdAttack", "CriticPgdAttack", "StrategicallyTimedAttack"]


def _raise_dead_graph(attack, steps: int) -> None:
    """Record and refuse an attack whose every PGD step had zero gradient.

    An all-zero input gradient is a silent no-op one ``np.sign`` later:
    the PGD step goes nowhere (a victim whose output layer is zero, or
    whose units all saturate, has no usable gradient).  Returning the
    random init here would make the "adversarial" evaluation really
    measure noise while reporting PGD results.  The counter fires before
    the raise so sweep telemetry shows dead-graph matches even when a
    caller swallows the exception.
    """
    telemetry = current_telemetry()
    if telemetry is not None:
        telemetry.metrics.counter("attacks.pgd.dead_graph").inc()
    raise RuntimeError(
        f"{type(attack).__name__}: all {steps} PGD steps produced a zero or "
        "absent input gradient — the victim's objective does not respond to "
        "the perturbed observation, so the attack would silently degenerate "
        "to its random initialization while still reporting adversarial "
        "results")


def _pgd(attack, obs: np.ndarray, input_gradient, sign: float) -> np.ndarray:
    """Signed-gradient PGD in units of the budget, from a random start.

    ``input_gradient(x)`` is the objective's gradient at ``x``; ``sign``
    is +1.0 to ascend it and -1.0 to descend.  The victim's parameter
    grads are cleared (nothing here sets them, but callers may hold
    stale ones from training).
    """
    attack.victim.zero_grad()
    delta = attack._rng.uniform(-0.25, 0.25, size=obs.shape)
    live_steps = 0
    for _ in range(attack.steps):
        grad = input_gradient(obs + delta)
        live_steps += bool(np.any(grad))
        delta = np.clip(delta + sign * attack.step_size * np.sign(grad), -1.0, 1.0)
    if attack.steps > 0 and live_steps == 0:
        _raise_dead_graph(attack, attack.steps)
    return delta


class PgdAttack:
    """PGD on KL(π(s) ‖ π(s+δ)) — maximally shift the victim's action."""

    def __init__(self, victim: ActorCritic, steps: int = 5, step_size: float = 0.5,
                 seed: int = 0):
        self.victim = victim
        self.steps = steps
        self.step_size = step_size
        self._rng = np.random.default_rng(seed)

    def action(self, obs: np.ndarray, rng: np.random.Generator | None = None,
               deterministic: bool = True) -> np.ndarray:
        """Return a raw action in [-1, 1]^d (the env scales it into the ε-ball).

        The inner PGD works in units of the budget: δ_raw accumulates in
        [-1, 1] and the threat model multiplies by ε.
        """
        anchor_mean = self.victim.actor.infer(obs)
        return _pgd(self, obs, lambda x: self.victim.kl_input_gradient(anchor_mean, x),
                    sign=1.0)


class CriticPgdAttack:
    """PGD minimizing the victim's value estimate V(s+δ)."""

    def __init__(self, victim: ActorCritic, steps: int = 5, step_size: float = 0.5,
                 seed: int = 0):
        self.victim = victim
        self.steps = steps
        self.step_size = step_size
        self._rng = np.random.default_rng(seed)

    def action(self, obs: np.ndarray, rng: np.random.Generator | None = None,
               deterministic: bool = True) -> np.ndarray:
        return _pgd(self, obs, self.victim.value_input_gradient, sign=-1.0)


class StrategicallyTimedAttack:
    """Attack only at "critical" steps (Lin et al., 2017).

    Criticality is measured by the victim's action-preference strength
    ‖μ(s)‖∞: when the victim is about to act decisively, a perturbation
    is most damaging.  The budget is spent on the top fraction of steps.

    The threshold comes from :meth:`calibrate` when ``calibration_obs``
    is given.  Without it the attack **self-calibrates lazily**: the
    first ``calibration_steps`` observations it sees (roughly one
    episode) double as the calibration sample, with the running quantile
    deciding attack/skip in the meantime, and the threshold freezing —
    recorded in :attr:`calibration` — once the sample is full.  The old
    behaviour (an uncalibrated instance defaulted its threshold to 0.0,
    below every preference ``‖μ(s)‖∞ ≥ 0``) silently attacked on 100% of
    steps instead of ``attack_fraction``.
    """

    def __init__(self, victim: ActorCritic, inner_attack, attack_fraction: float = 0.3,
                 calibration_obs: np.ndarray | None = None,
                 calibration_steps: int = 128):
        if not 0.0 < attack_fraction <= 1.0:
            raise ValueError("attack_fraction must be in (0, 1]")
        if calibration_steps < 1:
            raise ValueError("calibration_steps must be >= 1")
        self.victim = victim
        self.inner = inner_attack
        self.attack_fraction = attack_fraction
        self.calibration_steps = int(calibration_steps)
        self._threshold: float | None = None
        self._warmup_prefs: list[float] = []
        # Provenance of the active threshold (for reproducibility records):
        # {"threshold", "n_obs", "attack_fraction", "source"} once set.
        self.calibration: dict | None = None
        if calibration_obs is not None:
            self.calibrate(calibration_obs)

    @property
    def threshold(self) -> float | None:
        """The frozen criticality threshold; None while still calibrating."""
        return self._threshold

    def preference(self, obs: np.ndarray) -> float:
        return float(np.abs(self.victim.actor.infer(obs)).max())

    def _freeze_threshold(self, prefs, source: str) -> float:
        prefs = np.asarray(prefs, dtype=np.float64)
        self._threshold = float(np.quantile(prefs, 1.0 - self.attack_fraction))
        self.calibration = {
            "threshold": self._threshold,
            "n_obs": int(prefs.size),
            "attack_fraction": self.attack_fraction,
            "source": source,
        }
        return self._threshold

    def calibrate(self, observations: np.ndarray) -> float:
        """Set the criticality threshold from a batch of (normalized) obs."""
        prefs = [self.preference(o) for o in np.atleast_2d(observations)]
        return self._freeze_threshold(prefs, source="explicit")

    def action(self, obs: np.ndarray, rng: np.random.Generator | None = None,
               deterministic: bool = True) -> np.ndarray:
        pref = self.preference(obs)
        if self._threshold is None:
            # Lazy self-calibration: this observation joins the sample,
            # and the running quantile stands in for the threshold so
            # the attack rate tracks attack_fraction even mid-warmup.
            self._warmup_prefs.append(pref)
            if len(self._warmup_prefs) >= self.calibration_steps:
                threshold = self._freeze_threshold(self._warmup_prefs,
                                                   source="lazy")
                self._warmup_prefs = []
            else:
                threshold = float(np.quantile(self._warmup_prefs,
                                              1.0 - self.attack_fraction))
        else:
            threshold = self._threshold
        if pref < threshold:
            return np.zeros_like(obs)
        return self.inner.action(obs, rng, deterministic=deterministic)
