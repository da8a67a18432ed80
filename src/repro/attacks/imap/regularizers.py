"""The four adversarial intrinsic regularizers (Section 5.2).

Each regularizer turns the Frank–Wolfe gradient of its objective
``J_I(d^π)`` (Eq. 13) into a per-step intrinsic bonus, estimated with
KNN state density over the fresh buffer ``D`` (current iteration) and
the union buffer ``B`` (all iterations):

* **SC**  — ``∇(−Σ d ln d) ∝ −ln d(s)`` → bonus ``ln dist_D(s)``
* **PC**  — ``∇(Σ √(d/ρ)) ∝ 1/√(d·ρ)`` → bonus ``√(dist_D(s)·dist_B(s))``
* **R**   — bonus ``−‖Π_{S^v}(s) − s^{v(α)}‖`` (no density needed)
* **D**   — bonus ``KL(π^α(·|s), π^{α,m}(·|s))`` against a mimic policy

Multi-agent variants (Eq. 7/9) mix the adversary-space and victim-space
bonuses with weight ξ.
"""

from __future__ import annotations

import numpy as np

from ...density import IncrementalKnnIndex, UnionStateBuffer
from ...nn import gaussian_kl
from ...rl.health import check_finite
from ...rl.policy import ActorCritic
from ..base import AdversaryRollout, AttackConfig
from .mimic import MimicPolicy

__all__ = [
    "IntrinsicRegularizer",
    "StateCoverageRegularizer",
    "PolicyCoverageRegularizer",
    "RiskRegularizer",
    "DivergenceRegularizer",
    "make_regularizer",
    "REGULARIZER_NAMES",
]

REGULARIZER_NAMES = ("sc", "pc", "r", "d")


class IntrinsicRegularizer:
    """Interface: per-rollout intrinsic bonuses + buffer bookkeeping."""

    def __init__(self, config: AttackConfig, multi_agent: bool = False):
        self.config = config
        self.multi_agent = multi_agent

    def compute(self, rollout: AdversaryRollout, policy: ActorCritic) -> np.ndarray:
        raise NotImplementedError

    def after_update(self, rollout: AdversaryRollout, policy: ActorCritic) -> None:
        """Called once per iteration after the PPO update."""

    def state_dict(self) -> dict:
        """Resumable snapshot of the regularizer's cross-iteration state.

        Stateless regularizers (SC) return ``{}``; stateful ones override
        to capture their buffers so a resumed attack run stays
        bit-identical to an uninterrupted one.
        """
        return {}

    def load_state_dict(self, state: dict) -> None:
        if state:
            raise ValueError(f"{type(self).__name__} has no state to load: "
                             f"{sorted(state)}")

    # ------------------------------------------------------------- utilities

    def _checked(self, bonus: np.ndarray) -> np.ndarray:
        """Health guard on the computed bonus: NaN/Inf here (degenerate
        KNN distances, exploding mimic KL) would otherwise poison the
        intrinsic advantages and every checkpoint after them."""
        return check_finite(f"{type(self).__name__}.bonus", bonus)

    def _mix(self, adversary_bonus: np.ndarray, victim_bonus: np.ndarray) -> np.ndarray:
        """ξ-weighted mixture of the two projection spaces (Eq. 7/9)."""
        if not self.multi_agent:
            return adversary_bonus
        xi = self.config.xi
        return (1.0 - xi) * adversary_bonus + xi * victim_bonus


class StateCoverageRegularizer(IntrinsicRegularizer):
    """SC-driven: maximize the entropy of the current state distribution."""

    def _bonus(self, features: np.ndarray) -> np.ndarray:
        # Fresh buffer D changes wholesale every iteration, so this index
        # is throwaway — the win here is the chunked query path.
        index = IncrementalKnnIndex.over(features)
        distances = index.query(features, self.config.knn_k, exclude_self=True)
        return np.log(distances + 1.0)

    def compute(self, rollout: AdversaryRollout, policy: ActorCritic) -> np.ndarray:
        adversary = self._bonus(rollout.knn_adversary)
        if not self.multi_agent:
            return self._checked(adversary)
        return self._checked(self._mix(adversary, self._bonus(rollout.knn_victim)))


class PolicyCoverageRegularizer(IntrinsicRegularizer):
    """PC-driven: visit where the historical coverage ρ = Σ_i d^{π_i} is thin."""

    def __init__(self, config: AttackConfig, multi_agent: bool = False):
        super().__init__(config, multi_agent)
        self._union_adv = UnionStateBuffer(config.union_buffer_capacity, seed=config.seed)
        self._union_vic = UnionStateBuffer(config.union_buffer_capacity, seed=config.seed + 1)
        # Amortized KNN indexes mirroring the union buffers, so compute()
        # never rebuilds the (up to 50k-state) B tree from scratch.
        # background=True: the cKDTree construction triggered by
        # after_update() runs on a worker thread and overlaps the next
        # iteration's rollout collection; compute()'s query joins it, so
        # bonuses stay bit-identical to the synchronous index (the
        # double-buffer property suite in tests/test_density_index.py).
        self._index_adv = IncrementalKnnIndex(background=True)
        self._index_vic = IncrementalKnnIndex(background=True)

    def _bonus(self, features: np.ndarray, index: IncrementalKnnIndex) -> np.ndarray:
        fresh = IncrementalKnnIndex.over(features)
        dist_d = fresh.query(features, self.config.knn_k, exclude_self=True)
        if len(index) == 0:
            dist_b = np.ones_like(dist_d)
        else:
            dist_b = index.query(features, self.config.knn_k)
        return np.sqrt(dist_d * dist_b)

    def compute(self, rollout: AdversaryRollout, policy: ActorCritic) -> np.ndarray:
        adversary = self._bonus(rollout.knn_adversary, self._index_adv)
        if not self.multi_agent:
            bonus = adversary
        else:
            bonus = self._mix(adversary, self._bonus(rollout.knn_victim, self._index_vic))
        return self._checked(bonus)

    @staticmethod
    def _sync(union: UnionStateBuffer, index: IncrementalKnnIndex,
              states: np.ndarray) -> None:
        delta = union.extend(states)
        if delta.append_only:
            index.add(delta.appended)
        else:
            # Reservoir replacement overwrote indexed rows; the index
            # contract is exact, so mirror the buffer wholesale.
            index.reset(union.states)

    def after_update(self, rollout: AdversaryRollout, policy: ActorCritic) -> None:
        # Algorithm 1: B = B ∪ D after the optimizing stage.
        self._sync(self._union_adv, self._index_adv, rollout.knn_adversary)
        if self.multi_agent:
            self._sync(self._union_vic, self._index_vic, rollout.knn_victim)

    def state_dict(self) -> dict:
        return {"union_adv": self._union_adv.state_dict(),
                "union_vic": self._union_vic.state_dict(),
                "index_adv": self._index_adv.state_dict(),
                "index_vic": self._index_vic.state_dict()}

    def load_state_dict(self, state: dict) -> None:
        self._union_adv.load_state_dict(state["union_adv"])
        self._union_vic.load_state_dict(state["union_vic"])
        for key, union, attr in (("index_adv", self._union_adv, "_index_adv"),
                                 ("index_vic", self._union_vic, "_index_vic")):
            index = IncrementalKnnIndex(background=True)
            if state.get(key) is not None:
                index.load_state_dict(state[key])
            elif len(union):
                index.reset(union.states)  # pre-index checkpoint: rebuild
            setattr(self, attr, index)


class RiskRegularizer(IntrinsicRegularizer):
    """R-driven: lure the victim toward the adversarial state s^{v(α)}.

    The default target is the victim's initial state s₀^v (Section 5.2.3),
    captured lazily from the first victim-space feature observed.
    """

    def __init__(self, config: AttackConfig, multi_agent: bool = False,
                 target: np.ndarray | None = None):
        super().__init__(config, multi_agent)
        self.target = None if target is None else np.asarray(target, dtype=np.float64)

    def compute(self, rollout: AdversaryRollout, policy: ActorCritic) -> np.ndarray:
        if len(rollout) == 0:
            # Zero-episode rollout (same guard family as the PR-4
            # empty-rollout fixes): no states to score, and no first
            # victim state to capture a lazy target from.
            return np.zeros(0)
        if self.target is None:
            self.target = rollout.knn_victim[0].copy()
        return self._checked(-np.linalg.norm(rollout.knn_victim - self.target, axis=1))

    def state_dict(self) -> dict:
        return {"target": None if self.target is None else self.target.copy()}

    def load_state_dict(self, state: dict) -> None:
        target = state["target"]
        self.target = None if target is None else np.asarray(target, dtype=np.float64)


class DivergenceRegularizer(IntrinsicRegularizer):
    """D-driven: stay KL-far from a mimic of the adversary's past policies."""

    def __init__(self, config: AttackConfig, multi_agent: bool = False):
        super().__init__(config, multi_agent)
        self._mimic: MimicPolicy | None = None

    def _ensure_mimic(self, policy: ActorCritic) -> MimicPolicy:
        if self._mimic is None:
            self._mimic = MimicPolicy(
                policy.obs_dim, policy.action_dim,
                buffer_capacity=self.config.mimic_buffer_capacity,
                seed=self.config.seed,
            )
        return self._mimic

    def compute(self, rollout: AdversaryRollout, policy: ActorCritic) -> np.ndarray:
        mimic = self._ensure_mimic(policy)
        if not mimic.trained:
            return np.zeros(len(rollout))
        return self._checked(gaussian_kl(
            policy.actor.infer(rollout.obs), policy.log_std.data,
            mimic.net.infer(rollout.obs), mimic.log_std.data))

    def after_update(self, rollout: AdversaryRollout, policy: ActorCritic) -> None:
        mimic = self._ensure_mimic(policy)
        mimic.absorb(rollout.obs, policy)
        mimic.fit(steps=self.config.mimic_train_steps)

    def state_dict(self) -> dict:
        return {"mimic": None if self._mimic is None
                else self._mimic.checkpoint_state()}

    def load_state_dict(self, state: dict) -> None:
        mimic_state = state["mimic"]
        if mimic_state is None:
            self._mimic = None
            return
        self._mimic = MimicPolicy(
            int(mimic_state["obs_dim"]), int(mimic_state["action_dim"]),
            buffer_capacity=self.config.mimic_buffer_capacity,
            seed=self.config.seed,
        )
        self._mimic.load_checkpoint_state(mimic_state)


def make_regularizer(name: str, config: AttackConfig, multi_agent: bool = False,
                     risk_target: np.ndarray | None = None) -> IntrinsicRegularizer:
    """Factory for the four regularizers by short name (sc/pc/r/d)."""
    name = name.lower()
    if name == "sc":
        return StateCoverageRegularizer(config, multi_agent)
    if name == "pc":
        return PolicyCoverageRegularizer(config, multi_agent)
    if name == "r":
        return RiskRegularizer(config, multi_agent, target=risk_target)
    if name == "d":
        return DivergenceRegularizer(config, multi_agent)
    raise ValueError(f"unknown regularizer {name!r}; options: {REGULARIZER_NAMES}")
