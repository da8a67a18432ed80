"""Multi-seed attack training (the paper's variance discussion,
Section 6.3.1: "attackers can train multiple APs using various seeds and
select the best one").

``train_best_of_seeds(..., max_workers=N)`` farms the per-seed training
runs out to the process-pool scheduler; each seed's run is a pure
function of ``(env_id, victim, attack, scale, seed)``, so the parallel
path selects exactly the same best seed as the sequential one.  A seed
whose worker crashes is recorded in ``MultiSeedOutcome.errors`` and
dropped from the selection instead of killing the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..attacks.base import AttackResult
from ..eval.harness import AttackEvaluation
from ..rl.policy import ActorCritic
from ..runtime import Job, run_parallel
from .config import ExperimentScale
from .runner import evaluate_cell, train_single_agent_attack

__all__ = ["MultiSeedOutcome", "train_best_of_seeds"]


@dataclass
class MultiSeedOutcome:
    """Per-seed evaluations plus the deployed (best) attack."""

    attack: str
    evaluations: list[AttackEvaluation] = field(default_factory=list)
    results: list[AttackResult] = field(default_factory=list)
    seeds: list[int] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def best_index(self) -> int:
        return int(np.argmin([e.mean_reward for e in self.evaluations]))

    @property
    def best(self) -> AttackEvaluation:
        return self.evaluations[self.best_index]

    @property
    def best_result(self) -> AttackResult:
        return self.results[self.best_index]

    @property
    def median_reward(self) -> float:
        return float(np.median([e.mean_reward for e in self.evaluations]))

    @property
    def seed_spread(self) -> float:
        """Max-min victim reward across seeds (the paper's large-std point)."""
        rewards = [e.mean_reward for e in self.evaluations]
        return float(max(rewards) - min(rewards))


def _train_and_evaluate_seed(env_id: str, victim: ActorCritic, attack: str,
                             scale: ExperimentScale, seed: int,
                             epsilon: float | None):
    """One multiseed cell (top-level so the process pool can pickle it)."""
    result = train_single_agent_attack(env_id, victim, attack, scale,
                                       seed=seed, epsilon=epsilon)
    evaluation = evaluate_cell(env_id, victim, attack, result, scale,
                               seed=1000 + seed, epsilon=epsilon)
    return result, evaluation


def train_best_of_seeds(env_id: str, victim: ActorCritic, attack: str,
                        scale: ExperimentScale, seeds: tuple[int, ...] = (0, 1, 2),
                        epsilon: float | None = None,
                        max_workers: int = 1, pool=None) -> MultiSeedOutcome:
    """Train ``attack`` with several seeds and keep the strongest one.

    ``max_workers > 1`` runs the seeds on a worker pool; results come
    back in seed order, so best-seed selection matches the sequential
    path exactly.  ``pool=`` (a :class:`~repro.runtime.WorkerPool`)
    reuses persistent warm workers instead of spawning per sweep —
    same results, no per-attack process-start tax across a grid.
    """
    outcome = MultiSeedOutcome(attack=attack)
    if max_workers <= 1 and pool is None:
        for seed in seeds:
            result, evaluation = _train_and_evaluate_seed(
                env_id, victim, attack, scale, seed, epsilon)
            outcome.results.append(result)
            outcome.evaluations.append(evaluation)
            outcome.seeds.append(seed)
        return outcome

    jobs = [Job(fn=_train_and_evaluate_seed,
                args=(env_id, victim, attack, scale, seed, epsilon),
                name=f"{attack}@{env_id}/seed{seed}")
            for seed in seeds]
    report = run_parallel(jobs, max_workers=max_workers, pool=pool)
    for seed, job_result in zip(seeds, report.results):
        if not job_result.ok:
            outcome.errors.append(f"seed {seed}: {job_result.error}")
            continue
        result, evaluation = job_result.value
        outcome.results.append(result)
        outcome.evaluations.append(evaluation)
        outcome.seeds.append(seed)
    if not outcome.evaluations:
        raise RuntimeError(
            f"all {len(seeds)} multiseed workers failed for {attack}@{env_id}: "
            + "; ".join(outcome.errors))
    return outcome
