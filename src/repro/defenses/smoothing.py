"""Shared smoothness machinery for the robust-regularizer defenses.

Two perturbation models over the policy's (normalized) inputs:

* random smoothing — δ uniform in the l∞ ε-ball (used by SA's
  regularizer; the original solves a convex relaxation, we use its
  sampling approximation, see DESIGN.md);
* FGSM smoothing — δ = ε · sign(∂KL/∂obs), a one-step worst-case
  perturbation (used by RADIAL / WocaR's bound-based losses).
"""

from __future__ import annotations

import numpy as np

from ..nn import Tensor
from ..rl.policy import ActorCritic

__all__ = ["random_smoothness_loss", "fgsm_perturbation", "adversarial_smoothness_loss"]


def random_smoothness_loss(policy: ActorCritic, obs: np.ndarray, dist,
                           epsilon: float, rng: np.random.Generator) -> Tensor:
    """E_δ KL(π(·|s) ‖ π(·|s+δ)) with uniform δ in the ε-ball."""
    delta = rng.uniform(-epsilon, epsilon, size=obs.shape)
    perturbed_dist = policy.distribution(obs + delta)
    return dist.kl(perturbed_dist).mean()


def fgsm_perturbation(policy: ActorCritic, obs: np.ndarray, epsilon: float,
                      rng: np.random.Generator | None = None) -> np.ndarray:
    """Random-start + one sign-gradient step maximizing the policy's KL shift.

    KL(π(s) ‖ π(s+δ)) has zero gradient at δ = 0, so (as in PGD practice)
    we start from a random δ₀ in the half-ball and take one FGSM step,
    projecting back into the ε-ball.
    """
    obs = np.asarray(obs, dtype=np.float64)
    rng = rng or np.random.default_rng()
    delta0 = rng.uniform(-0.5 * epsilon, 0.5 * epsilon, size=obs.shape)
    grad = policy.kl_input_gradient(policy.actor.infer(obs), obs + delta0)
    policy.zero_grad()  # the attack leaves no parameter grads behind
    return np.clip(delta0 + epsilon * np.sign(grad), -epsilon, epsilon)


def adversarial_smoothness_loss(policy: ActorCritic, obs: np.ndarray, dist,
                                epsilon: float, rng: np.random.Generator | None = None
                                ) -> Tensor:
    """KL(π(·|s) ‖ π(·|s+δ*)) with δ* from a one-step FGSM attack."""
    delta = fgsm_perturbation(policy, obs, epsilon, rng=rng)
    perturbed_dist = policy.distribution(obs + delta)
    return dist.kl(perturbed_dist).mean()
