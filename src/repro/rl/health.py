"""Numerical-health guards for training loops.

Adversarial training is a reliable NaN factory: KNN-density intrinsic
bonuses can explode advantages (Gleave et al., "Adversarial Policies:
Attacking Deep RL"), a diverging value head sends losses to ``inf``, and
one poisoned update silently corrupts every later checkpoint, golden,
and table cell.  The guards here turn that silent poisoning into a
structured, *retryable* failure: :func:`check_finite` /
:func:`check_gradients` raise :class:`NumericalDivergence` the moment a
loss, gradient, return, or intrinsic bonus goes NaN/Inf (or exceeds an
explicit magnitude bound), **before** the bad state reaches the
optimizer step's checkpoint — so the last on-disk checkpoint is healthy
by construction and the scheduler can classify the failure as
``error_kind="numerical"`` and retry from it (see
:mod:`repro.runtime.scheduler`).

The checks are single ``np.isfinite(...).all()`` reductions over arrays
the loop already holds; their cost is noise next to a forward/backward
pass, so they are always on.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["NumericalDivergence", "array_health", "check_finite", "check_gradients",
           "clip_checked_gradients"]


class NumericalDivergence(RuntimeError):
    """A monitored quantity went NaN/Inf or exceeded its magnitude bound.

    Structured so the scheduler (and humans reading crash records) can
    tell *what* diverged and *when* without parsing prose:

    * ``what`` — the monitored quantity (``"loss"``, ``"gradients"``,
      ``"returns"``, ``"intrinsic_bonus"``, ...)
    * ``stats`` — NaN/Inf counts and max magnitude at detection time
    * ``iteration`` — training iteration, when the caller knows it
    """

    def __init__(self, what: str, stats: dict | None = None,
                 iteration: int | None = None, detail: str = ""):
        self.what = what
        self.stats = dict(stats or {})
        self.iteration = iteration
        self.detail = detail
        where = f" at iteration {iteration}" if iteration is not None else ""
        described = ", ".join(f"{k}={v}" for k, v in self.stats.items())
        extra = f" ({detail})" if detail else ""
        super().__init__(
            f"numerical divergence in {what}{where}: {described}{extra}")


def array_health(values: np.ndarray) -> dict:
    """NaN/Inf counts and max finite magnitude of ``values`` (flattened)."""
    flat = np.asarray(values, dtype=np.float64).ravel()
    finite = flat[np.isfinite(flat)]
    return {
        "n": int(flat.size),
        "nan": int(np.isnan(flat).sum()),
        "inf": int(np.isinf(flat).sum()),
        "max_abs": float(np.abs(finite).max()) if finite.size else 0.0,
    }


def check_finite(what: str, values, max_abs: float | None = None,
                 iteration: int | None = None):
    """Return ``values`` unchanged, or raise :class:`NumericalDivergence`.

    Fails when any element is NaN/Inf, or — with ``max_abs`` set — when
    any magnitude exceeds the bound (catching "not NaN *yet*" blow-ups
    while they are still representable).
    """
    arr = np.asarray(values, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise NumericalDivergence(what, stats=array_health(arr),
                                  iteration=iteration)
    if max_abs is not None and arr.size and float(np.abs(arr).max()) > max_abs:
        raise NumericalDivergence(
            what, stats=array_health(arr), iteration=iteration,
            detail=f"magnitude exceeds bound {max_abs:g}")
    return values


def check_gradients(parameters, what: str = "gradients",
                    iteration: int | None = None) -> None:
    """Raise :class:`NumericalDivergence` if any parameter gradient is
    non-finite.  Call between ``backward()`` and ``optimizer.step()`` —
    the optimizer moments (and therefore every later checkpoint) stay
    clean.

    ``parameters`` holds parameters or ``(name, parameter)`` pairs (as
    ``Module.named_parameters()`` yields); with names, the error's
    ``detail`` names the first non-finite one."""
    for entry in parameters:
        name, param = entry if isinstance(entry, tuple) else (None, entry)
        grad = getattr(param, "grad", None)
        if grad is None:
            continue
        if not np.isfinite(grad).all():
            raise NumericalDivergence(
                what, stats=array_health(grad), iteration=iteration,
                detail=f"first non-finite parameter {name}" if name else "")


def clip_checked_gradients(named_parameters, max_norm: float,
                           iteration: int | None = None) -> float:
    """:func:`check_gradients` then ``nn.clip_grad_norm``, in one pass.

    Same error, norm and scaled gradients as calling the two in turn.
    The per-parameter square sums come first, in ``clip_grad_norm``'s
    order; a finite square sum implies a finite gradient, so
    ``np.isfinite`` runs only on a gradient whose sum is not finite (a
    finite gradient whose square overflows passes, and is clipped).
    Raises before any gradient is scaled, naming the first non-finite
    parameter of the ``(name, parameter)`` pairs.
    """
    params, squares = [], []
    for name, param in named_parameters:
        grad = param.grad
        if grad is None:
            continue
        square = float((grad**2).sum())
        if not math.isfinite(square) and not np.isfinite(grad).all():
            raise NumericalDivergence(
                "gradients", stats=array_health(grad), iteration=iteration,
                detail=f"first non-finite parameter {name}")
        params.append(param)
        squares.append(square)
    total = float(np.sqrt(sum(squares)))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for param in params:
            param.grad = param.grad * scale
    return total
