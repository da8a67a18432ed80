"""Worker-side request computation: train what's missing, evaluate, persist.

This is the function the service schedules on its worker pool
(:func:`~repro.runtime.scheduler.run_parallel` with a per-job timeout),
so it must be importable and picklable at module level and entirely
self-contained: it opens its own store, installs its own telemetry (a
line-buffered JSONL sink on ``progress_path`` that the server tails to
stream progress to the client), and returns the JSON-safe payload.

Victims and trained attacks are themselves content-addressed artifacts
(the PR 3 zoo/attack caches), so only genuinely novel work trains
anything; the evaluation phase always runs through the *same*
:func:`~repro.eval.lockstep.evaluate_lockstep` the in-server lane uses,
which is what makes the spec → result mapping lane-independent.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import replace

from ..attacks import AttackConfig, RandomAttackPolicy
from ..attacks.threat_models import default_epsilon
from ..defenses import DefenseTrainConfig
from ..envs import make
from ..eval.lockstep import evaluate_lockstep
from ..experiments.runner import train_attack
from ..rl.health import NumericalDivergence
from ..store import ArtifactStore
from ..telemetry import JsonlEventSink, Telemetry, use_telemetry
from ..zoo import get_victim
from .protocol import normalize_request, request_spec
from .request_cache import RequestCache

__all__ = ["compute_request", "victim_train_config", "victim_store_spec"]


def victim_train_config(normalized: dict) -> DefenseTrainConfig:
    """The victim's training config implied by a normalized request.

    The defense trains for the env's published robustness budget (as the
    experiment runner does), independent of the threat ε being evaluated
    — a victim is one artifact however many budgets it is probed at.
    """
    victim = normalized["victim"]
    config = DefenseTrainConfig(
        iterations=victim["iterations"],
        steps_per_iteration=victim["steps_per_iteration"],
        hidden_sizes=tuple(victim["hidden_sizes"]),
        seed=victim["seed"],
        epsilon=default_epsilon(normalized["env_id"]),
    )
    if config.seed != victim["seed"]:
        config = replace(config, seed=victim["seed"])
    return config


def victim_store_spec(normalized: dict) -> dict:
    """The zoo's content-address spec for this request's victim."""
    from ..zoo.train import victim_spec

    victim = normalized["victim"]
    return victim_spec(normalized["env_id"], victim["defense"],
                       victim_train_config(normalized), victim["budget_tag"],
                       victim["seed"])


def _apply_fault(fault: dict | None) -> None:
    """Deterministic injected failures for chaos coverage of the service.

    ``crash`` exercises the ``error_kind="crash"`` path, ``numerical``
    the health-guard taxonomy, and ``hang`` parks the worker until the
    worker pool's deadline kill (``error_kind="timeout"``).
    """
    if not fault:
        return
    kind = fault["kind"]
    if kind == "crash":
        raise RuntimeError("injected fault: crash")
    if kind == "numerical":
        raise NumericalDivergence("injected fault: numerical divergence")
    if kind == "hang":
        while True:
            time.sleep(60.0)
    raise ValueError(f"unknown fault kind {kind!r}")


def _attack_policy(normalized: dict, victim, store: ArtifactStore):
    """None (clean), a random-noise policy, or a (cached) trained adversary.

    A learned attack is the experiment runner's artifact: same trainer,
    same store key, so a table cell and a serve request share it.
    """
    kind = normalized["attack"]["kind"]
    if kind == "none":
        return None
    if kind == "random":
        probe = make(normalized["env_id"])
        return RandomAttackPolicy(probe.observation_space.shape[0],
                                  seed=normalized["eval"]["seed"])
    attack = normalized["attack"]
    config = AttackConfig(iterations=attack["iterations"],
                          steps_per_iteration=attack["steps_per_iteration"],
                          seed=attack["seed"])
    return train_attack(normalized["env_id"], victim, kind, config,
                        epsilon=normalized["threat"]["epsilon"],
                        store=store).policy


def compute_request(request: dict, store_root: str,
                    progress_path: str | None = None) -> dict:
    """Compute (or re-serve) one robustness-evaluation request.

    Idempotent: if the artifact already exists — another worker won the
    race, or this is a retry after a mid-evaluation kill — the stored
    payload is returned without recomputation.
    """
    normalized = normalize_request(request)
    spec = request_spec(normalized)
    store = ArtifactStore(store_root)
    cache = RequestCache(store)

    if progress_path is not None:
        telemetry = Telemetry(sink=JsonlEventSink(progress_path, buffer_size=1))
        context = use_telemetry(telemetry)
    else:
        telemetry = None
        context = contextlib.nullcontext()

    with context:
        try:
            _apply_fault(normalized.get("fault"))
            cached = cache.lookup(spec)
            if cached is not None:
                return cached
            if telemetry is not None:
                telemetry.event("serve.phase", payload={"phase": "victim"})
            victim = get_victim(
                normalized["env_id"], normalized["victim"]["defense"],
                config=victim_train_config(normalized),
                budget_tag=normalized["victim"]["budget_tag"],
                seed=normalized["victim"]["seed"], store=store)
            if telemetry is not None:
                telemetry.event("serve.phase", payload={"phase": "attack"})
            attack_policy = _attack_policy(normalized, victim, store)

            if telemetry is not None:
                telemetry.event("serve.phase", payload={"phase": "evaluate"})

            def on_progress(done: int, total: int) -> None:
                if telemetry is not None:
                    telemetry.event("serve.progress", payload={
                        "episodes_done": done, "episodes": total})

            threat = normalized["threat"]
            evaluation = evaluate_lockstep(
                lambda: make(normalized["env_id"]), victim,
                episodes=normalized["eval"]["episodes"],
                seed=normalized["eval"]["seed"],
                attack_policy=attack_policy,
                epsilon=threat.get("epsilon", 0.0),
                norm=threat.get("norm", "linf"),
                on_progress=on_progress)
            payload = cache.store_result(spec, evaluation,
                                         metadata={"lane": "worker"})
            if telemetry is not None:
                telemetry.event("serve.phase", payload={"phase": "done"})
            return payload
        finally:
            if telemetry is not None:
                telemetry.sink.close()
