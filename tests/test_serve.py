"""End-to-end tests for the evaluation service.

The acceptance path from the issue: a cold request computes and
persists; the identical warm request returns the same payload from the
store without scheduling a worker (asserted via ``store.hits`` and the
scheduler counters); k identical concurrent requests perform exactly one
evaluation; injected faults surface with the supervisor's ``error_kind``
taxonomy; and the socket server streams the documented event sequence.
"""

from __future__ import annotations

import asyncio
import dataclasses
import sys
import threading

import pytest

from repro import envs
from repro.attacks import AttackConfig, RandomAttackPolicy
from repro.eval import evaluate_lockstep
from repro.experiments import SCALES, runner
from repro.serve import (
    EvalService,
    LocalClient,
    ProtocolError,
    ServeClient,
    ServeConfig,
    ServeError,
    compute_request,
    normalize_request,
    request_key,
    request_spec,
)
from repro.serve import service as service_module
from repro.serve.compute import victim_train_config
from repro.serve.server import serve_forever
from repro.store import ArtifactStore, spec_key, state_fingerprint
from repro.telemetry import Telemetry
from repro.zoo import get_victim

TINY = {
    "env_id": "Hopper-v0",
    "victim": {"iterations": 1, "steps_per_iteration": 64},
    "attack": {"kind": "none"},
    "eval": {"episodes": 2, "seed": 3},
}


def make_service(tmp_path, **config) -> EvalService:
    telemetry = Telemetry.in_memory()
    store = ArtifactStore(tmp_path / "store", telemetry=telemetry,
                          cache_size=config.pop("cache_size", 8))
    defaults = dict(job_timeout=120.0, retries=0)
    defaults.update(config)
    return EvalService(store, ServeConfig(**defaults), telemetry=telemetry)


def counter(service: EvalService, name: str) -> float:
    return service.metrics.counter(name).value


def train_victim(store: ArtifactStore, request: dict):
    """Train (or load) the request's victim into ``store`` in-process."""
    normalized = normalize_request(request)
    victim = normalized["victim"]
    return get_victim(normalized["env_id"], victim["defense"],
                      config=victim_train_config(normalized),
                      budget_tag=victim["budget_tag"], seed=victim["seed"],
                      store=store)


def strip_flags(payload: dict) -> dict:
    return {k: v for k, v in payload.items() if k not in ("cached", "coalesced")}


class TestColdWarm:
    def test_cold_computes_warm_serves_from_store(self, tmp_path):
        service = make_service(tmp_path)
        client = LocalClient(service)

        async def main():
            cold_events = []
            cold = await client.evaluate(
                TINY, on_event=lambda e: cold_events.append(e))
            warm_events = []
            warm = await client.evaluate(
                TINY, on_event=lambda e: warm_events.append(e))
            return cold, cold_events, warm, warm_events

        cold, cold_events, warm, warm_events = asyncio.run(main())

        # Cold: scheduled, computed, persisted.
        assert [e["event"] for e in cold_events][:2] == ["queued", "scheduled"]
        assert cold_events[-1]["event"] == "result"
        assert not cold["cached"]
        assert cold["key"] == request_key(TINY)
        assert cold["episodes"] == 2
        entry = service.store.entry_by_key(cold["key"])
        assert entry is not None and entry.metadata["lane"] == "worker"

        # Warm: same payload, straight from the store, no scheduling.
        assert [e["event"] for e in warm_events] == ["queued", "cached", "result"]
        assert warm["cached"]
        assert strip_flags(warm) == strip_flags(cold)
        assert counter(service, "serve.scheduled_jobs") == 1
        assert counter(service, "serve.inline_evals") == 0
        assert counter(service, "serve.cache_hits") == 1
        assert counter(service, "store.hits") >= 1

    def test_equivalent_spelling_hits_the_same_entry(self, tmp_path):
        service = make_service(tmp_path)
        client = LocalClient(service)
        respelled = {
            "eval": {"episodes": 2.0, "seed": 3.0},
            "attack": {"kind": "none"},
            "victim": {"steps_per_iteration": 64, "iterations": 1},
            "env_id": "Hopper-v0",
            "threat": {"kind": "none"},
        }

        async def main():
            cold = await client.evaluate(TINY)
            warm = await client.evaluate(respelled)
            return cold, warm

        cold, warm = asyncio.run(main())
        assert warm["cached"]
        assert strip_flags(warm) == strip_flags(cold)
        assert counter(service, "serve.scheduled_jobs") == 1

    def test_malformed_request_rejected_before_any_work(self, tmp_path):
        service = make_service(tmp_path)

        async def main():
            with pytest.raises(ProtocolError, match="unknown fields"):
                await service.submit({"env_id": "Hopper-v0", "evall": {}})

        asyncio.run(main())
        assert counter(service, "serve.requests") == 0


class TestCoalescing:
    def test_identical_concurrent_requests_cost_one_evaluation(self, tmp_path):
        service = make_service(tmp_path)
        client = LocalClient(service)
        k = 5

        async def main():
            return await asyncio.gather(*[client.evaluate(TINY)
                                          for _ in range(k)])

        payloads = asyncio.run(main())
        assert counter(service, "serve.computed") == 1
        assert counter(service, "serve.coalesced") == k - 1
        assert counter(service, "serve.scheduled_jobs") == 1
        assert sum(1 for p in payloads if p["coalesced"]) == k - 1
        reference = strip_flags(payloads[0])
        assert all(strip_flags(p) == reference for p in payloads)

    def test_coalesced_failure_propagates_to_all_waiters(self, tmp_path):
        service = make_service(tmp_path, allow_fault_injection=True)
        bad = dict(TINY, fault={"kind": "crash"})

        async def main():
            results = await asyncio.gather(
                *[service.submit(bad) for _ in range(3)],
                return_exceptions=True)
            return results

        results = asyncio.run(main())
        assert all(isinstance(r, ServeError) for r in results)
        assert all(r.error_kind == "crash" for r in results)
        assert counter(service, "serve.scheduled_jobs") == 1


class TestLanes:
    def test_inline_lane_matches_worker_lane_bitwise(self, tmp_path):
        """Same spec, either lane, same arrays: the canonical evaluator
        makes the result lane-independent."""
        service = make_service(tmp_path)
        request = dict(TINY, attack={"kind": "random"},
                       eval={"episodes": 2, "seed": 5})
        key = service.store.key_for(request_spec(normalize_request(request)))

        async def main():
            worker = await service.submit(request)
            service.store.remove(key)
            events = []
            inline = await service.submit(
                request, on_event=lambda e: events.append(e))
            return worker, inline, events

        worker, inline, events = asyncio.run(main())
        lanes = [e["lane"] for e in events if e["event"] == "scheduled"]
        assert lanes == ["inline"]
        assert inline["episode_rewards"] == worker["episode_rewards"]
        assert inline["episode_lengths"] == worker["episode_lengths"]
        entry = service.store.entry_by_key(key)
        assert entry.metadata["lane"] == "inline"

    def test_cached_request_returns_during_inline_evaluation(self, tmp_path,
                                                              monkeypatch):
        """The inline lane evaluates off the event loop: a store hit
        submitted while it runs is answered before it finishes."""
        service = make_service(tmp_path)
        train_victim(service.store, TINY)
        release = threading.Event()
        evaluate = service_module.evaluate_lockstep

        def held_evaluate(*args, **kwargs):
            assert release.wait(30), "inline evaluation was never released"
            return evaluate(*args, **kwargs)

        async def main():
            await service.submit(TINY)  # inline, fills the store
            monkeypatch.setattr(service_module, "evaluate_lockstep",
                                held_evaluate)
            started = asyncio.Event()
            slow = asyncio.create_task(service.submit(
                dict(TINY, eval={"episodes": 2, "seed": 4}),
                on_event=lambda e: e["event"] == "scheduled" and started.set()))
            await asyncio.wait_for(started.wait(), 10)
            cached = await asyncio.wait_for(service.submit(TINY), 10)
            still_running = not slow.done()
            release.set()
            return cached, still_running, await slow

        cached, still_running, slow = asyncio.run(main())
        assert cached["cached"]
        assert still_running
        assert not slow["cached"]
        assert counter(service, "serve.inline_evals") == 2
        assert counter(service, "serve.scheduled_jobs") == 0

    def test_concurrent_inline_evaluations_match_serial_ones(self, tmp_path):
        """Inline evaluations run on threads that share one victim; each
        result must equal the same evaluation run alone."""
        service = make_service(tmp_path)
        victim = train_victim(service.store, TINY)
        requests = [dict(TINY, attack={"kind": "random"},
                         eval={"episodes": 2, "seed": seed})
                    for seed in range(6)]

        async def main():
            return await asyncio.wait_for(asyncio.gather(
                *[service.submit(request) for request in requests]), 60)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            payloads = asyncio.run(main())
        finally:
            sys.setswitchinterval(interval)
        assert counter(service, "serve.inline_evals") == len(requests)
        obs_dim = envs.make("Hopper-v0").observation_space.shape[0]
        for request, payload in zip(requests, payloads):
            seed = request["eval"]["seed"]
            alone = evaluate_lockstep(
                lambda: envs.make("Hopper-v0"), victim, episodes=2, seed=seed,
                attack_policy=RandomAttackPolicy(obs_dim, seed=seed),
                epsilon=normalize_request(request)["threat"]["epsilon"])
            assert payload["episode_rewards"] == alone.episode_rewards

    def test_inline_disabled_always_schedules(self, tmp_path):
        service = make_service(tmp_path, inline_eval=False)
        key = service.store.key_for(request_spec(normalize_request(TINY)))

        async def main():
            await service.submit(TINY)
            service.store.remove(key)
            await service.submit(TINY)

        asyncio.run(main())
        assert counter(service, "serve.scheduled_jobs") == 2
        assert counter(service, "serve.inline_evals") == 0

    def test_learned_attack_never_runs_inline(self, tmp_path):
        """Training work must go through the supervised worker pool."""
        service = make_service(tmp_path)
        request = {
            "env_id": "Hopper-v0",
            "victim": {"iterations": 1, "steps_per_iteration": 64},
            "attack": {"kind": "sarl", "iterations": 1,
                       "steps_per_iteration": 64},
            "eval": {"episodes": 2, "seed": 3},
        }

        async def main():
            events = []
            await service.submit(request,
                                 on_event=lambda e: events.append(e))
            return events

        events = asyncio.run(main())
        lanes = [e["lane"] for e in events if e["event"] == "scheduled"]
        assert lanes == ["worker"]

    def test_served_attack_is_the_runners_artifact(self, tmp_path,
                                                   monkeypatch):
        """An attack trained for a request is a store hit, under the same
        key, for the experiment runner given the same config."""
        store = ArtifactStore(tmp_path / "store")
        request = dict(TINY, attack={"kind": "imap-pc", "iterations": 1,
                                     "steps_per_iteration": 64, "seed": 2})
        compute_request(request, str(store.root))
        victim = train_victim(store, request)  # a store hit by now
        epsilon = normalize_request(request)["threat"]["epsilon"]
        key = spec_key(runner.attack_spec(
            "attack", "Hopper-v0", "imap-pc",
            AttackConfig(iterations=1, steps_per_iteration=64, seed=2),
            victim, epsilon=epsilon, n_envs=1))
        entry = store.entry_by_key(key)
        assert entry is not None

        def no_training(*args, **kwargs):
            raise AssertionError("the runner retrained a served attack")

        monkeypatch.setattr(runner, "train_imap", no_training)
        scale = dataclasses.replace(SCALES["smoke"], attack_iterations=1,
                                    steps_per_iteration=64)
        telemetry = Telemetry.in_memory()
        store = ArtifactStore(store.root, telemetry=telemetry)
        result = runner.train_single_agent_attack(
            "Hopper-v0", victim, "imap-pc", scale, seed=2, epsilon=epsilon,
            store=store)
        assert telemetry.metrics.counter("store.hits").value == 1
        state, hit = store.get(entry.spec)
        assert hit.key == key
        assert (state_fingerprint(result.policy.checkpoint_state())
                == state_fingerprint(state))


class TestFaults:
    def test_fault_injection_disabled_by_default(self, tmp_path):
        service = make_service(tmp_path)

        async def main():
            with pytest.raises(ProtocolError, match="fault injection"):
                await service.submit(dict(TINY, fault={"kind": "crash"}))

        asyncio.run(main())

    @pytest.mark.parametrize("kind,expected", [
        ("crash", "crash"),
        ("numerical", "numerical"),
    ])
    def test_fault_classified_by_error_kind(self, tmp_path, kind, expected):
        service = make_service(tmp_path, allow_fault_injection=True)
        bad = dict(TINY, fault={"kind": kind},
                   eval={"episodes": 2, "seed": 40})

        async def main():
            events = []
            with pytest.raises(ServeError) as excinfo:
                await service.submit(bad, on_event=lambda e: events.append(e))
            return excinfo.value, events

        error, events = asyncio.run(main())
        assert error.error_kind == expected
        assert events[-1]["event"] == "error"
        assert events[-1]["error_kind"] == expected
        assert counter(service, "serve.errors") == 1

    def test_hang_killed_by_deadline_as_timeout(self, tmp_path):
        service = make_service(tmp_path, allow_fault_injection=True,
                               job_timeout=2.0)
        bad = dict(TINY, fault={"kind": "hang"},
                   eval={"episodes": 2, "seed": 41})

        async def main():
            with pytest.raises(ServeError) as excinfo:
                await service.submit(bad)
            return excinfo.value

        error = asyncio.run(main())
        assert error.error_kind == "timeout"


class TestSocketServer:
    def test_full_mix_over_the_socket(self, tmp_path):
        service = make_service(tmp_path, allow_fault_injection=True)
        socket_path = tmp_path / "serve.sock"

        async def main():
            ready = asyncio.Event()
            server = asyncio.create_task(
                serve_forever(service, socket_path, ready=ready))
            await asyncio.wait_for(ready.wait(), 10)
            client = await ServeClient.connect(socket_path)
            try:
                assert (await client.ping())["event"] == "pong"

                # Cold miss.
                cold_events = []
                cold = await client.evaluate(
                    TINY, on_event=lambda e: cold_events.append(e["event"]))
                assert cold_events[:2] == ["queued", "scheduled"]
                assert cold_events[-1] == "result"
                assert "progress" in cold_events

                # Warm hit over the wire: identical payload.
                warm = await client.evaluate(TINY)
                assert warm["cached"]
                assert strip_flags(warm) == strip_flags(cold)

                # Coalesced duplicates share one evaluation.
                fresh = dict(TINY, eval={"episodes": 2, "seed": 77})
                fanned = await asyncio.gather(
                    *[client.evaluate(fresh) for _ in range(3)])
                assert sum(1 for p in fanned if p["coalesced"]) == 2
                assert counter(service, "serve.computed") == 2

                # Injected fault classified through the taxonomy.
                bad = dict(TINY, fault={"kind": "crash"},
                           eval={"episodes": 2, "seed": 78})
                with pytest.raises(ServeError) as excinfo:
                    await client.evaluate(bad)
                assert excinfo.value.error_kind == "crash"

                status = await client.status()
                assert status["inflight"] == 0
                assert status["counters"]["serve.requests"] == 6.0

                await client.shutdown()
            finally:
                await client.close()
            await asyncio.wait_for(server, 10)

        asyncio.run(main())

    def test_unknown_op_and_bad_json_survive_the_connection(self, tmp_path):
        service = make_service(tmp_path)
        socket_path = tmp_path / "serve.sock"

        async def main():
            ready = asyncio.Event()
            server = asyncio.create_task(
                serve_forever(service, socket_path, ready=ready))
            await asyncio.wait_for(ready.wait(), 10)
            reader, writer = await asyncio.open_unix_connection(
                str(socket_path))
            try:
                writer.write(b"{broken\n")
                writer.write(b'{"op": "frobnicate", "id": "x"}\n')
                writer.write(b'{"op": "ping", "id": "y"}\n')
                await writer.drain()
                import json

                seen = [json.loads(await asyncio.wait_for(reader.readline(), 10))
                        for _ in range(3)]
                assert [e["event"] for e in seen] == ["error", "error", "pong"]
                writer.write(b'{"op": "shutdown"}\n')
                await writer.drain()
            finally:
                writer.close()
            await asyncio.wait_for(server, 10)

        asyncio.run(main())


class TestStats:
    def test_stats_shape(self, tmp_path):
        service = make_service(tmp_path)

        async def main():
            await service.submit(TINY)
            await service.submit(TINY)

        asyncio.run(main())
        stats = service.stats()
        assert stats["inflight"] == 0
        assert stats["counters"]["serve.requests"] == 2.0
        assert stats["counters"]["serve.cache_hits"] == 1.0
