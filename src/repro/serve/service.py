"""The evaluation service core: dedup → coalesce → schedule → stream.

:class:`EvalService` is the transport-independent heart of
``repro.serve`` (the socket server wraps it; tests drive it directly).
One submission flows through four layers:

1. **Dedup** — the request is canonicalized to a content address; if the
   store already holds that artifact the stored payload is returned in
   milliseconds without touching a worker.
2. **Coalesce** — N identical requests in flight share one computation:
   the first creates an in-flight future keyed by content address,
   the rest await it.
3. **Schedule** — a genuine miss is computed on one of two lanes that
   produce bit-identical results (both run
   :func:`~repro.eval.lockstep.evaluate_lockstep`): the *inline* lane
   evaluates warm, training-free requests in-process on a helper thread,
   so the event loop keeps answering other requests meanwhile;
   everything that needs training (or fault injection) goes to a
   persistent
   :class:`~repro.runtime.pool.WorkerPool` worker via
   :func:`~repro.runtime.scheduler.run_parallel` — deadline kills,
   retries, and the ``error_kind`` taxonomy included, without paying a
   process spawn per request.
4. **Stream** — lifecycle events (``queued → cached | coalesced |
   scheduled → progress* → result | error``) are pushed to the caller's
   ``on_event`` callback; worker-lane progress is tailed from the
   worker's JSONL telemetry stream.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

from ..attacks import RandomAttackPolicy
from ..envs import make
from ..eval.lockstep import evaluate_lockstep
from ..rl.policy import ActorCritic
from ..runtime.pool import WorkerPool
from ..runtime.scheduler import Job, run_parallel
from ..runtime import classify_exception
from ..store import ArtifactStore, spec_key
from ..telemetry import MetricsRegistry, Telemetry
from ..zoo.train import _load_cached, training_env_factory
from .compute import compute_request, victim_store_spec, victim_train_config
from .protocol import ProtocolError, normalize_request, request_spec
from .request_cache import RequestCache

__all__ = ["ServeConfig", "ServeError", "EvalService"]


@dataclass
class ServeConfig:
    """Service policy knobs (transport-independent)."""

    # Evaluate training-free requests with a warm victim in-process (on a
    # helper thread).  Off → everything is a job.
    inline_eval: bool = True
    # Worker processes in the service's pool (created lazily on the
    # first scheduled job and reused for every later one).
    max_workers: int = 2
    # Per-job wall-clock budget, enforced by the pool's watchdog: a hung
    # evaluation is killed and classified "timeout".
    job_timeout: float | None = 600.0
    # Failed jobs are requeued up to this many extra times.
    retries: int = 1
    retry_backoff: float = 0.0
    # In-process LRU of loaded victim policies for the inline lane.
    policy_cache_size: int = 8
    # Honor the request's "fault" section (chaos tests/CI only).
    allow_fault_injection: bool = False
    # Worker progress files are polled at this interval (seconds).
    progress_poll: float = 0.05


class ServeError(RuntimeError):
    """A request failed; ``error_kind`` carries the scheduler taxonomy."""

    def __init__(self, message: str, error_kind: str = "crash"):
        super().__init__(message)
        self.error_kind = error_kind


class EvalService:
    """Async attack-evaluation service over one artifact store."""

    def __init__(self, store: ArtifactStore, config: ServeConfig | None = None,
                 telemetry: Telemetry | None = None):
        self.store = store
        self.config = config or ServeConfig()
        self.telemetry = telemetry
        self.metrics = telemetry.metrics if telemetry is not None else MetricsRegistry()
        self.cache = RequestCache(store)
        self._inflight: dict[str, asyncio.Future] = {}
        self._worker_slots = asyncio.Semaphore(max(1, self.config.max_workers))
        self._policies: OrderedDict[str, ActorCritic] = OrderedDict()
        self._probe_dims: dict[str, tuple[int, int]] = {}
        # Persistent worker-lane pool: created lazily by the first
        # scheduled job (inline-only workloads never fork a worker),
        # shared by every subsequent one.  Guarded by a lock because
        # _schedule runs run_parallel on asyncio worker threads.
        self._pool: WorkerPool | None = None
        self._pool_guard = threading.Lock()

    def _worker_pool(self) -> WorkerPool:
        with self._pool_guard:
            if self._pool is None:
                self._pool = WorkerPool(
                    max_workers=max(1, self.config.max_workers))
            return self._pool

    def close(self) -> None:
        """Release the worker pool (idempotent; the server calls this)."""
        with self._pool_guard:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()

    # -------------------------------------------------------------- metrics

    def _count(self, name: str, amount: float = 1.0) -> None:
        self.metrics.counter(name).inc(amount)

    def _event(self, event_type: str, payload: dict) -> None:
        if self.telemetry is not None:
            self.telemetry.event(event_type, payload=payload)

    def stats(self) -> dict:
        """Counter snapshot plus live in-flight occupancy."""
        snapshot = self.metrics.snapshot()
        counters = {name: value for name, value in snapshot.get("counters", {}).items()}
        return {"counters": counters, "inflight": len(self._inflight),
                "policy_cache": len(self._policies)}

    # --------------------------------------------------------------- submit

    async def submit(self, request: dict, on_event=None) -> dict:
        """Serve one request; streams lifecycle events to ``on_event``.

        Returns the result payload (with ``cached``/``coalesced`` flags).
        Raises :class:`ServeError` (carrying ``error_kind``) on failure;
        malformed requests raise
        :class:`~repro.serve.protocol.ProtocolError` before any work.
        """
        def emit(event: dict) -> None:
            if on_event is not None:
                on_event(event)

        normalized = normalize_request(request)
        if "fault" in normalized and not self.config.allow_fault_injection:
            raise ProtocolError(
                "request carries a fault section but fault injection is "
                "disabled on this server")
        spec = request_spec(normalized)
        key = spec_key(spec)
        self._count("serve.requests")
        emit({"event": "queued", "key": key})
        self._event("serve.request", {"key": key})

        start = asyncio.get_running_loop().time()
        payload = self.cache.lookup(spec)
        if payload is not None:
            self._count("serve.cache_hits")
            self._observe_latency(start)
            emit({"event": "cached", "key": key})
            payload = dict(payload, cached=True, coalesced=False)
            emit({"event": "result", "payload": payload})
            return payload
        self._count("serve.cache_misses")

        inflight = self._inflight.get(key)
        if inflight is not None:
            self._count("serve.coalesced")
            emit({"event": "coalesced", "key": key})
            try:
                payload = await asyncio.shield(inflight)
            except Exception as exc:  # noqa: BLE001 — mirror the computing waiter
                raise self._as_serve_error(exc, emit) from exc
            self._observe_latency(start)
            payload = dict(payload, cached=False, coalesced=True)
            emit({"event": "result", "payload": payload})
            return payload

        future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        try:
            payload = await self._compute(normalized, spec, key, emit)
        except BaseException as exc:
            future.set_exception(exc)
            # Consume the exception once so an un-coalesced failure does
            # not warn "exception was never retrieved" at GC time.
            with contextlib.suppress(BaseException):
                future.exception()
            del self._inflight[key]
            if isinstance(exc, Exception):
                raise self._as_serve_error(exc, emit) from exc
            raise
        else:
            future.set_result(payload)
            del self._inflight[key]
        self._count("serve.computed")
        self._observe_latency(start)
        payload = dict(payload, cached=False, coalesced=False)
        emit({"event": "result", "payload": payload})
        return payload

    def _observe_latency(self, start: float) -> None:
        elapsed = asyncio.get_running_loop().time() - start
        self.metrics.observe_duration("serve.latency", elapsed)

    def _as_serve_error(self, exc: Exception, emit) -> ServeError:
        if isinstance(exc, ServeError):
            error = exc
        else:
            error = ServeError(f"{type(exc).__name__}: {exc}",
                               error_kind=classify_exception(exc))
        self._count("serve.errors")
        emit({"event": "error", "error": str(error),
              "error_kind": error.error_kind})
        return error

    # ---------------------------------------------------------------- lanes

    async def _compute(self, normalized: dict, spec: dict, key: str,
                       emit) -> dict:
        if (self.config.inline_eval
                and normalized["attack"]["kind"] in ("none", "random")
                and "fault" not in normalized
                and self._victim_available(normalized)):
            return await self._evaluate_inline(normalized, spec, key, emit)
        return await self._schedule(normalized, key, emit)

    # -- inline lane ---------------------------------------------------------

    def _victim_available(self, normalized: dict) -> bool:
        vkey = spec_key(victim_store_spec(normalized))
        return vkey in self._policies or self.store.entry_by_key(vkey) is not None

    def _probe(self, env_id: str) -> tuple[int, int]:
        dims = self._probe_dims.get(env_id)
        if dims is None:
            probe = training_env_factory(env_id)()
            dims = (probe.observation_space.shape[0],
                    probe.action_space.shape[0])
            self._probe_dims[env_id] = dims
        return dims

    def _victim(self, normalized: dict) -> ActorCritic:
        vkey = spec_key(victim_store_spec(normalized))
        policy = self._policies.get(vkey)
        if policy is not None:
            self._policies.move_to_end(vkey)
            return policy
        obs_dim, action_dim = self._probe(normalized["env_id"])
        config = victim_train_config(normalized)
        policy = _load_cached(
            self.store, victim_store_spec(normalized),
            env_id=normalized["env_id"],
            defense=normalized["victim"]["defense"],
            obs_dim=obs_dim, action_dim=action_dim,
            hidden_sizes=config.hidden_sizes)
        if policy is None:
            raise ServeError("victim artifact vanished or failed validation "
                             "between lookup and load", error_kind="crash")
        self._policies[vkey] = policy
        while len(self._policies) > max(1, self.config.policy_cache_size):
            self._policies.popitem(last=False)
        return policy

    async def _evaluate_inline(self, normalized: dict, spec: dict, key: str,
                               emit) -> dict:
        emit({"event": "scheduled", "lane": "inline", "key": key})
        self._count("serve.inline_evals")
        victim = self._victim(normalized)
        attack_policy = None
        if normalized["attack"]["kind"] == "random":
            obs_dim, _ = self._probe(normalized["env_id"])
            attack_policy = RandomAttackPolicy(obs_dim,
                                               seed=normalized["eval"]["seed"])
        threat = normalized["threat"]
        env_id = normalized["env_id"]
        loop = asyncio.get_running_loop()

        def on_progress(done: int, total: int) -> None:
            # Runs on the evaluation thread; emit on the loop's.
            loop.call_soon_threadsafe(emit, {
                "event": "progress", "key": key,
                "payload": {"episodes_done": done, "episodes": total}})

        evaluation = await asyncio.to_thread(
            evaluate_lockstep, lambda: make(env_id), victim,
            episodes=normalized["eval"]["episodes"],
            seed=normalized["eval"]["seed"],
            attack_policy=attack_policy,
            epsilon=threat.get("epsilon", 0.0),
            norm=threat.get("norm", "linf"),
            on_progress=on_progress)
        return self.cache.store_result(spec, evaluation,
                                       metadata={"lane": "inline"})

    # -- worker lane ---------------------------------------------------------

    def _progress_path(self, key: str) -> Path:
        return self.store.root / "serve" / "progress" / f"{key}.jsonl"

    async def _schedule(self, normalized: dict, key: str, emit) -> dict:
        emit({"event": "scheduled", "lane": "worker", "key": key})
        self._count("serve.scheduled_jobs")
        progress_path = self._progress_path(key)
        progress_path.parent.mkdir(parents=True, exist_ok=True)
        with contextlib.suppress(OSError):
            progress_path.unlink()
        job = Job(fn=compute_request,
                  args=(normalized, str(self.store.root), str(progress_path)),
                  name=f"serve:{key[:12]}",
                  timeout=self.config.job_timeout)
        async with self._worker_slots:
            tail = asyncio.create_task(
                self._tail_progress(progress_path, key, emit))
            try:
                report = await asyncio.to_thread(
                    run_parallel, [job], max_workers=1,
                    retries=self.config.retries,
                    retry_backoff=self.config.retry_backoff,
                    telemetry=self.telemetry,
                    pool=self._worker_pool())
            finally:
                tail.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await tail
        result = report.results[0]
        if not result.ok:
            raise ServeError(result.error or "job failed",
                             error_kind=result.error_kind or "crash")
        return result.value

    async def _tail_progress(self, path: Path, key: str, emit) -> None:
        """Forward the worker's JSONL telemetry stream as progress events."""
        position = 0

        def drain() -> None:
            nonlocal position
            try:
                with open(path, "rb") as fh:
                    fh.seek(position)
                    chunk = fh.read()
            except OSError:
                return
            if not chunk:
                return
            # Only complete lines: a partially flushed line stays for the
            # next poll.
            end = chunk.rfind(b"\n")
            if end < 0:
                return
            position += end + 1
            for line in chunk[:end].splitlines():
                try:
                    event = json.loads(line)
                except json.JSONDecodeError:
                    continue
                emit({"event": "progress", "key": key,
                      "type": event.get("type"),
                      "payload": event.get("payload", {})})

        try:
            while True:
                await asyncio.sleep(self.config.progress_poll)
                drain()
        finally:
            drain()  # the job just finished; flush whatever remains
