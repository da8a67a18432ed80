"""Seeded, context-managed fault injection for envs, workers, and blobs.

The harness is deliberately boring: faults fire at *specified* step
counts or with a ``SeedSequence``-seeded Bernoulli, never from ambient
randomness, so a chaos test that fails replays bit-identically under
``pytest -x``.  Cross-process faults (worker crashes/hangs) count their
firings through ``O_CREAT|O_EXCL`` marker files, the only atomic
"fire exactly N times" primitive that survives fork/spawn boundaries
and scheduler retries.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..envs.core import Env, Wrapper

__all__ = [
    "FAULT_KINDS", "FaultInjectionError", "FaultSpec", "FaultInjector",
    "FaultyEnv", "WorkerFault", "truncate_blob", "truncate_queue_entry",
    "skew_lease",
]

FAULT_KINDS = ("raise", "hang", "nan")


class FaultInjectionError(RuntimeError):
    """The exception deliberately raised by a ``raise``-kind fault."""


@dataclass
class FaultSpec:
    """One fault to inject into ``env.step``.

    ``kind`` — ``raise`` (throw :class:`FaultInjectionError`), ``hang``
    (sleep ``hang_seconds``; pair with a job timeout), or ``nan``
    (poison the returned observation and reward with NaN, the input the
    numerical-health guards must catch).

    Triggering: ``at_step`` fires on that 1-indexed global step count;
    ``probability`` fires per-step from the injector's seeded stream.
    ``once=True`` (default) disarms the spec after its first firing.
    """

    kind: str
    at_step: int | None = None
    probability: float = 0.0
    once: bool = True
    hang_seconds: float = 3600.0
    fired: int = field(default=0, init=False)

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"options: {FAULT_KINDS}")
        if self.at_step is None and self.probability <= 0.0:
            raise ValueError("a FaultSpec needs at_step or probability > 0, "
                             "otherwise it can never fire")

    @property
    def armed(self) -> bool:
        return not (self.once and self.fired > 0)


class FaultInjector:
    """Context manager owning the seeded randomness behind every fault.

    All probabilistic triggers draw from one ``SeedSequence``-derived
    generator, so a given (seed, env trajectory) fires faults at
    identical steps on every run.  Faults only fire while the context is
    active — wrapped envs pass through untouched outside ``with``.
    """

    def __init__(self, seed: int = 0):
        self._rng = np.random.default_rng(np.random.SeedSequence(seed))
        self.active = False
        # Chronological (step, kind) log of every fault fired.
        self.fired: list[tuple[int, str]] = []

    def __enter__(self) -> "FaultInjector":
        self.active = True
        return self

    def __exit__(self, *exc_info) -> None:
        self.active = False

    def wrap_env(self, env: Env, *specs: FaultSpec) -> "FaultyEnv":
        return FaultyEnv(env, self, list(specs))

    def should_fire(self, spec: FaultSpec, step: int) -> bool:
        if not self.active or not spec.armed:
            return False
        if spec.at_step is not None:
            return step == spec.at_step
        return bool(self._rng.random() < spec.probability)

    def record(self, spec: FaultSpec, step: int) -> None:
        spec.fired += 1
        self.fired.append((step, spec.kind))


class FaultyEnv(Wrapper):
    """Env wrapper that perpetrates its injector's faults on ``step``.

    The step counter is global (not per-episode) and 1-indexed: the
    first ``step`` call after construction is step 1.  ``reset`` does
    not reset the counter, so ``at_step`` addresses a unique point in
    the whole trajectory.
    """

    def __init__(self, env: Env, injector: FaultInjector,
                 specs: list[FaultSpec]):
        super().__init__(env)
        self.injector = injector
        self.specs = list(specs)
        self.steps = 0

    def step(self, action):
        self.steps += 1
        obs, reward, terminated, truncated, info = self.env.step(action)
        for spec in self.specs:
            if not self.injector.should_fire(spec, self.steps):
                continue
            self.injector.record(spec, self.steps)
            if spec.kind == "raise":
                raise FaultInjectionError(
                    f"injected env fault at step {self.steps}")
            if spec.kind == "hang":
                time.sleep(spec.hang_seconds)
            elif spec.kind == "nan":
                obs = np.asarray(obs, dtype=np.float64).copy()
                obs[...] = np.nan
                reward = float("nan")
        return obs, reward, terminated, truncated, info


# ------------------------------------------------------------ process faults

def _claim_fire(marker: str, times: int) -> bool:
    """Atomically claim one of ``times`` firing slots for ``marker``.

    ``O_CREAT|O_EXCL`` makes each slot a cross-process compare-and-swap:
    exactly ``times`` claims succeed no matter how many workers race.
    """
    for slot in range(times):
        try:
            os.close(os.open(f"{marker}.fire{slot}",
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            return True
        except FileExistsError:
            continue
    return False


@dataclass
class WorkerFault:
    """Picklable job-function wrapper that sabotages the worker process.

    ``kind``: ``crash`` (``os._exit(exit_code)`` — the process dies with
    no exception, no result; a worker pool replaces the dead worker),
    ``hang`` (sleep before running; pair with a timeout), or ``raise``
    (ordinary in-band exception).  The fault fires on the first
    ``times`` calls *across all processes* (marker-file claimed), after
    which calls run ``fn`` normally — so a scheduler retry of a spent
    fault succeeds.
    """

    fn: callable
    kind: str
    marker: str
    times: int = 1
    hang_seconds: float = 3600.0
    exit_code: int = 13

    def __post_init__(self):
        if self.kind not in ("crash", "hang", "raise"):
            raise ValueError(f"unknown worker fault kind {self.kind!r}; "
                             "options: ('crash', 'hang', 'raise')")

    def __call__(self, *args, **kwargs):
        if _claim_fire(self.marker, self.times):
            if self.kind == "crash":
                os._exit(self.exit_code)
            elif self.kind == "hang":
                time.sleep(self.hang_seconds)
            else:
                raise FaultInjectionError(
                    f"injected worker fault ({self.marker})")
        return self.fn(*args, **kwargs)


# --------------------------------------------------------------- blob faults

def truncate_blob(store, key: str, keep_bytes: int = 16) -> Path:
    """Truncate the blob behind ``key`` to ``keep_bytes``, sidecar intact.

    Simulates a crash or disk-full mid-write that escaped the atomic
    rename: the sidecar still declares the artifact committed while the
    ``.npz`` is garbage.  Returns the truncated blob path.
    """
    blob_path, sidecar_path = store._paths(key)
    if not sidecar_path.exists():
        raise FileNotFoundError(f"no committed artifact for key {key[:12]}…")
    with open(blob_path, "r+b") as fh:
        fh.truncate(keep_bytes)
    return blob_path


# ------------------------------------------------------------- fabric faults

def truncate_queue_entry(queue, job_id: str, keep_bytes: int = 8) -> Path:
    """Truncate a committed fabric queue entry's JSON to ``keep_bytes``.

    Simulates an enqueue commit marker damaged after the fact (bit rot,
    a non-atomic network filesystem): scans must classify the job
    ``queue_corrupt`` and quarantine it rather than wedge on it.
    """
    path = queue._entry_path(job_id)
    if not path.exists():
        raise FileNotFoundError(f"no queue entry for job {job_id}")
    with open(path, "r+b") as fh:
        fh.truncate(keep_bytes)
    return path


def skew_lease(queue, job_id: str, seconds: float) -> Path:
    """Age a job's current lease token by ``seconds`` (mtime into the past).

    Simulates clock skew between hosts: to everyone else the (healthy)
    owner's heartbeat looks ``seconds`` stale, inviting a steal.  The
    fencing protocol must make the *owner* abandon its result — the
    split-brain case where both sides are alive.
    """
    from ..fabric.lease import highest_token

    top = highest_token(queue.lease_dir(job_id))
    if top is None:
        raise FileNotFoundError(f"no lease tokens for job {job_id}")
    _, path = top
    stat = path.stat()
    os.utime(path, (stat.st_atime - seconds, stat.st_mtime - seconds))
    return path
