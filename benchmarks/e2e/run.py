#!/usr/bin/env python3
"""End-to-end benchmark: attack training, evaluation and league sweeps.

Run from the repository root:

    python3 benchmarks/e2e/run.py --seed S [--workload W ...] [--seconds 20]
        [--trace [0|1]] [--quick] [--out FILE]

Each workload runs in a fresh process with a fresh temporary artifact store
and ``REPRO_ARTIFACTS``, so nothing is cached across runs.  For each
workload the runner prints every metric by name with its unit, a digest of
the program's outputs (policy fingerprints, sums of evaluation rewards, the
leaderboard sha256) and, as its last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Untraced runs report
the ``end_to_end`` metrics of ``BENCHMARK.json``; ``--trace 1`` runs
report its ``per_layer`` metrics and write every span to
``.e2e/trace-<workload>-seed<S>.json``.  The exit code is 1 when a
correctness check fails and 2 when a workload crashes or times out.

``--seconds`` sets the amount of work, not a deadline: the plan scales
with it from the reference plan at 20 s, so the same ``--seconds`` and
``--seed`` always do the same work.  ``--quick`` is an eighth of that.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".e2e"
BENCHMARK = ROOT / "BENCHMARK.json"

sys.path.insert(0, str(HERE))
from stats import quantile, tail_percentile  # noqa: E402

WORKLOADS = ("attack-pc", "attack-r-vec4", "eval-mix", "league-16")
REFERENCE_SECONDS = 20.0
CHILD_TIMEOUT_S = 170.0

ENV_ID = "Hopper-v0"
# The victims are the system's fixed models: the zoo's smoke recipe at seed
# 0.  --seed drives everything that runs against them (attacker training,
# vector lanes, evaluation episodes, league evaluation seeds), so every seed
# does the same amount of work while no two seeds share inputs.
VICTIM_SEED = 0
SAMPLES_PER_ITERATION = 2048
EVAL_EPISODES = 8
PGD_EPISODES = 4
PGD_STEPS = 5
ATTACKER_SETUP_ITERATIONS = 3
# Six black-box requests round-robin over three attacks, then one PGD request.
REQUEST_PATTERN = ("clean", "random", "imap", "clean", "random", "imap", "pgd")
LEAGUE_VICTIMS = ("Hopper-v0:ppo", "Hopper-v0:atla")
LEAGUE_ATTACKERS = ("random", "sarl", "imap-sc", "imap-pc", "imap-r", "imap-d",
                    "pgd", "st-pgd")
QUICK_LEAGUE_ATTACKERS = ("random", "imap-pc", "pgd", "st-pgd")
LEAGUE_JOBS = 2


@dataclass(frozen=True)
class Plan:
    """How much work one run does; a pure function of ``--seconds``."""

    victim_setups: int   # attack-* set-ups: a victim each (about 0.5 s)
    iterations: int      # attack-* training iterations
    attacker_setups: int  # eval-mix set-ups: a victim and an attacker each
    requests: int        # eval-mix timed requests
    leagues: int         # league-16 cold leagues, each on a set-up of its own
    attackers: tuple     # league-16 roster
    replays: int         # league-16 replays after each cold league


def plan_for(seconds: float) -> Plan:
    k = seconds / REFERENCE_SECONDS
    full = k >= 0.5
    return Plan(
        victim_setups=5 if full else 1,
        iterations=max(2, round(32 * k)),
        attacker_setups=3 if full else 1,
        requests=max(len(REQUEST_PATTERN), round(56 * k)),
        leagues=2 if full else 1,
        attackers=LEAGUE_ATTACKERS if full else QUICK_LEAGUE_ATTACKERS,
        replays=max(2, round(100 * k)),
    )


def host_probe_ms() -> float:
    """Wall time of a fixed pure-Python plus numpy kernel (host speed)."""
    import numpy as np

    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    a = np.linspace(-1.0, 1.0, 128 * 128).reshape(128, 128)
    for _ in range(40):
        a = np.tanh(a @ a.T * 1e-2)
    return (time.perf_counter() - start) * 1e3


# --------------------------------------------------------------------- child


class Run:
    """State of one workload run: plan, timings, checks and tracing."""

    def __init__(self, seed: int, seconds: float, traced: bool):
        from repro.telemetry import Telemetry

        self.seed = seed
        self.plan = plan_for(seconds)
        self.tracer = None
        self.telemetry = Telemetry.in_memory() if traced else None
        if traced:
            from tracing import Tracer

            self.tracer = Tracer()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.setup_s: list[float] = []
        self.setup_victim_s: list[float] = []
        self.setup_attacker_s: list[float] = []
        self.op_s: list[float] = []
        self.rates: list[float] = []
        self.measured_s = 0.0
        self.digest: dict = {}
        self.layers: dict[str, float] = {}

    def attempt(self, ok: bool, message: str) -> bool:
        """Count one operation or check; record it as failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(message)
        return ok

    def new_store(self):
        from repro.store import ArtifactStore

        return ArtifactStore(tempfile.mkdtemp(prefix="store-"))

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def hook(self, owner, attr: str, name: str) -> None:
        if self.tracer:
            self.tracer.hook(owner, attr, name)

    def next_trace(self) -> None:
        if self.tracer:
            self.tracer.next_trace()

    def tensors(self) -> int:
        return self.tracer.counts.get("nn.tensors", 0) if self.tracer else 0

    def measured(self):
        """Ambient telemetry for the measured section of a traced run."""
        from repro.telemetry import use_telemetry

        return use_telemetry(self.telemetry) if self.telemetry else nullcontext()

    def install_global_hooks(self) -> None:
        """Class- and module-level hooks shared by every workload."""
        if not self.tracer:
            return
        import repro.attacks.trainer as attack_trainer
        import repro.league.runner as league_runner
        import repro.runtime.collector as vec_collector
        from repro.attacks import PgdAttack, StatePerturbationEnv
        from repro.nn import Tensor
        from repro.runtime import SyncVectorEnv

        tracer = self.tracer
        tracer.hook(StatePerturbationEnv, "step", "threat_models.step")
        tracer.hook(SyncVectorEnv, "step", "vec_env.step")
        tracer.hook(attack_trainer, "collect_adversary_rollout", "collector")
        tracer.hook(vec_collector, "collect_adversary_rollout_vec", "collector")
        tracer.hook(PgdAttack, "action", "pgd.action")
        tracer.hook(league_runner, "run_parallel", "scheduler.run_parallel")
        tracer.count(Tensor, "__init__", "nn.tensors")

    def hook_victim(self, victim) -> None:
        self.hook(victim, "distribution", "victim.distribution")
        self.hook(victim, "act", "victim.act")

    def hook_env(self, env) -> None:
        self.hook(env, "step", "envs.step")
        self.hook(env, "reset", "envs.reset")

    def set_up(self, build, count: int) -> list:
        """Run ``build(store)`` ``count`` times, each on a fresh store."""
        results = []
        for _ in range(count):
            store = self.new_store()
            self.setup_victim_s.append(0.0)
            start = time.perf_counter()
            results.append(build(store))
            self.setup_s.append(time.perf_counter() - start)
        return results

    def train_victim(self, store, defense: str = "ppo"):
        """Train a victim inside :meth:`set_up`, adding to its victim time."""
        from repro.experiments.config import SCALES
        from repro.experiments.runner import victim_for

        start = time.perf_counter()
        with self.span("setup.victim_train"):
            victim = victim_for(ENV_ID, defense, SCALES["smoke"], seed=VICTIM_SEED,
                                store=store)
        self.setup_victim_s[-1] += time.perf_counter() - start
        return victim

    def check_same(self, values: list, what: str) -> None:
        self.attempt(len(set(values)) == 1, f"set-ups disagree on {what}: {values}")


def fingerprint(policy) -> str:
    from repro.store import state_fingerprint

    return state_fingerprint(policy.checkpoint_state())


def all_finite(values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


def run_attack(run: Run, regularizer_name: str, n_envs: int) -> None:
    """IMAP training against the victim: one 2048-sample batch per iteration."""
    import numpy as np

    from repro.attacks import AdversaryTrainer, AttackConfig, default_epsilon
    from repro.attacks.imap import make_regularizer
    from repro.experiments.runner import make_adversary_env
    from repro.runtime import VectorEnv

    victims = run.set_up(run.train_victim, run.plan.victim_setups)
    run.check_same([fingerprint(v) for v in victims], "the victim")
    victim = victims[-1]
    env = make_adversary_env(ENV_ID, victim, default_epsilon(ENV_ID),
                             seed=run.seed, n_envs=n_envs)
    config = AttackConfig(iterations=run.plan.iterations,
                          steps_per_iteration=SAMPLES_PER_ITERATION, seed=run.seed)
    regularizer = make_regularizer(regularizer_name, config)
    run.install_global_hooks()
    run.hook_victim(victim)
    for lane in (env.envs if isinstance(env, VectorEnv) else [env]):
        run.hook_env(lane.env)
    with run.measured():
        trainer = AdversaryTrainer(env, config, regularizer,
                                   name=f"IMAP-{regularizer_name.upper()}")
        run.hook(trainer.policy, "act", "policy.act")
        run.hook(trainer.policy, "act_batch", "policy.act_batch")
        run.hook(trainer.updater, "update", "ppo.update")
        run.hook(regularizer, "compute", "imap.compute")
        run.hook(regularizer, "after_update", "imap.after_update")
        marks = [time.perf_counter()]

        def on_iteration(iteration, policy, record):
            marks.append(time.perf_counter())
            numbers = [v for v in record.values() if isinstance(v, (int, float))]
            ok = (record["samples"] == SAMPLES_PER_ITERATION and all_finite(numbers)
                  and all(np.isfinite(p.data).all() for p in policy.parameters()))
            run.attempt(ok, f"iteration {iteration}: {record['samples']} samples, "
                            f"finite={ok}")
            run.next_trace()

        tensors = run.tensors()
        start = marks[0]
        with run.span("attack.train"):
            result = trainer.train(callback=on_iteration)
        run.measured_s = time.perf_counter() - start
    samples = SAMPLES_PER_ITERATION * run.plan.iterations
    run.attempt(len(marks) == run.plan.iterations + 1,
                f"{len(marks) - 1} of {run.plan.iterations} iterations reported")
    run.op_s = [b - a for a, b in zip(marks, marks[1:])]
    run.rates = [samples / run.measured_s]
    run.layers["nn.tensors_per_sample"] = (run.tensors() - tensors) / samples
    run.digest = {"victim": fingerprint(victim), "policy": fingerprint(result.policy)}


def run_eval_mix(run: Run) -> None:
    """Round-robin evaluation requests: clean, random, IMAP-PC and PGD."""
    from repro.attacks import (AdversaryTrainer, AttackConfig, PgdAttack,
                               RandomAttackPolicy, default_epsilon)
    from repro.attacks.imap import make_regularizer
    from repro.envs import make
    from repro.eval import evaluate_single_agent
    from repro.experiments.runner import make_adversary_env

    epsilon = default_epsilon(ENV_ID)

    def build(store):
        victim = run.train_victim(store)
        start = time.perf_counter()
        with run.span("setup.attacker_train"):
            config = AttackConfig(iterations=ATTACKER_SETUP_ITERATIONS,
                                  steps_per_iteration=SAMPLES_PER_ITERATION,
                                  seed=run.seed)
            attacker = AdversaryTrainer(
                make_adversary_env(ENV_ID, victim, epsilon, seed=run.seed),
                config, make_regularizer("pc", config), name="IMAP-PC",
            ).train().policy
        run.setup_attacker_s.append(time.perf_counter() - start)
        return victim, attacker

    built = run.set_up(build, run.plan.attacker_setups)
    run.check_same([fingerprint(v) + fingerprint(a) for v, a in built],
                   "the victim and attacker")
    victim, attacker = built[-1]
    obs_dim = make(ENV_ID).observation_space.shape[0]

    def request(kind: str, seed: int, episodes: int, traced: bool = True):
        env = make(ENV_ID)
        if kind == "clean":
            policy = None
        elif kind == "random":
            policy = RandomAttackPolicy(obs_dim, seed=seed)
        elif kind == "imap":
            policy = attacker
        else:
            policy = PgdAttack(victim, steps=PGD_STEPS, seed=seed)
        if traced:
            run.hook_env(env)
            if kind == "random":
                run.hook(policy, "action", "attacker.action")
        with run.span("eval.request") if traced else nullcontext():
            return evaluate_single_agent(
                env, victim, policy, epsilon=0.0 if policy is None else epsilon,
                episodes=episodes, seed=seed, attack_deterministic=kind != "random")

    for kind in sorted(set(REQUEST_PATTERN)):  # untimed warm-up
        request(kind, seed=10_000_000 + run.seed, episodes=1, traced=False)

    run.install_global_hooks()
    run.hook_victim(victim)
    run.hook(attacker, "action", "attacker.action")
    sums = {kind: 0.0 for kind in REQUEST_PATTERN}
    steps = 0
    with run.measured():
        tensors = run.tensors()
        for i in range(run.plan.requests):
            kind = REQUEST_PATTERN[i % len(REQUEST_PATTERN)]
            asked = PGD_EPISODES if kind == "pgd" else EVAL_EPISODES
            run.next_trace()
            start = time.perf_counter()
            result = request(kind, seed=10_000 * run.seed + i, episodes=asked)
            run.op_s.append(time.perf_counter() - start)
            rewards = result.episode_rewards
            run.attempt(len(rewards) == asked and all_finite(rewards),
                        f"request {i} ({kind}): {len(rewards)} of {asked} episodes")
            sums[kind] += float(sum(rewards))
            steps += sum(result.episode_lengths)
    run.measured_s = sum(run.op_s)
    run.rates = [steps / run.measured_s]
    run.layers["nn.tensors_per_step"] = (run.tensors() - tensors) / steps
    run.digest = {"victim": fingerprint(victim), "attacker": fingerprint(attacker),
                  "reward_sums": {k: repr(v) for k, v in sorted(sums.items())}}


def run_league_16(run: Run) -> None:
    """A cold league at smoke scale, then replays served from the store."""
    from repro.league.runner import run_league
    from repro.league.spec import LeagueConfig

    config = LeagueConfig(attackers=run.plan.attackers, victims=LEAGUE_VICTIMS,
                          scale="smoke", seed=VICTIM_SEED, eval_seed=1000 + run.seed)
    matches = len(config.attackers) * len(config.victims)

    def build(store):
        victims = [run.train_victim(store, name.partition(":")[2])
                   for name in LEAGUE_VICTIMS]
        return store, victims

    built = run.set_up(build, run.plan.leagues)
    run.check_same([tuple(fingerprint(v) for v in victims) for _, victims in built],
                   "the victims")
    run.install_global_hooks()
    boards = []
    with run.measured():
        for index, (store, _) in enumerate(built):
            run.hook(store, "get", "store.get")
            run.hook(store, "put", "store.put")
            out_dir = Path(tempfile.mkdtemp(prefix=f"league{index}-"))
            run.next_trace()
            start = time.perf_counter()
            with run.span("league.loop"):
                cold = run_league(config, store=store, out_dir=out_dir, jobs=LEAGUE_JOBS)
            wall = time.perf_counter() - start
            run.measured_s += wall
            run.rates.append(matches / wall)
            board = (out_dir / "leaderboard.json").read_bytes()
            boards.append(board)
            run.attempt(cold.matches_scheduled == matches and cold.matches_failed == 0,
                        f"cold league {index}: {cold.matches_scheduled} scheduled, "
                        f"{cold.matches_failed} failed")
            for replay in range(run.plan.replays):
                run.next_trace()
                start = time.perf_counter()
                with run.span("league.loop"):
                    again = run_league(config, store=store, out_dir=out_dir,
                                       jobs=LEAGUE_JOBS)
                run.op_s.append(time.perf_counter() - start)
                run.attempt(again.matches_scheduled == 0 and again.matches_failed == 0
                            and again.matches_cached == matches
                            and (out_dir / "leaderboard.json").read_bytes() == board,
                            f"replay {replay} of league {index}: "
                            f"{again.matches_scheduled} scheduled")
        run.measured_s += sum(run.op_s)
    run.check_same([hashlib.sha256(b).hexdigest() for b in boards], "the leaderboard")
    run.layers["store.bytes"] = built[-1][0].total_bytes()
    run.digest = {"victims": [fingerprint(v) for v in built[-1][1]],
                  "leaderboard_sha256": hashlib.sha256(boards[-1]).hexdigest()}


RUNNERS = {
    "attack-pc": lambda run: run_attack(run, "pc", n_envs=1),
    "attack-r-vec4": lambda run: run_attack(run, "r", n_envs=4),
    "eval-mix": run_eval_mix,
    "league-16": run_league_16,
}


def end_to_end_values(run: Run) -> dict[str, float]:
    return {
        "setup_s": statistics.median(run.setup_s),
        "work_per_s": statistics.median(run.rates),
        "op_ms_p10": quantile(run.op_s, 0.1) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def latency_diagnostics(op_s: list[float]) -> dict:
    """Median and tail of the operation times: diagnostics, not metrics.

    On a shared 2-vCPU VM, other tenants slow a thread by about 1.5x (in
    CPU time as well as wall time) in phases lasting seconds, so the median
    of short operations flips between the two speeds from run to run; the
    10th percentile does not.  The tail is the highest percentile with ten
    operations beyond it, when there is one.
    """
    rank, tail = tail_percentile(op_s) if len(op_s) > 10 else (None, None)
    return {"op_ms_p50": statistics.median(op_s) * 1e3,
            "op_ms_tail": None if tail is None else tail * 1e3,
            "op_tail_percentile": rank}


def per_layer_values(run: Run) -> dict[str, float]:
    summary = run.tracer.summary()
    snapshot = run.telemetry.metrics.snapshot()
    counters = snapshot.get("counters", {})
    histograms = snapshot.get("histograms", {})

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def self_s(*names):
        return sum(summary.get(n, {}).get("self_s", 0.0) for n in names)

    def total_s(name):
        return summary.get(name, {}).get("total_s", 0.0)

    def counter(name):
        return counters.get(name, 0)

    job_s_sum = histograms.get("scheduler.job", {}).get("sum", 0.0)
    schedule_wall = total_s("scheduler.run_parallel")

    def median_or_zero(values):
        return statistics.median(values) if values else 0.0

    return {
        "policy.act.calls": calls("policy.act"),
        "policy.act.self_s": self_s("policy.act"),
        "policy.act_batch.calls": calls("policy.act_batch"),
        "policy.act_batch.self_s": self_s("policy.act_batch"),
        "nn.tensors_per_sample": run.layers.get("nn.tensors_per_sample", 0.0),
        "victim.forward.calls": calls("victim.distribution"),
        "victim.forward.self_s": self_s("victim.distribution", "victim.act"),
        "threat_models.step.self_s": self_s("threat_models.step"),
        "envs.step.calls": calls("envs.step"),
        "envs.step.self_s": self_s("envs.step"),
        "envs.reset.calls": calls("envs.reset"),
        "collector.self_s": self_s("collector"),
        "vec_env.step.self_s": self_s("vec_env.step"),
        "imap.compute.self_s": self_s("imap.compute"),
        "imap.after_update.self_s": self_s("imap.after_update"),
        "density.index.rebuilds": counter("density.index.rebuilds"),
        "density.index.query_chunks": counter("density.index.query_chunks"),
        "density.index.pending_hits": counter("density.index.pending_hits"),
        "ppo.update.calls": calls("ppo.update"),
        "ppo.update.self_s": self_s("ppo.update"),
        "ppo.minibatch_updates": counter("ppo.minibatch_updates"),
        "trainer.unattributed_s": self_s("attack.train"),
        "trainer.wall_s": total_s("attack.train"),
        "eval.request.self_s": self_s("eval.request"),
        "attacker.action.calls": calls("attacker.action"),
        "attacker.action.self_s": self_s("attacker.action"),
        "pgd.action.calls": calls("pgd.action"),
        "pgd.action.self_s": self_s("pgd.action"),
        "nn.tensors_per_step": run.layers.get("nn.tensors_per_step", 0.0),
        "scheduler.jobs_ok": counter("scheduler.jobs_ok"),
        "scheduler.jobs_failed": counter("scheduler.jobs_failed"),
        "scheduler.retries": counter("scheduler.retries"),
        "scheduler.job_s_sum": job_s_sum,
        "scheduler.idle_frac": (1.0 - job_s_sum / (LEAGUE_JOBS * schedule_wall)
                                if schedule_wall else 0.0),
        "store.get.calls": calls("store.get"),
        "store.get.self_s": self_s("store.get"),
        "store.put.calls": calls("store.put"),
        "store.put.self_s": self_s("store.put"),
        "store.hits": counter("store.hits"),
        "store.misses": counter("store.misses"),
        "store.bytes": run.layers.get("store.bytes", 0),
        "league.loop.self_s": self_s("league.loop"),
        "league.matches_cached": counter("league.matches_cached"),
        "league.matches_scheduled": counter("league.matches_scheduled"),
        "setup.victim_train_s": median_or_zero(run.setup_victim_s),
        "setup.attacker_train_s": median_or_zero(run.setup_attacker_s),
    }


def child_main(args) -> int:
    sys.path.insert(0, str(SRC))
    probe_before = [host_probe_ms() for _ in range(3)]
    run = Run(args.seed, args.seconds, traced=bool(args.trace))
    try:
        RUNNERS[args.child](run)
    finally:
        if run.tracer:
            run.tracer.restore()
    probe_after = [host_probe_ms() for _ in range(3)]
    spec = json.loads(BENCHMARK.read_text())
    key = "per_layer" if args.trace else "end_to_end"
    values = per_layer_values(run) if args.trace else end_to_end_values(run)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[key]}
    if run.tracer:
        run.tracer.write(WORK / f"trace-{args.child}-seed{args.seed}.json")
    record = {
        "workload": args.child, "seed": args.seed, "seconds": args.seconds,
        "trace": int(bool(args.trace)),
        "correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
        "metrics": metrics, "digest": run.digest, "errors": run.errors,
        "diagnostics": {
            "host_probe_ms": statistics.median(probe_before + probe_after),
            "host_probe_ms_before": statistics.median(probe_before),
            "host_probe_ms_after": statistics.median(probe_after),
            "measured_s": run.measured_s,
            "operations": len(run.op_s),
            "op_s": run.op_s,
            **latency_diagnostics(run.op_s),
            "setup_s": run.setup_s,
        },
    }
    Path(args.result).write_text(json.dumps(record))
    return 0


# -------------------------------------------------------------- orchestrator


def run_child(workload: str, args) -> dict | None:
    """Run one workload in a fresh process; None when it crashed or hung."""
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    (scratch / "tmp").mkdir()
    result = scratch / "result.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["REPRO_ARTIFACTS"] = str(scratch / "artifacts")
    env["TMPDIR"] = str(scratch / "tmp")
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--result", str(result)]
    # A process group of its own, so a hung workload is killed with every
    # worker process it started.
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, start_new_session=True)
    try:
        proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"[e2e] {workload}: timed out after {CHILD_TIMEOUT_S:.0f} s",
              file=sys.stderr)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    try:
        if proc.returncode != 0 or not result.exists():
            print(f"[e2e] {workload}: exited with code {proc.returncode}",
                  file=sys.stderr)
            return None
        return json.loads(result.read_text())
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def report(record: dict) -> None:
    print(f"[e2e] {record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']:g} trace={record['trace']}")
    for name, metric in record["metrics"].items():
        print(f"  {name:<28} {metric['value']:>14.6g} {metric['unit']}")
    diagnostics = record["diagnostics"]
    print(f"  diagnostics: host_probe_ms={diagnostics['host_probe_ms']:.2f} "
          f"(before {diagnostics['host_probe_ms_before']:.2f}, after "
          f"{diagnostics['host_probe_ms_after']:.2f}) "
          f"measured_s={diagnostics['measured_s']:.3f} "
          f"operations={diagnostics['operations']}")
    tail = diagnostics["op_ms_tail"]
    print(f"  diagnostics: op_ms_p50={diagnostics['op_ms_p50']:.3f} op_ms_tail="
          + ("n/a" if tail is None else
             f"{tail:.3f} (p{diagnostics['op_tail_percentile']:.1f})"))
    print(f"  digest: {json.dumps(record['digest'], sort_keys=True)}")
    for error in record["errors"]:
        print(f"  FAILED CHECK: {error}")
    print(json.dumps({key: record[key]
                      for key in ("correct", "attempted", "failed", "metrics")}),
          flush=True)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=REFERENCE_SECONDS,
                        help="work budget; the plan scales from the 20 s reference")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: report per-layer metrics from spans")
    parser.add_argument("--quick", action="store_true",
                        help="an eighth of the --seconds budget (tests, CI)")
    parser.add_argument("--out", help="append one JSON line per workload run here")
    parser.add_argument("--child", choices=WORKLOADS, help=argparse.SUPPRESS)
    parser.add_argument("--result", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    if args.quick:
        args.seconds /= 8
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if not (SRC / "repro").is_dir():
        print(f"[e2e] no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    status = 0
    for workload in args.workload or WORKLOADS:
        record = run_child(workload, args)
        if record is None:
            status = 2
            continue
        report(record)
        if args.out:
            with open(args.out, "a") as out:
                out.write(json.dumps(record) + "\n")
        if not record["correct"] and status == 0:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
