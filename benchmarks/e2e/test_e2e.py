"""Tests for the end-to-end benchmark (outside the tier-1 test paths).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types

import pytest

import compare
import run
from stats import quantile, tail_percentile
from tracing import Tracer, covered_length, self_times

SPEC = json.loads(run.BENCHMARK.read_text())


# ------------------------------------------------------------- percentiles


def test_tail_percentile_leaves_ten_samples_beyond():
    values = [float(v) for v in range(30, 0, -1)]
    rank, value = tail_percentile(values)
    assert value == 20.0
    assert sum(v > value for v in values) == 10
    assert rank == pytest.approx(200 / 3)
    assert tail_percentile(list(range(11))) == (100 / 11, 0)
    with pytest.raises(ValueError):
        tail_percentile(list(range(10)))


def test_quantile_interpolates():
    assert quantile([4.0, 1.0, 3.0, 2.0], 0.5) == 2.5
    assert quantile([1.0, 2.0], 0.1) == pytest.approx(1.1)


# --------------------------------------------------------------- self time


def test_self_time_subtracts_nested_and_sibling_children():
    spans = [
        ["root", 0.0, 10.0, -1, 1],
        ["a", 1.0, 3.0, 0, 1],
        ["a.inner", 1.5, 2.5, 1, 1],
        ["b", 4.0, 8.0, 0, 1],
        ["root2", 20.0, 21.0, -1, 2],
    ]
    assert self_times(spans) == [4.0, 1.0, 1.0, 4.0, 1.0]


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(1, 3), (2, 4), (6, 12)], 0, 10) == 7


def test_tracer_records_parents_traces_and_threads():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("outer"):
        tracer.next_trace()
        with tracer.span("inner"):
            pass
    summary = tracer.summary()
    assert summary["outer"] == {"calls": 1, "self_s": 2.0, "total_s": 3.0}
    assert summary["inner"] == {"calls": 1, "self_s": 1.0, "total_s": 1.0}
    spans = tracer._threads[0]
    assert [s[3] for s in spans] == [-1, 0]
    assert [s[4] for s in spans] == [0, 1]


# ------------------------------------------------------------------- hooks


class Base:
    def inherited(self):
        return "base"


class Thing(Base):
    def step(self, x):
        return x + 1


def test_hooks_restore_every_wrapped_attribute():
    module = types.ModuleType("fake")
    module.helper = lambda x: x * 2
    original_step = Thing.__dict__["step"]
    original_helper = module.helper
    thing = Thing()
    tracer = Tracer()
    tracer.hook(thing, "step", "instance")
    tracer.hook(Thing, "step", "class")
    tracer.hook(Thing, "inherited", "inherited")
    tracer.hook(module, "helper", "module")
    tracer.count(Thing, "__init__", "inits")
    other = Thing()
    assert thing.step(1) == 2 and other.step(1) == 2 and other.inherited() == "base"
    assert module.helper(2) == 4
    summary = tracer.summary()
    assert {name: row["calls"] for name, row in summary.items()} == {
        "instance": 1, "class": 1, "inherited": 1, "module": 1}
    assert tracer.counts["inits"] == 1
    tracer.restore()
    assert "step" not in vars(thing)
    assert Thing.__dict__["step"] is original_step
    assert "inherited" not in vars(Thing) and "__init__" not in vars(Thing)
    assert module.helper is original_helper


def test_benchmark_hooks_leave_the_program_as_it_was():
    import repro.attacks.trainer as attack_trainer
    import repro.league.runner as league_runner
    import repro.runtime.collector as vec_collector
    from repro.attacks import PgdAttack, StatePerturbationEnv
    from repro.nn import Tensor
    from repro.runtime import SyncVectorEnv

    owners = [StatePerturbationEnv, SyncVectorEnv, PgdAttack, Tensor,
              attack_trainer, league_runner, vec_collector]
    before = [dict(vars(owner)) for owner in owners]
    traced = run.Run(seed=0, seconds=2.5, traced=True)
    traced.install_global_hooks()
    assert Tensor.__dict__["__init__"] is not before[3]["__init__"]
    traced.tracer.restore()
    after = [dict(vars(owner)) for owner in owners]
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        assert all(old[key] is new[key] for key in old)


# ---------------------------------------------------------------- counting


def test_attempt_counts_operations_and_failures():
    counted = run.Run(seed=0, seconds=2.5, traced=False)
    assert counted.attempt(True, "fine")
    assert not counted.attempt(False, "request 3: 7 of 8 episodes")
    counted.check_same(["x", "x"], "the victim")
    counted.check_same(["x", "y"], "the victim")
    assert (counted.attempted, counted.failed) == (4, 2)
    assert counted.errors[0] == "request 3: 7 of 8 episodes"


def test_quick_plan_is_an_eighth():
    full, quick = run.plan_for(20.0), run.plan_for(2.5)
    assert (full.iterations, full.requests, full.replays) == (32, 56, 100)
    assert (quick.iterations, quick.requests, quick.replays) == (4, 7, 12)


# ----------------------------------------------------------------- compare


def test_compare_verdicts():
    a = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0]
    assert compare.verdict(a, [v * 0.8 for v in a], "lower", 0.05)[0] == "better"
    assert compare.verdict(a, [v * 1.01 for v in a], "lower", 0.05)[0] == "same"
    assert compare.verdict(a, [v * 1.2 for v in a], "lower", 0.05)[0] == "worse"
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 90.0]
    assert compare.verdict(a, noisy, "lower", 0.05)[0] == "unresolved"
    assert compare.verdict(a, [v * 1.2 for v in a], "higher", None)[0] == "better"


# --------------------------------------------------------------- end to end


def invoke(*args):
    return subprocess.run([sys.executable, str(run.HERE / "run.py"), *args],
                          cwd=run.ROOT, capture_output=True, text=True, timeout=170)


@pytest.mark.slow
def test_quick_runs_emit_every_metric_with_its_unit(tmp_path):
    out = tmp_path / "runs.jsonl"
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        done = invoke("--quick", "--seed", "1", "--trace", trace, "--out", str(out))
        assert done.returncode == 0, done.stderr
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        results = [json.loads(line) for line in done.stdout.splitlines()
                   if line.startswith("{")]
        assert len(results) == len(run.WORKLOADS)
        assert json.loads(done.stdout.splitlines()[-1]) == results[-1]
        for result in results:
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0
            assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    records = [json.loads(line) for line in out.read_text().splitlines()]
    for workload in run.WORKLOADS:
        digests = {json.dumps(r["digest"], sort_keys=True)
                   for r in records if r["workload"] == workload}
        assert len(digests) == 1, f"{workload}: traced and untraced digests differ"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.BENCHMARK, tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(run.ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "benchmarks/e2e/run.py", "--workload",
                           "attack-pc", "--seed", "0", "--seconds", "20",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=170)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
