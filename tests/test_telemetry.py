"""Telemetry subsystem: metrics, events, manifests, timers, wiring."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro import envs
from repro.attacks import AttackConfig, StatePerturbationEnv
from repro.attacks.trainer import AdversaryTrainer
from repro.attacks.imap.regularizers import make_regularizer
from repro.rl import TrainConfig, train_ppo
from repro.runtime import Job, run_parallel
from repro.telemetry import (
    EVENTS_NAME,
    MANIFEST_NAME,
    EwmaTimer,
    Histogram,
    JsonlEventSink,
    ManualClock,
    MemoryEventSink,
    MetricsRegistry,
    RunManifest,
    Telemetry,
    current_telemetry,
    package_versions,
    read_jsonl,
    use_telemetry,
)

# --- metrics ------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_and_gauge(self):
        m = MetricsRegistry()
        m.counter("steps").inc()
        m.counter("steps").inc(41)
        m.gauge("kl").set(0.5)
        m.gauge("kl").set(0.25)
        snap = m.snapshot()
        assert snap["counters"]["steps"] == 42.0
        assert snap["gauges"]["kl"] == 0.25

    def test_ewma_timer_smoothing(self):
        t = EwmaTimer(alpha=0.5)
        t.observe(1.0)
        assert t.ewma == 1.0  # first observation seeds the EWMA
        t.observe(3.0)
        assert t.ewma == 2.0
        assert t.mean == 2.0
        assert t.count == 2

    def test_ewma_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            EwmaTimer(alpha=0.0)

    def test_histogram_summary(self):
        h = Histogram()
        for v in [1.0, 2.0, 3.0, 4.0]:
            h.observe(v)
        out = h.render()
        assert out["count"] == 4
        assert out["min"] == 1.0 and out["max"] == 4.0
        assert out["mean"] == 2.5
        assert out["p50"] == 2.5
        assert h.quantile(0.0) == 1.0 and h.quantile(1.0) == 4.0

    def test_histogram_sample_cap_keeps_moments(self):
        h = Histogram(max_samples=4)
        for v in range(10):
            h.observe(float(v))
        assert len(h.samples) == 4  # capped
        assert h.count == 10        # moments cover everything
        assert h.max == 9.0

    def test_empty_instruments_render(self):
        assert Histogram().render() == {"count": 0}
        assert math.isnan(EwmaTimer().ewma)
        assert MetricsRegistry().snapshot() == {}

    def test_observe_duration_feeds_both(self):
        m = MetricsRegistry()
        m.observe_duration("x", 0.5)
        snap = m.snapshot()
        assert snap["timers"]["x"]["count"] == 1
        assert snap["histograms"]["x"]["count"] == 1

    def test_snapshot_is_json_safe_and_sorted(self):
        m = MetricsRegistry()
        m.counter("b").inc()
        m.counter("a").inc()
        snap = m.snapshot()
        assert list(snap["counters"]) == ["a", "b"]
        json.dumps(snap)  # must not raise


# --- clock --------------------------------------------------------------


class TestManualClock:
    def test_tick_and_auto_tick(self):
        c = ManualClock(10.0)
        assert c.wall() == 10.0
        c.tick(5.0)
        assert c.perf() == 15.0
        auto = ManualClock(0.0, auto_tick=1.0)
        assert [auto.wall(), auto.wall(), auto.perf()] == [0.0, 1.0, 2.0]


# --- event sinks --------------------------------------------------------


class TestJsonlEventSink:
    def test_buffered_roundtrip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlEventSink(path, buffer_size=100)
        sink.emit({"seq": 0, "type": "a", "payload": {"x": 1}})
        assert not path.exists()  # buffered, file created lazily
        sink.close()
        events = read_jsonl(path)
        assert events == [{"seq": 0, "type": "a", "payload": {"x": 1}}]

    def test_flush_threshold(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlEventSink(path, buffer_size=2)
        sink.emit({"seq": 0})
        sink.emit({"seq": 1})  # hits the threshold
        assert len(read_jsonl(path)) == 2
        sink.close()

    def test_emit_after_close_raises(self, tmp_path):
        sink = JsonlEventSink(tmp_path / "e.jsonl")
        sink.close()
        with pytest.raises(ValueError, match="closed"):
            sink.emit({"seq": 0})

    def test_context_manager(self, tmp_path):
        path = tmp_path / "e.jsonl"
        with JsonlEventSink(path) as sink:
            sink.emit({"seq": 0})
        assert len(read_jsonl(path)) == 1

    def test_memory_sink_payload_filter(self):
        sink = MemoryEventSink()
        sink.emit({"seq": 0, "ts": 1.0, "type": "a", "payload": {"x": 1},
                   "perf": {"s": 0.2}})
        sink.emit({"seq": 1, "ts": 2.0, "type": "b", "payload": {}})
        assert sink.payloads("a") == [{"seq": 0, "type": "a", "payload": {"x": 1}}]
        assert len(sink.payloads()) == 2

    def test_concurrent_producers_never_tear_lines(self, tmp_path):
        """Hammer one sink from many threads: every event lands exactly
        once and no JSONL line is torn or interleaved (the serve worker
        pool writes progress streams this way)."""
        import threading

        path = tmp_path / "events.jsonl"
        sink = JsonlEventSink(path, buffer_size=7)  # force mid-storm flushes
        n_threads, per_thread = 8, 200

        def hammer(tid: int) -> None:
            for i in range(per_thread):
                sink.emit({"type": "t", "payload": {"tid": tid, "i": i,
                                                    "pad": "x" * 64}})

        threads = [threading.Thread(target=hammer, args=(t,))
                   for t in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        sink.close()

        # Parse raw lines, not read_jsonl: a torn line must fail loudly.
        lines = path.read_text().splitlines()
        events = [json.loads(line) for line in lines]
        assert len(events) == n_threads * per_thread
        seen = {(e["payload"]["tid"], e["payload"]["i"]) for e in events}
        assert len(seen) == n_threads * per_thread

    def test_concurrent_telemetry_seq_unique(self, tmp_path):
        """Telemetry.event() from many threads: seq numbers never repeat."""
        import threading

        telemetry = Telemetry.in_memory()

        def hammer() -> None:
            for _ in range(300):
                telemetry.event("tick")

        threads = [threading.Thread(target=hammer) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        seqs = [e["seq"] for e in telemetry.sink.events]
        assert len(seqs) == 6 * 300
        assert len(set(seqs)) == len(seqs)


# --- manifest -----------------------------------------------------------


class TestRunManifest:
    def test_lifecycle_and_roundtrip(self, tmp_path):
        clock = ManualClock(100.0)
        m = RunManifest.create("run1", experiment={"what": ["table1"]},
                               seeds=[0, 1], argv=["prog"], clock=clock)
        assert m.status == "running"
        m.record_job("cell-a", ok=True, duration=1.5)
        m.record_job("cell-b", ok=False, error="ValueError: boom", traceback="tb")
        clock.tick(7.0)
        m.finalize("failed", error="1 job failed", clock=clock,
                   metrics={"counters": {"x": 1.0}})
        path = m.write(tmp_path / MANIFEST_NAME)
        loaded = RunManifest.load(path)
        assert loaded.status == "failed"
        assert loaded.duration == 7.0
        assert loaded.seeds == [0, 1]
        assert loaded.jobs[1]["error"] == "ValueError: boom"
        assert loaded.metrics == {"counters": {"x": 1.0}}
        assert set(loaded.versions) == {"python", "numpy", "scipy", "repro"}

    def test_write_is_atomic_replace(self, tmp_path):
        m = RunManifest.create("run1", clock=ManualClock(0.0))
        path = m.write(tmp_path / MANIFEST_NAME)
        m.finalize("ok", clock=ManualClock(1.0))
        m.write(path)
        assert RunManifest.load(path).status == "ok"
        assert [p.name for p in tmp_path.iterdir()] == [MANIFEST_NAME]  # no temp litter

    def test_package_versions_report_reality(self):
        versions = package_versions()
        assert versions["numpy"] == np.__version__


# --- facade ---------------------------------------------------------------


class TestTelemetryFacade:
    def test_event_envelope_and_seq(self):
        t = Telemetry.in_memory(clock=ManualClock(5.0, auto_tick=1.0))
        t.event("a", payload={"x": 1})
        t.event("b", perf={"s": 0.1})
        first, second = t.sink.events
        assert first == {"seq": 0, "ts": 5.0, "type": "a", "payload": {"x": 1}}
        assert second["seq"] == 1 and second["perf"] == {"s": 0.1}

    def test_timer_uses_injected_clock(self):
        clock = ManualClock(0.0)
        t = Telemetry.in_memory(clock=clock)
        with t.timer("stage") as timer:
            clock.tick(2.5)
        assert timer.seconds == 2.5
        assert t.metrics.ewma("stage").ewma == 2.5

    def test_ambient_context(self):
        assert current_telemetry() is None
        t = Telemetry.in_memory()
        with use_telemetry(t):
            assert current_telemetry() is t
            with use_telemetry(None):
                assert current_telemetry() is None
        assert current_telemetry() is None

    def test_exit_failure_finalizes_manifest(self, tmp_path):
        with pytest.raises(RuntimeError):
            with Telemetry.to_dir(tmp_path, run_id="r", clock=ManualClock(0.0)):
                raise RuntimeError("boom")
        manifest = RunManifest.load(tmp_path / MANIFEST_NAME)
        assert manifest.status == "failed"
        assert "RuntimeError: boom" in manifest.error

    def test_to_dir_writes_running_manifest_immediately(self, tmp_path):
        Telemetry.to_dir(tmp_path, run_id="r", clock=ManualClock(0.0))
        assert RunManifest.load(tmp_path / MANIFEST_NAME).status == "running"


# --- schema of a real run -----------------------------------------------


def check_event_schema(events: list[dict]) -> None:
    """Envelope invariants every JSONL trace must satisfy."""
    assert events, "no events recorded"
    for i, event in enumerate(events):
        assert set(event) >= {"seq", "ts", "type", "payload"}, event
        assert event["seq"] == i  # contiguous, strictly increasing
        assert isinstance(event["ts"], float)
        assert isinstance(event["type"], str) and event["type"]
        assert isinstance(event["payload"], dict)


def check_manifest_schema(manifest: RunManifest) -> None:
    assert manifest.status in ("running", "ok", "failed")
    assert set(manifest.versions) == {"python", "numpy", "scipy", "repro"}
    assert manifest.started_at > 0
    for job in manifest.jobs:
        assert set(job) >= {"name", "ok", "duration"}


@pytest.fixture(scope="module")
def small_victim():
    result = train_ppo(envs.make("Hopper-v0"),
                       TrainConfig(iterations=1, steps_per_iteration=256, seed=0))
    result.policy.freeze_normalizer()
    return result.policy


class TestInstrumentedRun:
    def test_attack_run_produces_valid_manifest_and_events(self, tmp_path, small_victim):
        """The acceptance-criteria run: manifest + JSONL with measured
        rollout/update/KNN timings from a real (tiny) IMAP training run."""
        telemetry = Telemetry.to_dir(tmp_path, run_id="imap-test",
                                     experiment={"attack": "imap-pc"}, seeds=[3])
        env = StatePerturbationEnv(envs.make("Hopper-v0"), small_victim,
                                   epsilon=0.6, seed=0)
        config = AttackConfig(iterations=2, steps_per_iteration=128, seed=3)
        trainer = AdversaryTrainer(env, config,
                                   regularizer=make_regularizer("pc", config),
                                   telemetry=telemetry)
        trainer.train()
        telemetry.finalize("ok")

        manifest = RunManifest.load(tmp_path / MANIFEST_NAME)
        check_manifest_schema(manifest)
        assert manifest.status == "ok"
        assert manifest.events_path == EVENTS_NAME
        # measured stage timings made it into the manifest
        timers = manifest.metrics["timers"]
        for stage in ("rollout.collect", "ppo.update", "attack.knn_bonus"):
            assert timers[stage]["count"] >= 2, stage
            assert timers[stage]["total"] > 0.0, stage

        events = read_jsonl(tmp_path / EVENTS_NAME)
        check_event_schema(events)
        types = [e["type"] for e in events]
        assert types.count("rollout.complete") == 2
        assert types.count("attack.iteration") == 2
        iteration = next(e for e in events if e["type"] == "attack.iteration")
        assert {"asr", "j_ap", "tau"} <= set(iteration["payload"])
        assert iteration["perf"]["rollout_s"] > 0.0

    def test_scheduler_records_jobs_and_crashes(self, tmp_path):
        telemetry = Telemetry.to_dir(tmp_path, run_id="sweep", seeds=[0])
        jobs = [Job(fn=_job_ok, args=(2,), name="good"),
                Job(fn=_job_boom, name="bad")]
        report = run_parallel(jobs, max_workers=1, telemetry=telemetry)
        telemetry.finalize("ok" if not report.n_failed else "failed")

        manifest = RunManifest.load(tmp_path / MANIFEST_NAME)
        check_manifest_schema(manifest)
        assert [j["name"] for j in manifest.jobs] == ["good", "bad"]
        assert manifest.jobs[0]["ok"] is True
        assert "RuntimeError" in manifest.jobs[1]["error"]
        assert "injected" in manifest.jobs[1]["traceback"]

        events = read_jsonl(tmp_path / EVENTS_NAME)
        check_event_schema(events)
        finished = [e for e in events if e["type"] == "job.finished"]
        assert [e["payload"]["name"] for e in finished] == ["good", "bad"]
        complete = events[-1]
        assert complete["type"] == "schedule.complete"
        assert complete["payload"] == {"n_jobs": 2, "n_failed": 1}

    def test_scheduler_uses_ambient_telemetry(self):
        t = Telemetry.in_memory()
        with use_telemetry(t):
            run_parallel([Job(fn=_job_ok, args=(1,), name="j")], max_workers=1)
        assert [e["type"] for e in t.sink.events] == ["job.finished",
                                                      "schedule.complete"]

    def test_cli_telemetry_dir_writes_run(self, tmp_path, monkeypatch):
        from repro.experiments import cli

        monkeypatch.setattr(cli, "run_experiment",
                            lambda *a, **k: "stub output")
        assert cli.main(["table1", "--scale", "smoke",
                         "--telemetry-dir", str(tmp_path)]) == 0
        manifest = RunManifest.load(tmp_path / MANIFEST_NAME)
        check_manifest_schema(manifest)
        assert manifest.status == "ok"
        assert manifest.experiment["what"] == ["table1"]
        events = read_jsonl(tmp_path / EVENTS_NAME)
        check_event_schema(events)
        assert [e["type"] for e in events] == ["experiment.start", "experiment.end"]

    def test_cli_default_off_leaves_no_ambient(self, monkeypatch, capsys):
        from repro.experiments import cli

        seen = []
        monkeypatch.setattr(cli, "run_experiment",
                            lambda *a, **k: seen.append(current_telemetry()) or "x")
        assert cli.main(["table1", "--scale", "smoke"]) == 0
        assert seen == [None]


def _job_ok(x, seed=None):
    return x + 1


def _job_boom(seed=None):
    raise RuntimeError("injected crash")
