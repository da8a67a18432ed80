"""Attack league: spec identity, Elo determinism, cache-hit replay,
execution-lane equivalence, counter-training, and the CLI."""

from __future__ import annotations

import json
import multiprocessing
import time

import numpy as np
import pytest

from repro.league import (
    LeagueConfig,
    MatchOutcome,
    fold_elo,
    leaderboard_bytes,
    league_key,
    match_spec,
    run_league,
)
from repro.league.spec import (
    base_entrant,
    config_from_doc,
    config_to_doc,
    parse_attacker_name,
    parse_victim_name,
)
from repro.store import ArtifactStore, spec_key
from repro.telemetry import Telemetry, use_telemetry

SMALL = dict(attackers=("random", "pgd"), victims=("Hopper-v0:ppo",),
             rounds=1, pgd_steps=2)


def _counter_value(telemetry, name):
    return telemetry.metrics.counter(name).value


class TestElo:
    OUTCOMES = [
        MatchOutcome(round=0, attack="pgd", victim="Hopper-v0:ppo",
                     asr=0.8, victim_reward=10.0),
        MatchOutcome(round=0, attack="random", victim="Hopper-v0:ppo",
                     asr=0.2, victim_reward=90.0),
        MatchOutcome(round=0, attack="pgd", victim="Hopper-v0:atla",
                     asr=0.4, victim_reward=50.0),
        MatchOutcome(round=0, attack="random", victim="Hopper-v0:atla",
                     asr=0.1, victim_reward=95.0),
    ]

    def test_fold_is_input_order_independent(self):
        forward = fold_elo(self.OUTCOMES)
        backward = fold_elo(list(reversed(self.OUTCOMES)))
        assert forward == backward

    def test_fold_is_zero_sum(self):
        ratings = fold_elo(self.OUTCOMES, initial=1000.0)
        assert sum(ratings.values()) == pytest.approx(1000.0 * len(ratings))

    def test_stronger_attacker_rates_higher(self):
        ratings = fold_elo(self.OUTCOMES)
        assert ratings["pgd"] > ratings["random"]
        assert ratings["Hopper-v0:atla"] > ratings["Hopper-v0:ppo"]

    def test_leaderboard_bytes_are_canonical(self):
        doc = {"kind": "league_leaderboard", "b": 1, "a": 2}
        assert leaderboard_bytes(doc) == leaderboard_bytes(
            {"a": 2, "b": 1, "kind": "league_leaderboard"})
        assert leaderboard_bytes(doc).endswith(b"\n")


class TestSpec:
    def test_match_key_excludes_round(self):
        config = LeagueConfig(**SMALL)
        entrant = base_entrant(config, "Hopper-v0:ppo")
        doc = match_spec(config, entrant, "pgd")
        assert "round" not in doc
        assert spec_key(doc) == spec_key(match_spec(config, entrant, "pgd"))

    def test_attack_knobs_enter_identity(self):
        entrant = base_entrant(LeagueConfig(**SMALL), "Hopper-v0:ppo")
        a = match_spec(LeagueConfig(**SMALL), entrant, "pgd")
        b = match_spec(LeagueConfig(**{**SMALL, "pgd_steps": 3}), entrant, "pgd")
        assert spec_key(a) != spec_key(b)
        # ...but only for the attackers they parameterize.
        a = match_spec(LeagueConfig(**SMALL), entrant, "random")
        b = match_spec(LeagueConfig(**{**SMALL, "pgd_steps": 3}), entrant, "random")
        assert spec_key(a) == spec_key(b)

    def test_config_doc_round_trip(self):
        config = LeagueConfig(**{**SMALL, "counter_training": True})
        assert config_from_doc(config_to_doc(config)) == config

    def test_league_key_ignores_roster_order(self):
        ab = LeagueConfig(**{**SMALL, "attackers": ("random", "pgd")})
        ba = LeagueConfig(**{**SMALL, "attackers": ("pgd", "random")})
        assert league_key(ab) == league_key(ba)

    def test_validation(self):
        with pytest.raises(ValueError, match="env_id.*:.*defense"):
            parse_victim_name("Hopper-v0")
        with pytest.raises(ValueError, match="unknown defense"):
            parse_victim_name("Hopper-v0:nope")
        with pytest.raises(ValueError):
            parse_attacker_name("gan")
        with pytest.raises(ValueError, match="rounds"):
            LeagueConfig(**{**SMALL, "rounds": 0})
        with pytest.raises(ValueError, match="scale"):
            LeagueConfig(**{**SMALL, "scale": "galactic"})


class TestLeagueReplay:
    def test_replay_schedules_nothing_and_is_byte_identical(self, tmp_path):
        config = LeagueConfig(**SMALL)
        store = ArtifactStore(tmp_path / "store")
        first_telemetry = Telemetry.in_memory()
        with use_telemetry(first_telemetry):
            first = run_league(config, store=store, out_dir=tmp_path / "out")
        assert first.matches_scheduled == 2
        assert first.matches_cached == 0
        assert first.matches_failed == 0
        assert _counter_value(first_telemetry, "league.matches_scheduled") == 2
        first_bytes = (tmp_path / "out" / "leaderboard.json").read_bytes()
        assert leaderboard_bytes(first.leaderboard) == first_bytes

        replay_telemetry = Telemetry.in_memory()
        with use_telemetry(replay_telemetry):
            replay = run_league(config, store=store, out_dir=tmp_path / "out2")
        assert replay.matches_scheduled == 0
        assert replay.matches_cached == 2
        assert _counter_value(replay_telemetry, "league.matches_scheduled") == 0
        assert _counter_value(replay_telemetry, "league.matches_cached") == 2
        assert _counter_value(replay_telemetry, "store.hits") >= 2
        assert (tmp_path / "out2" / "leaderboard.json").read_bytes() == first_bytes

    def test_replay_writes_nothing_to_the_store(self, tmp_path):
        config = LeagueConfig(**SMALL)
        store = ArtifactStore(tmp_path / "store")
        run_league(config, store=store, out_dir=tmp_path / "out")
        objects = store.objects_dir

        def snapshot():
            return {path: (path.read_bytes(), path.stat().st_mtime_ns)
                    for path in sorted(objects.rglob("*")) if path.is_file()}

        before = snapshot()
        telemetry = Telemetry.in_memory()
        with use_telemetry(telemetry):
            replay = run_league(config, store=store, out_dir=tmp_path / "out")
        assert replay.matches_cached == 2
        assert snapshot() == before
        assert _counter_value(telemetry, "store.put_unchanged") == 1
        assert _counter_value(telemetry, "store.put_conflicts") == 0

        # A damaged leaderboard blob is rewritten by the next replay.
        board = [entry for entry in store.list()
                 if entry.spec["kind"] == "league_leaderboard"]
        assert len(board) == 1
        with open(board[0].path, "r+b") as fh:
            fh.truncate(board[0].nbytes // 2)
        assert store.verify() != []
        run_league(config, store=store, out_dir=tmp_path / "out")
        assert store.verify() == []
        state, _ = store.get(board[0].spec)
        assert state["leaderboard"].tobytes() == (
            tmp_path / "out" / "leaderboard.json").read_bytes()

    def test_replay_leaves_the_out_dir_untouched(self, tmp_path):
        config = LeagueConfig(**SMALL)
        store = ArtifactStore(tmp_path / "store")
        out = tmp_path / "out"
        run_league(config, store=store, out_dir=out)

        def snapshot():
            return {path.name: (path.read_bytes(), path.stat().st_mtime_ns)
                    for path in sorted(out.iterdir())}

        before = snapshot()
        assert set(before) == {"league.json", "leaderboard-round000.json",
                               "leaderboard.json", "leaderboard.txt"}
        time.sleep(0.01)  # a rewrite would move st_mtime_ns
        run_league(config, store=store, out_dir=out)
        assert snapshot() == before

        # A damaged output file is rewritten by the next replay.
        (out / "leaderboard.txt").write_text("stale\n")
        run_league(config, store=store, out_dir=out)
        assert (out / "leaderboard.txt").read_bytes() == before["leaderboard.txt"][0]

    def test_pool_lane_matches_inline_bytes(self, tmp_path):
        """Same league, fresh stores, different lanes -> same bytes."""
        from repro.runtime import WorkerPool

        config = LeagueConfig(**SMALL)
        inline = run_league(config, store=ArtifactStore(tmp_path / "s1"),
                            out_dir=tmp_path / "o1", jobs=1)
        ephemeral = run_league(config, store=ArtifactStore(tmp_path / "s2"),
                               out_dir=tmp_path / "o2", jobs=2)
        with WorkerPool(max_workers=2) as pool:
            pooled = run_league(config, store=ArtifactStore(tmp_path / "s3"),
                                out_dir=tmp_path / "o3", jobs=2, pool=pool)
        assert (inline.matches_scheduled == ephemeral.matches_scheduled
                == pooled.matches_scheduled == 2)
        assert not ephemeral.rounds[-1].degraded
        assert not pooled.rounds[-1].degraded
        reference = (tmp_path / "o1" / "leaderboard.json").read_bytes()
        assert (tmp_path / "o2" / "leaderboard.json").read_bytes() == reference
        assert (tmp_path / "o3" / "leaderboard.json").read_bytes() == reference

    def test_counter_training_round(self, tmp_path):
        config = LeagueConfig(attackers=("random",), victims=("Hopper-v0:ppo",),
                              rounds=2, counter_training=True, pgd_steps=2)
        store = ArtifactStore(tmp_path / "store")
        result = run_league(config, store=store, out_dir=tmp_path / "out")
        assert result.rounds[0].counter_entrant == "Hopper-v0:ppo+ct1"
        # Round 2 = base rematch (cached) + counter entrant (scheduled).
        assert result.rounds[1].matches_cached == 1
        assert result.rounds[1].matches_scheduled == 1
        names = {row["name"] for row in result.leaderboard["standings"]}
        assert "Hopper-v0:ppo+ct1" in names
        # Full replay: every match of every round is a cache hit.
        replay = run_league(config, store=store, out_dir=tmp_path / "out2")
        assert replay.matches_scheduled == 0
        assert ((tmp_path / "out" / "leaderboard.json").read_bytes()
                == (tmp_path / "out2" / "leaderboard.json").read_bytes())

    def test_failed_match_is_contained(self, tmp_path, monkeypatch):
        from repro.league import runner as league_runner

        def explode(match, store_root):
            raise RuntimeError("boom")

        monkeypatch.setattr(league_runner, "play_match", explode)
        telemetry = Telemetry.in_memory()
        with use_telemetry(telemetry):
            result = run_league(LeagueConfig(**SMALL),
                                store=ArtifactStore(tmp_path / "store"),
                                out_dir=tmp_path / "out")
        assert result.matches_failed == 2
        assert result.rounds[0].failed_kinds == {"crash": 2}
        assert _counter_value(telemetry, "league.matches_failed") == 2
        assert _counter_value(telemetry, "league.matches_failed.crash") == 2
        # The leaderboard still materializes (empty) instead of crashing.
        assert result.leaderboard["standings"] == []


def _league_fabric_daemon(fabric_dir, worker_id):
    from repro.fabric import FabricQueue, FabricWorker

    queue = FabricQueue(fabric_dir)
    FabricWorker(queue, worker_id=worker_id, supervise=False).work(idle_exit=3.0)


class TestLeagueFabric:
    @pytest.mark.slow
    def test_two_daemon_fabric_matches_inline_bytes(self, tmp_path):
        config = LeagueConfig(**SMALL)
        baseline = run_league(config, store=ArtifactStore(tmp_path / "s1"),
                              out_dir=tmp_path / "o1")
        fork = multiprocessing.get_context("fork")
        fabric = tmp_path / "fabric"
        daemons = [fork.Process(target=_league_fabric_daemon,
                                args=(str(fabric), f"daemon-{i}"))
                   for i in range(2)]
        for daemon in daemons:
            daemon.start()
        try:
            fabbed = run_league(config, store=ArtifactStore(tmp_path / "s2"),
                                out_dir=tmp_path / "o2", fabric_dir=fabric)
        finally:
            for daemon in daemons:
                daemon.join(60.0)
                if daemon.is_alive():
                    daemon.terminate()
        assert baseline.matches_scheduled == fabbed.matches_scheduled == 2
        assert not fabbed.rounds[-1].degraded
        assert ((tmp_path / "o1" / "leaderboard.json").read_bytes()
                == (tmp_path / "o2" / "leaderboard.json").read_bytes())


class TestCli:
    ARGS = ["league", "--attackers", "random", "pgd",
            "--victims", "Hopper-v0:ppo", "--rounds", "1", "--pgd-steps", "2"]

    def test_league_subcommand_and_resume(self, tmp_path, capsys):
        from repro.experiments.cli import main

        store = str(tmp_path / "store")
        out = str(tmp_path / "out")
        assert main(self.ARGS + ["--store-dir", store, "--out", out]) == 0
        output = capsys.readouterr().out
        assert "2 scheduled, 0 cached" in output
        record = json.loads((tmp_path / "out" / "league.json").read_text())
        assert record["config"]["attackers"] == ["random", "pgd"]

        assert main(["league", "--resume", out, "--store-dir", store]) == 0
        output = capsys.readouterr().out
        assert "0 scheduled, 2 cached" in output

    def test_resume_without_record_errors(self, tmp_path):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit):
            main(["league", "--resume", str(tmp_path / "nowhere")])

    @pytest.mark.parametrize("extra, workers", [
        ([], None),
        (["--jobs", "2"], 2),
        (["--jobs", "2", "--fabric", "FABRIC"], None),
    ])
    def test_jobs_hold_one_pool_across_rounds(self, tmp_path, monkeypatch,
                                              extra, workers):
        from types import SimpleNamespace

        from repro.league import cli as league_cli
        from repro.runtime import WorkerPool

        seen = []

        def fake_run_league(config, pool=None, **kwargs):
            seen.append(pool)
            return SimpleNamespace(key="0" * 64, matches_scheduled=0,
                                   matches_cached=0, matches_failed=0,
                                   out_dir=kwargs["out_dir"])

        monkeypatch.setattr(league_cli, "run_league", fake_run_league)
        # --store-dir exports REPRO_STORE; restore it after the test.
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        extra = [str(tmp_path / "fabric") if arg == "FABRIC" else arg
                 for arg in extra]
        assert league_cli.main(self.ARGS[1:] + [
            "--rounds", "3", "--store-dir", str(tmp_path / "store"),
            "--out", str(tmp_path / "out")] + extra) == 0
        pool, = seen  # one run_league call drives every round
        if workers is None:
            assert pool is None
        else:
            assert isinstance(pool, WorkerPool)
            assert pool.max_workers == workers
