"""The league loop: schedule rounds, fold leaderboards, counter-train.

One round = the full attackers × entrants matrix.  Every pairing's
canonical match doc is checked against the store first — only misses
become :class:`~repro.runtime.Job`\\ s, scheduled through
:func:`~repro.runtime.run_parallel` (so ``jobs=``, a caller-owned
``pool=``, and a multi-host ``fabric_dir=`` all compose for free).
Because match keys contain no round number, a resumed or replayed league
re-reads every completed match from the store and schedules nothing.

After each round the cumulative outcome set folds into an Elo
leaderboard (:mod:`repro.league.elo`), written both as canonical-JSON
files in the league's output directory (the byte-identity contract) and
as a store artifact.  With ``counter_training`` enabled the round ends
by minting a new victim generation: the currently worst victim
retrained against the currently best attacker.  Its spec is
self-describing, so the *matches* of the next round materialize it
lazily wherever they run — the league driver never trains anything.

Telemetry counters (under the ambient or injected run):

* ``league.matches_scheduled`` / ``league.matches_cached`` /
  ``league.matches_failed`` (+ ``league.matches_failed.<error_kind>``)
* ``league.counter_trainings``
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..runtime import Job, run_parallel
from ..store import ArtifactStore, canonical_json, default_store
from ..telemetry import current_telemetry
from .elo import MatchOutcome, build_leaderboard, leaderboard_bytes, render_leaderboard
from .match import play_match
from .spec import (
    LeagueConfig,
    base_entrant,
    config_to_doc,
    counter_entrant_spec,
    entrant_from_counter_spec,
    league_key,
    league_spec,
    match_spec,
)

__all__ = ["RoundReport", "LeagueResult", "run_league"]


@dataclass
class RoundReport:
    """What one round did: cache traffic, failures, standings."""

    index: int
    matches_total: int = 0
    matches_cached: int = 0
    matches_scheduled: int = 0
    matches_failed: int = 0
    failed_kinds: dict[str, int] = field(default_factory=dict)
    degraded: bool = False
    degraded_reason: str = ""
    leaderboard: dict | None = None
    counter_entrant: str | None = None


@dataclass
class LeagueResult:
    """Outcome of a whole league run."""

    key: str
    config: LeagueConfig
    out_dir: Path
    rounds: list[RoundReport] = field(default_factory=list)

    @property
    def leaderboard(self) -> dict:
        return self.rounds[-1].leaderboard

    @property
    def matches_scheduled(self) -> int:
        return sum(r.matches_scheduled for r in self.rounds)

    @property
    def matches_cached(self) -> int:
        return sum(r.matches_cached for r in self.rounds)

    @property
    def matches_failed(self) -> int:
        return sum(r.matches_failed for r in self.rounds)


def _count(telemetry, name: str, amount: int = 1) -> None:
    if telemetry is not None and amount:
        telemetry.metrics.counter(name).inc(amount)


def _pick_counter_pair(outcomes: list[MatchOutcome],
                       entrants: list[dict], attackers: tuple[str, ...]):
    """(worst entrant, best attacker) by mean robustness / mean ASR.

    Ties break lexicographically — the pick must not depend on dict or
    completion order, or resumed leagues would fork.
    """
    by_victim = {e["name"]: [] for e in entrants}
    by_attack = {a: [] for a in attackers}
    for o in outcomes:
        if o.victim in by_victim:
            by_victim[o.victim].append(1.0 - o.asr)
        if o.attack in by_attack:
            by_attack[o.attack].append(o.asr)
    scored_victims = sorted(
        (float(np.mean(v)), name) for name, v in by_victim.items() if v)
    scored_attacks = sorted(
        ((-float(np.mean(v)), name) for name, v in by_attack.items() if v))
    if not scored_victims or not scored_attacks:
        return None, None
    worst_name = scored_victims[0][1]
    worst = next(e for e in entrants if e["name"] == worst_name)
    return worst, scored_attacks[0][1]


def _write_if_changed(path: Path, data: bytes) -> None:
    """Write ``data`` unless ``path`` already holds exactly these bytes,
    so a replay leaves the output directory untouched."""
    try:
        if path.read_bytes() == data:
            return
    except OSError:
        pass
    path.write_bytes(data)


def run_league(config: LeagueConfig, store: ArtifactStore | None = None,
               out_dir: str | Path | None = None, jobs: int = 1,
               pool=None, fabric_dir: str | Path | None = None,
               job_timeout: float | None = None, telemetry=None,
               verbose: bool = False) -> LeagueResult:
    """Run (or resume — same thing) a league to completion."""
    store = store if store is not None else default_store()
    telemetry = telemetry if telemetry is not None else current_telemetry()
    key = league_key(config)
    out_dir = Path(out_dir) if out_dir is not None else (
        store.root / "league" / key[:16])
    out_dir.mkdir(parents=True, exist_ok=True)
    # The resume record: `league --resume OUT_DIR` reconstructs the
    # config from this file, so the rematch keys line up exactly.
    _write_if_changed(out_dir / "league.json", (canonical_json(
        {"key": key, "config": config_to_doc(config)}) + "\n").encode())

    result = LeagueResult(key=key, config=config, out_dir=out_dir)
    entrants = [base_entrant(config, name) for name in config.victims]
    outcomes: list[MatchOutcome] = []

    for round_index in range(config.rounds):
        report = RoundReport(index=round_index)
        pending: list[tuple[Job, dict]] = []
        for entrant in entrants:
            for attacker in config.attackers:
                doc = match_spec(config, entrant, attacker)
                report.matches_total += 1
                hit = store.get(doc)
                if hit is not None:
                    record = dict(hit[1].metadata["record"])
                    outcomes.append(MatchOutcome(
                        round=round_index, attack=record["attack"],
                        victim=record["victim"], asr=record["asr"],
                        victim_reward=record["victim_reward"]))
                    report.matches_cached += 1
                    continue
                name = f"r{round_index}:{attacker}@{entrant['name']}"
                pending.append((Job(play_match, args=(doc, str(store.root)),
                                    name=name, timeout=job_timeout), doc))
        _count(telemetry, "league.matches_cached", report.matches_cached)
        _count(telemetry, "league.matches_scheduled", len(pending))
        report.matches_scheduled = len(pending)
        if verbose:
            print(f"[league] round {round_index + 1}/{config.rounds}: "
                  f"{report.matches_cached} cached, "
                  f"{len(pending)} scheduled")
        if pending:
            schedule = run_parallel([job for job, _ in pending],
                                    max_workers=jobs, timeout=job_timeout,
                                    telemetry=telemetry, pool=pool,
                                    fabric_dir=fabric_dir)
            report.degraded = schedule.degraded
            report.degraded_reason = schedule.degraded_reason
            for job_result in schedule.results:
                if job_result.ok:
                    record = job_result.value
                    outcomes.append(MatchOutcome(
                        round=round_index, attack=record["attack"],
                        victim=record["victim"], asr=record["asr"],
                        victim_reward=record["victim_reward"]))
                else:
                    kind = job_result.error_kind or "crash"
                    report.matches_failed += 1
                    report.failed_kinds[kind] = report.failed_kinds.get(kind, 0) + 1
                    _count(telemetry, "league.matches_failed")
                    _count(telemetry, f"league.matches_failed.{kind}")
                    if verbose:
                        print(f"[league] match {job_result.name} failed "
                              f"({kind}): {job_result.error}")

        doc = build_leaderboard(key, league_spec(config), round_index,
                                outcomes, k=config.elo_k,
                                initial=config.initial_rating)
        data = leaderboard_bytes(doc)
        _write_if_changed(out_dir / f"leaderboard-round{round_index:03d}.json", data)
        _write_if_changed(out_dir / "leaderboard.json", data)
        rendered = render_leaderboard(doc)
        _write_if_changed(out_dir / "leaderboard.txt", (rendered + "\n").encode())
        store.put({"kind": "league_leaderboard", "league": key,
                   "round": round_index},
                  {"leaderboard": np.frombuffer(data, dtype=np.uint8)},
                  metadata={"doc": doc})
        report.leaderboard = doc
        if verbose:
            print(rendered)

        if config.counter_training and round_index + 1 < config.rounds:
            worst, best_attacker = _pick_counter_pair(
                outcomes, entrants, config.attackers)
            if worst is not None:
                spec = counter_entrant_spec(config, worst, best_attacker,
                                            round_index)
                entrant = entrant_from_counter_spec(worst["name"], spec)
                entrants.append(entrant)
                report.counter_entrant = entrant["name"]
                _count(telemetry, "league.counter_trainings")
                if verbose:
                    print(f"[league] counter-training {worst['name']} vs "
                          f"{best_attacker} -> {entrant['name']}")
        result.rounds.append(report)
    return result
