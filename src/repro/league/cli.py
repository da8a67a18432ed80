"""``repro-experiments league`` — the attack-league subcommand.

Examples::

    repro-experiments league --rounds 2 --scale smoke --jobs 4
    repro-experiments league --attackers random pgd --victims Hopper-v0:ppo
    repro-experiments league --fabric /shared/fabric --rounds 3
    repro-experiments league --resume artifacts/store/league/abcd1234

``--resume OUT_DIR`` reads the ``league.json`` config record a previous
run wrote and replays the league against the same store: every completed
match is a cache hit, so resumption costs reads, not matches.
"""

from __future__ import annotations

import argparse
import contextlib
import os

from ..experiments.config import SCALES
from ..runtime import WorkerPool
from ..store import ArtifactStore, default_store
from ..telemetry import Telemetry, use_telemetry
from .runner import run_league
from .spec import DEFAULT_ATTACKERS, DEFAULT_VICTIMS, LeagueConfig, config_from_doc

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments league",
        description="Round-based attackers x victims tournament with an "
                    "Elo/robustness leaderboard.",
    )
    parser.add_argument("--attackers", nargs="*", default=None,
                        metavar="NAME",
                        help="attacker roster (default: "
                             f"{' '.join(DEFAULT_ATTACKERS)})")
    parser.add_argument("--victims", nargs="*", default=None,
                        metavar="ENV:DEFENSE",
                        help="victim roster as '<env_id>:<defense>' "
                             f"(default: {' '.join(DEFAULT_VICTIMS)})")
    parser.add_argument("--rounds", type=int, default=None,
                        help="tournament rounds (default 1)")
    parser.add_argument("--scale", default=None, choices=sorted(SCALES),
                        help="budget preset (default: smoke)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--counter-training", action="store_true",
                        help="after each round, retrain the worst victim "
                             "against the best attacker and enter the new "
                             "generation next round")
    parser.add_argument("--pgd-steps", type=int, default=None,
                        help="inner PGD steps for the white-box attackers")
    parser.add_argument("--jobs", type=int, default=1,
                        help="matches scheduled concurrently on one worker "
                             "pool held across rounds (default 1: inline)")
    parser.add_argument("--job-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-match wall-clock budget (watchdog-enforced)")
    parser.add_argument("--fabric", default=None, metavar="DIR",
                        help="run matches on the multi-host job fabric at DIR")
    parser.add_argument("--store-dir", default=None, metavar="DIR",
                        help="artifact store location (default: $REPRO_STORE "
                             "or $REPRO_ARTIFACTS/store)")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="leaderboard output directory "
                             "(default: <store>/league/<key prefix>)")
    parser.add_argument("--resume", default=None, metavar="OUT_DIR",
                        help="replay the league recorded in OUT_DIR/league.json "
                             "(explicit flags override recorded values)")
    parser.add_argument("--telemetry-dir", default=None, metavar="DIR",
                        help="record the run (manifest + league.* counters) "
                             "under DIR")
    return parser


def _config_from_args(args, parser) -> LeagueConfig:
    overrides = {
        "attackers": tuple(args.attackers) if args.attackers else None,
        "victims": tuple(args.victims) if args.victims else None,
        "rounds": args.rounds,
        "scale": args.scale,
        "seed": args.seed,
        "counter_training": args.counter_training or None,
        "pgd_steps": args.pgd_steps,
    }
    if args.resume is not None:
        import json
        from pathlib import Path

        record_path = Path(args.resume) / "league.json"
        if not record_path.exists():
            parser.error(f"--resume: no league.json under {args.resume}")
        record = json.loads(record_path.read_text())
        if args.out is None:
            args.out = args.resume
        return config_from_doc(record["config"], **overrides)
    return config_from_doc(
        {"attackers": list(DEFAULT_ATTACKERS), "victims": list(DEFAULT_VICTIMS)},
        **overrides)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args, parser)
    except ValueError as exc:
        parser.error(str(exc))
    if args.store_dir is not None:
        os.environ["REPRO_STORE"] = str(args.store_dir)  # workers inherit
        store = ArtifactStore(args.store_dir)
    else:
        store = default_store()
    telemetry = None
    if args.telemetry_dir is not None:
        telemetry = Telemetry.to_dir(
            args.telemetry_dir,
            run_id=f"league-{config.scale}-seed{config.seed}",
            experiment={"what": ["league"], "scale": config.scale,
                        "seed": config.seed, "rounds": config.rounds,
                        "attackers": list(config.attackers),
                        "victims": list(config.victims)},
            seeds=[config.seed],
        )
    context = use_telemetry(telemetry) if telemetry else contextlib.nullcontext()
    try:
        with context, contextlib.ExitStack() as stack:
            pool = None
            if args.jobs > 1 and args.fabric is None:
                # One warm pool for every round, not a fresh one per round.
                pool = stack.enter_context(WorkerPool(max_workers=args.jobs))
            result = run_league(config, store=store, out_dir=args.out,
                                jobs=args.jobs, pool=pool,
                                fabric_dir=args.fabric,
                                job_timeout=args.job_timeout,
                                telemetry=telemetry, verbose=True)
    except BaseException as exc:
        if telemetry is not None:
            telemetry.finalize("failed", error=f"{type(exc).__name__}: {exc}")
        raise
    print(f"\n[league] {result.key[:16]}: "
          f"{result.matches_scheduled} scheduled, "
          f"{result.matches_cached} cached, "
          f"{result.matches_failed} failed; "
          f"leaderboard -> {result.out_dir}")
    exit_code = 1 if result.matches_failed else 0
    if telemetry is not None:
        telemetry.finalize("ok" if exit_code == 0 else "failed")
    return exit_code
