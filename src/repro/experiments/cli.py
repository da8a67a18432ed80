"""Command-line entry point: ``python -m repro.experiments <what>``.

Examples::

    python -m repro.experiments table1 --scale short --envs Hopper-v0
    python -m repro.experiments table2 --scale short
    python -m repro.experiments fig5 --scale short --games YouShallNotPass-v0
    python -m repro.experiments fig6 fig7 --scale smoke
    python -m repro.experiments table1 fig4 fig6 --jobs 3
    python -m repro.experiments league --rounds 2 --jobs 4

``league`` is a subcommand with its own flag surface (rosters, rounds,
counter-training, ``--resume``); see :mod:`repro.league.cli`.

``--jobs N`` runs the requested experiments as independent cells on a
worker pool (:mod:`repro.runtime.scheduler`); output is still printed in
request order, and a crashed experiment is reported without aborting the
others.  ``--job-timeout SECONDS`` adds a per-experiment wall-clock
budget enforced by the pool's watchdog: a hung cell is killed and
reported with ``error_kind="timeout"`` instead of stalling the whole
invocation.

``--telemetry-dir DIR`` records the run: ``DIR/manifest.json`` (config,
seeds, package versions, wall clock, exit status, per-job crash records,
artifact hashes consumed/produced) plus ``DIR/events.jsonl``
(per-iteration training events with rollout/update/KNN timings).  Off by
default — without the flag the hot paths run uninstrumented at full
speed.  With ``--jobs > 1`` worker processes run untelemetered; the
parent still records per-job events.

``--resume RUN_DIR`` re-launches the run recorded in
``RUN_DIR/manifest.json``: experiment selection and filters are read
back from the manifest (explicit flags still win), telemetry goes to
RUN_DIR again, and every already-completed cell is served from the
artifact store instead of retraining.  ``--store-dir DIR`` points the
artifact store somewhere other than ``$REPRO_ARTIFACTS/store`` (it is
exported as ``$REPRO_STORE`` so pool workers inherit it).
"""

from __future__ import annotations

import argparse
import contextlib
import os
from pathlib import Path

from ..runtime import Job, run_parallel
from ..telemetry import MANIFEST_NAME, RunManifest, Telemetry, use_telemetry
from .config import SCALES
from .fig4 import run_fig4
from .fig5 import run_fig5
from .fig6 import run_fig6
from .fig7 import run_fig7
from .table1 import run_table1
from .table2 import run_table2
from .table3 import br_improvement_count, render_table3, run_table3

__all__ = ["main", "build_parser", "run_experiment", "apply_resume"]

EXPERIMENT_NAMES = ["table1", "table2", "table3", "fig4", "fig5", "fig6", "fig7"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    # No argparse ``choices`` here: with ``nargs="*"`` argparse validates
    # the empty default against the choice list and rejects a bare
    # ``--resume RUN_DIR`` invocation; apply_resume validates instead.
    parser.add_argument("what", nargs="*", default=[], metavar="what",
                        help="which experiments to run: "
                             f"{', '.join(EXPERIMENT_NAMES)} "
                             "(optional with --resume)")
    parser.add_argument("--scale", default="smoke", choices=sorted(SCALES),
                        help="budget preset (default: smoke)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=1,
                        help="run the requested experiments on a worker pool "
                             "of this many processes (default 1: sequential)")
    parser.add_argument("--job-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-experiment wall-clock budget; a hung or "
                             "overrunning experiment is killed and reported "
                             "as a timeout instead of stalling the sweep "
                             "(default: unbounded)")
    parser.add_argument("--fabric", default=None, metavar="DIR",
                        help="run the sweep on the multi-host job fabric "
                             "rooted at DIR: jobs are executed by whatever "
                             "`python -m repro.fabric.worker DIR` daemons "
                             "share the directory (falling back to inline "
                             "execution if none are alive)")
    parser.add_argument("--envs", nargs="*", default=None,
                        help="restrict single-agent experiments to these env ids")
    parser.add_argument("--games", nargs="*", default=None,
                        help="restrict game experiments to these game ids")
    parser.add_argument("--attacks", nargs="*", default=None,
                        help="restrict to these attack names")
    parser.add_argument("--telemetry-dir", default=None, metavar="DIR",
                        help="write a run manifest (manifest.json) and JSONL "
                             "event log (events.jsonl) under DIR; default off")
    parser.add_argument("--resume", default=None, metavar="RUN_DIR",
                        help="re-launch the run recorded in RUN_DIR/manifest.json; "
                             "completed cells are served from the artifact store")
    parser.add_argument("--store-dir", default=None, metavar="DIR",
                        help="artifact store location (default: "
                             "$REPRO_STORE or $REPRO_ARTIFACTS/store)")
    return parser


def apply_resume(args: argparse.Namespace,
                 parser: argparse.ArgumentParser) -> argparse.Namespace:
    """Fill unset args from the manifest recorded at ``--resume RUN_DIR``.

    "Unset" means the parsed value equals the parser default — explicit
    flags override the recorded run.  Telemetry is redirected back into
    RUN_DIR so the resumed run extends the same record.
    """
    unknown = [w for w in args.what if w not in EXPERIMENT_NAMES]
    if unknown:
        parser.error(f"unknown experiment(s) {unknown}; options: {EXPERIMENT_NAMES}")
    if args.resume is None:
        if not args.what:
            parser.error("specify at least one experiment (or --resume RUN_DIR)")
        return args
    manifest_path = Path(args.resume) / MANIFEST_NAME
    if not manifest_path.exists():
        parser.error(f"--resume: no {MANIFEST_NAME} under {args.resume}")
    recorded = RunManifest.load(manifest_path).experiment
    for name in ("what", "scale", "seed", "jobs", "job_timeout", "envs",
                 "games", "attacks", "store_dir"):
        if name in recorded and getattr(args, name) == parser.get_default(name):
            setattr(args, name, recorded[name])
    if args.telemetry_dir is None:
        args.telemetry_dir = args.resume
    if not args.what:
        parser.error("--resume: recorded manifest names no experiments")
    return args


def run_experiment(what: str, scale_name: str, seed: int = 0,
                   envs: list[str] | None = None, games: list[str] | None = None,
                   attacks: list[str] | None = None) -> str:
    """Run one experiment and return its rendered text output.

    Top-level and string-in/string-out so the scheduler can ship it to a
    pool worker.
    """
    scale = SCALES[scale_name]
    if what == "table1":
        result = run_table1(env_ids=envs, attacks=attacks, scale=scale, seed=seed)
        return result.render(attacks=attacks) if attacks else result.render()
    if what == "table2":
        result = run_table2(env_ids=envs, attacks=attacks, scale=scale, seed=seed)
        return result.render()
    if what == "table3":
        result = run_table3(env_ids=envs, scale=scale, seed=seed)
        improved, total = br_improvement_count(result)
        return (render_table3(result)
                + f"\nBR improves some IMAP variant on {improved}/{total} tasks")
    if what == "fig4":
        figures = run_fig4(env_ids=envs, attacks=attacks, scale=scale, seed=seed)
        return "\n".join(figure.render(y_name="victim success")
                         for figure in figures.values())
    if what == "fig5":
        out = run_fig5(game_ids=games, scale=scale, seed=seed)
        return "\n".join(data["curves"].render(y_name="asr") for data in out.values())
    if what == "fig6":
        out = run_fig6(scale=scale, seed=seed)
        return out["curves"].render(y_name="victim success")
    if what == "fig7":
        out = run_fig7(scale=scale, seed=seed)
        return out["curves"].render(y_name="asr")
    raise ValueError(f"unknown experiment {what!r}; options: {EXPERIMENT_NAMES}")


def _make_telemetry(args) -> Telemetry | None:
    if args.telemetry_dir is None:
        return None
    return Telemetry.to_dir(
        args.telemetry_dir,
        run_id=f"{'-'.join(args.what)}-{args.scale}-seed{args.seed}",
        experiment={
            "what": args.what, "scale": args.scale, "seed": args.seed,
            "jobs": args.jobs, "job_timeout": args.job_timeout,
            "envs": args.envs, "games": args.games,
            "attacks": args.attacks, "store_dir": args.store_dir,
        },
        seeds=[args.seed],
    )


def main(argv: list[str] | None = None) -> int:
    import sys

    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "league":
        # The league has its own flag surface (rosters, rounds,
        # counter-training); delegate before argparse sees the rest.
        from ..league.cli import main as league_main

        return league_main(argv[1:])
    parser = build_parser()
    args = apply_resume(parser.parse_args(argv), parser)
    if args.store_dir is not None:
        # Environment, not a parameter: pool workers inherit it on spawn.
        os.environ["REPRO_STORE"] = str(args.store_dir)
    scale = SCALES[args.scale]
    telemetry = _make_telemetry(args)
    # Ambient installation: trainers and collectors buried under the
    # run_* functions pick the telemetry up via current_telemetry().
    context = use_telemetry(telemetry) if telemetry else contextlib.nullcontext()
    try:
        with context:
            # A --job-timeout also routes a sequential run through the
            # scheduler: the watchdog needs its own worker process to kill.
            if ((args.jobs > 1 and len(args.what) > 1)
                    or args.job_timeout is not None
                    or args.fabric is not None):
                jobs = [Job(fn=run_experiment,
                            args=(what, args.scale, args.seed,
                                  args.envs, args.games, args.attacks),
                            name=what)
                        for what in args.what]
                report = run_parallel(jobs, max_workers=args.jobs,
                                      timeout=args.job_timeout,
                                      fabric_dir=args.fabric)
                for what, result in zip(args.what, report.results):
                    print(f"\n##### {what} (scale={scale.name}) #####\n", flush=True)
                    if result.ok:
                        print(result.value)
                    else:
                        print(f"FAILED: {result.error}\n{result.traceback}")
                print(f"\n[scheduler] {report.summary()}", flush=True)
                exit_code = 1 if report.n_failed else 0
            else:
                exit_code = 0
                for what in args.what:
                    print(f"\n##### {what} (scale={scale.name}) #####\n", flush=True)
                    if telemetry is not None:
                        telemetry.event("experiment.start", payload={"what": what})
                    print(run_experiment(what, args.scale, seed=args.seed,
                                         envs=args.envs, games=args.games,
                                         attacks=args.attacks))
                    if telemetry is not None:
                        telemetry.event("experiment.end",
                                        payload={"what": what, "ok": True})
    except BaseException as exc:
        if telemetry is not None:
            telemetry.finalize("failed", error=f"{type(exc).__name__}: {exc}")
        raise
    if telemetry is not None:
        telemetry.finalize("ok" if exit_code == 0 else "failed")
    return exit_code
