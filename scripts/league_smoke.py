"""CI smoke driver for the attack league.

Runs a 2-attacker × 2-victim × 1-round league at the smallest
:class:`~repro.experiments.config.ExperimentScale` through the
``repro-experiments league`` CLI path, then replays it against the same
store and asserts the league's core contracts:

* the first run schedules exactly attackers × victims matches,
* the cached rerun schedules **zero** matches,
* both runs produce byte-identical ``leaderboard.json`` artifacts,
* the cached rerun changes no file under ``store/objects/`` (a re-put of
  content the store already holds writes nothing) and no file in the
  league's output directory (each is written only when its bytes
  change), and
* ``ArtifactStore.verify()`` finds no problem afterwards.

Usage::

    PYTHONPATH=src python scripts/league_smoke.py [--out DIR] [--jobs N]

``--out`` keeps the leaderboard files around (CI uploads them as the
job's artifact); the default is a temp directory.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.experiments.cli import main as cli_main  # noqa: E402
from repro.store import ArtifactStore  # noqa: E402
from repro.telemetry import Telemetry, use_telemetry  # noqa: E402

ATTACKERS = ["random", "pgd"]
VICTIMS = ["Hopper-v0:ppo", "Walker2d-v0:ppo"]


def run_cli(out_dir: Path, store_dir: Path, jobs: int, resume: bool) -> dict:
    """One CLI invocation under an in-memory telemetry; returns counters."""
    telemetry = Telemetry.in_memory()
    if resume:
        argv = ["league", "--resume", str(out_dir)]
    else:
        argv = (["league", "--attackers"] + ATTACKERS
                + ["--victims"] + VICTIMS
                + ["--rounds", "1", "--scale", "smoke", "--pgd-steps", "2",
                   "--out", str(out_dir)])
    argv += ["--store-dir", str(store_dir), "--jobs", str(jobs)]
    with use_telemetry(telemetry):
        code = cli_main(argv)
    if code != 0:
        raise SystemExit(f"league CLI exited {code} (argv: {argv})")
    counters = telemetry.metrics.snapshot().get("counters", {})
    return {name: value for name, value in counters.items()
            if name.startswith(("league.", "store."))}


def files_snapshot(root: Path) -> dict:
    """Bytes and mtime of every file under ``root``."""
    return {path: (path.read_bytes(), path.stat().st_mtime_ns)
            for path in sorted(root.rglob("*")) if path.is_file()}


def changed_files(before: dict, after: dict, root: Path) -> list[str]:
    return sorted(str(path.relative_to(root))
                  for path in set(before) | set(after)
                  if before.get(path) != after.get(path))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="leaderboard output dir (kept for CI upload)")
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args()

    workdir = Path(args.out) if args.out else Path(tempfile.mkdtemp(prefix="league-smoke-"))
    workdir.mkdir(parents=True, exist_ok=True)
    store_dir = workdir / "store"
    out_dir = workdir / "league"
    expected = len(ATTACKERS) * len(VICTIMS)

    cold = run_cli(out_dir, store_dir, args.jobs, resume=False)
    print(f"[smoke] cold run counters: {cold}")
    scheduled = cold.get("league.matches_scheduled", 0)
    if scheduled != expected:
        raise SystemExit(f"cold run scheduled {scheduled} matches, "
                         f"expected {expected}")
    cold_bytes = (out_dir / "leaderboard.json").read_bytes()
    cold_objects = files_snapshot(store_dir / "objects")
    cold_outputs = files_snapshot(out_dir)

    warm = run_cli(out_dir, store_dir, args.jobs, resume=True)
    print(f"[smoke] cached rerun counters: {warm}")
    if warm.get("league.matches_scheduled", 0) != 0:
        raise SystemExit("cached rerun scheduled matches; the store missed: "
                         f"{warm}")
    if warm.get("league.matches_cached", 0) != expected:
        raise SystemExit(f"cached rerun served {warm.get('league.matches_cached')} "
                         f"matches from the store, expected {expected}")
    warm_bytes = (out_dir / "leaderboard.json").read_bytes()
    if warm_bytes != cold_bytes:
        raise SystemExit("leaderboard bytes differ between cold run and "
                         "cached replay — determinism contract broken")

    changed = changed_files(cold_objects, files_snapshot(store_dir / "objects"),
                            store_dir)
    if changed:
        raise SystemExit(f"cached rerun wrote to the store: {changed}")
    changed = changed_files(cold_outputs, files_snapshot(out_dir), out_dir)
    if changed:
        raise SystemExit(f"cached rerun rewrote league outputs: {changed}")

    store = ArtifactStore(store_dir)
    problems = store.verify()
    if problems:
        raise SystemExit(f"store.verify() found problems: {problems}")
    kinds = sorted({entry.spec.get("kind") for entry in store.list()})
    print(f"[smoke] store holds {len(store)} artifacts ({', '.join(map(str, kinds))})")
    print((out_dir / "leaderboard.txt").read_text())
    print(f"[smoke] OK: {expected} matches scheduled once, replay was pure "
          f"cache hits and wrote nothing to the store or the output dir, "
          f"leaderboard bytes identical ({len(cold_bytes)} bytes) -> {out_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
