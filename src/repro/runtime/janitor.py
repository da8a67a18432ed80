"""Sweep temp-dir debris left by SIGKILLed *parent* processes.

The pool cleans up after its own dead children, and ``weakref.finalize``
covers graceful parent exit — but a SIGKILLed parent runs no finalizers,
leaving ``repro-pool-*`` heartbeat directories on disk.  The fix is an
ownership stamp plus a sweep at the next opportunity:

* every :class:`~repro.runtime.pool.WorkerPool` writes its pid into
  ``owner.pid`` inside its heartbeat directory;
* the next pool constructed in the same temp dir removes any directory
  whose recorded owner pid is **dead**.

Only provably-orphaned entries are touched: an unreadable or missing
owner stamp means the entry is skipped (it may belong to a different
layout or a process we cannot see), and ``PermissionError`` from
``kill(pid, 0)`` counts as *alive* — another user's pid is not ours to
judge.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from pathlib import Path

__all__ = ["pid_alive", "sweep_stale_pool_dirs"]

OWNER_FILE = "owner.pid"


def pid_alive(pid: int) -> bool:
    """True when ``pid`` exists (even if owned by someone else)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, not ours — treat as alive
    except OSError:
        return True  # unknowable: never sweep on doubt
    return True


def _read_owner_pid(path: Path) -> int | None:
    try:
        return int(path.read_text(encoding="utf-8").strip())
    except (OSError, ValueError):
        return None


def sweep_stale_pool_dirs(root: str | Path | None = None) -> list[Path]:
    """Remove ``repro-pool-*`` heartbeat dirs whose owner pid is dead."""
    root = Path(root) if root is not None else Path(tempfile.gettempdir())
    removed: list[Path] = []
    try:
        candidates = sorted(root.glob("repro-pool-*"))
    except OSError:
        return removed
    for candidate in candidates:
        if not candidate.is_dir():
            continue
        pid = _read_owner_pid(candidate / OWNER_FILE)
        if pid is None or pid_alive(pid):
            continue
        shutil.rmtree(candidate, ignore_errors=True)
        if not candidate.exists():
            removed.append(candidate)
    return removed
