"""Content-addressed artifact store: specs in, immutable ``.npz`` blobs out.

Layout (two-hex fan-out keeps directory sizes bounded at scale)::

    <root>/objects/<key[:2]>/<key>.npz    # named arrays (atomic tmp+rename)
    <root>/objects/<key[:2]>/<key>.json   # sidecar: spec + metadata + stats

where ``key = sha256(canonical_json(spec))``.  The sidecar is written
*after* the blob, so it doubles as the commit marker: ``list``/``get``
only believe artifacts whose sidecar exists, and a crash between the two
writes leaves an orphan blob that ``verify`` reports and ``prune``
removes.  Artifacts are immutable — a changed config changes the spec,
which changes the key, which is a different artifact (this is what fixes
the stale-victim-cache bug: the old filename convention ignored the
training config entirely).

Every ``get``/``put`` is reported to the ambient telemetry (when one is
installed) so run manifests record exactly which artifact hashes a run
consumed and produced.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
import zipfile
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..nn.serialization import _META_KEY, _fsync_dir, decode_npz, save_state
from ..telemetry import current_telemetry
from .keys import canonical_key, canonicalize, spec_key

__all__ = ["ArtifactEntry", "ArtifactStore", "default_store_root", "default_store"]


def default_store_root() -> Path:
    """``$REPRO_STORE`` if set, else ``$REPRO_ARTIFACTS/store`` (default
    ``artifacts/store``)."""
    override = os.environ.get("REPRO_STORE")
    if override:
        return Path(override)
    return Path(os.environ.get("REPRO_ARTIFACTS", "artifacts")) / "store"


def default_store() -> "ArtifactStore":
    return ArtifactStore(default_store_root())


def _read_file(path: Path) -> bytes:
    """``path``'s bytes in one pass of 1 MiB reads.

    The read size matters beyond I/O: the final, empty 1 MiB read frees a
    1 MiB buffer, which raises glibc's dynamic mmap threshold above
    128 KiB for the rest of the process.  Below it, every 128 KiB numpy
    temporary (a 256 x 64 float64 minibatch activation in the PPO update)
    is a fresh mmap, page-faulted on each use.  Reading exact file sizes
    instead made ``attack-r-vec4``'s PPO update about 15% slower on a
    2-vCPU VM, with 2.7x the minor page faults.
    """
    with open(path, "rb") as fh:
        return b"".join(iter(lambda: fh.read(1 << 20), b""))


# What a damaged blob can raise while it is decoded.
_DECODE_ERRORS = (ValueError, EOFError, NotImplementedError, zipfile.BadZipFile,
                  zlib.error)


class _Corrupt(Exception):
    """A committed sidecar whose artifact cannot be served; str() says why."""


def _same_json(stored, canonical) -> bool:
    """Does ``canonical`` serialize as ``stored`` (a parsed sidecar value)
    does?  JSON text keeps ``1``, ``1.0``, ``true`` and ``-0.0`` apart,
    which ``==`` does not."""
    return json.dumps(stored, sort_keys=True) == json.dumps(canonical, sort_keys=True)


def _same_arrays(stored: dict[str, np.ndarray], state: dict) -> bool:
    """Would saving ``state`` store exactly ``stored``: the same names in
    the same order, the same ``.npy`` header (dtype, shape, memory order)
    and the same bytes?"""
    if list(stored) != list(state):
        return False
    for name, old in stored.items():
        new = np.asanyarray(state[name])
        header = np.lib.format.header_data_from_array_1_0(new)
        if header != np.lib.format.header_data_from_array_1_0(old):
            return False
        order = "F" if header["fortran_order"] else "C"
        if old.tobytes(order) != new.tobytes(order):
            return False
    return True


@dataclass
class ArtifactEntry:
    """One committed artifact: its key, provenance spec, and file locations."""

    key: str
    spec: dict
    metadata: dict = field(default_factory=dict)
    created_at: float = 0.0
    nbytes: int = 0
    # SHA-256 of the blob file itself (the key hashes the *spec*, not the
    # bytes); None on sidecars written before integrity tracking existed.
    blob_sha256: str | None = None
    path: Path | None = None      # the .npz blob
    sidecar: Path | None = None   # the .json commit marker

    @property
    def group(self) -> str:
        """Coarse identity used by ``prune(keep_latest=)``: same group =
        same logical artifact family, differing only in config/seed."""
        spec = self.spec
        return ":".join(str(spec.get(field, "")) for field in
                        ("kind", "env_id", "game_id", "defense", "attack"))


class ArtifactStore:
    """Filesystem-backed content-addressed store (see module docstring).

    ``cache_size > 0`` enables an in-process LRU of the last N
    *deserialized* blobs, so a serving hot path answering the same spec
    repeatedly doesn't re-read and re-parse the same ``.npz`` from disk
    on every hit.  The cache is keyed by content address, so immutability
    makes staleness impossible within one process; ``put``/``remove``
    still invalidate defensively (a re-put of the same key is the only
    way bytes behind a key can legally change, and only to equal
    content).  Cached arrays are shared between callers and must be
    treated as read-only; callers that mutate must copy (the policy
    loaders already do — ``load_state_dict`` copies into place).

    Every ``get`` outcome bumps a telemetry counter (when a telemetry is
    ambient or injected): ``store.hits`` / ``store.misses`` for the
    overall result, plus ``store.memcache_hits`` when the LRU answered
    without touching disk and ``store.corrupt`` when the miss was a
    committed artifact that could not be served.  A ``put`` of content
    the store already holds intact writes nothing and counts
    ``store.put_unchanged``; one that replaces an intact entry with
    different content counts ``store.put_conflicts``.
    """

    def __init__(self, root: str | Path, telemetry=None, cache_size: int = 0):
        self.root = Path(root)
        self._telemetry = telemetry
        self.cache_size = max(0, int(cache_size))
        self._cache: OrderedDict[str, tuple[dict, ArtifactEntry]] = OrderedDict()
        self._cache_lock = threading.Lock()

    # ------------------------------------------------------------- plumbing

    @property
    def objects_dir(self) -> Path:
        return self.root / "objects"

    def key_for(self, spec: dict) -> str:
        return spec_key(spec)

    def _paths(self, key: str) -> tuple[Path, Path]:
        shard = self.objects_dir / key[:2]
        return shard / f"{key}.npz", shard / f"{key}.json"

    def _record(self, role: str, entry: ArtifactEntry) -> None:
        telemetry = self._telemetry if self._telemetry is not None else current_telemetry()
        if telemetry is not None:
            telemetry.record_artifact(entry.key, role, kind=entry.spec.get("kind"))

    def _count(self, name: str) -> None:
        telemetry = self._telemetry if self._telemetry is not None else current_telemetry()
        if telemetry is not None:
            telemetry.metrics.counter(name).inc()

    # ----------------------------------------------------------- blob cache

    def _cache_lookup(self, key: str) -> tuple[dict, ArtifactEntry] | None:
        if self.cache_size <= 0:
            return None
        with self._cache_lock:
            hit = self._cache.get(key)
            if hit is not None:
                self._cache.move_to_end(key)
            return hit

    def _cache_insert(self, key: str, state: dict, entry: ArtifactEntry) -> None:
        if self.cache_size <= 0:
            return
        with self._cache_lock:
            self._cache[key] = (state, entry)
            self._cache.move_to_end(key)
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)

    def _cache_invalidate(self, key: str) -> None:
        with self._cache_lock:
            self._cache.pop(key, None)

    # ------------------------------------------------------------ write path

    def put(self, spec: dict, state: dict[str, np.ndarray],
            metadata: dict | None = None) -> ArtifactEntry:
        """Commit ``state`` under the content address of ``spec``.

        A re-put of content the store already holds — an intact committed
        entry with equal canonical spec and metadata and equal arrays —
        writes nothing and returns that entry, ``created_at`` included.
        A sidecar from before integrity tracking is rewritten, so that it
        gains the blob's SHA-256.  Anything else (no entry,
        a damaged one, different content) is written: both the blob and
        its sidecar are fsynced before their renames (and the containing
        directory after), so a power cut can lose an in-flight put
        entirely, but can never commit a name over unwritten bytes —
        artifacts may be expensive multi-hour training results, and a
        torn one *looks* committed until ``verify`` runs.  Concurrent
        writers of the same cell stay idempotent: each rename is atomic.
        """
        spec = canonicalize(spec)
        key = canonical_key(spec)
        metadata = canonicalize(metadata or {})
        try:
            committed = self._load(key)
        except _Corrupt:
            committed = None
        if committed is not None:
            stored, entry = committed
            if not (entry.key == key and _same_json(entry.spec, spec)
                    and _same_json(entry.metadata, metadata)
                    and _same_arrays(stored, state)):
                self._count("store.put_conflicts")
            elif entry.blob_sha256 is not None:
                self._cache_invalidate(key)
                self._count("store.put_unchanged")
                self._record("produced", entry)
                return entry
            # else: equal content under a legacy sidecar; rewriting it
            # records the blob's SHA-256.
        blob_path, sidecar_path = self._paths(key)
        save_state(state, blob_path, metadata={"key": key, "spec": spec},
                   durable=True)
        data = _read_file(blob_path)
        entry = ArtifactEntry(
            key=key, spec=spec, metadata=metadata,
            created_at=time.time(), nbytes=len(data),
            blob_sha256=hashlib.sha256(data).hexdigest(),
            path=blob_path, sidecar=sidecar_path,
        )
        payload = json.dumps({
            "key": key, "spec": spec, "metadata": entry.metadata,
            "created_at": entry.created_at, "nbytes": entry.nbytes,
            "blob_sha256": entry.blob_sha256,
        }, indent=2, sort_keys=True)
        fd, tmp_name = tempfile.mkstemp(dir=sidecar_path.parent,
                                        prefix=sidecar_path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp_name, sidecar_path)
            _fsync_dir(sidecar_path.parent)
        except BaseException:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
            raise
        self._cache_invalidate(key)
        self._record("produced", entry)
        return entry

    # ------------------------------------------------------------- read path

    def entry(self, spec: dict) -> ArtifactEntry | None:
        """The committed entry for ``spec``, or None."""
        return self.entry_by_key(spec_key(spec))

    def entry_by_key(self, key: str) -> ArtifactEntry | None:
        try:
            entry = self._sidecar(key)
        except _Corrupt:
            return None
        if entry is None or not entry.path.exists():
            return None
        return entry

    def contains(self, spec: dict) -> bool:
        return self.entry(spec) is not None

    def _sidecar(self, key: str) -> ArtifactEntry | None:
        """The entry recorded by ``key``'s sidecar; None if there is no
        sidecar, ``_Corrupt`` if it cannot be parsed."""
        blob_path, sidecar_path = self._paths(key)
        try:
            with open(sidecar_path, encoding="utf-8") as fh:
                doc = json.load(fh)
            return ArtifactEntry(
                key=doc.get("key", key), spec=doc.get("spec", {}),
                metadata=doc.get("metadata", {}),
                created_at=float(doc.get("created_at", 0.0)),
                nbytes=int(doc.get("nbytes", 0)),
                blob_sha256=doc.get("blob_sha256"),
                path=blob_path, sidecar=sidecar_path,
            )
        except FileNotFoundError:
            return None
        except (OSError, ValueError, TypeError, AttributeError) as exc:
            raise _Corrupt(f"unreadable sidecar ({exc})") from None

    def _load(self, key: str) -> tuple[dict[str, np.ndarray], ArtifactEntry] | None:
        """The verified ``(state, entry)`` committed under ``key``.

        One sidecar read and one blob read: the size and SHA-256 the
        sidecar records are checked on the bytes in memory, and the
        arrays are decoded from those same bytes.  A truncated or
        bit-flipped ``.npz`` behind an intact sidecar is the nastiest
        store corruption — the artifact *looks* committed.  Sidecars from
        before integrity tracking (no ``blob_sha256``) only get the checks
        their fields allow.  Returns None when nothing is committed;
        raises ``_Corrupt`` when something is, but cannot be served.
        """
        entry = self._sidecar(key)
        if entry is None:
            return None
        try:
            data = _read_file(entry.path)
        except OSError as exc:
            raise _Corrupt(f"blob unreadable ({exc})") from None
        if entry.nbytes and len(data) != entry.nbytes:
            raise _Corrupt(f"blob is {len(data)} bytes, sidecar records "
                           f"{entry.nbytes} (truncated or overwritten)")
        if entry.blob_sha256 is not None:
            actual = hashlib.sha256(data).hexdigest()
            if actual != entry.blob_sha256:
                raise _Corrupt(f"blob sha256 {actual[:12]}… does not match "
                               f"sidecar's {entry.blob_sha256[:12]}… (corrupt)")
        try:
            state = decode_npz(data, skip=_META_KEY)
        except _DECODE_ERRORS as exc:
            raise _Corrupt(f"blob unreadable ({exc})") from None
        return state, entry

    def get(self, spec: dict) -> tuple[dict[str, np.ndarray], ArtifactEntry] | None:
        """Load ``(state, entry)`` for ``spec``; None on miss or corrupt blob.

        A corrupt/truncated blob is treated exactly like a cache miss so
        callers fall back to retraining instead of crashing on (or worse,
        silently serving) damaged arrays.  With ``cache_size > 0`` a
        repeat ``get`` of a recently loaded key is answered from the
        in-process LRU without touching disk; the returned dict is a
        fresh shallow copy either way, but the *arrays* are shared —
        treat them as read-only.
        """
        key = spec_key(spec)
        cached = self._cache_lookup(key)
        if cached is not None:
            state, entry = cached
            self._count("store.hits")
            self._count("store.memcache_hits")
            self._record("consumed", entry)
            return dict(state), entry
        try:
            loaded = self._load(key)
        except _Corrupt:
            self._count("store.corrupt")
            loaded = None
        if loaded is None:
            self._count("store.misses")
            return None
        state, entry = loaded
        self._cache_insert(key, state, entry)
        self._count("store.hits")
        self._record("consumed", entry)
        return dict(state), entry

    # ---------------------------------------------------------- maintenance

    def list(self) -> list[ArtifactEntry]:
        """All committed artifacts, newest first (then by key for ties)."""
        entries = []
        for sidecar in sorted(self.objects_dir.glob("*/*.json")):
            entry = self.entry_by_key(sidecar.stem)
            if entry is not None:
                entries.append(entry)
        return sorted(entries, key=lambda e: (-e.created_at, e.key))

    def __len__(self) -> int:
        return len(self.list())

    def total_bytes(self) -> int:
        return sum(entry.nbytes for entry in self.list())

    def remove(self, key: str) -> bool:
        self._cache_invalidate(key)
        blob_path, sidecar_path = self._paths(key)
        removed = False
        # Sidecar first: an interrupted remove leaves an orphan blob
        # (invisible, reported by verify), never a sidecar with no blob.
        for path in (sidecar_path, blob_path):
            if path.exists():
                path.unlink()
                removed = True
        return removed

    def prune(self, keep_latest: int | None = None, predicate=None) -> list[ArtifactEntry]:
        """Delete artifacts; returns the removed entries.

        ``keep_latest=N`` keeps the N newest artifacts *per group* (kind
        + env/game + defense/attack — i.e. per logical cell family) and
        removes older ones.  "Newest" is ``created_at``, the time the
        content was first written: a re-put of unchanged content does not
        refresh it.  ``predicate(entry) -> bool`` removes the
        entries it selects.  Orphan blobs (no sidecar) are always swept.
        """
        removed: list[ArtifactEntry] = []
        if keep_latest is not None:
            if keep_latest < 0:
                raise ValueError("keep_latest must be >= 0")
            by_group: dict[str, list[ArtifactEntry]] = {}
            for entry in self.list():  # newest first
                by_group.setdefault(entry.group, []).append(entry)
            for entries in by_group.values():
                for entry in entries[keep_latest:]:
                    self.remove(entry.key)
                    removed.append(entry)
        if predicate is not None:
            for entry in self.list():
                if predicate(entry):
                    self.remove(entry.key)
                    removed.append(entry)
        for blob in self.objects_dir.glob("*/*.npz"):
            if not blob.with_suffix(".json").exists():
                blob.unlink()
        return removed

    def verify(self) -> list[str]:
        """Integrity scan; returns human-readable problem descriptions.

        Checks: sidecar parses, its recorded key matches the spec's
        content address *and* the filename, the blob exists, matches the
        sidecar's recorded size and SHA-256, and loads, and no orphan
        blobs are lying around.
        """
        problems: list[str] = []
        if not self.objects_dir.exists():
            return problems
        for sidecar in sorted(self.objects_dir.glob("*/*.json")):
            key = sidecar.stem
            try:
                with open(sidecar, encoding="utf-8") as fh:
                    doc = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                problems.append(f"{key}: unreadable sidecar ({exc})")
                continue
            recorded = doc.get("key")
            if recorded != key:
                problems.append(f"{key}: sidecar records key {recorded!r}")
            recomputed = spec_key(doc.get("spec", {}))
            if recomputed != key:
                problems.append(f"{key}: spec hashes to {recomputed[:12]}… "
                                "(spec/key mismatch)")
            if not sidecar.with_suffix(".npz").exists():
                problems.append(f"{key}: blob missing")
                continue
            try:
                self._load(key)
            except _Corrupt as exc:
                problems.append(f"{key}: {exc}")
            except Exception as exc:  # noqa: BLE001 — report, don't crash the scan
                problems.append(f"{key}: blob unreadable ({exc})")
        for blob in sorted(self.objects_dir.glob("*/*.npz")):
            if not blob.with_suffix(".json").exists():
                problems.append(f"{blob.stem}: orphan blob (no sidecar)")
        return problems
