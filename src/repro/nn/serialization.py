"""Checkpoint (de)serialization for Modules, backed by ``.npz`` archives.

Writes are atomic: the archive is serialized to a sibling temp file and
``os.replace``\\ d into place, so a reader (or a crashed writer) never
observes a half-written checkpoint — the file is either the previous
complete version or the new one.  ``durable=True`` additionally fsyncs
the temp file *before* the rename and the directory after it, closing
the power-loss window where the rename is journaled but the data pages
are not (a committed name over truncated bytes).

Reads go through :func:`decode_npz`, which decodes an archive held in
memory: a caller that has already read the bytes (the artifact store
hashes them first) decodes those same bytes instead of reopening the file.
"""

from __future__ import annotations

import io
import json
import os
import re
import struct
import tempfile
import zipfile
import zlib
from pathlib import Path

import numpy as np

from .modules import Module

__all__ = ["save_state", "save_module", "load_state", "load_module", "decode_npz"]

_META_KEY = "__meta__"

# The ``.npy`` v1.0 header exactly as ``np.lib.format`` writes it for a
# dtype with a string descr: ``{'descr': '<f8', 'fortran_order': False,
# 'shape': (3, 3), }`` padded with spaces and ended by a newline.
_NPY_MAGIC = b"\x93NUMPY\x01\x00"
_NPY_HEADER = re.compile(
    r"\{'descr': '([^']+)', 'fortran_order': (True|False), "
    r"'shape': \((|\d+,|\d+(?:, \d+)+)\), \} *\n")
_ZIP_LOCAL = b"PK\x03\x04"


def _decode_npy(raw) -> np.ndarray:
    """One ``.npy`` member as a fresh, writable array in its stored order.

    Headers in the exact form numpy writes are parsed here; any other
    header (structured dtypes, format v2/v3) goes through
    ``np.lib.format.read_array``, so the result always equals ``np.load``'s.
    """
    match = None
    if raw[:8] == _NPY_MAGIC and len(raw) >= 10:
        header_len = raw[8] | raw[9] << 8
        match = _NPY_HEADER.fullmatch(str(raw[10:10 + header_len], "latin1"))
    try:
        dtype = None if match is None else np.dtype(match[1])
    except TypeError:  # not a dtype: read_array raises its ValueError
        dtype = None
    if dtype is None or dtype.hasobject or dtype.itemsize == 0:
        return np.lib.format.read_array(io.BytesIO(raw), allow_pickle=False)
    shape = tuple(int(dim) for dim in match[3].split(",") if dim)
    count = 1
    for dim in shape:
        count *= dim
    flat = np.frombuffer(raw, dtype=dtype, count=count, offset=10 + header_len).copy()
    if match[2] == "True":
        return flat.reshape(shape[::-1]).transpose()
    return flat.reshape(shape)


def decode_npz(data: bytes, skip: str | None = None) -> dict[str, np.ndarray]:
    """Decode an ``.npz`` archive held in memory; arrays in archive order.

    Equal to ``np.load(io.BytesIO(data), allow_pickle=False)`` member for
    ``.npy`` member (values, dtype, shape, memory order, writeable), without a
    second read or a per-member ``ast.literal_eval``.  Uncompressed
    members are sliced straight out of ``data`` and CRC-checked;
    compressed ones go through ``zipfile``.  The member named ``skip`` is
    not decoded.  Raises ``zipfile.BadZipFile`` or ``ValueError`` on
    damaged input.
    """
    view = memoryview(data)
    arrays = {}
    with zipfile.ZipFile(io.BytesIO(data)) as archive:
        for info in archive.infolist():
            name = info.filename[:-4] if info.filename.endswith(".npy") else info.filename
            if name == skip:
                continue
            if info.compress_type != zipfile.ZIP_STORED or info.flag_bits & 1:
                arrays[name] = _decode_npy(archive.read(info))
                continue
            offset = info.header_offset
            if data[offset:offset + 4] != _ZIP_LOCAL or offset + 30 > len(data):
                raise zipfile.BadZipFile(f"bad local header for {info.filename!r}")
            name_len, extra_len = struct.unpack_from("<HH", data, offset + 26)
            start = offset + 30 + name_len + extra_len
            raw = view[start:start + info.compress_size]
            if len(raw) != info.compress_size or zlib.crc32(raw) != info.CRC:
                raise zipfile.BadZipFile(f"bad CRC-32 for {info.filename!r}")
            arrays[name] = _decode_npy(raw)
    return arrays


def _fsync_dir(directory: Path) -> None:
    """Flush a directory entry (the rename itself) to stable storage."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return  # platform/filesystem without dir-fsync: best effort
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def save_state(state: dict[str, np.ndarray], path: str | Path,
               metadata: dict | None = None, durable: bool = False) -> Path:
    """Atomically save a raw state dict (+ optional JSON metadata) to ``path``.

    ``durable=True`` fsyncs the bytes before the rename (and the
    directory after), so a power cut cannot commit the name over
    unwritten data.  Checkpoints default to fast (a torn checkpoint
    just resumes one interval earlier); the artifact store opts in.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays = dict(state)
    arrays[_META_KEY] = np.frombuffer(
        json.dumps(metadata or {}).encode("utf-8"), dtype=np.uint8
    ).copy()
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name,
                                    suffix=".tmp.npz")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, **arrays)
            if durable:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp_name, path)
        if durable:
            _fsync_dir(path.parent)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise
    return path


def save_module(module: Module, path: str | Path, metadata: dict | None = None) -> Path:
    """Save a module's parameters (and optional JSON metadata) to ``path``."""
    return save_state(module.state_dict(), path, metadata)


def load_state(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Load a state dict and its metadata from an ``.npz`` checkpoint."""
    state = decode_npz(Path(path).read_bytes())
    meta = state.pop(_META_KEY, None)
    metadata = {} if meta is None else json.loads(meta.tobytes().decode("utf-8"))
    return state, metadata


def load_module(module: Module, path: str | Path) -> dict:
    """Load parameters into ``module`` in place; returns the stored metadata."""
    state, metadata = load_state(path)
    module.load_state_dict(state)
    return metadata
