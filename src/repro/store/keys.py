"""Content-addressed keys: canonical JSON specs hashed with SHA-256.

A *spec* is a JSON-able description of how an artifact was produced
(env id, defense/attack config, code-version tag, seed, ...).  Two specs
that describe the same computation must produce the same key regardless
of dict insertion order, tuple-vs-list container choice, or numpy scalar
types, so canonicalization normalizes all of those before hashing.

Floats are rendered with ``repr`` (shortest round-trip form), which is
deterministic across platforms for IEEE-754 doubles; NaN/Infinity are
rejected because they have no canonical JSON form.  ``1`` and ``1.0``
hash differently by design — an int budget and a float budget are
different configurations.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math

import numpy as np

__all__ = ["canonicalize", "canonical_json", "canonical_key", "spec_key",
           "state_fingerprint"]


_PLAIN_SCALARS = frozenset((str, int, bool, type(None)))


def canonicalize(obj):
    """Normalize ``obj`` into plain JSON types with deterministic structure."""
    # Exact builtin types first: a spec is almost entirely plain dicts,
    # lists and scalars, and these branches skip the dataclass and numpy
    # probes.  Every other type, subclasses included, takes the checks below.
    cls = type(obj)
    if cls in _PLAIN_SCALARS:
        return obj
    if cls is dict:
        return _canonical_dict(obj)
    if cls is list or cls is tuple:
        return [canonicalize(item) for item in obj]
    if cls is float:
        return _finite(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return canonicalize(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return _canonical_dict(obj)
    if isinstance(obj, (list, tuple)):
        return [canonicalize(item) for item in obj]
    if isinstance(obj, np.ndarray):
        return canonicalize(obj.tolist())
    if isinstance(obj, (np.generic,)):
        return canonicalize(obj.item())
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return _finite(obj)
    raise TypeError(f"cannot canonicalize {type(obj).__name__} for a spec key")


def _canonical_dict(obj) -> dict:
    out = {}
    for key in sorted(obj, key=str):
        if not isinstance(key, str):
            raise TypeError(f"spec keys must be strings, got {key!r}")
        out[key] = canonicalize(obj[key])
    return out


def _finite(obj: float) -> float:
    if not math.isfinite(obj):
        raise ValueError(f"spec floats must be finite, got {obj!r}")
    return obj


def _dumps(canonical) -> str:
    return json.dumps(canonical, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True, allow_nan=False)


def canonical_json(obj) -> str:
    """The canonical serialized form: sorted keys, no whitespace, no NaN."""
    return _dumps(canonicalize(obj))


def spec_key(spec) -> str:
    """SHA-256 (hex) of the canonical JSON form of ``spec``."""
    return canonical_key(canonicalize(spec))


def canonical_key(canonical) -> str:
    """``spec_key`` of a spec that is already ``canonicalize``\\ d.

    ``canonicalize`` is idempotent, so this equals ``spec_key(canonical)``
    without walking the tree a second time.
    """
    return hashlib.sha256(_dumps(canonical).encode("utf-8")).hexdigest()


def state_fingerprint(state: dict[str, np.ndarray]) -> str:
    """SHA-256 (hex) over a named array dict (e.g. a policy state dict).

    Used to pin artifacts to the exact parameters they depend on — an
    attack trained against a victim embeds the victim's fingerprint in
    its spec, so retraining the victim invalidates the attack cache.
    """
    digest = hashlib.sha256()
    for name in sorted(state):
        value = np.ascontiguousarray(np.asarray(state[name], dtype=np.float64))
        digest.update(name.encode("utf-8"))
        digest.update(str(value.shape).encode("utf-8"))
        digest.update(value.tobytes())
    return digest.hexdigest()
