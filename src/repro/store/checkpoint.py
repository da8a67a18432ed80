"""Full-state training checkpoints for bit-identical resume.

A :class:`TrainingCheckpoint` captures everything a training loop needs
to continue *exactly* where it stopped: module parameters, optimizer
moment buffers, observation/reward normalizer statistics, every
``np.random.Generator`` reachable from the environment graph, iteration
counters, and the training history so far.  The contract (verified by
``tests/test_resume.py`` against the PR-2 determinism battery): a run
resumed from a checkpoint produces bit-identical parameters, history
records, and telemetry event payloads versus the same run uninterrupted.

Checkpoints serialize through :func:`repro.nn.serialization.save_state`
(atomic tmp+rename ``.npz``): arrays are flattened out of the nested
state tree into named npz entries while scalars, RNG bit-generator
states, and the history ride in the JSON metadata sidecar.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..nn.serialization import load_state, save_state

__all__ = [
    "TrainingCheckpoint", "split_tree", "join_tree",
    "capture_rng_states", "restore_rng_states",
]

_ARRAY_MARKER = "__ndarray__"
_FORMAT_VERSION = 1


# --------------------------------------------------------------- state trees

def split_tree(tree):
    """Flatten a nested state tree into (arrays, json_tree).

    ``tree`` may nest dicts, lists/tuples, numpy arrays, scalars, bools,
    strings, and ``None``.  Arrays are pulled into a flat ``{path:
    ndarray}`` dict (npz-ready) and replaced in the JSON tree by a
    ``{"__ndarray__": path}`` marker; everything else stays in place.
    """
    arrays: dict[str, np.ndarray] = {}

    def walk(node, path: str):
        if isinstance(node, np.ndarray):
            arrays[path] = node
            return {_ARRAY_MARKER: path}
        if isinstance(node, dict):
            out = {}
            for key, value in node.items():
                if not isinstance(key, str) or "/" in key:
                    raise TypeError(f"state tree keys must be '/'-free strings: {key!r}")
                out[key] = walk(value, f"{path}/{key}" if path else key)
            return out
        if isinstance(node, (list, tuple)):
            return [walk(item, f"{path}/{i}") for i, item in enumerate(node)]
        if isinstance(node, np.generic):
            return node.item()
        return node

    return arrays, walk(tree, "")


def join_tree(json_tree, arrays: dict[str, np.ndarray]):
    """Reverse :func:`split_tree`: re-inline arrays into the JSON tree."""
    if isinstance(json_tree, dict):
        if set(json_tree) == {_ARRAY_MARKER}:
            return arrays[json_tree[_ARRAY_MARKER]]
        return {key: join_tree(value, arrays) for key, value in json_tree.items()}
    if isinstance(json_tree, list):
        return [join_tree(item, arrays) for item in json_tree]
    return json_tree


# ----------------------------------------------------------------- RNG graphs

def _is_repro_object(value) -> bool:
    return type(value).__module__.split(".")[0] == "repro"


def _walk_generators(obj, path: str, found: dict, seen: set) -> None:
    if id(obj) in seen:
        return
    seen.add(id(obj))
    state = getattr(obj, "__dict__", None)
    if state is None:
        return
    for name, value in state.items():
        child = f"{path}.{name}" if path else name
        if isinstance(value, np.random.Generator):
            found[child] = value
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                if isinstance(item, np.random.Generator):
                    found[f"{child}[{i}]"] = item
                elif _is_repro_object(item):
                    _walk_generators(item, f"{child}[{i}]", found, seen)
        elif _is_repro_object(value):
            _walk_generators(value, child, found, seen)


def _find_generators(obj) -> dict[str, np.random.Generator]:
    found: dict[str, np.random.Generator] = {}
    _walk_generators(obj, "", found, set())
    return found


def capture_rng_states(obj) -> dict[str, dict]:
    """Bit-generator states of every ``np.random.Generator`` reachable
    from ``obj`` through repro objects (env wrappers, opponents, vector
    lanes), keyed by attribute path.  The states are JSON-serializable.
    """
    return {path: gen.bit_generator.state for path, gen in _find_generators(obj).items()}


def restore_rng_states(obj, states: dict[str, dict]) -> None:
    """Restore generator states captured by :func:`capture_rng_states`.

    The object graph must expose exactly the generators that were
    captured — a mismatch means the checkpoint was taken from a
    differently-shaped run and resuming would silently diverge.
    """
    found = _find_generators(obj)
    missing = set(states) - set(found)
    extra = set(found) - set(states)
    if missing or extra:
        raise KeyError(
            "RNG graph mismatch between checkpoint and live objects: "
            f"missing={sorted(missing)} extra={sorted(extra)}")
    for path, state in states.items():
        found[path].bit_generator.state = state


# --------------------------------------------------------------- checkpoints

@dataclass
class TrainingCheckpoint:
    """One resumable snapshot of a training loop at an iteration boundary.

    ``kind`` tags the producing loop (``"train_ppo"`` / ``"adversary"``)
    so a checkpoint cannot be resumed by the wrong one; ``iteration`` is
    the number of *completed* iterations; ``history`` the per-iteration
    records so far; ``state`` an arbitrary nested tree (see module
    docstring) of arrays, scalars, and RNG states.
    """

    kind: str
    iteration: int
    history: list
    state: dict

    def save(self, path: str | Path) -> Path:
        arrays, json_tree = split_tree(self.state)
        return save_state(arrays, path, metadata={
            "format": _FORMAT_VERSION,
            "kind": self.kind,
            "iteration": self.iteration,
            "history": self.history,
            "tree": json_tree,
        })

    @classmethod
    def load(cls, path: str | Path) -> "TrainingCheckpoint":
        arrays, meta = load_state(path)
        if meta.get("format") != _FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint format in {path}: "
                             f"{meta.get('format')!r}")
        return cls(
            kind=meta["kind"],
            iteration=int(meta["iteration"]),
            history=meta["history"],
            state=join_tree(meta["tree"], arrays),
        )

    def expect_kind(self, kind: str) -> "TrainingCheckpoint":
        if self.kind != kind:
            raise ValueError(f"checkpoint kind {self.kind!r} cannot resume a "
                             f"{kind!r} loop")
        return self
