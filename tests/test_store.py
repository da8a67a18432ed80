"""Artifact store: canonical keys (property tests), CRUD, prune, verify,
optimizer state round-trips, and the store-gc CLI."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import MLP, Adam, SGD
from repro.store import (
    ArtifactStore,
    canonical_json,
    canonicalize,
    default_store,
    default_store_root,
    join_tree,
    spec_key,
    split_tree,
    state_fingerprint,
)

# --- canonicalization ---------------------------------------------------

json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2**53, 2**53), st.text(max_size=8),
    st.floats(allow_nan=False, allow_infinity=False),
)
json_trees = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=20,
)


def shuffle_dicts(obj, rng):
    """Rebuild ``obj`` with every dict's insertion order permuted."""
    if isinstance(obj, dict):
        keys = list(obj)
        rng.shuffle(keys)
        return {k: shuffle_dicts(obj[k], rng) for k in keys}
    if isinstance(obj, list):
        return [shuffle_dicts(v, rng) for v in obj]
    return obj


class TestCanonicalKeys:
    @settings(deadline=None, max_examples=80)
    @given(tree=json_trees, seed=st.integers(0, 2**31 - 1))
    def test_key_invariant_under_dict_ordering(self, tree, seed):
        shuffled = shuffle_dicts(tree, np.random.default_rng(seed))
        assert spec_key(tree) == spec_key(shuffled)

    @settings(deadline=None, max_examples=80)
    @given(tree=json_trees)
    def test_canonical_json_round_trips(self, tree):
        """Parsing the canonical form and re-canonicalizing is a fixpoint —
        float formatting via repr survives a JSON round trip exactly."""
        text = canonical_json(tree)
        assert canonical_json(json.loads(text)) == text

    @settings(deadline=None, max_examples=80)
    @given(x=st.floats(allow_nan=False, allow_infinity=False))
    def test_float_formatting_exact(self, x):
        assert json.loads(canonical_json({"x": x}))["x"] == x

    def test_tuple_and_list_hash_identically(self):
        assert spec_key({"a": (1, 2)}) == spec_key({"a": [1, 2]})

    def test_numpy_scalars_normalize(self):
        assert spec_key({"a": np.int64(3)}) == spec_key({"a": 3})
        assert spec_key({"a": np.float64(0.5)}) == spec_key({"a": 0.5})

    def test_int_and_float_are_distinct(self):
        assert spec_key({"a": 1}) != spec_key({"a": 1.0})

    def test_rejects_nan_and_nonstring_keys(self):
        with pytest.raises(ValueError):
            canonicalize({"a": float("nan")})
        with pytest.raises(TypeError):
            canonicalize({1: "x"})
        with pytest.raises(TypeError):
            canonicalize({"a": object()})

    def test_fingerprint_sensitive_to_values_and_names(self):
        state = {"w": np.ones((2, 2)), "b": np.zeros(2)}
        assert state_fingerprint(state) == state_fingerprint(dict(reversed(state.items())))
        assert state_fingerprint(state) != state_fingerprint(
            {"w": np.ones((2, 2)), "b": np.ones(2)})
        assert state_fingerprint({"w": np.ones(4)}) != state_fingerprint(
            {"w2": np.ones(4)})


# --- canonicalize against its pre-fast-path form ------------------------

def reference_canonicalize(obj):
    """``canonicalize`` before the exact-type fast path, kept verbatim."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return reference_canonicalize(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        out = {}
        for key in sorted(obj, key=str):
            if not isinstance(key, str):
                raise TypeError(f"spec keys must be strings, got {key!r}")
            out[key] = reference_canonicalize(obj[key])
        return out
    if isinstance(obj, (list, tuple)):
        return [reference_canonicalize(item) for item in obj]
    if isinstance(obj, np.ndarray):
        return reference_canonicalize(obj.tolist())
    if isinstance(obj, (np.generic,)):
        return reference_canonicalize(obj.item())
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"spec floats must be finite, got {obj!r}")
        return obj
    raise TypeError(f"cannot canonicalize {type(obj).__name__} for a spec key")


def reference_json(obj) -> str:
    return json.dumps(reference_canonicalize(obj), sort_keys=True,
                      separators=(",", ":"), ensure_ascii=True, allow_nan=False)


class Tag(str):
    pass


class Level(int):
    pass


@dataclasses.dataclass
class Cell:
    name: str
    budget: int
    lr: float
    sizes: tuple


finite = st.floats(allow_nan=False, allow_infinity=False)
spec_leaves = st.one_of(
    json_scalars,
    st.sampled_from([0, 1, 0.0, -0.0, 1.0, True, False]),
    st.integers(-2**40, 2**40).map(np.int64),
    finite.map(np.float64),
    st.floats(-1e3, 1e3, width=32).map(np.float32),
    st.booleans().map(np.bool_),
    st.text(max_size=4).map(Tag),
    st.integers(-9, 9).map(Level),
    st.lists(finite, max_size=3).map(np.array),
    st.lists(st.integers(-9, 9), max_size=4).map(lambda xs: np.array(xs, dtype=np.int32)),
    st.builds(Cell, st.text(max_size=4), st.integers(0, 99), finite,
              st.tuples(st.integers(1, 64), st.integers(1, 64))),
)
spec_trees = st.recursive(
    spec_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=5), st.text(max_size=3).map(Tag)),
                        children, max_size=4),
    ),
    max_leaves=20,
)


class TestCanonicalizeMatchesReference:
    @settings(deadline=None, max_examples=300)
    @given(tree=spec_trees)
    def test_same_canonical_json(self, tree):
        assert canonical_json(tree) == reference_json(tree)
        assert spec_key(tree) == spec_key(json.loads(reference_json(tree)))

    @pytest.mark.parametrize("bad", [
        {"a": [1.0, float("nan")]},
        {"a": {"b": np.float64("inf")}},
        (float("-inf"),),
        {"a": np.array([0.5, np.nan])},
        {1: "x", "b": 2},
        {"a": {"c": 1, 2.5: "y"}},
        {"a": [Cell("c", 1, float("nan"), (1, 2))]},
        {"a": object()},
    ])
    def test_same_exceptions(self, bad):
        with pytest.raises((TypeError, ValueError)) as expected:
            reference_canonicalize(bad)
        with pytest.raises(expected.type, match=re.escape(str(expected.value))):
            canonicalize(bad)


# --- state-tree flattening ----------------------------------------------

class TestSplitTree:
    def test_round_trip(self):
        tree = {
            "params": {"w": np.arange(6.0).reshape(2, 3), "b": np.zeros(3)},
            "opt": {"step": 7, "m": [np.ones(2), np.zeros(2)]},
            "rng": {"state": 12345678901234567890, "inc": 3},
            "none": None, "flag": True, "name": "x",
        }
        arrays, json_tree = split_tree(tree)
        restored = join_tree(json_tree, arrays)
        assert restored["opt"]["step"] == 7
        assert restored["rng"] == tree["rng"]
        np.testing.assert_array_equal(restored["params"]["w"], tree["params"]["w"])
        np.testing.assert_array_equal(restored["opt"]["m"][0], np.ones(2))

    def test_rejects_slash_keys(self):
        with pytest.raises(TypeError):
            split_tree({"a/b": 1})


# --- store CRUD ---------------------------------------------------------

SPEC = {"kind": "victim", "env_id": "Hopper-v0", "defense": "ppo", "seed": 0}


def _state(value=1.0):
    return {"w": np.full((3, 3), value), "b": np.zeros(3)}


class TestArtifactStore:
    def test_put_get_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        entry = store.put(SPEC, _state(), metadata={"obs_dim": 11})
        assert entry.key == spec_key(SPEC)
        state, got = store.get(SPEC)
        np.testing.assert_array_equal(state["w"], np.full((3, 3), 1.0))
        assert got.metadata == {"obs_dim": 11}
        assert store.contains(SPEC)
        assert len(store) == 1

    def test_get_miss_returns_none(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        assert store.get(SPEC) is None
        assert not store.contains(SPEC)

    def test_default_store_honors_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "elsewhere"))
        assert default_store_root() == tmp_path / "elsewhere"
        store = default_store()
        store.put(SPEC, _state())
        assert (tmp_path / "elsewhere" / "objects").exists()

    def test_reput_is_idempotent(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put(SPEC, _state())
        store.put(SPEC, _state())
        assert len(store) == 1

    def test_orphan_blob_is_invisible_and_pruned(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        entry = store.put(SPEC, _state())
        entry.sidecar.unlink()  # simulate a crash between blob and sidecar
        assert store.get(SPEC) is None
        assert any("orphan" in p for p in store.verify())
        store.prune()
        assert not entry.path.exists()

    def test_verify_detects_spec_tampering(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        entry = store.put(SPEC, _state())
        doc = json.loads(entry.sidecar.read_text())
        doc["spec"]["seed"] = 99
        entry.sidecar.write_text(json.dumps(doc))
        assert any("mismatch" in p for p in store.verify())

    def test_sidecar_records_blob_size_and_hash(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        entry = store.put(SPEC, _state())
        doc = json.loads(entry.sidecar.read_text())
        assert doc["nbytes"] == entry.path.stat().st_size
        assert doc["blob_sha256"] == entry.blob_sha256
        assert len(entry.blob_sha256) == 64
        assert store.verify() == []

    def test_truncated_blob_detected_and_treated_as_miss(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        entry = store.put(SPEC, _state())
        with open(entry.path, "r+b") as fh:
            fh.truncate(16)  # sidecar still says committed
        problems = store.verify()
        assert any("truncated" in p for p in problems), problems
        # get() treats corruption as a cache miss → caller retrains.
        assert store.get(SPEC) is None

    def test_bitflipped_blob_detected_by_hash(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        entry = store.put(SPEC, _state())
        corrupted = bytearray(entry.path.read_bytes())
        corrupted[len(corrupted) // 2] ^= 0xFF  # same size, different bytes
        entry.path.write_bytes(bytes(corrupted))
        problems = store.verify()
        assert any("sha256" in p for p in problems), problems
        assert store.get(SPEC) is None

    def test_legacy_sidecar_without_hash_still_loads(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        entry = store.put(SPEC, _state())
        doc = json.loads(entry.sidecar.read_text())
        del doc["blob_sha256"]  # sidecar from before integrity tracking
        entry.sidecar.write_text(json.dumps(doc))
        assert store.verify() == []
        state, _ = store.get(SPEC)
        np.testing.assert_array_equal(state["w"], _state()["w"])

    def test_prune_keep_latest_per_group(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        for seed in range(3):
            entry = store.put({**SPEC, "seed": seed}, _state(seed))
            # Pin distinct, ordered created_at stamps so "newest" is unambiguous.
            doc = json.loads(entry.sidecar.read_text())
            doc["created_at"] = float(seed)
            entry.sidecar.write_text(json.dumps(doc))
        other = {"kind": "attack", "env_id": "Ant-v0", "attack": "sarl", "seed": 0}
        store.put(other, _state())
        removed = store.prune(keep_latest=1)
        assert len(removed) == 2  # two oldest victims; the attack family stays
        remaining = {e.spec.get("seed") for e in store.list()
                     if e.spec["kind"] == "victim"}
        assert remaining == {2}
        assert store.contains(other)

    def test_records_artifacts_in_manifest(self, tmp_path):
        from repro.telemetry import Telemetry, use_telemetry

        store = ArtifactStore(tmp_path / "store")
        telemetry = Telemetry.to_dir(tmp_path / "run", run_id="r")
        with use_telemetry(telemetry):
            store.put(SPEC, _state())
            store.get(SPEC)
        telemetry.finalize("ok")
        artifacts = telemetry.manifest.artifacts
        assert {a["role"] for a in artifacts} == {"produced", "consumed"}
        assert all(a["key"] == spec_key(SPEC) for a in artifacts)


# --- optimizer state dicts ----------------------------------------------

def _make_net_and_batch(seed=0):
    rng = np.random.default_rng(seed)
    net = MLP(4, (8,), 2, rng=rng)
    x = rng.normal(size=(16, 4))
    y = rng.normal(size=(16, 2))
    return net, x, y


def _train_steps(net, opt, x, y, steps):
    for _ in range(steps):
        pred = net(x)
        loss = ((pred - y) ** 2).mean()
        opt.zero_grad()
        loss.backward()
        opt.step()


@pytest.mark.parametrize("make_opt", [
    lambda params: SGD(params, lr=0.05, momentum=0.9),
    lambda params: Adam(params, lr=0.01),
], ids=["sgd", "adam"])
class TestOptimizerStateDict:
    def test_round_trip_resumes_bit_identical(self, make_opt):
        # Train 4 steps straight through.
        net_a, x, y = _make_net_and_batch()
        opt_a = make_opt(net_a.parameters())
        _train_steps(net_a, opt_a, x, y, 4)

        # Train 2 steps, snapshot, restore into fresh copies, 2 more.
        net_b, _, _ = _make_net_and_batch()
        opt_b = make_opt(net_b.parameters())
        _train_steps(net_b, opt_b, x, y, 2)
        opt_state = opt_b.state_dict()
        net_state = net_b.state_dict()

        net_c, _, _ = _make_net_and_batch()
        net_c.load_state_dict(net_state)
        opt_c = make_opt(net_c.parameters())
        opt_c.load_state_dict(opt_state)
        _train_steps(net_c, opt_c, x, y, 2)

        for key, value in net_a.state_dict().items():
            np.testing.assert_array_equal(value, net_c.state_dict()[key])

    def test_rejects_mismatched_shapes(self, make_opt):
        net, _, _ = _make_net_and_batch()
        opt = make_opt(net.parameters())
        state = opt.state_dict()
        other_net, _, _ = _make_net_and_batch()
        other = make_opt([next(iter(other_net.parameters()))])
        with pytest.raises(ValueError):
            other.load_state_dict(state)


# --- store-gc CLI -------------------------------------------------------

class TestStoreGcCli:
    def _load_cli(self):
        import importlib.util
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "scripts" / "store_gc.py"
        module_spec = importlib.util.spec_from_file_location("store_gc", path)
        module = importlib.util.module_from_spec(module_spec)
        module_spec.loader.exec_module(module)
        return module

    def test_list_verify_prune(self, tmp_path, capsys):
        gc = self._load_cli()
        store = ArtifactStore(tmp_path / "store")
        for seed in range(2):
            store.put({**SPEC, "seed": seed}, _state(seed))

        assert gc.main(["--store-dir", str(tmp_path / "store"), "list"]) == 0
        out = capsys.readouterr().out
        assert "2 artifacts" in out and "victim/Hopper-v0/ppo" in out

        assert gc.main(["--store-dir", str(tmp_path / "store"), "verify"]) == 0
        assert "0 problems" in capsys.readouterr().out

        assert gc.main(["--store-dir", str(tmp_path / "store"),
                        "prune", "--keep-latest", "1", "--yes"]) == 0
        assert len(store) == 1


# --- in-process blob LRU ------------------------------------------------


class TestStoreBlobCache:
    def _counters(self, telemetry) -> dict:
        return {name: c for name, c in
                telemetry.metrics.snapshot()["counters"].items()
                if name.startswith("store.")}

    def test_off_by_default_and_counters_still_track(self, tmp_path):
        from repro.telemetry import Telemetry

        telemetry = Telemetry.in_memory()
        store = ArtifactStore(tmp_path / "store", telemetry=telemetry)
        assert store.cache_size == 0
        store.put(SPEC, _state())
        store.get(SPEC)
        store.get(SPEC)
        store.get({**SPEC, "seed": 99})  # never written
        counters = self._counters(telemetry)
        assert counters["store.hits"] == 2.0
        assert counters["store.misses"] == 1.0
        assert "store.memcache_hits" not in counters

    def test_memcache_answers_repeat_gets(self, tmp_path):
        from repro.telemetry import Telemetry

        telemetry = Telemetry.in_memory()
        store = ArtifactStore(tmp_path / "store", telemetry=telemetry,
                              cache_size=4)
        store.put(SPEC, _state(2.5))
        first, entry = store.get(SPEC)
        # Delete the blob behind the store's back: a disk read would now
        # miss, so a hit here proves the LRU answered from memory.
        entry.path.unlink()
        second, _ = store.get(SPEC)
        np.testing.assert_array_equal(second["w"], first["w"])
        counters = self._counters(telemetry)
        assert counters["store.memcache_hits"] == 1.0
        assert counters["store.hits"] == 2.0

    def test_eviction_respects_bound(self, tmp_path):
        store = ArtifactStore(tmp_path / "store", cache_size=2)
        specs = [{**SPEC, "seed": i} for i in range(3)]
        for i, spec in enumerate(specs):
            store.put(spec, _state(float(i)))
            store.get(spec)
        assert len(store._cache) == 2
        # seed=0 was evicted (oldest); its blob is gone -> real miss now.
        entry0 = store.entry(specs[0])
        entry0.path.unlink()
        assert store.get(specs[0]) is None
        # seed=2 is still resident and survives its blob's deletion.
        store.entry(specs[2]).path.unlink()
        assert store.get(specs[2]) is not None

    def test_put_and_remove_invalidate(self, tmp_path):
        store = ArtifactStore(tmp_path / "store", cache_size=4)
        store.put(SPEC, _state(1.0))
        store.get(SPEC)
        store.put(SPEC, _state(7.0))  # legal re-put; cache must not serve 1.0
        state, _ = store.get(SPEC)
        np.testing.assert_array_equal(state["w"], np.full((3, 3), 7.0))
        store.remove(store.key_for(canonicalize(SPEC)))
        assert store.get(SPEC) is None

    def test_returned_dict_is_a_fresh_copy(self, tmp_path):
        store = ArtifactStore(tmp_path / "store", cache_size=4)
        store.put(SPEC, _state())
        first, _ = store.get(SPEC)
        first.pop("w")  # mutating the returned *dict* must not poison the cache
        second, _ = store.get(SPEC)
        assert "w" in second


class TestCrashConsistency:
    """Durability ordering of the put path: fsync *before* rename.

    The atomic rename makes a put invisible-or-complete against process
    crashes; the fsyncs make it so against power loss too — a name must
    never land over bytes the disk has not accepted yet.
    """

    @staticmethod
    def _instrument(monkeypatch):
        import os as os_mod

        events = []
        real_fsync, real_replace = os_mod.fsync, os_mod.replace

        def spy_fsync(fd):
            events.append(("fsync", fd))
            return real_fsync(fd)

        def spy_replace(src, dst, **kwargs):
            events.append(("replace", str(dst)))
            return real_replace(src, dst, **kwargs)

        monkeypatch.setattr(os_mod, "fsync", spy_fsync)
        monkeypatch.setattr(os_mod, "replace", spy_replace)
        return events

    def test_durable_save_fsyncs_before_rename(self, tmp_path, monkeypatch):
        from repro.nn.serialization import save_state

        events = self._instrument(monkeypatch)
        save_state(_state(), tmp_path / "ckpt.npz", durable=True)
        kinds = [kind for kind, _ in events]
        rename_at = kinds.index("replace")
        assert "fsync" in kinds[:rename_at]  # data on disk before the name
        assert "fsync" in kinds[rename_at + 1:]  # then the directory entry

    def test_plain_save_skips_fsync(self, tmp_path, monkeypatch):
        from repro.nn.serialization import save_state

        events = self._instrument(monkeypatch)
        save_state(_state(), tmp_path / "ckpt.npz", durable=False)
        assert [kind for kind, _ in events] == ["replace"]

    def test_store_put_is_always_durable(self, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path / "store")
        events = self._instrument(monkeypatch)
        store.put(SPEC, _state())
        renames = [i for i, (kind, _) in enumerate(events) if kind == "replace"]
        assert len(renames) == 2  # blob, then sidecar
        for rename_at in renames:  # every rename rides behind an fsync
            assert events[rename_at - 1][0] == "fsync"

    def test_truncation_during_put_is_detected_and_repairable(self, tmp_path):
        from repro.faultinject import truncate_blob

        store = ArtifactStore(tmp_path / "store")
        entry = store.put(SPEC, _state(3.0))
        truncate_blob(store, entry.key, keep_bytes=8)
        assert any("truncated" in p for p in store.verify())
        assert store.get(SPEC) is None  # corruption reads as a miss
        store.put(SPEC, _state(3.0))  # retraining the cell repairs in place
        state, _ = store.get(SPEC)
        np.testing.assert_array_equal(state["w"], np.full((3, 3), 3.0))
        assert store.verify() == []


def _files(root) -> dict:
    """Every file under ``root``: bytes and st_mtime_ns."""
    return {path: (path.read_bytes(), path.stat().st_mtime_ns)
            for path in sorted(root.rglob("*")) if path.is_file()}


class TestReput:
    """A put of content the store already holds writes nothing; a put of
    different content overwrites, counted; a damaged entry is rewritten."""

    @staticmethod
    def _store(tmp_path):
        from repro.telemetry import Telemetry

        telemetry = Telemetry.in_memory()
        return ArtifactStore(tmp_path / "store", telemetry=telemetry), telemetry

    @staticmethod
    def _counters(telemetry) -> dict:
        return {name: value for name, value in
                telemetry.metrics.snapshot().get("counters", {}).items()
                if name.startswith("store.")}

    def test_equal_reput_writes_nothing(self, tmp_path, monkeypatch):
        import os as os_mod

        store, telemetry = self._store(tmp_path)
        first = store.put(SPEC, _state(2.0), metadata={"obs_dim": 11, "lr": 0.5})
        before = _files(store.objects_dir)
        fsyncs = []
        monkeypatch.setattr(os_mod, "fsync", lambda fd: fsyncs.append(fd))
        # Same content through different but canonically equal values.
        again = store.put(dict(reversed(SPEC.items())),
                          {"w": np.full((3, 3), 2.0), "b": np.zeros(3)},
                          metadata={"lr": np.float64(0.5), "obs_dim": np.int64(11)})
        assert fsyncs == []
        assert _files(store.objects_dir) == before
        assert again == first
        assert self._counters(telemetry) == {"store.put_unchanged": 1.0}
        assert store.verify() == []

    @pytest.mark.parametrize("change", [
        "value", "dtype", "shape", "memory_order", "extra_array", "array_order",
        "metadata_value", "metadata_int_vs_float", "metadata_signed_zero",
    ])
    def test_different_content_overwrites_and_counts(self, tmp_path, change):
        store, telemetry = self._store(tmp_path)
        w = np.arange(6.0).reshape(2, 3)
        state = {"w": w, "b": np.zeros(3)}
        metadata = {"score": 0.0, "n": 1}
        store.put(SPEC, state, metadata=metadata)
        before = _files(store.objects_dir)
        state = dict(state)
        metadata = dict(metadata)
        if change == "value":
            state["w"] = w + 1.0
        elif change == "dtype":
            state["w"] = w.astype(np.float32)
        elif change == "shape":
            state["w"] = w.reshape(3, 2)
        elif change == "memory_order":
            state["w"] = np.asfortranarray(w)
        elif change == "extra_array":
            state["c"] = np.ones(1)
        elif change == "array_order":
            state = {"b": state["b"], "w": state["w"]}
        elif change == "metadata_value":
            metadata["n"] = 2
        elif change == "metadata_int_vs_float":
            metadata["n"] = 1.0
        elif change == "metadata_signed_zero":
            metadata["score"] = -0.0
        entry = store.put(SPEC, state, metadata=metadata)
        after = _files(store.objects_dir)
        assert after[entry.path] != before[entry.path]
        assert after[entry.sidecar] != before[entry.sidecar]
        assert self._counters(telemetry) == {"store.put_conflicts": 1.0}
        got, got_entry = store.get(SPEC)
        assert list(got) == list(state)
        for name, value in state.items():
            assert got[name].dtype == value.dtype
            assert got[name].flags.f_contiguous == value.flags.f_contiguous
            assert got[name].tobytes("A") == value.tobytes("A")
        assert canonical_json(got_entry.metadata) == canonical_json(metadata)
        assert store.verify() == []

    @pytest.mark.parametrize("damage", ["truncate", "bitflip", "undecodable", "delete"])
    def test_damaged_entry_is_a_counted_miss_and_reput_repairs(self, tmp_path, damage):
        store, telemetry = self._store(tmp_path)
        entry = store.put(SPEC, _state(4.0))
        data = entry.path.read_bytes()
        if damage == "truncate":
            entry.path.write_bytes(data[:len(data) // 2])
        elif damage == "bitflip":
            flipped = bytearray(data)
            flipped[len(flipped) // 2] ^= 0xFF
            entry.path.write_bytes(bytes(flipped))
        elif damage == "undecodable":
            # Garbage whose size and hash the sidecar vouches for: only
            # decoding can tell.
            garbage = b"not a zip archive".ljust(len(data), b"\0")
            entry.path.write_bytes(garbage)
            doc = json.loads(entry.sidecar.read_text())
            doc["blob_sha256"] = hashlib.sha256(garbage).hexdigest()
            entry.sidecar.write_text(json.dumps(doc))
        else:
            entry.path.unlink()
        assert store.verify() != []
        assert store.get(SPEC) is None
        assert store.get({**SPEC, "seed": 99}) is None  # a plain miss
        assert self._counters(telemetry) == {"store.corrupt": 1.0, "store.misses": 2.0}
        store.put(SPEC, _state(4.0))  # neither unchanged nor a conflict
        assert self._counters(telemetry) == {"store.corrupt": 1.0, "store.misses": 2.0}
        state, _ = store.get(SPEC)
        np.testing.assert_array_equal(state["w"], np.full((3, 3), 4.0))
        assert store.verify() == []

    def test_tampered_sidecar_spec_is_rewritten(self, tmp_path):
        store, telemetry = self._store(tmp_path)
        entry = store.put(SPEC, _state())
        doc = json.loads(entry.sidecar.read_text())
        doc["spec"]["seed"] = 99
        entry.sidecar.write_text(json.dumps(doc))
        store.put(SPEC, _state())
        assert self._counters(telemetry) == {"store.put_conflicts": 1.0}
        assert store.verify() == []

    def test_legacy_sidecar_reput_records_hash(self, tmp_path):
        store, telemetry = self._store(tmp_path)
        entry = store.put(SPEC, _state())
        doc = json.loads(entry.sidecar.read_text())
        del doc["blob_sha256"]  # sidecar from before integrity tracking
        entry.sidecar.write_text(json.dumps(doc))
        again = store.put(SPEC, _state())  # equal content: rewritten, uncounted
        assert json.loads(entry.sidecar.read_text())["blob_sha256"] == again.blob_sha256
        assert again.blob_sha256 == hashlib.sha256(entry.path.read_bytes()).hexdigest()
        assert self._counters(telemetry) == {}
        assert store.verify() == []

    def test_unchanged_reput_keeps_created_at_for_prune(self, tmp_path):
        store, telemetry = self._store(tmp_path)
        for seed in range(2):
            entry = store.put({**SPEC, "seed": seed}, _state(seed))
            doc = json.loads(entry.sidecar.read_text())
            doc["created_at"] = float(seed)
            entry.sidecar.write_text(json.dumps(doc))
        # Re-producing the older artifact does not make it the newer one.
        again = store.put({**SPEC, "seed": 0}, _state(0))
        assert again.created_at == 0.0
        assert self._counters(telemetry) == {"store.put_unchanged": 1.0}
        removed = store.prune(keep_latest=1)
        assert [e.spec["seed"] for e in removed] == [0]
        assert [e.spec["seed"] for e in store.list()] == [1]

    def test_non_finite_metadata_reput_raises_uncounted(self, tmp_path):
        store, telemetry = self._store(tmp_path)
        store.put(SPEC, _state(), metadata={"score": 1.0})
        before = _files(store.objects_dir)
        with pytest.raises(ValueError, match="finite"):
            store.put(SPEC, _state(), metadata={"score": float("nan")})
        assert self._counters(telemetry) == {}
        assert _files(store.objects_dir) == before


def test_verify_reports_unexpected_decode_errors(tmp_path, monkeypatch):
    """A blob that fails to decode in an unforeseen way is a reported
    problem, and the scan goes on to the next artifact."""
    import repro.store.artifact_store as artifact_store

    store = ArtifactStore(tmp_path / "store")
    for seed in range(2):
        store.put({**SPEC, "seed": seed}, _state(seed))

    def broken(*args, **kwargs):
        raise KeyError("unexpected")

    monkeypatch.setattr(artifact_store, "decode_npz", broken)
    problems = store.verify()
    assert len(problems) == 2
    assert all("blob unreadable" in p and "unexpected" in p for p in problems)
