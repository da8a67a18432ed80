"""The in-memory ``.npz`` decoder equals ``np.load`` member for member.

``decode_npz`` backs ``load_state`` and every artifact-store read.  Each
test saves arrays with ``np.savez`` (the writer ``save_state`` uses) and
compares the decoded arrays with ``np.load``'s: values (bytes), dtype,
shape, C/F contiguity and writeability.
"""

from __future__ import annotations

import io
import zipfile

import numpy as np
import pytest

from repro.nn import load_state
from repro.nn.serialization import decode_npz, save_state


def _savez(**arrays) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


def _np_load(data: bytes) -> dict:
    with np.load(io.BytesIO(data), allow_pickle=False) as archive:
        return {name: archive[name] for name in archive.files}


def assert_same_arrays(got: dict, expected: dict) -> None:
    assert list(got) == list(expected)
    for name, want in expected.items():
        have = got[name]
        assert type(have) is np.ndarray, name
        assert have.dtype == want.dtype, name
        assert have.shape == want.shape, name
        assert have.flags.c_contiguous == want.flags.c_contiguous, name
        assert have.flags.f_contiguous == want.flags.f_contiguous, name
        assert have.flags.writeable and want.flags.writeable, name
        assert have.tobytes("A") == want.tobytes("A"), name


rng = np.random.default_rng(0)
WEIGHTS = rng.normal(size=(5, 7))

CASES = {
    "f64_c": WEIGHTS,
    "f64_f": np.asfortranarray(WEIGHTS),
    "f64_strided": WEIGHTS[::2, ::3],  # saved C-ordered
    "f64_3d_f": np.asfortranarray(rng.normal(size=(2, 3, 4))),
    "f32": rng.normal(size=(4, 3)).astype(np.float32),
    "i64": np.arange(-6, 6, dtype=np.int64).reshape(3, 4),
    "bool": np.array([True, False, True]),
    "u8": np.frombuffer(b"\x00\x7f\xff{}", dtype=np.uint8),
    "big_endian": np.arange(4, dtype=">f8"),
    "zero_d": np.array(2.5),
    "zero_d_int": np.array(7, dtype=np.int64),
    "empty": np.zeros(0),
    "empty_2d": np.zeros((3, 0)),
    "empty_f": np.asfortranarray(np.zeros((0, 4))),
    "unicode": np.array(["ab", "c"]),
    "nan_and_signed_zero": np.array([np.nan, -0.0, np.inf, -np.inf]),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_np_load(name):
    data = _savez(**{name: CASES[name]})
    assert_same_arrays(decode_npz(data), _np_load(data))


def test_many_members_keep_archive_order():
    data = _savez(**CASES)
    decoded = decode_npz(data)
    assert_same_arrays(decoded, _np_load(data))
    assert list(decoded) == list(CASES)


def test_arrays_are_fresh():
    data = _savez(w=WEIGHTS, f=np.asfortranarray(WEIGHTS))
    first, second = decode_npz(data), decode_npz(data)
    first["w"][0, 0] = 99.0
    first["f"][0, 0] = 99.0
    assert second["w"][0, 0] == WEIGHTS[0, 0]
    assert second["f"][0, 0] == WEIGHTS[0, 0]


def test_fallback_headers_match_np_load():
    """Headers outside numpy's plain v1.0 form go through read_array."""
    structured = np.zeros(3, dtype=[("a", "<f8"), ("b", "<i4")])
    structured["a"] = [1.5, -2.0, 3.25]
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as archive:
        with archive.open("v2.npy", "w") as member:
            np.lib.format.write_array(member, WEIGHTS, version=(2, 0))
        with archive.open("v3.npy", "w") as member:
            np.lib.format.write_array(member, np.asfortranarray(WEIGHTS), version=(3, 0))
        with archive.open("structured.npy", "w") as member:
            np.lib.format.write_array(member, structured)
    data = buf.getvalue()
    assert_same_arrays(decode_npz(data), _np_load(data))


def test_compressed_members_match_np_load():
    buf = io.BytesIO()
    np.savez_compressed(buf, w=WEIGHTS, f=np.asfortranarray(WEIGHTS), b=CASES["bool"])
    data = buf.getvalue()
    assert_same_arrays(decode_npz(data), _np_load(data))


def test_skip_leaves_out_one_member():
    data = _savez(w=WEIGHTS, __meta__=np.frombuffer(b"{}", dtype=np.uint8))
    assert list(decode_npz(data, skip="__meta__")) == ["w"]


def test_object_arrays_are_refused():
    buf = io.BytesIO()
    np.savez(buf, o=np.array([{"a": 1}], dtype=object))
    with pytest.raises(ValueError):
        decode_npz(buf.getvalue())


def test_damaged_archives_raise():
    data = _savez(w=WEIGHTS)
    with pytest.raises(zipfile.BadZipFile):
        decode_npz(data[:16])
    flipped = bytearray(data)
    flipped[200] ^= 0xFF  # inside the array bytes: the CRC-32 no longer matches
    with pytest.raises(zipfile.BadZipFile):
        decode_npz(bytes(flipped))


def test_load_state_round_trip(tmp_path):
    state = {"w": np.asfortranarray(WEIGHTS), "b": np.arange(3.0)}
    path = save_state(state, tmp_path / "ckpt.npz", metadata={"step": 3})
    loaded, metadata = load_state(path)
    assert metadata == {"step": 3}
    assert_same_arrays(loaded, state)


def test_bad_descr_raises_value_error_like_np_load():
    member = io.BytesIO()
    np.lib.format.write_array(member, np.arange(3.0))
    raw = member.getvalue().replace(b"'<f8'", b"'<zz'")
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as archive:
        archive.writestr("w.npy", raw)
    data = buf.getvalue()
    with pytest.raises(ValueError):
        _np_load(data)
    with pytest.raises(ValueError):
        decode_npz(data)
