"""The shard container's ``.npy`` decoder against ``np.load``.

Plain blobs (bool, integer, float, complex, bytes and str dtypes) are
decoded from the shard's own bytes; object, structured and datetime
blobs, and headers outside ``np.save``'s plain grammar, still go through
``np.load``. Either way a decoded array equals what ``np.load`` returns,
bit for bit and flag for flag.
"""

import gc
import io
import itertools
import zlib

import numpy as np
import pytest

from repro.data import ShardCorruptionError, ShardedDataset, write_shards
from repro.data.shards import _decode_npy, _pack_arrays, _unpack_arrays

PLAIN_DTYPES = ["|b1", "|i1", "|u1", "|S5"] + [
    f"{order}{code}" for order, code in itertools.product(
        "<>", ["i2", "i4", "i8", "u2", "u4", "u8", "f2", "f4", "f8", "f16",
               "c8", "c16", "c32", "U3"])]
SHAPES = [(), (0,), (0, 3), (7,), (5, 3)]


def _random_array(dtype: np.dtype, shape: tuple, order: str) -> np.ndarray:
    """Random bits of ``dtype``: NaN payloads, subnormals and signed
    zeros included; str arrays hold random code points."""
    rng = np.random.default_rng(zlib.crc32(repr((dtype.str, shape,
                                                 order)).encode()))
    count = int(np.prod(shape))
    if dtype.kind == "U":
        points = rng.integers(0, 0x10FFFF, size=count * dtype.itemsize // 4,
                              dtype=np.uint32)
        flat = points.astype(dtype.byteorder + "u4").view(dtype)
    else:
        flat = np.frombuffer(rng.bytes(count * dtype.itemsize), dtype=dtype)
    return np.array(flat.reshape(shape), order=order)


def _npy(array: np.ndarray, **kwargs) -> bytes:
    buffer = io.BytesIO()
    np.lib.format.write_array(buffer, array, allow_pickle=True, **kwargs)
    return buffer.getvalue()


def _assert_same_array(got: np.ndarray, want: np.ndarray) -> None:
    """Equal dtype (byte order included), shape, layout and flags, and
    equal raw bytes, so NaN payloads and signed zeros count."""
    assert got.dtype.str == want.dtype.str
    assert got.shape == want.shape and got.strides == want.strides
    for flag in ("C_CONTIGUOUS", "F_CONTIGUOUS", "WRITEABLE", "ALIGNED",
                 "OWNDATA"):
        assert got.flags[flag] == want.flags[flag], flag
    assert got.tobytes(order="A") == want.tobytes(order="A")


@pytest.fixture
def load_calls(monkeypatch):
    """The arguments of every ``np.load`` call made while decoding."""
    calls = []
    real_load = np.load

    def spy(*args, **kwargs):
        calls.append(args)
        return real_load(*args, **kwargs)

    monkeypatch.setattr(np, "load", spy)
    return calls


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("descr", PLAIN_DTYPES)
def test_plain_blob_decodes_like_np_load(descr, shape, order, load_calls):
    array = _random_array(np.dtype(descr), shape, order)
    want = np.load(io.BytesIO(_npy(array)), allow_pickle=True)
    load_calls.clear()
    got = _unpack_arrays(_pack_arrays({"a": array}))["a"]
    assert load_calls == []
    _assert_same_array(got, want)


@pytest.mark.parametrize("order", ["C", "F"])
def test_format_2_header_decodes_without_np_load(order, load_calls):
    array = _random_array(np.dtype(">f8"), (4, 3), order)
    blob = _npy(array, version=(2, 0))
    want = np.load(io.BytesIO(blob))
    load_calls.clear()
    got = _decode_npy(memoryview(blob))
    assert load_calls == []
    _assert_same_array(got, want)


@pytest.mark.parametrize("array", [
    np.array([1, "two", None, (3.0,)], dtype=object),
    np.array([(1, 2.5), (3, -0.0)], dtype=[("a", "<i4"), ("b", ">f8")]),
    np.array(["2024-01-02T03:04", "NaT"], dtype="datetime64[m]"),
    np.array([5, -7], dtype="timedelta64[s]"),
], ids=["object", "structured", "datetime", "timedelta"])
def test_object_structured_and_datetime_blobs_take_np_load(array,
                                                           load_calls):
    got = _unpack_arrays(_pack_arrays({"a": array}))["a"]
    assert len(load_calls) == 1
    assert got.dtype == array.dtype and got.shape == array.shape
    if array.dtype.hasobject:
        assert got.tolist() == array.tolist()
    else:
        assert got.tobytes() == array.tobytes()


def test_format_3_header_takes_np_load(load_calls):
    array = np.arange(6.0).reshape(2, 3)
    got = _decode_npy(memoryview(_npy(array, version=(3, 0))))
    assert len(load_calls) == 1
    _assert_same_array(got, np.load(io.BytesIO(_npy(array))))


def test_random_plain_arrays_decode_like_np_load():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st
    from hypothesis.extra import numpy as hnp

    dtypes = st.one_of(hnp.boolean_dtypes(), hnp.integer_dtypes(),
                       hnp.unsigned_integer_dtypes(), hnp.floating_dtypes(),
                       hnp.complex_number_dtypes(), hnp.byte_string_dtypes(),
                       hnp.unicode_string_dtypes())

    @settings(max_examples=150, deadline=None)
    @given(hnp.arrays(dtypes, hnp.array_shapes(min_dims=0, min_side=0)),
           st.booleans())
    def check(array, fortran):
        if fortran:
            array = np.asfortranarray(array)
        want = np.load(io.BytesIO(_npy(array)))
        _assert_same_array(_unpack_arrays(_pack_arrays({"a": array}))["a"],
                           want)

    check()


# --- damage inside an unverified read ---------------------------------------

def _tamper(path, old: bytes, new: bytes) -> None:
    data = path.read_bytes()
    assert data.count(old) == 1 and len(old) == len(new)
    path.write_bytes(data.replace(old, new))


@pytest.mark.parametrize("old, new", [
    (b"\x93NUMPY\x01\x00v\x00", b"\x93NUMPY\x01\x00\xff\xff"),  # past the end
    (b"\x93NUMPY\x01\x00v", b"\x93NUMPX\x01\x00v"),      # not an .npy blob
    (b"'descr': '<f8'", b"'descr': '<q8'"),              # unknown dtype
    (b"'shape': (16, 3)", b"'shape': (16, 4)"),          # data too short
    (b"'shape': (16, 3)", b"'shape': (16; 3)"),          # not a literal
], ids=["truncated", "bad-magic", "bad-descr", "bad-shape", "garbled"])
def test_damaged_header_in_an_unverified_read_names_the_array(
        tmp_path, old, new):
    write_shards(tmp_path / "ds", {"X": np.ones((32, 3))}, rows_per_shard=16)
    dataset = ShardedDataset(tmp_path / "ds")
    _tamper(dataset.shard_path(1), old, new)
    with pytest.raises(ShardCorruptionError, match="array 'X'") as info:
        dataset.load_shard(1, verify=False)
    assert info.value.index == 1
    assert info.value.path == dataset.shard_path(1)


# --- allocation -------------------------------------------------------------

def test_load_shard_leaves_no_cyclic_garbage(tmp_path):
    rng = np.random.default_rng(3)
    dataset = write_shards(tmp_path / "ds",
                           {"X": rng.normal(size=(256, 8)),
                            "y": rng.integers(0, 2, size=256)},
                           rows_per_shard=32)
    dataset.load_shard(0)
    gc.collect()
    enabled, debug = gc.isenabled(), gc.get_debug()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for step in range(100):
            dataset.load_shard(step % dataset.n_shards)
        gc.collect()
        garbage = len(gc.garbage)
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert garbage == 0
