import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamsearch import (
    BinaryCode,
    CodeDataset,
    DatasetFormatError,
    NeighborSet,
    QuerySpec,
    dataset_read,
    dataset_write,
    extract_subcode,
    hamming_distance,
    hamming_distances,
    range_search_oracle,
)
from hamsearch import core
from hamsearch.core import subcode_columns

from conftest import bitwise_distance, python_loop_distance, random_dataset


# --- hamming_distance -------------------------------------------------------

def test_distance_identity():
    rng = np.random.default_rng(1)
    for m in (64, 256, 1024):
        code = BinaryCode(m, rng.integers(0, 2**64, m // 64, dtype=np.uint64))
        assert hamming_distance(code, code) == 0


def test_distance_complement():
    assert hamming_distance(BinaryCode.zeros(64), BinaryCode.ones(64)) == 64


def test_distance_frozen_pair_m256():
    # expected value computed with a per-bit python loop over this exact seed
    rng = np.random.default_rng(20240811)
    a = BinaryCode(256, rng.integers(0, 2**64, 4, dtype=np.uint64))
    b = BinaryCode(256, rng.integers(0, 2**64, 4, dtype=np.uint64))
    assert hamming_distance(a, b) == 114
    assert python_loop_distance(a.words, b.words, 256) == 114


def test_distance_matches_per_bit_oracle():
    rng = np.random.default_rng(2)
    for m in (64, 256, 1024, 4096):
        for _ in range(50):
            a = BinaryCode(m, rng.integers(0, 2**64, m // 64, dtype=np.uint64))
            b = BinaryCode(m, rng.integers(0, 2**64, m // 64, dtype=np.uint64))
            assert hamming_distance(a, b) == bitwise_distance(a.words, b.words)


def test_distance_width_mismatch_raises():
    with pytest.raises(ValueError, match="width mismatch"):
        hamming_distance(BinaryCode.zeros(64), BinaryCode.zeros(128))


def test_metric_axioms():
    rng = np.random.default_rng(3)
    m = 256
    for _ in range(200):
        words = rng.integers(0, 2**64, (3, m // 64), dtype=np.uint64)
        a, b, c = (BinaryCode(m, w) for w in words)
        assert hamming_distance(a, a) == 0
        assert hamming_distance(a, b) == hamming_distance(b, a)
        assert hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(b, c)


# --- hamming_distances --------------------------------------------------------

def _per_bit_distances(codes, query_words):
    """Reference: unpack every row and the query to bits and count the
    positions that differ. No XOR, no popcount."""
    count, words = codes.shape
    rows = np.ascontiguousarray(codes, dtype=np.uint64).view(np.uint8)
    bits = np.unpackbits(rows.reshape(count, words * 8), axis=1, bitorder="little")
    q = np.unpackbits(query_words.view(np.uint8), bitorder="little")
    return np.count_nonzero(bits != q, axis=1)


def _words(rng, kind, shape):
    if kind == "zeros":
        return np.zeros(shape, dtype=np.uint64)
    if kind == "ones":
        return np.full(shape, ~np.uint64(0))
    words = rng.integers(0, 2**64, shape, dtype=np.uint64)
    if kind == "sparse":
        words &= rng.integers(0, 2**64, shape, dtype=np.uint64)
        words &= rng.integers(0, 2**64, shape, dtype=np.uint64)
    return words


def _laid_out(codes, layout, rng):
    """The same rows as a contiguous array, a slice of a larger buffer,
    rows gathered by index, or a read-only view of bytes."""
    count, words = codes.shape
    if layout == "slice":
        buffer = _words(rng, "random", (count + 5, words))
        buffer[2 : 2 + count] = codes
        return buffer[2 : 2 + count]
    if layout == "gather":
        block = _words(rng, "random", (2 * count + 1, words))
        idx = rng.permutation(2 * count + 1)[:count]
        block[idx] = codes
        return block[idx]
    if layout == "frombuffer":
        view = np.frombuffer(codes.tobytes(), dtype="<u8").reshape(count, words)
        assert not view.flags.writeable
        return view
    return codes


@pytest.mark.parametrize("width", [64, 128, 192, 256, 576, 1024, 4096])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_hamming_distances_equal_per_bit_reference(width, data):
    words = width // 64
    # a tile of t rows and a block of t * k rows, patched small so that
    # row counts around and across block edges stay cheap
    tile_rows = data.draw(st.integers(1, 4))
    block_rows = tile_rows * data.draw(st.integers(1, 4))
    count = data.draw(
        st.one_of(
            st.sampled_from([0, 1, block_rows - 1, block_rows, block_rows + 1]),
            st.integers(2 * block_rows, 5 * block_rows + 3),
        )
    )
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    codes = _words(rng, data.draw(st.sampled_from(["random", "zeros", "ones", "sparse"])),
                   (count, words))
    query = _words(rng, data.draw(st.sampled_from(["random", "zeros", "ones"])), words)
    rows = _laid_out(codes, data.draw(st.sampled_from(["plain", "slice", "gather", "frombuffer"])), rng)
    with mock.patch.object(core, "KERNEL_BLOCK_BYTES", block_rows * width // 8), \
            mock.patch.object(core, "XOR_TILE_WORDS", tile_rows * words):
        got = hamming_distances(rows, query)
    assert got.dtype == np.uint32 and got.shape == (count,)
    assert got.tolist() == _per_bit_distances(codes, query).tolist()


def test_hamming_distances_hold_widths_above_uint16():
    # 1040 words: every distance exceeds 65535, and every 8-word group of
    # per-word counts reaches its maximum of 512
    width = 1040 * 64
    codes = np.full((3, 1040), ~np.uint64(0))
    codes[1, 5] = 0
    codes[2, :] = 0
    got = hamming_distances(codes, np.zeros(1040, dtype=np.uint64))
    assert got.tolist() == [width, width - 64, 0]
    assert got.tolist() == _per_bit_distances(codes, np.zeros(1040, dtype=np.uint64)).tolist()


# --- range_search_oracle -----------------------------------------------------

def test_oracle_zero_radius_exact_match():
    ds = random_dataset(200, 64, seed=5)
    result = range_search_oracle(ds, QuerySpec(ds.code(7), 0))
    assert result.as_set() == {(7, 0)}


def test_oracle_maximal_ball_is_everything():
    ds = random_dataset(150, 128, seed=6)
    result = range_search_oracle(ds, QuerySpec(ds.code(0), 128))
    assert len(result) == 150


def test_oracle_frozen_100_codes_r11_and_r30():
    # per-bit loop over seed 424242 yields exactly these neighbor sets
    rng = np.random.default_rng(424242)
    ds = CodeDataset(64, rng.integers(0, 2**64, size=(100, 1), dtype=np.uint64))
    r11 = range_search_oracle(ds, QuerySpec(ds.code(0), 11))
    assert r11.as_set() == {(0, 0)}
    r30 = range_search_oracle(ds, QuerySpec(ds.code(0), 30))
    assert len(r30) == 36
    assert {(0, 0), (1, 24), (3, 29), (4, 28), (16, 29)} <= r30.as_set()


def test_oracle_agrees_with_per_bit_scan():
    ds = random_dataset(100, 64, seed=9)
    q = ds.code(3)
    expected = {
        (i, bitwise_distance(ds.codes[i], q.words))
        for i in range(ds.count)
        if bitwise_distance(ds.codes[i], q.words) <= 11
    }
    assert range_search_oracle(ds, QuerySpec(q, 11)).as_set() == expected


def test_oracle_monotone_in_radius():
    ds = random_dataset(500, 64, seed=10)
    q = ds.code(11)
    previous = set()
    for r in (0, 5, 10, 20, 40, 64):
        current = range_search_oracle(ds, QuerySpec(q, r)).as_set()
        assert {i for i, _ in previous} <= {i for i, _ in current}
        previous = current


def test_oracle_width_mismatch():
    ds = random_dataset(10, 64, seed=1)
    with pytest.raises(ValueError):
        range_search_oracle(ds, QuerySpec(BinaryCode.zeros(128), 0))


# --- extract_subcode ---------------------------------------------------------

def test_subcode_all_zero():
    code = BinaryCode.zeros(256)
    for p in range(16):
        assert extract_subcode(code, 16, p) == 0


def test_subcode_bit17_is_bit1_of_subcode1():
    bits = np.zeros(64, dtype=np.uint8)
    bits[17] = 1
    code = BinaryCode.from_bits(bits)
    assert extract_subcode(code, 16, 1) == 2


def test_subcode_roundtrip_reconstruction():
    rng = np.random.default_rng(12)
    code = BinaryCode(256, rng.integers(0, 2**64, 4, dtype=np.uint64))
    for sub_width in (8, 16, 32, 64):
        n = 256 // sub_width
        rebuilt = 0
        for p in range(n):
            rebuilt |= extract_subcode(code, sub_width, p) << (p * sub_width)
        original = int.from_bytes(code.words.tobytes(), "little")
        assert rebuilt == original


def test_subcode_columns_matches_scalar_extraction():
    ds = random_dataset(50, 128, seed=13)
    for sub_width in (8, 16, 32, 64):
        cols = subcode_columns(ds.codes, 128, sub_width)
        for i in (0, 17, 49):
            code = ds.code(i)
            for p in range(128 // sub_width):
                assert int(cols[i, p]) == extract_subcode(code, sub_width, p)


def test_subcode_invalid_arguments():
    code = BinaryCode.zeros(64)
    with pytest.raises(ValueError):
        extract_subcode(code, 12, 0)
    with pytest.raises(ValueError):
        extract_subcode(code, 16, 4)


# --- dataset file format -----------------------------------------------------

def test_dataset_empty_roundtrip():
    ds = CodeDataset(64, np.empty((0, 1), dtype=np.uint64))
    buf = io.BytesIO()
    dataset_write(ds, buf)
    assert len(buf.getvalue()) == 16  # header only
    assert dataset_read(io.BytesIO(buf.getvalue())) == ds


def test_dataset_three_codes_m128_size():
    ds = random_dataset(3, 128, seed=14)
    buf = io.BytesIO()
    dataset_write(ds, buf)
    assert len(buf.getvalue()) == 16 + 3 * 16
    assert dataset_read(io.BytesIO(buf.getvalue())) == ds


def test_dataset_random_roundtrip_bytes_identical(tmp_path):
    ds = random_dataset(777, 256, seed=15)
    path = tmp_path / "data.hds"
    dataset_write(ds, path)
    again = dataset_read(path)
    assert again == ds
    path2 = tmp_path / "data2.hds"
    dataset_write(again, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_dataset_corrupt_magic():
    ds = random_dataset(2, 64, seed=16)
    buf = io.BytesIO()
    dataset_write(ds, buf)
    raw = bytearray(buf.getvalue())
    raw[0] = ord("X")
    with pytest.raises(DatasetFormatError, match="magic mismatch"):
        dataset_read(io.BytesIO(bytes(raw)))


def test_dataset_unsupported_version():
    ds = random_dataset(2, 64, seed=17)
    buf = io.BytesIO()
    dataset_write(ds, buf)
    raw = bytearray(buf.getvalue())
    raw[4] = 9
    with pytest.raises(DatasetFormatError, match="unsupported version"):
        dataset_read(io.BytesIO(bytes(raw)))


def test_dataset_truncated_body():
    ds = random_dataset(4, 64, seed=18)
    buf = io.BytesIO()
    dataset_write(ds, buf)
    with pytest.raises(DatasetFormatError, match="truncated"):
        dataset_read(io.BytesIO(buf.getvalue()[:-5]))


def test_dataset_trailing_data_is_count_mismatch():
    ds = random_dataset(4, 64, seed=19)
    buf = io.BytesIO()
    dataset_write(ds, buf)
    with pytest.raises(DatasetFormatError, match="count mismatch"):
        dataset_read(io.BytesIO(buf.getvalue() + b"\x00"))


def test_dataset_bad_width():
    raw = b"HDS1" + (1).to_bytes(4, "little") + (63).to_bytes(4, "little") + (0).to_bytes(4, "little")
    with pytest.raises(DatasetFormatError, match="multiple of 64"):
        dataset_read(io.BytesIO(raw))


# a 96-byte file whose header declares 2^32 - 1 codes of 4096 bits
IMPOSSIBLE_COUNT = core._HEADER.pack(b"HDS1", 1, 4096, 2**32 - 1) + bytes(80)


class _Pipe(io.RawIOBase):
    """A non-seekable stream over some bytes, as a pipe reads."""

    def __init__(self, data: bytes):
        self._data = io.BytesIO(data)

    def readable(self):
        return True

    def readinto(self, buf):
        return self._data.readinto(buf)


@pytest.mark.parametrize("source", ["file", "bytesio"])
def test_dataset_impossible_count_is_truncated_before_allocating(tmp_path, source):
    path = tmp_path / "bad.hds"
    path.write_bytes(IMPOSSIBLE_COUNT)
    stream = path if source == "file" else io.BytesIO(IMPOSSIBLE_COUNT)
    with mock.patch.object(core.np, "empty", side_effect=AssertionError("allocated")):
        with pytest.raises(DatasetFormatError, match="truncated stream"):
            dataset_read(stream)


@pytest.mark.parametrize("tail", [-5, 1], ids=["truncated", "trailing"])
def test_dataset_pipe_checks_body_while_reading(tail):
    ds = random_dataset(4, 64, seed=20)
    buf = io.BytesIO()
    dataset_write(ds, buf)
    raw = buf.getvalue()
    raw = raw[:tail] if tail < 0 else raw + bytes(tail)
    stream = io.BufferedReader(_Pipe(raw))
    assert not stream.seekable()
    with pytest.raises(DatasetFormatError, match="truncated" if tail < 0 else "count mismatch"):
        dataset_read(stream)


def test_dataset_read_codes_reads_only_the_given_rows(tmp_path):
    ds = random_dataset(300, 256, seed=21)
    path = tmp_path / "d.hds"
    dataset_write(ds, path)
    ids = [299, 0, 17, 17]
    assert core.dataset_read_codes(path, ids) == [ds.code(i) for i in ids]
    for bad in (-1, 300):
        with pytest.raises(IndexError, match="out of range"):
            core.dataset_read_codes(path, [bad])


# --- NeighborSet / QuerySpec invariants ---------------------------------------

def test_neighborset_rejects_duplicates():
    # a repeat inside an otherwise ascending run, and out of order
    for ids in ([1, 1], [1, 2, 2, 3], [3, 1, 2, 1]):
        with pytest.raises(ValueError, match="duplicate"):
            NeighborSet(np.array(ids), np.arange(len(ids)))


def test_neighborset_sorts_by_id():
    ns = NeighborSet(np.array([5, 2, 9]), np.array([1, 2, 3]))
    assert ns.ids.tolist() == [2, 5, 9]
    assert ns.distances.tolist() == [2, 1, 3]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    pairs=st.dictionaries(
        st.integers(0, 2**32 - 1), st.integers(0, 4096), max_size=40
    ),
    data=st.data(),
)
def test_neighborset_any_permutation_equals_sorted_input(pairs, data):
    ids = sorted(pairs)
    shuffled = data.draw(st.permutations(ids))
    ns = NeighborSet(np.array(shuffled, dtype=np.int64), [pairs[i] for i in shuffled])
    reference = NeighborSet(np.array(ids, dtype=np.uint32), [pairs[i] for i in ids])
    assert ns == reference
    assert ns.ids.dtype == ns.distances.dtype == np.uint32
    assert ns.ids.tolist() == ids
    assert ns.distances.tolist() == [pairs[i] for i in ids]


def test_queryspec_radius_bounds():
    code = BinaryCode.zeros(64)
    QuerySpec(code, 0)
    QuerySpec(code, 64)
    with pytest.raises(ValueError):
        QuerySpec(code, 65)
    with pytest.raises(ValueError):
        QuerySpec(code, -1)


def test_binarycode_validates_width():
    with pytest.raises(ValueError):
        BinaryCode(63, np.zeros(1, dtype=np.uint64))
    with pytest.raises(ValueError):
        BinaryCode(128, np.zeros(1, dtype=np.uint64))
