import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamsearch import varint


def test_known_byte_lengths():
    values = np.array([0, 1, 127, 128, 16383, 16384, 2**21 - 1, 2**21, 2**63, 2**64 - 1],
                      dtype=np.uint64)
    assert varint.byte_lengths(values).tolist() == [1, 1, 1, 2, 2, 3, 3, 4, 10, 10]


def test_single_value_encodings():
    assert varint.encode(np.array([0], dtype=np.uint64)).tolist() == [0x00]
    assert varint.encode(np.array([127], dtype=np.uint64)).tolist() == [0x7F]
    assert varint.encode(np.array([128], dtype=np.uint64)).tolist() == [0x80, 0x01]
    assert varint.encode(np.array([300], dtype=np.uint64)).tolist() == [0xAC, 0x02]


def test_roundtrip_random():
    rng = np.random.default_rng(21)
    for _ in range(20):
        scale = int(rng.integers(1, 63))
        values = rng.integers(0, 2**scale, size=int(rng.integers(1, 5000)), dtype=np.uint64)
        assert np.array_equal(varint.decode(varint.encode(values)), values)


def test_roundtrip_extremes():
    values = np.array([0, 2**64 - 1, 1, 2**63, 0], dtype=np.uint64)
    assert np.array_equal(varint.decode(varint.encode(values)), values)


def test_empty():
    assert varint.encode(np.array([], dtype=np.uint64)).size == 0
    assert varint.decode(np.array([], dtype=np.uint8)).size == 0


def test_unterminated_raises():
    with pytest.raises(varint.VarintError, match="unterminated"):
        varint.decode(np.array([0x80], dtype=np.uint8))


def test_overlong_raises():
    data = np.array([0x80] * 10 + [0x01], dtype=np.uint8)
    with pytest.raises(varint.VarintError, match="longer"):
        varint.decode(data)


def test_decode_with_ends_splits_concatenated_streams():
    a = np.array([5, 6, 7], dtype=np.uint64)
    b = np.array([1000, 2000], dtype=np.uint64)
    ea, eb = varint.encode(a), varint.encode(b)
    values, ends = varint.decode_with_ends(np.concatenate([ea, eb]))
    assert np.array_equal(values, np.concatenate([a, b]))
    # number of varints ending before the boundary equals len(a)
    assert int(np.searchsorted(ends, ea.size, side="left")) == a.size


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    lists=st.lists(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=30), max_size=6),
    dtype=st.sampled_from([np.uint32, np.uint64]),
)
def test_decode_with_ends_equals_encoded_values(lists, dtype):
    # several sequences back to back, as postings lists are read
    parts = [varint.encode(np.array(v, dtype=np.uint64)) for v in lists]
    data = np.concatenate(parts) if parts else np.zeros(0, dtype=np.uint8)
    values, ends = varint.decode_with_ends(data, dtype)
    assert values.dtype == dtype
    assert values.tolist() == [x for v in lists for x in v]
    assert ends.tolist() == np.flatnonzero(data < 128).tolist()


def test_overlong_for_narrow_type_raises():
    # 2**35 takes 6 bytes; a uint32 holds at most 5
    data = varint.encode(np.array([2**35], dtype=np.uint64))
    with pytest.raises(varint.VarintError, match="longer than 5"):
        varint.decode_with_ends(data, np.uint32)
