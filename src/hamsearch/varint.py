"""Vectorized LEB128-style variable-length integers.

Each value is stored as 7-bit groups, least significant first; the high bit
of every byte except the last is set. Postings lists use this encoding for
their delta sequences, so the functions here are part of the on-disk format.
"""

from __future__ import annotations

import numpy as np

MAX_VARINT_BYTES = 10  # ceil(64 / 7)


class VarintError(ValueError):
    """Malformed varint data."""


def byte_lengths(values: np.ndarray) -> np.ndarray:
    """Encoded size in bytes of each value."""
    values = np.asarray(values, dtype=np.uint64)
    n = np.ones(values.shape, dtype=np.int64)
    for k in range(1, MAX_VARINT_BYTES):
        n += values >= (np.uint64(1) << np.uint64(7 * k))
    return n


def encode(values) -> np.ndarray:
    """Encode a uint64 array into a uint8 byte array."""
    values = np.asarray(values, dtype=np.uint64)
    if values.size == 0:
        return np.zeros(0, dtype=np.uint8)
    nbytes = byte_lengths(values)
    starts = np.zeros(values.size, dtype=np.int64)
    np.cumsum(nbytes[:-1], out=starts[1:])
    out = np.zeros(int(starts[-1] + nbytes[-1]), dtype=np.uint8)
    for j in range(int(nbytes.max())):
        sel = nbytes > j
        chunk = (values[sel] >> np.uint64(7 * j)) & np.uint64(0x7F)
        cont = (nbytes[sel] - 1 > j).astype(np.uint8) << 7
        out[starts[sel] + j] = chunk.astype(np.uint8) | cont
    return out


def decode(data) -> np.ndarray:
    """Decode a byte array holding a whole number of varints."""
    values, _ = decode_with_ends(data)
    return values


def decode_with_ends(data, dtype=np.uint64) -> tuple[np.ndarray, np.ndarray]:
    """Decode and also return each varint's terminator byte offset.

    The terminator offsets let callers that concatenated several encoded
    sequences into one buffer split the decoded values back apart. Values
    come out as `dtype`, an unsigned type that the caller knows holds them;
    a narrower type halves the memory a decode takes. Works back from each
    terminator, one byte position per step, over only the varints that
    still have bytes left (Horner's rule, most significant group first), so
    cost scales with the number of values times the longest encoding
    actually present.
    """
    data = np.asarray(data, dtype=np.uint8)
    if data.size == 0:
        return np.zeros(0, dtype=dtype), np.zeros(0, dtype=np.int64)
    ends = np.flatnonzero(data < 128)
    if ends.size == 0 or ends[-1] != data.size - 1:
        raise VarintError("unterminated varint at end of buffer")
    max_bytes = -(-np.iinfo(dtype).bits // 7)
    values = data[ends].astype(dtype)
    # `live` indexes the varints whose byte at `pos` is a continuation byte,
    # the next to consume; for a terminator at 0, index -1 reads the
    # buffer's last byte, itself a terminator. The offsets are found again
    # at the end rather than held through the loop, and temporaries are
    # updated in place: together they set the decode's peak memory.
    ends -= 1
    live = np.flatnonzero(data[ends] >= 128)
    pos = ends[live]
    del ends
    for _ in range(1, max_bytes):
        if live.size == 0:
            break
        group = values[live]
        group <<= 7
        group |= data[pos] & np.uint8(0x7F)
        values[live] = group
        del group
        pos -= 1
        longer = data[pos] >= 128
        live = live[longer]
        pos = pos[longer]
    if live.size:
        raise VarintError(f"varint longer than {max_bytes} bytes")
    return values, np.flatnonzero(data < 128)
