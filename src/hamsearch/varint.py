"""Vectorized LEB128-style variable-length integers.

Each value is stored as 7-bit groups, least significant first; the high bit
of every byte except the last is set. Postings lists use this encoding for
their delta sequences, so the functions here are part of the on-disk format.
"""

from __future__ import annotations

import numpy as np

class VarintError(ValueError):
    """Malformed varint data."""


def encode(values) -> np.ndarray:
    """Encode an unsigned array, taken at its own width, into uint8 bytes:
    a row of 7-bit groups a value, whose kept groups, row by row, are the
    encoding. Group j + 1 is kept, and group j gets the continuation bit,
    when the value shifted right by 7 * j exceeds 127."""
    values = np.asarray(values)
    if values.dtype.kind != "u":
        values = values.astype(np.uint64)
    if values.size == 0:
        return np.zeros(0, dtype=np.uint8)
    width = max(1, -(-int(values.max()).bit_length() // 7))
    groups = np.empty((values.size, width), dtype=np.uint8)
    kept = np.empty((values.size, width), dtype=bool)
    kept[:, 0] = True
    shifted = values
    for j in range(width):
        more = shifted > 0x7F
        group = (shifted & 0x7F).astype(np.uint8)
        group |= more.view(np.uint8) << 7
        groups[:, j] = group
        if j + 1 < width:
            kept[:, j + 1] = more
            shifted = shifted >> 7
    return groups[kept]


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
