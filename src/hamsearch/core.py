"""Binary codes, the Hamming-distance kernel, exact radius-query semantics,
a brute-force oracle, and the dataset file format shared by all backends.

Bit-numbering convention used everywhere in this package: a code of width m
is stored as m/64 little-endian 64-bit words, and bit i of word w is bit
64*w + i of the code. Sub-code extraction, the dataset file format and both
index backends all rely on this single convention.
"""

from __future__ import annotations

import struct
import sys
from dataclasses import dataclass, field

import numpy as np

WORD_BITS = 64
DATASET_MAGIC = b"HDS1"
DATASET_VERSION = 1
_HEADER = struct.Struct("<4sIII")  # magic, version, width_bits, count

SUB_WIDTHS = (8, 16, 32, 64)

# the distance kernel works through at most this many bytes of codes at a
# time, so its temporaries stay bounded and cache-sized whatever the number
# of rows
KERNEL_BLOCK_BYTES = 1 << 19
# the kernel XORs the query against rows of about this many words at a time
XOR_TILE_WORDS = 256
_BYTE_LANES = np.uint64(0x00FF00FF00FF00FF)
_SUM_LANES = np.uint64(0x0001000100010001)

if sys.byteorder != "little":
    raise ImportError("hamsearch requires a little-endian platform")


class DatasetFormatError(ValueError):
    """A dataset stream could not be parsed."""


def _check_width(width_bits: int) -> None:
    if width_bits <= 0 or width_bits % WORD_BITS != 0:
        raise ValueError(
            f"width_bits must be a positive multiple of {WORD_BITS}, got {width_bits}"
        )


def _as_words(words, width_bits: int) -> np.ndarray:
    arr = np.ascontiguousarray(words, dtype=np.uint64)
    if arr.ndim != 1 or arr.size * WORD_BITS != width_bits:
        raise ValueError(
            f"expected {width_bits // WORD_BITS} words for width {width_bits}, "
            f"got shape {arr.shape}"
        )
    return arr


@dataclass(eq=False)
class BinaryCode:
    """Fixed-width bit vector packed into little-endian 64-bit words."""

    width_bits: int
    words: np.ndarray

    def __post_init__(self):
        _check_width(self.width_bits)
        self.words = _as_words(self.words, self.width_bits)

    @classmethod
    def zeros(cls, width_bits: int) -> "BinaryCode":
        _check_width(width_bits)
        return cls(width_bits, np.zeros(width_bits // WORD_BITS, dtype=np.uint64))

    @classmethod
    def ones(cls, width_bits: int) -> "BinaryCode":
        _check_width(width_bits)
        return cls(width_bits, np.full(width_bits // WORD_BITS, ~np.uint64(0)))

    @classmethod
    def from_bits(cls, bits) -> "BinaryCode":
        """Build a code from a 0/1 sequence; bits[i] is code bit i."""
        bits = np.asarray(bits, dtype=np.uint8)
        _check_width(bits.size)
        words = np.packbits(bits, bitorder="little").view("<u8")
        return cls(bits.size, words)

    def to_bits(self) -> np.ndarray:
        """Unpack to a uint8 array of 0/1 values, bit i at index i."""
        return np.unpackbits(self.words.view(np.uint8), bitorder="little")

    def __eq__(self, other):
        if not isinstance(other, BinaryCode):
            return NotImplemented
        return self.width_bits == other.width_bits and np.array_equal(
            self.words, other.words
        )

    def __repr__(self):
        return f"BinaryCode(width_bits={self.width_bits})"


@dataclass(eq=False)
class CodeDataset:
    """Ordered collection of codes of uniform width; doc id j is row j."""

    width_bits: int
    codes: np.ndarray  # shape (count, width_bits // 64), dtype uint64

    def __post_init__(self):
        _check_width(self.width_bits)
        codes = np.ascontiguousarray(self.codes, dtype=np.uint64)
        if codes.ndim != 2 or codes.shape[1] * WORD_BITS != self.width_bits:
            raise ValueError(
                f"codes must have shape (count, {self.width_bits // WORD_BITS})"
            )
        self.codes = codes

    @property
    def count(self) -> int:
        return self.codes.shape[0]

    def code(self, doc_id: int) -> BinaryCode:
        return BinaryCode(self.width_bits, self.codes[doc_id].copy())

    def __len__(self):
        return self.count

    def __eq__(self, other):
        if not isinstance(other, CodeDataset):
            return NotImplemented
        return self.width_bits == other.width_bits and np.array_equal(
            self.codes, other.codes
        )

    def __repr__(self):
        return f"CodeDataset(width_bits={self.width_bits}, count={self.count})"


@dataclass(frozen=True)
class QuerySpec:
    """A radius query: all dataset codes within `radius` of `query`."""

    query: BinaryCode
    radius: int

    def __post_init__(self):
        if not 0 <= self.radius <= self.query.width_bits:
            raise ValueError(
                f"radius must be in [0, {self.query.width_bits}], got {self.radius}"
            )


@dataclass(eq=False)
class NeighborSet:
    """Result of a radius query: doc ids with exact Hamming distances.

    Entries are kept sorted by id; the set-of-pairs semantics is what both
    backends and the oracle are compared on.
    """

    ids: np.ndarray
    distances: np.ndarray

    def __post_init__(self):
        ids = np.asarray(self.ids, dtype=np.uint32)
        dist = np.asarray(self.distances, dtype=np.uint32)
        if ids.shape != dist.shape or ids.ndim != 1:
            raise ValueError("ids and distances must be 1-D arrays of equal length")
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        dist = dist[order]
        if ids.size > 1 and np.any(ids[1:] == ids[:-1]):
            raise ValueError("duplicate doc ids in neighbor set")
        self.ids = ids
        self.distances = dist

    @classmethod
    def empty(cls) -> "NeighborSet":
        return cls(np.empty(0, dtype=np.uint32), np.empty(0, dtype=np.uint32))

    def as_set(self) -> set:
        return set(zip(self.ids.tolist(), self.distances.tolist()))

    def __len__(self):
        return self.ids.size

    def __eq__(self, other):
        if not isinstance(other, NeighborSet):
            return NotImplemented
        return np.array_equal(self.ids, other.ids) and np.array_equal(
            self.distances, other.distances
        )

    def __repr__(self):
        return f"NeighborSet(count={len(self)})"


def hamming_distance(a: BinaryCode, b: BinaryCode) -> int:
    """Number of bit positions at which two equal-width codes differ."""
    if a.width_bits != b.width_bits:
        raise ValueError(
            f"width mismatch: {a.width_bits} vs {b.width_bits} (codes are "
            "comparable only at equal width)"
        )
    return int(np.bitwise_count(a.words ^ b.words).sum())


def hamming_distances(codes: np.ndarray, query_words: np.ndarray) -> np.ndarray:
    """Distances from one query to every row of a (count, words) code array.

    Works through the rows in blocks of at most KERNEL_BLOCK_BYTES of codes:
    XOR into a block buffer, popcount each word into a uint8 buffer, then
    add the per-word counts up by columns into the uint32 result. Numpy
    sums a short row axis, or broadcasts the query over one, at the cost of
    one inner-loop call per row; here every call spans a whole block.
    """
    count, words = codes.shape
    out = np.empty(count, dtype=np.uint32)
    # one query copy per tile row, so that the XOR runs over rows of about
    # XOR_TILE_WORDS words; a one-word query already broadcasts as a scalar
    tile_rows = 1 if words == 1 else max(1, min(count, XOR_TILE_WORDS // words))
    block_rows = max(1, KERNEL_BLOCK_BYTES // (8 * words) // tile_rows) * tile_rows
    rows = min(count, block_rows)
    xor = np.empty((rows, words), dtype=np.uint64)
    bits = np.empty((rows, words), dtype=np.uint8)
    tile = np.empty((tile_rows, words), dtype=np.uint64)
    tile[:] = query_words
    tile = tile.reshape(-1)
    groups = words // 8
    for lo in range(0, count, block_rows):
        n = min(block_rows, count - lo)
        body = n - n % tile_rows
        x, c, acc = xor[:n], bits[:n], out[lo : lo + n]
        np.bitwise_xor(
            codes[lo : lo + body].reshape(-1, tile.size),
            tile,
            out=x[:body].reshape(-1, tile.size),
        )
        if body < n:
            np.bitwise_xor(codes[lo + body : lo + n], query_words, out=x[body:])
        np.bitwise_count(x, out=c)
        columns = [c[:, j] for j in range(8 * groups, words)]
        if groups:
            # fold each group of 8 per-word counts inside its uint64 view:
            # byte pairs into 16-bit lanes, then the four lanes into the top
            # 16 bits by one multiply; a group counts at most 512 bits
            g = c[:, : 8 * groups].view(np.uint64)
            odd = x.reshape(-1)[: g.size].reshape(g.shape)  # the XOR is spent
            np.right_shift(g, 8, out=odd)
            odd &= _BYTE_LANES
            g &= _BYTE_LANES
            g += odd
            g *= _SUM_LANES
            g >>= 48
            columns += [g[:, j] for j in range(groups)]
        acc[:] = columns[0]
        for column in columns[1:]:
            np.add(acc, column, out=acc, casting="unsafe")
    return out


def range_search_oracle(dataset: CodeDataset, spec: QuerySpec) -> NeighborSet:
    """Trusted ground truth: one exhaustive distance evaluation per code.

    No filtering, no sharding, no threads; a single pass computing the exact
    distance for every dataset code and keeping those within the radius.
    """
    if spec.query.width_bits != dataset.width_bits:
        raise ValueError(
            f"query width {spec.query.width_bits} does not match dataset "
            f"width {dataset.width_bits}"
        )
    dist = hamming_distances(dataset.codes, spec.query.words)
    hits = np.flatnonzero(dist <= spec.radius)
    return NeighborSet(hits.astype(np.uint32), dist[hits])


def _check_subcode_geometry(width_bits: int, sub_width: int) -> None:
    if sub_width not in SUB_WIDTHS:
        raise ValueError(f"sub_width must be one of {SUB_WIDTHS}, got {sub_width}")
    if width_bits % sub_width != 0:
        raise ValueError(f"sub_width {sub_width} does not divide width {width_bits}")


def extract_subcode(code: BinaryCode, sub_width: int, position: int) -> int:
    """Integer value of bits [position*sub_width, (position+1)*sub_width)."""
    _check_subcode_geometry(code.width_bits, sub_width)
    n = code.width_bits // sub_width
    if not 0 <= position < n:
        raise ValueError(f"position must be in [0, {n}), got {position}")
    return int(code.words.view(f"<u{sub_width // 8}")[position])


def subcode_columns(codes: np.ndarray, width_bits: int, sub_width: int) -> np.ndarray:
    """Zero-copy (count, s) view of every code's sub-code values."""
    _check_subcode_geometry(width_bits, sub_width)
    count = codes.shape[0]
    return codes.view(f"<u{sub_width // 8}").reshape(count, width_bits // sub_width)


def dataset_write(dataset: CodeDataset, destination) -> None:
    """Serialize a dataset; `destination` is a path or a binary file object."""
    header = _HEADER.pack(
        DATASET_MAGIC, DATASET_VERSION, dataset.width_bits, dataset.count
    )
    if hasattr(destination, "write"):
        destination.write(header)
        destination.write(dataset.codes.astype("<u8", copy=False).tobytes())
    else:
        with open(destination, "wb") as f:
            f.write(header)
            f.write(dataset.codes.astype("<u8", copy=False).tobytes())


def dataset_read(source) -> CodeDataset:
    """Parse a dataset stream; raises DatasetFormatError on malformed input."""
    if hasattr(source, "read"):
        return _read_stream(source)
    with open(source, "rb") as f:
        return _read_stream(f)


def _read_stream(f) -> CodeDataset:
    header = f.read(_HEADER.size)
    if len(header) < _HEADER.size:
        raise DatasetFormatError("truncated stream: incomplete header")
    magic, version, width_bits, count = _HEADER.unpack(header)
    if magic != DATASET_MAGIC:
        raise DatasetFormatError(f"magic mismatch: expected {DATASET_MAGIC!r}, got {magic!r}")
    if version != DATASET_VERSION:
        raise DatasetFormatError(f"unsupported version {version}")
    if width_bits == 0 or width_bits % WORD_BITS != 0:
        raise DatasetFormatError(f"width {width_bits} is not a positive multiple of 64")
    codes = np.empty((count, width_bits // WORD_BITS), dtype="<u8")
    body = codes.reshape(-1).view(np.uint8)  # read straight into the codes
    got = 0
    while got < body.size:
        n = f.readinto(body[got:])
        if not n:
            raise DatasetFormatError(
                f"truncated stream: expected {body.size} body bytes, got {got}"
            )
        got += n
    if f.read(1):
        raise DatasetFormatError("count mismatch: trailing data beyond declared count")
    return CodeDataset(width_bits, codes)
