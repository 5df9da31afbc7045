"""Secondary-memory backend: codes decomposed into fixed-width sub-codes and
indexed as (position, value) terms in on-disk postings lists across shards.

Queries run in two phases. A pigeonhole filter first fetches the postings
list for each of the query's s sub-codes and keeps documents matching at
least s - r of them: a code within Hamming distance r can disagree with the
query on at most r sub-codes. Surviving candidates are then verified against
exact distances read from a forward file. When s - r <= 0 the bound is
vacuous and the query degrades to a streamed scan of the forward files.

Index directory layout (all integers little-endian):
  manifest      magic HSI1, version u32, width_bits u32, sub_width u32,
                shard_count u32, dataset_count u32
  shard-k.fwd   raw codes in local-id order, same packing as a dataset body
  shard-k.trm   records (position u16, value u64, offset u64,
                length u32, freq u32) sorted by (position, value)
  shard-k.pst   concatenated postings lists; each list is a varint sequence
                of deltas of strictly increasing local doc ids (first entry
                is the id itself)
  COMPLETE      marker written last; open refuses directories lacking it
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import varint
from .core import (
    BinaryCode,
    CodeDataset,
    NeighborSet,
    QuerySpec,
    _check_subcode_geometry,
    hamming_distances,
    subcode_columns,
)

MANIFEST_MAGIC = b"HSI1"
MANIFEST_VERSION = 1
MANIFEST_NAME = "manifest"
COMPLETE_NAME = "COMPLETE"
_MANIFEST = struct.Struct("<4sIIIII")

TERM_DTYPE = np.dtype(
    [
        ("position", "<u2"),
        ("value", "<u8"),
        ("offset", "<u8"),
        ("length", "<u4"),
        ("freq", "<u4"),
    ]
)

DEFAULT_SHARDS = 5
DEFAULT_SUB_WIDTH = 16

# verify and the bypass scan read at most this many forward-file bytes per
# pread, keeping query-time resident memory bounded regardless of shard size
SCAN_BLOCK_BYTES = 1 << 20
# verify makes one pread per run of consecutive candidate ids unless the runs
# lie on average at most this many bytes apart; then it streams the rows they
# span. On a 2-vCPU VM a pread of a few bytes from the page cache took about
# 1.2 us, the time a 1 MiB pread spends on 4 KiB.
DENSE_RUN_GAP_BYTES = 4096

# incremented on every subcode_build call; restart checks assert it stays 0
# in a process that only opens and queries an existing index
BUILD_CALLS = 0


class IndexBuildError(RuntimeError):
    """Index construction failed; no valid index is left behind."""


class IndexOpenError(RuntimeError):
    """An index directory is missing, incomplete, or corrupt."""


class QueryError(RuntimeError):
    """A query failed while reading index files."""


@dataclass(frozen=True)
class SubCodeGeometry:
    """Decomposition of width_bits into s = width_bits / sub_width sub-codes."""

    width_bits: int
    sub_width: int

    @property
    def subcode_count(self) -> int:
        return self.width_bits // self.sub_width


def plan_geometry(width_bits: int, sub_width: int = DEFAULT_SUB_WIDTH) -> SubCodeGeometry:
    """Validate and return a sub-code geometry."""
    _check_subcode_geometry(width_bits, sub_width)
    return SubCodeGeometry(width_bits, sub_width)


def filter_bypassed(geometry: SubCodeGeometry, radius: int) -> bool:
    """True when the pigeonhole bound is vacuous and queries scan everything."""
    return geometry.subcode_count - radius <= 0


class _DenseTerms:
    """Term table for 8-bit sub-codes: direct (position, value) addressing.

    Offsets narrow to u32 whenever the postings file fits, which roughly
    halves the resident footprint of an opened index.
    """

    def __init__(self, records: np.ndarray, s: int):
        off_dtype = np.uint64
        if records.size == 0 or int(records["offset"][-1]) < 2**32:
            off_dtype = np.uint32
        self.offsets = np.zeros((s, 256), dtype=off_dtype)
        self.lengths = np.zeros((s, 256), dtype=np.uint32)
        pos = records["position"].astype(np.int64)
        val = records["value"].astype(np.int64)
        self.offsets[pos, val] = records["offset"]
        self.lengths[pos, val] = records["length"]

    def lookup(self, query_values: np.ndarray):
        idx = np.arange(self.offsets.shape[0])
        val = query_values.astype(np.int64)
        return self.offsets[idx, val], self.lengths[idx, val]


class _SortedTerms:
    """Term table for wider sub-codes: per-position sorted value arrays."""

    def __init__(self, records: np.ndarray, s: int):
        self.values = records["value"].copy()
        self.offsets = records["offset"].copy()
        self.lengths = records["length"].copy()
        self.pos_bounds = np.searchsorted(records["position"], np.arange(s + 1))

    def lookup(self, query_values: np.ndarray):
        s = self.pos_bounds.size - 1
        offs = np.zeros(s, dtype=np.uint64)
        lens = np.zeros(s, dtype=np.uint32)
        for p in range(s):
            lo, hi = self.pos_bounds[p], self.pos_bounds[p + 1]
            v = np.uint64(query_values[p])
            i = lo + np.searchsorted(self.values[lo:hi], v)
            if i < hi and self.values[i] == v:
                offs[p] = self.offsets[i]
                lens[p] = self.lengths[i]
        return offs, lens


@dataclass(eq=False)
class ShardDescriptor:
    """One horizontal partition: forward file, term table, postings list file.

    Local doc id j maps to global DocId j * shard_count + shard_index
    (round-robin assignment).
    """

    shard_index: int
    shard_count: int
    doc_count: int
    term_table_path: Path
    postings_path: Path
    forward_path: Path
    _terms: object = field(default=None, repr=False)
    _pst_fd: int = field(default=-1, repr=False)
    _fwd_fd: int = field(default=-1, repr=False)

    def local_to_global(self, local_ids: np.ndarray) -> np.ndarray:
        return local_ids * self.shard_count + self.shard_index

    def close(self):
        for attr in ("_pst_fd", "_fwd_fd"):
            fd = getattr(self, attr)
            if fd >= 0:
                os.close(fd)
                setattr(self, attr, -1)


@dataclass(eq=False)
class CandidateSet:
    """Shard-local docs surviving the filter, with matched-term counts."""

    local_ids: np.ndarray
    match_counts: np.ndarray

    @classmethod
    def empty(cls) -> "CandidateSet":
        return cls(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))

    def __len__(self):
        return self.local_ids.size


@dataclass(eq=False)
class SubCodeIndexManifest:
    """Handle to an opened on-disk index; immutable and query-shareable."""

    geometry: SubCodeGeometry
    shard_count: int
    dataset_count: int
    directory: Path
    shards: list

    def close(self):
        for shard in self.shards:
            shard.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def __repr__(self):
        return (
            f"SubCodeIndexManifest(width_bits={self.geometry.width_bits}, "
            f"sub_width={self.geometry.sub_width}, shards={self.shard_count}, "
            f"count={self.dataset_count})"
        )


def _shard_doc_count(dataset_count: int, shard_index: int, shard_count: int) -> int:
    if dataset_count <= shard_index:
        return 0
    return (dataset_count - shard_index + shard_count - 1) // shard_count


def _shard_paths(directory: Path, k: int):
    return (
        directory / f"shard-{k}.trm",
        directory / f"shard-{k}.pst",
        directory / f"shard-{k}.fwd",
    )


def subcode_build(
    dataset: CodeDataset,
    geometry: SubCodeGeometry,
    shard_count: int = DEFAULT_SHARDS,
    directory=None,
) -> SubCodeIndexManifest:
    """Build a complete on-disk index and return it opened for query.

    Docs are assigned to shards round-robin by DocId. All files are written
    before the COMPLETE marker, so an interrupted build leaves a directory
    that subcode_open refuses.
    """
    global BUILD_CALLS
    BUILD_CALLS += 1
    if directory is None:
        raise ValueError("directory is required")
    if shard_count < 1:
        raise ValueError(f"shard_count must be >= 1, got {shard_count}")
    if geometry.width_bits != dataset.width_bits:
        raise ValueError(
            f"geometry width {geometry.width_bits} does not match dataset "
            f"width {dataset.width_bits}"
        )
    directory = Path(directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
        marker = directory / COMPLETE_NAME
        if marker.exists():
            marker.unlink()
        for k in range(shard_count):
            _build_shard(dataset, geometry, k, shard_count, directory)
        with open(directory / MANIFEST_NAME, "wb") as f:
            f.write(
                _MANIFEST.pack(
                    MANIFEST_MAGIC,
                    MANIFEST_VERSION,
                    dataset.width_bits,
                    geometry.sub_width,
                    shard_count,
                    dataset.count,
                )
            )
        marker.write_bytes(b"complete\n")
    except OSError as exc:
        raise IndexBuildError(f"index build failed in {directory}: {exc}") from exc
    return subcode_open(directory)


def _build_shard(dataset, geometry, k, shard_count, directory):
    trm_path, pst_path, fwd_path = _shard_paths(directory, k)
    rows = np.ascontiguousarray(dataset.codes[k::shard_count])
    n = rows.shape[0]
    with open(fwd_path, "wb") as f:
        f.write(rows.tobytes())

    s = geometry.subcode_count
    sub = subcode_columns(rows, geometry.width_bits, geometry.sub_width)
    term_parts = []
    postings_parts = []
    offset = 0
    for p in range(s):
        if n == 0:
            break
        col = np.ascontiguousarray(sub[:, p])
        order = np.argsort(col, kind="stable").astype(np.uint64)
        sorted_vals = col[order]
        is_start = np.empty(n, dtype=bool)
        is_start[0] = True
        np.not_equal(sorted_vals[1:], sorted_vals[:-1], out=is_start[1:])
        starts = np.flatnonzero(is_start)
        freqs = np.diff(np.append(starts, n))

        deltas = np.empty(n, dtype=np.uint64)
        deltas[1:] = order[1:] - order[:-1]  # wraps across groups; fixed below
        deltas[starts] = order[starts]
        encoded = varint.encode(deltas)

        byte_cum = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(varint.byte_lengths(deltas), out=byte_cum[1:])
        group_off = byte_cum[starts]
        group_len = byte_cum[np.append(starts[1:], n)] - group_off

        terms = np.empty(starts.size, dtype=TERM_DTYPE)
        terms["position"] = p
        terms["value"] = sorted_vals[starts]
        terms["offset"] = offset + group_off
        terms["length"] = group_len
        terms["freq"] = freqs
        term_parts.append(terms)
        postings_parts.append(encoded)
        offset += encoded.size

    all_terms = (
        np.concatenate(term_parts) if term_parts else np.empty(0, dtype=TERM_DTYPE)
    )
    with open(trm_path, "wb") as f:
        f.write(all_terms.tobytes())
    with open(pst_path, "wb") as f:
        for part in postings_parts:
            f.write(part.tobytes())


def subcode_open(directory) -> SubCodeIndexManifest:
    """Open a completed index: manifest and term tables come into memory,
    postings and forward files stay on disk and are read per query."""
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.is_file():
        raise IndexOpenError(f"missing manifest in {directory}")
    raw = manifest_path.read_bytes()
    if len(raw) < _MANIFEST.size:
        raise IndexOpenError(f"truncated manifest in {directory}")
    magic, version, width_bits, sub_width, shard_count, dataset_count = _MANIFEST.unpack(
        raw[: _MANIFEST.size]
    )
    if magic != MANIFEST_MAGIC:
        raise IndexOpenError(f"manifest magic mismatch in {directory}")
    if version != MANIFEST_VERSION:
        raise IndexOpenError(f"unsupported index version {version} in {directory}")
    if not (directory / COMPLETE_NAME).is_file():
        raise IndexOpenError(f"incomplete build: COMPLETE marker missing in {directory}")
    try:
        geometry = plan_geometry(width_bits, sub_width)
    except ValueError as exc:
        raise IndexOpenError(f"corrupt manifest in {directory}: {exc}") from exc

    code_bytes = width_bits // 8
    shards = []
    try:
        for k in range(shard_count):
            trm_path, pst_path, fwd_path = _shard_paths(directory, k)
            for path in (trm_path, pst_path, fwd_path):
                if not path.is_file():
                    raise IndexOpenError(f"missing shard file {path.name} in {directory}")
            doc_count = _shard_doc_count(dataset_count, k, shard_count)
            if fwd_path.stat().st_size != doc_count * code_bytes:
                raise IndexOpenError(
                    f"truncated forward file {fwd_path.name}: expected "
                    f"{doc_count * code_bytes} bytes"
                )
            trm_size = trm_path.stat().st_size
            if trm_size % TERM_DTYPE.itemsize != 0:
                raise IndexOpenError(f"truncated term table {trm_path.name}")
            records = np.fromfile(trm_path, dtype=TERM_DTYPE)
            pst_size = pst_path.stat().st_size
            if records.size:
                if int(records["position"].max()) >= geometry.subcode_count:
                    raise IndexOpenError(f"corrupt term table {trm_path.name}")
                end = int(records["offset"][-1]) + int(records["length"][-1])
                if end > pst_size:
                    raise IndexOpenError(f"truncated postings file {pst_path.name}")
            table_cls = _DenseTerms if sub_width == 8 else _SortedTerms
            shard = ShardDescriptor(
                shard_index=k,
                shard_count=shard_count,
                doc_count=doc_count,
                term_table_path=trm_path,
                postings_path=pst_path,
                forward_path=fwd_path,
                _terms=table_cls(records, geometry.subcode_count),
                _pst_fd=os.open(pst_path, os.O_RDONLY),
                _fwd_fd=os.open(fwd_path, os.O_RDONLY),
            )
            shards.append(shard)
    except Exception:
        for shard in shards:
            shard.close()
        raise
    return SubCodeIndexManifest(
        geometry=geometry,
        shard_count=shard_count,
        dataset_count=dataset_count,
        directory=directory,
        shards=shards,
    )


def _pread_exact(fd, length, offset, shard, what):
    if fd < 0:
        raise QueryError(
            f"{what} read in shard {shard.shard_index}: the index is closed"
        )
    data = os.pread(fd, length, offset)
    if len(data) != length:
        raise QueryError(
            f"{what} read failed in shard {shard.shard_index} at offset {offset}: "
            f"wanted {length} bytes, got {len(data)}"
        )
    return data


def _decode_postings(data: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Decode concatenated postings lists in one vectorized pass.

    data holds the lists back to back; lens gives each list's byte length,
    all of them positive. Returns the local ids as uint32, which holds any
    shard's ids, concatenated in list order.
    """
    if data.size == 0:
        return np.zeros(0, dtype=np.uint32)
    ids, ends = varint.decode_with_ends(data, np.uint32)
    # one running sum over all lists: each list's first entry, its id
    # itself, has the previous list's last id taken off (modulo 2**32)
    firsts = np.searchsorted(ends, np.cumsum(lens) - lens)
    lasts = np.add.reduceat(ids, firsts, dtype=np.uint32)[:-1]
    ids[firsts[1:]] -= lasts
    return np.cumsum(ids, dtype=np.uint32, out=ids)


def _shard_term_reads(shard, geometry, spec, threshold):
    """Postings (offset, length) pairs for the query's present terms, or
    None when too few lists are non-empty for any doc to reach the match
    threshold. Offsets ascend by construction: the build lays lists out in
    (position, value) order and the query takes one value per position."""
    query_values = spec.query.words.view(f"<u{geometry.sub_width // 8}")
    offsets, lengths = shard._terms.lookup(query_values)
    present = lengths > 0
    if int(present.sum()) < threshold:
        return None
    return offsets[present].astype(np.int64), lengths[present].astype(np.int64)


def candidate_filter(
    shard: ShardDescriptor, geometry: SubCodeGeometry, spec: QuerySpec
) -> CandidateSet:
    """Pigeonhole candidate generation for one shard.

    Fetches the postings list for each of the query's s sub-code terms and
    keeps local docs appearing in at least s - radius of them. Absent terms
    count as empty lists. Requires s - radius >= 1; callers bypass the
    filter entirely otherwise.
    """
    s = geometry.subcode_count
    threshold = s - spec.radius
    if threshold < 1:
        raise ValueError("candidate_filter requires s - radius >= 1; bypass instead")
    if shard.doc_count == 0:
        return CandidateSet.empty()
    reads = _shard_term_reads(shard, geometry, spec, threshold)
    if reads is None:
        return CandidateSet.empty()
    offs, lens = reads
    chunks = [
        _pread_exact(shard._pst_fd, int(ln), int(off), shard, "postings")
        for off, ln in zip(offs, lens)
    ]
    data = np.frombuffer(b"".join(chunks), dtype=np.uint8)
    try:
        ids = _decode_postings(data, lens)
    except varint.VarintError as exc:
        raise QueryError(
            f"corrupt postings in shard {shard.shard_index}: {exc}"
        ) from exc
    if ids.size and int(ids.max()) >= shard.doc_count:
        raise QueryError(
            f"corrupt postings in shard {shard.shard_index}: doc id out of range"
        )
    # each list holds a doc at most once, so a doc in L lists sorts into a
    # run of L equal ids; when L >= threshold, L - threshold + 1 of them
    # equal the id threshold - 1 places on
    ids.sort()
    span = ids.size - threshold + 1
    if span <= 0:
        return CandidateSet.empty()
    hits = ids if threshold == 1 else ids[:span][ids[:span] == ids[threshold - 1 :]]
    first = np.ones(hits.size, dtype=bool)
    np.not_equal(hits[1:], hits[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    match = np.diff(starts, append=hits.size) + (threshold - 1)
    return CandidateSet(hits[starts].astype(np.int64), match)


def _read_forward_rows(shard, words, firsts, counts):
    """Read the forward rows [first, first + count) of each run, in order.

    One pread per run, so only the requested rows are read. The reads are
    joined back to back and returned as a read-only (rows, words) view.
    """
    code_bytes = words * 8
    data = b"".join(
        _pread_exact(shard._fwd_fd, n * code_bytes, first * code_bytes, shard, "forward")
        for first, n in zip(firsts, counts)
    )
    return np.frombuffer(data, dtype="<u8").reshape(-1, words)


def _candidate_rows(shard, words, local_ids):
    """Yield (local ids, their codes) for sorted unique local ids, in batches
    of at most SCAN_BLOCK_BYTES of codes.

    A batch whose runs of consecutive ids lie far apart is read run by run.
    A dense batch streams the rows it spans block by block instead and picks
    its own rows out of each block, so that the kernel runs once per batch.
    """
    code_bytes = words * 8
    rows_per_block = max(1, SCAN_BLOCK_BYTES // code_bytes)
    for lo in range(0, local_ids.size, rows_per_block):
        batch = local_ids[lo : lo + rows_per_block]
        new_run = np.ones(batch.size, dtype=bool)
        np.not_equal(np.diff(batch), 1, out=new_run[1:])
        first, end = int(batch[0]), int(batch[-1]) + 1
        runs = np.count_nonzero(new_run)
        if runs * DENSE_RUN_GAP_BYTES < (end - first) * code_bytes:
            run_starts = np.flatnonzero(new_run)
            run_counts = np.diff(np.append(run_starts, batch.size))
            yield batch, _read_forward_rows(
                shard, words, batch[run_starts].tolist(), run_counts.tolist()
            )
            continue
        rows = np.empty((batch.size, words), dtype=np.uint64)
        for base in range(first, end, rows_per_block):
            n = min(rows_per_block, end - base)
            b_lo, b_hi = np.searchsorted(batch, (base, base + n))
            if b_lo < b_hi:
                block = _read_forward_rows(shard, words, [base], [n])
                np.take(block, batch[b_lo:b_hi] - base, axis=0, out=rows[b_lo:b_hi])
                del block  # as in _scan_shard
        yield batch, rows


def verify(
    shard: ShardDescriptor, candidates: CandidateSet, spec: QuerySpec
) -> NeighborSet:
    """Exact-distance verification of filter candidates for one shard.

    Candidate local ids are sorted and unique, as candidate_filter returns
    them. Reads their codes from the forward file, one pread per run of
    consecutive local ids unless the runs are dense, and returns surviving
    entries with global DocIds. Candidates are processed in bounded batches
    so a permissive filter cannot blow up resident memory.
    """
    if len(candidates) == 0:
        return NeighborSet.empty()
    hit_ids = []
    hit_dists = []
    for local_ids, codes in _candidate_rows(
        shard, spec.query.words.size, candidates.local_ids
    ):
        dist = hamming_distances(codes, spec.query.words)
        keep = np.flatnonzero(dist <= spec.radius)
        if keep.size:
            hit_ids.append(shard.local_to_global(local_ids[keep]))
            hit_dists.append(dist[keep])
    if not hit_ids:
        return NeighborSet.empty()
    return NeighborSet(
        np.concatenate(hit_ids).astype(np.uint32), np.concatenate(hit_dists)
    )


def _scan_shard(shard: ShardDescriptor, spec: QuerySpec) -> tuple:
    """Bypass path: stream the whole forward file in bounded blocks."""
    words = spec.query.words.size
    code_bytes = words * 8
    rows_per_block = max(1, SCAN_BLOCK_BYTES // code_bytes)
    hit_ids = []
    hit_dists = []
    for base in range(0, shard.doc_count, rows_per_block):
        n = min(rows_per_block, shard.doc_count - base)
        # the block is freed before the next one is read: two blocks plus
        # the kernel's temporaries outgrow glibc's heap trim threshold, so
        # the heap would shrink and fault its pages back in on every block
        block = _read_forward_rows(shard, words, [base], [n])
        dist = hamming_distances(block, spec.query.words)
        del block
        hits = np.flatnonzero(dist <= spec.radius)
        if hits.size:
            hit_ids.append(shard.local_to_global(hits + base))
            hit_dists.append(dist[hits])
    if not hit_ids:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint32)
    return np.concatenate(hit_ids), np.concatenate(hit_dists)


def subcode_range_search(manifest: SubCodeIndexManifest, spec: QuerySpec) -> NeighborSet:
    """Exact radius query: filter + verify per shard, or a streamed scan of
    every shard when s - radius <= 0; shard results are merged by DocId."""
    if spec.query.width_bits != manifest.geometry.width_bits:
        raise ValueError(
            f"query width {spec.query.width_bits} does not match index "
            f"width {manifest.geometry.width_bits}"
        )
    geometry = manifest.geometry
    parts = []
    if filter_bypassed(geometry, spec.radius):
        for shard in manifest.shards:
            parts.append(_scan_shard(shard, spec))
    else:
        # shards are processed one at a time: filter working sets stay
        # bounded to a single shard, and on CPython a thread per shard only
        # adds lock traffic around these small kernels
        for shard in manifest.shards:
            candidates = candidate_filter(shard, geometry, spec)
            found = verify(shard, candidates, spec)
            parts.append((found.ids.astype(np.int64), found.distances))
    ids = np.concatenate([p[0] for p in parts])
    dists = np.concatenate([p[1] for p in parts])
    return NeighborSet(ids.astype(np.uint32), dists)


def read_code(manifest: SubCodeIndexManifest, doc_id: int) -> BinaryCode:
    """Fetch one code by global DocId from the forward files."""
    if not 0 <= doc_id < manifest.dataset_count:
        raise ValueError(f"doc id {doc_id} out of range [0, {manifest.dataset_count})")
    shard = manifest.shards[doc_id % manifest.shard_count]
    local = doc_id // manifest.shard_count
    words = manifest.geometry.width_bits // 64
    row = _read_forward_rows(shard, words, [local], [1])[0]
    return BinaryCode(manifest.geometry.width_bits, row.copy())
