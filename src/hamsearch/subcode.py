"""Secondary-memory backend: codes decomposed into fixed-width sub-codes and
indexed as (position, value) terms in on-disk postings lists across shards.

Shard k of S holds the DocIds [k * c, min((k + 1) * c, n)) of n codes, for
c = ceil(n / S), so only trailing shards may be empty. Its local id j, a
forward-file row and a postings id, is DocId k * c + j.

A query runs in two phases over the whole index. candidate_filter looks up
every shard's postings list for each of the query's s sub-codes, reads only
the k shortest of them, and keeps documents matching at least k - r of
those: a code within Hamming distance r can disagree with the query on at
most r of any k sub-codes. A plan picks k in [r + 1, s] from the lengths the
lookup returns (see _plan). The filter decodes one group of consecutive
shards at a time (see FILTER_GROUP_IDS) and returns the survivors as sorted
DocIds, which verify checks against exact distances read from the forward
files. When s - r <= 0 the bound is vacuous and the
query degrades to a streamed scan of each shard's forward file. Shards
follow DocId order, so every result comes out ascending without a sort.

Index directory layout (all integers little-endian):
  manifest      magic HSI1, version u32, width_bits u32, sub_width u32,
                shard_count u32, dataset_count u32
  shard-k.fwd   raw codes in local-id order, same packing as a dataset body
  shard-k.trm   the shard's n term keys, then their n postings list byte
                lengths as u32. A key is 2 + sub_width / 8 bytes: position
                and value, both big-endian, so that byte order is
                (position, value) order; the keys are strictly increasing
  shard-k.pst   the postings lists back to back in key order; each list is
                a varint sequence of deltas of strictly increasing local doc
                ids (first entry is the id itself)
  COMPLETE      marker written last; open refuses directories lacking it

A list's offset is the sum of the lengths before it. Open checks that the
term table is a whole number of (key, length) pairs, that the keys are
strictly increasing with every position below s, that no list is empty and
that the lengths sum to the postings file's size. A value below 2^sub_width
holds by construction: it is stored in sub_width bits.
"""

from __future__ import annotations

import itertools
import math
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
    _InFlight,
    _check_subcode_geometry,
    _check_width,
    hamming_distances,
    subcode_columns,
)

MANIFEST_MAGIC = b"HSI1"
MANIFEST_VERSION = 3
MANIFEST_NAME = "manifest"
COMPLETE_NAME = "COMPLETE"
_MANIFEST = struct.Struct("<4sIIIII")

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

# the filter decodes consecutive shards in one pass while a query is
# expected to decode at most this many postings ids from them (see
# _group_bounds): 64 KiB of uint32 ids, a few of the pass's arrays of that
# size staying well under glibc's heap trim threshold
FILTER_GROUP_IDS = 16384

# the filter's plan (see _plan) counts a candidate as costing verify as much
# as decoding this many postings ids costs the filter. Forcing k from 17 to
# 32 on a filter-m256-r15 benchmark index (seed 902, 200 queries, 2-vCPU VM,
# ids counted by wrapping varint.decode_with_ends) moved the filter by
# 17.9 ns per decoded id and verify by 0.76 us per candidate: a ratio of 42.
# In-process, 40 answered 5% faster than 100 on the same queries.
CANDIDATE_COST_IDS = 40

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
    _check_width(width_bits)
    _check_subcode_geometry(width_bits, sub_width)
    return SubCodeGeometry(width_bits, sub_width)


def filter_bypassed(geometry: SubCodeGeometry, radius: int) -> bool:
    """True when the pigeonhole bound is vacuous and queries scan everything."""
    return geometry.subcode_count - radius <= 0


def _key_dtype(sub_width: int) -> np.dtype:
    return np.dtype([("position", ">u2"), ("value", f">u{sub_width // 8}")])


def _term_keys(positions, values: np.ndarray, sub_width: int) -> np.ndarray:
    """Fixed-width byte keys whose byte order is (position, value) order:
    both fields big-endian, the position in 2 bytes and the value in
    sub_width / 8. This holds at every width, 64 bits included."""
    key = np.empty(values.size, dtype=_key_dtype(sub_width))
    key["position"] = positions
    key["value"] = values
    return key.view(f"S{key.itemsize}")


@dataclass(frozen=True)
class _TermTable:
    """One shard's term dictionary: its (position, value) keys, strictly
    increasing, and the n + 1 cumulative byte ends of their postings lists.

    Ends are uint32 whenever the postings file is under 4 GiB.
    """

    keys: np.ndarray
    ends: np.ndarray

    def lookup(self, keys: np.ndarray):
        """(offsets, lengths) of the postings lists of the keys, in the
        order of the keys; an absent key has length 0."""
        idx = np.searchsorted(self.keys, keys)
        present = idx < self.keys.size
        present[present] = self.keys[idx[present]] == keys[present]
        starts = self.ends[idx]
        return starts, self.ends[idx + present] - starts


def _open_term_table(trm_path: Path, pst_path: Path, geometry: SubCodeGeometry) -> _TermTable:
    """Read one shard's term keys and list lengths and check them against
    the geometry and the postings file; raises IndexOpenError naming the
    file on a fault."""

    def corrupt(fault):
        return IndexOpenError(f"corrupt term table {trm_path.name}: {fault}")

    key_dtype = _key_dtype(geometry.sub_width)
    with open(trm_path, "rb") as f:
        n, rest = divmod(os.fstat(f.fileno()).st_size, key_dtype.itemsize + 4)
        keys = np.fromfile(f, dtype=f"S{key_dtype.itemsize}", count=n)
        lengths = np.fromfile(f, dtype="<u4", count=n)
    if rest or lengths.size != n:
        raise IndexOpenError(f"truncated term table {trm_path.name}")
    if np.any(keys[1:] <= keys[:-1]):
        raise corrupt("terms are not strictly increasing")
    # sorted keys put the largest position last
    if np.any(keys[-1:].view(key_dtype)["position"] >= geometry.subcode_count):
        raise corrupt("position out of range")
    if int(lengths.min(initial=1)) == 0:
        raise corrupt("empty postings list")
    # summed in 64 bits, so that no set of u32 lengths can wrap to the size
    sums = np.cumsum(lengths, dtype=np.uint64)
    pst_size = pst_path.stat().st_size
    if int(sums[-1] if n else 0) != pst_size:
        raise corrupt(f"list lengths do not sum to the size of {pst_path.name}")
    ends = np.zeros(n + 1, dtype=np.uint32 if pst_size < 2**32 else np.uint64)
    ends[1:] = sums
    return _TermTable(keys, ends)


@dataclass(eq=False)
class ShardDescriptor:
    """One horizontal partition: forward file, term table, postings list file.

    The shard holds the DocIds [start, start + doc_count); its local id j
    is DocId start + j.
    """

    shard_index: int
    start: int
    doc_count: int
    _terms: _TermTable = field(default=None, repr=False)
    _pst_fd: int = field(default=-1, repr=False)
    _fwd_fd: int = field(default=-1, repr=False)

    def close(self):
        for attr in ("_pst_fd", "_fwd_fd"):
            fd = getattr(self, attr)
            if fd >= 0:
                os.close(fd)
                setattr(self, attr, -1)


@dataclass(eq=False)
class SubCodeIndexManifest:
    """Handle to an opened on-disk index; immutable and query-shareable.

    _groups splits shards into the consecutive groups that the filter
    decodes one at a time (see `_group_bounds`).
    """

    geometry: SubCodeGeometry
    shard_count: int
    dataset_count: int
    directory: Path
    shards: list
    _groups: list = field(repr=False)
    _queries: _InFlight = field(default_factory=_InFlight, init=False, repr=False)

    def close(self):
        """Refuse new queries with QueryError, and close the shards' files
        once no query is reading them; safe to call twice."""
        if self._queries.close():
            self._close_shards()

    def _enter(self, what: str, spec: QuerySpec = None):
        """Count a reader in, or raise QueryError once the index is closed;
        a caller that gets past this must call _leave when done. A query
        spec of another width than the index raises ValueError first."""
        if spec is not None and spec.query.width_bits != self.geometry.width_bits:
            raise ValueError(
                f"query width {spec.query.width_bits} does not match index "
                f"width {self.geometry.width_bits}"
            )
        if not self._queries.enter():
            raise QueryError(f"{what} on {self.directory}: the index is closed")

    def _leave(self):
        """Count a reader out; the last one out of a closed index closes
        its files."""
        if self._queries.leave():
            self._close_shards()

    def _close_shards(self):
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


def _shard_ranges(dataset_count: int, shard_count: int) -> list:
    """(start, doc_count) of each shard: the DocId ranges tile [0, n) in
    shard order, shard k starting at k * ceil(n / S)."""
    per_shard = -(-dataset_count // shard_count)
    starts = [min(k * per_shard, dataset_count) for k in range(shard_count + 1)]
    return [(lo, hi - lo) for lo, hi in zip(starts, starts[1:])]


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

    Each shard takes one contiguous range of DocIds (see `_shard_ranges`).
    All files are written before the COMPLETE marker, so an interrupted
    build leaves a directory that subcode_open refuses.
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
        for k, (start, doc_count) in enumerate(_shard_ranges(dataset.count, shard_count)):
            # a slice of whole rows of the C-ordered codes is contiguous
            _build_shard(dataset.codes[start : start + doc_count], geometry,
                         _shard_paths(directory, k))
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


def _build_shard(rows, geometry, paths):
    trm_path, pst_path, fwd_path = paths
    n = rows.shape[0]
    with open(fwd_path, "wb") as f:
        f.write(rows)

    sub = subcode_columns(rows, geometry.width_bits, geometry.sub_width)
    key_parts = []
    length_parts = []
    postings_parts = []
    for p in range(geometry.subcode_count if n else 0):
        col = np.ascontiguousarray(sub[:, p])
        # the ids are non-negative, so their int64 bits read as uint64
        order = np.argsort(col, kind="stable").view(np.uint64)
        sorted_vals = col[order]
        is_start = np.empty(n, dtype=bool)
        is_start[0] = True
        np.not_equal(sorted_vals[1:], sorted_vals[:-1], out=is_start[1:])
        starts = np.flatnonzero(is_start)

        deltas = np.empty(n, dtype=np.uint64)
        deltas[1:] = order[1:] - order[:-1]  # wraps across groups; fixed below
        deltas[starts] = order[starts]
        encoded = varint.encode(deltas)
        del deltas  # before the next n-row array: 2 MiB off a 2M-code m=64 build's peak
        # a list ends one byte after the terminator, a byte below 128, of
        # its last id
        last_ids = np.append(starts[1:], n) - 1
        ends = np.flatnonzero(encoded < 128)[last_ids] + 1
        postings_parts.append(encoded)
        key_parts.append(_term_keys(p, sorted_vals[starts], geometry.sub_width))
        length_parts.append(np.diff(ends, prepend=0).astype("<u4"))

    with open(trm_path, "wb") as f:
        for part in key_parts + length_parts:
            f.write(part)
    with open(pst_path, "wb") as f:
        for part in postings_parts:
            f.write(part)


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
    if shard_count < 1:
        raise IndexOpenError(f"corrupt manifest in {directory}: shard_count is 0")

    code_bytes = width_bits // 8
    shards = []
    try:
        for k, (start, doc_count) in enumerate(_shard_ranges(dataset_count, shard_count)):
            trm_path, pst_path, fwd_path = _shard_paths(directory, k)
            shard = ShardDescriptor(k, start, doc_count)
            # listed before its files are opened, so that the cleanup below
            # closes whatever descriptor an open that fails part way leaves
            shards.append(shard)
            try:
                shard._terms = _open_term_table(trm_path, pst_path, geometry)
                shard._pst_fd = os.open(pst_path, os.O_RDONLY)
                shard._fwd_fd = os.open(fwd_path, os.O_RDONLY)
            except FileNotFoundError as exc:
                name = os.path.basename(exc.filename)
                raise IndexOpenError(f"missing shard file {name} in {directory}") from exc
            except OSError as exc:
                raise IndexOpenError(f"cannot open shard {k} in {directory}: {exc}") from exc
            if os.fstat(shard._fwd_fd).st_size != doc_count * code_bytes:
                raise IndexOpenError(
                    f"truncated forward file {fwd_path.name}: expected "
                    f"{doc_count * code_bytes} bytes"
                )
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
        _groups=[
            tuple(shards[lo:hi])
            for lo, hi in _group_bounds([s.doc_count for s in shards], geometry)
        ],
    )


def _pread_spans(shard, fd, offsets, lengths, what) -> bytes:
    """Read the byte spans (offset, length) of one of a shard's files, one
    pread each, and join them in order."""
    if fd < 0:
        raise QueryError(
            f"{what} read in shard {shard.shard_index}: the index is closed"
        )
    data = b"".join(map(os.pread, itertools.repeat(fd, len(lengths)), lengths, offsets))
    want = sum(lengths)
    if len(data) != want:
        raise QueryError(
            f"{what} read failed in shard {shard.shard_index}: wanted {want} "
            f"bytes from offset {offsets[0]} on, got {len(data)}"
        )
    return data


def _decode_postings(data: np.ndarray, lens: np.ndarray, heads, steps) -> tuple:
    """Decode concatenated postings lists in one vectorized pass.

    data holds the lists back to back; lens gives each list's byte length,
    all of them positive. From list heads[i] on, every id is steps[i]
    larger, so that a group's local ids come out as group ids. Returns the
    ids as uint32, which holds any index's ids, concatenated in list order,
    and the index of each list's first id.
    """
    if data.size == 0:
        return np.zeros(0, dtype=np.uint32), np.zeros(0, dtype=np.intp)
    ids, ends = varint.decode_with_ends(data, np.uint32)
    # one running sum over all lists: each list's first entry, its id
    # itself, has the previous list's last id taken off (modulo 2**32).
    # The list starts are summed as int64, the type of ends: searching
    # int64 for uint64 would compare both as float64.
    firsts = np.searchsorted(ends, np.cumsum(lens, dtype=np.int64) - lens)
    lasts = np.add.reduceat(ids, firsts, dtype=np.uint32)[:-1]
    ids[firsts[1:]] -= lasts
    if heads:
        # the running sum carries a step on to every later list, so each
        # shard's first list takes only the step from the previous base
        ids[firsts[heads]] += np.array(steps, dtype=np.uint32)
    return np.cumsum(ids, dtype=np.uint32, out=ids), firsts


def _group_bounds(doc_counts, geometry: SubCodeGeometry) -> list:
    """Split shards with these doc counts into the consecutive groups
    [lo, hi) that the filter decodes in one pass each. A shard joins the
    group before it while the postings ids a query is expected to decode
    from that group, doc_count * s / 2**sub_width per shard for uniform
    sub-codes, stay within FILTER_GROUP_IDS.

    Skewed sub-codes decode more than this expects: 206.8 ids a query
    against 122 expected on 2M clustered 64-bit codes at sub_width 16, a
    factor of 1.7. A planned pass (see _plan) that reads k < s lists
    decodes fewer ids than the bound expects: 6.4k a shard against 12.5k on
    filter-m256-r15's 100k-code shards. The bound is kept on doc counts
    alone, so that a group does not depend on the data or the query."""
    per_doc = geometry.subcode_count / 2**geometry.sub_width
    bounds, lo, expected = [], 0, 0.0
    for k, count in enumerate(doc_counts):
        if k > lo and expected + count * per_doc > FILTER_GROUP_IDS:
            bounds.append((lo, k))
            lo, expected = k, 0.0
        expected += count * per_doc
    bounds.append((lo, len(doc_counts)))
    return bounds


def _plan(lengths: list, radius: int, postings_bytes: int) -> list:
    """The query terms whose postings lists a pass reads, ascending: the k
    shortest of the s lists with these byte lengths, absent terms (length
    0) first. The pass counts with threshold k - radius. A doc within
    radius of the query disagrees with it on at most radius of any k
    sub-codes, so every k in [radius + 1, s] keeps the filter exact.

    k minimises the expected ids decoded plus CANDIDATE_COST_IDS times the
    expected candidates, both per doc of the pass's n docs. Every doc sits
    in exactly s lists, so the k lists hold about lam = bytes * s /
    postings_bytes ids per doc. Taken as independent, a doc's memberships
    of the k lists are Poisson with mean lam, which reach the threshold
    T = k - radius with probability at most lam**T / T!. These estimates
    choose k only; exactness rests on the threshold.

    k steps up from radius + 1 and stops at the first rise in cost where
    that bound is below 1; where it is not, every doc counts as a
    candidate and the cost only grows with k. The bound falls steeply with
    T, so the loop ends a few steps past radius + 1: at 18 on the
    benchmark's m=256, r=15 index, after 4 of the 17 steps to s.

    The plan runs in plain Python over the at most s lengths: a numpy
    routine that the query path does not already call faults 128-196 KiB
    of its machine code into the serving process on first use.
    """
    s = len(lengths)
    if s - radius == 1 or not postings_bytes:
        return list(range(s))
    order = sorted(range(s), key=lengths.__getitem__)
    nbytes = sum(lengths[t] for t in order[:radius])
    k, best = s, math.inf
    for count in range(radius + 1, s + 1):
        nbytes += lengths[order[count - 1]]
        lam = nbytes * s / postings_bytes
        t = count - radius
        # the log of the Poisson bound, capped at 0: every doc a candidate
        log_p = min(t * math.log(lam) - math.lgamma(t + 1), 0.0) if lam else -math.inf
        cost = lam + CANDIDATE_COST_IDS * math.exp(log_p)
        if cost <= best:
            k, best = count, cost
        elif log_p < 0:
            break
    return sorted(order[:k])


def _postings_fault(group, chunks) -> QueryError:
    """The error naming the first shard whose postings bytes do not decode
    on their own, for a group whose joined bytes failed to decode."""
    for shard, chunk in zip(group, chunks):
        try:
            varint.decode_with_ends(np.frombuffer(chunk, dtype=np.uint8), np.uint32)
        except varint.VarintError as exc:
            return QueryError(f"corrupt postings in shard {shard.shard_index}: {exc}")
    names = ", ".join(str(shard.shard_index) for shard in group)
    return QueryError(f"corrupt postings in shards {names}")


def _decode_group(group, chunks, data, lens) -> tuple:
    """Decode the postings bytes of a group of two or more shards, joined
    as data, into ids offset from the group's first DocId: bases[k] + j for
    local id j of group[k]; lens[k] lists the byte lengths of the lists
    read from group[k]. Returns the ids and the indexes of the shards whose
    ids fall outside [bases[k], bases[k + 1])."""
    bases = [0, *itertools.accumulate(shard.doc_count for shard in group)]
    # a shard's bytes that end inside a varint would run on into the next
    # shard's lists
    if any(chunk[-1] >= 128 for chunk in chunks if chunk):
        raise _postings_fault(group, chunks)
    # the shards that have lists, the index of each one's first list, and
    # the step from the base of the one before it (base 0 for the first)
    owners = [k for k, shard_lens in enumerate(lens) if shard_lens]
    heads = list(itertools.accumulate([len(lens[k]) for k in owners[:-1]], initial=0))
    steps = [bases[k] - bases[j] for j, k in zip([0] + owners, owners)]
    all_lens = np.array(list(itertools.chain.from_iterable(lens)), dtype=np.int64)
    try:
        ids, firsts = _decode_postings(data, all_lens, heads, steps)
    except varint.VarintError as exc:
        raise _postings_fault(group, chunks) from exc
    if not owners:
        return ids, []
    segments = firsts[heads]
    lo = np.array([bases[k] for k in owners], dtype=np.uint32)
    hi = np.array([bases[k + 1] for k in owners], dtype=np.uint32)
    bad = (np.minimum.reduceat(ids, segments) < lo) | (np.maximum.reduceat(ids, segments) >= hi)
    return ids, [owners[i] for i in np.flatnonzero(bad).tolist()]


def candidate_filter(index: SubCodeIndexManifest, spec: QuerySpec) -> np.ndarray:
    """Pigeonhole candidate generation over the whole index.

    Looks up each shard's postings list for each of the query's s sub-code
    terms, reads only the k shortest of them that `_plan` picks, and keeps
    docs appearing in at least k - radius of those. Absent terms count as
    empty lists. Returns the surviving DocIds as a sorted, unique uint32
    array, the input verify takes. Requires s - radius >= 1; callers bypass
    the filter entirely otherwise. Raises QueryError on a closed index.
    """
    if index.geometry.subcode_count - spec.radius < 1:
        raise ValueError("candidate_filter requires s - radius >= 1; bypass instead")
    sw = index.geometry.sub_width
    values = spec.query.words.view(f"<u{sw // 8}")
    keys = _term_keys(np.arange(values.size), values, sw)
    parts = []
    index._enter("candidate_filter", spec)
    try:
        # one group at a time, each expected to decode at most
        # FILTER_GROUP_IDS ids; on CPython a thread per group would only add
        # lock traffic around these small kernels
        for group in index._groups:
            found = [shard._terms.lookup(keys) for shard in group]
            offs = [shard_offs.tolist() for shard_offs, _ in found]
            lens = [shard_lens.tolist() for _, shard_lens in found]
            # a group counts in one pass with one threshold, so it takes
            # one plan, on each term's lengths summed over its shards
            terms = _plan(
                lens[0] if len(group) == 1 else [sum(ls) for ls in zip(*lens)],
                spec.radius,
                sum(int(shard._terms.ends[-1]) for shard in group),
            )
            threshold = len(terms) - spec.radius
            chunks = []
            read_lens = []
            for shard, shard_offs, shard_lens in zip(group, offs, lens):
                # offsets ascend by construction: the build lays lists out
                # in (position, value) order and the plan keeps term order
                read = [t for t in terms if shard_lens[t]]
                read_lens.append([shard_lens[t] for t in read])
                chunks.append(_pread_spans(
                    shard, shard._pst_fd, [shard_offs[t] for t in read], read_lens[-1],
                    "postings",
                ))
            data = np.frombuffer(b"".join(chunks), dtype=np.uint8)
            # _decode_group gives the same ids and errors for one shard, but
            # its step and per-shard range check cost 6% of a 5-shard m=256,
            # sw=8 r=15 query on a 2-vCPU VM, whose shards are a group each
            if len(group) == 1:
                try:
                    ids, _ = _decode_postings(
                        data, np.array(read_lens[0], dtype=np.int64), [], [])
                except varint.VarintError as exc:
                    raise _postings_fault(group, chunks) from exc
                bad = [0] if ids.size and int(ids.max()) >= group[0].doc_count else []
            else:
                ids, bad = _decode_group(group, chunks, data, read_lens)
            if bad:
                raise QueryError(
                    f"corrupt postings in shard {group[bad[0]].shard_index}: "
                    "doc id out of range"
                )
            # each list holds a doc at most once, so a doc in L lists sorts
            # into a run of L equal ids; when L >= threshold, L - threshold
            # + 1 of them equal the id threshold - 1 places on
            ids.sort()
            span = max(ids.size - threshold + 1, 0)
            hits = ids if threshold == 1 else ids[:span][ids[:span] == ids[threshold - 1 :]]
            first = np.ones(hits.size, dtype=bool)
            np.not_equal(hits[1:], hits[:-1], out=first[1:])
            # the groups' DocId ranges ascend, so the parts join sorted
            parts.append(hits[first] + group[0].start)
    finally:
        index._leave()
    return _joined(parts)


def _read_forward_rows(shard, words, firsts, counts):
    """Read the forward rows [first, first + count) of each run, in order.

    One pread per run, so only the requested rows are read. The reads are
    joined back to back and returned as a read-only (rows, words) view.
    """
    code_bytes = words * 8
    data = _pread_spans(
        shard, shard._fwd_fd,
        [first * code_bytes for first in firsts], [n * code_bytes for n in counts],
        "forward",
    )
    return np.frombuffer(data, dtype="<u8").reshape(-1, words)


def _forward_blocks(shard, words, first, end):
    """Yield (base, rows) for the forward rows [first, end), one pread of
    at most SCAN_BLOCK_BYTES per block; rows[i] is row base + i.

    The caller drops each block before it asks for the next, and this
    generator keeps none it has yielded: two blocks plus the kernel's
    temporaries outgrow glibc's heap trim threshold, so the heap would
    shrink and fault its pages back in on every block.
    """
    rows_per_block = max(1, SCAN_BLOCK_BYTES // (words * 8))
    for base in range(first, end, rows_per_block):
        n = min(rows_per_block, end - base)
        yield base, _read_forward_rows(shard, words, [base], [n])


def _candidate_rows(shard, words, local_ids, out):
    """Write the codes of sorted unique local ids, at least one and at most
    SCAN_BLOCK_BYTES of codes, into out, a (ids, words) array.

    Ids whose runs of consecutive ids lie far apart are read run by run.
    Dense ids stream the rows they span block by block instead and pick
    their own rows out of each block. A block may hold none of them; the
    rows such gaps add to the read are within the DENSE_RUN_GAP_BYTES per
    run that made the ids dense.
    """
    code_bytes = words * 8
    new_run = np.ones(local_ids.size, dtype=bool)
    np.not_equal(np.diff(local_ids), 1, out=new_run[1:])
    first, end = int(local_ids[0]), int(local_ids[-1]) + 1
    runs = np.count_nonzero(new_run)
    if runs * DENSE_RUN_GAP_BYTES < (end - first) * code_bytes:
        run_starts = np.flatnonzero(new_run)
        run_counts = np.diff(np.append(run_starts, local_ids.size))
        out[...] = _read_forward_rows(
            shard, words, local_ids[run_starts].tolist(), run_counts.tolist()
        )
        return
    # bounds typed like the ids: Python int bounds make searchsorted cast
    # every id to int64 on every block, 6 us a block of 25k uint32 ids on a
    # 2-vCPU VM. At least uint32, which holds the row after any id.
    bound_type = np.promote_types(local_ids.dtype, np.uint32)
    for base, block in _forward_blocks(shard, words, first, end):
        bounds = np.array((base, base + block.shape[0]), dtype=bound_type)
        b_lo, b_hi = np.searchsorted(local_ids, bounds)
        np.take(block, local_ids[b_lo:b_hi] - base, axis=0, out=out[b_lo:b_hi])
        del block  # see _forward_blocks


def _joined(parts: list) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _neighbors(hit_ids: list, hit_dists: list) -> NeighborSet:
    """One NeighborSet from parts of ascending hit ids, each part's ids
    above the last, and their distances."""
    if not hit_ids:
        return NeighborSet.empty()
    return NeighborSet(np.concatenate(hit_ids), np.concatenate(hit_dists))


def verify(index: SubCodeIndexManifest, doc_ids: np.ndarray, spec: QuerySpec) -> NeighborSet:
    """Exact-distance verification of strictly increasing DocIds below the
    dataset count, such as candidate_filter returns; other ids raise
    ValueError, and a closed index QueryError.

    Reads their codes from the forward files, one pread per run of
    consecutive ids unless the runs are dense, in batches of at most
    SCAN_BLOCK_BYTES of codes, one kernel call per batch whatever shards it
    spans, so a permissive filter cannot blow up resident memory.
    """
    if doc_ids.size and not (doc_ids[0] >= 0 and doc_ids[-1] < index.dataset_count
                             and np.all(doc_ids[1:] > doc_ids[:-1])):
        raise ValueError(f"doc ids must increase strictly within [0, {index.dataset_count})")
    words = spec.query.words.size
    rows_per_block = max(1, SCAN_BLOCK_BYTES // (words * 8))
    # typed like the ids, as in _candidate_rows: int64 bounds cast the whole
    # batch to int64, 60 us a query at 125k candidates
    bounds = np.array(
        [shard.start for shard in index.shards] + [index.dataset_count],
        dtype=np.promote_types(doc_ids.dtype, np.uint32),
    )
    hit_ids = []
    hit_dists = []
    index._enter("verify", spec)
    try:
        for lo in range(0, doc_ids.size, rows_per_block):
            batch = doc_ids[lo : lo + rows_per_block]
            cuts = np.searchsorted(batch, bounds).tolist()
            # each shard writes its rows straight into its slice of the batch
            codes = np.empty((batch.size, words), dtype=np.uint64)
            for shard, a, b in zip(index.shards, cuts, cuts[1:]):
                if a < b:
                    _candidate_rows(shard, words, batch[a:b] - shard.start, codes[a:b])
            dist = hamming_distances(codes, spec.query.words)
            keep = np.flatnonzero(dist <= spec.radius)
            if keep.size:
                hit_ids.append(batch[keep])
                hit_dists.append(dist[keep])
    finally:
        index._leave()
    return _neighbors(hit_ids, hit_dists)


def _scan_shard(shard: ShardDescriptor, spec: QuerySpec) -> NeighborSet:
    """Bypass path: stream the whole forward file in bounded blocks."""
    words = spec.query.words.size
    hit_ids = []
    hit_dists = []
    for base, block in _forward_blocks(shard, words, 0, shard.doc_count):
        dist = hamming_distances(block, spec.query.words)
        del block  # see _forward_blocks
        hits = np.flatnonzero(dist <= spec.radius)
        if hits.size:
            hit_ids.append(hits + (shard.start + base))
            hit_dists.append(dist[hits])
    return _neighbors(hit_ids, hit_dists)


def subcode_range_search(manifest: SubCodeIndexManifest, spec: QuerySpec) -> NeighborSet:
    """Exact radius query: verify(manifest, candidate_filter(manifest,
    spec), spec), or a streamed scan of every shard when s - radius <= 0."""
    if not filter_bypassed(manifest.geometry, spec.radius):
        return verify(manifest, candidate_filter(manifest, spec), spec)
    manifest._enter("query", spec)
    try:
        parts = [_scan_shard(shard, spec) for shard in manifest.shards]
    finally:
        manifest._leave()
    return _neighbors([p.ids for p in parts], [p.distances for p in parts])


def read_code(manifest: SubCodeIndexManifest, doc_id: int) -> BinaryCode:
    """Fetch one code by DocId from the forward files."""
    if not 0 <= doc_id < manifest.dataset_count:
        raise ValueError(f"doc id {doc_id} out of range [0, {manifest.dataset_count})")
    # shard 0 holds ceil(n / S) docs, the stride of the shards' starts
    shard = manifest.shards[doc_id // manifest.shards[0].doc_count]
    words = manifest.geometry.width_bits // 64
    manifest._enter(f"read of doc {doc_id}")
    try:
        row = _read_forward_rows(shard, words, [doc_id - shard.start], [1])[0]
    finally:
        manifest._leave()
    return BinaryCode(manifest.geometry.width_bits, row.copy())
