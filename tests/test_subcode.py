import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamsearch import (
    BinaryCode,
    CodeDataset,
    IndexOpenError,
    NeighborSet,
    QueryError,
    QuerySpec,
    candidate_filter,
    filter_bypassed,
    flat_build,
    flat_range_search,
    perturb,
    plan_geometry,
    range_search_oracle,
    read_code,
    subcode_build,
    subcode_open,
    subcode_range_search,
    verify,
)
from hamsearch import subcode
from hamsearch.subcode import (
    COMPLETE_NAME,
    MANIFEST_NAME,
    TERM_DTYPE,
    CandidateSet,
    _shard_doc_count,
)

from conftest import random_dataset


# --- geometry ---------------------------------------------------------------

def test_plan_geometry_arithmetic():
    assert plan_geometry(64, 16).subcode_count == 4
    assert plan_geometry(4096, 16).subcode_count == 256
    assert plan_geometry(256, 64).subcode_count == 4


def test_plan_geometry_rejects_bad_widths():
    with pytest.raises(ValueError):
        plan_geometry(64, 12)
    with pytest.raises(ValueError):
        plan_geometry(64, 128)


def test_shard_doc_counts_balanced():
    for count in (0, 1, 7, 100, 101, 104):
        sizes = [_shard_doc_count(count, k, 5) for k in range(5)]
        assert sum(sizes) == count
        assert max(sizes) - min(sizes) <= 1


# --- build ------------------------------------------------------------------

def test_build_empty_dataset(tmp_path):
    ds = CodeDataset(64, np.empty((0, 1), dtype=np.uint64))
    manifest = subcode_build(ds, plan_geometry(64, 16), 5, tmp_path / "idx")
    result = subcode_range_search(manifest, QuerySpec(BinaryCode.zeros(64), 32))
    assert len(result) == 0
    manifest.close()


def test_build_identical_codes_single_postings_list(tmp_path):
    codes = np.tile(np.array([[0xDEADBEEF]], dtype=np.uint64), (10, 1))
    ds = CodeDataset(64, codes)
    manifest = subcode_build(ds, plan_geometry(64, 16), 3, tmp_path / "idx")
    # each present (position, value) term lists every doc of its shard
    for shard in manifest.shards:
        records = np.fromfile(shard.term_table_path, dtype=TERM_DTYPE)
        assert records.size == 4  # one value per position
        assert all(records["freq"] == shard.doc_count)
    result = subcode_range_search(manifest, QuerySpec(ds.code(0), 0))
    assert len(result) == 10
    manifest.close()


def test_postings_partition_property(tmp_path):
    # per shard and position, postings lengths over all values sum to the
    # shard's doc count: every doc has exactly one value per position
    ds = random_dataset(100_000, 64, seed=40)
    geometry = plan_geometry(64, 16)
    manifest = subcode_build(ds, geometry, 5, tmp_path / "idx")
    for shard in manifest.shards:
        records = np.fromfile(shard.term_table_path, dtype=TERM_DTYPE)
        for p in range(geometry.subcode_count):
            at_p = records[records["position"] == p]
            assert int(at_p["freq"].sum()) == shard.doc_count
        # term table sorted by (position, value)
        keys = list(zip(records["position"].tolist(), records["value"].tolist()))
        assert keys == sorted(keys)
    manifest.close()


def test_build_is_deterministic(tmp_path):
    ds = random_dataset(2000, 128, seed=41)
    geometry = plan_geometry(128, 8)
    a = subcode_build(ds, geometry, 4, tmp_path / "a")
    b = subcode_build(ds, geometry, 4, tmp_path / "b")
    a.close()
    b.close()
    for name in [MANIFEST_NAME] + [
        f"shard-{k}.{ext}" for k in range(4) for ext in ("fwd", "trm", "pst")
    ]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_build_rejects_mismatched_geometry(tmp_path):
    ds = random_dataset(10, 64, seed=42)
    with pytest.raises(ValueError):
        subcode_build(ds, plan_geometry(128, 16), 2, tmp_path / "idx")


def test_build_into_unwritable_location(tmp_path):
    from hamsearch import IndexBuildError

    blocker = tmp_path / "file"
    blocker.write_bytes(b"x")
    ds = random_dataset(10, 64, seed=42)
    with pytest.raises(IndexBuildError, match="build failed"):
        subcode_build(ds, plan_geometry(64, 16), 2, blocker / "idx")


def test_corrupt_postings_detected_at_query(tmp_path):
    from hamsearch import QueryError

    ds = random_dataset(500, 64, seed=49)
    geometry = plan_geometry(64, 8)
    subcode_build(ds, geometry, 2, tmp_path / "idx").close()
    pst = tmp_path / "idx" / "shard-0.pst"
    raw = bytearray(pst.read_bytes())
    raw[: len(raw)] = b"\x80" * len(raw)  # endless continuation bytes
    pst.write_bytes(bytes(raw))
    manifest = subcode_open(tmp_path / "idx")
    with pytest.raises(QueryError, match="shard 0"):
        subcode_range_search(manifest, QuerySpec(ds.code(0), 1))
    manifest.close()


# --- open -------------------------------------------------------------------

def test_open_reopen_equivalence(tmp_path):
    ds = random_dataset(3000, 64, seed=43)
    built = subcode_build(ds, plan_geometry(64, 16), 5, tmp_path / "idx")
    reopened = subcode_open(tmp_path / "idx")
    rng = np.random.default_rng(44)
    for qid in rng.choice(3000, size=10, replace=False):
        for r in (0, 3, 11):
            spec = QuerySpec(ds.code(int(qid)), r)
            assert subcode_range_search(built, spec) == subcode_range_search(reopened, spec)
    built.close()
    reopened.close()


def test_open_empty_directory_missing_manifest(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(IndexOpenError, match="missing manifest"):
        subcode_open(tmp_path / "empty")


def test_open_missing_postings_file_named(tmp_path):
    ds = random_dataset(100, 64, seed=45)
    subcode_build(ds, plan_geometry(64, 16), 3, tmp_path / "idx").close()
    (tmp_path / "idx" / "shard-1.pst").unlink()
    with pytest.raises(IndexOpenError, match="shard-1.pst"):
        subcode_open(tmp_path / "idx")


def test_open_without_complete_marker(tmp_path):
    ds = random_dataset(100, 64, seed=46)
    subcode_build(ds, plan_geometry(64, 16), 2, tmp_path / "idx").close()
    (tmp_path / "idx" / COMPLETE_NAME).unlink()
    with pytest.raises(IndexOpenError, match="COMPLETE"):
        subcode_open(tmp_path / "idx")


def test_open_corrupt_magic(tmp_path):
    ds = random_dataset(100, 64, seed=47)
    subcode_build(ds, plan_geometry(64, 16), 2, tmp_path / "idx").close()
    manifest_path = tmp_path / "idx" / MANIFEST_NAME
    raw = bytearray(manifest_path.read_bytes())
    raw[0] = ord("X")
    manifest_path.write_bytes(bytes(raw))
    with pytest.raises(IndexOpenError, match="magic"):
        subcode_open(tmp_path / "idx")


def test_open_truncated_forward_file(tmp_path):
    ds = random_dataset(100, 64, seed=48)
    subcode_build(ds, plan_geometry(64, 16), 2, tmp_path / "idx").close()
    fwd = tmp_path / "idx" / "shard-0.fwd"
    fwd.write_bytes(fwd.read_bytes()[:-8])
    with pytest.raises(IndexOpenError, match="truncated forward"):
        subcode_open(tmp_path / "idx")


# --- candidate filter ---------------------------------------------------------

def test_filter_radius_zero_finds_exact_duplicates(tmp_path):
    codes = np.vstack(
        [
            np.full((3, 1), 0x1234, dtype=np.uint64),
            np.arange(1, 8, dtype=np.uint64).reshape(-1, 1) << np.uint64(32),
        ]
    )
    ds = CodeDataset(64, codes)
    geometry = plan_geometry(64, 16)
    manifest = subcode_build(ds, geometry, 2, tmp_path / "idx")
    spec = QuerySpec(ds.code(0), 0)
    total = 0
    for shard in manifest.shards:
        cands = candidate_filter(shard, geometry, spec)
        # threshold == s: only docs matching every sub-code survive
        assert all(cands.match_counts == geometry.subcode_count)
        total += len(cands)
    assert total == 3
    manifest.close()


def test_filter_one_flip_survives_threshold():
    # a doc differing from the query in exactly 1 bit shares >= s-1 sub-codes,
    # so at radius 1 the pigeonhole threshold must keep it
    base = BinaryCode.zeros(64)
    flipped = perturb(base, 1, seed=7)
    ds = CodeDataset(64, np.vstack([flipped.words]))
    geometry = plan_geometry(64, 16)
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        manifest = subcode_build(ds, geometry, 1, tmp)
        cands = candidate_filter(manifest.shards[0], geometry, QuerySpec(base, 1))
        assert cands.local_ids.tolist() == [0]
        assert cands.match_counts[0] >= geometry.subcode_count - 1
        manifest.close()


def test_filter_requires_nonvacuous_threshold(tmp_path):
    ds = random_dataset(50, 64, seed=50)
    geometry = plan_geometry(64, 16)
    manifest = subcode_build(ds, geometry, 2, tmp_path / "idx")
    with pytest.raises(ValueError, match="bypass"):
        candidate_filter(manifest.shards[0], geometry, QuerySpec(ds.code(0), 4))
    manifest.close()


def test_filter_no_false_negatives_table_radii(tmp_path):
    ds = random_dataset(10_000, 64, seed=51)
    geometry = plan_geometry(64, 16)
    manifest = subcode_build(ds, geometry, 5, tmp_path / "idx")
    rng = np.random.default_rng(52)
    for qid in rng.choice(10_000, size=20, replace=False):
        q = ds.code(int(qid))
        for r in (3,):  # s=4: only r=3 keeps the filter active
            truth = range_search_oracle(ds, QuerySpec(q, r))
            survivors = set()
            for shard in manifest.shards:
                cands = candidate_filter(shard, geometry, QuerySpec(q, r))
                survivors |= set(shard.local_to_global(cands.local_ids).tolist())
            assert set(truth.ids.tolist()) <= survivors
    manifest.close()


def test_filter_monotone_in_radius(tmp_path):
    ds = random_dataset(4000, 64, seed=53, cluster_count=10, flip_probability=0.08)
    geometry = plan_geometry(64, 8)
    manifest = subcode_build(ds, geometry, 3, tmp_path / "idx")
    q = ds.code(17)
    for shard in manifest.shards:
        previous = set()
        for r in range(0, 8):  # s=8: all these keep the filter active
            cands = candidate_filter(shard, geometry, QuerySpec(q, r))
            current = set(cands.local_ids.tolist())
            assert previous <= current
            previous = current
    manifest.close()


def test_filter_absent_term_is_empty_list(tmp_path):
    ds = CodeDataset(64, np.zeros((5, 1), dtype=np.uint64))
    geometry = plan_geometry(64, 16)
    manifest = subcode_build(ds, geometry, 1, tmp_path / "idx")
    # query whose sub-codes appear nowhere: no candidates, not an error
    cands = candidate_filter(manifest.shards[0], geometry, QuerySpec(BinaryCode.ones(64), 1))
    assert len(cands) == 0
    manifest.close()


# --- verify -------------------------------------------------------------------

def test_verify_empty_candidates(tmp_path):
    ds = random_dataset(100, 64, seed=54)
    geometry = plan_geometry(64, 16)
    manifest = subcode_build(ds, geometry, 2, tmp_path / "idx")
    result = verify(manifest.shards[0], CandidateSet.empty(), QuerySpec(ds.code(0), 5))
    assert len(result) == 0
    manifest.close()


def test_verify_all_candidates_equals_oracle_restricted_to_shard(tmp_path):
    ds = random_dataset(1000, 128, seed=55)
    geometry = plan_geometry(128, 16)
    manifest = subcode_build(ds, geometry, 4, tmp_path / "idx")
    q = ds.code(3)
    for r in (10, 40, 128):
        truth = range_search_oracle(ds, QuerySpec(q, r)).as_set()
        for shard in manifest.shards:
            everyone = CandidateSet(
                np.arange(shard.doc_count, dtype=np.int64),
                np.zeros(shard.doc_count, dtype=np.int64),
            )
            got = verify(shard, everyone, QuerySpec(q, r)).as_set()
            expected = {
                (i, d) for i, d in truth if i % manifest.shard_count == shard.shard_index
            }
            assert got == expected
    manifest.close()


def test_verify_duplicate_free_r0(tmp_path):
    ds = random_dataset(2000, 64, seed=56)
    assert len(np.unique(ds.codes, axis=0)) == 2000
    geometry = plan_geometry(64, 16)
    manifest = subcode_build(ds, geometry, 5, tmp_path / "idx")
    result = subcode_range_search(manifest, QuerySpec(ds.code(99), 0))
    assert result.as_set() == {(99, 0)}
    manifest.close()


def test_verify_reads_sparse_runs_exactly(tmp_path, monkeypatch):
    ds = random_dataset(8000, 64, seed=63)
    manifest = subcode_build(ds, plan_geometry(64, 16), 2, tmp_path / "idx")
    shard = manifest.shards[1]
    reads = []
    real_pread = os.pread

    def recording_pread(fd, length, offset):
        if fd == shard._fwd_fd:
            reads.append(length)
        return real_pread(fd, length, offset)

    monkeypatch.setattr(os, "pread", recording_pread)
    spec = QuerySpec(ds.code(9), 64)
    # three runs of consecutive ids, far apart: only their rows are read
    sparse = np.array([3, 4, 5, 1500, 3000, 3001], dtype=np.int64)
    got = verify(shard, CandidateSet(sparse, np.zeros_like(sparse)), spec)
    assert sum(reads) == sparse.size * 8
    assert len(reads) == 3
    assert np.array_equal(got.ids, shard.local_to_global(sparse))
    # runs a few rows apart: one read of the rows they span
    reads.clear()
    dense = np.array([3, 4, 5, 100, 250, 251], dtype=np.int64)
    got = verify(shard, CandidateSet(dense, np.zeros_like(dense)), spec)
    assert reads == [(251 - 3 + 1) * 8]
    assert np.array_equal(got.ids, shard.local_to_global(dense))
    manifest.close()


def test_truncated_forward_file_raises_query_error(tmp_path):
    ds = random_dataset(1000, 64, seed=64)
    manifest = subcode_build(ds, plan_geometry(64, 16), 2, tmp_path / "idx")
    shard = manifest.shards[0]
    os.truncate(shard.forward_path, shard.doc_count * 8 // 2)
    # the last doc of shard 0 now lies past the end of its forward file
    last = int(shard.local_to_global(np.int64(shard.doc_count - 1)))
    for radius in (0, 64):  # filter + verify, then the bypass scan
        with pytest.raises(QueryError, match="shard 0"):
            subcode_range_search(manifest, QuerySpec(ds.code(last), radius))
    manifest.close()


@pytest.mark.parametrize(
    "call",
    [
        lambda m, q: subcode_range_search(m, QuerySpec(q, 3)),  # filter + verify
        lambda m, q: subcode_range_search(m, QuerySpec(q, 64)),  # bypass scan
        lambda m, q: read_code(m, 7),
    ],
    ids=["filter", "bypass_scan", "read_code"],
)
def test_closed_index_raises_query_error(tmp_path, call):
    ds = random_dataset(200, 64, seed=66)
    manifest = subcode_build(ds, plan_geometry(64, 8), 2, tmp_path / "idx")
    manifest.close()
    with pytest.raises(QueryError, match="closed"):
        call(manifest, ds.code(7))


# --- full queries ---------------------------------------------------------------

def test_bypass_full_radius(tmp_path):
    ds = random_dataset(500, 64, seed=57)
    geometry = plan_geometry(64, 16)
    manifest = subcode_build(ds, geometry, 5, tmp_path / "idx")
    assert filter_bypassed(geometry, 64)
    result = subcode_range_search(manifest, QuerySpec(ds.code(0), 64))
    assert len(result) == 500
    manifest.close()


def test_cross_backend_equivalence_m256(tmp_path):
    ds = random_dataset(5000, 256, seed=58)
    geometry = plan_geometry(256, 16)
    manifest = subcode_build(ds, geometry, 5, tmp_path / "idx")
    index = flat_build(ds, workers=4)
    rng = np.random.default_rng(59)
    for qid in rng.choice(5000, size=25, replace=False):
        q = ds.code(int(qid))
        for r in (15, 31, 47):
            spec = QuerySpec(q, r)
            assert subcode_range_search(manifest, spec) == flat_range_search(index, spec)
    manifest.close()


def test_bypass_boundary_paths_agree(tmp_path):
    ds = random_dataset(3000, 64, seed=60)
    geometry = plan_geometry(64, 8)  # s = 8
    manifest = subcode_build(ds, geometry, 5, tmp_path / "idx")
    s = geometry.subcode_count
    assert not filter_bypassed(geometry, s - 1)
    assert filter_bypassed(geometry, s)
    for qid in (0, 1234, 2999):
        q = ds.code(qid)
        below = subcode_range_search(manifest, QuerySpec(q, s - 1))
        above = subcode_range_search(manifest, QuerySpec(q, s))
        truth_below = range_search_oracle(ds, QuerySpec(q, s - 1))
        truth_above = range_search_oracle(ds, QuerySpec(q, s))
        assert below == truth_below
        assert above == truth_above
    manifest.close()


def test_read_code_roundtrip(tmp_path):
    ds = random_dataset(100, 128, seed=61)
    manifest = subcode_build(ds, plan_geometry(128, 16), 3, tmp_path / "idx")
    for doc_id in (0, 1, 57, 99):
        assert read_code(manifest, doc_id) == ds.code(doc_id)
    with pytest.raises(ValueError):
        read_code(manifest, 100)
    manifest.close()


def test_width_mismatch_query(tmp_path):
    ds = random_dataset(10, 64, seed=62)
    manifest = subcode_build(ds, plan_geometry(64, 16), 2, tmp_path / "idx")
    with pytest.raises(ValueError):
        subcode_range_search(manifest, QuerySpec(BinaryCode.zeros(128), 3))
    manifest.close()


# --- properties of the forward reads -------------------------------------------

@pytest.fixture(scope="module")
def small_indexes(tmp_path_factory):
    built = {}
    for width, sub_width in ((64, 16), (256, 8)):
        ds = random_dataset(301, width, seed=65 + width)
        directory = tmp_path_factory.mktemp(f"m{width}")
        built[width] = (ds, subcode_build(ds, plan_geometry(width, sub_width), 3, directory))
    yield built
    for _, manifest in built.values():
        manifest.close()


def _local_id_sets(n):
    """Sorted unique local ids: the full range, or a union of runs (which
    may be empty, single ids, or runs that touch)."""
    runs = st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, 12)), max_size=12)
    return st.one_of(
        st.just(np.arange(n, dtype=np.int64)),
        runs.map(
            lambda rs: np.unique(
                np.array([i for a, k in rs for i in range(a, min(a + k, n))], dtype=np.int64)
            )
        ),
    )


def _queries(ds):
    words = ds.width_bits // 64
    random_code = st.lists(
        st.integers(0, 2**64 - 1), min_size=words, max_size=words
    ).map(lambda w: BinaryCode(ds.width_bits, np.array(w, dtype=np.uint64)))
    return st.one_of(st.integers(0, ds.count - 1).map(ds.code), random_code)


@pytest.mark.parametrize("width", [64, 256])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_verify_equals_oracle_on_candidate_ids(small_indexes, width, data):
    ds, manifest = small_indexes[width]
    shard = data.draw(st.sampled_from(manifest.shards))
    local_ids = data.draw(_local_id_sets(shard.doc_count))
    spec = QuerySpec(data.draw(_queries(ds)), data.draw(st.integers(0, width)))
    # blocks of a few rows, so batch boundaries split runs; the dense-run
    # gap picks run-by-run reads, streamed spans, or either per batch
    block_rows = data.draw(st.integers(1, 9))
    dense_gap = data.draw(st.sampled_from([0, 4 * width // 8, 1 << 40]))
    with mock.patch.object(subcode, "SCAN_BLOCK_BYTES", block_rows * width // 8), \
            mock.patch.object(subcode, "DENSE_RUN_GAP_BYTES", dense_gap):
        got = verify(shard, CandidateSet(local_ids, np.zeros_like(local_ids)), spec)
    truth = range_search_oracle(ds, spec)
    wanted = np.isin(truth.ids, shard.local_to_global(local_ids))
    assert got == NeighborSet(truth.ids[wanted], truth.distances[wanted])


@pytest.mark.parametrize("width", [64, 256])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_bypass_scan_equals_oracle(small_indexes, width, data):
    ds, manifest = small_indexes[width]
    s = manifest.geometry.subcode_count
    spec = QuerySpec(data.draw(_queries(ds)), data.draw(st.integers(s, width)))
    assert filter_bypassed(manifest.geometry, spec.radius)
    block_rows = data.draw(st.integers(1, 40))
    with mock.patch.object(subcode, "SCAN_BLOCK_BYTES", block_rows * width // 8):
        got = subcode_range_search(manifest, spec)
    assert got == range_search_oracle(ds, spec)
