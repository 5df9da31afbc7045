import errno
import functools
import os
import sys
import tempfile
import threading
import time
from pathlib import Path
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
from hamsearch import subcode, varint
from hamsearch.subcode import (
    COMPLETE_NAME,
    MANIFEST_NAME,
    POSTINGS_NAME,
    TERMS_NAME,
    SubCodeGeometry,
    _shard_ranges,
)

from conftest import filter_plans, random_dataset


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


@pytest.mark.parametrize("width", [0, 32, -64])
def test_plan_geometry_rejects_widths_not_multiple_of_64(width):
    with pytest.raises(ValueError, match="multiple of 64"):
        plan_geometry(width, 8)


def test_shard_ranges_tile_the_doc_ids_in_order(tmp_path):
    for count in (0, 1, 6, 7, 100, 101, 104):
        for shards in (1, 2, 5, 7):
            ranges = _shard_ranges(count, shards)
            per_shard = -(-count // shards)
            assert len(ranges) == shards
            assert [start for start, _ in ranges] == [
                min(k * per_shard, count) for k in range(shards)]
            assert sum(n for _, n in ranges) == count
            # each range starts where the one before it ends
            assert all(a + n == b for (a, n), (b, _) in zip(ranges, ranges[1:]))
    # empty trailing shards
    assert [n for _, n in _shard_ranges(6, 5)] == [2, 2, 2, 0, 0]
    ds = random_dataset(6, 64, seed=78)
    with subcode_build(ds, plan_geometry(64, 16), 5, tmp_path / "idx") as manifest:
        assert [(sh.start, sh.doc_count) for sh in manifest.shards] == _shard_ranges(6, 5)
        for doc_id in range(6):
            assert read_code(manifest, doc_id) == ds.code(doc_id)
        for r in (0, 3, 4, 64):
            spec = QuerySpec(ds.code(5), r)
            assert subcode_range_search(manifest, spec) == range_search_oracle(ds, spec)


# --- term table files -----------------------------------------------------------

def _key_dtype(sub_width):
    return np.dtype([("position", ">u2"), ("value", f">u{sub_width // 8}")])


def _read_terms(trm, sub_width):
    """A term table file's two blocks: the keys as (position, value)
    records and the postings list byte lengths."""
    raw = trm.read_bytes()
    key_dtype = _key_dtype(sub_width)
    n = len(raw) // (key_dtype.itemsize + 4)
    keys = np.frombuffer(raw, key_dtype, count=n).copy()
    lengths = np.frombuffer(raw, "<u4", count=n, offset=n * key_dtype.itemsize).copy()
    return keys, lengths


def _edit_terms(directory, sub_width, edit):
    trm = directory / TERMS_NAME
    keys, lengths = _read_terms(trm, sub_width)
    edit(keys, lengths)
    trm.write_bytes(keys.tobytes() + lengths.tobytes())


def _postings_lists(directory, sub_width):
    """(keys, the DocIds of each term's postings list), decoded from the
    index's files."""
    keys, lengths = _read_terms(directory / TERMS_NAME, sub_width)
    data = np.fromfile(directory / POSTINGS_NAME, dtype=np.uint8)
    assert int(lengths.sum()) == data.size
    lists = np.split(data, np.cumsum(lengths)[:-1]) if keys.size else []
    return keys, [np.cumsum(varint.decode_with_ends(part)[0]) for part in lists]


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
    # each present (position, value) term lists every doc of every shard
    keys, lists = _postings_lists(manifest.directory, 16)
    assert keys.size == 4  # one value per position
    for ids in lists:
        assert ids.tolist() == list(range(10))
    result = subcode_range_search(manifest, QuerySpec(ds.code(0), 0))
    assert len(result) == 10
    manifest.close()


def test_postings_partition_property(tmp_path):
    # per position, the decoded postings lists over all values partition
    # the index's docs: every doc has exactly one value per position
    ds = random_dataset(100_000, 64, seed=40)
    geometry = plan_geometry(64, 16)
    manifest = subcode_build(ds, geometry, 5, tmp_path / "idx")
    keys, lists = _postings_lists(manifest.directory, 16)
    for p in range(geometry.subcode_count):
        at_p = [ids for ids, pos in zip(lists, keys["position"]) if pos == p]
        ids = np.concatenate(at_p)
        assert np.array_equal(np.sort(ids), np.arange(ds.count))
        # and each list holds the docs whose value it names, ascending
        sizes = [list_ids.size for list_ids in at_p]
        named = np.repeat(keys["value"][keys["position"] == p], sizes)
        assert np.array_equal(ds.codes.view("<u2")[ids, p], named)
        rises = np.diff(ids.astype(np.int64)) > 0
        assert np.all(rises | (np.diff(named.astype(np.int64)) != 0))
    # term table sorted by (position, value)
    pairs = list(zip(keys["position"].tolist(), keys["value"].tolist()))
    assert pairs == sorted(pairs)
    manifest.close()


@pytest.mark.parametrize("merge_ids", [1, 7, subcode.MERGE_IDS])
@pytest.mark.parametrize("width, sub_width, count, empty_shards", [
    (64, 16, 3000, 0),
    (256, 8, 2000, 0),
    (64, 16, 3, 2),
    (256, 8, 7, 1),
])
def test_any_shard_count_writes_the_one_shard_terms_and_postings(
        tmp_path, width, sub_width, count, empty_shards, merge_ids):
    # the merge of five shards' parts, in rounds of any size, writes the
    # bytes a one-shard build writes, trailing empty shards included
    ds = random_dataset(count, width, seed=82, cluster_count=5, flip_probability=0.05)
    geometry = plan_geometry(width, sub_width)
    assert [n for _, n in _shard_ranges(count, 5)].count(0) == empty_shards
    with mock.patch.object(subcode, "MERGE_IDS", merge_ids):
        subcode_build(ds, geometry, 5, tmp_path / "five").close()
    subcode_build(ds, geometry, 1, tmp_path / "one").close()
    for name in (TERMS_NAME, POSTINGS_NAME):
        five = (tmp_path / "five" / name).read_bytes()
        assert len(five) > 0
        assert five == (tmp_path / "one" / name).read_bytes()


def test_build_is_deterministic(tmp_path):
    ds = random_dataset(2000, 128, seed=41)
    geometry = plan_geometry(128, 8)
    a = subcode_build(ds, geometry, 4, tmp_path / "a")
    b = subcode_build(ds, geometry, 4, tmp_path / "b")
    a.close()
    b.close()
    names = sorted(path.name for path in (tmp_path / "a").iterdir())
    assert names == sorted(path.name for path in (tmp_path / "b").iterdir())
    # no part file of the build is left behind
    assert names == sorted([COMPLETE_NAME, MANIFEST_NAME, TERMS_NAME, POSTINGS_NAME]
                           + [f"shard-{k}.fwd" for k in range(4)])
    for name in names:
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
    pst = tmp_path / "idx" / POSTINGS_NAME
    raw = bytearray(pst.read_bytes())
    raw[: len(raw)] = b"\x80" * len(raw)  # endless continuation bytes
    pst.write_bytes(bytes(raw))
    manifest = subcode_open(tmp_path / "idx")
    with pytest.raises(QueryError, match=f"corrupt postings in {POSTINGS_NAME}"):
        subcode_range_search(manifest, QuerySpec(ds.code(0), 1))
    manifest.close()



def test_postings_doc_id_past_the_dataset_count_is_refused(tmp_path):
    # a DocId at or past the dataset count names no forward-file row
    ds = random_dataset(100, 64, seed=75)
    geometry = plan_geometry(64, 16)
    subcode_build(ds, geometry, 2, tmp_path / "idx").close()
    pst = tmp_path / "idx" / POSTINGS_NAME
    manifest = subcode_open(tmp_path / "idx")
    # a list of one 1-byte id: that id is a DocId below 100
    ends = manifest._terms.ends.astype(np.int64)
    j = int(np.flatnonzero(np.diff(ends) == 1)[0])
    raw = bytearray(pst.read_bytes())
    key = manifest._terms.keys[j : j + 1].view(subcode._key_dtype(16))[0]
    query = ds.code(raw[ends[j]])
    assert int(query.words.view("<u2")[key["position"]]) == key["value"]
    spec = QuerySpec(query, 3)
    assert subcode_range_search(manifest, spec) == range_search_oracle(ds, spec)
    manifest.close()
    for doc_id in (100, 120):
        raw[ends[j]] = doc_id
        pst.write_bytes(bytes(raw))
        with subcode_open(tmp_path / "idx") as manifest:
            with pytest.raises(QueryError, match="doc id out of range"):
                subcode_range_search(manifest, spec)


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
    (tmp_path / "idx" / POSTINGS_NAME).unlink()
    with pytest.raises(IndexOpenError, match=f"missing index file {POSTINGS_NAME}"):
        subcode_open(tmp_path / "idx")
    subcode_build(ds, plan_geometry(64, 16), 3, tmp_path / "idx").close()
    (tmp_path / "idx" / "shard-1.fwd").unlink()
    with pytest.raises(IndexOpenError, match="missing index file shard-1.fwd"):
        subcode_open(tmp_path / "idx")


def test_open_failure_is_typed_and_closes_descriptors(tmp_path, monkeypatch):
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("needs /proc/self/fd to count open descriptors")
    ds = random_dataset(100, 64, seed=47)
    subcode_build(ds, plan_geometry(64, 16), 2, tmp_path / "idx").close()
    real_open = os.open

    def open_out_of_descriptors(path, flags, *args, **kwargs):
        if os.path.basename(path) == "shard-1.fwd":
            raise OSError(errno.EMFILE, "Too many open files", str(path))
        return real_open(path, flags, *args, **kwargs)

    before = len(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(subcode.os, "open", open_out_of_descriptors)
    # the postings file and shard 0's forward file are open by then; the
    # failure must close them too
    with pytest.raises(IndexOpenError, match="shard 1"):
        subcode_open(tmp_path / "idx")
    monkeypatch.undo()
    assert len(os.listdir("/proc/self/fd")) == before


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


def test_open_rejects_version_1(tmp_path):
    # and version 2, whose shards took round-robin DocIds
    ds = random_dataset(100, 64, seed=48)
    subcode_build(ds, plan_geometry(64, 16), 2, tmp_path / "idx").close()
    manifest_path = tmp_path / "idx" / MANIFEST_NAME
    raw = bytearray(manifest_path.read_bytes())
    for version in (1, 2):
        raw[4:8] = version.to_bytes(4, "little")
        manifest_path.write_bytes(bytes(raw))
        with pytest.raises(IndexOpenError, match=f"unsupported index version {version}"):
            subcode_open(tmp_path / "idx")


def test_open_rejects_a_version_3_directory(tmp_path):
    # a one-shard version-3 index held these same bytes under per-shard
    # names; version 3 kept a term table and postings file per shard
    ds = random_dataset(100, 64, seed=48)
    directory = tmp_path / "idx"
    subcode_build(ds, plan_geometry(64, 16), 1, directory).close()
    (directory / TERMS_NAME).rename(directory / "shard-0.trm")
    (directory / POSTINGS_NAME).rename(directory / "shard-0.pst")
    raw = bytearray((directory / MANIFEST_NAME).read_bytes())
    raw[4:8] = (3).to_bytes(4, "little")
    (directory / MANIFEST_NAME).write_bytes(bytes(raw))
    with pytest.raises(IndexOpenError, match="unsupported index version 3"):
        subcode_open(directory)


def test_open_rejects_zero_shard_count(tmp_path):
    ds = random_dataset(100, 64, seed=48)
    subcode_build(ds, plan_geometry(64, 16), 2, tmp_path / "idx").close()
    manifest_path = tmp_path / "idx" / MANIFEST_NAME
    raw = bytearray(manifest_path.read_bytes())
    raw[16:20] = (0).to_bytes(4, "little")  # shard_count
    manifest_path.write_bytes(bytes(raw))
    with pytest.raises(IndexOpenError, match="shard_count"):
        subcode_open(tmp_path / "idx")


# --- term table -----------------------------------------------------------------

def _swap_first_two(keys, lengths):
    keys[[0, 1]] = keys[[1, 0]]


def _append_byte(path):
    path.write_bytes(path.read_bytes() + b"\0")


@pytest.mark.parametrize(
    "sub_width, corrupt, match",
    [
        (16, lambda d: _edit_terms(d, 16, _swap_first_two), "strictly increasing"),
        (8, lambda d: _edit_terms(d, 8, lambda k, n: k.__setitem__(1, k[0])),
         "strictly increasing"),
        (8, lambda d: _edit_terms(d, 8, lambda k, n: k["position"].__setitem__(-1, 8)),
         "position out of range"),
        (16, lambda d: _edit_terms(d, 16, lambda k, n: n.__setitem__(3, 0)),
         "empty postings list"),
        (16, lambda d: _edit_terms(d, 16, lambda k, n: n.__setitem__(0, n[0] + 1)),
         "index.trm: list lengths do not sum to the size of index.pst"),
        (8, lambda d: _append_byte(d / POSTINGS_NAME), "size of index.pst"),
        (16, lambda d: _append_byte(d / TERMS_NAME), "truncated term table index.trm"),
    ],
    ids=["unsorted", "duplicate", "position", "empty_list", "length_sum", "postings_size",
         "truncated"],
)
def test_open_rejects_corrupt_term_table(tmp_path, sub_width, corrupt, match):
    ds = random_dataset(500, 64, seed=67)
    subcode_build(ds, plan_geometry(64, sub_width), 2, tmp_path / "idx").close()
    corrupt(tmp_path / "idx")
    with pytest.raises(IndexOpenError, match=match):
        subcode_open(tmp_path / "idx")


@pytest.mark.parametrize("sub_width", [8, 16])
def test_term_table_bit_flips_answer_or_fail_typed(tmp_path, sub_width):
    ds = random_dataset(4000, 64, seed=68, cluster_count=40, flip_probability=0.05)
    geometry = plan_geometry(64, sub_width)
    subcode_build(ds, geometry, 2, tmp_path / "idx").close()
    paths = [tmp_path / "idx" / TERMS_NAME]
    originals = [p.read_bytes() for p in paths]
    file_ends = np.cumsum([len(raw) for raw in originals])
    key_bytes = 2 + sub_width // 8
    rng = np.random.default_rng(69)
    queries = [ds.code(int(i)) for i in rng.choice(ds.count, 4, replace=False)]
    radii = (0, 1, geometry.subcode_count - 1)
    typed = in_lengths = 0
    # one bit at a time, drawn uniformly over all term-table bytes
    for bit in rng.integers(0, int(file_ends[-1]) * 8, 150):
        k = int(np.searchsorted(file_ends, bit // 8, side="right"))
        raw = bytearray(originals[k])
        at = bit // 8 - (int(file_ends[k]) - len(raw))
        raw[at] ^= 1 << int(bit % 8)
        paths[k].write_bytes(bytes(raw))
        try:
            if at >= len(raw) // (key_bytes + 4) * key_bytes:
                # a flipped length always changes the lengths' sum
                in_lengths += 1
                with pytest.raises(IndexOpenError, match=paths[k].name):
                    subcode_open(tmp_path / "idx")
                continue
            with subcode_open(tmp_path / "idx") as manifest:
                for q in queries:
                    for r in radii:
                        subcode_range_search(manifest, QuerySpec(q, r))
        except (IndexOpenError, QueryError):
            typed += 1
        finally:
            paths[k].write_bytes(originals[k])
    assert typed > 0
    assert in_lengths > 0


@pytest.mark.parametrize("sub_width", [8, 16, 32, 64])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_term_lookup_equals_dict_reference(sub_width, data):
    s = data.draw(st.integers(1, 6))
    term = st.tuples(st.integers(0, s - 1), st.integers(0, 2**sub_width - 1))
    lists = data.draw(
        st.one_of(st.just({}), st.dictionaries(term, st.integers(1, 40), max_size=30))
    )
    terms = sorted(lists)
    # written independently of the package: keys, then lengths
    table_bytes = b"".join(
        p.to_bytes(2, "big") + v.to_bytes(sub_width // 8, "big") for p, v in terms
    ) + b"".join(lists[t].to_bytes(4, "little") for t in terms)
    reference = {}
    offset = 0
    for t in terms:
        reference[t] = (offset, lists[t])
        offset += lists[t]
    probes = data.draw(st.lists(term, max_size=12)) + terms[:1] + terms[-1:]
    with tempfile.TemporaryDirectory() as tmp:
        trm, pst = Path(tmp) / "t.trm", Path(tmp) / "t.pst"
        trm.write_bytes(table_bytes)
        pst.write_bytes(bytes(offset))
        geometry = SubCodeGeometry(s * sub_width, sub_width)  # any s, unvalidated
        table = subcode._open_term_table(trm, pst, geometry)
    keys = subcode._term_keys(
        np.array([p for p, _ in probes]), np.array([v for _, v in probes], dtype=np.uint64),
        sub_width,
    )
    offsets, lengths = table.lookup(keys)
    # an absent key reads as an empty list, at whatever offset
    assert lengths.tolist() == [reference.get(t, (0, 0))[1] for t in probes]
    got = [o for t, o in zip(probes, offsets.tolist()) if t in reference]
    assert got == [reference[t][0] for t in probes if t in reference]


@pytest.mark.parametrize("sub_width", [32, 64])
def test_wide_subcodes_equal_oracle(tmp_path, sub_width):
    ds = random_dataset(3000, 256, seed=70, cluster_count=20, flip_probability=0.01)
    geometry = plan_geometry(256, sub_width)
    manifest = subcode_build(ds, geometry, 3, tmp_path / "idx")
    queries = [ds.code(i) for i in (0, 17, 1234, 2999)] + [BinaryCode.ones(256)]
    for q in queries:
        # every filter threshold, then the bypass scan
        for r in range(geometry.subcode_count + 2):
            spec = QuerySpec(q, r)
            assert subcode_range_search(manifest, spec) == range_search_oracle(ds, spec)
    manifest.close()


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
    cands = candidate_filter(manifest, QuerySpec(ds.code(0), 0))
    # threshold == s: only docs matching every sub-code survive
    assert cands.tolist() == [0, 1, 2]
    manifest.close()


def test_filter_one_flip_survives_threshold():
    # a doc differing from the query in exactly 1 bit shares >= s-1 sub-codes,
    # so at radius 1 the pigeonhole threshold must keep it
    base = BinaryCode.zeros(64)
    flipped = perturb(base, 1, seed=7)
    ds = CodeDataset(64, np.vstack([flipped.words]))
    geometry = plan_geometry(64, 16)
    with tempfile.TemporaryDirectory() as tmp:
        manifest = subcode_build(ds, geometry, 1, tmp)
        cands = candidate_filter(manifest, QuerySpec(base, 1))
        assert cands.tolist() == [0]
        # it shares exactly s - 1 sub-codes, so threshold s drops it
        exact = candidate_filter(manifest, QuerySpec(base, 0))
        assert 0 not in exact
        manifest.close()


def test_filter_requires_nonvacuous_threshold(tmp_path):
    ds = random_dataset(50, 64, seed=50)
    geometry = plan_geometry(64, 16)
    manifest = subcode_build(ds, geometry, 2, tmp_path / "idx")
    with pytest.raises(ValueError, match="bypass"):
        candidate_filter(manifest, QuerySpec(ds.code(0), 4))
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
            survivors = set(candidate_filter(manifest, QuerySpec(q, r)).tolist())
            assert set(truth.ids.tolist()) <= survivors
    manifest.close()


def test_filter_monotone_in_radius(tmp_path):
    # a larger radius lowers the all-lists filter's threshold, so its
    # candidates only grow; the planned filter may read other lists at
    # another radius, and keeps every neighbour at each
    ds = random_dataset(4000, 64, seed=53, cluster_count=10, flip_probability=0.08)
    geometry = plan_geometry(64, 8)
    manifest = subcode_build(ds, geometry, 3, tmp_path / "idx")
    q = ds.code(17)
    previous = set()
    for r in range(0, 8):  # s=8: all these keep the filter active
        spec = QuerySpec(q, r)
        truth = set(range_search_oracle(ds, spec).ids.tolist())
        assert truth <= set(candidate_filter(manifest, spec).tolist())
        with filter_plans()["k=s"]:
            current = set(candidate_filter(manifest, spec).tolist())
        assert previous <= current
        previous = current
    manifest.close()


def test_filter_absent_term_is_empty_list(tmp_path):
    ds = CodeDataset(64, np.zeros((5, 1), dtype=np.uint64))
    geometry = plan_geometry(64, 16)
    manifest = subcode_build(ds, geometry, 1, tmp_path / "idx")
    # query whose sub-codes appear nowhere: no candidates, not an error
    cands = candidate_filter(manifest, QuerySpec(BinaryCode.ones(64), 1))
    assert len(cands) == 0
    manifest.close()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_plan_reads_the_k_shortest_lists_for_k_in_range(data):
    s = data.draw(st.integers(1, 600), label="s")
    radius = data.draw(st.integers(0, s - 1), label="radius")
    length = st.one_of(st.just(0), st.integers(1, 300), st.integers(1, 10**6))
    lengths = data.draw(st.lists(length, min_size=s, max_size=s), label="lengths")
    # the query's lists are part of the pass's postings
    postings_bytes = sum(lengths) + data.draw(st.integers(0, 10**8), label="rest")
    terms = subcode._plan(lengths, radius, postings_bytes)
    assert terms == sorted(set(terms)) and set(terms) <= set(range(s))
    assert radius + 1 <= len(terms) <= s
    if s - radius == 1:
        assert terms == list(range(s))
    rest = set(range(s)) - set(terms)
    # the shortest lists, absent terms before any present list
    assert max(lengths[t] for t in terms) <= min((lengths[t] for t in rest), default=2**63)
    if any(lengths[t] for t in terms):
        assert all(lengths[t] for t in rest)


def test_plan_of_a_pass_without_postings_reads_nothing(tmp_path):
    # an empty index holds no postings bytes to estimate ids from
    assert subcode._plan([0] * 8, 3, 0) == list(range(8))
    # 6 codes in 5 shards leave shards 3 and 4 empty
    ds = random_dataset(6, 64, seed=79)
    with subcode_build(ds, plan_geometry(64, 8), 5, tmp_path / "idx") as manifest:
        assert [shard.doc_count for shard in manifest.shards] == [2, 2, 2, 0, 0]
        for r in range(8):
            for q in (ds.code(0), BinaryCode.ones(64)):
                spec = QuerySpec(q, r)
                assert subcode_range_search(manifest, spec) == range_search_oracle(ds, spec)


def test_plan_on_benchmark_like_lengths_reads_fewer_lists():
    # a filter-m256-r15 shard: 100k docs, s=32, about 1.6 postings bytes an
    # id, and the query's lists about 400 ids each
    rng = np.random.default_rng(80)
    lengths = rng.integers(400, 900, 32).tolist()
    terms = subcode._plan(lengths, 15, 100_000 * 32 * 16 // 10)
    assert 16 < len(terms) < 32


# --- verify -------------------------------------------------------------------

def test_verify_empty_candidates(tmp_path):
    ds = random_dataset(100, 64, seed=54)
    geometry = plan_geometry(64, 16)
    manifest = subcode_build(ds, geometry, 2, tmp_path / "idx")
    result = verify(manifest, np.empty(0, dtype=np.uint32), QuerySpec(ds.code(0), 5))
    assert len(result) == 0
    manifest.close()


def test_verify_all_candidates_equals_oracle_restricted_to_shard(tmp_path):
    ds = random_dataset(1000, 128, seed=55)
    geometry = plan_geometry(128, 16)
    manifest = subcode_build(ds, geometry, 4, tmp_path / "idx")
    q = ds.code(3)
    for r in (10, 40, 128):
        truth = range_search_oracle(ds, QuerySpec(q, r))
        for shard in manifest.shards:
            end = shard.start + shard.doc_count
            everyone = np.arange(shard.start, end, dtype=np.int64)
            got = verify(manifest, everyone, QuerySpec(q, r)).as_set()
            assert got == {(i, d) for i, d in truth.as_set() if shard.start <= i < end}
        assert verify(manifest, np.arange(1000), QuerySpec(q, r)) == truth
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
    sparse = shard.start + np.array([3, 4, 5, 1500, 3000, 3001], dtype=np.int64)
    got = verify(manifest, sparse, spec)
    assert sum(reads) == sparse.size * 8
    assert len(reads) == 3
    assert np.array_equal(got.ids, sparse)
    # runs a few rows apart: one read of the rows they span
    reads.clear()
    dense = shard.start + np.array([3, 4, 5, 100, 250, 251], dtype=np.int64)
    got = verify(manifest, dense, spec)
    assert reads == [(251 - 3 + 1) * 8]
    assert np.array_equal(got.ids, dense)
    manifest.close()


def test_truncated_forward_file_raises_query_error(tmp_path):
    ds = random_dataset(1000, 64, seed=64)
    manifest = subcode_build(ds, plan_geometry(64, 16), 2, tmp_path / "idx")
    shard = manifest.shards[0]
    os.truncate(manifest.directory / "shard-0.fwd", shard.doc_count * 8 // 2)
    # the last doc of shard 0 now lies past the end of its forward file
    last = shard.start + shard.doc_count - 1
    for radius in (0, 64):  # filter + verify, then the bypass scan
        with pytest.raises(QueryError, match="shard 0"):
            subcode_range_search(manifest, QuerySpec(ds.code(last), radius))
    # verify of every doc streams the rows (the dense path) into one batch
    with pytest.raises(QueryError, match="shard 0"):
        verify(manifest, np.arange(ds.count), QuerySpec(ds.code(last), 3))
    manifest.close()


@pytest.mark.parametrize(
    "call",
    [
        lambda m, q: subcode_range_search(m, QuerySpec(q, 3)),  # filter + verify
        lambda m, q: subcode_range_search(m, QuerySpec(q, 64)),  # bypass scan
        lambda m, q: read_code(m, 7),
        lambda m, q: candidate_filter(m, QuerySpec(q, 3)),
        lambda m, q: verify(m, np.arange(5, dtype=np.uint32), QuerySpec(q, 3)),
    ],
    ids=["filter", "bypass_scan", "read_code", "candidate_filter", "verify"],
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
    for r in (1, 3, 64):  # filter + verify, then the bypass scan
        with pytest.raises(ValueError, match="query width 128"):
            subcode_range_search(manifest, QuerySpec(BinaryCode.zeros(128), r))
    with pytest.raises(ValueError, match="query width 128"):
        candidate_filter(manifest, QuerySpec(BinaryCode.zeros(128), 1))
    with pytest.raises(ValueError, match="query width 128"):
        verify(manifest, np.arange(3), QuerySpec(BinaryCode.zeros(128), 3))
    manifest.close()


def test_verify_rejects_ids_outside_the_index_or_out_of_order(tmp_path):
    ds = random_dataset(10, 64, seed=79)
    spec = QuerySpec(ds.code(0), 64)
    with subcode_build(ds, plan_geometry(64, 16), 3, tmp_path / "idx") as manifest:
        for ids in ([9, 10], [10], [-1, 3], [2, 1], [4, 4]):
            with pytest.raises(ValueError, match=r"within \[0, 10\)"):
                verify(manifest, np.array(ids), spec)
        assert verify(manifest, np.arange(10), spec) == range_search_oracle(ds, spec)


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


def _id_sets(n):
    """Sorted unique ids below n: the full range, or a union of runs (which
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
    # ids of one shard, or of any of them
    shard = data.draw(st.sampled_from(manifest.shards))
    doc_ids = data.draw(st.one_of(
        _id_sets(shard.doc_count).map(lambda ids: ids + shard.start), _id_sets(ds.count)))
    spec = QuerySpec(data.draw(_queries(ds)), data.draw(st.integers(0, width)))
    # blocks of a few rows, so batch boundaries split runs and shards; the
    # dense-run gap picks run-by-run reads, streamed spans, or either per batch
    block_rows = data.draw(st.integers(1, 9))
    dense_gap = data.draw(st.sampled_from([0, 4 * width // 8, 1 << 40]))
    # the filter's uint32 ids, or any integer type holding the ids
    doc_ids = doc_ids.astype(data.draw(st.sampled_from([np.int64, np.uint32, np.int32])))
    with mock.patch.object(subcode, "SCAN_BLOCK_BYTES", block_rows * width // 8), \
            mock.patch.object(subcode, "DENSE_RUN_GAP_BYTES", dense_gap):
        got = verify(manifest, doc_ids, spec)
    truth = range_search_oracle(ds, spec)
    wanted = np.isin(truth.ids, doc_ids)
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


# --- whole pipeline against the oracle ------------------------------------------

@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_both_backends_equal_oracle(data):
    width = data.draw(st.sampled_from([64, 128, 256]), label="width")
    sub_width = data.draw(st.sampled_from([8, 16, 32, 64]), label="sub_width")
    shard_count = data.draw(st.integers(1, 6), label="shard_count")
    # small counts put more shards than codes
    count = data.draw(st.one_of(st.integers(0, 6), st.integers(7, 400)), label="count")
    clusters = data.draw(st.sampled_from([0, 3]), label="clusters")
    ds = random_dataset(count, width, seed=data.draw(st.integers(0, 2**16)),
                        cluster_count=clusters, flip_probability=0.05 if clusters else 0.0)
    s = width // sub_width
    radius = data.draw(
        st.one_of(st.integers(0, s - 1), st.integers(s, width)), label="radius"
    )
    words = width // 64
    query = data.draw(
        st.lists(st.integers(0, 2**64 - 1), min_size=words, max_size=words).map(
            lambda w: BinaryCode(width, np.array(w, dtype=np.uint64)))
        if count == 0 else _queries(ds),
        label="query",
    )
    spec = QuerySpec(query, radius)
    truth = range_search_oracle(ds, spec)
    with tempfile.TemporaryDirectory() as tmp, \
            subcode_build(ds, plan_geometry(width, sub_width), shard_count, tmp) as manifest:
        for plan in filter_plans().values():
            with plan:
                assert subcode_range_search(manifest, spec) == truth
    with flat_build(ds, data.draw(st.integers(1, 3), label="workers")) as index:
        assert flat_range_search(index, spec) == truth



@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_pass_over_any_shard_count_equals_the_one_shard_pass(data):
    width = data.draw(st.sampled_from([64, 128]), label="width")
    sub_width = data.draw(st.sampled_from([8, 16]), label="sub_width")
    shard_count = data.draw(st.integers(1, 6), label="shard_count")
    # small counts leave shards empty
    count = data.draw(st.one_of(st.integers(0, 7), st.integers(8, 300)), label="count")
    clusters = data.draw(st.sampled_from([0, 3]), label="clusters")
    ds = random_dataset(count, width, seed=data.draw(st.integers(0, 2**16)),
                        cluster_count=clusters, flip_probability=0.05 if clusters else 0.0)
    geometry = plan_geometry(width, sub_width)
    radius = data.draw(st.integers(0, geometry.subcode_count - 1), label="radius")
    words = width // 64
    query = data.draw(
        st.lists(st.integers(0, 2**64 - 1), min_size=words, max_size=words).map(
            lambda w: BinaryCode(width, np.array(w, dtype=np.uint64)))
        if count == 0 else _queries(ds),
        label="query",
    )
    spec = QuerySpec(query, radius)
    block_rows = data.draw(st.integers(1, 9), label="block_rows")
    # runs of one list each, of a few lists, or of every list
    decode_bytes = data.draw(st.sampled_from([1, 40, subcode.DECODE_BYTES]), label="decode")
    truth = range_search_oracle(ds, spec)
    with tempfile.TemporaryDirectory() as tmp, \
            subcode_build(ds, geometry, shard_count, Path(tmp) / "drawn") as manifest, \
            subcode_build(ds, geometry, 1, Path(tmp) / "one") as one_shard, \
            mock.patch.object(subcode, "SCAN_BLOCK_BYTES", block_rows * width // 8), \
            mock.patch.object(subcode, "DECODE_BYTES", decode_bytes):
        for plan in filter_plans().values():
            with plan:
                candidates = candidate_filter(manifest, spec)
                assert candidates.dtype == np.uint32
                assert np.all(candidates[1:] > candidates[:-1])
                assert np.isin(truth.ids, candidates).all()
                assert verify(manifest, candidates, spec) == truth
                assert subcode_range_search(manifest, spec) == truth
                # the shards split only the forward files
                assert np.array_equal(candidate_filter(one_shard, spec), candidates)


def _composed_search(index, spec):
    """A client's own composition of the two phases of a sub-code query."""
    if filter_bypassed(index.geometry, spec.radius):
        return subcode_range_search(index, spec)
    return verify(index, candidate_filter(index, spec), spec)


@pytest.mark.parametrize("backend", ["subcode", "subcode-direct", "flat"])
def test_closing_an_index_under_live_queries_never_answers_wrong(tmp_path, backend):
    # one thread queries index A while the main thread closes A and opens
    # index B, whose files take the descriptor numbers A's close frees
    ds = random_dataset(20_000, 64, seed=76, cluster_count=50, flip_probability=0.05)
    other = random_dataset(20_000, 64, seed=77, cluster_count=50, flip_probability=0.05)
    geometry = plan_geometry(64, 8)  # s=8: r < 8 filters, r = 8 bypasses
    subcode_build(ds, geometry, 3, tmp_path / "a").close()
    subcode_build(other, geometry, 3, tmp_path / "b").close()
    specs = [QuerySpec(ds.code(i), r) for i in (1, 4321, 12345) for r in (2, 5, 8)]
    truths = [range_search_oracle(ds, spec) for spec in specs]
    search = {"subcode": subcode_range_search, "subcode-direct": _composed_search,
              "flat": flat_range_search}[backend]
    if backend == "flat":
        open_index = functools.partial(flat_build, ds, workers=3)
    else:
        open_index = functools.partial(subcode_open, tmp_path / "a")
    outcomes = {"exact": 0, "refused": 0, "wrong": 0}
    errors = []

    def client(index):
        for spec, truth in zip(specs, truths):
            try:
                outcome = "exact" if search(index, spec) == truth else "wrong"
            except QueryError:
                outcome = "refused"
            except Exception as exc:  # anything else fails the test below
                errors.append(exc)
                return
            outcomes[outcome] += 1

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline = time.monotonic() + 4
        while time.monotonic() < deadline and not errors:
            index = open_index()
            thread = threading.Thread(target=client, args=(index,))
            thread.start()
            time.sleep(0.002)
            index.close()
            with subcode_open(tmp_path / "b"):
                thread.join(timeout=30)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(switch)
    assert errors == []
    assert outcomes["wrong"] == 0 and outcomes["exact"] > 0
    if backend == "flat":  # a closed flat index answers on the calling thread
        assert outcomes["refused"] == 0


# --- result ordering ---------------------------------------------------------------

def test_no_query_sorts_its_results(tmp_path, monkeypatch):
    # the flat scan, verify and the bypass scan each yield ascending ids, and
    # the shards hold ascending DocId ranges, so no merge sorts
    ds = random_dataset(3000, 64, seed=74, cluster_count=20, flip_probability=0.05)
    geometry = plan_geometry(64, 8)  # s=8: r=4 filters, r=8 bypasses
    manifest = subcode_build(ds, geometry, 5, tmp_path / "idx")
    index = flat_build(ds, workers=5)
    searches = {
        "flat": (lambda spec: flat_range_search(index, spec), 8),
        "filter": (lambda spec: subcode_range_search(manifest, spec), 4),
        "bypass": (lambda spec: subcode_range_search(manifest, spec), 8),
    }
    truths = {name: range_search_oracle(ds, QuerySpec(ds.code(11), r))
              for name, (_, r) in searches.items()}
    calls = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda *a, **k: calls.append(1) or argsort(*a, **k))
    counts = {}
    for name, (search, radius) in searches.items():
        calls.clear()
        assert search(QuerySpec(ds.code(11), radius)) == truths[name]
        counts[name] = len(calls)
    monkeypatch.undo()
    manifest.close()
    index.close()
    assert not filter_bypassed(geometry, 4) and filter_bypassed(geometry, 8)
    # hits in several shards, so that the shards' results are merged
    per_shard = manifest.shards[0].doc_count
    assert all(len(set((t.ids // per_shard).tolist())) > 1 for t in truths.values())
    assert counts == {"flat": 0, "filter": 0, "bypass": 0}


# --- the benchmark's traced names ------------------------------------------------

def test_benchmark_tracer_reaches_every_traced_name(tmp_path, monkeypatch):
    # benchmark/tracer.py wraps these functions by name; a rename would make
    # its per-layer metrics read 0 without any error
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmark"))
    from tracer import Tracer

    ds = random_dataset(3000, 64, seed=72, cluster_count=20, flip_probability=0.05)
    geometry = plan_geometry(64, 8)  # s=8: r=3 filters, r=8 bypasses
    manifest = subcode_build(ds, geometry, 3, tmp_path / "idx")
    filter_spec = QuerySpec(ds.code(11), 3)
    candidates = len(candidate_filter(manifest, filter_spec))
    tracer = Tracer()
    with tracer:
        hits = subcode_range_search(manifest, filter_spec)
    filtered = tracer.stats
    tracer.reset()
    with tracer:
        subcode_range_search(manifest, QuerySpec(ds.code(11), 8))
    scanned = tracer.stats
    manifest.close()

    assert tracer.missing == []
    assert filtered["subcode.candidate_filter"].calls == 1
    assert filtered["subcode.candidate_filter"].items == candidates > 0
    assert filtered["subcode.verify"].calls == 1
    assert filtered["subcode.verify"].items == len(hits) > 0
    assert filtered["subcode.scan_shard"].calls == 0
    assert scanned["subcode.scan_shard"].calls == 3
    assert scanned["subcode.candidate_filter"].calls == 0
    assert filtered["varint.decode_with_ends"].items > 0
    for stats in (filtered, scanned):
        assert stats["core.hamming_distances"].items > 0
