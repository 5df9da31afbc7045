import numpy as np
import pytest

from hamsearch import (
    BinaryCode,
    CodeDataset,
    QuerySpec,
    flat_build,
    flat_range_search,
    range_search_oracle,
)

from conftest import random_dataset


def test_empty_dataset_builds_and_answers_empty():
    ds = CodeDataset(64, np.empty((0, 1), dtype=np.uint64))
    spec = QuerySpec(BinaryCode.zeros(64), 10)
    for workers in (1, 3):
        with flat_build(ds, workers=workers) as index:
            result = flat_range_search(index, spec)
        assert len(result) == 0
        assert result == range_search_oracle(ds, spec)


def test_buffer_size_arithmetic():
    # the buffer holds exactly count * width/8 bytes; at the 2.8M x 64-bit
    # scale that is 22.4 MB, checked here at 10k
    ds = random_dataset(10_000, 64, seed=30)
    index = flat_build(ds)
    assert index.memory_bytes() == 10_000 * 8
    assert index.buffer.shape == (10_000, 1)


def test_build_copies_the_codes():
    ds = random_dataset(100, 64, seed=31)
    index = flat_build(ds)
    assert np.array_equal(index.buffer, ds.codes)
    ds.codes[0, 0] ^= np.uint64(1)
    assert not np.array_equal(index.buffer, ds.codes)


def test_zero_radius_singleton():
    ds = random_dataset(1000, 64, seed=32)
    index = flat_build(ds)
    result = flat_range_search(index, QuerySpec(ds.code(123), 0))
    assert result.as_set() == {(123, 0)}


def test_full_radius_returns_all():
    ds = random_dataset(321, 128, seed=33)
    index = flat_build(ds)
    result = flat_range_search(index, QuerySpec(ds.code(5), 128))
    assert len(result) == 321


def test_oracle_equivalence_m256_table_radii():
    ds = random_dataset(10_000, 256, seed=34)
    index = flat_build(ds, workers=5)
    rng = np.random.default_rng(35)
    for qid in rng.choice(10_000, size=50, replace=False):
        q = ds.code(int(qid))
        for r in (15, 31, 47):
            spec = QuerySpec(q, r)
            assert flat_range_search(index, spec) == range_search_oracle(ds, spec)


def test_worker_count_independence():
    ds = random_dataset(5000, 64, seed=36)
    spec = QuerySpec(ds.code(77), 24)
    reference = flat_range_search(flat_build(ds, workers=1), spec)
    for workers in (2, 5, 8):
        assert flat_range_search(flat_build(ds, workers=workers), spec) == reference
    # fewer codes than workers: some chunks are empty
    for count in (1, 3):
        ds = random_dataset(count, 64, seed=36)
        spec = QuerySpec(ds.code(0), 64)
        with flat_build(ds, workers=5) as index:
            assert flat_range_search(index, spec) == range_search_oracle(ds, spec)


def test_width_mismatch_rejected():
    ds = random_dataset(10, 64, seed=37)
    index = flat_build(ds)
    with pytest.raises(ValueError):
        flat_range_search(index, QuerySpec(BinaryCode.zeros(128), 1))


def test_invalid_workers():
    ds = random_dataset(10, 64, seed=38)
    with pytest.raises(ValueError):
        flat_build(ds, workers=0)


def test_build_reports_wall_time():
    ds = random_dataset(1000, 64, seed=39)
    index = flat_build(ds)
    assert index.build_seconds >= 0.0


def test_build_out_of_memory_reports_required_bytes(monkeypatch):
    ds = random_dataset(1000, 128, seed=40)

    def failing_array(*args, **kwargs):
        raise MemoryError("simulated allocation failure")

    monkeypatch.setattr(np, "array", failing_array)
    with pytest.raises(MemoryError, match=str(1000 * 16)):
        flat_build(ds)


def test_close_shuts_pool_down_and_is_idempotent():
    ds = random_dataset(2000, 64, seed=41)
    spec = QuerySpec(ds.code(5), 20)
    with flat_build(ds, workers=3) as index:
        pool = index._pool
        assert flat_range_search(index, spec) == range_search_oracle(ds, spec)
    assert index._pool is None
    assert pool._threads and not any(t.is_alive() for t in pool._threads)
    index.close()
    # a closed index still answers exactly, on the calling thread
    assert flat_range_search(index, spec) == range_search_oracle(ds, spec)
    flat_build(ds, workers=1).close()
    closed = flat_build(ds, workers=5)
    closed.close()
    for r in (0, 20, 64):
        spec = QuerySpec(ds.code(5), r)
        assert flat_range_search(closed, spec) == range_search_oracle(ds, spec)
