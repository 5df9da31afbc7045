"""Main-memory backend: contiguous code buffer scanned in full by a pool of
worker threads. Deliberately has no persistence and no pruning tricks; every
query pays one popcount per stored code.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .core import CodeDataset, NeighborSet, QuerySpec, _InFlight, hamming_distances

DEFAULT_WORKERS = 5


@dataclass(eq=False)
class FlatIndex:
    """Immutable after build; safe to share across concurrent queries."""

    width_bits: int
    count: int
    buffer: np.ndarray  # (count, width_bits // 64) uint64, owned copy
    workers: int
    build_seconds: float
    _pool: ThreadPoolExecutor | None = field(default=None, repr=False)
    _queries: _InFlight = field(default_factory=_InFlight, init=False, repr=False)

    def memory_bytes(self) -> int:
        return self.buffer.nbytes

    def close(self):
        """Shut the worker pool down once no query is using it; safe to
        call twice. Queries issued after close scan on the calling thread."""
        if self._queries.close():
            self._shutdown_pool()

    def _shutdown_pool(self):
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def __repr__(self):
        return (
            f"FlatIndex(width_bits={self.width_bits}, count={self.count}, "
            f"workers={self.workers})"
        )


def flat_build(dataset: CodeDataset, workers: int = DEFAULT_WORKERS) -> FlatIndex:
    """Copy all codes into one contiguous main-memory buffer.

    Single pass; the returned index records its build wall time. Raises
    MemoryError carrying the required byte count if the buffer cannot be
    allocated.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    start = time.perf_counter()
    try:
        buffer = np.array(dataset.codes, dtype=np.uint64, copy=True, order="C")
    except MemoryError as exc:
        need = dataset.count * (dataset.width_bits // 8)
        raise MemoryError(f"flat index requires {need} bytes of main memory") from exc
    build_seconds = time.perf_counter() - start
    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
    return FlatIndex(
        width_bits=dataset.width_bits,
        count=dataset.count,
        buffer=buffer,
        workers=workers,
        build_seconds=build_seconds,
        _pool=pool,
    )


def _chunk_bounds(count: int, workers: int) -> list[tuple[int, int]]:
    # static contiguous partition; per-code cost is uniform so chunks are even
    bounds = np.linspace(0, count, workers + 1, dtype=np.int64)
    return [(int(bounds[i]), int(bounds[i + 1])) for i in range(workers)]


def _scan_chunk(buffer, query_words, radius, lo, hi):
    dist = hamming_distances(buffer[lo:hi], query_words)
    hits = np.flatnonzero(dist <= radius)
    return hits + lo, dist[hits]


def flat_range_search(index: FlatIndex, spec: QuerySpec) -> NeighborSet:
    """Exact radius query by chunked parallel scan over the whole buffer;
    chunks and their hits come in row order, so the ids need no sort."""
    if spec.query.width_bits != index.width_bits:
        raise ValueError(
            f"query width {spec.query.width_bits} does not match index "
            f"width {index.width_bits}"
        )
    q = spec.query.words
    r = spec.radius
    pooled = index._queries.enter()
    try:
        pool = index._pool if pooled else None
        parts = list((map if pool is None else pool.map)(
            lambda b: _scan_chunk(index.buffer, q, r, b[0], b[1]),
            _chunk_bounds(index.count, index.workers),
        ))
    finally:
        if pooled and index._queries.leave():
            index._shutdown_pool()
    id_parts, dist_parts = zip(*parts)
    return NeighborSet(np.concatenate(id_parts), np.concatenate(dist_parts))
