"""Workload definitions, seeded input generation and an independent popcount.

Inputs are made here with numpy alone, not with `hamsearch.datagen`, so a
change to the program cannot change what the benchmark feeds it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# each bit of a code differs from its cluster centre with probability
# FLIP_NUMERATOR / 2**16 (0.0500)
FLIP_NUMERATOR = 3277
_GEN_ROWS = 8192  # rows generated per block, bounding the generator's memory


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str  # "flat" or "subcode"
    width_bits: int
    count: int
    radius: int
    sub_width: int = 0
    shards: int = 0
    workers: int = 0
    query_count: int = 200  # at least 200 so that 10 timed queries lie beyond p95
    setup_repeats: int = 3  # fresh setup processes per run
    builds: int = 1  # builds per setup process; setup_s is the median of all
    restarts: int = 9  # fresh restart processes per run; restart_s is their median
    brute_force_samples: int = 3  # queries per run checked against a full scan


WORKLOADS = {
    w.name: w
    for w in (
        Workload("flat-m1024-r63", "flat", 1024, 500_000, 63, workers=5,
                 builds=9, brute_force_samples=2),
        Workload("filter-m256-r15", "subcode", 256, 500_000, 15, sub_width=8, shards=5),
        Workload("scan-m256-r47", "subcode", 256, 500_000, 47, sub_width=8, shards=5),
        Workload("filter-m64-sw16-r3", "subcode", 64, 2_000_000, 3, sub_width=16, shards=5),
    )
}


def make_codes(rng: np.random.Generator, count: int, width_bits: int) -> np.ndarray:
    """Clustered codes: count/100 uniform centres; each code copies a random
    centre and flips each bit with probability FLIP_NUMERATOR / 2**16."""
    words = width_bits // 64
    centres = rng.integers(0, 2**64, size=(max(1, count // 100), words),
                           dtype=np.uint64, endpoint=False)
    codes = centres[rng.integers(0, centres.shape[0], size=count)]
    for lo in range(0, count, _GEN_ROWS):
        hi = min(count, lo + _GEN_ROWS)
        flips = rng.integers(0, 2**16, size=(hi - lo, width_bits), dtype=np.uint16)
        mask = np.packbits(flips < FLIP_NUMERATOR, axis=1, bitorder="little")
        codes[lo:hi] ^= mask.view(np.uint64)
    return codes


def make_inputs(workload: Workload, seed: int):
    """(codes, query ids) for one workload and seed; the same seed gives the
    same inputs."""
    rng = np.random.default_rng(seed)
    codes = make_codes(rng, workload.count, workload.width_bits)
    query_ids = rng.choice(workload.count, size=workload.query_count, replace=False)
    return codes, np.sort(query_ids).astype(np.int64)


_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def popcount_distances(rows: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Hamming distances from `query` to each row by a byte lookup table;
    uses neither np.bitwise_count nor anything from hamsearch."""
    x = np.ascontiguousarray(rows ^ query).view(np.uint8)
    return _POPCOUNT8[x].sum(axis=1, dtype=np.int64)


def brute_force(codes: np.ndarray, query: np.ndarray, radius: int, block: int = 32768):
    """(ids, distances) of every row within `radius`, in id order."""
    ids, dists = [], []
    for lo in range(0, codes.shape[0], block):
        d = popcount_distances(codes[lo:lo + block], query)
        hit = np.flatnonzero(d <= radius)
        ids.append(hit + lo)
        dists.append(d[hit])
    return np.concatenate(ids), np.concatenate(dists)
