"""Subprocess entry for measured benchmark phases.

Invoked as `python -m hamsearch._phases` with a JSON phase spec on stdin
(`{"op": ..., ...}`); runs exactly one phase in this fresh process and
prints a JSON result to stdout. Latency statistics travel as the fields of
`bench.LatencyStats`. Keeping each (backend, width, radius) cell in its own
process gives honest cold runs and per-cell resident-memory peaks.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import asdict

from . import subcode as subcode_mod
from .bench import measure_latency
from .core import QuerySpec, dataset_read
from .flat import flat_build, flat_range_search
from .memprobe import ResidentSampler
from .subcode import plan_geometry, subcode_build, subcode_open, subcode_range_search


def _cold_and_warm(search, queries) -> dict:
    """A cold pass, then a warm-up pass and a warm measured pass."""
    cold = measure_latency(search, queries, warmup=False)
    warm = measure_latency(search, queries, warmup=True)
    return {"cold": asdict(cold), "warm": asdict(warm)}


def _finish(sampler) -> dict:
    """Resident fields of a phase result. The start is the sampler's first
    reading (interpreter, numpy and whatever the phase loaded before
    sampling), so peak - start is the memory the measured work added."""
    peak = sampler.stop()
    if peak is None:
        return {
            "resident_bytes_start": None,
            "resident_bytes_peak": None,
            "rss_note": "rss-unavailable",
        }
    return {
        "resident_bytes_start": int(sampler.samples[0][1]),
        "resident_bytes_peak": int(peak),
        "rss_note": "",
    }


def phase_subcode_build(spec: dict) -> dict:
    sampler = ResidentSampler().start()
    dataset = dataset_read(spec["dataset_path"])
    geometry = plan_geometry(dataset.width_bits, spec["sub_width"])
    start = time.perf_counter()
    manifest = subcode_build(dataset, geometry, spec["shard_count"], spec["index_dir"])
    build_seconds = time.perf_counter() - start
    manifest.close()
    return {"build_seconds": build_seconds, **_finish(sampler)}


def phase_flat_search(spec: dict) -> dict:
    sampler = ResidentSampler().start()
    dataset = dataset_read(spec["dataset_path"])
    start = time.perf_counter()
    index = flat_build(dataset, spec["workers"])
    build_seconds = time.perf_counter() - start
    radius = spec["radius"]
    queries = [QuerySpec(dataset.code(i), radius) for i in spec["query_ids"]]
    return {
        "build_seconds": build_seconds,
        **_cold_and_warm(lambda q: flat_range_search(index, q), queries),
        **_finish(sampler),
    }


def phase_subcode_search(spec: dict) -> dict:
    # query codes come from the dataset file so index files stay untouched
    # until the cold pass
    queries_source = dataset_read(spec["dataset_path"])
    radius = spec["radius"]
    queries = [QuerySpec(queries_source.code(i), radius) for i in spec["query_ids"]]
    del queries_source
    sampler = ResidentSampler().start()
    start = time.perf_counter()
    manifest = subcode_open(spec["index_dir"])
    open_seconds = time.perf_counter() - start
    result = {
        "open_seconds": open_seconds,
        "build_calls": subcode_mod.BUILD_CALLS,
        **_cold_and_warm(lambda q: subcode_range_search(manifest, q), queries),
        **_finish(sampler),
    }
    manifest.close()
    return result


def phase_restart_probe(spec: dict) -> dict:
    """Open an existing index with no rebuild and answer queries; the parent
    verifies the results and that no build path ran in this process."""
    start = time.perf_counter()
    manifest = subcode_open(spec["index_dir"])
    open_seconds = time.perf_counter() - start
    results = {}
    for qid in spec["query_ids"]:
        code = subcode_mod.read_code(manifest, qid)
        found = subcode_range_search(manifest, QuerySpec(code, spec["radius"]))
        results[str(qid)] = [
            [int(i), int(d)] for i, d in zip(found.ids, found.distances)
        ]
    manifest.close()
    return {
        "open_seconds": open_seconds,
        "build_calls": subcode_mod.BUILD_CALLS,
        "results": results,
    }


PHASES = {
    "subcode_build": phase_subcode_build,
    "flat_search": phase_flat_search,
    "subcode_search": phase_subcode_search,
    "restart_probe": phase_restart_probe,
}


def main() -> int:
    spec = json.load(sys.stdin)
    phase = PHASES[spec["op"]]
    json.dump(phase(spec), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
