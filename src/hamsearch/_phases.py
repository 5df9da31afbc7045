"""Subprocess entry for measured benchmark phases.

Invoked as `python -m hamsearch._phases` with a JSON phase spec on stdin
(`{"op": ..., ...}`); runs exactly one phase in this fresh process and
prints a JSON result to stdout. Latency statistics travel as the fields of
`bench.LatencyStats`. Keeping each (backend, width, radius) cell in its own
process gives honest cold runs and per-cell resident-memory peaks.

A measured phase reads VmRSS from `/proc/self/status` when it starts and
the kernel's peak, VmHWM, when it ends. VmHWM is the peak of the whole
process, so a phase must load nothing it does not measure: the sub-code
search phase reads only its query rows from the dataset file.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import asdict

from . import subcode as subcode_mod
from .bench import measure_latency
from .core import QuerySpec, dataset_read, dataset_read_codes
from .flat import flat_build, flat_range_search
from .subcode import plan_geometry, subcode_build, subcode_open, subcode_range_search


def _cold_and_warm(search, queries) -> dict:
    """A cold pass, then a warm-up pass and a warm measured pass."""
    cold = measure_latency(search, queries, warmup=False)
    warm = measure_latency(search, queries, warmup=True)
    return {"cold": asdict(cold), "warm": asdict(warm)}


def _status_bytes(field: str) -> int | None:
    """A `/proc/self/status` field such as VmRSS or VmHWM in bytes, or None
    on a platform without /proc."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith(field + ":"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        return None
    return None


def _finish(resident_start: int | None) -> dict:
    """Resident fields of a phase result. The start is VmRSS when the phase
    began (interpreter, numpy and imports) and the peak is the process's
    VmHWM now, so peak - start is the memory the measured work added."""
    peak = _status_bytes("VmHWM")
    if resident_start is None or peak is None:
        return {
            "resident_bytes_start": None,
            "resident_bytes_peak": None,
            "rss_note": "rss-unavailable",
        }
    return {
        "resident_bytes_start": resident_start,
        "resident_bytes_peak": peak,
        "rss_note": "",
    }


def phase_subcode_build(spec: dict) -> dict:
    resident_start = _status_bytes("VmRSS")
    dataset = dataset_read(spec["dataset_path"])
    geometry = plan_geometry(dataset.width_bits, spec["sub_width"])
    start = time.perf_counter()
    manifest = subcode_build(dataset, geometry, spec["shard_count"], spec["index_dir"])
    build_seconds = time.perf_counter() - start
    manifest.close()
    return {"build_seconds": build_seconds, **_finish(resident_start)}


def phase_flat_search(spec: dict) -> dict:
    resident_start = _status_bytes("VmRSS")
    dataset = dataset_read(spec["dataset_path"])
    start = time.perf_counter()
    index = flat_build(dataset, spec["workers"])
    build_seconds = time.perf_counter() - start
    radius = spec["radius"]
    queries = [QuerySpec(dataset.code(i), radius) for i in spec["query_ids"]]
    return {
        "build_seconds": build_seconds,
        **_cold_and_warm(lambda q: flat_range_search(index, q), queries),
        **_finish(resident_start),
    }


def phase_subcode_search(spec: dict) -> dict:
    # query codes come from the dataset file so index files stay untouched
    # until the cold pass; only their rows are read, so the dataset never
    # enters the peak
    resident_start = _status_bytes("VmRSS")
    radius = spec["radius"]
    queries = [
        QuerySpec(code, radius)
        for code in dataset_read_codes(spec["dataset_path"], spec["query_ids"])
    ]
    start = time.perf_counter()
    manifest = subcode_open(spec["index_dir"])
    open_seconds = time.perf_counter() - start
    result = {
        "open_seconds": open_seconds,
        "build_calls": subcode_mod.BUILD_CALLS,
        **_cold_and_warm(lambda q: subcode_range_search(manifest, q), queries),
        **_finish(resident_start),
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
