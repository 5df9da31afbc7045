"""End-to-end benchmark of the flat and sub-code backends of `hamsearch`.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --all [--seed N] [--seconds S]

Run from the root of a checkout. One run makes the workload's inputs from
the seed, builds the index in fresh processes (setup), restarts it in
fresh processes, drives queries against it for about S seconds, checks
every answer with an independent popcount, and prints one JSON object as
its last line. With `--trace 0` the metrics are the end-to-end ones; with
`--trace 1` they are the per-layer ones, counted by wrapping the program's
functions from outside. `--all` runs every workload untraced and prints
each metric by name and unit. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from phases import MIB, ROOT, import_program  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Workload,
    brute_force,
    make_inputs,
    popcount_distances,
)

WORK_DIR = ROOT / ".bench_work"
PHASE_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "setup_rss_mib": "MiB",
    "restart_s": "s",
    "query_p50_ms": "ms",
    "serve_rss_mib": "MiB",
    "stored_mib": "MiB",
}

PER_LAYER = {
    "core.kernel_rows_per_query": "count",
    "core.kernel_ms_per_query": "ms",
    "core.dataset_read_ms": "ms",
    "flat.build_ms": "ms",
    "flat.kernel_busy_per_wall": "ratio",
    "subcode.open_ms": "ms",
    "subcode.build_s": "s",
    "varint.encode_s": "s",
    "subcode.index_bytes_per_code_byte": "ratio",
    "subcode.filter_ms_per_query": "ms",
    "subcode.filter_self_ms_per_query": "ms",
    "subcode.verify_ms_per_query": "ms",
    "subcode.scan_ms_per_query": "ms",
    "subcode.candidates_per_query": "count",
    "subcode.hits_per_candidate": "ratio",
    "varint.decode_ms_per_query": "ms",
    "varint.ids_decoded_per_query": "count",
    "io.pread_calls_per_query": "count",
    "io.pread_bytes_per_query": "B",
    "io.pread_ms_per_query": "ms",
    "query.hits_per_query": "count",
    "load.query_p95_ms": "ms",
    "load.throughput_qps": "queries/s",
    "load.concurrency_gain": "ratio",
    "trace.overhead_pct": "%",
}


class BenchError(RuntimeError):
    """A phase failed or produced no result."""


def run_phase(kind: str, cfg_path: Path, *args, trace: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "phases.py"), kind, str(cfg_path), *map(str, args)]
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PHASE_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{kind} phase failed:\n{proc.stderr}")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{kind} phase printed no result")
    return json.loads(lines[-1])


def flush(directory: Path) -> None:
    """Write back the benchmark's own files, so that the kernel does not
    flush them while a later phase is being timed."""
    for path in directory.rglob("*"):
        if path.is_file():
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def _tree_bytes(path: Path) -> int:
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def check_results(workload: Workload, codes, query_ids, results, seed: int) -> list[str]:
    """Independent checks of the single-client answers; returns the errors.

    Every reported (id, d) must have d recomputed by the benchmark's own
    popcount, d <= r, unique ids and the query's own row at distance 0. A
    seeded sample of queries must match a full brute force exactly.
    """
    errors = []
    bounds, ids_all, dists_all, ok = (
        results["bounds"], results["ids"], results["distances"], results["ok"]
    )
    for i, qid in enumerate(query_ids):
        if not ok[i]:
            continue
        ids = ids_all[bounds[i]:bounds[i + 1]].astype(np.int64)
        dists = dists_all[bounds[i]:bounds[i + 1]].astype(np.int64)
        query = codes[qid]
        if ids.size and (ids.min() < 0 or ids.max() >= codes.shape[0]):
            errors.append(f"query {i}: id out of range")
            continue
        if np.unique(ids).size != ids.size:
            errors.append(f"query {i}: duplicate ids")
        if not np.array_equal(popcount_distances(codes[ids], query), dists):
            errors.append(f"query {i}: reported distance differs from popcount")
        if ids.size and dists.max() > workload.radius:
            errors.append(f"query {i}: distance beyond radius")
        own = np.flatnonzero(ids == qid)
        if own.size != 1 or dists[own[0]] != 0:
            errors.append(f"query {i}: own row missing at distance 0")
    rng = np.random.default_rng([seed, 1])
    for i in rng.choice(len(query_ids), size=workload.brute_force_samples, replace=False):
        if not ok[i]:
            continue
        want_ids, want_dists = brute_force(codes, codes[query_ids[i]], workload.radius)
        got_ids = ids_all[bounds[i]:bounds[i + 1]]
        got_dists = dists_all[bounds[i]:bounds[i + 1]]
        if not (np.array_equal(got_ids, want_ids) and np.array_equal(got_dists, want_dists)):
            errors.append(f"query {i}: result differs from brute force")
    return errors


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 work_root: Path = WORK_DIR) -> dict:
    hs = import_program()
    work = work_root / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(hs, workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(hs, workload: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    codes, query_ids = make_inputs(workload, seed)
    cfg = {
        "backend": workload.backend,
        "width_bits": workload.width_bits,
        "radius": workload.radius,
        "sub_width": workload.sub_width,
        "shards": workload.shards,
        "workers": workload.workers,
        "builds": workload.builds,
        "seconds": seconds,
        "codes_path": str(work / "codes.npy"),
        "queries_path": str(work / "queries.npy"),
        "hds_path": str(work / "codes.hds"),
        "index_dir": str(work / "index"),
        "results_path": str(work / "results.npz"),
    }
    np.save(cfg["codes_path"], codes)
    np.save(cfg["queries_path"], codes[query_ids])
    if workload.backend == "flat":
        hs.dataset_write(hs.CodeDataset(workload.width_bits, codes), cfg["hds_path"])
        stored = Path(cfg["hds_path"])
    else:
        stored = Path(cfg["index_dir"])
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(cfg))

    setups = []
    for _ in range(workload.setup_repeats):
        flush(work)
        setups.append(run_phase("setup", cfg_path, trace=trace))
    flush(work)
    # restart i answers query i first, so that restart_s is not one query's cost
    restarts = [run_phase("restart", cfg_path, i) for i in range(workload.restarts - 1)]
    serve = run_phase("serve", cfg_path, workload.restarts - 1, trace=trace)
    stored_bytes = _tree_bytes(stored)

    with np.load(cfg["results_path"]) as npz:
        results = {k: npz[k] for k in npz.files}
    errors = check_results(workload, codes, query_ids, results, seed)
    bounds = results["bounds"]
    for i, r in enumerate(restarts):
        reference = (
            results["ids"][bounds[i]:bounds[i + 1]].tolist(),
            results["distances"][bounds[i]:bounds[i + 1]].tolist(),
        )
        if r["first"] is not None and tuple(r["first"]) != reference:
            errors.append(f"first query after restart {i} differs from the warm-up pass")
    if serve["mismatches"]:
        errors.append(f"{serve['mismatches']} answers differ from the warm-up pass")
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)

    builds = sum(len(s["setup_s"]) for s in setups)
    attempted = builds + sum(r["attempted"] for r in [*restarts, serve])
    failed = sum(r["failed"] for r in [*restarts, serve])
    if trace:
        layers = {
            key: statistics.median(s["layers"][key] for s in setups) for key in setups[0]["layers"]
        }
        layers.update(serve["layers"])
        layers["subcode.index_bytes_per_code_byte"] = (
            stored_bytes / codes.nbytes if workload.backend == "subcode" else 0.0
        )
        values = {name: layers[name] for name in PER_LAYER}
        units = PER_LAYER
        if serve["trace_missing"]:
            print(f"not traced (missing): {serve['trace_missing']}", file=sys.stderr)
    else:
        values = {
            "setup_s": statistics.median(t for s in setups for t in s["setup_s"]),
            "setup_rss_mib": statistics.median(s["setup_rss_mib"] for s in setups),
            "restart_s": statistics.median([r["restart_s"] for r in [*restarts, serve]]),
            "query_p50_ms": serve["query_p50_ms"],
            "serve_rss_mib": serve["serve_rss_mib"],
            "stored_mib": stored_bytes / MIB,
        }
        units = END_TO_END
    return {
        "correct": not errors,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    try:
        if args.all:
            for name, workload in WORKLOADS.items():
                out = run_workload(workload, args.seed, args.seconds, bool(args.trace))
                print(f"{name}: correct={out['correct']} attempted={out['attempted']} "
                      f"failed={out['failed']}")
                for metric, m in out["metrics"].items():
                    print(f"  {metric} = {m['value']:.6g} {m['unit']}")
            return 0
        out = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except (ImportError, BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
