"""One measured phase of a benchmark run, in a fresh interpreter.

    python3 benchmark/phases.py setup CONFIG.json [--trace]
    python3 benchmark/phases.py {restart|serve} CONFIG.json QUERY [--trace]

Prints one JSON object as its last line. `setup` builds the index from an
in-memory dataset; `restart` makes the index servable again and answers
query number QUERY; `serve` does the same, then runs the one-client and
two-client closed loops. Each runs in its own process so that its VmHWM is
its own.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
MIB = 1 << 20


def import_program():
    """Import `hamsearch` from the checkout's `src`, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "hamsearch" / "__init__.py").is_file():
        raise ImportError(f"no hamsearch package under {src}")
    sys.path.insert(0, str(src))
    import hamsearch

    if Path(hamsearch.__file__).resolve().parent != (src / "hamsearch").resolve():
        raise ImportError(f"hamsearch was imported from {hamsearch.__file__}")
    return hamsearch


def status_bytes(field: str) -> int:
    """A `/proc/self/status` field such as VmRSS or VmHWM, in bytes."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1]) * 1024
    raise RuntimeError(f"{field} missing from /proc/self/status")


class Backend:
    """The calls one workload makes into the program."""

    def __init__(self, hs, cfg: dict):
        self.hs = hs
        self.cfg = cfg

    def build(self, dataset):
        cfg = self.cfg
        if cfg["backend"] == "flat":
            return self.hs.flat_build(dataset, cfg["workers"])
        geometry = self.hs.plan_geometry(cfg["width_bits"], cfg["sub_width"])
        return self.hs.subcode_build(dataset, geometry, cfg["shards"], cfg["index_dir"])

    def restart(self):
        cfg = self.cfg
        if cfg["backend"] == "flat":
            return self.hs.flat_build(self.hs.dataset_read(cfg["hds_path"]), cfg["workers"])
        return self.hs.subcode_open(cfg["index_dir"])

    def search(self, index, spec):
        if self.cfg["backend"] == "flat":
            return self.hs.flat_range_search(index, spec)
        return self.hs.subcode_range_search(index, spec)

    def release(self, index):
        # a flat index has no close(); its worker threads end with the process
        if self.cfg["backend"] == "subcode":
            index.close()


def _tracer(enabled: bool):
    if not enabled:
        return None
    from tracer import Tracer

    return Tracer()


def phase_setup(hs, cfg: dict, trace: bool) -> dict:
    """`builds` builds from a dataset already in memory: their wall times,
    and the peak resident memory the first one added."""
    backend = Backend(hs, cfg)
    dataset = hs.CodeDataset(cfg["width_bits"], np.load(cfg["codes_path"]))
    tracer = _tracer(trace)
    if tracer:
        tracer.install()
    rss_before = status_bytes("VmRSS")
    times = []
    for _ in range(cfg["builds"]):
        start = time.perf_counter()
        index = backend.build(dataset)
        times.append(time.perf_counter() - start)
        if len(times) == 1:
            peak = status_bytes("VmHWM")
        backend.release(index)
        del index
    out = {"setup_s": times, "setup_rss_mib": (peak - rss_before) / MIB}
    if tracer:
        tracer.uninstall()
        out["layers"] = {
            "subcode.build_s": tracer.stats["subcode.subcode_build"].ns / 1e9 / len(times),
            "varint.encode_s": tracer.stats["varint.encode"].ns / 1e9 / len(times),
        }
    return out


def _query_specs(hs, cfg: dict):
    queries = np.load(cfg["queries_path"])
    return [hs.QuerySpec(hs.BinaryCode(cfg["width_bits"], q), cfg["radius"]) for q in queries]


class Session:
    """Queries against one opened index. Counts failures, and compares each
    answer with the warm-up pass's answer to the same query as soon as its
    pass ends, so that no pass's answers stay resident."""

    def __init__(self, backend: Backend, index, specs):
        self.backend = backend
        self.index = index
        self.specs = specs
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self._lock = threading.Lock()
        # the two clients live as long as the session, as a client's threads would
        self._clients = ThreadPoolExecutor(max_workers=2)

    def close(self) -> None:
        self._clients.shutdown()

    def query(self, spec):
        try:
            return self.backend.search(self.index, spec)
        except Exception as exc:  # a failed query is counted, not fatal
            print(f"query failed: {exc!r}", file=sys.stderr)
            with self._lock:
                self.failed += 1
            return None

    def warm_up(self) -> float:
        """One untimed pass over the whole list; its answers become the
        reference. Returns the pass's wall time."""
        start = time.perf_counter()
        self.reference = [self.query(spec) for spec in self.specs]
        self.attempted += len(self.specs)
        return time.perf_counter() - start

    def _settle(self, ids, results) -> None:
        self.attempted += len(ids)
        self.mismatches += sum(not _same(r, self.reference[i]) for i, r in zip(ids, results))

    def single_client(self, ids) -> np.ndarray:
        """Closed loop with one client over `ids`; latencies in seconds."""
        lat = np.empty(len(ids))
        out = []
        for j, i in enumerate(ids):
            start = time.perf_counter()
            out.append(self.query(self.specs[i]))
            lat[j] = time.perf_counter() - start
        self._settle(ids, out)
        return lat

    def two_clients(self, ids) -> float:
        """Closed loop with two threads sharing one cursor over `ids`.
        Returns queries per second while both clients were busy, that is,
        until the first one found the cursor empty."""
        out = [None] * len(ids)
        done = []
        idle = []
        cursor = iter(range(len(ids)))
        lock = threading.Lock()

        def client():
            while True:
                with lock:
                    j = next(cursor, None)
                if j is None:
                    idle.append(time.perf_counter())
                    return
                out[j] = self.query(self.specs[ids[j]])
                done.append(time.perf_counter())

        start = time.perf_counter()
        for f in [self._clients.submit(client) for _ in range(2)]:
            f.result()
        self._settle(ids, out)
        first_idle = min(idle)
        return sum(t <= first_idle for t in done) / (first_idle - start)

    def rounds(self, budget: float, pass_seconds: float, slice_seconds: float = 1.0):
        """Alternate one-client and two-client runs over slices of the list
        of about `slice_seconds` each, so that both see the same stretch of
        a shared machine's interference, until the next round would end
        past `budget` seconds; at least one whole pass over the list.
        Returns (one-client latencies, two-client queries per second of
        each round)."""
        count = max(1, min(len(self.specs) // 20, round(pass_seconds / slice_seconds)))
        slices = np.array_split(np.arange(len(self.specs)), count)
        latencies, rates = [], []
        start = time.perf_counter()
        while True:
            ids = slices[len(rates) % count]
            latencies.append(self.single_client(ids))
            rates.append(self.two_clients(ids))
            done = len(rates)
            if done >= count and (time.perf_counter() - start) * (done + 1) / done > budget:
                return np.concatenate(latencies), rates

    def passes(self, budget: float) -> np.ndarray:
        """One-client passes over the whole list until the next would end
        past `budget` seconds; at least one. Returns the latencies."""
        everything = np.arange(len(self.specs))
        latencies = []
        start = time.perf_counter()
        while True:
            latencies.append(self.single_client(everything))
            done = len(latencies)
            if (time.perf_counter() - start) * (done + 1) / done > budget:
                return np.concatenate(latencies)


def _same(a, b) -> bool:
    return a is not None and b is not None and a == b


def phase_restart(hs, cfg: dict, first_query: int, trace: bool, serve: bool = False) -> dict:
    backend = Backend(hs, cfg)
    specs = _query_specs(hs, cfg)
    tracer = _tracer(trace)
    if tracer:
        tracer.install()
    rss_before = status_bytes("VmRSS")
    start = time.perf_counter()
    index = backend.restart()
    session = Session(backend, index, specs)
    first = session.query(specs[first_query])
    restart_s = time.perf_counter() - start
    if not serve:
        session.close()
        backend.release(index)
        return {"restart_s": restart_s, "attempted": 1, "failed": session.failed,
                "first": _pairs(first)}
    if tracer:
        tracer.uninstall()
        restart_stats = tracer.stats
        tracer.reset()

    pass_seconds = session.warm_up()
    # the single-client peak: read before any concurrent query runs
    peak = status_bytes("VmHWM")
    seconds = cfg["seconds"]
    latencies, rates = session.rounds(seconds * 2 / 3 if trace else seconds, pass_seconds)
    mean_s = float(latencies.mean())
    qps = float(np.median(rates))
    out = {
        "restart_s": restart_s,
        "query_p50_ms": float(np.percentile(latencies, 50)) * 1e3,
        "query_p95_ms": float(np.percentile(latencies, 95)) * 1e3,
        "throughput_qps": qps,
        "serve_rss_mib": (peak - rss_before) / MIB,
    }
    if tracer:
        tracer.install()
        traced = session.passes(seconds / 3)
        tracer.uninstall()
        out["layers"] = _layers(restart_stats, tracer.stats, traced.size, session.reference)
        out["layers"]["load.query_p95_ms"] = out["query_p95_ms"]
        out["layers"]["load.throughput_qps"] = qps
        out["layers"]["load.concurrency_gain"] = qps * mean_s
        out["layers"]["trace.overhead_pct"] = (float(traced.mean()) / mean_s - 1.0) * 100.0
        out["trace_missing"] = tracer.missing
    out["attempted"] = 1 + session.attempted
    out["failed"] = session.failed
    out["mismatches"] = session.mismatches + (not _same(first, session.reference[first_query]))
    np.savez(cfg["results_path"], **_pack(session.reference))
    session.close()
    backend.release(index)
    return out


def _layers(restart: dict, query: dict, queries: int, reference) -> dict:
    """Per-layer metrics from the restart's and the traced pass's counters."""

    def per_query(value):
        return value / queries

    def ratio(num, den):
        return num / den if den else 0.0

    kernel = query["core.hamming_distances"]
    flat_search = query["flat.flat_range_search"]
    cand = query["subcode.candidate_filter"]
    ver = query["subcode.verify"]
    pread = query["io.pread"]
    decode = query["varint.decode_with_ends"]
    return {
        "core.kernel_rows_per_query": per_query(kernel.items),
        "core.kernel_ms_per_query": per_query(kernel.ms),
        "core.dataset_read_ms": restart["core.dataset_read"].ms,
        "flat.build_ms": restart["flat.flat_build"].ms,
        "flat.kernel_busy_per_wall": ratio(kernel.ns, flat_search.ns),
        "subcode.open_ms": restart["subcode.subcode_open"].ms,
        "subcode.filter_ms_per_query": per_query(cand.ms),
        "subcode.filter_self_ms_per_query": per_query(cand.self_ms),
        "subcode.verify_ms_per_query": per_query(ver.ms),
        "subcode.scan_ms_per_query": per_query(query["subcode.scan_shard"].ms),
        "subcode.candidates_per_query": per_query(cand.items),
        "subcode.hits_per_candidate": ratio(ver.items, cand.items),
        "varint.decode_ms_per_query": per_query(decode.ms),
        "varint.ids_decoded_per_query": per_query(decode.items),
        "io.pread_calls_per_query": per_query(pread.calls),
        "io.pread_bytes_per_query": per_query(pread.items),
        "io.pread_ms_per_query": per_query(pread.ms),
        "query.hits_per_query": sum(len(r) for r in reference if r is not None) / len(reference),
    }


def _pairs(result):
    """A NeighborSet as (ids, distances) lists, or None if it failed."""
    if result is None:
        return None
    return (result.ids.tolist(), result.distances.tolist())


def _pack(results) -> dict:
    bounds = np.zeros(len(results) + 1, dtype=np.int64)
    ok = np.array([r is not None for r in results])
    sizes = [len(r) if r is not None else 0 for r in results]
    np.cumsum(sizes, out=bounds[1:])
    ids = [r.ids for r in results if r is not None]
    dists = [r.distances for r in results if r is not None]
    return {
        "ok": ok,
        "bounds": bounds,
        "ids": np.concatenate(ids) if ids else np.zeros(0, np.uint32),
        "distances": np.concatenate(dists) if dists else np.zeros(0, np.uint32),
    }


def main(argv: list[str]) -> int:
    trace = "--trace" in argv
    kind, cfg_path, *rest = [a for a in argv if a != "--trace"]
    hs = import_program()
    cfg = json.loads(Path(cfg_path).read_text())
    if kind == "setup":
        out = phase_setup(hs, cfg, trace)
    elif kind == "restart":
        out = phase_restart(hs, cfg, int(rest[0]), trace)
    elif kind == "serve":
        out = phase_restart(hs, cfg, int(rest[0]), trace, serve=True)
    else:
        raise SystemExit(f"unknown phase {kind!r}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
