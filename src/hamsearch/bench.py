"""Benchmark harness: builds both backends over identical data, measures
indexing time, per-radius search latency (cold and warm), and resident
memory, checks cross-backend exactness, and emits report.csv / report.md.

Latency and memory phases run in fresh subprocesses (one per backend, width
and radius cell) so that cold runs really start with an unprimed process and
resident figures describe exactly one backend workload. A width's latency
cells are only measured after an in-process equivalence gate has shown flat,
sub-code and oracle results identical on sampled queries; a fast wrong
answer must never be benchmarked.
"""

from __future__ import annotations

import csv
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .core import (
    BinaryCode,
    CodeDataset,
    NeighborSet,
    QuerySpec,
    dataset_read,
    dataset_write,
    range_search_oracle,
)
from .datagen import SyntheticSpec, gen_synthetic
from .flat import DEFAULT_WORKERS, flat_build, flat_range_search
from .subcode import (
    DEFAULT_SHARDS,
    filter_bypassed,
    plan_geometry,
    subcode_open,
    subcode_range_search,
)

DEFAULT_WIDTHS = (64, 256, 1024, 4096)
DEFAULT_RADIUS_GRID = {
    64: (3, 7, 11),
    256: (15, 31, 47),
    1024: (63, 127, 191),
    4096: (255, 511, 767),
}
# corpus size at which the nominal query_count applies unscaled; smaller
# datasets and wider codes proportionally shrink the per-cell query count
FULL_SCALE_COUNT = 2_800_000


class BenchPhaseError(RuntimeError):
    """A measurement subprocess failed."""


@dataclass
class BenchConfig:
    """Configuration of one benchmark suite run."""

    widths: tuple = DEFAULT_WIDTHS
    radius_grid: dict = field(default_factory=lambda: dict(DEFAULT_RADIUS_GRID))
    dataset_count: int = 500_000
    query_count: int = 10_000
    workers: int = DEFAULT_WORKERS
    shard_count: int = DEFAULT_SHARDS
    sub_width: int = 8
    seed: int = 20_240_817
    cluster_count: int = 0
    flip_probability: float = 0.0
    out_dir: str = "bench-out"

    def __post_init__(self):
        self.widths = tuple(int(w) for w in self.widths)
        self.radius_grid = {int(k): tuple(int(r) for r in v) for k, v in self.radius_grid.items()}
        if self.dataset_count < 1:
            raise ValueError("dataset_count must be >= 1")
        if self.query_count < 1:
            raise ValueError("query_count must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        for w in self.widths:
            plan_geometry(w, self.sub_width)
            if w not in self.radius_grid:
                raise ValueError(f"no radius grid configured for width {w}")
            for r in self.radius_grid[w]:
                if not 0 <= r <= w:
                    raise ValueError(f"radius {r} out of range for width {w}")


def int_list(text: str) -> tuple:
    """A comma-separated list of integers, such as "3,7,11"."""
    return tuple(int(x) for x in text.split(","))


def radius_entry(width: str, radii: str) -> tuple:
    """One (width, radii) entry of the radius grid, from `radii.W=R1,R2`
    in a config file or `--radii W:R1,R2` on the command line."""
    return int(width), int_list(radii)


# The bench settings: config-file key (also the `--<key>` command-line
# flag) -> (BenchConfig field, converter, help). The radius grid is set
# per width through radius_entry instead.
_CONFIG_KEYS = {
    "widths": ("widths", int_list, "comma-separated code widths"),
    "count": ("dataset_count", int, "dataset size"),
    "queries": ("query_count", int, "nominal query count"),
    "workers": ("workers", int, "flat worker threads"),
    "shards": ("shard_count", int, "sub-code shards"),
    "sub-width": ("sub_width", int, "sub-code width in bits"),
    "seed": ("seed", int, "dataset and query seed"),
    "clusters": ("cluster_count", int, "cluster centres (0: uniform codes)"),
    "flip-prob": ("flip_probability", float, "bit-flip probability around a centre"),
    "out": ("out_dir", str, "output directory"),
}


def parse_config_file(path) -> dict:
    """Parse the flat key=value config format into BenchConfig kwargs."""
    kwargs: dict = {}
    radii: dict = {}
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key.startswith("radii."):
                width, grid = radius_entry(key[len("radii."):], value)
                radii[width] = grid
            elif key in _CONFIG_KEYS:
                name, conv, _ = _CONFIG_KEYS[key]
                kwargs[name] = conv(value)
            else:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
    if radii:
        kwargs["radius_grid"] = {**DEFAULT_RADIUS_GRID, **radii}
    return kwargs


def effective_query_count(config: BenchConfig, width_bits: int) -> int:
    """Per-cell query count: the nominal count scaled by corpus size and by
    code width so one cell's scan work stays roughly constant. The floor of
    20 gives way to the dataset size, since queries are distinct codes."""
    scaled = round(
        config.query_count * config.dataset_count / FULL_SCALE_COUNT * 64 / width_bits
    )
    return min(config.dataset_count, max(20, min(config.query_count, scaled)))


@dataclass
class LatencyStats:
    mean_ms: float
    p50_ms: float
    p95_ms: float
    query_count: int

    @classmethod
    def from_times(cls, seconds: np.ndarray) -> "LatencyStats":
        ms = np.asarray(seconds, dtype=np.float64) * 1e3
        return cls(
            float(ms.mean()),
            float(np.percentile(ms, 50)),
            float(np.percentile(ms, 95)),
            int(ms.size),
        )


def measure_latency(search, queries, *, warmup: bool = True) -> LatencyStats:
    """Per-query wall times over a sequential pass; optional warm-up pass
    (excluded from the stats) for warm-condition runs."""
    if len(queries) == 0:
        raise ValueError("empty query set")
    if warmup:
        for q in queries:
            search(q)
    times = np.empty(len(queries))
    for i, q in enumerate(queries):
        t0 = time.perf_counter()
        search(q)
        times[i] = time.perf_counter() - t0
    if np.any(times < 0):
        raise RuntimeError("negative interval from monotonic clock")
    return LatencyStats.from_times(times)


@dataclass
class EquivalenceFailure:
    query_index: int
    radius: int
    backend: str
    missing: list
    extra: list


@dataclass
class EquivalenceReport:
    checked: int
    failures: list

    @property
    def passed(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        if self.passed:
            return f"pass ({self.checked} query/radius pairs)"
        f = self.failures[0]
        return (
            f"FAIL: {len(self.failures)} of {self.checked} checks; first at "
            f"query {f.query_index} radius {f.radius} backend {f.backend}: "
            f"missing ids {f.missing[:5]}, extra ids {f.extra[:5]}"
        )


def verify_equivalence(dataset: CodeDataset, queries, radii, *,
                       flat_index, manifest) -> EquivalenceReport:
    """Assert flat, sub-code and exhaustive-oracle results identical for
    every query x radius; failures pinpoint the symmetric difference."""
    failures = []
    checked = 0
    for qi, code in enumerate(queries):
        # one oracle pass per query at the widest radius serves every radius
        truth = range_search_oracle(dataset, QuerySpec(code, max(radii)))
        for radius in radii:
            checked += 1
            keep = truth.distances <= radius
            expected = NeighborSet(truth.ids[keep], truth.distances[keep])
            spec = QuerySpec(code, radius)
            for backend, search in (
                ("flat", lambda s: flat_range_search(flat_index, s)),
                ("subcode", lambda s: subcode_range_search(manifest, s)),
            ):
                got = search(spec)
                if got != expected:
                    # an id with a wrong distance is both missing and extra
                    want, have = expected.as_set(), got.as_set()
                    failures.append(
                        EquivalenceFailure(
                            query_index=qi,
                            radius=radius,
                            backend=backend,
                            missing=sorted(i for i, _ in want - have),
                            extra=sorted(i for i, _ in have - want),
                        )
                    )
    return EquivalenceReport(checked=checked, failures=failures)


@dataclass
class BenchRow:
    backend: str
    width_bits: int
    radius: int
    warm: bool
    status: str = "ok"
    build_seconds: float | None = None
    open_seconds: float | None = None
    latency_mean_ms: float | None = None
    latency_p50_ms: float | None = None
    latency_p95_ms: float | None = None
    resident_bytes_peak: int | None = None
    filter_bypass: bool | None = None
    query_count: int | None = None
    rss_note: str = ""


@dataclass
class RestartCheck:
    """Restart asymmetry: a fresh process must serve sub-code queries with
    zero rebuild work (no build-path execution), while the flat backend has
    to rebuild in full."""

    width_bits: int
    subcode_build_seconds: float
    subcode_open_seconds: float
    subcode_build_calls_on_open: int
    flat_rebuild_seconds: float

    @property
    def passed(self) -> bool:
        return self.subcode_build_calls_on_open == 0 and self.flat_rebuild_seconds > 0


@dataclass
class BenchReport:
    config: BenchConfig
    environment: dict
    rows: list
    restart_checks: list
    equivalence: dict  # width -> EquivalenceReport

    def write(self, out_dir) -> None:
        out = Path(out_dir)
        self.to_csv(out / "report.csv")
        self.to_markdown(out / "report.md")

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=[c.name for c in fields(BenchRow)])
            writer.writeheader()
            for row in self.rows:
                record = asdict(row)
                record["warm"] = "warm" if row.warm else "cold"
                for key, value in record.items():
                    if value is None:
                        record[key] = ""
                writer.writerow(record)

    def _cell(self, backend, width, radius, warm, attr, fmt):
        for row in self.rows:
            if (row.backend, row.width_bits, row.radius, row.warm) == (
                backend, width, radius, warm,
            ):
                if row.status != "ok":
                    return row.status
                value = getattr(row, attr)
                return fmt(value) if value is not None else row.rss_note or "n/a"
        return "missing"

    def to_markdown(self, path) -> None:
        cfg = asdict(self.config)
        cfg["radius_grid"] = {k: list(v) for k, v in cfg["radius_grid"].items()}
        lines = ["# Hamming-space backend comparison", ""]
        lines.append("## Environment")
        lines.append("")
        for key, value in self.environment.items():
            lines.append(f"- {key}: {value}")
        lines.append(f"- config: `{json.dumps(cfg)}`")
        lines.append("")

        lines.append("## Indexing time")
        lines.append("")
        lines.append("| bits | flat (s) | subcode (s) |")
        lines.append("|---:|---:|---:|")
        for m in self.config.widths:
            r0 = self.config.radius_grid[m][0]
            flat = self._cell("flat", m, r0, True, "build_seconds", lambda v: f"{v:.2f}")
            sub = self._cell("subcode", m, r0, True, "build_seconds", lambda v: f"{v:.2f}")
            lines.append(f"| {m} | {flat} | {sub} |")
        lines.append("")

        for warm in (True, False):
            label = "warm" if warm else "cold"
            lines.append(f"## Search latency ({label}, mean ms)")
            lines.append("")
            lines.append("| bits | r | flat (ms) | subcode (ms) | subcode path |")
            lines.append("|---:|---:|---:|---:|:---|")
            for m in self.config.widths:
                for r in self.config.radius_grid[m]:
                    flat = self._cell("flat", m, r, warm, "latency_mean_ms", lambda v: f"{v:.2f}")
                    sub = self._cell("subcode", m, r, warm, "latency_mean_ms", lambda v: f"{v:.2f}")
                    path_note = self._cell(
                        "subcode", m, r, warm, "filter_bypass",
                        lambda v: "full scan" if v else "filter+verify",
                    )
                    lines.append(f"| {m} | {r} | {flat} | {sub} | {path_note} |")
            lines.append("")

        lines.append("## Resident memory (peak bytes during search)")
        lines.append("")
        lines.append("| bits | r | flat | subcode |")
        lines.append("|---:|---:|---:|---:|")
        for m in self.config.widths:
            for r in self.config.radius_grid[m]:
                flat = self._cell(
                    "flat", m, r, True, "resident_bytes_peak", _format_bytes
                )
                sub = self._cell(
                    "subcode", m, r, True, "resident_bytes_peak", _format_bytes
                )
                lines.append(f"| {m} | {r} | {flat} | {sub} |")
        lines.append("")

        lines.append("## Restart behavior")
        lines.append("")
        lines.append(
            "| bits | subcode build (s) | subcode reopen (s) | rebuild on open | "
            "flat rebuild (s) | pass |"
        )
        lines.append("|---:|---:|---:|:---|---:|:---|")
        for check in self.restart_checks:
            lines.append(
                f"| {check.width_bits} | {check.subcode_build_seconds:.2f} | "
                f"{check.subcode_open_seconds:.4f} | "
                f"{'no' if check.subcode_build_calls_on_open == 0 else 'YES'} | "
                f"{check.flat_rebuild_seconds:.3f} | "
                f"{'yes' if check.passed else 'NO'} |"
            )
        lines.append("")

        lines.append("## Equivalence gate")
        lines.append("")
        for m in self.config.widths:
            report = self.equivalence.get(m)
            note = report.describe() if report is not None else "not run"
            lines.append(f"- m={m}: {note}")
        lines.append("")
        lines.append(
            "Latency columns are only emitted for widths whose equivalence gate "
            "passed. Cold runs use a fresh process per cell; no attempt is made "
            "to evict the operating-system file cache, so cold sub-code numbers "
            "reflect an unprimed process, not necessarily an unprimed disk cache. "
            "Flat latency includes result assembly, not just the scan."
        )
        lines.append("")
        Path(path).write_text("\n".join(lines))


def _format_bytes(value) -> str:
    if value is None:
        return "n/a"
    return f"{value / (1024 * 1024):.1f} MiB"


def environment_block(config: BenchConfig) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.lower().startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    mem_total = None
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    mem_total = int(line.split()[1]) * 1024
                    break
    except OSError:
        pass
    return {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu,
        "cpu_count": os.cpu_count(),
        "mem_total_bytes": mem_total,
    }


def _run_phase(spec: dict) -> dict:
    """Run one measurement phase in a fresh interpreter; the spec goes in
    on its stdin and the result comes back on its stdout, both as JSON."""
    proc = subprocess.run(
        [sys.executable, "-m", "hamsearch._phases"],
        input=json.dumps(spec),
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise BenchPhaseError(
            f"phase {spec.get('op')} failed (exit {proc.returncode}): "
            + " | ".join(tail)
        )
    return json.loads(proc.stdout)


def _query_ids(config: BenchConfig, width_bits: int) -> list:
    rng = np.random.default_rng((config.seed, width_bits, 0xC0DE))
    n = effective_query_count(config, width_bits)
    return rng.choice(config.dataset_count, size=n, replace=False).tolist()


def _cells(radii) -> list:
    """A width's (backend, radius, warm) cells, in report order."""
    return [
        (backend, r, warm)
        for backend in ("flat", "subcode")
        for r in radii
        for warm in (False, True)
    ]


def _placeholder_rows(width_rows: dict, m: int, radii, status: str) -> None:
    """Give every cell of width m that has no measured row a row that
    carries only its status."""
    for backend, r, warm in _cells(radii):
        width_rows.setdefault(
            (backend, r, warm),
            BenchRow(backend=backend, width_bits=m, radius=r, warm=warm, status=status),
        )


def run_suite(config: BenchConfig) -> BenchReport:
    """Full protocol: per width, generate data, build both backends, gate on
    equivalence, measure cold+warm latency and resident peaks per radius,
    and check restart asymmetry; emits report.csv and report.md."""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows: list = []
    restart_checks: list = []
    equivalence: dict = {}

    for m in config.widths:
        radii = config.radius_grid[m]
        width_rows: dict = {}
        try:
            _bench_width(
                config, out, m, radii, width_rows, restart_checks, equivalence
            )
        except Exception as exc:  # per-width failure: record and continue
            # a gate that never ran is not recorded, so the report reads
            # "not run" for it rather than a pass over no queries
            _placeholder_rows(width_rows, m, radii, f"error: {exc}")
        rows.extend(width_rows[key] for key in _cells(radii))

    report = BenchReport(
        config=config,
        environment=environment_block(config),
        rows=rows,
        restart_checks=restart_checks,
        equivalence=equivalence,
    )
    report.write(out)
    return report


def _bench_width(config, out, m, radii, width_rows, restart_checks, equivalence):
    geometry = plan_geometry(m, config.sub_width)
    dataset_path = out / f"dataset-m{m}.hds"
    index_dir = out / f"subcode-m{m}"

    dataset = gen_synthetic(
        SyntheticSpec(
            count=config.dataset_count,
            width_bits=m,
            seed=config.seed + m,
            cluster_count=config.cluster_count,
            flip_probability=config.flip_probability,
        )
    )
    dataset_write(dataset, dataset_path)

    build_res = _run_phase(
        {
            "op": "subcode_build",
            "dataset_path": str(dataset_path),
            "index_dir": str(index_dir),
            "sub_width": config.sub_width,
            "shard_count": config.shard_count,
        }
    )
    subcode_build_seconds = build_res["build_seconds"]

    # equivalence gate (in-process, sub-sampled); full checks live in tests
    gate_rng = np.random.default_rng((config.seed, m, 0xFACE))
    gate_qids = gate_rng.choice(
        config.dataset_count, size=min(5, config.dataset_count), replace=False
    )
    s = geometry.subcode_count
    gate_radii = sorted(
        {0, *radii, *(r for r in (s - 1, s) if 0 <= r <= m), m}
    )
    flat_index = flat_build(dataset, config.workers)
    manifest = subcode_open(index_dir)
    try:
        gate = verify_equivalence(
            dataset,
            [dataset.code(int(i)) for i in gate_qids],
            gate_radii,
            flat_index=flat_index,
            manifest=manifest,
        )
    finally:
        manifest.close()
    equivalence[m] = gate
    del flat_index
    del dataset
    if not gate.passed:
        _placeholder_rows(width_rows, m, radii, "equivalence-failed")
        return

    qids = _query_ids(config, m)
    phase_specs = {
        "flat": {"op": "flat_search", "workers": config.workers},
        "subcode": {"op": "subcode_search", "index_dir": str(index_dir)},
    }
    first: dict = {}  # backend -> result of its first radius's phase
    for r in radii:
        for backend, spec in phase_specs.items():
            res = _run_phase(
                {**spec, "dataset_path": str(dataset_path), "radius": r, "query_ids": qids}
            )
            first.setdefault(backend, res)
            for warm in (False, True):
                stats = LatencyStats(**res["warm" if warm else "cold"])
                width_rows[(backend, r, warm)] = BenchRow(
                    backend=backend, width_bits=m, radius=r, warm=warm,
                    # each flat phase rebuilds its index and times that; the
                    # sub-code index was built once, by the build phase above
                    build_seconds=res.get("build_seconds", subcode_build_seconds),
                    open_seconds=res.get("open_seconds"),
                    latency_mean_ms=stats.mean_ms,
                    latency_p50_ms=stats.p50_ms,
                    latency_p95_ms=stats.p95_ms,
                    resident_bytes_peak=res["resident_bytes_peak"],
                    filter_bypass=backend == "subcode" and filter_bypassed(geometry, r),
                    query_count=stats.query_count,
                    rss_note=res["rss_note"],
                )
    restart_checks.append(
        RestartCheck(
            width_bits=m,
            subcode_build_seconds=subcode_build_seconds,
            subcode_open_seconds=first["subcode"]["open_seconds"],
            subcode_build_calls_on_open=first["subcode"]["build_calls"],
            flat_rebuild_seconds=first["flat"]["build_seconds"],
        )
    )
