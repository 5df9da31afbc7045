import csv
import dataclasses
import json
import time

import pytest

import hamsearch.bench as bench_mod
from hamsearch import (
    BenchConfig,
    NeighborSet,
    QuerySpec,
    dataset_write,
    effective_query_count,
    flat_build,
    flat_range_search,
    measure_latency,
    plan_geometry,
    run_suite,
    subcode_build,
    verify_equivalence,
)
import hamsearch._phases as phases_mod
from hamsearch.bench import LatencyStats, parse_config_file

from conftest import random_dataset


TINY = dict(
    widths=(64,),
    radius_grid={64: (3, 7, 11)},
    dataset_count=3000,
    query_count=60,
    workers=2,
    shard_count=3,
    sub_width=8,
    seed=5,
)


# --- config -------------------------------------------------------------------

def test_config_defaults_match_comparison_protocol():
    config = BenchConfig()
    assert config.widths == (64, 256, 1024, 4096)
    assert config.radius_grid[64] == (3, 7, 11)
    assert config.radius_grid[4096] == (255, 511, 767)
    assert config.workers == 5
    assert config.shard_count == 5
    assert config.query_count == 10_000
    assert config.dataset_count == 500_000


def test_config_rejects_radius_beyond_width():
    with pytest.raises(ValueError):
        BenchConfig(widths=(64,), radius_grid={64: (65,)})


def test_config_file_parsing(tmp_path):
    path = tmp_path / "bench.cfg"
    path.write_text(
        """
        # comment
        widths=64,256
        count=1234
        queries=99
        shards=3
        sub-width=16
        radii.64=1,2,3   # inline comment
        """
    )
    kwargs = parse_config_file(path)
    assert kwargs["widths"] == (64, 256)
    assert kwargs["dataset_count"] == 1234
    assert kwargs["query_count"] == 99
    assert kwargs["shard_count"] == 3
    assert kwargs["radius_grid"][64] == (1, 2, 3)
    assert kwargs["radius_grid"][256] == (15, 31, 47)  # default kept


def test_config_file_bad_key(tmp_path):
    path = tmp_path / "bench.cfg"
    path.write_text("bogus=1\n")
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config_file(path)


def test_effective_query_count_scales():
    config = BenchConfig(dataset_count=2_800_000)
    assert effective_query_count(config, 64) == 10_000
    smaller = BenchConfig(dataset_count=280_000)
    assert effective_query_count(smaller, 64) == 1000
    assert effective_query_count(smaller, 4096) < 1000
    tiny = BenchConfig(dataset_count=100)
    assert effective_query_count(tiny, 64) == 20
    # the floor of 20 gives way to a dataset of fewer codes
    assert effective_query_count(BenchConfig(dataset_count=10), 64) == 10


# --- measurement ops ------------------------------------------------------------

def test_measure_latency_empty_query_set():
    with pytest.raises(ValueError, match="empty query set"):
        measure_latency(lambda q: q, [])


def test_measure_latency_stats_shape():
    calls = []

    def fake_search(q):
        calls.append(q)
        time.sleep(0.0002)

    stats = measure_latency(fake_search, list(range(10)), warmup=True)
    assert len(calls) == 20  # warm-up pass plus measured pass
    assert stats.query_count == 10
    assert stats.mean_ms > 0
    assert stats.p50_ms <= stats.p95_ms


@pytest.fixture(scope="module")
def code_file_32mib(tmp_path_factory):
    """32 MiB of codes (262144 x 1024 bits) and a sub-code index over them."""
    tmp = tmp_path_factory.mktemp("net32")
    ds = random_dataset(262_144, 1024, seed=73)
    dataset_write(ds, tmp / "d.hds")
    subcode_build(ds, plan_geometry(1024, 8), 3, tmp / "idx").close()
    spec = {
        "dataset_path": str(tmp / "d.hds"),
        "index_dir": str(tmp / "idx"),
        "workers": 2,
        "radius": 3,
        "query_ids": list(range(0, 262_144, 13_107)),
    }
    return spec, ds.codes.nbytes


def _net(res) -> int:
    if res["rss_note"] == "rss-unavailable":
        pytest.skip("no /proc on this platform")
    return res["resident_bytes_peak"] - res["resident_bytes_start"]


def test_flat_phase_net_covers_code_bytes(code_file_32mib):
    # the flat phase holds every code in main memory
    spec, code_bytes = code_file_32mib
    assert _net(bench_mod._run_phase({"op": "flat_search", **spec})) >= code_bytes


def test_subcode_phase_net_excludes_dataset(code_file_32mib):
    # the sub-code phase reads only its query rows from the same file, so
    # the process peak must not hold the codes
    spec, code_bytes = code_file_32mib
    assert _net(bench_mod._run_phase({"op": "subcode_search", **spec})) < code_bytes / 4


def test_phase_without_proc_status_reports_rss_unavailable(tmp_path, monkeypatch):
    ds = random_dataset(500, 64, seed=74)
    dataset_write(ds, tmp_path / "d.hds")
    subcode_build(ds, plan_geometry(64, 8), 2, tmp_path / "idx").close()
    monkeypatch.setattr(phases_mod, "_status_bytes", lambda field: None)
    res = phases_mod.phase_subcode_search(
        {
            "dataset_path": str(tmp_path / "d.hds"),
            "index_dir": str(tmp_path / "idx"),
            "radius": 3,
            "query_ids": [0, 1],
        }
    )
    assert res["resident_bytes_start"] is None
    assert res["resident_bytes_peak"] is None
    assert res["rss_note"] == "rss-unavailable"


def test_phase_reports_resident_start_and_peak(tmp_path):
    if phases_mod._status_bytes("VmRSS") is None:
        pytest.skip("no /proc on this platform")
    ds = random_dataset(2000, 64, seed=72)
    data_path = tmp_path / "d.hds"
    dataset_write(ds, data_path)
    subcode_build(ds, plan_geometry(64, 8), 2, tmp_path / "idx").close()
    res = bench_mod._run_phase(
        {
            "op": "subcode_search",
            "dataset_path": str(data_path),
            "index_dir": str(tmp_path / "idx"),
            "radius": 3,
            "query_ids": [0, 1, 2],
        }
    )
    assert res["rss_note"] == ""
    assert 0 < res["resident_bytes_start"] <= res["resident_bytes_peak"]


# --- equivalence gate -------------------------------------------------------------

def test_verify_equivalence_passes(tmp_path):
    ds = random_dataset(2000, 64, seed=71)
    flat_index = flat_build(ds, workers=2)
    manifest = subcode_build(ds, plan_geometry(64, 8), 3, tmp_path / "idx")
    report = verify_equivalence(
        ds, [ds.code(i) for i in (1, 5, 9)], [0, 3, 7, 11, 64],
        flat_index=flat_index, manifest=manifest,
    )
    manifest.close()
    assert report.passed
    assert report.checked == 15


def test_verify_equivalence_pinpoints_failure(tmp_path):
    ds = random_dataset(500, 64, seed=72)
    flat_index = flat_build(ds, workers=2)
    manifest = subcode_build(ds, plan_geometry(64, 8), 2, tmp_path / "idx")

    class LyingManifest:
        geometry = manifest.geometry

    import hamsearch.bench as bm

    real = bm.subcode_range_search
    try:
        bm.subcode_range_search = lambda man, spec: NeighborSet.empty()
        report = verify_equivalence(
            ds, [ds.code(3)], [0, 5], flat_index=flat_index, manifest=manifest
        )
    finally:
        bm.subcode_range_search = real
    manifest.close()
    assert not report.passed
    failure = report.failures[0]
    assert failure.backend == "subcode"
    assert failure.query_index == 0
    assert 3 in failure.missing


def test_verify_equivalence_catches_a_wrong_distance(tmp_path):
    ds = random_dataset(500, 64, seed=73)
    flat_index = flat_build(ds, workers=2)
    manifest = subcode_build(ds, plan_geometry(64, 8), 2, tmp_path / "idx")
    import hamsearch.bench as bm

    real = bm.flat_range_search

    def off_by_one(index, spec):
        got = real(index, spec)
        dist = got.distances.copy()
        dist[0] += 1
        return NeighborSet(got.ids, dist)

    try:
        bm.flat_range_search = off_by_one
        report = verify_equivalence(
            ds, [ds.code(3)], [0, 5], flat_index=flat_index, manifest=manifest
        )
    finally:
        bm.flat_range_search = real
    manifest.close()
    flat_index.close()
    assert not report.passed
    assert [(f.backend, f.radius) for f in report.failures] == [("flat", 0), ("flat", 5)]
    assert report.failures[0].missing == report.failures[0].extra == [3]
    assert "missing ids [3], extra ids [3]" in report.describe()


# --- run_suite -----------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench-out")
    config = BenchConfig(out_dir=str(out), **TINY)
    report = run_suite(config)
    return config, report, out


def test_suite_row_completeness(tiny_report):
    config, report, out = tiny_report
    keys = [(r.backend, r.width_bits, r.radius, r.warm) for r in report.rows]
    expected = [
        (backend, 64, r, warm)
        for backend in ("flat", "subcode")
        for r in (3, 7, 11)
        for warm in (False, True)
    ]
    assert sorted(keys) == sorted(expected)
    assert len(keys) == len(set(keys))
    assert all(r.status == "ok" for r in report.rows)


def test_suite_csv_and_markdown_emitted(tiny_report):
    config, report, out = tiny_report
    with open(out / "report.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 12
    assert {r["warm"] for r in rows} == {"warm", "cold"}
    md = (out / "report.md").read_text()
    assert "## Indexing time" in md
    assert "## Search latency (warm, mean ms)" in md
    assert "## Resident memory" in md
    assert "## Restart behavior" in md


def test_suite_restart_check(tiny_report):
    config, report, out = tiny_report
    assert len(report.restart_checks) == 1
    check = report.restart_checks[0]
    assert check.subcode_build_calls_on_open == 0
    assert check.flat_rebuild_seconds > 0
    assert check.subcode_open_seconds < check.subcode_build_seconds


def test_suite_durations_positive(tiny_report):
    config, report, out = tiny_report
    for row in report.rows:
        assert row.build_seconds is None or row.build_seconds > 0
        assert row.latency_mean_ms is None or row.latency_mean_ms > 0


def test_suite_bypass_flag(tiny_report):
    config, report, out = tiny_report
    # sub_width 8 at m=64: s=8, so r=3 and r=7 filter, r=11 bypasses
    flags = {
        (r.radius, r.warm): r.filter_bypass
        for r in report.rows
        if r.backend == "subcode"
    }
    assert flags[(3, True)] is False
    assert flags[(7, True)] is False
    assert flags[(11, True)] is True


def test_suite_refuses_latency_on_gate_failure(tmp_path, monkeypatch):
    # inject a fault: the harness's view of subcode search drops one entry
    from hamsearch.subcode import subcode_range_search as real_search

    def dropping_search(manifest, spec):
        result = real_search(manifest, spec)
        if len(result) == 0:
            return result
        return NeighborSet(result.ids[1:], result.distances[1:])

    monkeypatch.setattr(bench_mod, "subcode_range_search", dropping_search)

    spawned = []
    real_phase = bench_mod._run_phase

    def tracking_phase(spec):
        spawned.append(spec["op"])
        return real_phase(spec)

    monkeypatch.setattr(bench_mod, "_run_phase", tracking_phase)

    config = BenchConfig(out_dir=str(tmp_path / "out"), **TINY)
    report = run_suite(config)

    assert not report.equivalence[64].passed
    assert all(row.status == "equivalence-failed" for row in report.rows)
    assert all(row.latency_mean_ms is None for row in report.rows)
    # latency cells were never measured; only the index build phase ran
    assert spawned == ["subcode_build"]
    md = (tmp_path / "out" / "report.md").read_text()
    assert "equivalence-failed" in md
    with open(tmp_path / "out" / "report.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 12
    assert all(row["latency_mean_ms"] == "" for row in rows)


def test_suite_continues_after_width_failure(tmp_path, monkeypatch):
    real_phase = bench_mod._run_phase

    def failing_phase(spec):
        if spec["op"] == "subcode_build" and "m64" in spec["index_dir"]:
            raise bench_mod.BenchPhaseError("injected build failure")
        return real_phase(spec)

    monkeypatch.setattr(bench_mod, "_run_phase", failing_phase)
    config = BenchConfig(
        out_dir=str(tmp_path / "out"),
        widths=(64, 128),
        radius_grid={64: (3,), 128: (5,)},
        dataset_count=1500,
        query_count=40,
        workers=2,
        shard_count=2,
        sub_width=8,
        seed=6,
    )
    report = run_suite(config)
    by_width = {}
    for row in report.rows:
        by_width.setdefault(row.width_bits, []).append(row.status)
    assert all(s.startswith("error") for s in by_width[64])
    assert all(s == "ok" for s in by_width[128])


def test_run_phase_unknown_op_raises_naming_it():
    with pytest.raises(bench_mod.BenchPhaseError, match="no_such_phase"):
        bench_mod._run_phase({"op": "no_such_phase"})


def test_suite_csv_header_is_bench_row_fields(tiny_report):
    config, report, out = tiny_report
    with open(out / "report.csv") as f:
        header = next(csv.reader(f))
    assert header == [f.name for f in dataclasses.fields(bench_mod.BenchRow)]
    assert header == [
        "backend", "width_bits", "radius", "warm", "status", "build_seconds",
        "open_seconds", "latency_mean_ms", "latency_p50_ms", "latency_p95_ms",
        "resident_bytes_peak", "filter_bypass", "query_count", "rss_note",
    ]
