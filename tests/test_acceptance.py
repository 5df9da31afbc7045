"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line. Run with `pytest -s tests/test_acceptance.py -v` to see the lines.

The latency and memory criteria are trend- and property-based; absolute
milliseconds depend on hardware and are deliberately not asserted. Resident
growth is judged net of each measurement phase's starting reading, since the
interpreter and numpy baseline every phase process starts with differs
between machines and is not the program's to control; only the flat
backend's peak ratio, which that baseline can only lower, is taken on
whole-process peaks.
"""

import time

import numpy as np
import pytest

import hamsearch.bench as bench_mod
from hamsearch import (
    BenchConfig,
    BinaryCode,
    GrayscaleImage,
    NeighborSet,
    QuerySpec,
    candidate_filter,
    dataset_read,
    dataset_write,
    flat_build,
    flat_range_search,
    gen_synthetic,
    hamming_distance,
    hamming_distances,
    perturb,
    phash,
    plan_geometry,
    range_search_oracle,
    run_suite,
    subcode_build,
    subcode_range_search,
    SyntheticSpec,
)
from hamsearch.bench import _run_phase, measure_latency
from hamsearch.subcode import MANIFEST_NAME

from conftest import ACCEPTANCE_LINES, filter_plans, random_dataset
from test_phash import slow_phash_words


def _report(criterion: int, passed: bool, detail: str):
    line = f"ACCEPTANCE {criterion:2d} {'PASS' if passed else 'FAIL'}: {detail}"
    print(f"\n{line}")
    ACCEPTANCE_LINES.append(line)
    assert passed, detail


# --------------------------------------------------------------------------
# 1. Exactness: oracle three-way agreement
# --------------------------------------------------------------------------

ACCEPT1_DATASETS = [
    # (count, width, sub_width, shards)
    (1_000, 64, 8, 3),
    (5_000, 64, 16, 5),
    (20_000, 256, 16, 5),
    (50_000, 256, 32, 4),
    (100_000, 64, 8, 5),
]
GRID = {64: (3, 7, 11), 256: (15, 31, 47), 1024: (63, 127, 191), 4096: (255, 511, 767)}


def test_acceptance_01_exactness_three_way(tmp_path):
    start = time.monotonic()
    mismatches = 0
    checked = 0
    for di, (count, m, sub_width, shards) in enumerate(ACCEPT1_DATASETS):
        ds = random_dataset(count, m, seed=1000 + di)
        geometry = plan_geometry(m, sub_width)
        index = flat_build(ds, workers=5)
        manifest = subcode_build(ds, geometry, shards, tmp_path / f"idx{di}")
        s = geometry.subcode_count
        radii = sorted({0, *GRID[m], s - 1, s, m} & set(range(0, m + 1)))
        rng = np.random.default_rng(2000 + di)
        qids = rng.choice(count, size=50, replace=False)
        for qid in qids:
            q = ds.code(int(qid))
            for r in radii:
                spec = QuerySpec(q, r)
                truth = range_search_oracle(ds, spec)
                checked += 1
                if not (flat_range_search(index, spec) == truth
                        and subcode_range_search(manifest, spec) == truth):
                    mismatches += 1
        manifest.close()
    elapsed = time.monotonic() - start
    _report(
        1,
        mismatches == 0 and elapsed < 300,
        f"{checked} query/radius checks over {len(ACCEPT1_DATASETS)} datasets, "
        f"{mismatches} mismatches, {elapsed:.0f}s",
    )


# --------------------------------------------------------------------------
# 2 & 3. Latency trends on a desk-scale m=64 dataset
# --------------------------------------------------------------------------

LAT_COUNT = 4_000_000
LAT_QUERIES = 150


@pytest.fixture(scope="module")
def latency_setup(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("latency")
    ds = gen_synthetic(SyntheticSpec(count=LAT_COUNT, width_bits=64, seed=77))
    index = flat_build(ds, workers=5)
    manifest = subcode_build(ds, plan_geometry(64, 8), 5, tmp / "idx")
    qids = np.random.default_rng(78).choice(LAT_COUNT, LAT_QUERIES, replace=False)
    queries = {r: [QuerySpec(ds.code(int(i)), r) for i in qids] for r in (3, 7, 11)}
    flat_ms = {}
    sub_ms = {}
    for r in (3, 7, 11):
        flat_ms[r] = measure_latency(
            lambda q: flat_range_search(index, q), queries[r], warmup=True
        ).mean_ms
        sub_ms[r] = measure_latency(
            lambda q: subcode_range_search(manifest, q), queries[r], warmup=True
        ).mean_ms
    yield flat_ms, sub_ms, index, manifest, ds
    manifest.close()


def test_acceptance_02_flat_latency_r_invariance(latency_setup):
    flat_ms, _, _, _, _ = latency_setup
    values = [flat_ms[r] for r in (3, 7, 11)]
    ratio = max(values) / min(values)
    _report(
        2,
        ratio <= 1.5,
        f"flat warm mean latency over r in (3,7,11) on {LAT_COUNT} codes: "
        f"{values[0]:.2f}/{values[1]:.2f}/{values[2]:.2f} ms, "
        f"max/min ratio {ratio:.2f} (limit 1.5)",
    )


def test_acceptance_03_subcode_growth_and_small_r_win(latency_setup):
    flat_ms, sub_ms, _, _, _ = latency_setup
    increasing = sub_ms[3] < sub_ms[7] < sub_ms[11]
    wins = sub_ms[3] < flat_ms[3]
    _report(
        3,
        increasing and wins,
        f"subcode warm means {sub_ms[3]:.2f} < {sub_ms[7]:.2f} < {sub_ms[11]:.2f} ms "
        f"(strictly increasing: {increasing}); at r=3 subcode {sub_ms[3]:.2f} ms "
        f"vs flat {flat_ms[3]:.2f} ms (win: {wins})",
    )


# --------------------------------------------------------------------------
# 4. Indexing asymmetry
# --------------------------------------------------------------------------

def test_acceptance_04_indexing_asymmetry(tmp_path):
    start = time.monotonic()
    count = 500_000
    ratios = {}
    ok = True
    for m in (64, 256, 1024, 4096):
        ds = gen_synthetic(SyntheticSpec(count=count, width_bits=m, seed=m + 1))
        t0 = time.perf_counter()
        flat_build(ds, workers=5)
        flat_seconds = time.perf_counter() - t0
        t0 = time.perf_counter()
        manifest = subcode_build(ds, plan_geometry(m, 8), 5, tmp_path / f"idx{m}")
        sub_seconds = time.perf_counter() - t0
        manifest.close()
        del ds
        ratios[m] = sub_seconds / flat_seconds
        ok = ok and flat_seconds < sub_seconds
    ok = ok and ratios[64] >= 1.5
    elapsed = time.monotonic() - start
    _report(
        4,
        ok and elapsed < 600,
        f"subcode/flat build-time ratios at 500k codes: "
        + ", ".join(f"m={m}: {ratios[m]:.1f}x" for m in sorted(ratios))
        + f" (every m slower to index on subcode; m=64 ratio >= 1.5), {elapsed:.0f}s",
    )


# --------------------------------------------------------------------------
# 5. Restart asymmetry
# --------------------------------------------------------------------------

def test_acceptance_05_restart_asymmetry(tmp_path):
    count = 2_000_000
    ds = gen_synthetic(SyntheticSpec(count=count, width_bits=64, seed=90))
    data_path = tmp_path / "data.hds"
    dataset_write(ds, data_path)
    t0 = time.perf_counter()
    manifest = subcode_build(ds, plan_geometry(64, 8), 5, tmp_path / "idx")
    build_seconds = time.perf_counter() - t0
    manifest.close()

    qids = [3, 77_777, 523_456, 1_400_000, 1_999_999]
    expected = {
        qid: sorted(range_search_oracle(ds, QuerySpec(ds.code(qid), 3)).as_set())
        for qid in qids
    }
    probe = _run_phase(
        {
            "op": "restart_probe",
            "index_dir": str(tmp_path / "idx"),
            "query_ids": qids,
            "radius": 3,
        }
    )
    results_match = all(
        sorted((i, d) for i, d in probe["results"][str(qid)]) == expected[qid]
        for qid in qids
    )
    no_rebuild = probe["build_calls"] == 0
    fast_open = probe["open_seconds"] < 0.01 * build_seconds

    flat_probe = _run_phase(
        {
            "op": "flat_search",
            "dataset_path": str(data_path),
            "workers": 5,
            "radius": 3,
            "query_ids": qids,
        }
    )
    flat_rebuilds = flat_probe["build_seconds"] > 0
    import hamsearch.flat as flat_mod

    no_flat_persistence = not any(
        hasattr(flat_mod, name) for name in ("flat_open", "flat_save", "flat_load")
    )
    _report(
        5,
        results_match and no_rebuild and fast_open and flat_rebuilds
        and no_flat_persistence,
        f"fresh process reopened the index in {probe['open_seconds'] * 1000:.1f} ms "
        f"(build was {build_seconds:.2f} s; <1% required), build path invoked "
        f"{probe['build_calls']} times, answers exact: {results_match}; flat had to "
        f"rebuild ({flat_probe['build_seconds']:.3f} s) and offers no persistence",
    )


# --------------------------------------------------------------------------
# 6. Memory trends
# --------------------------------------------------------------------------

def test_acceptance_06_memory_trends(tmp_path):
    start = time.monotonic()
    count = 200_000
    qids = np.random.default_rng(91).choice(count, 30, replace=False).tolist()
    flat_peak = {}
    flat_net = {}
    sub_net = {}
    notes = []
    for m in (64, 256, 1024, 4096):
        ds = gen_synthetic(SyntheticSpec(count=count, width_bits=m, seed=m + 2))
        data_path = tmp_path / f"d{m}.hds"
        dataset_write(ds, data_path)
        del ds
        _run_phase(
            {
                "op": "subcode_build",
                "dataset_path": str(data_path),
                "index_dir": str(tmp_path / f"idx{m}"),
                "sub_width": 8,
                "shard_count": 5,
            }
        )
        flat_radii = []
        flat_net_radii = []
        sub_radii = []
        for r in GRID[m]:
            fres = _run_phase(
                {
                    "op": "flat_search",
                    "dataset_path": str(data_path),
                    "workers": 5,
                    "radius": r,
                    "query_ids": qids,
                }
            )
            sres = _run_phase(
                {
                    "op": "subcode_search",
                    "dataset_path": str(data_path),
                    "index_dir": str(tmp_path / f"idx{m}"),
                    "radius": r,
                    "query_ids": qids,
                }
            )
            fields = ("resident_bytes_start", "resident_bytes_peak")
            if any(res[k] is None for res in (fres, sres) for k in fields):
                pytest.skip("resident probe unavailable on this platform")
            flat_radii.append(fres["resident_bytes_peak"])
            flat_net_radii.append(fres["resident_bytes_peak"] - fres["resident_bytes_start"])
            sub_radii.append(sres["resident_bytes_peak"] - sres["resident_bytes_start"])
        flat_peak[m] = max(flat_radii)
        flat_net[m] = max(flat_net_radii)
        sub_net[m] = max(sub_radii)
        notes.append(f"m={m}: flat {flat_peak[m] / 2**20:.0f} MiB "
                     f"(+{flat_net[m] / 2**20:.1f} net), "
                     f"subcode +{sub_net[m] / 2**20:.1f} MiB net")
    flat_ratio = flat_peak[4096] / flat_peak[64]
    # the flat backend copies every raw code into main memory, so its net
    # peak must grow by at least the raw-code bytes the wider codes add; the
    # sub-code backend keeps codes and postings on disk, so its net growth
    # over the whole grid must stay a small part of that
    raw_code_growth = count * (4096 - 64) // 8
    flat_growth = flat_net[4096] - flat_net[64]
    sub_growth = max(sub_net.values()) - min(sub_net.values())
    sub_fraction = sub_growth / raw_code_growth
    elapsed = time.monotonic() - start
    _report(
        6,
        flat_ratio >= 4.0
        and flat_growth >= raw_code_growth
        and sub_fraction <= 0.25
        and elapsed < 1200,
        f"{'; '.join(notes)}; flat m=4096/m=64 peak ratio {flat_ratio:.2f} (>= 4), "
        f"flat net growth {flat_growth / 2**20:.1f} MiB (>= the "
        f"{raw_code_growth / 2**20:.0f} MiB raw-code growth), subcode net spread "
        f"{sub_growth / 2**20:.1f} MiB = {sub_fraction * 100:.1f}% of it (<= 25%), "
        f"{elapsed:.0f}s",
    )


# --------------------------------------------------------------------------
# 7. Pigeonhole soundness
# --------------------------------------------------------------------------

def test_acceptance_07_pigeonhole_soundness(tmp_path):
    start = time.monotonic()
    configs = [
        (800, 64, 8, 3, 0, 0.0),
        (1_200, 64, 16, 5, 12, 0.08),
        (600, 256, 16, 4, 0, 0.0),
        (900, 256, 32, 2, 6, 0.1),
        (700, 64, 32, 1, 0, 0.0),
    ]
    worlds = []
    for i, (count, m, sub_width, shards, clusters, flip) in enumerate(configs):
        ds = gen_synthetic(
            SyntheticSpec(
                count=count, width_bits=m, seed=3000 + i,
                cluster_count=clusters, flip_probability=flip,
            )
        )
        geometry = plan_geometry(m, sub_width)
        manifest = subcode_build(ds, geometry, shards, tmp_path / f"w{i}")
        worlds.append((ds, geometry, manifest))

    rng = np.random.default_rng(4000)
    # the filter's own plan, and its plan forced to k = r + 1 and to k = s
    plans = filter_plans()
    violations = 0
    trials = 10_000
    for _ in range(trials):
        ds, geometry, manifest = worlds[int(rng.integers(len(worlds)))]
        s = geometry.subcode_count
        radius = int(rng.integers(0, s))  # keeps s - r >= 1
        if rng.random() < 0.5:
            query = ds.code(int(rng.integers(ds.count)))
            query = perturb(query, int(rng.integers(0, radius + 1)), int(rng.integers(2**32)))
        else:
            query = BinaryCode(
                ds.width_bits,
                rng.integers(0, 2**64, ds.width_bits // 64, dtype=np.uint64),
            )
        spec = QuerySpec(query, radius)
        truth = set(range_search_oracle(ds, spec).ids.tolist())
        for plan in plans.values():
            with plan:
                survivors = set(candidate_filter(manifest, spec).tolist())
            if not truth <= survivors:
                violations += 1
    for _, _, manifest in worlds:
        manifest.close()
    elapsed = time.monotonic() - start
    _report(
        7,
        violations == 0 and elapsed < 120,
        f"{trials} randomized (dataset, query, radius) trials with s-r >= 1, each "
        f"under {len(plans)} filter plans: {violations} pigeonhole violations, "
        f"{elapsed:.0f}s",
    )


# --------------------------------------------------------------------------
# 8. Kernel and format properties
# --------------------------------------------------------------------------

def test_acceptance_08_kernel_and_format(tmp_path):
    start = time.monotonic()
    rng = np.random.default_rng(5000)
    mismatches = 0
    for m in (64, 256, 1024, 4096):
        words = m // 64
        a = rng.integers(0, 2**64, size=(10_000, words), dtype=np.uint64)
        b = rng.integers(0, 2**64, size=(10_000, words), dtype=np.uint64)
        a_bits = np.unpackbits(a.view(np.uint8), axis=1, bitorder="little")
        b_bits = np.unpackbits(b.view(np.uint8), axis=1, bitorder="little")
        for i in range(0, 10_000, 2_500):  # the package kernel, four queries
            kernel = hamming_distances(a, b[i])
            per_bit = np.count_nonzero(a_bits != b_bits[i], axis=1)
            mismatches += int(np.count_nonzero(kernel != per_bit))
            d = hamming_distance(BinaryCode(m, a[i]), BinaryCode(m, b[i]))
            mismatches += int(d != per_bit[i])  # and the scalar op

    axioms_ok = True
    for m in (64, 256):
        for _ in range(500):
            x, y, z = (
                BinaryCode(m, rng.integers(0, 2**64, m // 64, dtype=np.uint64))
                for _ in range(3)
            )
            axioms_ok &= hamming_distance(x, x) == 0
            axioms_ok &= hamming_distance(x, y) == hamming_distance(y, x)
            axioms_ok &= hamming_distance(x, z) <= (
                hamming_distance(x, y) + hamming_distance(y, z)
            )

    ds = random_dataset(10_000, 64, seed=5001)
    p1, p2 = tmp_path / "a.hds", tmp_path / "b.hds"
    dataset_write(ds, p1)
    dataset_write(dataset_read(p1), p2)
    dataset_roundtrip = p1.read_bytes() == p2.read_bytes()

    geometry = plan_geometry(64, 8)
    subcode_build(ds, geometry, 3, tmp_path / "i1").close()
    subcode_build(ds, geometry, 3, tmp_path / "i2").close()
    # every file either build wrote, by name, with the same bytes
    names = sorted(path.name for path in (tmp_path / "i1").iterdir())
    index_roundtrip = (
        MANIFEST_NAME in names
        and names == sorted(path.name for path in (tmp_path / "i2").iterdir())
        and all(
            (tmp_path / "i1" / n).read_bytes() == (tmp_path / "i2" / n).read_bytes()
            for n in names
        )
    )

    perturb_ok = True
    for m in (64, 1024):
        code = BinaryCode(m, rng.integers(0, 2**64, m // 64, dtype=np.uint64))
        for flips in (0, 1, m // 2, m):
            perturb_ok &= (
                hamming_distance(code, perturb(code, flips, seed=flips)) == flips
            )
    elapsed = time.monotonic() - start
    _report(
        8,
        mismatches == 0 and axioms_ok and dataset_roundtrip and index_roundtrip
        and perturb_ok and elapsed < 60,
        f"kernel vs per-bit oracle on 160k pairs (4 widths x 4 queries x 10k "
        f"rows): {mismatches} mismatches; metric "
        f"axioms: {axioms_ok}; byte-identical dataset/index round-trips: "
        f"{dataset_roundtrip}/{index_roundtrip}; perturb exact: {perturb_ok}; "
        f"{elapsed:.0f}s",
    )


# --------------------------------------------------------------------------
# 9. Perceptual hash correctness
# --------------------------------------------------------------------------

def test_acceptance_09_phash(tmp_path):
    start = time.monotonic()
    constant_ok = all(
        not phash(GrayscaleImage.from_array(np.full((40, 52), 137.0)), m).words.any()
        for m in (64, 256, 1024, 4096)
    )

    rng = np.random.default_rng(6000)
    brightness_ok = True
    for _ in range(10):
        px = rng.random((int(rng.integers(20, 64)), int(rng.integers(20, 64)))) * 127.0
        brightness_ok &= phash(GrayscaleImage.from_array(px), 256) == phash(
            GrayscaleImage.from_array(px * 2.0), 256
        )

    oracle_mismatches = 0
    for _ in range(20):
        px = rng.random((int(rng.integers(24, 70)), int(rng.integers(24, 70)))) * 255.0
        for width_bits in (64, 256):  # k = 8 and 16
            expected = slow_phash_words(px, width_bits)
            got = phash(GrayscaleImage.from_array(px), width_bits)
            oracle_mismatches += int(not np.array_equal(got.words, expected))
    elapsed = time.monotonic() - start
    _report(
        9,
        constant_ok and brightness_ok and oracle_mismatches == 0 and elapsed < 60,
        f"constant image all-zero: {constant_ok}; brightness x2 invariance on 10 "
        f"fixtures: {brightness_ok}; slow-DCT oracle agreement on 40 fixture "
        f"evaluations: {oracle_mismatches} mismatches; {elapsed:.0f}s",
    )


# --------------------------------------------------------------------------
# 10. Report integrity (default config) and equivalence-gate refusal
# --------------------------------------------------------------------------

def test_acceptance_10_report_integrity(tmp_path_factory, monkeypatch):
    out = tmp_path_factory.mktemp("default-suite")
    config = BenchConfig(out_dir=str(out))
    start = time.monotonic()
    report = run_suite(config)
    elapsed = time.monotonic() - start

    keys = [(r.backend, r.width_bits, r.radius, r.warm) for r in report.rows]
    expected = [
        (backend, m, r, warm)
        for m in config.widths
        for backend in ("flat", "subcode")
        for r in config.radius_grid[m]
        for warm in (False, True)
    ]
    structure_ok = sorted(keys) == sorted(expected) and len(keys) == len(set(keys))
    all_ok = all(r.status == "ok" for r in report.rows)
    gates_ok = all(rep.passed for rep in report.equivalence.values())
    files_ok = (out / "report.csv").is_file() and (out / "report.md").is_file()
    import csv as csv_mod

    with open(out / "report.csv") as f:
        csv_rows = list(csv_mod.DictReader(f))
    csv_ok = len(csv_rows) == len(expected)
    restarts_ok = all(c.passed for c in report.restart_checks)

    # fault injection: a wrong backend answer must suppress latency emission
    from hamsearch.subcode import subcode_range_search as real_search

    def dropping_search(manifest, spec):
        result = real_search(manifest, spec)
        if len(result) == 0:
            return result
        return NeighborSet(result.ids[1:], result.distances[1:])

    monkeypatch.setattr(bench_mod, "subcode_range_search", dropping_search)
    fault_out = tmp_path_factory.mktemp("faulted-suite")
    fault_config = BenchConfig(
        widths=(64,), radius_grid={64: (3, 7, 11)}, dataset_count=2_000,
        query_count=40, workers=2, shard_count=2, sub_width=8, seed=8,
        out_dir=str(fault_out),
    )
    faulted = run_suite(fault_config)
    refusal_ok = (
        not faulted.equivalence[64].passed
        and all(r.status == "equivalence-failed" for r in faulted.rows)
        and all(r.latency_mean_ms is None for r in faulted.rows)
    )
    _report(
        10,
        structure_ok and all_ok and gates_ok and files_ok and csv_ok and restarts_ok
        and refusal_ok and elapsed < 1800,
        f"default suite: {len(keys)} rows exactly covering (backend, m, r, "
        f"warm/cold), gates passed: {gates_ok}, restart checks passed: "
        f"{restarts_ok}, CSV+markdown emitted, {elapsed:.0f}s (< 30 min); "
        f"injected fault suppressed latency emission: {refusal_ok}",
    )
