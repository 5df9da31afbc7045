"""Tests of the benchmark's own code, at toy sizes.

    python3 -m pytest benchmark/tests -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import phases  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Workload, brute_force, make_inputs, popcount_distances  # noqa: E402

hs = phases.import_program()


def test_popcount_hand_worked_codes():
    rows = np.array(
        [[0, 0], [1, 0], [0xFF, 0], [0, 1 << 63], [2**64 - 1, 2**64 - 1], [0b1011, 0b110]],
        dtype=np.uint64,
    )
    query = np.zeros(2, dtype=np.uint64)
    assert popcount_distances(rows, query).tolist() == [0, 1, 8, 1, 128, 5]
    # 0b1011 ^ 0b0110 = 0b1101 (3 bits); 0b110 ^ 0b1 = 0b111 (3 bits)
    assert popcount_distances(rows[5:], np.array([0b0110, 0b1], dtype=np.uint64)).tolist() == [6]


def test_brute_force_matches_program_kernel():
    codes, query_ids = make_inputs(Workload("t", "flat", 128, 3000, 30, query_count=5), 7)
    for q in query_ids:
        ids, dists = brute_force(codes, codes[q], 30, block=512)
        want = hs.range_search_oracle(
            hs.CodeDataset(128, codes), hs.QuerySpec(hs.BinaryCode(128, codes[q]), 30)
        )
        assert ids.tolist() == want.ids.tolist()
        assert dists.tolist() == want.distances.tolist()


def test_inputs_repeat_for_a_seed():
    w = Workload("t", "flat", 64, 1000, 3, query_count=10)
    a, qa = make_inputs(w, 5)
    b, qb = make_inputs(w, 5)
    c, _ = make_inputs(w, 6)
    assert np.array_equal(a, b) and np.array_equal(qa, qb)
    assert not np.array_equal(a, c)


TINY = {
    "subcode": Workload("tiny-subcode", "subcode", 64, 3000, 3, sub_width=8, shards=2,
                        query_count=20, setup_repeats=2, restarts=2, brute_force_samples=2),
    "bypass": Workload("tiny-bypass", "subcode", 64, 3000, 9, sub_width=8, shards=2,
                       query_count=20, setup_repeats=1, restarts=1, brute_force_samples=1),
    "flat": Workload("tiny-flat", "flat", 128, 3000, 30, workers=2,
                     query_count=20, setup_repeats=2, restarts=2, brute_force_samples=2),
}


@pytest.mark.parametrize("kind", sorted(TINY))
def test_tiny_workload_end_to_end(kind, tmp_path):
    out = run.run_workload(TINY[kind], seed=3, seconds=0.2, trace=False, work_root=tmp_path)
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] > 20
    assert set(out["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in out["metrics"].values())
    assert list(tmp_path.iterdir()) == []  # the run removes its work directory


def test_tiny_workload_traced_counts_repeat(tmp_path):
    a = run.run_workload(TINY["subcode"], seed=3, seconds=0.3, trace=True, work_root=tmp_path)
    b = run.run_workload(TINY["subcode"], seed=3, seconds=0.3, trace=True, work_root=tmp_path)
    assert set(a["metrics"]) == set(run.PER_LAYER)
    counts = [k for k, unit in run.PER_LAYER.items() if unit in ("count", "B")]
    assert all(a["metrics"][k] == b["metrics"][k] for k in counts)
    assert a["metrics"]["subcode.candidates_per_query"]["value"] > 0
    assert a["metrics"]["io.pread_calls_per_query"]["value"] > 0


def test_check_results_catches_a_wrong_answer():
    w = TINY["flat"]
    codes, query_ids = make_inputs(w, 3)
    ids, dists = zip(*(brute_force(codes, codes[q], w.radius) for q in query_ids))
    bounds = np.concatenate([[0], np.cumsum([len(i) for i in ids])])
    results = {
        "bounds": bounds,
        "ids": np.concatenate(ids),
        "distances": np.concatenate(dists),
        "ok": np.ones(len(query_ids), dtype=bool),
    }
    assert run.check_results(w, codes, query_ids, results, seed=3) == []
    results["distances"] = results["distances"].copy()
    results["distances"][0] += 1
    assert run.check_results(w, codes, query_ids, results, seed=3)


def test_tracer_restores_wrapped_functions_and_skips_missing():
    original = hs.core.hamming_distances
    targets = {
        "kernel": ("hamsearch.core", "hamming_distances", lambda args, result: args[0].shape[0]),
        "gone": ("hamsearch.core", "no_such_function", None),
        "nomodule": ("hamsearch.no_such_module", "f", None),
    }
    codes = np.zeros((7, 1), dtype=np.uint64)
    with Tracer(targets) as tracer:
        assert tracer.missing == ["gone", "nomodule"]
        assert hs.core.hamming_distances is not original
        assert hs.flat.hamming_distances is hs.core.hamming_distances
        assert hs.subcode.hamming_distances is hs.core.hamming_distances
        hs.flat_range_search(hs.flat_build(hs.CodeDataset(64, codes), workers=1),
                             hs.QuerySpec(hs.BinaryCode.zeros(64), 0))
    assert tracer.stats["kernel"].calls == 1
    assert tracer.stats["kernel"].items == 7
    assert tracer.stats["gone"].calls == 0
    for module in (hs, hs.core, hs.flat, hs.subcode):
        assert module.hamming_distances is original
