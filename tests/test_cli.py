import numpy as np
import pytest

from hamsearch import GrayscaleImage, dataset_read, write_pgm
from hamsearch.cli import main

from conftest import random_dataset


@pytest.fixture
def dataset_file(tmp_path):
    path = tmp_path / "data.hds"
    code = main(["gen", "--count", "2000", "--bits", "64", "--seed", "11",
                 "--out", str(path)])
    assert code == 0
    return path


def test_gen_writes_dataset(dataset_file):
    ds = dataset_read(dataset_file)
    assert ds.count == 2000
    assert ds.width_bits == 64


def test_gen_is_deterministic(tmp_path):
    a = tmp_path / "a.hds"
    b = tmp_path / "b.hds"
    for out in (a, b):
        assert main(["gen", "--count", "500", "--bits", "128", "--seed", "3",
                     "--clusters", "5", "--flip-prob", "0.1", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_index_flat(dataset_file, capsys):
    assert main(["index", "--backend", "flat", "--dataset", str(dataset_file)]) == 0
    out = capsys.readouterr().out
    assert "not persisted" in out


def test_index_and_search_subcode(dataset_file, tmp_path, capsys):
    idx = tmp_path / "idx"
    assert main(["index", "--backend", "subcode", "--dataset", str(dataset_file),
                 "--sub-width", "8", "--shards", "3", "--dir", str(idx)]) == 0
    capsys.readouterr()
    assert main(["search", "--backend", "subcode", "--dir", str(idx),
                 "--query-id", "5", "--radius", "0"]) == 0
    out = capsys.readouterr().out
    assert out.strip() == "5\t0"


def test_search_backends_agree(dataset_file, tmp_path, capsys):
    idx = tmp_path / "idx"
    main(["index", "--backend", "subcode", "--dataset", str(dataset_file),
          "--sub-width", "8", "--shards", "3", "--dir", str(idx)])
    capsys.readouterr()
    main(["search", "--backend", "flat", "--dataset", str(dataset_file),
          "--query-id", "17", "--radius", "20"])
    flat_out = capsys.readouterr().out
    main(["search", "--backend", "subcode", "--dir", str(idx),
          "--query-id", "17", "--radius", "20"])
    subcode_out = capsys.readouterr().out
    assert flat_out == subcode_out
    assert len(flat_out.strip().splitlines()) >= 1


def test_verify_passes(dataset_file):
    assert main(["verify", "--dataset", str(dataset_file), "--queries", "5",
                 "--radii", "0,3,7,64", "--sub-width", "8", "--shards", "3"]) == 0


def test_verify_failure_exit_code(dataset_file, monkeypatch):
    import hamsearch.cli as cli_mod
    from hamsearch.bench import EquivalenceFailure, EquivalenceReport

    def lying_verify(*args, **kwargs):
        return EquivalenceReport(
            checked=1,
            failures=[EquivalenceFailure(0, 0, "subcode", [1], [])],
        )

    monkeypatch.setattr(cli_mod, "verify_equivalence", lying_verify)
    assert main(["verify", "--dataset", str(dataset_file), "--queries", "1",
                 "--radii", "0"]) == 3


@pytest.mark.parametrize(
    "flags",
    [["--queries", "0", "--radii", "3,7"], ["--queries", "5", "--radii", ""],
     ["--queries", "5", "--radii", "3,,7"]],
    ids=["no-queries", "no-radii", "empty-radius"],
)
def test_verify_that_checks_nothing_is_usage_error(dataset_file, flags, capsys):
    assert main(["verify", "--dataset", str(dataset_file), *flags]) == 1
    assert "usage error" in capsys.readouterr().err


def test_search_impossible_dataset_count_is_data_error(tmp_path, capsys):
    from hamsearch.core import _HEADER

    bad = tmp_path / "bad.hds"
    bad.write_bytes(_HEADER.pack(b"HDS1", 1, 4096, 2**32 - 1) + bytes(80))
    assert main(["search", "--backend", "flat", "--dataset", str(bad),
                 "--query-id", "0", "--radius", "3"]) == 2
    assert "truncated stream" in capsys.readouterr().err


def test_phash_directory(tmp_path):
    rng = np.random.default_rng(7)
    img_dir = tmp_path / "imgs"
    img_dir.mkdir()
    for i in range(4):
        px = rng.random((32, 32)) * 255.0
        write_pgm(GrayscaleImage.from_array(px), img_dir / f"img{i}.pgm")
    out = tmp_path / "hashes.hds"
    assert main(["phash", "--bits", "64", "--images", str(img_dir),
                 "--out", str(out)]) == 0
    ds = dataset_read(out)
    assert ds.count == 4
    assert ds.width_bits == 64


def test_phash_empty_directory_is_data_error(tmp_path):
    (tmp_path / "imgs").mkdir()
    assert main(["phash", "--bits", "64", "--images", str(tmp_path / "imgs"),
                 "--out", str(tmp_path / "o.hds")]) == 2


def test_usage_errors_exit_1():
    assert main(["gen", "--count", "10"]) == 1  # missing required flags
    assert main(["nosuchcommand"]) == 1
    assert main(["search", "--backend", "subcode", "--query-id", "1",
                 "--radius", "2"]) == 1  # missing --dir


def test_data_errors_exit_2(tmp_path):
    missing = tmp_path / "nope.hds"
    assert main(["index", "--backend", "flat", "--dataset", str(missing)]) == 2
    bad = tmp_path / "bad.hds"
    bad.write_bytes(b"XXXX" + b"\x00" * 12)
    assert main(["index", "--backend", "flat", "--dataset", str(bad)]) == 2


def test_search_query_id_out_of_range(dataset_file):
    assert main(["search", "--backend", "flat", "--dataset", str(dataset_file),
                 "--query-id", "99999", "--radius", "1"]) == 2


def test_bench_cli_with_config_file(tmp_path, capsys):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(
        "widths=64\ncount=1500\nqueries=40\nworkers=2\nshards=2\n"
        "sub-width=8\nseed=9\nradii.64=3,7,11\n"
    )
    out_dir = tmp_path / "out"
    # --out and --radii override the file's values
    assert main(["bench", "--config", str(cfg), "--out", str(out_dir),
                 "--radii", "64:3,11"]) == 0
    assert (out_dir / "report.csv").is_file()
    assert (out_dir / "report.md").is_file()
    import csv

    with open(out_dir / "report.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 8  # 2 backends x 2 radii x warm/cold
    assert {r["radius"] for r in rows} == {"3", "11"}


def test_bench_cli_on_fewer_codes_than_the_query_floor(tmp_path):
    out_dir = tmp_path / "out"
    assert main(["bench", "--widths", "64", "--count", "10", "--queries", "20",
                 "--radii", "64:3", "--workers", "2", "--shards", "2",
                 "--out", str(out_dir)]) == 0
    import csv

    with open(out_dir / "report.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 4  # 2 backends x 1 radius x warm/cold
    assert {r["status"] for r in rows} == {"ok"}


# --- bench settings: one table for the config file and the flags ------------

# per config key: (value in the file, value of the flag, a malformed value or
# None when the converter accepts any text)
BENCH_SETTINGS = {
    "widths": ("64", "256", "64,x"),
    "count": ("1500", "1600", "many"),
    "queries": ("40", "50", "4.5"),
    "workers": ("2", "3", "two"),
    "shards": ("2", "4", ""),
    "sub-width": ("8", "16", "8.0"),
    "seed": ("9", "10", "0x10"),
    "clusters": ("0", "7", "none"),
    "flip-prob": ("0.0", "0.05", "5%"),
    "out": ("file-out", "flag-out", None),
}


def test_bench_settings_cover_every_config_key():
    from hamsearch.bench import _CONFIG_KEYS

    assert set(BENCH_SETTINGS) == set(_CONFIG_KEYS)


def _capture_bench_config(monkeypatch):
    import hamsearch.cli as cli_mod
    from hamsearch.bench import BenchReport

    seen = []

    def fake_suite(config):
        seen.append(config)
        return BenchReport(config, {}, [], [], {})

    monkeypatch.setattr(cli_mod, "run_suite", fake_suite)
    return seen


@pytest.mark.parametrize("key", sorted(BENCH_SETTINGS))
def test_bench_flag_overrides_config_file(key, tmp_path, monkeypatch):
    from hamsearch.bench import _CONFIG_KEYS

    seen = _capture_bench_config(monkeypatch)
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("".join(f"{k}={file_value}\n"
                           for k, (file_value, _, _) in BENCH_SETTINGS.items()))
    name, conv, _ = _CONFIG_KEYS[key]
    file_value, flag_value, _ = BENCH_SETTINGS[key]
    assert main(["bench", "--config", str(cfg)]) == 0
    assert main(["bench", "--config", str(cfg), f"--{key}", flag_value]) == 0
    assert getattr(seen[0], name) == conv(file_value)
    assert getattr(seen[1], name) == conv(flag_value) != conv(file_value)


@pytest.mark.parametrize(
    "key", sorted(k for k, (_, _, bad) in BENCH_SETTINGS.items() if bad is not None)
)
def test_bench_malformed_flag_is_usage_error(key, monkeypatch):
    seen = _capture_bench_config(monkeypatch)
    assert main(["bench", f"--{key}", BENCH_SETTINGS[key][2]]) == 1
    assert seen == []


def test_bench_radii_flag_overrides_config_file(tmp_path, monkeypatch):
    seen = _capture_bench_config(monkeypatch)
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("radii.64=1,2\nradii.256=5\n")
    assert main(["bench", "--config", str(cfg), "--radii", "64:3,4"]) == 0
    assert seen[0].radius_grid[64] == (3, 4)
    assert seen[0].radius_grid[256] == (5,)  # from the file
    assert seen[0].radius_grid[1024] == (63, 127, 191)  # default
    assert main(["bench", "--radii", "64:3,x"]) == 1


@pytest.mark.parametrize(
    "flag", [["--sub-width", "7"], ["--workers", "0"], ["--shards", "0"]]
)
def test_bench_bad_settings_exit_2_before_any_work(flag, tmp_path):
    out_dir = tmp_path / "out"
    assert main(["bench", "--out", str(out_dir), "--widths", "64",
                 "--count", "1000", "--queries", "20", "--radii", "64:3",
                 *flag]) == 2
    assert not out_dir.exists()  # no dataset generated, no report written


def test_bench_failed_width_exits_2_and_reports_gate_not_run(tmp_path, monkeypatch):
    import hamsearch.bench as bench_mod

    def failing_phase(spec):
        raise bench_mod.BenchPhaseError("injected build failure")

    monkeypatch.setattr(bench_mod, "_run_phase", failing_phase)
    out_dir = tmp_path / "out"
    assert main(["bench", "--out", str(out_dir), "--widths", "64",
                 "--count", "1000", "--queries", "20", "--workers", "2",
                 "--shards", "2", "--radii", "64:3"]) == 2
    md = (out_dir / "report.md").read_text()
    assert "- m=64: not run" in md
    assert "pass (0 query/radius pairs)" not in md


def test_readme_lists_every_bench_config_key():
    import re
    from pathlib import Path

    from hamsearch.bench import _CONFIG_KEYS

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sentence = re.search(r"config file \(`--config bench.cfg`\) with\s+keys (.*?)"
                         r"and per-width radius grids", readme, re.S)
    assert sentence is not None
    assert re.findall(r"`([^`]+)`", sentence.group(1)) == list(_CONFIG_KEYS)
