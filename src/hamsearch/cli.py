"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 verification
failure. `bench` exits 3 when an equivalence gate fails and 2 when any
other cell ends in an error.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from .bench import (
    _CONFIG_KEYS,
    DEFAULT_RADIUS_GRID,
    BenchConfig,
    int_list,
    parse_config_file,
    radius_entry,
    run_suite,
    verify_equivalence,
)
from .core import (
    DatasetFormatError,
    QuerySpec,
    dataset_read,
    dataset_write,
)
from .datagen import (
    CodeDataset,
    ImageFormatError,
    SyntheticSpec,
    gen_synthetic,
    phash,
    read_pgm,
)
from .flat import DEFAULT_WORKERS, flat_build, flat_range_search
from .subcode import (
    DEFAULT_SHARDS,
    DEFAULT_SUB_WIDTH,
    IndexBuildError,
    IndexOpenError,
    QueryError,
    plan_geometry,
    read_code,
    subcode_build,
    subcode_open,
    subcode_range_search,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VERIFY = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _radius_flag(text: str) -> tuple:
    width, _, radii = text.partition(":")
    return radius_entry(width, radii)


def build_parser() -> _Parser:
    parser = _Parser(prog="hamsearch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset file")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--clusters", type=int, default=0)
    p.add_argument("--flip-prob", type=float, default=0.0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("phash", help="fingerprint a directory of PGM images")
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--images", required=True, help="directory of binary .pgm files")
    p.add_argument("--out", required=True)

    p = sub.add_parser("index", help="build an index from a dataset file")
    p.add_argument("--backend", choices=("flat", "subcode"), required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--sub-width", type=int, default=DEFAULT_SUB_WIDTH)
    p.add_argument("--shards", type=int, default=DEFAULT_SHARDS)
    p.add_argument("--dir", help="index directory (subcode backend)")
    p.add_argument("--workers", type=int, default=DEFAULT_WORKERS)

    p = sub.add_parser("search", help="radius query for one dataset code")
    p.add_argument("--backend", choices=("flat", "subcode"), required=True)
    p.add_argument("--dataset", help="dataset file (flat backend)")
    p.add_argument("--dir", help="index directory (subcode backend)")
    p.add_argument("--query-id", type=int, required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--workers", type=int, default=DEFAULT_WORKERS)

    p = sub.add_parser("verify", help="three-way exactness check on a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--queries", type=int, required=True)
    p.add_argument("--radii", type=int_list, required=True)
    p.add_argument("--sub-width", type=int, default=DEFAULT_SUB_WIDTH)
    p.add_argument("--shards", type=int, default=DEFAULT_SHARDS)
    p.add_argument("--workers", type=int, default=DEFAULT_WORKERS)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("bench", help="run the comparison suite")
    p.add_argument("--config", help="flat key=value config file")
    # every config-file key is also a flag, which overrides the file
    for key, (name, conv, help_text) in _CONFIG_KEYS.items():
        p.add_argument(
            f"--{key}", dest=name, type=conv, help=help_text,
            metavar=key.upper().replace("-", "_"),
        )
    p.add_argument(
        "--radii", action="append", type=_radius_flag, metavar="WIDTH:R1,R2,...",
        help="radius grid override, repeatable",
    )
    return parser


def _cmd_gen(args) -> int:
    spec = SyntheticSpec(
        count=args.count,
        width_bits=args.bits,
        seed=args.seed,
        cluster_count=args.clusters,
        flip_probability=args.flip_prob,
    )
    dataset = gen_synthetic(spec)
    dataset_write(dataset, args.out)
    print(f"wrote {dataset.count} codes of {dataset.width_bits} bits to {args.out}")
    return EXIT_OK


def _cmd_phash(args) -> int:
    image_dir = Path(args.images)
    paths = sorted(image_dir.glob("*.pgm"))
    if not paths:
        raise DatasetFormatError(f"no .pgm files in {image_dir}")
    codes = []
    for path in paths:
        image = read_pgm(path)
        codes.append(phash(image, args.bits).words)
    dataset = CodeDataset(args.bits, np.stack(codes))
    dataset_write(dataset, args.out)
    print(f"hashed {len(paths)} images at {args.bits} bits into {args.out}")
    return EXIT_OK


def _cmd_index(args) -> int:
    dataset = dataset_read(args.dataset)
    if args.backend == "flat":
        start = time.perf_counter()
        index = flat_build(dataset, args.workers)
        elapsed = time.perf_counter() - start
        print(
            f"flat index: {index.count} codes x {index.width_bits} bits, "
            f"{index.memory_bytes()} bytes in RAM, built in {elapsed:.3f}s"
        )
        print("note: the flat index lives in main memory only and is not persisted")
        return EXIT_OK
    if not args.dir:
        raise _UsageError("--dir is required for the subcode backend")
    geometry = plan_geometry(dataset.width_bits, args.sub_width)
    start = time.perf_counter()
    manifest = subcode_build(dataset, geometry, args.shards, args.dir)
    elapsed = time.perf_counter() - start
    print(
        f"subcode index: {manifest.dataset_count} codes, sub_width "
        f"{geometry.sub_width} (s={geometry.subcode_count}), "
        f"{manifest.shard_count} shards, built into {args.dir} in {elapsed:.3f}s"
    )
    manifest.close()
    return EXIT_OK


def _cmd_search(args) -> int:
    if args.backend == "flat":
        if not args.dataset:
            raise _UsageError("--dataset is required for the flat backend")
        dataset = dataset_read(args.dataset)
        if not 0 <= args.query_id < dataset.count:
            raise DatasetFormatError(
                f"query id {args.query_id} out of range [0, {dataset.count})"
            )
        index = flat_build(dataset, args.workers)
        result = flat_range_search(
            index, QuerySpec(dataset.code(args.query_id), args.radius)
        )
    else:
        if not args.dir:
            raise _UsageError("--dir is required for the subcode backend")
        manifest = subcode_open(args.dir)
        try:
            query = read_code(manifest, args.query_id)
            result = subcode_range_search(manifest, QuerySpec(query, args.radius))
        finally:
            manifest.close()
    for doc_id, dist in zip(result.ids, result.distances):
        print(f"{doc_id}\t{dist}")
    print(f"# {len(result)} neighbors within radius {args.radius}", file=sys.stderr)
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.queries < 1:
        raise _UsageError("--queries must be >= 1")
    dataset = dataset_read(args.dataset)
    if dataset.count == 0:
        raise DatasetFormatError("cannot verify an empty dataset")
    rng = np.random.default_rng(args.seed)
    n = min(args.queries, dataset.count)
    qids = rng.choice(dataset.count, size=n, replace=False)
    flat_index = flat_build(dataset, args.workers)
    with tempfile.TemporaryDirectory(prefix="hamsearch-verify-") as tmp:
        geometry = plan_geometry(dataset.width_bits, args.sub_width)
        manifest = subcode_build(dataset, geometry, args.shards, tmp)
        try:
            report = verify_equivalence(
                dataset,
                [dataset.code(int(i)) for i in qids],
                args.radii,
                flat_index=flat_index,
                manifest=manifest,
            )
        finally:
            manifest.close()
    print(f"checked {report.checked} query/radius pairs: {report.describe()}")
    return EXIT_OK if report.passed else EXIT_VERIFY


def _cmd_bench(args) -> int:
    kwargs = parse_config_file(args.config) if args.config else {}
    for name, _, _ in _CONFIG_KEYS.values():
        if getattr(args, name) is not None:
            kwargs[name] = getattr(args, name)
    if args.radii:
        grid = kwargs.get("radius_grid", DEFAULT_RADIUS_GRID)
        kwargs["radius_grid"] = {**grid, **dict(args.radii)}
    config = BenchConfig(**kwargs)
    report = run_suite(config)
    print(f"report written to {Path(config.out_dir) / 'report.md'}")
    if not all(rep.passed for rep in report.equivalence.values()):
        return EXIT_VERIFY
    failed = [row for row in report.rows if row.status != "ok"]
    if failed:
        print(f"error: {len(failed)} of {len(report.rows)} cells failed; "
              f"first: {failed[0].status}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "phash": _cmd_phash,
    "index": _cmd_index,
    "search": _cmd_search,
    "verify": _cmd_verify,
    "bench": _cmd_bench,
}

_DATA_ERRORS = (
    DatasetFormatError,
    ImageFormatError,
    IndexBuildError,
    IndexOpenError,
    QueryError,
    ValueError,
    OSError,
)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
