"""Exact Hamming-space radius search with two interchangeable backends.

- flat: a main-memory index answering queries by parallel popcount scan.
- subcode: an on-disk inverted index over fixed-width sub-codes, answering
  queries by pigeonhole filtering plus exact verification.

Both return identical results; they trade indexing time, search latency and
resident memory differently, and the bench module measures exactly that.
"""

from .core import (
    BinaryCode,
    CodeDataset,
    DatasetFormatError,
    NeighborSet,
    QuerySpec,
    dataset_read,
    dataset_write,
    extract_subcode,
    hamming_distance,
    hamming_distances,
    range_search_oracle,
)
from .datagen import (
    GrayscaleImage,
    ImageFormatError,
    SyntheticSpec,
    bilinear_resize,
    gen_synthetic,
    perturb,
    phash,
    read_pgm,
    write_pgm,
)
from .flat import FlatIndex, flat_build, flat_range_search
from .subcode import (
    IndexBuildError,
    IndexOpenError,
    QueryError,
    ShardDescriptor,
    SubCodeGeometry,
    SubCodeIndexManifest,
    candidate_filter,
    filter_bypassed,
    plan_geometry,
    read_code,
    subcode_build,
    subcode_open,
    subcode_range_search,
    verify,
)
from .bench import (
    BenchConfig,
    BenchReport,
    effective_query_count,
    measure_latency,
    run_suite,
    verify_equivalence,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryCode",
    "CodeDataset",
    "DatasetFormatError",
    "NeighborSet",
    "QuerySpec",
    "dataset_read",
    "dataset_write",
    "extract_subcode",
    "hamming_distance",
    "hamming_distances",
    "range_search_oracle",
    "GrayscaleImage",
    "ImageFormatError",
    "SyntheticSpec",
    "bilinear_resize",
    "gen_synthetic",
    "perturb",
    "phash",
    "read_pgm",
    "write_pgm",
    "FlatIndex",
    "flat_build",
    "flat_range_search",
    "IndexBuildError",
    "IndexOpenError",
    "QueryError",
    "ShardDescriptor",
    "SubCodeGeometry",
    "SubCodeIndexManifest",
    "candidate_filter",
    "filter_bypassed",
    "plan_geometry",
    "read_code",
    "subcode_build",
    "subcode_open",
    "subcode_range_search",
    "verify",
    "BenchConfig",
    "BenchReport",
    "effective_query_count",
    "measure_latency",
    "run_suite",
    "verify_equivalence",
]
