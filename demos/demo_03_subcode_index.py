"""The on-disk sub-code backend: pigeonhole filtering, verification, and
the bypass regime, shown end to end on a temporary index directory.

Run: python demos/demo_03_subcode_index.py
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from hamsearch import (
    QuerySpec,
    SyntheticSpec,
    candidate_filter,
    filter_bypassed,
    gen_synthetic,
    plan_geometry,
    range_search_oracle,
    subcode_build,
    subcode_open,
    subcode_range_search,
)

dataset = gen_synthetic(SyntheticSpec(count=1_000_000, width_bits=64, seed=9))
geometry = plan_geometry(64, sub_width=8)  # s = 8 sub-codes per code
print(f"geometry: {geometry.subcode_count} sub-codes of {geometry.sub_width} bits")

tmp = Path(tempfile.mkdtemp(prefix="hamsearch-demo-"))
t0 = time.perf_counter()
manifest = subcode_build(dataset, geometry, shard_count=5, directory=tmp)
print(f"built on disk in {time.perf_counter() - t0:.2f} s:")
for path in sorted(tmp.iterdir()):
    print(f"  {path.name:12s} {path.stat().st_size:>12,} bytes")

# A query within radius r can disagree with a stored code on at most r
# sub-codes, so among any k of the query's terms, docs matching fewer than
# k - r are safely skipped. The filter reads only the k shortest postings
# lists, k chosen per query from their lengths; survivors get exact
# verification.
query = QuerySpec(dataset.code(4242), radius=3)
cands = candidate_filter(manifest, query)
print(f"{len(cands)} candidates of {manifest.dataset_count} docs after filtering")
# each shard holds one contiguous range of DocIds
for shard in manifest.shards:
    end = shard.start + shard.doc_count
    in_shard = np.count_nonzero((cands >= shard.start) & (cands < end))
    print(f"shard {shard.shard_index}: docs [{shard.start}, {end}), {in_shard} candidates")

result = subcode_range_search(manifest, query)
assert result == range_search_oracle(dataset, query)
print(f"radius 3: {len(result)} exact neighbors")

# Raising the radius weakens the filter until s - r <= 0, where every doc
# must be verified and the query degrades to a streamed forward-file scan.
rng = np.random.default_rng(1)
ids = rng.choice(dataset.count, 30, replace=False)
for radius in (3, 7, 11):
    specs = [QuerySpec(dataset.code(int(i)), radius) for i in ids]
    for spec in specs:
        subcode_range_search(manifest, spec)
    t0 = time.perf_counter()
    for spec in specs:
        subcode_range_search(manifest, spec)
    mean_ms = (time.perf_counter() - t0) / len(specs) * 1e3
    path = "full scan" if filter_bypassed(geometry, radius) else "filter+verify"
    print(f"radius {radius:2d}: {mean_ms:6.2f} ms/query ({path})")

manifest.close()

# Durability: a process restart needs only subcode_open, never a rebuild.
t0 = time.perf_counter()
reopened = subcode_open(tmp)
print(f"reopened in {(time.perf_counter() - t0) * 1e3:.1f} ms without rebuilding")
assert subcode_range_search(reopened, query) == result
reopened.close()
