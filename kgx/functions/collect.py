"""Driver-side Dataset -> Arrow table collection for SMALL results.

``Dataset.to_arrow_refs`` can yield zero-column placeholder blocks (e.g.
from ``map_groups`` tasks that produced no rows); ``pa.concat_tables``
refuses to mix those with real schemas.  ``collect_arrow`` drops the
degenerate blocks and concatenates the rest.  Only for results known to
be small (broadcast sides, canonical tables) — never the corpus.
"""

from __future__ import annotations

import pyarrow as pa
import ray


def default_shuffle_blocks(*, min_blocks: int = 8) -> int:
    """Block count for a coalesced pre-shuffle exchange: ~ncpu/2, floor
    ``min_blocks``.  Falls back to the floor when Ray is not yet
    initialized (library code never owns the session)."""
    ncpu = int(ray.cluster_resources().get("CPU", 4)) \
        if ray.is_initialized() else 4
    return max(min_blocks, ncpu // 2)


def shuffle_coalesce(ds, *, min_blocks: int = 8,
                     target_block_bytes: int = 64 << 20):
    """Size-aware coalesce of REDUCED rows ahead of a key shuffle.

    Ray's sort-based groupby/sort materializes B_in x B_out partition
    slices, so shuffling a narrow partial/hash table that arrives as 64
    tiny blocks pays thousands of slices of machinery; ~ncpu/2 blocks
    move the same bytes in a few hundred.  The input is materialized to
    learn its size (the downstream sort shuffle materializes everything
    anyway): tables already at or above ``target_block_bytes`` per
    coalesced block keep enough blocks to stay under it, so a
    corpus-proportional input never collapses into oversize blocks —
    safe to leave in place at cluster scale."""
    ds = ds.materialize()
    nb = ds.num_blocks()
    size = ds.size_bytes() or 0
    target = max(default_shuffle_blocks(min_blocks=min_blocks),
                 size // target_block_bytes + 1)
    if target < nb:
        ds = ds.repartition(target)
    return ds


def collect_arrow(ds) -> pa.Table:
    # materialize first: on a lazy Dataset, to_arrow_refs fetches the
    # schema after iterating, which runs the whole plan a second time
    tbls = [ray.get(r) for r in ds.materialize().to_arrow_refs()]
    real = [t for t in tbls if t.num_columns > 0]
    nonempty = [t for t in real if t.num_rows > 0]
    if nonempty:
        return pa.concat_tables(nonempty)
    if real:
        return real[0]
    return pa.table({})
