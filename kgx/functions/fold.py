"""One sort, then one pass over each whole sorted block.

``ds.sort(key)`` range-partitions on the key, so every row of a key lands
in ONE block, in key order (``GroupedData.map_groups`` relies on the same
guarantee).  That holds only if the sort key IS the group key, with no
secondary columns, and the pass takes each block whole
(``batch_size=None``).  Those two rules live here and nowhere else, and
so does a third, on the block count the sort sees.

Ray's sort runs a task per input block in each phase, and at one CPU
that task count, not the rows, is the cost of a KG-scale fold (182 ms
for 8 blocks of 5k rows against 71 ms for the same rows in one block).
So the input goes through :func:`kgx.functions.collect.shuffle_coalesce`
with a floor of one block per Ray CPU: it is materialized and coalesced,
without a shuffle, to ``max(ncpu, size_bytes // 64 MiB + 1)`` blocks,
and only when that is fewer than it has, so blocks are never split and
never grow past the 64 MiB target.  No caller sizes its fold input.
The materialize runs when the fold is BUILT; only the sort and the pass
over its blocks stay lazy.

:func:`fold_sorted` calls ``reduce`` once per run of equal keys, with the
run's rows in block order (the order ``map_groups`` gives a group), and
builds one table per block: no per-group UDF call or Arrow table, and a
Parquet write of the result gets one row group per block, not per key.

Every pass that must see all rows of a key together goes through here,
never through a synthetic hash-bucket ``groupby``: the KG folds
(kgx.stages.states, kgx.stages.edges, kgx.stages.neardup,
kgx.pipelines.kg, kgx.sources.pages), the KG edges
(``edges_from_states`` in kgx.stages.states, one vectorized finalize
per sorted block) and the corpus and relational ops, whose folds
already take many keys per call —
kgx.ops.dedup (``exact_dup_groups``; the LSH pair passes of
``minhash_lsh_pairs``, ``simhash_pairs``, ``prefix_hamming_pairs`` and
``jaccard_pairs``, which share one segment-pair kernel, and the two
per-doc verify sorts of ``jaccard_pairs``), kgx.ops.components (one
sort per ``connected_components`` round, and the distinct-set pass of
``neardup_components``), kgx.ops.multimodal.media_dedup_groups,
kgx.ops.linededup (``duplicated_spans``, ``segment_dedup``,
``boilerplate_scrub``), kgx.pipelines.curate (exact-doc losers) and
kgx.ops.relational (``waiting_suppliers``, ``min_cost_supplier``,
``dominant_suppliers``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from kgx.functions.collect import shuffle_coalesce


def key_runs(t: pa.Table, keys: list) -> np.ndarray:
    """Start offsets of the runs of equal ``keys`` in a key-sorted table,
    then ``t.num_rows``.  Nulls equal each other."""
    n = t.num_rows
    new = np.zeros(n, dtype=bool)
    new[:1] = True
    for k in keys:
        a = t[k].combine_chunks()
        cur, prev = a.slice(1), a.slice(0, max(n - 1, 0))
        new[1:] |= pc.coalesce(
            pc.not_equal(cur, prev),
            pc.xor(pc.is_null(cur), pc.is_null(prev))).to_numpy(
                zero_copy_only=False)
    return np.r_[np.flatnonzero(new), n]


def map_sorted_blocks(ds, key, fn, schema: pa.Schema):
    """``fn`` over each whole non-empty block of ``ds.sort(key)``; empty
    blocks emit ``schema``'s empty table."""
    ncpu = int(ray.cluster_resources().get("CPU", 4))
    return shuffle_coalesce(ds, min_blocks=ncpu).sort(key).map_batches(
        lambda b: fn(b) if b.num_rows else schema.empty_table(),
        batch_format="pyarrow", batch_size=None)


def fold_sorted(ds, key, reduce, schema: pa.Schema):
    """``reduce(rows of one key) -> one row dict`` per value of ``key`` (a
    column or a list of columns); output sorted by ``key``."""
    keys = [key] if isinstance(key, str) else list(key)

    def fold(block: pa.Table) -> pa.Table:
        b = key_runs(block, keys)
        return pa.Table.from_pylist(
            [reduce(block.slice(s, e - s)) for s, e in zip(b[:-1], b[1:])],
            schema=schema)

    return map_sorted_blocks(ds, key, fold, schema)
