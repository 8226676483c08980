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

:func:`aggregate_by` is the keyed sum/min/max: one Arrow ``group_by``
that is both the map-side partial of each batch and the fold of each
whole sorted block.  Its result is returned MATERIALIZED: it is reduced
rows, and a ``Union`` (or a join) over a lazy sort branch did not finish
at one Ray CPU, so no caller may be handed one.

:func:`merge_runs` is the vectorized per-run merge (one ``run_*`` kernel
per merged column, every run at once) that the KG state merges use.

Every pass that must see all rows of a key together goes through here,
never through a synthetic hash-bucket ``groupby``: the KG nodes, edges
and claims (one vectorized merge per sorted block), the KG folds of
kgx.stages.neardup, kgx.pipelines.kg and kgx.sources.pages, and the
corpus and relational ops, whose folds already take many keys per call —
kgx.ops.dedup (``exact_dup_groups``; the LSH pair passes of
``minhash_lsh_pairs``, ``simhash_pairs``, ``prefix_hamming_pairs`` and
``jaccard_pairs``, which share one segment-pair kernel, and the two
per-doc verify sorts of ``jaccard_pairs``), kgx.ops.components (one
sort per ``connected_components`` round, and the distinct-set pass of
``neardup_components``), kgx.ops.multimodal.media_dedup_groups,
kgx.ops.linededup (``duplicated_spans``, ``segment_dedup``,
``boilerplate_scrub``), kgx.pipelines.curate (exact-doc losers) and
every keyed pass of kgx.ops.relational.
"""

from __future__ import annotations

from functools import reduce as _reduce
from operator import add

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


def merge_runs(block: pa.Table, keys: list, merges: dict) -> pa.Table:
    """One row per run of ``keys`` in a key-sorted table: the run's first
    row, with ``merges[col](block[col], runs)`` for each merged column."""
    runs = key_runs(block, keys)
    out = block.drop_columns(list(merges)).take(runs[:-1])
    for col, fn in merges.items():
        out = out.append_column(block.schema.field(col), fn(block[col], runs))
    return out


def run_sum(col, runs: np.ndarray) -> pa.Array:
    return pa.array(np.add.reduceat(col.to_numpy(), runs[:-1]), col.type)


def run_left_fold(col, runs: np.ndarray) -> pa.Array:
    """``0.0 + v0 + v1 + ...`` per run, in row order: bit-identical to a
    per-row ``+=``; ``np.add.reduceat`` sums pairwise, which is not."""
    vals, b = col.to_pylist(), runs.tolist()
    return pa.array([_reduce(add, vals[s:e], 0.0)
                     for s, e in zip(b[:-1], b[1:])], pa.float64())


def _first_by(runs: np.ndarray, value, order: list) -> pa.Array:
    """``value`` of each run's first row under ``order`` ((array, "ascending"
    | "descending") pairs); strings order by code point, as in Python."""
    t = pa.table([np.repeat(np.arange(len(runs) - 1), np.diff(runs)), value]
                 + [a for a, _ in order],
                 names=["r", "v"] + [f"o{i}" for i in range(len(order))])
    return t.sort_by([("r", "ascending")] + [
        (f"o{i}", d) for i, (_, d) in enumerate(order)])["v"].take(
            runs[:-1]).combine_chunks()


def run_min(col, runs: np.ndarray, longest: bool = False) -> pa.Array:
    """Smallest string; with ``longest``, the longest (in code points),
    ties to the smallest."""
    order = [(pc.utf8_length(col), "descending")] if longest else []
    return _first_by(runs, col, order + [(col, "ascending")])


def run_argmax(counts: pa.ListArray) -> pa.Array:
    """The ``s`` of each ``list<struct<s, c>>``'s largest ``c``, ties to
    the smallest ``s``."""
    s, c = counts.flatten().flatten()
    return _first_by(np.r_[0, np.cumsum(pc.list_value_length(counts))], s,
                     [(c, "descending"), (s, "ascending")])


def run_lists(run: np.ndarray, n_runs: int, fields: list, list_type):
    """A ``list_type`` list per run of the run-sorted ``fields`` values."""
    fields = [f.combine_chunks() if isinstance(f, pa.ChunkedArray) else f
              for f in fields]
    offsets = np.zeros(n_runs + 1, np.int32)
    np.cumsum(np.bincount(run, minlength=n_runs), out=offsets[1:])
    vt = list_type.value_type
    values = pa.StructArray.from_arrays(fields, fields=list(vt)) \
        if pa.types.is_struct(vt) else fields[0]
    return pa.ListArray.from_arrays(pa.array(offsets), values,
                                    type=list_type)


def _explode(col, runs: np.ndarray) -> pa.Table:
    """A list column's values (a column per struct field) and the run
    ``r`` of each, sorted by ``r``, then by the values."""
    lists = pa.chunked_array(col).combine_chunks()
    v = lists.flatten()
    fields = v.flatten() if pa.types.is_struct(v.type) else [v]
    t = pa.table([np.repeat(np.arange(len(runs) - 1), np.diff(runs)).repeat(
        pc.list_value_length(lists))] + fields,
        names=["r"] + [f"f{i}" for i in range(len(fields))])
    return t.sort_by([(c, "ascending") for c in t.column_names])


def run_distinct(col, runs: np.ndarray, cap: int | None = None):
    """``sorted(set(values))[:cap]`` of each run's lists."""
    t = _explode(col, runs)
    t = t.take(key_runs(t, t.column_names)[:-1])
    r = t["r"].to_numpy()
    if cap is not None:
        keep = np.arange(len(r)) - np.searchsorted(r, r) < cap
        t, r = t.filter(pa.array(keep)), r[keep]
    return run_lists(r, len(runs) - 1, t.columns[1:], col.type)


def run_counts(col, runs: np.ndarray) -> pa.ListArray:
    """Each run's ``list<struct<s, c>>`` counts, summed per ``s``."""
    t = _explode(col, runs)
    b = key_runs(t, ["r", "f0"])[:-1]
    return run_lists(t["r"].to_numpy()[b], len(runs) - 1, [
        t["f0"].take(b), np.add.reduceat(t["f1"].to_numpy(), b)], col.type)


def map_sorted_blocks(ds, key, fn, schema: pa.Schema):
    """``fn`` over each whole non-empty block of ``ds.sort(key)``; empty
    blocks emit ``schema``'s empty table."""
    ncpu = int(ray.cluster_resources().get("CPU", 4))
    return shuffle_coalesce(ds, min_blocks=ncpu).sort(key).map_batches(
        lambda b: fn(b) if b.num_rows else schema.empty_table(),
        batch_format="pyarrow", batch_size=None)


def aggregate_by(ds, keys, aggs: dict):
    """One row per distinct ``keys`` (a column or a list of columns) with
    ``aggs[col]`` ("sum", "min" or "max") of each column, under the same
    names; ``{}`` gives the distinct keys.  Returned materialized.

    Each of those aggregates applied to its own output gives the same
    answer, so one Arrow ``group_by`` is the map-side partial of every
    input block and the fold of every whole sorted block."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    names = keys + list(aggs)
    spec = list(aggs.items())
    out = keys + [f"{c}_{op}" for c, op in spec]

    def agg(t: pa.Table) -> pa.Table:
        return t.group_by(keys, use_threads=False).aggregate(spec) \
            .select(out).rename_columns(names)

    part = ds.map_batches(agg, batch_format="pyarrow").materialize()
    schema = part.schema()
    if schema is None:                 # no row reached the partial
        return part
    return map_sorted_blocks(part, keys, agg,
                             schema.base_schema).materialize()
