"""Sequence packing: assign every document a global token offset and a
fixed-length training-sequence id (contiguous packing).

The standard pre-training step the reference lacks entirely: documents
are concatenated in a canonical order (doc_id asc) and the token stream
is cut into fixed ``seq_len`` sequences; each document's starting
sequence is ``begin_token // seq_len``.  Downstream loaders use
(seq_id, begin_token) to build packed batches without re-tokenizing.

Scale shape (100 TB path) — a distributed EXCLUSIVE PREFIX SUM:

1. one streaming ``map_batches`` computes (doc_id, n_tokens) — a
   16-byte row per doc; the corpus text never moves again;
2. docs are bucketed into coarse id ranges (``doc_id // range_size``);
   per-RANGE token sums are pre-aggregated inside each batch, so the
   driver collects only one tiny (range, sum) table (10^10 docs at the
   default range_size=65536 -> ~150k rows), prefix-scans it, and
   broadcasts the per-range starting offsets via ``ray.put``;
3. one ``groupby(range)`` shuffle of the NARROW count table computes
   in-range exclusive cumsums (sort by doc_id + ``np.cumsum``) and adds
   the broadcast range offset.

Only the (doc_id, n_tokens) table is shuffled — never text.  The range
key is contiguous in doc_id so the operator needs no global sort.
Partitioning assumption: one range's count rows fit a group
(range_size * 16 bytes ~ 1 MB at default).

Token counting follows the repo-wide oracle convention: number of
``\\S+`` runs (``kgx.ops.text.WS_TOKEN_RE``), so the DuckDB oracle
(driver query ``text_pack``) is exact.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from kgx.ops.text import WS_TOKEN_RE


def token_count_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, text) -> (doc_id, n_tokens) — vectorized regex count."""
    return pa.table({
        "doc_id": batch["doc_id"].combine_chunks().cast(pa.int64()),
        "n_tokens": pc.count_substring_regex(
            batch["text"].combine_chunks(), WS_TOKEN_RE).cast(pa.int64()),
    })


def pack_offsets(docs_ds, *, seq_len: int = 2048,
                 range_size: int = 65536):
    """documents -> (doc_id, n_tokens, begin_token, seq_id) per doc.

    ``begin_token`` is the exclusive prefix sum of ``n_tokens`` over
    docs ordered by doc_id; ``seq_id = begin_token // seq_len``.
    """
    counts = docs_ds.map_batches(token_count_batch, batch_format="pyarrow")

    def with_range(batch: pa.Table) -> pa.Table:
        rng = pc.divide(batch["doc_id"], range_size).cast(pa.int64())
        return batch.append_column("rng", rng)

    # materialized once: the range partials and the range shuffle below
    # both read it, and a lazy plan would tokenize the corpus twice
    counts = counts.map_batches(with_range, batch_format="pyarrow") \
        .materialize()

    # per-batch partial range sums -> tiny driver-side prefix scan
    def range_partials(batch: pa.Table) -> pa.Table:
        t = batch.select(["rng", "n_tokens"])
        return t.group_by(["rng"]).aggregate([("n_tokens", "sum")])

    from kgx.functions.collect import collect_arrow
    parts = collect_arrow(
        counts.map_batches(range_partials, batch_format="pyarrow"))
    if parts.num_rows:
        agg = parts.group_by(["rng"]).aggregate([("n_tokens_sum", "sum")])
        rngs = np.asarray(agg["rng"].to_pylist(), dtype=np.int64)
        sums = np.asarray(agg["n_tokens_sum_sum"].to_pylist(),
                          dtype=np.int64)
        order = np.argsort(rngs)
        rngs, sums = rngs[order], sums[order]
        starts = np.concatenate(([0], np.cumsum(sums)[:-1]))
        offsets = dict(zip(rngs.tolist(), starts.tolist()))
    else:
        offsets = {}
    oref = ray.put(offsets)

    def scan_range(group: pa.Table) -> pa.Table:
        # the per-range offset dict ships once per worker via plasma
        base = ray.get(oref)[group["rng"][0].as_py()]
        ids = np.asarray(group["doc_id"].to_pylist(), dtype=np.int64)
        nt = np.asarray(group["n_tokens"].to_pylist(), dtype=np.int64)
        order = np.argsort(ids)
        ids, nt = ids[order], nt[order]
        begin = base + np.concatenate(([0], np.cumsum(nt)[:-1]))
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "n_tokens": pa.array(nt, pa.int64()),
            "begin_token": pa.array(begin, pa.int64()),
            "seq_id": pa.array(begin // seq_len, pa.int64()),
        })

    from kgx.functions.collect import shuffle_coalesce
    return shuffle_coalesce(counts).groupby("rng").map_groups(
        scan_range, batch_format="pyarrow")
