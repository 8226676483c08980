"""End-to-end training-corpus curation: the composed pipeline every
individual text operator exists to serve, as ONE lazy Dataset chain.

    documents --lang filter--> --per-source quality gate-->
    --per-source boilerplate scrub--> --corpus segment dedup-->
    --exact doc dedup--> --sequence packing--> packed manifest

Every stage is the operator already oracle-checked on its own
(quality_gate, boilerplate_scrub, segment_dedup, exact dedup, pack
offsets), so the WHOLE composition also has an exact unrolled DuckDB
oracle (driver query ``text_curate``) — end-to-end determinism, not just
per-stage.

Scale shape (inherited from the parts, nothing new materializes): the
gate's threshold map and the scrub's boilerplate set broadcast; the
segment-dedup and exact-dedup shuffles carry narrow (hash, doc_id)
rows, never text; packing is a two-level distributed prefix sum.  The
chain is lazy end to end — blocks stream through all map-side stages
with backpressure, pausing only at the narrow aggregation points.

The reference has no curation at all (it reads a directory of .txt
files verbatim, /root/reference/graphrag_lite_x.py:130-148); this is
the 100 TB-side surface.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray
from kgx.sources.pages import read_table


def curate_corpus(sf_dir: str, *, lang: str = "en", min_docs: int = 2,
                  seg_tokens: int = 10, q_num: int = 1, q_den: int = 4,
                  seq_len: int = 2048,
                  span_dup_ppm_max: int | None = None,
                  span_window: int = 16):
    """documents.parquet -> packed curated-corpus manifest:
    (doc_id, n_tokens, begin_token, seq_id) for every surviving doc.

    Stage order is the standard curation order: cheap row-local filters
    first (language), then per-source statistics (quality gate,
    boilerplate) over the survivors, then global dedups, then packing —
    each stage's statistics are computed over the PREVIOUS stage's
    survivors, which the oracle mirrors exactly.

    ``span_dup_ppm_max`` (opt-in, default off so the exact composed
    oracle is unchanged) inserts a repeated-span gate between the two
    dedups: documents whose cross-corpus duplicated-window fraction
    (:func:`kgx.ops.linededup.duplicated_spans`, measured over the
    segment-deduped survivors) exceeds the threshold are dropped — the
    RefinedWeb-style "mostly copied material" cut.
    """
    from kgx.functions.collect import collect_arrow
    from kgx.ops.linededup import boilerplate_scrub, segment_dedup
    from kgx.ops.packing import pack_offsets
    from kgx.ops.text import quality_gate
    from kgx.pipelines.kg import _LoserFilter
    from kgx.stages.extract import make_task_extractor

    docs = read_table(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text", "lang", "source"])
    docs = docs.map_batches(
        lambda t: t.filter(pc.equal(t["lang"], lang))
                   .select(["doc_id", "text", "source"]),
        batch_format="pyarrow")

    kept = quality_gate(docs, q_num=q_num, q_den=q_den, keep_rows=True)

    scrubbed = boilerplate_scrub(kept, seg_tokens=seg_tokens,
                                 min_docs=min_docs)
    scrubbed = scrubbed.map_batches(
        lambda t: pa.table({
            "doc_id": t["doc_id"],
            "text": t["text_clean"],
        }).filter(pc.is_valid(t["text_clean"])),
        batch_format="pyarrow")

    deduped = segment_dedup(scrubbed, seg_tokens=seg_tokens)
    deduped = deduped.map_batches(
        lambda t: pa.table({
            "doc_id": t["doc_id"],
            "text": t["text_dedup"],
        }).filter(pc.is_valid(t["text_dedup"])),
        batch_format="pyarrow").materialize()

    if span_dup_ppm_max is not None:
        from kgx.ops.linededup import duplicated_spans
        rep = collect_arrow(duplicated_spans(deduped, window=span_window))
        bad = [d for d, ppm in zip(rep["doc_id"].to_pylist(),
                                   rep["dup_ppm"].to_pylist())
               if ppm > span_dup_ppm_max]
        deduped = deduped.map_batches(make_task_extractor(
            _LoserFilter, drop_ref=ray.put(pa.array(sorted(bad), pa.int64())),
            column="doc_id"), batch_format="pyarrow")

    # exact doc dedup, keep-rows form: sort only (md5, doc_id) on the
    # digest, find every digest's losers in one pass per sorted block,
    # broadcast the loser set, filter map-side
    import hashlib

    def fp_rows(batch: pa.Table) -> pa.Table:
        dgs = [hashlib.md5(t.encode("utf-8")).digest()
               for t in batch["text"].to_pylist()]
        his = [int.from_bytes(d[:8], "big", signed=True) for d in dgs]
        los = [int.from_bytes(d[8:], "big", signed=True) for d in dgs]
        return pa.table({
            "h_hi": pa.array(his, pa.int64()),
            "h_lo": pa.array(los, pa.int64()),
            "doc_id": batch["doc_id"],
        })

    def losers(group: pa.Table) -> pa.Table:
        """All-but-smallest doc of every distinct digest in the sorted
        block, vectorized (one call per block, not per distinct text)."""
        import numpy as np
        hi = np.asarray(group["h_hi"].to_pylist(), dtype=np.int64)
        lo = np.asarray(group["h_lo"].to_pylist(), dtype=np.int64)
        ids = np.asarray(group["doc_id"].to_pylist(), dtype=np.int64)
        order = np.lexsort((ids, lo, hi))
        h_s, l_s = hi[order], lo[order]
        first = np.r_[True, (h_s[1:] != h_s[:-1]) | (l_s[1:] != l_s[:-1])]
        return pa.table({"doc_id": pa.array(ids[order[~first]],
                                            pa.int64())})

    from kgx.functions.fold import map_sorted_blocks
    loser_tbl = collect_arrow(map_sorted_blocks(
        deduped.map_batches(fp_rows, batch_format="pyarrow"),
        ["h_hi", "h_lo"], losers, pa.schema([("doc_id", pa.int64())])))
    drop = ray.put(pa.array(sorted(loser_tbl["doc_id"].to_pylist()),
                            pa.int64()))
    uniq = deduped.map_batches(
        make_task_extractor(_LoserFilter, drop_ref=drop, column="doc_id"),
        batch_format="pyarrow")
    return pack_offsets(uniq, seq_len=seq_len)
