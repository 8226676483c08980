"""Corpus-wide segment-level exact deduplication (CCNet line dedup).

CCNet / RefinedWeb drop every repeated LINE across the whole corpus
(keeping its first occurrence) before document-level dedup.  The testdata
corpus has no newlines, so the unit here is a fixed-width token segment
(``seg_tokens`` whitespace tokens, last segment ragged) — for a
newline-delimited corpus the splitter is the only thing that changes.

Scale shape (the full text never moves through a wide shuffle):

1. explode map-side to NARROW rows ``(seg_md5, doc_id, seg_no)`` — the
   segment text stays behind;
2. one sort on ``seg_md5`` puts every occurrence of a segment in one
   block (kgx.functions.fold.map_sorted_blocks); one pass over each
   whole block finds every segment's global winner (smallest
   ``(doc_id, seg_no)``) and emits only the LOSING occurrences;
3. the loser list — one ``(doc_id, seg_no)`` pair per *duplicated*
   occurrence, i.e. proportional to the duplication mass, not the corpus
   — is broadcast (``ray.put``) and every document is rebuilt map-side.

PARTITIONING ASSUMPTION: the duplicate-occurrence list fits the object
store (16 bytes per dropped segment; ~1.6 GB per 10^8 duplicated
segments).  For a boilerplate-heavy corpus beyond that, replace step 3
with ``kgx.ops.joins.hash_equijoin`` of the loser rows against the docs
table on ``doc_id`` (one narrow-keyed co-shuffle of the corpus instead
of a broadcast); the semantics are identical.

Exact DuckDB oracle: window ``row_number() OVER (PARTITION BY md5(seg)
ORDER BY doc_id, seg_no)`` + conditional ``string_agg``.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pyarrow as pa
import ray

from kgx.functions.collect import collect_arrow
from kgx.functions.fold import map_sorted_blocks

_POLY_B = np.uint64(1099511628211)      # FNV prime as the rolling base


def duplicated_spans(docs_ds, *, window: int = 16):
    """Cross-document repeated-span report — the exact-substring-dedup
    signal of Lee et al.'s "Deduplicating Training Data" at fixed
    token-window granularity: every ``window``-token span (stride 1) is
    hashed, spans occurring more than once corpus-wide are duplicates,
    the FIRST occurrence (smallest (doc_id, pos)) owns the span, and
    every other occurrence counts against its document.

    Output: (doc_id, n_windows, n_dup_windows, dup_ppm) for documents
    with at least one window (``len(toks) >= window``); ``dup_ppm =
    floor(n_dup * 1e6 / n_windows)`` — the fraction of a document that
    is verbatim-copied material, the score RefinedWeb-style pipelines
    threshold on before the expensive span-cutting pass.

    Scale shape: per-token blake2b hashes fold into per-window values
    with a vectorized polynomial rolling combine (``window`` uint64
    vector ops per block, wraparound mod 2^64); only NARROW
    (window_hash, doc_id, pos) rows shuffle — one row per corpus token,
    the same order of shuffle mass as the token-level tfidf/logprob
    passes, never the text.  One sort on the window hash ranks
    occurrences in one pass per sorted block, which emits per-doc
    partials that the driver sums.  The
    DuckDB oracle groups by the window STRING itself, so the gate also
    certifies the 64-bit hash collision-free on the tested corpora.

    (Lee et al. use suffix arrays to find variable-length duplicates;
    fixed windows at stride 1 find exactly the spans of length >=
    ``window`` with bounded state and no global sort.)
    """
    def explode(batch: pa.Table) -> pa.Table:
        h_c, d_c, p_c = [], [], []
        for doc_id, text in zip(batch["doc_id"].to_pylist(),
                                batch["text"].to_pylist()):
            stripped = (text or "").strip()
            if not stripped:
                continue
            toks = stripped.lower().split()
            n_win = len(toks) - window + 1
            if n_win < 1:
                continue
            th = np.asarray(
                [int.from_bytes(hashlib.blake2b(
                    t.encode(), digest_size=8).digest(), "big")
                 for t in toks], dtype=np.uint64)
            wh = np.zeros(n_win, dtype=np.uint64)
            for j in range(window):             # vectorized across windows
                wh = wh * _POLY_B + th[j:j + n_win]
            h_c.append(wh)
            d_c.append(np.full(n_win, doc_id, dtype=np.int64))
            p_c.append(np.arange(n_win, dtype=np.int64))
        if not h_c:
            return pa.table({"h": pa.array([], pa.uint64()),
                             "doc_id": pa.array([], pa.int64()),
                             "pos": pa.array([], pa.int64())})
        hh = np.concatenate(h_c)
        return pa.table({
            "h": pa.array(hh, pa.uint64()),
            "doc_id": pa.array(np.concatenate(d_c), pa.int64()),
            "pos": pa.array(np.concatenate(p_c), pa.int64()),
        })

    def rank_group(group: pa.Table) -> pa.Table:
        """Per sorted block: every distinct hash value in the block
        ranks independently (owner = lexicographically first
        (doc_id, pos) occurrence); emits per-doc duplicate-count
        partials — one vectorized Python call per block."""
        d = np.asarray(group["doc_id"].to_pylist(), dtype=np.int64)
        p = np.asarray(group["pos"].to_pylist(), dtype=np.int64)
        h = np.asarray(group["h"].to_pylist(), dtype=np.uint64)
        order = np.lexsort((p, d, h))
        hs = h[order]
        first = np.r_[True, hs[1:] != hs[:-1]]
        losers = order[~first]
        uniq, inv = np.unique(d[losers], return_inverse=True)
        return pa.table({
            "doc_id": pa.array(uniq, pa.int64()),
            "dup": pa.array(np.bincount(inv, minlength=len(uniq))
                            .astype(np.int64), pa.int64()),
        })

    def totals(batch: pa.Table) -> pa.Table:
        ids, ns = [], []
        for doc_id, text in zip(batch["doc_id"].to_pylist(),
                                batch["text"].to_pylist()):
            stripped = (text or "").strip()
            if not stripped:
                continue
            n_win = len(stripped.lower().split()) - window + 1
            if n_win >= 1:
                ids.append(doc_id)
                ns.append(n_win)
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "n_windows": pa.array(ns, pa.int64())})

    dup_parts = collect_arrow(map_sorted_blocks(
        docs_ds.map_batches(explode, batch_format="pyarrow"), "h",
        rank_group,
        pa.schema([("doc_id", pa.int64()), ("dup", pa.int64())])))
    dup_map: dict[int, int] = {}
    for doc_id, c in zip(dup_parts["doc_id"].to_pylist(),
                         dup_parts["dup"].to_pylist()):
        dup_map[doc_id] = dup_map.get(doc_id, 0) + c
    dref = ray.put(dup_map)

    def finish(batch: pa.Table) -> pa.Table:
        dm = ray.get(dref)
        ids = np.asarray(batch["doc_id"].to_pylist(), dtype=np.int64)
        nw = np.asarray(batch["n_windows"].to_pylist(), dtype=np.int64)
        dup = np.asarray([dm.get(int(i), 0) for i in ids], dtype=np.int64)
        ppm = (dup * 1_000_000) // nw
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "n_windows": pa.array(nw, pa.int64()),
            "n_dup_windows": pa.array(dup, pa.int64()),
            "dup_ppm": pa.array(ppm, pa.int64()),
        })

    return docs_ds.map_batches(totals, batch_format="pyarrow") \
        .map_batches(finish, batch_format="pyarrow")

# seg_no packs into the low bits of a composite int64 key.
_SEG_BITS = 20
_SEG_CAP = 1 << _SEG_BITS


def _segments(text: str, seg_tokens: int) -> list[str]:
    toks = text.split(" ")
    n = math.ceil(len(toks) / seg_tokens)
    return [" ".join(toks[i * seg_tokens:(i + 1) * seg_tokens])
            for i in range(n)]


def segment_dedup(docs_ds, *, seg_tokens: int = 10):
    """(doc_id, text) -> (doc_id, text_dedup, n_segs, n_dropped) where
    every segment that already occurred earlier in the corpus (smaller
    (doc_id, seg_no)) is removed.  ``text_dedup`` is null when every
    segment of the document was a repeat."""

    def explode(batch: pa.Table) -> pa.Table:
        ids, segs_no, his, los = [], [], [], []
        for d, t in zip(batch["doc_id"].to_pylist(),
                        batch["text"].to_pylist()):
            segs = _segments(t, seg_tokens)
            if len(segs) >= _SEG_CAP:
                raise ValueError(
                    f"doc {d} has {len(segs)} segments >= {_SEG_CAP}; "
                    "raise _SEG_BITS")
            ids.extend([d] * len(segs))
            segs_no.extend(range(len(segs)))
            # the digest ships as two int64 halves, not hex (half the
            # shuffle key bytes; the key is internal — the oracle
            # compares only the rebuilt documents, and any injective
            # hash yields the same winners)
            for s in segs:
                dg = hashlib.md5(s.encode("utf-8")).digest()
                his.append(int.from_bytes(dg[:8], "big", signed=True))
                los.append(int.from_bytes(dg[8:], "big", signed=True))
        return pa.table({
            "h_hi": pa.array(his, pa.int64()),
            "h_lo": pa.array(los, pa.int64()),
            "doc_id": pa.array(ids, pa.int64()),
            "seg_no": pa.array(segs_no, pa.int64()),
        })

    def losers(group: pa.Table) -> pa.Table:
        """All-but-the-winner of EVERY distinct digest in one sorted
        block, vectorized (one Python call per block, not per
        segment)."""
        hi = np.asarray(group["h_hi"].to_pylist(), dtype=np.int64)
        lo = np.asarray(group["h_lo"].to_pylist(), dtype=np.int64)
        ids = np.asarray(group["doc_id"].to_pylist(), dtype=np.int64)
        segs = np.asarray(group["seg_no"].to_pylist(), dtype=np.int64)
        order = np.lexsort((segs, ids, lo, hi))
        h_s, l_s = hi[order], lo[order]
        first = np.r_[True, (h_s[1:] != h_s[:-1]) | (l_s[1:] != l_s[:-1])]
        lose = order[~first]
        return pa.table({
            "doc_id": pa.array(ids[lose], pa.int64()),
            "seg_no": pa.array(segs[lose], pa.int64()),
        })

    loser_tbl = collect_arrow(map_sorted_blocks(
        docs_ds.map_batches(explode, batch_format="pyarrow"),
        ["h_hi", "h_lo"], losers,
        pa.schema([("doc_id", pa.int64()), ("seg_no", pa.int64())])))
    if loser_tbl.num_rows:
        drop_keys = (np.asarray(loser_tbl["doc_id"].to_pylist(),
                                dtype=np.int64) * _SEG_CAP
                     + np.asarray(loser_tbl["seg_no"].to_pylist(),
                                  dtype=np.int64))
    else:
        drop_keys = np.array([], dtype=np.int64)
    dref = ray.put(frozenset(drop_keys.tolist()))

    def rebuild(batch: pa.Table) -> pa.Table:
        drop = ray.get(dref)
        out_text, out_nseg, out_ndrop = [], [], []
        for d, t in zip(batch["doc_id"].to_pylist(),
                        batch["text"].to_pylist()):
            segs = _segments(t, seg_tokens)
            base = d * _SEG_CAP
            kept = [s for i, s in enumerate(segs) if base + i not in drop]
            out_text.append(" ".join(kept) if kept else None)
            out_nseg.append(len(segs))
            out_ndrop.append(len(segs) - len(kept))
        return pa.table({
            "doc_id": batch["doc_id"],
            "text_dedup": pa.array(out_text, pa.string()),
            "n_segs": pa.array(out_nseg, pa.int64()),
            "n_dropped": pa.array(out_ndrop, pa.int64()),
        })

    return docs_ds.map_batches(rebuild, batch_format="pyarrow")


def boilerplate_scrub(docs_ds, *, seg_tokens: int = 10, min_docs: int = 2):
    """CCNet-style PER-SOURCE boilerplate removal: a segment occurring in
    >= ``min_docs`` DISTINCT documents of the same source is boilerplate
    (site chrome / shared disclaimer) and ALL its occurrences are removed
    — unlike :func:`segment_dedup`, which keeps one global winner.

    Scale shape:

    1. explode map-side to narrow ``(source, seg_md5, doc_id)`` rows,
       deduplicated per document IN-BATCH, so the shuffle carries at
       most one row per (doc, segment) — the text stays behind;
    2. one sort on ``seg_md5`` puts every occurrence of a segment in one
       block, and one pass over each whole block counts distinct
       documents per (source, segment) (run length == the segment's
       doc frequency) and emits only segments at or above
       ``min_docs`` — the boilerplate set, which is tiny by
       construction (it's the *repeated* mass);
    3. the boilerplate ``(source, seg_md5)`` set broadcasts (``ray.put``)
       and every document is rebuilt map-side.

    Output: (doc_id, text_clean nullable, n_segs, n_removed).
    """

    def explode(batch: pa.Table) -> pa.Table:
        srcs, md5s = [], []
        for d, t, src in zip(batch["doc_id"].to_pylist(),
                             batch["text"].to_pylist(),
                             batch["source"].to_pylist()):
            seen = set()
            for s in _segments(t, seg_tokens):
                h = hashlib.md5(s.encode("utf-8")).digest()
                if h not in seen:          # in-batch per-doc distinct
                    seen.add(h)
                    srcs.append(src)
                    md5s.append(h)
        return pa.table({
            "source": pa.array(srcs, pa.string()),
            "seg_md5": pa.array(md5s, pa.binary()),
        })

    def frequent(group: pa.Table) -> pa.Table:
        """One row per (source, segment) occurring in >= min_docs docs,
        folded over the whole sorted block vectorized."""
        import pyarrow.compute as pc
        scodes = pc.dictionary_encode(group["source"].combine_chunks()) \
                   .indices.to_numpy(zero_copy_only=False) \
                   .astype(np.int64)
        md5b = group["seg_md5"].to_pylist()
        hcodes_map: dict[bytes, int] = {}
        hcodes = np.asarray(
            [hcodes_map.setdefault(h, len(hcodes_map)) for h in md5b],
            dtype=np.int64)
        order = np.lexsort((hcodes, scodes))
        sc_s, hc_s = scodes[order], hcodes[order]
        first = np.r_[True, (sc_s[1:] != sc_s[:-1]) |
                      (hc_s[1:] != hc_s[:-1])]
        seg_id = np.cumsum(first) - 1
        counts = np.bincount(seg_id)
        keep_first_rows = order[np.flatnonzero(first)][
            counts >= min_docs]
        return group.take(pa.array(keep_first_rows, pa.int64())) \
            .select(["source", "seg_md5"])

    boiler = collect_arrow(map_sorted_blocks(
        docs_ds.map_batches(explode, batch_format="pyarrow"), "seg_md5",
        frequent,
        pa.schema([("source", pa.string()), ("seg_md5", pa.binary())])))
    bset = frozenset(zip(boiler["source"].to_pylist(),
                         boiler["seg_md5"].to_pylist()))
    bref = ray.put(bset)

    def rebuild(batch: pa.Table) -> pa.Table:
        drop = ray.get(bref)
        out_text, out_nseg, out_ndrop = [], [], []
        for t, src in zip(batch["text"].to_pylist(),
                          batch["source"].to_pylist()):
            segs = _segments(t, seg_tokens)
            kept = [s for s in segs
                    if (src, hashlib.md5(s.encode("utf-8")).digest())
                    not in drop]
            out_text.append(" ".join(kept) if kept else None)
            out_nseg.append(len(segs))
            out_ndrop.append(len(segs) - len(kept))
        return pa.table({
            "doc_id": batch["doc_id"],
            "text_clean": pa.array(out_text, pa.string()),
            "n_segs": pa.array(out_nseg, pa.int64()),
            "n_removed": pa.array(out_ndrop, pa.int64()),
        })

    return docs_ds.map_batches(rebuild, batch_format="pyarrow")
