"""Benchmark decontamination: flag training documents that share word
n-grams with an evaluation/benchmark corpus.

Standard practice for LLM training data (the reference has no dedup or
decontamination surface at all — this is the training-data operator
side of the engine): any document containing a long-enough n-gram that
also appears in a benchmark set is suspect and gets flagged (and
typically dropped or scrubbed downstream).

Shape at 100 TB: the BENCHMARK side is small (an eval suite is MBs to
low GBs of text) — its distinct n-grams are collected once and
broadcast via ``ray.put``; the corpus side then streams through one
``map_batches`` with NO shuffle at all: per document, build the
distinct-n-gram set (Python set of strings — set hashing is C-level)
and intersect with the broadcast set.  Corpus bytes never move between
workers.  If a benchmark were ever too large to broadcast, the fallback
is a co-shuffle semi-join on gram hash — not implemented because it is
strictly worse for every realistic benchmark size.

Tokenization matches the repo-wide SQL-oracle convention
(``string_split_regex(lower(trim(text)), '\\s+')``) so the DuckDB
oracle (driver query ``text_contaminate``) is exact.
"""

from __future__ import annotations

import re

import pyarrow as pa
import ray

_WS = re.compile(r"\s+")


def _gram_set(text: str, n: int) -> set:
    """Distinct word n-grams of one document, oracle tokenization."""
    stripped = text.strip()
    toks = _WS.split(stripped.lower()) if stripped else []
    return {" ".join(toks[i:i + n]) for i in range(len(toks) - n + 1)}


def benchmark_gram_set(bench_ds, *, n: int = 8) -> ray.ObjectRef:
    """Distinct n-grams of a (small) benchmark corpus, broadcast once.

    Distinct-per-document sets are unioned per batch map-side, so only
    deduplicated gram strings reach the driver."""
    def batch_grams(batch: pa.Table) -> pa.Table:
        grams = set()
        for text in batch["text"].to_pylist():
            grams |= _gram_set(text or "", n)
        return pa.table({"g": pa.array(sorted(grams), pa.string())})

    parts = bench_ds.map_batches(batch_grams, batch_format="pyarrow")
    out: set = set()
    for b in parts.iter_batches(batch_size=1 << 16, batch_format="pyarrow"):
        out.update(b["g"].to_pylist())
    return ray.put(frozenset(out))


def contamination_flags(docs_ds, bench_ref, *, n: int = 8):
    """documents -> (doc_id, n_gram_hits, contaminated) per document.

    ``n_gram_hits`` counts the DISTINCT document n-grams present in the
    benchmark set; ``contaminated`` is ``n_gram_hits > 0``.  One
    streaming ``map_batches`` over the corpus; the benchmark set ships
    once per worker via the object store."""
    def flag(batch: pa.Table) -> pa.Table:
        bench = ray.get(bench_ref)
        hits = [len(_gram_set(t or "", n) & bench)
                for t in batch["text"].to_pylist()]
        hits_arr = pa.array(hits, pa.int64())
        return pa.table({
            "doc_id": batch["doc_id"].combine_chunks().cast(pa.int64()),
            "n_gram_hits": hits_arr,
            "contaminated": pa.array([h > 0 for h in hits], pa.bool_()),
        })

    return docs_ds.map_batches(flag, batch_format="pyarrow")

