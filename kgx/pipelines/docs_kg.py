"""In-memory (checkpoint-free) KG composition over a generic text corpus.

Same stages as :mod:`kgx.pipelines.kg` (chunk -> extract -> states -> nodes
-> edges) but composed as one lazy Dataset expression with no
Parquet checkpoints between stages — the shape used by the driver's
correctness queries and by tests, where the input is the testdata
``documents`` table adapted to the pages shape.  ``run_pipeline`` remains
the production path (checkpoints + lineage + resume).

The KG tail is :func:`kgx.pipelines.kg.kg_from_extracted`, the one
``stream_kg`` runs: nodes from the fused per-key states, then the
broadcast alias map (``ray.put`` once) resolves the triple states into
edges.  ``claims_table`` resolves claims through the same alias map.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray
from kgx.sources.pages import read_table

from kgx.functions.collect import collect_arrow
from kgx.pipelines.kg import (KGConfig, combine_states, kg_from_extracted,
                              make_chunk_batch_fn)
from kgx.stages.edges import build_alias_map, resolve_and_dedup_claims
from kgx.stages.extract import TermExtractor, make_task_extractor
from kgx.stages.states import nodes_from_states


def read_documents(sf_dir: str):
    """documents table -> pages-shaped Dataset (url, text)."""
    def to_pages(batch: pa.Table) -> pa.Table:
        urls = [f"doc://{d}" for d in batch["doc_id"].to_pylist()]
        return pa.table({
            "url": pa.array(urls, pa.string()),
            "text": batch["text"].combine_chunks(),
        })
    return read_table(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"]).map_batches(
        to_pages, batch_format="pyarrow")


def chunk_documents(sf_dir: str, *, chunk_size: int = 200,
                    chunk_overlap: int = 50):
    """documents -> chunks Dataset (url, chunk_id, chunk_index, text,
    n_tokens)."""
    return read_documents(sf_dir).map_batches(
        make_chunk_batch_fn(chunk_size, chunk_overlap),
        batch_format="pyarrow")


def extract_documents(sf_dir: str, *, chunk_size: int = 200,
                      chunk_overlap: int = 50, extractor=TermExtractor,
                      extractor_kwargs: dict | None = None,
                      concurrency=None, batch_size: int | None = None):
    """documents -> tagged extraction Dataset (mentions/triples/claims).

    Task-based with per-worker cached extractor state by default; pass
    ``concurrency`` to host the extractor on an actor pool.
    ``batch_size=None`` keeps per-block batches: a fixed batch size
    larger than rows/ncpu silently collapses the fused
    chunk->extract->combine chain to a handful of tasks (measured 5
    tasks for 5k docs at 1024 — a 6x wall hit at 32 CPUs)."""
    chunks = chunk_documents(sf_dir, chunk_size=chunk_size,
                             chunk_overlap=chunk_overlap)
    kwargs = extractor_kwargs or {}
    if concurrency is None:
        return chunks.map_batches(make_task_extractor(extractor, **kwargs),
                                  batch_format="pyarrow",
                                  batch_size=batch_size)
    # Actors hold no CPU: they wait on I/O (the LLM transport), and
    # ``concurrency`` already bounds the pool.  An actor holding one would
    # starve the tasks that feed it on a one-CPU cluster.
    return chunks.map_batches(extractor, batch_format="pyarrow",
                              batch_size=batch_size, concurrency=concurrency,
                              num_cpus=0, fn_constructor_kwargs=kwargs)


# Per-Ray-session memo: six graph-analytics driver queries all start from
# kg_tables(sf_dir) — rebuilding the same KG per query re-runs the whole
# extraction chain.  The materialized nodes/edges datasets are immutable
# (consumers only read), the testdata inputs never change mid-session,
# and the job id in the key drops entries from a previous Ray session
# (whose object refs would be dead).
_KG_TABLES_CACHE: dict[tuple, dict] = {}


def kg_tables(sf_dir: str, *, chunk_size: int = 200, chunk_overlap: int = 50,
              min_strength: float = 0.5, cap: int = 200) -> dict:
    """Full in-memory KG build over the documents table.

    Returns ``{"nodes": Dataset, "edges": Dataset}``.  Same fused shape
    as ``stream_kg``: the per-key combiners run inside the extraction
    task chain (kgx.stages.states), so only aggregation-state rows are
    materialized — never the tagged per-occurrence table.  Memoized per
    (Ray session, inputs): repeated calls reuse the materialized tables.
    """
    job = (ray.get_runtime_context().get_job_id()
           if ray.is_initialized() else None)
    key = (job, sf_dir, chunk_size, chunk_overlap, min_strength, cap)
    hit = _KG_TABLES_CACHE.get(key)
    if hit is not None:
        return hit

    kg = kg_from_extracted(
        extract_documents(sf_dir, chunk_size=chunk_size,
                          chunk_overlap=chunk_overlap),
        KGConfig(min_strength=min_strength, instance_cap=cap))
    out = {"nodes": kg["nodes"], "edges": kg["edges"].materialize()}
    _KG_TABLES_CACHE[key] = out
    return out


def claims_table(sf_dir: str, *, chunk_size: int = 200,
                 chunk_overlap: int = 50, cap: int = 200,
                 extractor=TermExtractor, extractor_kwargs: dict | None = None,
                 concurrency=None):
    """Canonical deduplicated claims over the documents table.

    Exercises the full claim path (O4/J2: resolve entity names through
    the broadcast alias map, drop claims with zero resolved entities,
    one union-merge per lower(content) — reference
    knowledge_graph.py:70-101, simple_graph_builder.py:126-145) with the
    generic TermExtractor emitting one claim per chunk (content = chunk
    text, entities = its distinct terms) by default; pass ``extractor``/
    ``extractor_kwargs``/``concurrency`` to run the same claim path
    through another extraction stage (e.g. the actor-pool LLMExtractor
    with a deterministic transport — driver queries ``kg_claims_llm`` /
    ``kg_claims_pipe``).  Returns the claims Dataset sorted by claim_id.
    """
    if extractor_kwargs is None:
        extractor_kwargs = {"emit_claims": True} \
            if extractor is TermExtractor else {}
    extracted = extract_documents(
        sf_dir, chunk_size=chunk_size, chunk_overlap=chunk_overlap,
        extractor=extractor, extractor_kwargs=extractor_kwargs,
        concurrency=concurrency)
    extracted = extracted.materialize()

    states = combine_states(extracted, KGConfig(instance_cap=cap))
    nodes = nodes_from_states(states, cap=cap)
    nodes_tbl = collect_arrow(
        nodes.select_columns(["entity_id", "name", "aliases"]))
    alias_ref = ray.put(build_alias_map(nodes_tbl))

    claims_raw = extracted.map_batches(
        lambda t: t.filter(pc.equal(t["kind"], "claim")).select(
            ["url", "chunk_id", "content", "entities"]),
        batch_format="pyarrow")
    return resolve_and_dedup_claims(claims_raw, alias_ref, cap=cap)


def kg_arrow_tables(sf_dir: str, **kwargs) -> dict:
    """:func:`kg_tables` executed to driver-side Arrow tables (both are
    small post-canonicalization) — the input shape for the driver-side
    downstream stages (community detection / summarization / query)."""
    t = kg_tables(sf_dir, **kwargs)
    return {name: collect_arrow(ds) for name, ds in t.items()}
