"""The KG-construction pipeline (SURVEY.md §3.4 lifecycle).

pages --map_batches--> texts --map_batches--> chunks --map_batches-->
extracted(tagged) --combine--> states (kgx.stages.states) --fold-->
nodes; states --broadcast resolve + fold--> edges; extracted
--broadcast resolve + fold--> claims --> sorted canonical Parquet
tables (each fold is one sort on the output key plus one pass over every
sorted block, kgx.functions.fold), with per-stage checkpoint manifests
(skip-on-match resume) and per-partition lineage.  No stage here sizes a
fold's input: each fold coalesces its own input to at most one block per
Ray CPU (kgx.functions.fold).  ``stream_kg`` composes the same stages
with no checkpoints; it and ``kgx.pipelines.docs_kg`` share
:func:`kg_from_extracted`, and every composition finalizes nodes and
edges from the same fused states.

Stage boundaries are Parquet checkpoints by design: (a) the north_rule
requires killed-run resume from the last completed block, and (b) the
tagged extraction output fans out to three consumers (nodes/edges/claims)
without recomputing extraction.  Within a stage, execution is Ray Data's
streaming executor — blocks flow with backpressure; nothing materializes
the whole dataset in memory.
"""

from __future__ import annotations

import dataclasses
import functools
import glob
import os
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data as rd
from ray.data.context import ShuffleStrategy

from kgx.functions.collect import collect_arrow
from kgx.functions.fold import key_runs, map_sorted_blocks
from kgx.functions.html_text import EXTRACTOR_VERSION, extract_text
from kgx.stages.edges import build_alias_map, resolve_and_dedup_claims
from kgx.stages.extract import (GazetteerExtractor, TermExtractor,
                                make_task_extractor)
from kgx.stages.states import (edges_from_states, make_combine_extracted_fn,
                               nodes_from_states)
from kgx.state import manifest as mf

# Extractors a KGConfig can name.  LLMExtractor is not one: it needs an
# injected transport, which no KGConfig field carries (kgx.pipelines.docs_kg
# and __ray_entry__ drive it with one).
EXTRACTORS = {
    "gazetteer": GazetteerExtractor,
    "term": TermExtractor,
}


@dataclasses.dataclass
class KGConfig:
    """Pipeline knobs (reference analog: GraphRAGConfig,
    /root/reference/config.py:13-53)."""
    chunk_size: int = 200
    chunk_overlap: int = 50
    min_strength: float = 0.5          # /root/reference/config.py:37
    extractor: str = "gazetteer"
    lang_filter: str | None = None     # e.g. "en" to keep only that lang
    # Accepted and ignored: mention states are no longer salted (the
    # in-chain combiner already leaves one state row per key per batch).
    # Kept because callers still pass cfg.n_salts; a perf knob, so it is
    # outside the config hash.
    n_salts: int = 32
    instance_cap: int = 200
    # Drop exact-duplicate pages (same extracted text) before chunking,
    # keeping the smallest url — Common-Crawl corpora are rife with exact
    # re-crawls and mirrors.  SEMANTIC knob (changes provenance counts).
    dedup_pages: bool = False
    # Keep only each url's NEWEST snapshot by warc_ts before anything
    # else (kgx/sources/pages.py:latest_crawl_per_url) — the recrawl-side
    # complement of dedup_pages.  SEMANTIC knob.
    dedup_recrawls: bool = False
    # Optional near-duplicate entity merge after exact canonicalization
    # (MinHash-LSH over name shingles; the scalable analog of the
    # reference's 0.85-cosine greedy resolver).  None disables; a value is
    # the signature-Jaccard merge threshold.  SEMANTIC knob: changes
    # results, so it is part of the checkpoint identity.
    neardup_threshold: float | None = None
    # Optional embedding-COSINE entity merge — the reference resolver's
    # exact semantics (entity_resolver.py:25-56) via hyperplane-LSH
    # candidates + exact cosine verify over name embeddings
    # (kgx/stages/neardup.py:cosine_merge_nodes).  None disables; a value
    # is the cosine merge threshold (0.6 fits the character-shingle
    # stand-in embedding; 0.85 with a real encoder).  Composes with
    # neardup_threshold (cosine pass runs after).  SEMANTIC knob.
    cosine_merge_threshold: float | None = None
    # Incremental-ingest page screening (update_pipeline only): drop pages
    # of a NEW shard whose extracted text already exists in the base
    # corpus or a previously ingested shard, via the sharded
    # FingerprintIndex actors (kgx/state/dedup_index.py) — earlier-ingest
    # wins, deterministic because prior corpora are immutable.  SEMANTIC
    # knob.  Within-shard duplicates remain dedup_pages' job.
    cross_shard_dedup: bool = False
    # Incremental-ingest recrawl supersede: a url re-ingested with a
    # NEWER warc_ts retracts the older snapshot's extracted rows at
    # finalize, so the updated KG equals a from-scratch build over each
    # url's latest snapshot (newest-snapshot-wins; ties break to the
    # later source).  Each source persists a tiny (url, warc_ts)
    # crawlmeta sidecar; the finalize computes per-source loser-url sets
    # from the sidecars and drops map-side.  SCALE SHAPE: the loser sets
    # are bounded by the cross-source recrawl overlap (the refresh
    # batch), not the corpus — swap the broadcast for a co-shuffle join
    # on url if a refresh ever rewrites most of the corpus.  SEMANTIC
    # knob.
    supersede_recrawls: bool = False
    # Performance knobs (never part of the checkpoint config hash — they
    # cannot change results, only wall time).
    extract_batch_size: int = 1024

    _PERF_KNOBS = ("extract_batch_size", "n_salts")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def semantic_dict(self) -> dict:
        """Only the knobs that change pipeline RESULTS (checkpoint identity)."""
        return {k: v for k, v in dataclasses.asdict(self).items()
                if k not in self._PERF_KNOBS}


def extract_text_batch(batch: pa.Table) -> pa.Table:
    """HTML->text over one pages batch.  Rows with a pre-extracted non-null
    ``text`` pass through byte-identically (input_hint invariant); others
    run the pinned pure extractor over ``html``."""
    htmls = batch["html"].to_pylist()
    texts = batch["text"].to_pylist()
    out = [t if t is not None else extract_text(h)
           for h, t in zip(htmls, texts)]
    return pa.table({
        "url": batch["url"].combine_chunks(),
        "text": pa.array(out, pa.string()),
        "lang": batch["lang"].combine_chunks(),
    })


def _page_fp_batch(batch: pa.Table) -> pa.Table:
    """Append the content fingerprint (md5 of text; null for empty text)."""
    import hashlib
    digests = [hashlib.md5(t.encode("utf-8")).hexdigest() if t else None
               for t in batch["text"].to_pylist()]
    return batch.append_column("fp", pa.array(digests, pa.string()))


def _page_dup_losers(tagged_ds):
    """The (fp, url) pairs to DROP: for each fingerprint every distinct
    url but the smallest.  The input is projected to (fp, url) BEFORE the
    sort, so the all-to-all moves two narrow string columns — never the
    page text.  Losers come from DISTINCT (fp, url) pairs, so a url
    holding the same text twice is never listed against itself."""
    schema = pa.schema([("fp", pa.string()), ("url", pa.string())])

    def losers(block: pa.Table) -> pa.Table:
        # every row of an fp is in this block: order its distinct
        # (fp, url) pairs and drop each fp's first
        t = block.group_by(["fp", "url"]).aggregate([]).sort_by(
            [("fp", "ascending"), ("url", "ascending")])
        fp = t["fp"].combine_chunks()
        dup = pc.equal(fp.slice(1), fp.slice(0, len(fp) - 1))
        return t.slice(1).filter(dup).select(schema.names)

    narrow = tagged_ds.map_batches(
        lambda t: t.filter(pc.is_valid(t["fp"])).select(schema.names),
        batch_format="pyarrow")
    return map_sorted_blocks(narrow, "fp", losers, schema)


def _fp_url_key(t: pa.Table):
    """One string per (fp, url) pair: fp is 32 hex characters, so
    ``fp + url`` is unambiguous.  Null where fp is null."""
    return pc.binary_join_element_wise(t["fp"], t["url"], "")


class _LoserFilter:
    """Drop the rows whose key is in the broadcast loser set (a list of
    strings or an Arrow array): their ``column``, or by default their own
    (fp, url) key (and then the ``fp`` column).  Run through
    ``make_task_extractor``, so the set is ``ray.get`` once per worker."""

    def __init__(self, drop_ref, column: str | None = None):
        vs = ray.get(drop_ref)
        self.vs = vs if isinstance(vs, pa.Array) else pa.array(vs, pa.string())
        self.column = column

    def __call__(self, batch: pa.Table) -> pa.Table:
        # a null key (empty text, no url) is never in the set
        key = batch[self.column] if self.column else _fp_url_key(batch)
        kept = batch.filter(pc.invert(pc.is_in(key, value_set=self.vs)))
        return kept if self.column else kept.drop_columns(["fp"])


def dedup_pages_by_text(texts_ds):
    """Exact page dedup on the extracted text, in the narrow-shuffle shape:

    1. fingerprint each page map-side (md5 of text);
    2. shuffle ONLY (fp, url) to find each fingerprint's losers (every
       url but the lexicographically smallest — the deterministic
       representative);
    3. broadcast the loser (fp, url) keys once (``ray.put``) and drop
       map-side exactly the rows whose own (fp, url) is listed, so a
       url's other texts survive.  Page text never moves through an
       all-to-all.

    The tagged dataset is materialized once (object store, spillable) so
    fingerprints aren't recomputed for the filter pass.  Scale note: the
    broadcast set holds only the DUPLICATE pairs (bounded by the corpus's
    duplicate fraction, not its size); if a corpus were majority-duplicate
    the loser set itself would need the co-shuffle treatment — the
    near-dup path for pages is kgx.ops.dedup.minhash_lsh_pairs.

    Rows with EMPTY text (null/unparseable html) pass through unchanged —
    they are failed extractions, not duplicates of each other; whether to
    drop them is a separate filtering decision.
    """
    tagged = texts_ds.map_batches(_page_fp_batch,
                                  batch_format="pyarrow").materialize()
    loser_tbl = collect_arrow(_page_dup_losers(tagged))
    drop_ref = ray.put(sorted(_fp_url_key(loser_tbl).to_pylist()))
    return tagged.map_batches(
        make_task_extractor(_LoserFilter, drop_ref=drop_ref),
        batch_format="pyarrow")


def make_chunk_batch_fn(size: int, overlap: int):
    """1->N row expansion: texts batch -> chunks batch (M1/M2).

    Inlines :func:`kgx.functions.chunker.chunk_text`'s window semantics
    (same starts via chunk_token_windows, same join) straight into column
    lists — no per-chunk dict round-trip in the hot path; chunk_text
    remains the sequential-oracle form and the two are equivalence-tested.
    """
    from kgx.functions.chunker import chunk_token_windows

    def chunk_batch(batch: pa.Table) -> pa.Table:
        urls, chunk_ids, idxs, texts, ntoks = [], [], [], [], []
        for url, text in zip(batch["url"].to_pylist(),
                             batch["text"].to_pylist()):
            tokens = (text or "").split()
            for i, start in enumerate(
                    chunk_token_windows(len(tokens), size, overlap)):
                window = tokens[start:start + size]
                urls.append(url)
                chunk_ids.append(f"{url}_{i}")
                idxs.append(i)
                texts.append(" ".join(window))
                ntoks.append(len(window))
        return pa.table({
            "url": pa.array(urls, pa.string()),
            "chunk_id": pa.array(chunk_ids, pa.string()),
            "chunk_index": pa.array(idxs, pa.int32()),
            "text": pa.array(texts, pa.string()),
            "n_tokens": pa.array(ntoks, pa.int32()),
        })
    return chunk_batch


def _run_stage(out_dir, stage, input_fp, cfg_hash, build_and_write, resume):
    """Skip the stage when its manifest matches; else (re)run it.  The
    builder may return the executed Dataset so its ``stats()`` report is
    archived in the manifest (SURVEY.md §4 metrics/lineage)."""
    if resume and mf.stage_is_done(out_dir, stage, input_fp, cfg_hash):
        return False
    mf.begin_stage(out_dir, stage)
    t0 = time.perf_counter()
    ds = build_and_write(mf.stage_dir(out_dir, stage))
    extra = None
    if ds is not None:
        try:
            extra = {"ray_stats": ds.stats()[-4000:]}
        except Exception:
            extra = None
    mf.finish_stage(out_dir, stage, input_fp, cfg_hash,
                    time.perf_counter() - t0, extra)
    return True


def _prepare_data_context() -> int:
    """Prepare this process's Ray Data context for a KG run; returns the
    cluster CPU count.

    Scales the minimum read split count with the cluster instead of Ray's
    fixed default (200): on a small cluster 200 read tasks over a small
    stage checkpoint is pure per-task scheduling overhead, while on a
    large cluster real inputs produce far more blocks from size alone.
    Refuses ``ShuffleStrategy.HASH_SHUFFLE`` before anything executes:
    on this Ray version a groupby over a 6k-row table did not finish
    within 10 min at one CPU under it."""
    ctx = rd.DataContext.get_current()
    if ctx.shuffle_strategy == ShuffleStrategy.HASH_SHUFFLE:
        raise ValueError(
            "kgx groupbys need a sort-based shuffle: DataContext."
            "shuffle_strategy=HASH_SHUFFLE hangs at low CPU counts")
    ncpu = int(ray.cluster_resources().get("CPU", 4))
    ctx.read_op_min_num_blocks = min(200, max(2 * ncpu, 16))
    return ncpu


def combine_states(extracted, cfg: KGConfig, *, batch_size=None):
    """Tagged extraction Dataset -> materialized fused state rows
    (kgx.stages.states): one row per key per combine batch."""
    return extracted.map_batches(
        make_combine_extracted_fn(cap=cfg.instance_cap,
                                  min_strength=cfg.min_strength),
        batch_format="pyarrow", batch_size=batch_size).materialize()


def finalize_nodes(states, cfg: KGConfig):
    """State rows -> canonical nodes, then the optional near-duplicate
    (MinHash) and cosine entity merges."""
    nodes = nodes_from_states(states, cap=cfg.instance_cap)
    if cfg.neardup_threshold is not None:
        from kgx.stages.neardup import neardup_merge_nodes
        nodes = neardup_merge_nodes(nodes, threshold=cfg.neardup_threshold,
                                    cap=cfg.instance_cap)
    if cfg.cosine_merge_threshold is not None:
        from kgx.stages.neardup import cosine_merge_nodes
        nodes = cosine_merge_nodes(nodes,
                                   threshold=cfg.cosine_merge_threshold,
                                   cap=cfg.instance_cap)
    return nodes


def _read_latest_pages(pages_path: str, cfg: KGConfig, *,
                       pages_ds_factory=None, **read_kw):
    """The pages a KG run starts from: (url, html, text, lang), read from
    ``pages_path`` unless ``pages_ds_factory`` builds them.  Under
    ``dedup_recrawls`` or ``supersede_recrawls`` the read adds
    ``warc_ts`` and only each url's newest snapshot survives
    (kgx.sources.pages.latest_crawl_per_url); ``warc_ts`` stays on the
    rows.  ``supersede_recrawls`` refuses pages without ``warc_ts``;
    ``dedup_recrawls`` alone passes them through unchanged."""
    recrawls = cfg.dedup_recrawls or cfg.supersede_recrawls
    if pages_ds_factory is not None:
        ds = pages_ds_factory()
    else:
        cols = ["url", "html", "text", "lang"]
        if recrawls:
            cols.insert(1, "warc_ts")
        ds = rd.read_parquet(pages_path, columns=cols, **read_kw)
    if not recrawls:
        return ds
    if "warc_ts" not in [f.name for f in ds.schema().base_schema]:
        if cfg.supersede_recrawls:
            raise ValueError(
                "supersede_recrawls needs a warc_ts column on the pages")
        return ds
    from kgx.sources.pages import latest_crawl_per_url
    return latest_crawl_per_url(ds)


def _check_extractor(cfg: KGConfig) -> None:
    """Refuse an unknown ``cfg.extractor`` before any Dataset runs."""
    if cfg.extractor not in EXTRACTORS:
        raise ValueError(f"unknown extractor {cfg.extractor!r}; "
                         f"expected one of {sorted(EXTRACTORS)}")


def _select_pages(ds, cfg: KGConfig):
    """Pages -> the texts the KG is built from: html to text, then
    ``lang_filter`` and ``dedup_pages``."""
    ds = ds.map_batches(extract_text_batch, batch_format="pyarrow")
    if cfg.lang_filter:
        ds = ds.map_batches(
            lambda t: t.filter(pc.equal(t["lang"], cfg.lang_filter)),
            batch_format="pyarrow")
    if cfg.dedup_pages:
        ds = dedup_pages_by_text(ds)
    return ds


def kg_from_extracted(extracted, cfg: KGConfig) -> dict:
    """Tagged extraction Dataset -> ``{"nodes": Dataset, "edges":
    Dataset}``: the checkpoint-free KG tail of ``stream_kg`` and
    ``docs_kg.kg_tables``.  Nodes come back materialized (the alias map
    is built from them).  Every fold materializes and coalesces its
    input when it is built (kgx.functions.fold), so the alias-resolved
    edge input is computed here too; only the edges' sort and fold stay
    lazy."""
    states = combine_states(extracted, cfg)
    nodes = finalize_nodes(states, cfg).materialize()
    # the nodes are materialized: project the Arrow table, not the
    # Dataset, which would run one more Ray execution
    nodes_tbl = collect_arrow(nodes).select(["entity_id", "name", "aliases"])
    alias_ref = ray.put(build_alias_map(nodes_tbl))
    edges = edges_from_states(states, alias_ref, cap=cfg.instance_cap)
    return {"nodes": nodes, "edges": edges}


def stream_kg(pages_path: str, cfg: KGConfig | None = None) -> dict:
    """Checkpoint-free streaming composition of the same stages: each
    output is a sort plus a fold over an input that its fold materialized
    and coalesced when it was built (kgx.functions.fold); intermediates
    live in the object store (spilling under pressure), nothing touches
    the filesystem until the caller writes the final tables.

    Throughput shape (kgx.stages.states): the per-batch combiners run
    INSIDE the fused read->text->chunk->extract task chain, so only one
    aggregation-state row per key per block leaves the map phase — the
    corpus-sized tagged table is never materialized and never re-scanned,
    and the downstream shuffles run over a few small blocks.  Results are
    identical to the checkpointed ``run_pipeline`` (parity-tested), page
    selection included: ``lang_filter``, ``dedup_pages``,
    ``dedup_recrawls`` and ``supersede_recrawls``.
    Returns ``{"nodes": Dataset, "edges": Dataset}``.
    """
    cfg = cfg or KGConfig()
    _check_extractor(cfg)
    ncpu = _prepare_data_context()
    # Block count tracks the cluster: ~4 waves of fused
    # read->text->chunk->extract tasks.  The wave knee moved as the
    # kernels got faster: the original sweep (round 2, ~1.2 ms/page
    # kernels) read 4/8/16 waves = 28.4/24.6/23.6 s — smaller blocks
    # shortened the straggler tail; at the round-5 ~0.6 ms/page kernels
    # the per-task fixed cost dominates instead (re-measured at 32 CPUs:
    # 4 waves 8.9 s, 8 waves 10.5 s, 16 waves 10.4 s for the same
    # stage), so fewer, larger blocks win.  Straggler re-leveling still
    # has 4 tasks per core to work with.
    ds = _select_pages(
        _read_latest_pages(pages_path, cfg, override_num_blocks=4 * ncpu),
        cfg)
    ds = ds.map_batches(make_chunk_batch_fn(cfg.chunk_size, cfg.chunk_overlap),
                        batch_format="pyarrow")
    # The per-block combine (combine_states, batch_size=None) fuses into
    # this map chain: one state row per key per block leaves it.
    extracted = ds.map_batches(make_task_extractor(EXTRACTORS[cfg.extractor]),
                               batch_format="pyarrow",
                               batch_size=cfg.extract_batch_size)
    return kg_from_extracted(extracted, cfg)


def _build_extraction(pages_path: str, dest_dir: str, cfg: "KGConfig",
                      base_cfg: dict, *, resume: bool = True,
                      pages_ds_factory=None, seen_filter=None,
                      extra_fp: str = "") -> dict:
    """Stages 1-3 (texts -> chunks -> partition-resumable extraction)
    into ``dest_dir`` — shared by ``run_pipeline`` (base corpus at the KG
    root) and ``update_pipeline`` (each ingested shard under
    ``shards/<fp12>``)."""
    ncpu = int(ray.cluster_resources().get("CPU", 4))
    input_fp = mf.fingerprint_input(pages_path)
    paths = {s: mf.stage_dir(dest_dir, s)
             for s in ("texts", "chunks", "extracted")}

    def chash(stage: str) -> str:
        return mf.config_hash({**base_cfg, "stage": stage})

    # 1. texts: html -> text (stateless tasks; html column dropped after)
    def build_texts(sdir):
        ds = _read_latest_pages(pages_path, cfg,
                                pages_ds_factory=pages_ds_factory)
        if cfg.supersede_recrawls:
            # (url, ts) crawlmeta sidecar: the finalize's
            # newest-snapshot-wins filter reads it to retract rows of
            # urls re-crawled by a LATER source.  One extra narrow
            # pass over the shard (url + ts only; html never moves).
            import shutil
            meta_dir = os.path.join(dest_dir, "crawlmeta")
            shutil.rmtree(meta_dir, ignore_errors=True)
            ds.map_batches(
                lambda b: pa.table({
                    "url": b["url"],
                    "ts": pc.cast(b["warc_ts"], pa.int64())}),
                batch_format="pyarrow").write_parquet(meta_dir)
        ds = _select_pages(ds, cfg)
        if seen_filter is not None:
            ds = seen_filter(ds)
        ds.write_parquet(sdir)
        return ds
    _run_stage(dest_dir, "texts", input_fp + extra_fp, chash("texts"),
               build_texts, resume)

    # 2. chunks: token-window expansion (stateless tasks)
    fp_texts = mf.fingerprint_input(paths["texts"])

    def build_chunks(sdir):
        ds = rd.read_parquet(paths["texts"], columns=["url", "text"])
        ds = ds.map_batches(
            make_chunk_batch_fn(cfg.chunk_size, cfg.chunk_overlap),
            batch_format="pyarrow")
        ds.write_parquet(sdir)
        return ds
    _run_stage(dest_dir, "chunks", fp_texts, chash("chunks"), build_chunks,
               resume)

    # 3. extraction: tagged single-pass output (checkpointed once, consumed
    #    three times).  This is the EXPENSIVE stage, so it resumes at
    #    partition granularity: input chunk files are split into groups,
    #    each group writes + manifests independently, and a killed run
    #    skips every completed group on restart (north_rule block-level
    #    resume).
    def build_extract_group(gdir, gfiles):
        ds = rd.read_parquet(gfiles, columns=["url", "chunk_id", "text"])
        # deterministic extractors run as plain map_batches TASKS with
        # per-worker cached state (no pool startup, work stealing)
        ds = ds.map_batches(make_task_extractor(EXTRACTORS[cfg.extractor]),
                            batch_format="pyarrow",
                            batch_size=cfg.extract_batch_size)
        ds.write_parquet(gdir)

    chunk_files = mf._parquet_files(paths["chunks"])
    mf.run_partitioned_stage(dest_dir, "extracted", chunk_files,
                             chash("extracted"), build_extract_group,
                             resume, n_groups=max(8, ncpu // 2))
    return paths


def _supersede_losers(extracted_paths: list) -> list:
    """Per-source url sets to DROP under newest-snapshot-wins: a url's
    winning source maximizes (warc_ts, source position); every other
    source holding that url loses its rows.

    Scale shape: the argmax over the union of the (url, ts) crawlmeta
    sidecars runs distributed — map-side per-batch (url, source) max
    folds shrink the shuffle to one row per (url, source, block), then
    one sort on url resolves every url's winner in a vectorized pass
    over each whole sorted block.  A url held by a single source emits
    NOTHING, so the driver materializes only the loser rows, bounded by
    the refresh OVERLAP — never an all-urls dict (pinned by
    tests/test_pipeline_e2e.py's bounded-state assertion).
    Order encoding: combo = ts * n_src + src reproduces the (ts, source
    position) lexicographic max exactly for the non-negative warc_ts the
    ingest writes."""
    import numpy as np

    meta_dirs = []
    for p in extracted_paths:
        mdir = os.path.join(os.path.dirname(p), "crawlmeta")
        if not os.path.isdir(mdir):
            raise FileNotFoundError(
                f"supersede_recrawls: {mdir} missing — was this source "
                "built with supersede_recrawls enabled?")
        meta_dirs.append(mdir)
    n_src = len(meta_dirs)
    if n_src == 1:
        return [set()]

    def make_partial(src_idx: int):
        def partial(b: pa.Table) -> pa.Table:
            ts = pc.cast(b["ts"], pa.int64())
            t = pa.table({
                "url": b["url"],
                "combo": pc.add(pc.multiply(ts, n_src), src_idx),
            })
            g = t.group_by(["url"]).aggregate([("combo", "max")])
            return pa.table({"url": g["url"], "combo": g["combo_max"]})
        return partial

    parts = [rd.read_parquet(mdir, columns=["url", "ts"])
             .map_batches(make_partial(i), batch_format="pyarrow")
             for i, mdir in enumerate(meta_dirs)]
    union = parts[0].union(*parts[1:])

    def fold(block: pa.Table) -> pa.Table:
        """All distinct (url, source) pairs in this url-sorted block whose
        source is NOT the url's winner."""
        runs = key_runs(block, ["url"])
        combo = block["combo"].to_numpy()
        win = np.maximum.reduceat(combo, runs[:-1]) % n_src
        src = combo % n_src
        lose = src != np.repeat(win, np.diff(runs))
        return pa.table({"url": block["url"], "src": src}).filter(
            pa.array(lose)).group_by(["url", "src"]).aggregate([])

    out = [set() for _ in range(n_src)]
    for r in map_sorted_blocks(union, "url", fold, pa.schema(
            [("url", pa.string()), ("src", pa.int64())])).take_all():
        out[r["src"]].add(r["url"])
    return out


def _finalize_graph(out_dir: str, extracted_paths: list, cfg: "KGConfig",
                    base_cfg: dict, *, resume: bool = True) -> dict:
    """Stages 4-6 (nodes -> edges -> claims) over the UNION of extracted
    tables (the base corpus plus every ingested shard).  Nodes and edges
    come from one fused-state pass over the mention and triple rows
    (kgx.stages.states, the same finalize as ``stream_kg``); every merge
    is associative, so the result is byte-identical to a from-scratch run
    over the union corpus (parity-tested)."""
    paths = {s: mf.stage_dir(out_dir, s)
             for s in ("nodes", "edges", "claims")}

    def chash(stage: str) -> str:
        return mf.config_hash({**base_cfg, "stage": stage})

    fp_ext = "".join(mf.fingerprint_input(p) for p in extracted_paths)
    # a list mixing directories is not a valid pyarrow dataset source;
    # expand each extracted checkpoint into its parquet files
    ext_files = [f for p in extracted_paths for f in mf._parquet_files(p)]

    losers = None
    if cfg.supersede_recrawls:
        # one broadcast loser set per source, put once per finalize
        losers = [ray.put(sorted(urls)) if urls else None
                  for urls in _supersede_losers(extracted_paths)]
        fp_ext += "".join(
            mf.fingerprint_input(os.path.join(os.path.dirname(p),
                                              "crawlmeta"))
            for p in extracted_paths)

    def read_extracted(columns: list, kinds: list):
        """Union of the extracted checkpoints filtered to ``kinds``; under
        supersede_recrawls each source additionally drops rows of urls a
        newer source re-crawled (broadcast loser set, map-side filter)."""
        kind_filter = pc.field("kind").isin(kinds)
        if not losers:
            return rd.read_parquet(ext_files, columns=columns,
                                   filter=kind_filter)
        parts = []
        for i, p in enumerate(extracted_paths):
            files = mf._parquet_files(p)
            if not files:
                continue
            d = rd.read_parquet(files, columns=columns, filter=kind_filter)
            if losers[i] is not None:
                d = d.map_batches(
                    make_task_extractor(_LoserFilter, drop_ref=losers[i],
                                        column="url"),
                    batch_format="pyarrow")
            parts.append(d)
        out = parts[0]
        for d in parts[1:]:
            out = out.union(d)
        return out

    @functools.cache
    def fused_states():
        """Read once, combined once, shared by the nodes and edges stages
        (and never run when both are resumed).  65536-row combine batches:
        each batch emits one state row per key, so per-block batches left
        more states to shuffle and measured slower on the checkpointed
        benchmark workload."""
        tagged = read_extracted(
            ["kind", "url", "chunk_id", "mention", "norm_mention", "type",
             "description", "subj", "pred", "obj", "strength"],
            ["mention", "triple"])
        return combine_states(tagged, cfg, batch_size=65536)

    # 4. nodes: one fold of the mention states per entity_id
    def build_nodes(sdir):
        nodes = finalize_nodes(fused_states(), cfg)
        nodes.write_parquet(sdir)
        return nodes
    _run_stage(out_dir, "nodes", fp_ext, chash("nodes"), build_nodes, resume)

    # 5+6. edges & claims: broadcast alias map (ray.put once) + fold dedup
    nodes_tbl = pq.read_table(paths["nodes"],
                              columns=["entity_id", "name", "aliases"])
    alias_ref = ray.put(build_alias_map(nodes_tbl))
    fp_nodes = mf.fingerprint_input(paths["nodes"])

    def build_edges(sdir):
        edges = edges_from_states(fused_states(), alias_ref,
                                  cap=cfg.instance_cap)
        edges.write_parquet(sdir)
        return edges
    _run_stage(out_dir, "edges", fp_ext + fp_nodes, chash("edges"),
               build_edges, resume)

    def build_claims(sdir):
        claims = read_extracted(
            ["kind", "url", "chunk_id", "content", "entities"], ["claim"])
        claims = resolve_and_dedup_claims(claims, alias_ref,
                                          cap=cfg.instance_cap)
        claims.write_parquet(sdir)
        return claims
    _run_stage(out_dir, "claims", fp_ext + fp_nodes, chash("claims"),
               build_claims, resume)
    return paths


def _shard_extracted_dirs(out_dir: str) -> list:
    return sorted(glob.glob(os.path.join(out_dir, "shards", "*",
                                         "extracted")))


def _fpindex_digest_dir(out_dir: str, texts_fp: str) -> str:
    return os.path.join(out_dir, "fpindex", f"src-{texts_fp[:12]}")


def _fpindex_ensure_digests(out_dir: str, texts_dir: str) -> tuple:
    """Ensure the PER-SOURCE digest sidecar for ``texts_dir`` exists
    under ``{out_dir}/fpindex/src-<fp12>/`` (one distributed md5 pass
    over the texts, run at most ONCE per corpus content); returns
    (sidecar_dir, texts_fp, read_texts: bool)."""
    from kgx.state.dedup_index import FingerprintIndex

    fp = mf.fingerprint_input(texts_dir)
    ddir = _fpindex_digest_dir(out_dir, fp)
    done = ddir + ".done"          # marker OUTSIDE the parquet dir
    if os.path.exists(done):
        return ddir, fp, False
    import shutil
    shutil.rmtree(ddir, ignore_errors=True)
    os.makedirs(os.path.dirname(ddir), exist_ok=True)
    FingerprintIndex.digest_texts(
        rd.read_parquet(texts_dir, columns=["text"])).write_parquet(ddir)
    with open(done, "w") as f:
        f.write(fp)
    return ddir, fp, True


def _fpindex_sync(out_dir: str, prior_dirs: list, n_shards: int):
    """Build the cross-shard fingerprint index for THIS ingest from
    persisted per-source digest sidecars (r4 VERDICT item 2).

    Each prior corpus's texts are md5-digested ONCE, into
    ``fpindex/src-<fp12>/`` keyed by the texts checkpoint's content
    fingerprint; every later ingest rebuilds the membership actors from
    those 16-byte digests and reads ZERO prior ``texts/`` checkpoints.
    Because the sidecars are per-source, the loaded set always equals
    the CURRENT prior union exactly (a rebuilt prior gets a new
    fingerprint and re-digests; a shard mid-ingest simply isn't in the
    prior list) — the clean-union parity contract needs nothing weaker.
    ``fpindex/_MANIFEST.json`` records, per call, which texts dirs were
    actually read (the pytest's zero-re-read assertion).
    Returns (index, texts_dirs_read_this_call)."""
    import json as _json

    from kgx.state.dedup_index import FingerprintIndex

    index = FingerprintIndex(n_shards=n_shards)
    read_dirs, ingested = [], {}
    for p in prior_dirs:
        ddir, fp, read = _fpindex_ensure_digests(out_dir, p)
        if read:
            read_dirs.append(p)
        index.ingest_digests(rd.read_parquet(ddir))
        ingested[p] = fp
    idir = os.path.join(out_dir, "fpindex")
    os.makedirs(idir, exist_ok=True)
    tmp = os.path.join(idir, "_MANIFEST.json.tmp")
    with open(tmp, "w") as f:
        _json.dump({"ingested": ingested,
                    "last_sync_texts_reads": read_dirs}, f)
    os.replace(tmp, os.path.join(idir, "_MANIFEST.json"))
    return index, read_dirs


def run_pipeline(pages_path: str, out_dir: str,
                 cfg: KGConfig | None = None, *,
                 resume: bool = True,
                 pages_ds_factory=None) -> dict:
    """Run the full KG-construction pipeline; returns stage output paths.

    ``pages_ds_factory`` optionally overrides how the pages Dataset is
    built (e.g. adapting the testdata documents table); the default reads
    the sharded pages Parquet with column pruning.  If the KG directory
    holds previously ingested shards (``update_pipeline``), the
    nodes/edges/claims finalization covers them too.
    """
    cfg = cfg or KGConfig()
    _check_extractor(cfg)
    base_cfg = cfg.semantic_dict()
    base_cfg["extractor_version"] = EXTRACTOR_VERSION
    _prepare_data_context()
    paths = _build_extraction(pages_path, out_dir, cfg, base_cfg,
                              resume=resume,
                              pages_ds_factory=pages_ds_factory)
    paths.update(_finalize_graph(
        out_dir, [paths["extracted"], *_shard_extracted_dirs(out_dir)],
        cfg, base_cfg, resume=resume))
    return paths


def update_pipeline(new_pages_path: str, out_dir: str,
                    cfg: KGConfig | None = None, *,
                    resume: bool = True,
                    pages_ds_factory=None) -> dict:
    """Incremental ingest: extract ONLY the new page shard, then
    re-finalize nodes/edges/claims over the union of the base corpus and
    every ingested shard's checkpointed extraction table.

    Because canonicalization and edge/claim resolution are
    order-independent shuffles over extracted rows, the updated KG is
    byte-identical to a from-scratch ``run_pipeline`` over the combined
    corpus (parity-tested) — but the expensive per-page extraction runs
    only on the new shard: cost O(new pages) + the narrow
    aggregation-state shuffle over total mentions.  Each shard lives
    under ``{out_dir}/shards/<input-fp12>/`` with its own stage
    manifests, so re-ingesting the same shard is a no-op and a killed
    ingest resumes at partition granularity like the base run.

    Scope note: ``cfg.dedup_pages`` dedups WITHIN each ingested shard;
    ``cfg.cross_shard_dedup`` screens the new shard against every prior
    corpus through the shared fingerprint index (kgx.state.dedup_index).
    Without it, duplicate pages across shards contribute duplicate
    mention instances, exactly as re-feeding a page to the reference
    would.
    """
    cfg = cfg or KGConfig()
    _check_extractor(cfg)
    base_cfg = cfg.semantic_dict()
    base_cfg["extractor_version"] = EXTRACTOR_VERSION
    ncpu = _prepare_data_context()
    base_ext = mf.stage_dir(out_dir, "extracted")
    if not os.path.isdir(base_ext):
        raise FileNotFoundError(
            f"{out_dir} has no base extraction — run run_pipeline first")
    shard_dir = os.path.join(
        out_dir, "shards", mf.fingerprint_input(new_pages_path)[:12])
    seen_filter, extra_fp, index = None, "", None
    if cfg.cross_shard_dedup:
        # screen the new shard against every PRIOR corpus's extracted
        # texts via the sharded membership actors; contains-only (no
        # insert), so the result is deterministic.  Prior texts dirs
        # join the stage fingerprint: a changed prior corpus re-runs.
        # The index PERSISTS under {out_dir}/fpindex — a warm ingest
        # loads the saved per-shard parquet and reads ZERO prior texts
        # checkpoints (r4 VERDICT item 2; pinned by
        # tests/test_dedup_index.py::test_fpindex_persist_zero_reread).
        prior = [mf.stage_dir(out_dir, "texts")] + [
            os.path.join(os.path.dirname(p), "texts")
            for p in _shard_extracted_dirs(out_dir)
            if os.path.dirname(p) != shard_dir]
        prior = [p for p in prior if os.path.isdir(p)]
        index, _ = _fpindex_sync(out_dir, prior, max(4, ncpu // 4))
        seen_filter = index.filter_seen
        extra_fp = "".join(mf.fingerprint_input(p) for p in prior)
    spaths = _build_extraction(new_pages_path, shard_dir, cfg, base_cfg,
                               resume=resume,
                               pages_ds_factory=pages_ds_factory,
                               seen_filter=seen_filter, extra_fp=extra_fp)
    if index is not None:
        # pre-digest THIS shard's surviving texts into its sidecar now,
        # while they're hot — the NEXT ingest's sync then reads zero
        # texts checkpoints at all (this shard's digests included)
        _fpindex_ensure_digests(out_dir, mf.stage_dir(shard_dir, "texts"))
    paths = _finalize_graph(
        out_dir, [base_ext, *_shard_extracted_dirs(out_dir)],
        cfg, base_cfg, resume=resume)
    paths["shard"] = shard_dir
    paths["shard_extracted"] = spaths["extracted"]
    return paths
