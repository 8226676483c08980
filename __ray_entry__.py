"""Driver contract: entry() smoke, queries() pipelines, oracle_sql() checks.

Ray is initialised by the driver BEFORE this module is imported; nothing
here (or in kgx) calls ray.init()/ray.shutdown().

Every SQL string is the exact semantic mirror of its Ray pipeline — same
tokenization regexes (RE2 on both sides), same float operation order, and
integer arithmetic (``floor(x*100+0.5)`` cents, integer floor-division
averages) wherever distributed summation order could otherwise flip a
bit.  Each kgx kernel has ONE SQL twin, a named SQL fragment that
every oracle using the kernel composes: ``_term_docs`` (per-document
distinct terms), ``_cooc_pairs`` (the co-occurrence edges),
``_sym_edges``, ``_DEGREES``, ``_TRIANGLES``, ``_COMPONENTS``,
``_set_jaccard``, ``_SHINGLE_HASHES``, ``_term_nodes``, ``_CHUNK_TEXTS``,
``_quality_scores``/``_quality_gate``, ``_lang_ids``, ``_segments``,
``_KNN``, ``_negatives``, ``_ngram_topk``, ``_kmeans_ctes``,
``_ann_quantizer_ctes``, ``_pagerank_oracle`` (all three PageRank
kernels) and the ``_md5_u64``/``_hex_int``/``_rev_units`` expressions;
every fixed-round iteration unrolls through ``_unroll``, which
materializes each round.

Most once-approximate operators now carry full SQL twins
(MinHash-LSH/SimHash via md5/seeded-literal hashing; LSH, IVF and PQ
top-k + their recall reports via deterministic-init quantizer chains
unrolled into materialized CTEs — keep kgx/ops/simsearch.py / pq.py in
lockstep with those oracles); only genuinely environment- or
state-dependent rows (Louvain KG reports, the synth-corpus gazetteer
row, the JSONL file sink, the block-partition-dependent quantile
sketch, the hash-embedding VectorRAG baseline) remain rows-only, by
design.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

SF0001 = "/root/testdata/sf0.001"

# Shared SQL fragments — keep in lockstep with kgx.ops.text constants.
_TERM_RE = r"\b[a-z]{4,}\b"
_WS_RE = r"\S+"
_BPE_RE = r"[a-z]+|[A-Z]+|[0-9]+|[^A-Za-z0-9\s]"
_STOP_SQL = "('a','an','and','in','is','of','on','the','to','with')"
_LANG_RES = {
    "de": r"\b(?:der|die|das|und|nicht|ist|ein)\b",
    "en": r"\b(?:the|a|of|and|is|to|in)\b",
    "es": r"\b(?:el|los|las|una|que|es|y)\b",
    "fr": r"\b(?:le|les|des|une|est|et|dans)\b",
}


# ----------------------------------------------------------------------
# SQL fragments: each is the one SQL twin of one kgx kernel
# ----------------------------------------------------------------------

def _unroll(seed: str, step: Callable[[int], str], n: int) -> str:
    """A fixed-round iteration as one CTE chain: the ``seed`` CTEs (round
    0), then ``step(r)`` for r = 1..n, every CTE ``AS MATERIALIZED``.
    Each round references the previous one 2-3 times, and DuckDB's
    default inlining re-evaluates the whole prefix per reference —
    exponential in n (measured: the 5-round IVF quantizer chain 136 s
    inlined vs 0.3 s materialized)."""
    import re as _re
    return _re.sub(r"(\b[a-z_]+\d*\b) AS \(", r"\1 AS MATERIALIZED (",
                   ",".join([seed] + [step(r) for r in range(1, n + 1)]))


def _md5_u64(expr: str) -> str:
    """The md5-low64 hash of kgx's sketches and samplers: the first 16
    hex digits of md5 as an unsigned 64-bit integer."""
    return f"CAST('0x' || substr(md5({expr}), 1, 16) AS UBIGINT)"


def _hex_int(h: str, n: int, start: int = 1) -> str:
    """Integer value of the ``n`` hex digits of ``h`` from ``start``:
    kgx's md5-prefix buckets and fake media decode."""
    return " + ".join(
        f"(strpos('0123456789abcdef', substr({h}, {start + i}, 1)) - 1)"
        + (f" * {16 ** (n - 1 - i)}" if i < n - 1 else "")
        for i in range(n))


_EMB = """e AS (SELECT vec_id, label, CAST(embedding AS DOUBLE[]) AS v
                  FROM embeddings)"""


def _term_docs(text: str = "text") -> str:
    """``dt``: each document's distinct terms, one (doc_id, term) row
    per pair — the TermExtractor mention regex, deduplicated per
    document as the co-occurrence kernels see it."""
    return f"""dt AS (
              SELECT doc_id,
                     unnest(list_distinct(regexp_extract_all(
                       {text}, '{_TERM_RE}'))) AS term
              FROM documents)"""


def _cooc_pairs(*, weighted: bool = False) -> str:
    """``p``: the co-occurrence KG edges (kg_tables' ``co_occurs_with``)
    — distinct term pairs s < t sharing a document of ``dt``, with ``w``
    = the number of such documents (the edge's n_instances) when
    ``weighted``."""
    w = ", count(*) AS w" if weighted else ""
    return f"""p AS (
              SELECT a.term AS s, b.term AS t{w}
              FROM dt a JOIN dt b
                ON a.doc_id = b.doc_id AND a.term < b.term
              GROUP BY 1, 2)"""


def _sym_edges(*, weighted: bool = False) -> str:
    """``ed``: both directions of every ``p`` edge
    (kgx.ops.graph.undirected_edges)."""
    w = ", w" if weighted else ""
    return f"""ed AS (SELECT s, t{w} FROM p
                   UNION ALL SELECT t AS s, s AS t{w} FROM p)"""


# ``deg``: vertex degrees over ``ed`` (kgx.ops.graph.degree_table).
_DEGREES = "deg AS (SELECT s AS v, count(*) AS d FROM ed GROUP BY s)"

# ``tri``: every triangle {a, b, c} of ``p`` once (a < b < c), and ``tc``
# its per-vertex count (kgx.ops.graph.triangle_counts).
_TRIANGLES = """tri AS (
              SELECT e1.s AS a, e1.t AS b, e2.t AS c
              FROM p e1
              JOIN p e2 ON e2.s = e1.t
              JOIN p e3 ON e3.s = e1.s AND e3.t = e2.t),
            tc AS (
              SELECT name, count(*) AS n FROM (
                SELECT a AS name FROM tri
                UNION ALL SELECT b AS name FROM tri
                UNION ALL SELECT c AS name FROM tri)
              GROUP BY name)"""

# ``comp``: each vertex of ``ed`` with its component, the smallest name
# it reaches, itself included (kgx.ops.graph.weakly_connected_components).
# Every vertex is an edge endpoint, so no vertex is isolated.
_COMPONENTS = """reach AS (
              WITH RECURSIVE r(src, dst) AS (
                SELECT s, t FROM ed
                UNION
                SELECT r.src, u.t FROM r JOIN ed u ON r.dst = u.s)
              SELECT src, dst FROM r),
            comp AS (
              SELECT src AS name, least(src, min(dst)) AS component
              FROM reach GROUP BY src)"""


def _set_jaccard(sets: str, elem: str, threshold: float) -> str:
    """``jp``: the (doc_a < doc_b, jaccard) pairs whose ``elem`` sets in
    the (doc_id, elem) rows of ``sets`` have Jaccard >= ``threshold``
    (kgx.ops.dedup.jaccard_pairs)."""
    return f"""sz AS (SELECT doc_id, count(*) AS n FROM {sets} GROUP BY 1),
            inter AS (
              SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS i
              FROM {sets} a JOIN {sets} b
                ON a.{elem} = b.{elem} AND a.doc_id < b.doc_id
              GROUP BY 1, 2),
            jp AS (
              SELECT doc_a, doc_b,
                     CAST(i AS DOUBLE) / (sa.n + sb.n - i) AS jaccard
              FROM inter
              JOIN sz sa ON sa.doc_id = doc_a
              JOIN sz sb ON sb.doc_id = doc_b
              WHERE CAST(i AS DOUBLE) / (sa.n + sb.n - i) >= {threshold})"""


# ``hs``: each document's distinct md5-low64 3-word shingle hashes
# (kgx.ops.dedup._shingle_hashes over whitespace tokens).
_SHINGLE_HASHES = f"""toks AS (
          SELECT doc_id,
                 list_filter(string_split_regex(text, '\\s+'),
                             x -> x <> '') AS t
          FROM documents),
        shl AS (
          SELECT doc_id,
                 CASE WHEN len(t) = 0 THEN []
                      WHEN len(t) < 3 THEN [array_to_string(t, ' ')]
                      ELSE list_transform(
                        generate_series(1, len(t) - 2),
                        i -> t[i] || ' ' || t[i+1] || ' ' || t[i+2])
                 END AS sh
          FROM toks),
        hs AS (
          SELECT DISTINCT doc_id, {_md5_u64("s")} AS h
          FROM (SELECT doc_id, unnest(sh) AS s FROM shl))"""


def _term_nodes(text: str = "text", src: str = "documents") -> str:
    """The term KG's nodes: one row per TermExtractor mention of
    ``text`` over the rows of ``src``, counted per term
    (kgx.stages.states.nodes_from_states under TermExtractor)."""
    return f"""
            SELECT term AS name, 'TERM' AS type, count(*) AS n_instances
            FROM (SELECT unnest(regexp_extract_all({text}, '{_TERM_RE}'))
                    AS term
                  FROM {src})
            GROUP BY term
        """


# ``t``: each non-blank document's one chunk (``ctext``), its tokens
# joined by single spaces (kgx.pipelines.kg.make_chunk_batch_fn when the
# chunk size exceeds the document).
_CHUNK_TEXTS = """t AS (
              SELECT array_to_string(string_split_regex(trim(text),
                                                        '\\s+'),
                                     ' ') AS ctext
              FROM documents WHERE trim(text) <> '')"""


def _quality_scores(src: str = "documents") -> str:
    """``qs``: the rows of ``src`` with kgx.ops.text.quality_batch's
    token counts and integer quality score."""
    return f"""qs AS (
              SELECT *,
                     CAST(4000 * least(n_tokens, 100)
                          + (300000 * n_distinct_tokens)
                              // greatest(n_tokens, 1)
                          + (300000 * n_stop) // greatest(n_tokens, 1)
                        AS BIGINT) AS quality_score_ppm
              FROM (
                SELECT *, len(toks) AS n_tokens,
                       len(list_distinct(toks)) AS n_distinct_tokens,
                       len(list_filter(toks, x -> x IN {_STOP_SQL}))
                         AS n_stop
                FROM (SELECT *, regexp_extract_all(text, '{_WS_RE}') AS toks
                      FROM {src})))"""


def _quality_gate(src: str) -> str:
    """``qg``: the ``qs`` rows of ``src`` with their source's
    lower-quartile score as ``threshold_ppm``
    (kgx.ops.text.quality_gate)."""
    return f"""{_quality_scores(src)},
            thr AS (
              SELECT source, quality_score_ppm AS threshold_ppm FROM (
                SELECT source, quality_score_ppm,
                       row_number() OVER (PARTITION BY source
                                          ORDER BY quality_score_ppm) AS rn,
                       count(*) OVER (PARTITION BY source) AS n
                FROM qs)
              WHERE rn = (n - 1) // 4 + 1),
            qg AS (SELECT qs.*, thr.threshold_ppm
                   FROM qs JOIN thr USING (source))"""


def _packed(src: str) -> str:
    """``pk``: the documents of ``src`` packed in doc_id order into
    2048-token sequences: whitespace-token count, first token offset and
    sequence id (kgx.ops.packing.pack_offsets)."""
    return f"""pk AS (
              SELECT doc_id, n_tokens, begin_token,
                     begin_token // 2048 AS seq_id
              FROM (
                SELECT doc_id, n_tokens,
                       CAST(coalesce(sum(n_tokens) OVER (
                              ORDER BY doc_id
                              ROWS BETWEEN UNBOUNDED PRECEDING
                                   AND 1 PRECEDING), 0) AS BIGINT)
                         AS begin_token
                FROM (SELECT doc_id,
                             CAST(len(regexp_extract_all(text, '{_WS_RE}'))
                                  AS BIGINT) AS n_tokens
                      FROM {src})))"""


def _lang_ids() -> str:
    """``lid``: each document's kgx.ops.text.lang_id_batch language and
    marker-hit count."""
    counts = ",\n                     ".join(
        f"len(regexp_extract_all(text, '{rx}')) AS c_{lang}"
        for lang, rx in _LANG_RES.items())
    return f"""lc AS (
              SELECT doc_id, {counts}
              FROM documents),
            lid AS (
              SELECT doc_id,
                     CASE WHEN greatest(c_de, c_en, c_es, c_fr) = 0
                            THEN 'und'
                          WHEN c_de >= c_en AND c_de >= c_es
                               AND c_de >= c_fr THEN 'de'
                          WHEN c_en >= c_es AND c_en >= c_fr THEN 'en'
                          WHEN c_es >= c_fr THEN 'es'
                          ELSE 'fr' END AS pred_lang,
                     greatest(c_de, c_en, c_es, c_fr) AS marker_hits
              FROM lc)"""


def _segments(name: str, src: str) -> str:
    """``name``: the rows of ``src`` split into 10-token segments, one
    (seg_no, seg) row each (kgx.ops.linededup's segmenter)."""
    return f"""{name} AS (
              SELECT *,
                     array_to_string(
                       tk[(seg_no * 10 + 1):((seg_no + 1) * 10)], ' ')
                       AS seg
              FROM (
                SELECT *, unnest(generate_series(
                         0, CAST(ceil(len(tk) / 10.0) AS BIGINT) - 1))
                         AS seg_no
                FROM (SELECT *, string_split(text, ' ') AS tk FROM {src})))"""


def _boilerplate_segs(src: str) -> str:
    """``bseg``: the ``bsegs`` segments of ``src``, each flagged
    ``boiler`` when the same segment occurs in two or more documents of
    its source (kgx.ops.linededup.boilerplate_scrub)."""
    return f"""{_segments("bsegs", src)},
            bfreq AS (
              SELECT source, seg FROM bsegs
              GROUP BY source, seg HAVING count(DISTINCT doc_id) >= 2),
            bseg AS (
              SELECT s.doc_id, s.seg_no, s.seg, f.seg IS NOT NULL AS boiler
              FROM bsegs s LEFT JOIN bfreq f
                ON f.source = s.source AND f.seg = s.seg)"""


def _dup_segs(src: str) -> str:
    """``dranked``: the ``dsegs`` segments of ``src``, ``rn`` = 1 on the
    first (doc_id, seg_no) occurrence of each segment text corpus-wide
    (kgx.ops.linededup.segment_dedup)."""
    return f"""{_segments("dsegs", src)},
            dranked AS (
              SELECT doc_id, seg_no, seg,
                     row_number() OVER (PARTITION BY md5(seg)
                                        ORDER BY doc_id, seg_no) AS rn
              FROM dsegs)"""


def _negatives(n: int) -> str:
    """``neg``: ``n`` deterministic negatives per vector, never itself
    (kgx.ops.training.negative_samples)."""
    return f"""dir AS (
              SELECT list(vec_id ORDER BY vec_id) AS arr,
                     count(*) AS n
              FROM embeddings),
            d AS (
              SELECT e.vec_id, g.j,
                     ({_mix32_sql("e.vec_id * 1000003 + g.j * 7919 + 101")})
                       % i.n AS ix,
                     i.arr, i.n
              FROM embeddings e
              CROSS JOIN (SELECT unnest(generate_series(1, {n})) AS j) g
              CROSS JOIN dir i),
            neg AS (
              SELECT vec_id, j,
                     CASE WHEN arr[CAST(ix AS BIGINT) + 1] = vec_id
                          THEN arr[CAST((ix + 1) % n AS BIGINT) + 1]
                          ELSE arr[CAST(ix AS BIGINT) + 1]
                     END AS neg_id
              FROM d)"""


# ``kn``: every vector's neighbors by 6dp-rounded cosine, ranked
# (kgx.ops.simsearch.knn_self_join).  The rank orders on the ROUNDED
# score: both engines sort the identical 6dp numbers, while sub-ulp
# BLAS-vs-DuckDB differences could flip near-tie ranks otherwise.
_KNN = """kn AS (
              SELECT a.vec_id, b.vec_id AS neighbor_id,
                     round(list_cosine_similarity(a.v, b.v), 6) AS score,
                     row_number() OVER (
                       PARTITION BY a.vec_id
                       ORDER BY round(list_cosine_similarity(a.v, b.v), 6)
                                  DESC,
                                b.vec_id ASC) AS rank
              FROM e a JOIN e b ON a.vec_id <> b.vec_id)"""


def _ngram_topk(n: int, k: int) -> str:
    """The ``k`` most frequent lowercased word ``n``-grams, ties by
    n-gram (kgx.ops.vocab.ngram_topk)."""
    return f"""
            WITH toks AS (
              SELECT string_split_regex(lower(trim(text)), '\\s+') AS t
              FROM documents WHERE trim(text) <> ''),
            pos AS (
              SELECT t, unnest(generate_series(0, len(t) - {n})) AS i
              FROM toks WHERE len(t) >= {n}),
            g AS (SELECT array_to_string(t[i + 1 : i + {n}], ' ') AS ngram
                  FROM pos)
            SELECT ngram, count(*) AS n_occurrences
            FROM g GROUP BY ngram
            ORDER BY n_occurrences DESC, ngram
            LIMIT {k}
        """


def _rev_units(alias: str) -> str:
    """A lineitem's discounted revenue in integer 1e-4 units: price cents
    times (100 - discount cents) (kgx.ops.relational's revenue units);
    ``alias`` prefixes the lineitem columns."""
    return (f"CAST(floor({alias}l_extendedprice * 100 + 0.5) AS BIGINT)"
            f" * (100 - CAST(floor({alias}l_discount * 100 + 0.5)"
            f" AS BIGINT))")


# Pearson correlation in integer ppm from the exact int64 moment sums
# n, sx, sy, sxy, sx2, sy2; 0 when either variance is 0
# (kgx.ops.window.corr_by_key, kgx.ops.graph.degree_assortativity).
_PEARSON_PPM = """CASE WHEN (n * sx2 - sx * sx) > 0
                             AND (n * sy2 - sy * sy) > 0
                        THEN CAST(floor(
                          CAST(n * sxy - sx * sy AS DOUBLE) * 1000000.0
                          / sqrt(CAST(n * sx2 - sx * sx AS DOUBLE)
                                 * CAST(n * sy2 - sy * sy AS DOUBLE)))
                          AS BIGINT)
                        ELSE 0 END"""


def _recall_oracle(op: str, approx: str) -> str:
    """Recall of the ``approx`` top-10 (query_id, neighbor_id) rows
    against the exact cosine top-10 of the first 8 vectors, both sides
    recomputed in SQL (the Ray side: ``_recall_row``)."""
    return f"""
        WITH approx AS ({approx}),
        ex AS ({_EXACT_TOPK_SQL}),
        h AS (SELECT count(*) AS hits FROM approx a JOIN ex e
              ON a.query_id = e.query_id
             AND a.neighbor_id = e.neighbor_id),
        ne AS (SELECT count(*) AS n_exact FROM ex)
        SELECT '{op}' AS op, CAST(8 AS BIGINT) AS n_queries,
               CAST(10 AS BIGINT) AS k, ne.n_exact, h.hits,
               h.hits * 1000000 // ne.n_exact AS recall_ppm
        FROM h, ne
    """


def entry() -> Any:
    """Flagship KG-construction pipeline over the sf0.001 documents table:
    chunk -> term extraction (actor pool) -> canonicalization fold ->
    broadcast edge resolution + dedup; returns the canonical edges."""
    from kgx.pipelines.docs_kg import kg_tables
    return kg_tables(SF0001)["edges"]


# ----------------------------------------------------------------------
# Ray-side query callables
# ----------------------------------------------------------------------

def _q_kg_chunks(sf_dir: str):
    from kgx.pipelines.docs_kg import chunk_documents
    return chunk_documents(sf_dir)


def _q_kg_chunks_win(sf_dir: str):
    from kgx.pipelines.docs_kg import chunk_documents
    return chunk_documents(sf_dir, chunk_size=32, chunk_overlap=8)


def _q_kg_mentions(sf_dir: str):
    import pyarrow.compute as pc
    from kgx.pipelines.docs_kg import extract_documents
    ds = extract_documents(sf_dir)
    return ds.map_batches(
        lambda t: t.filter(pc.equal(t["kind"], "mention")).select(
            ["url", "chunk_id", "mention", "type"]),
        batch_format="pyarrow")


def _q_kg_nodes(sf_dir: str):
    from kgx.pipelines.docs_kg import kg_tables
    nodes = kg_tables(sf_dir)["nodes"]
    return nodes.select_columns(["name", "type", "n_instances"])


def _q_kg_edges(sf_dir: str):
    import pyarrow as pa
    from kgx.pipelines.docs_kg import kg_tables
    edges = kg_tables(sf_dir)["edges"]

    def project(t: pa.Table) -> pa.Table:
        return pa.table({
            "subj_name": t["subj_name"],
            "pred": t["pred"],
            "obj_name": t["obj_name"],
            "strength": pa.array(
                [round(s, 6) for s in t["strength"].to_pylist()],
                pa.float64()),
            "n_instances": t["n_instances"],
        })
    return edges.map_batches(project, batch_format="pyarrow")


def _q_kg_claims(sf_dir: str):
    """Claim dedup/resolution (O4/J2) over the documents table: one claim
    per chunk (content = chunk text, entities = its distinct terms),
    resolved through the alias map and union-merged by lower(content)."""
    from kgx.pipelines.docs_kg import claims_table
    return _claims_rows(claims_table(sf_dir))


def _claims_rows(claims):
    """The kg_claims oracle's projection of a claims Dataset: content,
    entity count, instance count."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def project(t: pa.Table) -> pa.Table:
        return pa.table({
            "content": t["content"],
            "n_entities": pc.cast(pc.list_value_length(t["entity_ids"]),
                                  pa.int64()),
            "n_instances": t["n_instances"],
        })
    return claims.map_batches(project, batch_format="pyarrow")


def _q_text_tokens(sf_dir: str):
    from kgx.sources.pages import read_table
    from kgx.ops.text import token_stats_batch
    return read_table(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"]).map_batches(
        token_stats_batch, batch_format="pyarrow")


def _q_text_quality(sf_dir: str):
    from kgx.sources.pages import read_table
    from kgx.ops.text import quality_batch
    return read_table(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"]).map_batches(
        quality_batch, batch_format="pyarrow")


def _q_text_lang(sf_dir: str):
    from kgx.sources.pages import read_table
    from kgx.ops.text import lang_id_batch
    return read_table(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"]).map_batches(
        lang_id_batch, batch_format="pyarrow")


def _q_text_fingerprint(sf_dir: str):
    from kgx.sources.pages import read_table
    from kgx.ops.text import fingerprint_batch
    return read_table(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"]).map_batches(
        fingerprint_batch, batch_format="pyarrow")


def _q_text_winnow(sf_dir: str):
    """Winnowing fingerprints projected to order-free aggregates of the
    selected set (count / min / max / sum) — md5-based gram hashes make
    the selection exactly mirrorable by the SQL window-min oracle."""
    import polars as pl
    import pyarrow as pa
    from kgx.sources.pages import read_table
    from kgx.ops.text import winnow_batch

    def agg(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        fp = pl.col("fingerprints")
        nonempty = pl.col("n_fingerprints") > 0
        out = df.select(
            pl.col("doc_id"),
            pl.col("n_fingerprints"),
            fp.list.min().cast(pl.Int64).alias("fp_min"),
            fp.list.max().cast(pl.Int64).alias("fp_max"),
            pl.when(nonempty).then(fp.list.sum().cast(pl.Int64))
              .otherwise(None).alias("fp_sum"),
        )
        return out.to_arrow()

    ds = read_table(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"]).map_batches(
        winnow_batch, batch_format="pyarrow")
    return ds.map_batches(agg, batch_format="pyarrow")


def _q_dedup_exact(sf_dir: str):
    from kgx.sources.pages import read_table
    from kgx.ops.dedup import exact_dup_groups
    docs = read_table(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    return exact_dup_groups(docs)


def _q_dedup_jaccard(sf_dir: str):
    from kgx.sources.pages import read_table
    from kgx.ops.dedup import jaccard_pairs
    docs = read_table(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    return jaccard_pairs(docs, threshold=0.8)


def _q_rel_volume(sf_dir: str):
    """TPC-H Q7 volume shipping between two nations — the Q5/Q10
    fact-fact co-shuffle plan with map-side broadcast dimension
    filters."""
    from kgx.ops.relational import volume_shipping
    return volume_shipping(sf_dir)


def _q_rel_market_share(sf_dir: str):
    """TPC-H Q8 market share per order year (integer ppm)."""
    from kgx.ops.relational import market_share
    return market_share(sf_dir)


def _q_rel_running(sf_dir: str):
    """Per-customer cumulative revenue window (SQL sum() OVER
    PARTITION/ORDER ROWS UNBOUNDED PRECEDING) — Ray has no native
    cumulative window; one narrow groupby(custkey) + in-group cumsum."""
    from kgx.ops.relational import running_revenue
    return running_revenue(sf_dir)


def _q_events_dcount(sf_dir: str):
    """Exact COUNT(DISTINCT user) per (tumbling hour, event_type) —
    map-side triple dedupe, shuffle bounded by distinct triples."""
    from kgx.sources.pages import read_table

    from kgx.ops.window import window_distinct_users
    ev = read_table(f"{sf_dir}/events.parquet",
                         columns=["ts", "event_type", "user_id"])
    return window_distinct_users(ev)


def _q_events_lag(sf_dir: str):
    """Per-user LAG() window: previous event id + gap seconds."""
    from kgx.sources.pages import read_table

    from kgx.ops.window import lag_deltas
    ev = read_table(f"{sf_dir}/events.parquet",
                         columns=["event_id", "user_id", "ts"])
    return lag_deltas(ev)


def _q_rel_custdist(sf_dir: str):
    """TPC-H Q13 customer distribution — LEFT co-shuffle join so
    zero-order customers survive into the histogram."""
    from kgx.ops.relational import customer_distribution
    return customer_distribution(sf_dir)


def _q_rel_top_supplier(sf_dir: str):
    """TPC-H Q15 top supplier(s) by windowed revenue (view + max)."""
    from kgx.ops.relational import top_supplier
    return top_supplier(sf_dir)


def _q_rel_small_orders(sf_dir: str):
    """TPC-H Q17 small-order revenue — per-part aggregate threshold
    applied in the same co-located group visit, exact integer test."""
    from kgx.ops.relational import small_order_revenue
    return small_order_revenue(sf_dir)


def _q_rel_late_lines(sf_dir: str):
    """TPC-H Q12-shaped shipping-delay priority histogram — the one
    fact-fact join whose payload is a single int8 flag; co-shuffled
    through the bucketed hash_equijoin, then map-side conditional
    counts."""
    from kgx.ops.relational import late_priority_lines
    return late_priority_lines(sf_dir)


def _q_rel_brand_rev(sf_dir: str):
    """TPC-H Q19-shaped disjunctive-predicate revenue — clause-pruned
    part broadcast + per-batch numpy mask disjunction, exact integer
    revenue units."""
    from kgx.ops.relational import brand_discount_revenue
    return brand_discount_revenue(sf_dir)


def _q_rel_global_sales(sf_dir: str):
    """TPC-H Q22-shaped above-average-balance dormant customers per
    nation — exact integer cross-multiply average test, broadcast
    anti probe, zero wide shuffles over customer rows."""
    from kgx.ops.relational import global_sales_opportunity
    return global_sales_opportunity(sf_dir)


def _q_events_rank(sf_dir: str):
    """SQL ranking-window family (rank / dense_rank / percent_rank ppm
    / NTILE) per user over event value desc — one narrow groupby."""
    from kgx.sources.pages import read_table

    from kgx.ops.sequence import rank_features
    ev = read_table(f"{sf_dir}/events.parquet",
                         columns=["event_id", "user_id", "value"])
    return rank_features(ev)


def _q_kg_pagerank_weighted(sf_dir: str):
    """Edge-weighted PageRank (kgx/ops/graph.py:weighted_pagerank) over
    the co-occurrence KG, weight = n_instances (documents witnessing
    the pair) — heavily-witnessed associations carry more mass."""
    from kgx.ops.graph import weighted_pagerank
    from kgx.pipelines.docs_kg import kg_tables
    return weighted_pagerank(kg_tables(sf_dir)["edges"],
                             iters=_PR_ITERS)


_LPA_ROUNDS = 4


def _q_kg_lpa(sf_dir: str):
    """Synchronous label-propagation communities over the co-occurrence
    KG (kgx/ops/graph.py:label_propagation) — the community detector
    WITH an exact gate: fixed rounds unroll into SQL count/argmax
    rounds, unlike Louvain's greedy sweep."""
    from kgx.ops.graph import label_propagation
    from kgx.pipelines.docs_kg import kg_tables
    return label_propagation(kg_tables(sf_dir)["edges"],
                             rounds=_LPA_ROUNDS)


def _lpa_oracle(*, rounds: int) -> str:
    """Unrolled synchronous label propagation over the co-occurrence
    edges (mirrors kgx/ops/graph.py:label_propagation): per round, each
    vertex adopts the most frequent neighbor label, ties to the
    lexicographically smallest."""
    def step(r: int) -> str:
        return f"""
            c{r} AS (
              SELECT ed.t AS v, l{r - 1}.lab AS lab, count(*) AS c
              FROM ed JOIN l{r - 1} ON ed.s = l{r - 1}.v
              GROUP BY 1, 2),
            l{r} AS (
              SELECT v, lab FROM (
                SELECT v, lab,
                       row_number() OVER (PARTITION BY v
                                          ORDER BY c DESC, lab) AS rn
                FROM c{r}) WHERE rn = 1)"""
    seed = f"""{_sym_edges()},
            l0 AS (SELECT DISTINCT s AS v, s AS lab FROM ed)"""
    return f"""
            WITH {_term_docs()}, {_cooc_pairs()},
            {_unroll(seed, step, rounds)}
            SELECT v AS name, lab AS community FROM l{rounds}
    """


def _bpe_oracle(*, n_merges: int, min_count: int) -> str:
    """Unrolled BPE merge learning (mirrors kgx/ops/vocab.py:bpe_merges,
    the LPA-style fixed-rounds unroll): per round, (a) adjacent-pair
    counts over the word->symbol-list vocab, (b) argmax with (count
    DESC, left, right) tie-break and the >= min_count stop (an empty
    best round leaves the vocab unchanged, so early stop is monotone),
    (c) greedy left-to-right non-overlapping rewrite — matches split
    into gaps-and-islands runs; EVEN offsets within a run are taken
    (same-symbol runs like 'wwww' merge exactly as the Python single
    pass does), the symbol after a taken position is dropped."""
    def step(r: int) -> str:
        return f"""
            u{r} AS (
              SELECT w, cnt, generate_subscripts(syms, 1) AS pos,
                     unnest(syms) AS sym
              FROM v{r - 1}),
            best{r} AS (
              SELECT a.sym AS l, b.sym AS r, sum(a.cnt) AS c
              FROM u{r} a JOIN u{r} b ON a.w = b.w AND b.pos = a.pos + 1
              GROUP BY 1, 2 HAVING sum(a.cnt) >= {min_count}
              ORDER BY c DESC, l, r LIMIT 1),
            mm{r} AS (
              SELECT a.w, a.cnt, a.pos, a.sym,
                     CASE WHEN b.l IS NOT NULL AND a.sym = b.l
                               AND lead(a.sym) OVER (
                                 PARTITION BY a.w ORDER BY a.pos) = b.r
                          THEN 1 ELSE 0 END AS m
              FROM u{r} a LEFT JOIN best{r} b ON TRUE),
            isl{r} AS (
              SELECT *, pos - row_number() OVER (
                          PARTITION BY w, m ORDER BY pos) AS grp
              FROM mm{r}),
            tk{r} AS (
              SELECT w, cnt, pos, sym,
                     CASE WHEN m = 1 AND (pos - min(pos) OVER (
                            PARTITION BY w, m, grp)) % 2 = 0
                          THEN 1 ELSE 0 END AS taken
              FROM isl{r}),
            v{r} AS (
              SELECT w, cnt, list(out ORDER BY pos) AS syms FROM (
                SELECT w, cnt, pos,
                       CASE WHEN taken = 1
                            THEN sym || lead(sym) OVER (
                              PARTITION BY w ORDER BY pos)
                            WHEN coalesce(lag(taken) OVER (
                              PARTITION BY w ORDER BY pos), 0) = 1
                            THEN NULL ELSE sym END AS out
                FROM tk{r})
              WHERE out IS NOT NULL GROUP BY w, cnt)"""
    finals = "\n              UNION ALL ".join(
        f"SELECT CAST({r} AS BIGINT) AS \"rank\", l AS \"left\", "
        f"r AS \"right\", CAST(c AS BIGINT) AS pair_count FROM best{r}"
        for r in range(1, n_merges + 1))
    seed = """
            v0 AS (
              SELECT word AS w, cnt,
                     regexp_extract_all(word, '.') AS syms
              FROM wc)"""
    return f"""
            WITH words AS (
              SELECT unnest(string_split_regex(lower(trim(text)),
                                               '\\s+')) AS word
              FROM documents WHERE trim(text) <> ''),
            wc AS (SELECT word, count(*) AS cnt FROM words GROUP BY 1),
            {_unroll(seed, step, n_merges)}
            SELECT * FROM ({finals}) ORDER BY "rank"
    """


def _q_events_throttle(sf_dir: str):
    """Rate-limit dedup (kgx/ops/window.py:throttle_dedup): per user,
    keep events >= 1 week after the last KEPT one — searchsorted jump
    walk per group; exact recursive next-survivor CTE oracle."""
    from kgx.sources.pages import read_table

    from kgx.ops.window import throttle_dedup
    ev = read_table(f"{sf_dir}/events.parquet",
                         columns=["event_id", "user_id", "ts"])
    return throttle_dedup(ev, gap_s=604_800)


def _q_dedup_fuzzy(sf_dir: str):
    """Fuzzy-string near-dup pairs (prefix Hamming <= 2) with EXACT
    pigeonhole chunk blocking — every qualifying pair found, no recall
    caveat; oracle brute-forces the O(n^2) hamming join."""
    from kgx.sources.pages import read_table

    from kgx.ops.dedup import prefix_hamming_pairs
    docs = read_table(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    return prefix_hamming_pairs(docs)


def _q_multimodal_dedup(sf_dir: str):
    """Exact payload-identity groups over the media-shaped table —
    payloads reduce to md5 digests map-side; binary never shuffles."""
    from kgx.ops.multimodal import docs_as_media, media_dedup_groups
    return media_dedup_groups(docs_as_media(sf_dir))


def _q_rel_cube(sf_dir: str):
    """GROUP BY CUBE(l_returnflag, l_linestatus): one keyed sum for the
    finest level, every grouping set derived from its <= 6 rows."""
    from kgx.ops.relational import pricing_cube
    return pricing_cube(sf_dir)


def _q_rel_waiting(sf_dir: str):
    """TPC-H Q21 shape: exists/anti-exists self-join on lineitem,
    folded per order in one pass over each block of a sort on the
    order key."""
    from kgx.ops.relational import waiting_suppliers
    return waiting_suppliers(sf_dir)


def _q_rel_profit(sf_dir: str):
    """TPC-H Q9 shape: part-filter broadcast + supplier->nation
    broadcast resolve + ONE fact-fact co-shuffle on the order key."""
    from kgx.ops.relational import nation_profit
    return nation_profit(sf_dir)


def _q_rel_important(sf_dir: str):
    """TPC-H Q11 shape: HAVING against a global scalar — per-part
    narrow groupby, threshold reduced over the AGGREGATED output,
    exact integer cross-multiplication test."""
    from kgx.ops.relational import important_parts
    return important_parts(sf_dir)


def _q_rel_mincost(sf_dir: str):
    """TPC-H Q2 shape: correlated-min join-back — per-part argmin rows
    resolved in one vectorized fold per block of a sort on the part
    key, all ties kept."""
    from kgx.ops.relational import min_cost_supplier
    return min_cost_supplier(sf_dir)


def _q_rel_suppcnt(sf_dir: str):
    """TPC-H Q16 shape: COUNT(DISTINCT supplier) per part-attr triple
    with a broadcast NOT-IN exclusion; map-side per-batch distinct."""
    from kgx.ops.relational import supplier_part_counts
    return supplier_part_counts(sf_dir)


def _q_rel_dominant(sf_dir: str):
    """TPC-H Q20 shape: per-(part,supplier) share vs per-part total in
    one fold per block of a sort on the part key; EXISTS reduced to a
    distinct survivor keyset."""
    from kgx.ops.relational import dominant_suppliers
    return dominant_suppliers(sf_dir)


def _q_events_moving(sf_dir: str):
    """Per-user ROWS-frame moving sum/count (3 PRECEDING..CURRENT) in
    exact integer cents — cumulative-sum difference per group."""
    from kgx.sources.pages import read_table

    from kgx.ops.window import moving_frame_agg
    ev = read_table(f"{sf_dir}/events.parquet",
                         columns=["event_id", "user_id", "ts", "value"])
    return moving_frame_agg(ev)


def _q_events_streaks(sf_dir: str):
    """Gaps-and-islands: distinct active days + longest consecutive-day
    run per user; map-side day dedup bounds the shuffle."""
    from kgx.sources.pages import read_table

    from kgx.ops.window import activity_streaks
    ev = read_table(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts"])
    return activity_streaks(ev)


def _q_events_mode(sf_dir: str):
    """Per-type MODE with explicit deterministic ties (count desc,
    value asc) — map-side distinct-value counting."""
    from kgx.sources.pages import read_table

    from kgx.ops.window import mode_by_key
    ev = read_table(f"{sf_dir}/events.parquet",
                         columns=["event_type", "value"])
    return mode_by_key(ev)


def _q_kg_assortativity(sf_dir: str):
    """Degree assortativity of the co-occurrence KG in exact integer
    ppm — the events_corr moment-sum recipe over directed edge rows."""
    from kgx.ops.graph import degree_assortativity
    from kgx.pipelines.docs_kg import kg_tables
    return degree_assortativity(kg_tables(sf_dir)["edges"])


def _q_events_firstlast(sf_dir: str):
    """Per-user FIRST_VALUE/LAST_VALUE over (ts, id) order + row count;
    map-side fold keeps at most one candidate row per key per batch."""
    from kgx.sources.pages import read_table

    from kgx.ops.window import first_last_by_key
    ev = read_table(f"{sf_dir}/events.parquet",
                         columns=["event_id", "user_id", "ts", "value"])
    return first_last_by_key(ev)


def _q_export_jsonl(sf_dir: str):
    """Training-data export sink: curated corpus packed and written as
    sharded JSONL with a resume manifest (kgx/sinks.py).  Rows-only by
    design: a filesystem side effect has no SQL twin; shard counts and
    the skip-on-rerun contract are pytest-gated."""
    from kgx.sinks import export_manifest_table
    return export_manifest_table(sf_dir)


def _q_rel_unpivot(sf_dir: str):
    """SQL UNPIVOT: the Q1 summary's three sum measures melted
    wide -> long; pure map over the aggregated output."""
    from kgx.ops.relational import unpivot_pricing
    return unpivot_pricing(sf_dir)


def _q_rel_intersect(sf_dir: str):
    """SQL INTERSECT: customers ordering in both years — distinct
    (custkey, year-flag) pairs map-side, one narrow OR-fold groupby."""
    from kgx.ops.relational import active_both_years
    return active_both_years(sf_dir)


def _q_events_corr(sf_dir: str):
    """Per-type Pearson correlation (hour-of-day vs value) from exact
    int64 moment sums — one deterministic double expression at the end,
    integer ppm both sides."""
    from kgx.sources.pages import read_table

    from kgx.ops.window import corr_by_key
    ev = read_table(f"{sf_dir}/events.parquet",
                         columns=["event_type", "value", "ts"])
    return corr_by_key(ev)


def _recall_row(op: str, sf_dir: str, approx_topk) -> Any:
    """One row: recall of ``approx_topk(emb, qids, k=10)`` against the
    exact cosine top-10 of the first 8 vectors; both sides run
    distributed and their (query, neighbor) sets intersect in this
    process (the SQL side: ``_recall_oracle``)."""
    import pyarrow as pa
    from kgx.sources.pages import read_table

    from kgx.functions.collect import collect_arrow
    from kgx.ops.simsearch import cosine_topk

    def pairs(topk) -> set:
        t = collect_arrow(topk(
            read_table(f"{sf_dir}/embeddings.parquet",
                       columns=["vec_id", "embedding"]), qids, k=10))
        return set(zip(t["query_id"].to_pylist(),
                       t["neighbor_id"].to_pylist()))

    qids = list(range(8))
    e_set = pairs(cosine_topk)
    hits = len(pairs(approx_topk) & e_set)
    return pa.table({
        "op": pa.array([op], pa.string()),
        "n_queries": pa.array([len(qids)], pa.int64()),
        "k": pa.array([10], pa.int64()),
        "n_exact": pa.array([len(e_set)], pa.int64()),
        "hits": pa.array([hits], pa.int64()),
        "recall_ppm": pa.array([hits * 1_000_000 // len(e_set)],
                               pa.int64()),
    })


def _q_recall_lsh(sf_dir: str):
    """Multi-probe LSH recall vs the exact cosine top-k as ONE exact
    row: the DuckDB oracle recomputes approx AND exact in SQL, so the
    pytest recall floor is oracle-gated too."""
    from kgx.ops.simsearch import lsh_topk
    return _recall_row("lsh", sf_dir, lsh_topk)


def _q_recall_ivf(sf_dir: str):
    """IVF recall vs the exact cosine top-k as ONE driver row —
    EXACT since round 5: the deterministic quantizer init gave the
    approx side a full SQL twin (``_recall_oracle`` recomputes both
    sides in DuckDB), so the recall number itself is oracle-gated."""
    from kgx.ops.simsearch import ivf_topk
    return _recall_row("ivf", sf_dir, ivf_topk)


def _q_recall_pq(sf_dir: str):
    """PQ (IVFADC+R) recall vs the exact cosine top-k as ONE driver
    row — EXACT since round 5 (``_recall_oracle`` recomputes both
    sides in DuckDB); the exact re-rank raises recall above raw-ADC —
    pytest floor 0.45."""
    from kgx.ops.pq import pq_topk
    return _recall_row("pq", sf_dir, pq_topk)


def _q_recall_minhash(sf_dir: str):
    """MinHash-LSH candidate recall vs TRUE shingle-set Jaccard >= 0.5
    as one exact driver row.  Candidates run through the distributed
    banded pipeline; the truth side reuses the same md5-low64 shingle
    sets (exact verify at gate scale — at corpus scale truth comes from
    a sampled audit, the standard recall-evaluation shape)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    from kgx.sources.pages import read_table

    from kgx.functions.collect import collect_arrow
    from kgx.ops.dedup import _shingle_hashes, minhash_lsh_pairs

    docs = read_table(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    cand_tbl = collect_arrow(minhash_lsh_pairs(docs))
    cand = set(zip(cand_tbl["doc_a"].to_pylist(),
                   cand_tbl["doc_b"].to_pylist()))

    dt = pq.read_table(f"{sf_dir}/documents.parquet",
                       columns=["doc_id", "text"])
    sets = {d: _shingle_hashes(t.split(), 3)
            for d, t in zip(dt["doc_id"].to_pylist(),
                            dt["text"].to_pylist())}
    ids = sorted(sets)
    truth = set()
    for i, da in enumerate(ids):
        sa = sets[da]
        for db in ids[i + 1:]:
            sb = sets[db]
            inter = len(np.intersect1d(sa, sb, assume_unique=True))
            union = len(sa) + len(sb) - inter
            if union and inter / union >= 0.5:
                truth.add((da, db))
    hits = len(cand & truth)
    return pa.table({
        "op": pa.array(["minhash"], pa.string()),
        "n_true": pa.array([len(truth)], pa.int64()),
        "n_cand": pa.array([len(cand)], pa.int64()),
        "hits": pa.array([hits], pa.int64()),
        "recall_ppm": pa.array([hits * 1_000_000 // max(1, len(truth))],
                               pa.int64()),
    })


def _q_dedup_minhash(sf_dir: str):
    from kgx.sources.pages import read_table
    from kgx.ops.dedup import minhash_lsh_pairs
    docs = read_table(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    return minhash_lsh_pairs(docs)


def _q_dedup_simhash(sf_dir: str):
    from kgx.sources.pages import read_table
    from kgx.ops.dedup import simhash_pairs
    docs = read_table(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    return simhash_pairs(docs, max_hamming=8)


def _q_dedup_embedding(sf_dir: str):
    """Exact cosine near-dup pairs via IVF cells + triangle-inequality
    cell-pair pruning (kgx/ops/dedup.py:embedding_dup_pairs, default
    method="bucketed" — no corpus broadcast, identical output to the
    retained method="matrix" baseline)."""
    from kgx.sources.pages import read_table
    from kgx.ops.dedup import embedding_dup_pairs
    emb = read_table(f"{sf_dir}/embeddings.parquet",
                          columns=["vec_id", "embedding"])
    return embedding_dup_pairs(emb, threshold=0.45)


def _q_dedup_components(sf_dir: str):
    """Near-dup clusters: exact-Jaccard pairs -> distributed min-label
    propagation -> (doc_id, component_id = smallest doc in cluster)."""
    from kgx.sources.pages import read_table
    from kgx.ops.components import neardup_components
    docs = read_table(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    return neardup_components(docs, threshold=0.8)


def _q_simsearch_knn(sf_dir: str):
    """Exact all-pairs kNN self-join via the broadcast-free triangle
    block join (kgx/ops/simsearch.py:knn_self_join, default
    method="blocked"); the recall baseline the LSH/IVF paths are
    audited against."""
    from kgx.sources.pages import read_table
    from kgx.ops.simsearch import knn_self_join
    emb = read_table(f"{sf_dir}/embeddings.parquet",
                          columns=["vec_id", "embedding"])
    return knn_self_join(emb, k=3)


def _q_text_perplexity(sf_dir: str):
    """CCNet-shaped bigram-LM scoring (kgx/ops/vocab.py:bigram_logprob):
    the model trains on the deterministic doc_id%4 subset (the "clean
    reference corpus" stand-in), broadcasts once, and every document is
    scored map-side with zero shuffle — integer micro-unit logprobs
    shared bit-for-bit with the SQL oracle."""
    from kgx.sources.pages import read_table
    from kgx.ops.vocab import bigram_logprob
    docs = read_table(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    return bigram_logprob(docs, train_mod=4)


def _q_rel_returns(sf_dir: str):
    """TPC-H Q10-shaped returned-item report (kgx/ops/relational.py:
    returned_revenue): orders/lineitem fact-fact co-shuffle on the
    order key, map-side per-customer revenue partials, customer/nation
    dims broadcast and resolved on the tiny top-20 output."""
    from kgx.ops.relational import returned_revenue
    return returned_revenue(sf_dir)


def _q_text_span_dup(sf_dir: str):
    """Cross-document repeated-span report at 16-token windows
    (kgx/ops/linededup.py:duplicated_spans) — the Lee-et-al exact
    substring-dedup signal: narrow (hash, doc, pos) shuffle, first
    occurrence owns, per-doc duplicated-window fraction in ppm."""
    from kgx.sources.pages import read_table
    from kgx.ops.linededup import duplicated_spans
    docs = read_table(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    return duplicated_spans(docs, window=16)


def _q_simsearch_pq(sf_dir: str):
    """Product-quantized ANN (IVFADC+R, kgx/ops/pq.py): 16-byte PQ codes
    + per-query ADC lookup tables shortlist candidates inside probed IVF
    cells; one filtered pass over the float column re-ranks the
    shortlist exactly.  Approximate vs the true top-k (cell pruning)
    but fully deterministic — EXACT driver row since the round-5
    deterministic codebook/quantizer init (``_pq_oracle`` unrolls all
    m per-subspace Lloyd chains, the encode, the ADC scoring and the
    exact re-rank in SQL); the recall floor vs the exact baseline is
    additionally pinned in tests/test_ops.py."""
    from kgx.sources.pages import read_table
    from kgx.ops.pq import pq_topk
    emb = read_table(f"{sf_dir}/embeddings.parquet",
                          columns=["vec_id", "embedding"])
    return pq_topk(emb, query_ids=list(range(8)), k=10)


def _q_text_quality_gate(sf_dir: str):
    """Per-source adaptive quality floor: keep docs at or above their
    source's exact lower-quartile score (kgx/ops/text.py:quality_gate)."""
    from kgx.sources.pages import read_table
    from kgx.ops.text import quality_gate
    docs = read_table(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text", "source"])
    return quality_gate(docs)


def _q_text_curate(sf_dir: str):
    """END-TO-END curation pipeline (kgx/pipelines/curate.py): lang
    filter -> per-source quality gate -> boilerplate scrub -> corpus
    segment dedup -> exact doc dedup -> sequence packing, one lazy
    chain, exact composed oracle."""
    from kgx.pipelines.curate import curate_corpus
    return curate_corpus(sf_dir)


def _curate_oracle() -> str:
    """Unrolled composition of the per-stage oracles, stage order and
    statistics scope identical to kgx.pipelines.curate.curate_corpus."""
    return f"""
            WITH d0 AS (
              SELECT doc_id, text, source FROM documents
              WHERE lang = 'en'),
            {_quality_gate("d0")},
            g AS (SELECT doc_id, source, text FROM qg
                  WHERE quality_score_ppm >= threshold_ppm),
            {_boilerplate_segs("g")},
            scrub AS (
              SELECT doc_id,
                     string_agg(CASE WHEN NOT boiler THEN seg END, ' '
                                ORDER BY seg_no) AS text
              FROM bseg GROUP BY doc_id),
            s1 AS (SELECT doc_id, text FROM scrub WHERE text IS NOT NULL),
            {_dup_segs("s1")},
            dd AS (
              SELECT doc_id,
                     string_agg(CASE WHEN rn = 1 THEN seg END, ' '
                                ORDER BY seg_no) AS text
              FROM dranked GROUP BY doc_id),
            s2 AS (SELECT doc_id, text FROM dd WHERE text IS NOT NULL),
            uniq AS (
              SELECT doc_id, text FROM (
                SELECT doc_id, text,
                       row_number() OVER (PARTITION BY md5(text)
                                          ORDER BY doc_id) AS rn
                FROM s2) WHERE rn = 1),
            {_packed("uniq")}
            SELECT doc_id, n_tokens, begin_token, seq_id FROM pk
    """


def _q_text_boilerplate(sf_dir: str):
    """CCNet-style per-source boilerplate scrub: narrow (source, seg)
    shuffle, broadcast boilerplate set, map-side rebuild
    (kgx/ops/linededup.py:boilerplate_scrub)."""
    from kgx.sources.pages import read_table
    from kgx.ops.linededup import boilerplate_scrub
    docs = read_table(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text", "source"])
    return boilerplate_scrub(docs, seg_tokens=10, min_docs=2)


def _q_embed_kmeans(sf_dir: str):
    """Deterministic Lloyd's k-means over the embedding column
    (kgx/ops/cluster.py): broadcast centroids + map-side partial sums,
    the corpus is read-streamed once per iteration and never shuffled."""
    from kgx.sources.pages import read_table
    from kgx.ops.cluster import kmeans_assign
    emb = read_table(f"{sf_dir}/embeddings.parquet",
                          columns=["vec_id", "embedding"])
    return kmeans_assign(emb, k=_KMEANS_K, iters=_KMEANS_ITERS)


def _q_dedup_semantic(sf_dir: str):
    """SemDeDup: kmeans clusters, then within-cluster cosine >= 0.4 to an
    earlier member marks a semantic duplicate (kgx/ops/cluster.py)."""
    from kgx.sources.pages import read_table
    from kgx.ops.cluster import semantic_dedup
    emb = read_table(f"{sf_dir}/embeddings.parquet",
                          columns=["vec_id", "embedding"])
    return semantic_dedup(emb, k=_KMEANS_K, iters=_KMEANS_ITERS,
                          threshold=_SEMDEDUP_TAU)


def _q_embed_labels(sf_dir: str):
    """Per-label centroid norm + cohesion over the labeled embeddings
    (kgx/ops/cluster.py:label_stats) — two streamed passes, kilobyte
    partial folds."""
    from kgx.sources.pages import read_table
    from kgx.ops.cluster import label_stats
    emb = read_table(f"{sf_dir}/embeddings.parquet",
                          columns=["vec_id", "embedding", "label"])
    return label_stats(emb)


def _q_embed_sample(sf_dir: str):
    """Cluster-balanced subsample: cap each kmeans cluster at 32 members
    by a deterministic vectorized integer lottery (kgx/ops/cluster.py:
    cluster_balanced_sample)."""
    from kgx.sources.pages import read_table
    from kgx.ops.cluster import cluster_balanced_sample
    emb = read_table(f"{sf_dir}/embeddings.parquet",
                          columns=["vec_id", "embedding"])
    return cluster_balanced_sample(emb, k=_KMEANS_K, iters=_KMEANS_ITERS,
                                   cap=_SAMPLE_CAP)


# Shared kmeans/SemDeDup constants (the oracle SQL is unrolled from them).
_KMEANS_K = 10
_KMEANS_ITERS = 3
_SEMDEDUP_TAU = 0.4
_SAMPLE_CAP = 32


def _components_oracle() -> str:
    """Near-dup clusters (mirrors kgx/ops/components.py:
    neardup_components): exact-Jaccard >= 0.8 pairs, then unrolled
    min-label propagation with pointer jumping.  Round r does a one-hop
    neighbor-min (n{r}) then a jump l(v) <- min(l(v), l(l(v))) (l{r}),
    so label distance halves per round after the hop: 8 rounds converge
    for any component diameter <= 2^8, with no quadratic transitive
    closure."""
    def step(r: int) -> str:
        return f"""
            n{r} AS (
              SELECT l.doc_id,
                     least(l.lbl, coalesce(min(n.lbl), l.lbl)) AS lbl
              FROM l{r - 1} l
              LEFT JOIN und u ON u.src = l.doc_id
              LEFT JOIN l{r - 1} n ON n.doc_id = u.dst
              GROUP BY l.doc_id, l.lbl),
            l{r} AS (
              SELECT a.doc_id, least(a.lbl, b.lbl) AS lbl
              FROM n{r} a JOIN n{r} b ON b.doc_id = a.lbl)"""
    seed = """
            und AS (
              SELECT doc_a AS src, doc_b AS dst FROM jp
              UNION ALL SELECT doc_b, doc_a FROM jp),
            l0 AS (SELECT doc_id, doc_id AS lbl FROM documents)"""
    return f"""
            WITH {_term_docs()}, {_set_jaccard("dt", "term", 0.8)},
            {_unroll(seed, step, 8)}
            SELECT doc_id, lbl AS component_id FROM l8
    """


def _mix32_sql(expr: str) -> str:
    """SQL for kgx.ops.cluster._lottery32: a salted two-round 32-bit
    multiplicative mix.  Multiplies route through HUGEINT then reduce
    mod 2^32, so no 64-bit overflow; xor/shift match numpy uint64."""
    h1 = f"CAST((({expr}) + 1013904223)::HUGEINT * 2654435761 " \
         f"% 4294967296 AS BIGINT)"
    h2 = f"xor({h1}, {h1} >> 16)"
    h3 = f"CAST(({h2})::HUGEINT * 2246822519 % 4294967296 AS BIGINT)"
    return f"xor({h3}, {h3} >> 13)"


def _cluster_sample_oracle(*, k: int, iters: int, cap: int) -> str:
    return f"""
            WITH {_kmeans_ctes(k=k, iters=iters)},
            ranked AS (
              SELECT vec_id, c,
                     row_number() OVER (
                       PARTITION BY c
                       ORDER BY {_mix32_sql("vec_id")}, vec_id)
                       AS rn
              FROM afin)
            SELECT vec_id, c AS cluster, rn <= {cap} AS keep FROM ranked
    """


def _kmeans_ctes(*, k: int, iters: int) -> str:
    """Unrolled Lloyd's-iteration CTE chain shared by the embed_kmeans and
    dedup_semantic oracles (mirrors kgx/ops/cluster.py exactly: init = k
    lowest vec_ids, distances and centroids rounded to 6 dp, ties to the
    lowest cluster id, empty clusters keep their previous centroid)."""
    def step(t: int) -> str:
        return f"""
            a{t} AS (
              SELECT vec_id, v, c FROM (
                SELECT e.vec_id, e.v, c{t - 1}.c,
                       row_number() OVER (PARTITION BY e.vec_id
                         ORDER BY round(list_distance(e.v, c{t - 1}.cv), 6),
                                  c{t - 1}.c) AS rn
                FROM e CROSS JOIN c{t - 1}) WHERE rn = 1),
            u{t} AS (
              SELECT c, i, round(avg(x), 6) AS m
              FROM (SELECT c, unnest(v) AS x,
                           unnest(range(1, len(v) + 1)) AS i FROM a{t})
              GROUP BY c, i),
            c{t} AS (
              SELECT c, list(m ORDER BY i) AS cv FROM u{t} GROUP BY c
              UNION ALL
              SELECT c, cv FROM c{t - 1}
              WHERE c NOT IN (SELECT c FROM u{t}))"""
    seed = f"""
            {_EMB},
            c0 AS (
              SELECT row_number() OVER (ORDER BY vec_id) - 1 AS c,
                     list_transform(v, x -> round(x, 6)) AS cv
              FROM (SELECT vec_id, v FROM e ORDER BY vec_id LIMIT {k}))"""
    # final assignment against the post-iteration centroids
    return f"""{_unroll(seed, step, iters)},
            afin AS (
              SELECT vec_id, v, c, dist FROM (
                SELECT e.vec_id, e.v, c{iters}.c,
                       round(list_distance(e.v, c{iters}.cv), 6) AS dist,
                       row_number() OVER (PARTITION BY e.vec_id
                         ORDER BY round(list_distance(e.v, c{iters}.cv), 6),
                                  c{iters}.c) AS rn
                FROM e CROSS JOIN c{iters}) WHERE rn = 1)"""


def _kmeans_oracle(*, k: int, iters: int) -> str:
    return f"""
            WITH {_kmeans_ctes(k=k, iters=iters)}
            SELECT vec_id, c AS cluster, dist FROM afin
    """


def _semdedup_oracle(*, k: int, iters: int, tau: float) -> str:
    return f"""
            WITH {_kmeans_ctes(k=k, iters=iters)},
            dup AS (
              SELECT a.vec_id, min(b.vec_id) AS dup_of
              FROM afin a JOIN afin b
                ON a.c = b.c AND b.vec_id < a.vec_id
               AND round(list_cosine_similarity(a.v, b.v), 6) >= {tau}
              GROUP BY a.vec_id)
            SELECT a.vec_id, a.c AS cluster,
                   (d.dup_of IS NULL) AS keep, d.dup_of
            FROM afin a LEFT JOIN dup d USING (vec_id)
    """


def _ann_quantizer_ctes(*, n_cells: int, train_mod: int,
                        iters: int) -> str:
    """Shared unrolled IVF quantizer chain (en/s/c0..c{iters}) mirroring
    kgx/ops/simsearch.py _train_sample + _kmeans exactly: init = the
    first n_cells vec_id-ordered normalized sample rows rounded 6 dp;
    assignment = argmax of the 6dp-rounded dot with ties to the lowest
    cell; update = renormalized member mean rounded 6 dp; empty cells
    keep their previous centroid."""
    def step(t: int) -> str:
        return f"""
            a{t} AS (
              SELECT vec_id, vn, c FROM (
                SELECT s.vec_id, s.vn, c{t - 1}.c,
                       row_number() OVER (PARTITION BY s.vec_id
                         ORDER BY round(list_dot_product(s.vn,
                                        c{t - 1}.cv), 6) DESC,
                                  c{t - 1}.c) AS rn
                FROM s CROSS JOIN c{t - 1}) WHERE rn = 1),
            u{t} AS (
              SELECT c, i, avg(x) AS m
              FROM (SELECT c, unnest(vn) AS x,
                           unnest(range(1, len(vn) + 1)) AS i FROM a{t})
              GROUP BY c, i),
            n{t} AS (SELECT c, sqrt(sum(m * m)) AS nrm
                     FROM u{t} GROUP BY c),
            c{t} AS (
              SELECT u{t}.c AS c,
                     list(round(m / nrm, 6) ORDER BY i) AS cv
              FROM u{t} JOIN n{t} ON u{t}.c = n{t}.c
              WHERE nrm > 0 GROUP BY u{t}.c, nrm
              UNION ALL
              SELECT c, cv FROM c{t - 1}
              WHERE c NOT IN (SELECT c FROM n{t} WHERE nrm > 0))"""
    seed = f"""
            en AS (
              SELECT vec_id,
                     list_transform(CAST(embedding AS DOUBLE[]),
                       x -> x / sqrt(list_dot_product(
                              CAST(embedding AS DOUBLE[]),
                              CAST(embedding AS DOUBLE[])))) AS vn
              FROM embeddings),
            s AS (SELECT vec_id, vn FROM en WHERE vec_id % {train_mod} = 0),
            c0 AS (
              SELECT row_number() OVER (ORDER BY vec_id) - 1 AS c,
                     list_transform(vn, x -> round(x, 6)) AS cv
              FROM (SELECT vec_id, vn FROM s ORDER BY vec_id
                    LIMIT {n_cells}))"""
    return _unroll(seed, step, iters)


def _ann_probe_ctes(*, n_q: int, n_probe: int, iters: int) -> str:
    """Query probing (pc) + corpus cell tagging (cell) against the final
    quantizer centroids c{iters} — shared by the IVF and PQ oracles."""
    return f"""
            q AS (SELECT vec_id AS qid, vn AS qv FROM en
                  WHERE vec_id < {n_q}),
            pc AS (
              SELECT qid, c FROM (
                SELECT q.qid, c{iters}.c,
                       row_number() OVER (PARTITION BY q.qid
                         ORDER BY round(list_dot_product(q.qv,
                                        c{iters}.cv), 6) DESC,
                                  c{iters}.c) AS rn
                FROM q CROSS JOIN c{iters}) WHERE rn <= {n_probe}),
            cell AS (
              SELECT vec_id, c FROM (
                SELECT en.vec_id, c{iters}.c,
                       row_number() OVER (PARTITION BY en.vec_id
                         ORDER BY round(list_dot_product(en.vn,
                                        c{iters}.cv), 6) DESC,
                                  c{iters}.c) AS rn
                FROM en CROSS JOIN c{iters}) WHERE rn = 1)"""


def _ivf_oracle(*, n_q: int, k: int, n_cells: int, n_probe: int,
                train_mod: int, iters: int) -> str:
    """Unrolled IVF-ANN oracle (mirrors kgx/ops/simsearch.py ivf_topk
    exactly since the round-5 deterministic-quantizer change); the
    final ranking orders on the raw cosine with vec_id tie-break and
    emits the 6dp-rounded score — the simsearch_topk conventions."""
    return f"""
            WITH {_ann_quantizer_ctes(n_cells=n_cells,
                                      train_mod=train_mod, iters=iters)},
            {_ann_probe_ctes(n_q=n_q, n_probe=n_probe, iters=iters)},
            ranked AS (
              SELECT q.qid, en.vec_id,
                     round(list_dot_product(q.qv, en.vn), 6) AS score,
                     row_number() OVER (PARTITION BY q.qid
                       ORDER BY list_dot_product(q.qv, en.vn) DESC,
                                en.vec_id) AS rank
              FROM q
              JOIN pc ON pc.qid = q.qid
              JOIN cell ON cell.c = pc.c
              JOIN en ON en.vec_id = cell.vec_id
              WHERE en.vec_id <> q.qid)
            SELECT qid AS query_id, vec_id AS neighbor_id, score, rank
            FROM ranked WHERE rank <= {k}
    """


def _pq_oracle(*, n_q: int, k: int, m: int, k_sub: int, n_cells: int,
               n_probe: int, train_mod: int, iters: int,
               refine: int, dim: int = 64) -> str:
    """Unrolled IVFADC+R oracle (mirrors kgx/ops/pq.py pq_topk exactly
    since the round-5 deterministic-init change): one chained CTE
    family trains ALL m per-subspace codebooks together (init = first
    k_sub sample rows per subspace rounded 6 dp; assignment = argmin of
    the 6dp-rounded squared euclidean with ties to the lowest code;
    update = member mean rounded 6 dp), encodes the corpus, probes
    n_probe cells per query, ADC-scores codes via per-query lookup
    tables (round-6 of the m-term sum), shortlists k*refine candidates
    and exactly re-ranks the shortlist on the raw cosine."""
    d_sub = dim // m
    shortlist = k * refine
    sub_expr = f"list_slice(vn, j * {d_sub} + 1, (j + 1) * {d_sub})"
    seed = f"""
            js AS (SELECT unnest(range({m})) AS j),
            pqsub AS (
              SELECT vec_id, j, {sub_expr} AS sv
              FROM s CROSS JOIN js),
            b0 AS (
              SELECT j, row_number() OVER (PARTITION BY j
                       ORDER BY vec_id) - 1 AS c,
                     list_transform(sv, x -> round(x, 6)) AS cw
              FROM (SELECT vec_id, j, sv,
                           row_number() OVER (PARTITION BY j
                             ORDER BY vec_id) AS rn0
                    FROM pqsub) WHERE rn0 <= {k_sub})"""

    def step(t: int) -> str:
        return f"""
            ba{t} AS (
              SELECT vec_id, j, sv, c FROM (
                SELECT p.vec_id, p.j, p.sv, b.c,
                       row_number() OVER (PARTITION BY p.j, p.vec_id
                         ORDER BY round(list_dot_product(p.sv, p.sv)
                               - 2 * list_dot_product(p.sv, b.cw)
                               + list_dot_product(b.cw, b.cw), 6) ASC,
                                  b.c ASC) AS rn
                FROM pqsub p JOIN b{t - 1} b ON b.j = p.j)
              WHERE rn = 1),
            bu{t} AS (
              SELECT j, c, i, round(avg(x), 6) AS mv
              FROM (SELECT j, c, unnest(sv) AS x,
                           unnest(range(1, len(sv) + 1)) AS i
                    FROM ba{t})
              GROUP BY j, c, i),
            b{t} AS (
              SELECT j, c, list(mv ORDER BY i) AS cw
              FROM bu{t} GROUP BY j, c
              UNION ALL
              SELECT bp.j, bp.c, bp.cw FROM b{t - 1} bp
              WHERE NOT EXISTS (SELECT 1 FROM bu{t} u
                                WHERE u.j = bp.j AND u.c = bp.c))"""
    return f"""
            WITH {_ann_quantizer_ctes(n_cells=n_cells,
                                      train_mod=train_mod, iters=iters)},
            {_ann_probe_ctes(n_q=n_q, n_probe=n_probe, iters=iters)},
            {_unroll(seed, step, iters)},
            esub AS (
              SELECT vec_id, j, {sub_expr} AS sv
              FROM en CROSS JOIN js),
            codes AS (
              SELECT vec_id, j, c AS code FROM (
                SELECT e.vec_id, e.j, b.c,
                       row_number() OVER (PARTITION BY e.j, e.vec_id
                         ORDER BY round(list_dot_product(e.sv, e.sv)
                               - 2 * list_dot_product(e.sv, b.cw)
                               + list_dot_product(b.cw, b.cw), 6) ASC,
                                  b.c ASC) AS rn
                FROM esub e JOIN b{iters} b ON b.j = e.j)
              WHERE rn = 1),
            qsub AS (
              SELECT qid, j,
                     list_slice(qv, j * {d_sub} + 1,
                                (j + 1) * {d_sub}) AS qsv
              FROM q CROSS JOIN js),
            lut AS (
              SELECT qid, qsub.j AS j, c,
                     list_dot_product(qsv, cw) AS lv
              FROM qsub JOIN b{iters} ON b{iters}.j = qsub.j),
            adc AS (
              SELECT l.qid, cd.vec_id, round(sum(l.lv), 6) AS adc_score
              FROM codes cd
              JOIN lut l ON l.j = cd.j AND l.c = cd.code
              GROUP BY l.qid, cd.vec_id),
            cand AS (
              SELECT a.qid, a.vec_id, a.adc_score
              FROM adc a
              JOIN cell ca ON ca.vec_id = a.vec_id
              JOIN pc p ON p.qid = a.qid AND p.c = ca.c
              WHERE a.vec_id <> a.qid),
            short AS (
              SELECT qid, vec_id FROM (
                SELECT qid, vec_id,
                       row_number() OVER (PARTITION BY qid
                         ORDER BY adc_score DESC, vec_id ASC) AS rn
                FROM cand) WHERE rn <= {shortlist}),
            ranked AS (
              SELECT sh.qid, sh.vec_id,
                     round(list_dot_product(q.qv, en.vn), 6) AS score,
                     row_number() OVER (PARTITION BY sh.qid
                       ORDER BY list_dot_product(q.qv, en.vn) DESC,
                                sh.vec_id ASC) AS rank
              FROM short sh
              JOIN q ON q.qid = sh.qid
              JOIN en ON en.vec_id = sh.vec_id)
            SELECT qid AS query_id, vec_id AS neighbor_id, score, rank
            FROM ranked WHERE rank <= {k}
    """


def _q_text_weighted_sample(sf_dir: str):
    """Efraimidis-Spirakis weighted sampling without replacement, top-100
    by char count (kgx/ops/sampling.py:weighted_sample) — per-block
    partial top-k, single vectorized merge."""
    from kgx.sources.pages import read_table
    from kgx.ops.sampling import weighted_sample
    docs = read_table(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "n_chars"])
    return weighted_sample(docs, k=100)


def _q_text_split(sf_dir: str):
    from kgx.sources.pages import read_table
    from kgx.ops.sampling import hash_split
    docs = read_table(f"{sf_dir}/documents.parquet",
                           columns=["doc_id"])
    return hash_split(docs)


def _q_text_source_cap(sf_dir: str):
    from kgx.sources.pages import read_table
    from kgx.ops.sampling import cap_per_source
    docs = read_table(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "source", "text"])
    return cap_per_source(docs, k=10)


def _q_text_contaminate(sf_dir: str):
    """Benchmark decontamination: docs sharing an 8-gram with the
    deterministic benchmark slice (doc_id % 97 == 0) are flagged."""
    import pyarrow as pa
    from kgx.sources.pages import read_table
    from kgx.ops.decontam import benchmark_gram_set, contamination_flags
    docs = read_table(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])

    def bench_slice(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        return b.filter(pa.array(ids % 97 == 0))

    bench = docs.map_batches(bench_slice, batch_format="pyarrow")
    bref = benchmark_gram_set(bench, n=8)
    return contamination_flags(docs, bref, n=8)


def _q_text_pack(sf_dir: str):
    """Contiguous sequence packing: global token offset + fixed-length
    sequence id per doc via a distributed exclusive prefix sum."""
    from kgx.sources.pages import read_table
    from kgx.ops.packing import pack_offsets
    docs = read_table(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    return pack_offsets(docs, seq_len=2048)


def _q_simsearch_topk(sf_dir: str):
    from kgx.sources.pages import read_table
    from kgx.ops.simsearch import cosine_topk
    emb = read_table(f"{sf_dir}/embeddings.parquet",
                          columns=["vec_id", "embedding"])
    return cosine_topk(emb, query_ids=list(range(8)), k=10)


def _q_simsearch_lsh(sf_dir: str):
    from kgx.sources.pages import read_table
    from kgx.ops.simsearch import lsh_topk
    emb = read_table(f"{sf_dir}/embeddings.parquet",
                          columns=["vec_id", "embedding"])
    return lsh_topk(emb, query_ids=list(range(8)), k=10)


def _q_simsearch_ivf(sf_dir: str):
    """IVF ANN: k-means cells + probed-cell exact scoring.  Approximate
    vs the true top-k, but fully deterministic — EXACT driver row since
    the round-5 deterministic quantizer init (the unrolled
    ``_ivf_oracle`` reproduces cells, probing and scores in SQL)."""
    from kgx.sources.pages import read_table
    from kgx.ops.simsearch import ivf_topk
    emb = read_table(f"{sf_dir}/embeddings.parquet",
                          columns=["vec_id", "embedding"])
    return ivf_topk(emb, query_ids=list(range(8)), k=10)


def _q_kg_ppr(sf_dir: str):
    """Personalized PageRank from the lexicographically smallest KG
    vertex (kgx/ops/graph.py:personalized_pagerank) — seed-restart
    teleport, same integer fixed-point recurrence and broadcast-vector
    shape as kg_pagerank, bit-identical to the unrolled SQL oracle."""
    from kgx.ops.graph import personalized_pagerank
    from kgx.pipelines.docs_kg import kg_tables
    return personalized_pagerank(kg_tables(sf_dir)["edges"],
                                 iters=_PR_ITERS)


def _q_kg_pagerank(sf_dir: str):
    """Degree + integer fixed-point PageRank over the canonical
    co-occurrence KG (kgx/ops/graph.py).  Integer arithmetic makes the
    distributed fold bit-identical to the unrolled SQL oracle."""
    from kgx.ops.graph import pagerank
    from kgx.pipelines.docs_kg import kg_tables
    return pagerank(kg_tables(sf_dir)["edges"], iters=_PR_ITERS)


def _q_kg_triangles(sf_dir: str):
    """Per-vertex triangle counts of the canonical co-occurrence KG via
    the distributed wedge-join (kgx/ops/graph.py:triangle_counts) —
    wedges stream through one pair-keyed groupby against the distinct
    edge set; no driver-side adjacency is ever built."""
    from kgx.ops.graph import triangle_counts
    from kgx.pipelines.docs_kg import kg_tables
    return triangle_counts(kg_tables(sf_dir)["edges"])


def _q_kg_lcc(sf_dir: str):
    """Local clustering coefficient per KG vertex in integer 1e-12
    units (kgx/ops/graph.py:clustering_coefficients) — streamed
    wedge-join triangles + O(|V|) driver-side degree join."""
    from kgx.ops.graph import clustering_coefficients
    from kgx.pipelines.docs_kg import kg_tables
    return clustering_coefficients(kg_tables(sf_dir)["edges"])


def _q_kg_wcc(sf_dir: str):
    """Weakly connected components of the co-occurrence KG via the
    distributed min-label propagation (kgx/ops/graph.py:
    weakly_connected_components) — component id = lexicographically
    smallest member name."""
    from kgx.ops.graph import weakly_connected_components
    from kgx.pipelines.docs_kg import kg_tables
    return weakly_connected_components(kg_tables(sf_dir)["edges"])


def _q_kg_kcore(sf_dir: str):
    """2-core of the co-occurrence KG after 8 fixed peeling rounds
    (kgx/ops/graph.py:kcore_vertices) — per-round streamed degree count
    + map-side survivor filter, oracle-matched round for round."""
    from kgx.ops.graph import kcore_vertices
    from kgx.pipelines.docs_kg import kg_tables
    return kcore_vertices(kg_tables(sf_dir)["edges"],
                          k=_KCORE_K, rounds=_KCORE_ROUNDS)


def _q_kg_khop(sf_dir: str):
    """2-hop BFS neighborhood of the lexicographically smallest KG
    vertex (kgx/ops/graph.py:khop_neighborhood) — broadcast frontier +
    streamed is_in filter per hop."""
    from kgx.ops.graph import khop_neighborhood
    from kgx.pipelines.docs_kg import kg_tables
    return khop_neighborhood(kg_tables(sf_dir)["edges"], hops=2)


def _q_kg_lift(sf_dir: str):
    """Term-pair co-occurrence LIFT in integer 1e-6 units over the
    documents corpus (kgx/ops/vocab.py:cooccurrence_lift) — the
    association weighting for co-occurrence KG edges."""
    from kgx.sources.pages import read_table
    from kgx.ops.vocab import cooccurrence_lift
    docs = read_table(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    return cooccurrence_lift(docs)


def _q_kg_stats(sf_dir: str):
    """One-row KG shape report composed from the exact graph operators:
    vertex/edge counts, max degree, component count, total triangles
    (per-vertex counts / 3)."""
    import pandas as pd
    import pyarrow.compute as pc
    from kgx.functions.collect import collect_arrow
    from kgx.ops.graph import (degree_table, triangle_counts,
                               weakly_connected_components)
    edges = kg_tables_edges(sf_dir)
    deg = collect_arrow(degree_table(edges))
    tri = collect_arrow(triangle_counts(edges))
    wcc = collect_arrow(weakly_connected_components(edges))
    n_v = deg.num_rows
    sum_deg = pc.sum(deg["degree"]).as_py() or 0
    tri_total = (pc.sum(tri["n_triangles"]).as_py() or 0) // 3
    n_c = len(set(wcc["component"].to_pylist()))
    max_d = pc.max(deg["degree"]).as_py() or 0
    return pd.DataFrame([{
        "n_vertices": n_v, "n_edges": sum_deg // 2,
        "max_degree": max_d, "n_components": n_c,
        "n_triangles": tri_total,
    }])


def _q_kg_degree_hist(sf_dir: str):
    """Degree distribution of the co-occurrence KG in width-4 buckets —
    composes degree_table with the fixed-width histogram (both already
    oracle-gated); the canonical first look at any graph's shape."""
    import pyarrow as pa
    from kgx.ops.graph import degree_table
    from kgx.ops.quantile import value_histogram
    deg = degree_table(kg_tables_edges(sf_dir)).map_batches(
        lambda t: pa.table({"value": t["degree"].cast(pa.float64())}),
        batch_format="pyarrow")
    return value_histogram(deg, "value", width=4.0)


def kg_tables_edges(sf_dir: str):
    from kgx.pipelines.docs_kg import kg_tables
    return kg_tables(sf_dir)["edges"]


def _q_kg_neighbor_jaccard(sf_dir: str):
    """Entity-linking candidates: open-neighborhood Jaccard per vertex
    pair via the streamed wedge-join (kgx/ops/graph.py:
    neighbor_jaccard_pairs), integer fixed-point >= 0.2."""
    from kgx.ops.graph import neighbor_jaccard_pairs
    from kgx.pipelines.docs_kg import kg_tables
    return neighbor_jaccard_pairs(kg_tables(sf_dir)["edges"])


_KCORE_K = 2
_KCORE_ROUNDS = 8


def _kcore_oracle(*, k: int, rounds: int) -> str:
    """Unrolled fixed-round k-core peel over the co-occurrence edges
    (mirrors kgx/ops/graph.py:kcore_vertices): per round, keep the
    vertices of degree >= k and the edges between them."""
    def step(r: int) -> str:
        return f"""
            s{r} AS (SELECT v FROM d{r - 1} WHERE d >= {k}),
            e{r} AS (SELECT s, t FROM e{r - 1}
                     WHERE s IN (SELECT v FROM s{r})
                       AND t IN (SELECT v FROM s{r})),
            d{r} AS (SELECT s AS v, count(*) AS d FROM e{r} GROUP BY s)"""
    seed = f"""{_sym_edges()},
            e0 AS (SELECT s, t FROM ed),
            d0 AS (SELECT s AS v, count(*) AS d FROM e0 GROUP BY s)"""
    return f"""
            WITH {_term_docs()}, {_cooc_pairs()},
            {_unroll(seed, step, rounds)}
            SELECT v AS name, d AS degree FROM d{rounds} WHERE d >= {k}
    """


_PR_ITERS = 10


def _pagerank_oracle(kind: str) -> str:
    """The one SQL twin of kgx/ops/graph.py's three PageRank kernels over
    the co-occurrence edges: ``"pr"`` (pagerank), ``"wpr"``
    (weighted_pagerank: each edge carries its co-occurring-document
    count w and a vertex's degree is its sum of w) and ``"ppr"``
    (personalized_pagerank: the teleport mass lands only on the
    lexicographically smallest vertex).  _PR_ITERS rounds of one BIGINT
    recurrence, damping 85/100 over 1e12 units:
    r_k(v) = teleport(v) + (85 * sum over in-edges of share) // 100,
    share = r_{k-1}(u) // deg(u) (weighted: (r_{k-1}(u) * w) // deg(u))."""
    scale = 10**12
    weighted = kind == "wpr"
    if kind == "ppr":
        start = f"CASE WHEN v = (SELECT sv FROM sd) THEN {scale} ELSE 0 END"
        teleport = (f"CASE WHEN ed.t = (SELECT sv FROM sd)"
                    f" THEN ((15 * {scale}) // 100) ELSE 0 END")
    else:
        start = f"{scale} // (SELECT nv FROM nn)"
        teleport = f"((15 * ({scale} // (SELECT nv FROM nn))) // 100)"
    share = "(pr.r * ed.w) // dg.d" if weighted else "pr.r // dg.d"
    degree = "CAST(sum(w) AS BIGINT)" if weighted else "count(*)"

    def step(k: int) -> str:
        return f"""
            r{k} AS (
              SELECT ed.t AS v,
                     CAST({teleport} + (85 * sum({share})) // 100
                          AS BIGINT) AS r
              FROM ed JOIN r{k - 1} pr ON ed.s = pr.v
                      JOIN deg dg ON ed.s = dg.v
              GROUP BY ed.t)"""
    return f"""
            WITH {_term_docs()}, {_cooc_pairs(weighted=weighted)},
            {_sym_edges(weighted=weighted)},
            deg AS (SELECT s AS v, {degree} AS d FROM ed GROUP BY s),
            nn AS (SELECT count(*) AS nv FROM deg),
            sd AS (SELECT min(v) AS sv FROM deg),
            {_unroll(f"r0 AS (SELECT v, {start} AS r FROM deg)", step,
                     _PR_ITERS)}
            SELECT d.v AS name, d.d AS {"w" if weighted else ""}degree,
                   CAST(rr.r AS BIGINT) AS {kind}_units
            FROM deg d JOIN r{_PR_ITERS} rr ON d.v = rr.v
    """


def _q_rel_antijoin(sf_dir: str):
    """Broadcast anti-join: customers with no order over 300k
    (kgx/ops/relational.py — the distinct key set of the big side
    reduces map-side and broadcasts; no order rows ever shuffle)."""
    from kgx.ops.relational import customers_without_orders
    return customers_without_orders(sf_dir, min_totalprice=300000.0)


def _q_events_quantile(sf_dir: str):
    """Exact p50/p90/p99 of events.value via three streaming passes
    (histogram-refine, kgx/ops/quantile.py) — no global sort."""
    from kgx.sources.pages import read_table
    from kgx.ops.quantile import exact_quantiles
    ev = read_table(f"{sf_dir}/events.parquet", columns=["value"])
    return exact_quantiles(ev, "value", [0.5, 0.9, 0.99])


def _q_rel_join(sf_dir: str):
    """General co-shuffle hash equi-join (kgx/ops/joins.py): orders x
    customer on custkey with both sides streamed — neither broadcast."""
    import pyarrow as pa
    from kgx.sources.pages import read_table
    from kgx.ops.joins import hash_equijoin
    from kgx.ops.relational import _cents

    def to_cents(b: pa.Table) -> pa.Table:
        return pa.table({
            "o_custkey": b["o_custkey"],
            "o_orderkey": b["o_orderkey"],
            "price_cents": _cents(b["o_totalprice"]),
        })

    orders = read_table(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderkey", "o_totalprice"]
    ).map_batches(to_cents, batch_format="pyarrow")
    cust = read_table(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey", "c_name"])
    return hash_equijoin(orders, cust, left_on="o_custkey",
                         right_on="c_custkey", how="inner")


def _q_text_ngrams(sf_dir: str):
    """Corpus-wide top-20 word bigrams (kgx/ops/vocab.py): per-batch
    Counter partials -> narrow gram groupby -> sort/limit."""
    from kgx.sources.pages import read_table
    from kgx.ops.vocab import ngram_topk
    docs = read_table(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    return ngram_topk(docs, n=2, k=20)


def _q_text_tfidf(sf_dir: str):
    """Per-document top-5 TF-IDF terms (kgx/ops/vocab.py): broadcast
    vocabulary df table + shuffle-free per-doc scoring."""
    from kgx.sources.pages import read_table
    from kgx.ops.vocab import tfidf_top_terms
    docs = read_table(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    return tfidf_top_terms(docs, k=5)


def _q_text_dsir(sf_dir: str):
    """DSIR hashed-unigram importance weights vs the lang='en' target
    slice (kgx/ops/dsir.py): one count pass folding a fixed 4096-bucket
    model, one broadcast, one shuffle-free scoring pass."""
    from kgx.sources.pages import read_table
    from kgx.ops.dsir import dsir_weights
    docs = read_table(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text", "lang"])
    return dsir_weights(docs, target_lang="en", n_buckets=4096)


def _q_text_wordfreq(sf_dir: str):
    """Corpus word-frequency top-100 (ngram_topk at n=1) — the exact
    driver gate for the word-count fold that text_bpe trains on."""
    from kgx.sources.pages import read_table
    from kgx.ops.vocab import ngram_topk
    docs = read_table(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    return ngram_topk(docs, n=1, k=100)


_BPE_MERGES, _BPE_MIN_COUNT = 30, 2


def _q_text_bpe(sf_dir: str):
    """BPE merge learning on the aggregated word-frequency table
    (kgx/ops/vocab.py:bpe_merges).  EXACT since r5: fixed n_merges
    unrolls into SQL argmax + greedy-rewrite rounds (_bpe_oracle), the
    same treatment kg_lpa's rounds got; the distributed corpus fold is
    additionally driver-gated via text_wordfreq."""
    from kgx.sources.pages import read_table
    from kgx.ops.vocab import bpe_merges
    docs = read_table(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    return bpe_merges(docs, n_merges=_BPE_MERGES, min_count=_BPE_MIN_COUNT)


def _q_kg_modularity(sf_dir: str):
    """Exact integer Newman modularity (kgx/ops/graph.py:
    partition_modularity) of the co-occurrence KG under the
    deterministic first-letter partition — the general (edges,
    membership) scorer that grades Louvain/WCC output at scale."""
    import pyarrow as pa
    from kgx.ops.graph import partition_modularity
    from kgx.pipelines.docs_kg import kg_tables
    tabs = kg_tables(sf_dir)
    nodes = tabs["nodes"]

    def first_letter(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return pa.table({
            "name": t["name"],
            "community": pc.utf8_slice_codeunits(
                t["name"].combine_chunks().cast(pa.string()), 0, 1),
        })

    membership = nodes.map_batches(first_letter, batch_format="pyarrow")
    return partition_modularity(tabs["edges"], membership)


# BM25 driver queries: fixed keyword queries over the synthetic
# documents vocabulary (kgx/synth.py word list), mirrored term-by-term
# in the oracle SQL below.
_BM25_QUERIES = ("fast vector scan", "window stream query",
                 "customer order join")


def _q_bm25_topk(sf_dir: str):
    """Okapi BM25 keyword top-k over documents (kgx/ops/bm25.py).

    Scores are rounded to 6 decimals pre-ranking (in the operator) and
    emitted as integer parts-per-million so the cross-engine value hash
    never depends on float formatting."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from kgx.sources.pages import read_table
    from kgx.ops.bm25 import bm25_topk
    docs = read_table(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    top = bm25_topk(docs, list(_BM25_QUERIES), k=10)

    def to_ppm(b: pa.Table) -> pa.Table:
        ppm = pc.cast(pc.round(pc.multiply(b["score"], 1e6)), pa.int64())
        return b.set_column(b.schema.get_field_index("score"),
                            "score_ppm", ppm)

    return top.map_batches(to_ppm, batch_format="pyarrow")


def _minhash_oracle(*, num_perm=64, bands=16, seed=13,
                    min_est=0.5) -> str:
    """EXACT SQL twin of kgx.ops.dedup.minhash_lsh_pairs: the shingle
    hash is md5-low64 (SQL: CAST('0x'||substr(md5(s),1,16) AS UBIGINT)),
    the permutations are (h*a|1 + b) mod 2^64 with the SAME seeded
    parameters embedded as literals (HUGEINT intermediates emulate the
    wrapping uint64 multiply), candidacy is "some band's sig chunk is
    identical" (band-hash collisions aside, which the gate would catch),
    and est_jaccard is the matching-signature fraction — an exact
    multiple of 1/64, so the float hashes match."""
    from kgx.ops.dedup import _perm_params
    a, b = _perm_params(num_perm, seed)
    rows_per_band = num_perm // bands
    perms = ", ".join(
        f"({i}, {int(ai) | 1}::HUGEINT, {int(bi)}::HUGEINT)"
        for i, (ai, bi) in enumerate(zip(a.tolist(), b.tolist())))
    return f"""
        WITH {_SHINGLE_HASHES},
        perms(i, a1, bb) AS (VALUES {perms}),
        sig AS (
          SELECT doc_id, i,
                 CAST(min((CAST(h AS HUGEINT) * a1 + bb)
                          % 18446744073709551616) AS UBIGINT) AS v
          FROM hs CROSS JOIN perms GROUP BY doc_id, i),
        bandkey AS (
          SELECT doc_id, i // {rows_per_band} AS band,
                 string_agg(CAST(v AS VARCHAR), ',' ORDER BY i) AS key
          FROM sig GROUP BY doc_id, i // {rows_per_band}),
        cand AS (
          SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b
          FROM bandkey a JOIN bandkey b
            ON a.band = b.band AND a.key = b.key
           AND a.doc_id < b.doc_id)
        SELECT c.doc_a, c.doc_b,
               sum(CASE WHEN sa.v = sb.v THEN 1 ELSE 0 END)
                 / {float(num_perm)} AS est_jaccard
        FROM cand c
        JOIN sig sa ON sa.doc_id = c.doc_a
        JOIN sig sb ON sb.doc_id = c.doc_b AND sb.i = sa.i
        GROUP BY c.doc_a, c.doc_b
        HAVING est_jaccard >= {min_est}
    """


def _simhash_oracle(*, bands=4, max_hamming=8) -> str:
    """EXACT SQL twin of kgx.ops.dedup.simhash_pairs: md5-low64 token
    hashes, tf-weighted sign-sum per bit position rebuilds the 64-bit
    signature, band-equality blocking (16-bit chunks) picks candidates,
    and hamming = bit_count(xor) filters."""
    width = 64 // bands
    mask = (1 << width) - 1
    return f"""
        WITH toks AS (
          SELECT doc_id,
                 unnest(list_filter(string_split_regex(text, '\\s+'),
                                    x -> x <> '')) AS t
          FROM documents),
        tf AS (
          SELECT doc_id, t, count(*) AS w,
                 {_md5_u64("t")} AS h
          FROM toks GROUP BY doc_id, t),
        bits AS (
          SELECT doc_id, j.j,
                 CASE WHEN sum(CASE WHEN (h >> j.j) & 1 = 1
                                    THEN w ELSE -w END) > 0
                      THEN 1 ELSE 0 END AS bit
          FROM tf CROSS JOIN (SELECT unnest(generate_series(0, 63)) AS j) j
          GROUP BY doc_id, j.j),
        sig AS (
          SELECT doc_id,
                 CAST(sum(CAST(bit AS HUGEINT)
                          * (CAST(1 AS HUGEINT) << j)) AS UBIGINT) AS s
          FROM bits GROUP BY doc_id),
        bandrow AS (
          SELECT doc_id, s, b.b AS band,
                 (s >> (b.b * {width})) & {mask} AS val
          FROM sig CROSS JOIN
               (SELECT unnest(generate_series(0, {bands - 1})) AS b) b),
        cand AS (
          SELECT DISTINCT a.doc_id AS doc_a, a.s AS sa,
                          b.doc_id AS doc_b, b.s AS sb
          FROM bandrow a JOIN bandrow b
            ON a.band = b.band AND a.val = b.val
           AND a.doc_id < b.doc_id)
        SELECT doc_a, doc_b,
               CAST(bit_count(xor(sa, sb)) AS INT) AS hamming
        FROM cand
        WHERE bit_count(xor(sa, sb)) <= {max_hamming}
    """


def _lsh_oracle(*, n_queries=8, k=10, n_bits=4, seed=29, n_probe=8,
                dim=64) -> str:
    """EXACT SQL twin of kgx.ops.simsearch.lsh_topk: the seeded
    hyperplanes embed as DOUBLE[] literals (repr round-trips), a corpus
    row's bucket is the sign-bit integer of its hyperplane dots
    (normalization-invariant, so raw dots suffice), each query probes
    the n_probe cheapest |margin|-sum bit-flip masks (ties to the lower
    mask — numpy's stable argsort), and probed candidates rank by raw
    cosine DESC, id ASC with 6-dp rounded scores — the same float path
    the exact simsearch_topk oracle already proves stable."""
    import numpy as np
    H = np.random.default_rng(seed).standard_normal((n_bits, dim))
    hrows = ", ".join(
        f"({i}, [{', '.join(repr(float(x)) for x in H[i])}]::DOUBLE[])"
        for i in range(n_bits))
    return f"""
        WITH {_EMB},
        h(i, hv) AS (VALUES {hrows}),
        dots AS (
          SELECT e.vec_id, h.i, list_dot_product(e.v, h.hv) AS d
          FROM e CROSS JOIN h),
        bucket AS (
          SELECT vec_id,
                 sum(CASE WHEN d > 0 THEN 1 << i ELSE 0 END) AS b
          FROM dots GROUP BY vec_id),
        qd AS (SELECT vec_id AS qid, i, d FROM dots
               WHERE vec_id < {n_queries}),
        qbase AS (
          SELECT qid, sum(CASE WHEN d > 0 THEN 1 << i ELSE 0 END) AS base
          FROM qd GROUP BY qid),
        masks AS (
          SELECT unnest(generate_series(0, {(1 << n_bits) - 1})) AS mask),
        cost AS (
          SELECT qid, mask,
                 sum(CASE WHEN (mask >> i) & 1 = 1 THEN abs(d)
                          ELSE 0 END) AS c
          FROM qd CROSS JOIN masks GROUP BY qid, mask),
        probe AS (
          SELECT qid, mask,
                 row_number() OVER (PARTITION BY qid ORDER BY c, mask)
                   AS rn
          FROM cost),
        probed AS (
          SELECT p.qid, xor(qb.base, p.mask) AS b
          FROM probe p JOIN qbase qb USING (qid)
          WHERE p.rn <= {n_probe}),
        cand AS (
          SELECT pr.qid, bk.vec_id
          FROM probed pr JOIN bucket bk ON bk.b = pr.b
          WHERE bk.vec_id <> pr.qid),
        scored AS (
          SELECT c.qid, c.vec_id,
                 round(list_cosine_similarity(qe.v, ce.v), 6) AS score,
                 row_number() OVER (
                   PARTITION BY c.qid
                   ORDER BY list_cosine_similarity(qe.v, ce.v) DESC,
                            c.vec_id ASC) AS rank
          FROM cand c
          JOIN e qe ON qe.vec_id = c.qid
          JOIN e ce ON ce.vec_id = c.vec_id)
        SELECT qid AS query_id, vec_id AS neighbor_id, score, rank
        FROM scored WHERE rank <= {k}
    """


_EXACT_TOPK_SQL = f"""
    WITH {_EMB},
    q AS (SELECT vec_id AS qid, v AS qv FROM e WHERE vec_id < 8),
    s AS (
      SELECT qid, vec_id,
             round(list_cosine_similarity(qv, v), 6) AS score,
             row_number() OVER (
               PARTITION BY qid
               ORDER BY list_cosine_similarity(qv, v) DESC, vec_id ASC)
               AS rank
      FROM q JOIN e ON vec_id <> qid)
    SELECT qid AS query_id, vec_id AS neighbor_id, score, rank
    FROM s WHERE rank <= 10
"""


def _hll_oracle(table: str, col: str, *, key: str | None = None,
                p: int = 12) -> str:
    """EXACT SQL twin of the HyperLogLog sketch (kgx/ops/sketch.py):
    md5-low64 value hashes, register index = top-p bits, rank =
    64-p-bit leading zeros + 1 via DuckDB ``bin()`` string length
    (exact integer logic, no float log), max per register, the standard
    alpha*m^2 / sum(2^-reg) estimator with the linear-counting
    small-range correction.  HLL merges are order-free maxes, so the
    distributed per-block fold equals this single-pass recomputation
    bit for bit; only the final float estimate could differ in ulps
    (summation order), far below the round() boundary."""
    m = 1 << p
    alpha = 0.7213 / (1 + 1.079 / m)
    kproj = f"{key}, " if key else ""
    kgroup = f"GROUP BY {key}" if key else ""
    kout = f"{key}, " if key else f"'{col}' AS \"column\", "
    return f"""
        WITH h AS (
          SELECT {kproj} {_md5_u64(f"CAST({col} AS VARCHAR)")} AS hv
          FROM {table}),
        r AS (
          SELECT {kproj}
                 CAST(hv >> {64 - p} AS BIGINT) AS idx,
                 CAST((CAST(hv AS HUGEINT) * CAST({1 << p} AS HUGEINT))
                      % 18446744073709551616 AS UBIGINT) AS rest
          FROM h),
        rk AS (
          SELECT {kproj} idx,
                 CASE WHEN rest = 0 THEN {64 - p + 1}
                      ELSE least(64 - length(bin(rest)) + 1,
                                 {64 - p + 1}) END AS rank
          FROM r),
        regs AS (
          SELECT {kproj} idx, max(rank) AS reg
          FROM rk GROUP BY {kproj} idx),
        agg AS (
          SELECT {kproj}
                 sum(pow(2.0, -reg)) + ({m} - count(*)) AS denom,
                 {m} - count(*) AS zeros
          FROM regs {kgroup}),
        est AS (
          SELECT {kproj}
                 CASE WHEN CAST({alpha!r} AS DOUBLE) * {m} * {m} / denom
                             <= 2.5 * {m}
                           AND zeros > 0
                      THEN {m} * ln({m} / zeros)
                      ELSE CAST({alpha!r} AS DOUBLE) * {m} * {m} / denom
                      END AS e
          FROM agg)
        SELECT {kout}
               CAST(round(e) AS BIGINT) AS approx_distinct,
               CAST({p} AS INT) AS precision_p
        FROM est
    """


_CMS_QUERY_TYPES = ["click", "error", "purchase", "signup", "view"]


def _cms_oracle(table: str, col: str, query_values: list[str], *,
                d: int = 4, w: int = 2048) -> str:
    """EXACT SQL twin of the count-min sketch (kgx/ops/sketch.py:
    cms_estimates): md5-low64 value hashes, row r's bucket is
    (h*(A+r) + r*B) mod 2^64 mod w with the SAME mixing constants, and
    the point estimate is min over rows of the bucket's TOTAL row count
    (CMS counters sum every colliding value, so recomputing the bucket
    histogram over the raw table equals the merged sketch exactly —
    integer adds are order-free).  The wrapping uint64 multiply is
    emulated with a 32-bit split (hi*(A+r) mod 2^32 << 32 + lo*(A+r));
    a direct HUGEINT product would overflow 2^127 since A > 2^63."""
    A, B = 0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F
    vals = ", ".join(f"('{v}')" for v in query_values)

    def pos(hv: str) -> str:
        return (f"CAST((( (CAST({hv} >> 32 AS HUGEINT)"
                f" * ({A}::HUGEINT + r) % 4294967296) * 4294967296"
                f" + CAST({hv} & 4294967295 AS HUGEINT)"
                f" * ({A}::HUGEINT + r)"
                f" + CAST(r AS HUGEINT) * {B}::HUGEINT)"
                f" % 18446744073709551616::HUGEINT) % {w} AS BIGINT)")

    return f"""
        WITH q(value) AS (VALUES {vals}),
        rs(r) AS (SELECT unnest(generate_series(0, {d - 1}))),
        eh AS (
          SELECT {_md5_u64(f"CAST({col} AS VARCHAR)")} AS hv
          FROM {table}),
        counts AS (
          SELECT r, {pos('hv')} AS pos, count(*) AS c
          FROM eh CROSS JOIN rs GROUP BY 1, 2),
        qp AS (
          SELECT value, r,
                 {pos(_md5_u64("value"))}
                   AS pos
          FROM q CROSS JOIN rs),
        est AS (
          SELECT value, CAST(min(coalesce(c, 0)) AS BIGINT) AS est_count
          FROM qp LEFT JOIN counts USING (r, pos) GROUP BY value)
        SELECT value, est_count, CAST({d} AS INT) AS depth,
               CAST({w} AS INT) AS width
        FROM est
    """


def _recall_minhash_oracle() -> str:
    """Recall of the MinHash-LSH candidate pairs against TRUE
    shingle-set Jaccard >= 0.5 (the similarity the signatures
    estimate), both sides in SQL over the same md5-low64 shingle
    hashes."""
    return f"""
        WITH cand AS ({_minhash_oracle()}),
        {_SHINGLE_HASHES},
        {_set_jaccard("hs", "h", 0.5)},
        h2 AS (SELECT count(*) AS hits FROM cand c JOIN jp t
               ON c.doc_a = t.doc_a AND c.doc_b = t.doc_b),
        nt AS (SELECT count(*) AS n_true FROM jp),
        nc AS (SELECT count(*) AS n_cand FROM cand)
        SELECT 'minhash' AS op, nt.n_true, nc.n_cand, h2.hits,
               h2.hits * 1000000 // greatest(nt.n_true, 1) AS recall_ppm
        FROM h2, nt, nc
    """


def _bm25_oracle(queries, *, k=10, k1=1.2, b=0.75) -> str:
    """DuckDB mirror of kgx.ops.bm25.bm25_topk for fixed query strings.

    Reproduces the operator's float ops in the same order and with the
    same RE2 patterns: per-term tf/df on lower(text) with \\b-bounded
    matches, dl = \\S+ runs, Lucene idf, left-associative sum over the
    query's sorted distinct terms, round(score, 6) before ranking."""
    import re as _re
    per_q = [sorted(set(_re.findall(r"\b[a-z]{4,}\b", q.lower())))
             for q in queries]
    all_terms = sorted({t for ts in per_q for t in ts})
    ti = {t: i for i, t in enumerate(all_terms)}
    df_cols = ",\n                 ".join(
        f"sum(CASE WHEN regexp_matches(lt, '\\b{t}\\b') THEN 1 ELSE 0 END)"
        f" AS df_{ti[t]}" for t in all_terms)
    tf_cols = ",\n                 ".join(
        f"CAST(len(regexp_extract_all(lt, '\\b{t}\\b')) AS DOUBLE)"
        f" AS tf_{ti[t]}" for t in all_terms)
    # idf/denominator/score expressions are written exactly as the numpy
    # path evaluates them (same literals, same associativity)
    idf = {t: (f"ln((s.n - s.df_{ti[t]} + 0.5) / (s.df_{ti[t]} + 0.5)"
               " + 1.0)") for t in all_terms}
    denom = f"({k1} * ((1.0 - {b}) + {b} * (d.dl / s.avgdl)))"
    arms = []
    for qi, terms in enumerate(per_q):
        contribs = [f"({idf[t]} * (d.tf_{ti[t]} * ({k1} + 1.0))"
                    f" / (d.tf_{ti[t]} + {denom}))" for t in terms]
        score = " + ".join(contribs) if contribs else "0.0"
        arms.append(f"""
              SELECT CAST({qi} AS BIGINT) AS query_idx, d.doc_id,
                     round({score}, 6) AS score
              FROM d, s""")
    scored = "\n              UNION ALL".join(arms)
    return f"""
            WITH d AS (
              SELECT doc_id, lower(text) AS lt,
                     CAST(len(regexp_extract_all(text, '{_WS_RE}'))
                          AS DOUBLE) AS dl,
                 {tf_cols}
              FROM documents),
            s AS (
              SELECT count(*) AS n, avg(dl) AS avgdl,
                 {df_cols}
              FROM d),
            scored AS ({scored}),
            ranked AS (
              SELECT query_idx, doc_id, score,
                     row_number() OVER (PARTITION BY query_idx
                       ORDER BY score DESC, doc_id) AS rk
              FROM scored WHERE score > 0)
            SELECT query_idx, doc_id,
                   CAST(round(score * 1000000) AS BIGINT) AS score_ppm,
                   CAST(rk AS BIGINT) AS "rank"
            FROM ranked WHERE rk <= {k}
    """


def _q_text_source_stats(sf_dir: str):
    from kgx.sources.pages import read_table
    from kgx.ops.text import source_stats
    docs = read_table(f"{sf_dir}/documents.parquet",
                           columns=["source", "text"])
    return source_stats(docs)


def _q_text_filter(sf_dir: str):
    from kgx.sources.pages import read_table
    from kgx.ops.text import filter_quality
    docs = read_table(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    return filter_quality(docs, min_score_ppm=300_000,
                          langs=("en",)).select_columns(
        ["doc_id", "quality_score_ppm", "pred_lang"])


def _q_events_window(sf_dir: str):
    from kgx.sources.pages import read_table
    from kgx.ops.window import tumbling_window_agg
    ev = read_table(f"{sf_dir}/events.parquet",
                         columns=["ts", "event_type", "value"])
    return tumbling_window_agg(ev, width_s=3600)


def _q_events_sliding(sf_dir: str):
    from kgx.sources.pages import read_table
    from kgx.ops.window import sliding_window_agg
    ev = read_table(f"{sf_dir}/events.parquet",
                         columns=["ts", "event_type", "value"])
    return sliding_window_agg(ev, width_s=3600, slide_s=900)


def _q_events_session(sf_dir: str):
    from kgx.sources.pages import read_table
    from kgx.ops.window import session_window_agg
    ev = read_table(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts", "value"])
    return session_window_agg(ev, gap_s=1800)


def _q_events_asof(sf_dir: str):
    from kgx.sources.pages import read_table
    from kgx.ops.joins import asof_join_events
    ev = read_table(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type", "value"])
    return asof_join_events(ev, left_type="click", right_type="view")


def _q_events_interval(sf_dir: str):
    from kgx.sources.pages import read_table
    from kgx.ops.joins import interval_join_events
    ev = read_table(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type"])
    return interval_join_events(ev, left_type="purchase",
                                right_type="click", tolerance_s=600)


def _q_sketch_distinct(sf_dir: str):
    """HyperLogLog approximate distinct users over events — approximate
    by design, rows-only check (error-bound tested in tests/test_sketch)."""
    from kgx.sources.pages import read_table
    from kgx.ops.sketch import approx_distinct
    ev = read_table(f"{sf_dir}/events.parquet", columns=["user_id"])
    return approx_distinct(ev, "user_id")


def _q_embed_negatives(sf_dir: str):
    """Deterministic uniform negative sampling for contrastive training
    (kgx/ops/training.py:negative_samples): k=4 draws per anchor via the
    mix32 integer lottery over the sorted id directory — map-side,
    shuffle-free, hash-exact against the same arithmetic in SQL."""
    from kgx.sources.pages import read_table
    from kgx.ops.training import negative_samples
    emb = read_table(f"{sf_dir}/embeddings.parquet",
                          columns=["vec_id"])
    return negative_samples(emb, k=4, seed=101)


def _q_embed_triplets(sf_dir: str):
    """Contrastive triplets (kgx/ops/training.py:contrastive_triplets):
    positive = exact rank-1 cosine neighbor via the blocked kNN join,
    negatives = 2 mix32 draws, joined on a narrow (vec_id) co-shuffle."""
    from kgx.sources.pages import read_table
    from kgx.ops.training import contrastive_triplets
    emb = read_table(f"{sf_dir}/embeddings.parquet",
                          columns=["vec_id", "embedding"])
    return contrastive_triplets(emb, k_neg=2, seed=101)


def _q_sketch_cms(sf_dir: str):
    """Count-min point-frequency estimates for the five event types
    (kgx/ops/sketch.py:cms_estimates): per-batch 64 KB count tables
    merged by exact addition — the mergeable upper-bound complement of
    Misra-Gries.  EXACT oracle (r4 hash twinning): counter adds are
    order-free integers and the hash family is md5-low64 + literal
    mixing constants, so DuckDB recomputes the bucket histogram and the
    min-over-rows estimate bit for bit (``_cms_oracle``); the one-sided
    error bound stays pinned in tests/test_sketch.py."""
    from kgx.sources.pages import read_table
    from kgx.ops.sketch import cms_estimates
    ev = read_table(f"{sf_dir}/events.parquet",
                         columns=["event_type"])
    return cms_estimates(ev, "event_type", _CMS_QUERY_TYPES)


def _q_sketch_distinct_by_type(sf_dir: str):
    """Per-event-type HLL distinct users (kgx/ops/sketch.py:
    approx_distinct_by_key) — grouped mergeable sketches: per-batch
    per-key register folds, a narrow (key, 4 KB registers) shuffle,
    elementwise-max merge per key.  Approximate by design, rows-only;
    the per-key error bound is pinned in tests/test_sketch.py."""
    from kgx.sources.pages import read_table
    from kgx.ops.sketch import approx_distinct_by_key
    ev = read_table(f"{sf_dir}/events.parquet",
                         columns=["event_type", "user_id"])
    return approx_distinct_by_key(ev, "event_type", "user_id")


def _q_sketch_heavy(sf_dir: str):
    """Misra-Gries heavy hitters over event types.  EXACT oracle (r4):
    Misra-Gries is provably exact whenever the distinct cardinality
    never exceeds the counter capacity — no decrement ever fires, so
    the merged counters ARE the frequencies (kgx/ops/sketch.py:mg_fold
    evicts only at len == 4*k; events has 5 distinct types vs capacity
    20).  The SQL twin is therefore the plain frequency top-k ordered
    (count desc, value asc).  The approximate regime (distinct >
    capacity, lower-bound counts) stays tolerance-tested in
    tests/test_sketch.py."""
    from kgx.sources.pages import read_table
    from kgx.ops.sketch import heavy_hitters
    ev = read_table(f"{sf_dir}/events.parquet", columns=["event_type"])
    return heavy_hitters(ev, "event_type", k=5)


def _q_sketch_quantile(sf_dir: str):
    """Mergeable compaction quantile sketch over event values — one
    sketch row per batch, kilobyte reduce; approximate by design
    (rows-only; tolerance vs exact_quantiles in pytest)."""
    from kgx.sources.pages import read_table
    from kgx.ops.sketch import quantile_sketch
    ev = read_table(f"{sf_dir}/events.parquet", columns=["value"])
    return quantile_sketch(ev, "value")


def _q_rel_pricing(sf_dir: str):
    from kgx.ops.relational import pricing_summary
    return pricing_summary(sf_dir)


def _q_rel_top_customers(sf_dir: str):
    from kgx.ops.relational import top_customers
    return top_customers(sf_dir, n=10)


def _q_rel_distinct(sf_dir: str):
    from kgx.ops.relational import distinct_pairs
    return distinct_pairs(sf_dir, "lineitem", ["l_returnflag", "l_linestatus"])


def _q_rel_order_counts(sf_dir: str):
    from kgx.ops.relational import order_priority_counts
    return order_priority_counts(sf_dir)


def _q_multimodal_stats(sf_dir: str):
    from kgx.ops.multimodal import docs_as_media, media_stats_batch
    return docs_as_media(sf_dir).map_batches(
        media_stats_batch, batch_format="pyarrow", batch_size=64)


def _q_multimodal_decode(sf_dir: str):
    from kgx.ops.multimodal import ImageDecodeStage, docs_as_media
    return docs_as_media(sf_dir).map_batches(
        ImageDecodeStage, batch_format="pyarrow", batch_size=64,
        concurrency=(1, 4), fn_constructor_kwargs={"fake": True})


def _q_kg_synth_nodes(sf_dir: str):
    """Gazetteer KG pipeline over the deterministic synthetic pages corpus
    (the sandbox stand-in for Common-Crawl shards); sf_dir is unused.
    Rows-only check — the corpus is not a driver view."""
    from kgx.sources.pages import read_table
    from kgx.pipelines.kg import make_chunk_batch_fn, extract_text_batch
    from kgx.stages.extract import GazetteerExtractor, make_task_extractor
    from kgx.synth import write_pages
    pages_dir = write_pages("/tmp/kgx_entry_synth", 300, seed=11)
    ds = read_table(pages_dir, columns=["url", "html", "text", "lang"])
    ds = ds.map_batches(extract_text_batch, batch_format="pyarrow")
    ds = ds.map_batches(make_chunk_batch_fn(200, 50), batch_format="pyarrow")
    ds = ds.map_batches(make_task_extractor(GazetteerExtractor),
                        batch_format="pyarrow")
    return _nodes_from_extracted(
        ds, ["entity_id", "name", "type", "n_instances"])


def _docs_graph(sf_dir: str) -> dict:
    from kgx.pipelines.docs_kg import kg_arrow_tables
    return kg_arrow_tables(sf_dir)


def _q_kg_communities(sf_dir: str):
    """Louvain hierarchy over the canonical term graph -> membership
    table.  Iterative graph algorithm — rows-only check."""
    from kgx.stages.community import community_assignments, detect_communities
    t = _docs_graph(sf_dir)
    hier = detect_communities(t["nodes"], t["edges"], seed=42)
    return community_assignments(hier)


def _q_kg_community_invariants(sf_dir: str):
    """EXACT driver gate for the community hierarchy's checkable
    invariants (O5/O6): Louvain's partition itself is not
    SQL-expressible, but these are —
      * C0 covers every canonical node exactly once
        (n_members == the kg_nodes count),
      * every graph edge is accounted for by the partition
        (sum internal + cross/2 == the kg_edges pair count),
      * min-size enforcement holds (min C0 size clamped at the
        configured floor — a size-2 community would emit 2 != 3),
      * the stored flow / description_length values match an
        INDEPENDENT recomputation from the edges table (set arithmetic
        here vs networkx inside the stage), 6-dp rounded,
      * every deeper-level community is a subset of its parent.
    The oracle recomputes the node/edge counts from documents and pins
    the violation counters at zero."""
    import math

    import pyarrow as pa

    from kgx.stages.community import detect_communities

    t = _docs_graph(sf_dir)
    hier = detect_communities(t["nodes"], t["edges"], seed=42)
    min_size = 3                                   # detect default (O5)

    all_nodes = t["nodes"]["entity_id"].to_pylist()
    pairs = set(zip(t["edges"]["subj_id"].to_pylist(),
                    t["edges"]["obj_id"].to_pylist()))
    adj: dict = {n: set() for n in all_nodes}
    for s, o in pairs:
        adj[s].add(o)
        adj[o].add(s)

    c0 = hier["C0"]["communities"]
    n_members = sum(c["size"] for c in c0.values())
    sum_internal = sum_external = 0
    flow_bad = dl_bad = 0
    for c in c0.values():
        members = set(c["nodes"])
        internal = sum(1 for s, o in pairs
                       if s in members and o in members)
        external = sum(1 for n in members
                       for nb in adj[n] if nb not in members)
        sum_internal += internal
        sum_external += external
        if len(members) <= 1 or internal + external == 0:
            flow, dl = 0.0, 0.0
        else:
            flow = internal / (internal + external)
            pe = external / (internal + external)
            dl = -sum(p * math.log2(p) for p in (flow, pe) if p > 0)
        if round(c["flow"], 6) != round(flow, 6):
            flow_bad += 1
        if round(c["description_length"], 6) != round(dl, 6):
            dl_bad += 1
    orphans = 0
    for key, lvl in hier.items():
        if lvl["level"] == 0:
            continue
        parent_level = hier[f"C{lvl['level'] - 1}"]["communities"]
        for c in lvl["communities"].values():
            par = parent_level.get(str(c.get("parent")))
            if par is None or not set(c["nodes"]) <= set(par["nodes"]):
                orphans += 1
    return pa.table({
        "level": pa.array([0], pa.int32()),
        "n_members": pa.array([n_members], pa.int64()),
        "n_edges_accounted": pa.array(
            [(2 * sum_internal + sum_external) // 2], pa.int64()),
        "min_size_clamped": pa.array(
            [min(min_size, min(c["size"] for c in c0.values()))],
            pa.int64()),
        "n_flow_mismatch": pa.array([flow_bad], pa.int64()),
        "n_dl_mismatch": pa.array([dl_bad], pa.int64()),
        "n_hierarchy_orphans": pa.array([orphans], pa.int64()),
    })


def _q_kg_summaries(sf_dir: str):
    """Deterministic extractive community reports — rows-only check."""
    import pyarrow as pa
    from kgx.stages.community import detect_communities
    from kgx.stages.summarize import summarize_hierarchy
    t = _docs_graph(sf_dir)
    hier = detect_communities(t["nodes"], t["edges"], seed=42)
    summaries = summarize_hierarchy(hier, t["nodes"], t["edges"])
    cids = sorted(summaries)
    return pa.table({
        "community_id": pa.array(cids, pa.string()),
        "level": pa.array([summaries[c]["level"] for c in cids], pa.int32()),
        "title": pa.array([summaries[c]["title"] for c in cids], pa.string()),
        "rating": pa.array([summaries[c]["rating"] for c in cids],
                           pa.float64()),
        "n_findings": pa.array([len(summaries[c]["findings"]) for c in cids],
                               pa.int64()),
    })


def _q_kg_answer(sf_dir: str):
    """Full query path (rank -> map -> reduce) over the summarized term
    graph — rows-only check."""
    import pyarrow as pa
    from kgx.pipelines.query import answer_question
    from kgx.stages.community import detect_communities
    from kgx.stages.summarize import summarize_hierarchy
    t = _docs_graph(sf_dir)
    hier = detect_communities(t["nodes"], t["edges"], seed=42)
    summaries = summarize_hierarchy(hier, t["nodes"], t["edges"])
    ans = answer_question("Which terms co-occur most strongly?", summaries)
    return pa.table({
        "question": pa.array([ans["question"]], pa.string()),
        "n_topics": pa.array([len(ans["topics"])], pa.int64()),
        "n_used_communities": pa.array([len(ans["used_communities"])],
                                       pa.int64()),
        "answer_chars": pa.array([len(ans["answer"])], pa.int64()),
    })


def _q_vector_rag(sf_dir: str):
    """VectorRAG baseline retrieval: hash-embedded chunks, per-question
    block top-k + merge.  Deterministic but hash-embedding-based —
    rows-only check."""
    from kgx.baselines.vector_rag import retrieve_topk
    from kgx.pipelines.docs_kg import chunk_documents
    chunks = chunk_documents(sf_dir).select_columns(["chunk_id", "text"])
    qs = ["what is the meaning of data processing",
          "which documents mention pipelines"]
    return retrieve_topk(chunks, qs, k=5).select_columns(
        ["question_idx", "chunk_id", "score", "rank"])


def _q_multimodal_frames(sf_dir: str):
    """Frame-sampling plumbing over media-shaped rows (deterministic fake
    decode; 1->N expansion) — md5-derived durations, exact oracle."""
    from kgx.ops.multimodal import FrameSampleStage, docs_as_media
    return docs_as_media(sf_dir).map_batches(
        FrameSampleStage, batch_format="pyarrow", batch_size=64,
        concurrency=(1, 4), fn_constructor_kwargs={"n_frames": 2}
    ).select_columns(["media_id", "frame_index", "frame_ts_ms"])


def _q_events_ordered(sf_dir: str):
    """Per-user ordered window functions (row_number / lag / running sum
    in integer cents) — one groupby(user) shuffle, vectorized in-group
    kernel (kgx/ops/sequence.py)."""
    from kgx.sources.pages import read_table
    from kgx.ops.sequence import ordered_window
    ev = read_table(f"{sf_dir}/events.parquet",
                         columns=["event_id", "ts", "user_id", "value"])
    return ordered_window(ev)


def _q_events_histogram(sf_dir: str):
    """Fixed-width value histogram: map-side per-bin partials, one
    narrow bin-key shuffle (kgx/ops/quantile.py:value_histogram)."""
    from kgx.sources.pages import read_table
    from kgx.ops.quantile import value_histogram
    ev = read_table(f"{sf_dir}/events.parquet", columns=["value"])
    return value_histogram(ev, "value", width=25.0)


def _q_events_retention(sf_dir: str):
    """Cohort retention matrix (kgx/ops/window.py:cohort_retention):
    in-batch (user, day) distinct -> per-user offset emission -> partial
    counts; the event payload never shuffles."""
    from kgx.sources.pages import read_table
    from kgx.ops.window import cohort_retention
    ev = read_table(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts"])
    return cohort_retention(ev)


def _q_events_json(sf_dir: str):
    """Semi-structured extraction: integer field out of the JSON props
    payload (vectorized polars json_path_match) + exact per-type
    aggregate incl. distinct values (kgx/ops/sequence.py:
    json_field_stats)."""
    from kgx.sources.pages import read_table
    from kgx.ops.sequence import json_field_stats
    ev = read_table(f"{sf_dir}/events.parquet",
                         columns=["event_type", "props"])
    return json_field_stats(ev)


def _q_events_stream(sf_dir: str):
    """Watermarked STREAMING tumbling windows driven over time-ordered
    arrival (kgx/ops/streaming.py) — bounded state, watermark eviction;
    equals the distributed batch aggregate when nothing violates the
    lateness bound, so the oracle is the events_window SQL."""
    from kgx.ops.streaming import stream_tumbling
    from kgx.sources.pages import read_table
    ev = read_table(f"{sf_dir}/events.parquet",
                         columns=["ts", "event_type", "value"])
    return stream_tumbling(ev, width_s=3600)


def _q_events_stream_sharded(sf_dir: str):
    """PARALLEL stream hosting: the event stream key-hash-partitions
    into 8 shards and groupby(shard).map_groups hosts one independent
    TumblingWindowStream per shard (kgx/ops/streaming.py:
    stream_sharded).  Each (window, key) lives on exactly one shard, so
    the union equals the batch aggregate — same SQL oracle as
    events_stream/events_window."""
    from kgx.sources.pages import read_table
    from kgx.ops.streaming import stream_sharded
    ev = read_table(f"{sf_dir}/events.parquet",
                         columns=["ts", "event_type", "value"])
    return stream_sharded(ev, width_s=3600)


def _q_events_zscore(sf_dir: str):
    """Per-type z-score anomaly flags: one moment-partial pass, broadcast
    (mean, std) map, map-side verdict (kgx/ops/window.py:zscore_flags)."""
    from kgx.sources.pages import read_table
    from kgx.ops.window import zscore_flags
    ev = read_table(f"{sf_dir}/events.parquet",
                         columns=["event_id", "event_type", "value"])
    return zscore_flags(ev)


def _q_events_funnel(sf_dir: str):
    """Min-chain funnel view -> click -> purchase per user: non-step
    events die map-side, one narrow groupby(user) shuffle, numpy chain
    per group (kgx/ops/sequence.py:funnel_steps)."""
    from kgx.sources.pages import read_table
    from kgx.ops.sequence import funnel_steps
    ev = read_table(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts", "event_type"])
    return funnel_steps(ev, steps=("view", "click", "purchase"))


def _q_rel_topn(sf_dir: str):
    """Top-3 orders per customer by price: map-side per-key top-n
    combiner, the shuffle moves <= 3 rows per (customer, block)."""
    from kgx.sources.pages import read_table
    from kgx.ops.sequence import topn_per_key
    orders = read_table(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderkey", "o_totalprice"])
    return topn_per_key(orders, key="o_custkey", order_col="o_totalprice",
                        id_col="o_orderkey", n=3)


def _q_rel_semijoin(sf_dir: str):
    """Bloom-prefiltered exact semi-join (kgx/ops/joins.py): lineitems of
    URGENT orders, aggregated per (returnflag, linestatus) — non-matching
    lineitems die map-side at the Bloom bitmap before any shuffle."""
    import pyarrow as pa
    from kgx.functions.fold import aggregate_by
    from kgx.sources.pages import read_table
    from kgx.ops.joins import bloom_semijoin

    def urgent(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return b.filter(pc.equal(b["o_orderpriority"], "1-URGENT"))

    orders = read_table(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderpriority"]
    ).map_batches(urgent, batch_format="pyarrow")
    items = read_table(f"{sf_dir}/lineitem.parquet",
                            columns=["l_orderkey", "l_returnflag",
                                     "l_linestatus", "l_quantity"])
    matched = bloom_semijoin(items, orders, probe_on="l_orderkey",
                             build_on="o_orderkey")

    def project(b: pa.Table) -> pa.Table:
        from kgx.ops.relational import _cents
        return pa.table({
            "l_returnflag": b["l_returnflag"],
            "l_linestatus": b["l_linestatus"],
            "n_items": pa.array([1] * b.num_rows, pa.int64()),
            "sum_qty_cents": _cents(b["l_quantity"]),
        })

    return aggregate_by(matched.map_batches(project, batch_format="pyarrow"),
                        ["l_returnflag", "l_linestatus"],
                        {"n_items": "sum", "sum_qty_cents": "sum"})


def _q_rel_shipping(sf_dir: str):
    """TPC-H Q3-shaped three-way join (customer broadcast semi-join ->
    lineitem map-side revenue partials -> one orderkey co-shuffle),
    top-10 orders by post-cutoff revenue (kgx/ops/relational.py)."""
    from kgx.ops.relational import shipping_priority
    return shipping_priority(sf_dir, segment="BUILDING",
                             cutoff="1998-06-01", n=10)


def _q_rel_pivot(sf_dir: str):
    """PIVOT orders: one row per status, one count column per priority
    (map-side pivoted partials; kgx/ops/relational.py)."""
    from kgx.ops.relational import priority_pivot
    return priority_pivot(sf_dir)


def _q_rel_forecast(sf_dir: str):
    """TPC-H Q6-shaped filter-aggregate: pruned 4-column read, map-side
    partial sums, single-row exact integer result — no wide shuffle
    (kgx/ops/relational.py:forecast_revenue)."""
    from kgx.ops.relational import forecast_revenue
    return forecast_revenue(sf_dir)


def _q_rel_big_orders(sf_dir: str):
    """TPC-H Q18-shaped large-volume orders: narrow per-order partial
    quantity shuffle, rare-survivor broadcast semi-join back onto
    orders, broadcast customer names, global top-100
    (kgx/ops/relational.py:big_orders)."""
    from kgx.ops.relational import big_orders
    return big_orders(sf_dir)


def _q_rel_regional(sf_dir: str):
    """TPC-H Q5-shaped regional revenue: fact tables co-shuffle via the
    general hash equi-join, all dimension lookups broadcast + vectorized
    index_in (kgx/ops/relational.py:regional_revenue)."""
    from kgx.ops.relational import regional_revenue
    return regional_revenue(sf_dir)


def _q_rel_promo(sf_dir: str):
    """TPC-H Q14-shaped promo revenue share: part dimension broadcast,
    one streamed lineitem pass, exact integer ppm ratio
    (kgx/ops/relational.py:promo_revenue)."""
    from kgx.ops.relational import promo_revenue
    return promo_revenue(sf_dir)


def _q_rel_exists(sf_dir: str):
    """TPC-H Q4-shaped EXISTS count per priority, composed from the
    Bloom-prefiltered semi-join (kgx/ops/relational.py:priority_exists)."""
    from kgx.ops.relational import priority_exists
    return priority_exists(sf_dir)


def _q_rel_outerjoin(sf_dir: str):
    """FULL OUTER co-shuffle join: big-spender order counts vs low-
    balance customers — rows survive from either side with nulls on the
    other (kgx/ops/joins.py:hash_equijoin how='outer')."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from kgx.functions.fold import aggregate_by
    from kgx.sources.pages import read_table
    from kgx.ops.joins import hash_equijoin

    def big(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.greater(batch["o_totalprice"], 300000.0))
        return pa.table({"custkey": b["o_custkey"],
                         "n_big": pa.array([1] * b.num_rows, pa.int64())})

    left = aggregate_by(read_table(f"{sf_dir}/orders.parquet",
                                   columns=["o_custkey", "o_totalprice"])
                        .map_batches(big, batch_format="pyarrow"),
                        "custkey", {"n_big": "sum"})

    def low_bal(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.less(batch["c_acctbal"], 1000.0))
        from kgx.ops.relational import _cents
        return pa.table({"c_custkey": b["c_custkey"],
                         "acctbal_cents": _cents(b["c_acctbal"])})

    right = read_table(f"{sf_dir}/customer.parquet",
                            columns=["c_custkey", "c_acctbal"]) \
        .map_batches(low_bal, batch_format="pyarrow")
    return hash_equijoin(left, right, left_on="custkey",
                         right_on="c_custkey", how="outer")


def _q_rel_rollup(sf_dir: str):
    """GROUP BY ROLLUP over lineitem: one keyed sum for the finest
    level, super-aggregates re-aggregate its <= 6 rows."""
    from kgx.ops.relational import pricing_rollup
    return pricing_rollup(sf_dir)


def _q_text_pii(sf_dir: str):
    """PII scrub (emails / IPv4 / phones -> tokens, map-only RE2 kernels).
    The corpus itself carries no PII, so the query first appends a
    deterministic doc_id-derived contact line (identical expression on
    the SQL side) so the redaction paths are actually exercised."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from kgx.sources.pages import read_table
    from kgx.ops.pii import scrub_pii

    def augment(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].combine_chunks().cast(pa.int64())
        s = lambda m: pc.cast(_pc_mod(d, m), pa.string())  # noqa: E731
        aug = pc.binary_join_element_wise(
            batch["text"].combine_chunks(), pa.scalar(" contact u"),
            pc.cast(d, pa.string()), pa.scalar("@ex"), s(7),
            pa.scalar(".org at 10.0."), s(251), pa.scalar("."), s(97),
            pa.scalar(" tel 415-555-"),
            pc.utf8_lpad(s(10000), 4, "0"), "")
        return pa.table({"doc_id": d, "text": aug})

    def _pc_mod(col, m):
        return pc.subtract(col, pc.multiply(pc.divide(col, m),
                                            pa.scalar(m, pa.int64())))

    docs = read_table(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    return scrub_pii(docs.map_batches(augment, batch_format="pyarrow"))


def _q_text_logprob(sf_dir: str):
    """Unigram LM quality proxy: corpus token counts broadcast, per-doc
    mean token logprob in integer micro units (kgx/ops/vocab.py)."""
    from kgx.sources.pages import read_table
    from kgx.ops.vocab import unigram_logprob
    docs = read_table(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    return unigram_logprob(docs)


def _q_events_quantile_by_type(sf_dir: str):
    """Exact per-type value quantiles (integer cents): one narrow
    (key, cents) shuffle + in-group sort (kgx/ops/quantile.py)."""
    from kgx.sources.pages import read_table
    from kgx.ops.quantile import grouped_quantiles
    ev = read_table(f"{sf_dir}/events.parquet",
                         columns=["event_type", "value"])
    return grouped_quantiles(ev, key="event_type", value_col="value")


def _q_text_repetition(sf_dir: str):
    """Gopher-style repetition features (top bigram / trigram fraction in
    exact integer ppm) — map-only (kgx/ops/text.py:repetition_batch)."""
    from kgx.sources.pages import read_table
    from kgx.ops.text import repetition_batch
    docs = read_table(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    return docs.map_batches(repetition_batch, batch_format="pyarrow")


# Source-mixture weights shared verbatim with the text_mix oracle SQL.
_MIX_WEIGHTS_PPM = {"src0": 250_000, "src1": 250_000,
                    "src2": 500_000, "src3": 750_000}
_MIX_DEFAULT_PPM = 900_000


def _q_text_mix(sf_dir: str):
    """Deterministic source-weighted mixture sampling (16-bit md5 bucket
    vs per-source ppm cutoff) — kgx/ops/sampling.py:mix_sources."""
    from kgx.sources.pages import read_table
    from kgx.ops.sampling import mix_sources
    docs = read_table(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "source"])
    return mix_sources(docs, weights_ppm=_MIX_WEIGHTS_PPM,
                       default_ppm=_MIX_DEFAULT_PPM)


def _q_dedup_lines(sf_dir: str):
    """CCNet-style corpus-wide segment dedup: narrow (md5, doc, seg)
    shuffle finds winners; losers broadcast; docs rebuilt map-side
    (kgx/ops/linededup.py)."""
    from kgx.sources.pages import read_table
    from kgx.ops.linededup import segment_dedup
    docs = read_table(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    return segment_dedup(docs, seg_tokens=10)


def _q_kg_update_parity(sf_dir: str):
    """Incremental-ingest parity (the engine's flagship beyond-reference
    feature, kgx/pipelines/kg.py:update_pipeline): documents split into
    two deterministic shards by doc_id parity; shard A is built from
    scratch (run_pipeline), shard B arrives later (update_pipeline) and
    only IT is extracted — finalization re-shuffles the union of the
    checkpointed extraction states.  The oracle is the from-scratch
    kg_nodes SQL over the WHOLE documents table: green means the
    incremental chain is exactly a clean build of the union."""
    import os
    import shutil
    import tempfile

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from kgx.pipelines.kg import KGConfig, run_pipeline, update_pipeline
    from kgx.sources.pages import pages_from_documents

    docs = pq.read_table(f"{sf_dir}/documents.parquet")
    odd = pc.cast(pc.bit_wise_and(docs["doc_id"], 1), pa.bool_())
    root = tempfile.mkdtemp(prefix="kgx_upd_")
    try:
        a = os.path.join(root, "a")
        b = os.path.join(root, "b")
        os.makedirs(a)
        os.makedirs(b)
        a_file = os.path.join(a, "part.parquet")
        b_file = os.path.join(b, "part.parquet")
        pq.write_table(docs.filter(pc.invert(odd)), a_file)
        pq.write_table(docs.filter(odd), b_file)
        out = os.path.join(root, "out")
        cfg = KGConfig(extractor="term")
        run_pipeline(a, out, cfg,
                     pages_ds_factory=lambda: pages_from_documents(a_file))
        p = update_pipeline(b, out, cfg,
                            pages_ds_factory=lambda:
                            pages_from_documents(b_file))
        return pq.read_table(p["nodes"],
                             columns=["name", "type", "n_instances"])
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _q_kg_update_supersede(sf_dir: str):
    """Incremental recrawl supersede (newest-snapshot-wins): shard A is
    every doc at warc_ts=1; shard B re-crawls the ODD docs at warc_ts=2
    with changed text (one appended term).  update_pipeline with
    supersede_recrawls must retract the odd docs' OLD extracted rows, so
    the nodes equal a from-scratch build over each url's latest
    snapshot — which the oracle expresses directly over documents."""
    import os
    import shutil
    import tempfile

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from kgx.pipelines.kg import KGConfig, run_pipeline, update_pipeline

    docs = pq.read_table(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text", "lang"])
    odd = pc.cast(pc.bit_wise_and(docs["doc_id"], 1), pa.bool_())

    def pages(tbl: pa.Table, ts_us: int, suffix: str) -> pa.Table:
        n = tbl.num_rows
        return pa.table({
            "url": pa.array([f"doc://{d}"
                             for d in tbl["doc_id"].to_pylist()],
                            pa.string()),
            "warc_ts": pa.array([ts_us] * n, pa.timestamp("us")),
            "html": pa.array([None] * n, pa.binary()),
            "text": pa.array([t + suffix
                              for t in tbl["text"].to_pylist()],
                             pa.string()),
            "lang": tbl["lang"].combine_chunks(),
        })

    root = tempfile.mkdtemp(prefix="kgx_sup_")
    try:
        a = os.path.join(root, "a")
        b = os.path.join(root, "b")
        os.makedirs(a)
        os.makedirs(b)
        pq.write_table(pages(docs, 1_000_000, ""),
                       os.path.join(a, "part.parquet"))
        pq.write_table(pages(docs.filter(odd), 2_000_000,
                             " freshlyrecrawled"),
                       os.path.join(b, "part.parquet"))
        out = os.path.join(root, "out")
        cfg = KGConfig(extractor="term", supersede_recrawls=True)
        run_pipeline(a, out, cfg)
        p = update_pipeline(b, out, cfg)
        return pq.read_table(p["nodes"],
                             columns=["name", "type", "n_instances"])
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _nodes_from_extracted(extracted, columns=("name", "type", "n_instances")):
    """kg_nodes tail shared by every nodes query over an extraction
    Dataset: per-key combine -> one canonicalization fold (which
    materializes and sizes its own input, kgx.functions.fold) -> oracle
    projection."""
    from kgx.stages.states import (make_combine_extracted_fn,
                                   nodes_from_states)

    states = extracted.map_batches(
        make_combine_extracted_fn(cap=200, min_strength=0.5),
        batch_format="pyarrow", batch_size=None)
    return nodes_from_states(states, cap=200).select_columns(list(columns))


def _llm_extraction(**extractor_kwargs) -> dict:
    """Keyword arguments that route ``extract_documents`` or
    ``claims_table`` through the production LLMExtractor actor pool,
    sized to the cluster: (1, ncpu - 2) actors, at least 2, which
    leaves CPUs for the fused read tasks."""
    import ray

    from kgx.stages.extract import LLMExtractor

    ncpu = int(ray.cluster_resources().get("CPU", 4))
    return {"extractor": LLMExtractor, "extractor_kwargs": extractor_kwargs,
            "concurrency": (1, max(2, ncpu - 2))}


def _q_kg_nodes_llm(sf_dir: str):
    """Nodes via the PRODUCTION LLM extraction path (SURVEY §2.3 T1):
    actor-pool LLMExtractor, bounded thread fan-out, retry client and
    JSON parsing all live — with the deterministic term-emulating
    transport (kgx/functions/fake_llm.py), so the same kg_nodes DuckDB
    oracle gates the whole path, not just the parsers' pytest."""
    from kgx.functions.fake_llm import TermEmulatingTransport
    from kgx.pipelines.docs_kg import extract_documents

    return _nodes_from_extracted(extract_documents(
        sf_dir, **_llm_extraction(transport=TermEmulatingTransport(),
                                  extract_claims=False)))


def _q_kg_claims_llm(sf_dir: str):
    """Claim dedup/resolution (O4/J2) through the PRODUCTION LLM path:
    actor-pool LLMExtractor runs BOTH prompts per chunk (entity pass,
    then claim pass over the same chunk's entity names — the reference's
    two-pass flow) with the deterministic claim-emulating transport, so
    the same kg_claims DuckDB oracle gates the full claim path."""
    from kgx.functions.fake_llm import ClaimEmulatingTransport
    from kgx.pipelines.docs_kg import claims_table

    return _claims_rows(claims_table(
        sf_dir, **_llm_extraction(transport=ClaimEmulatingTransport())))


# Fault-injection knobs shared by the faulty queries AND their SQL
# twins: the poison predicate is md5('{seed}:poison:' + chunk_text)
# low-64 % 1e6 < poison_ppm, computable on both sides.
_FAULT_SEED = 7
_FAULT_POISON_PPM = 30_000
_FAULT_KW = dict(seed=_FAULT_SEED, poison_ppm=_FAULT_POISON_PPM,
                 transient_ppm=200_000, malformed_ppm=200_000,
                 transient_fails=2)


_FAULTY_EXTRACTED_CACHE: dict[tuple, object] = {}


def _faulty_extracted(sf_dir: str):
    """Tagged extraction Dataset through the PRODUCTION LLM path under
    injected faults (kgx/functions/fake_llm.py:FaultInjectingTransport):
    seeded transient timeouts (recovered by LLMClient backoff), seeded
    malformed JSON (recovered by the temperature-0 parse retry), and
    seeded permanently-poisoned chunks (quarantined as kind="error"
    rows — never silently dropped).

    Memoized per (Ray session, sf_dir) like docs_kg._KG_TABLES_CACHE:
    kg_nodes_llm_faulty and kg_llm_quarantine share one extraction run
    (the most expensive gate stage — every poisoned chunk costs 5
    transport attempts) instead of re-running it each."""
    import os

    import ray

    from kgx.functions.fake_llm import FaultInjectingTransport
    from kgx.pipelines.docs_kg import extract_documents

    job = (ray.get_runtime_context().get_job_id()
           if ray.is_initialized() else None)
    key = (job, os.path.abspath(sf_dir), _FAULT_SEED, _FAULT_POISON_PPM)
    hit = _FAULTY_EXTRACTED_CACHE.get(key)
    if hit is not None:
        return hit
    out = extract_documents(sf_dir, **_llm_extraction(
        transport=FaultInjectingTransport(**_FAULT_KW),
        extract_claims=False,
        # injectable no-op sleep: the backoff LOGIC runs, the test box
        # doesn't wait 2^n seconds
        client_kwargs={"sleep": lambda _s: None})).materialize()
    _FAULTY_EXTRACTED_CACHE[key] = out
    return out


def _q_kg_nodes_llm_faulty(sf_dir: str):
    """kg_nodes through the LLM path under injected faults: transient
    and malformed faults must recover to the fault-free tables exactly;
    poisoned chunks drop out via quarantine, and the oracle excludes
    exactly those chunks with the same md5 poison predicate."""
    return _nodes_from_extracted(_faulty_extracted(sf_dir))


def _q_kg_llm_quarantine(sf_dir: str):
    """The quarantine sidecar count under injected faults: one row
    (n_quarantined) counting kind="error" rows — exactly the poisoned
    chunks, gated by the SQL twin of the poison predicate."""
    import pyarrow as pa
    import pyarrow.compute as pc

    extracted = _faulty_extracted(sf_dir)

    def count_errors(t: pa.Table) -> pa.Table:
        n = t.filter(pc.equal(t["kind"], "error")).num_rows
        return pa.table({"n": pa.array([n], pa.int64())})

    from ray.data.aggregate import Sum
    total = (extracted.map_batches(count_errors, batch_format="pyarrow")
             .aggregate(Sum("n")))
    return pa.table({"n_quarantined": pa.array(
        [int(total["sum(n)"] or 0)], pa.int64())})


def _q_kg_nodes_pipe(sf_dir: str):
    """Nodes via the LLM path in the reference's richer PIPE-record
    prompt format (M3 pipe family: pipe_entity_extraction ->
    parse_pipe_extraction, falling back to the line format on empty
    parses) — same kg_nodes oracle, so the pipe grammar round-trips
    end-to-end, not just in parser pytest."""
    from kgx.functions.fake_llm import PipeTermTransport
    from kgx.pipelines.docs_kg import extract_documents

    return _nodes_from_extracted(extract_documents(
        sf_dir, **_llm_extraction(transport=PipeTermTransport(),
                                  prompt_format="pipe",
                                  extract_claims=False)))


def _q_kg_claims_pipe(sf_dir: str):
    """Claims via the pipe-record prompt family (M6 pipe twin:
    pipe_claim_extraction -> parse_pipe_claims), gated by the same
    kg_claims oracle."""
    from kgx.functions.fake_llm import PipeTermTransport
    from kgx.pipelines.docs_kg import claims_table

    return _claims_rows(claims_table(
        sf_dir, **_llm_extraction(transport=PipeTermTransport(),
                                  prompt_format="pipe")))


def queries() -> dict[str, Callable[[str], Any]]:
    # ORDERING CONTRACT: the driver's correctness gate samples the FIRST
    # 50 entries in dict order, so the head is curated per round —
    # (a) a small always-on sentinel set for the core KG path,
    # (b) queries NEW in round 5 plus every entry that has NEVER had a
    #     driver row (they sat at position 51+ in earlier rounds; all
    #     PASS the local tools/oracle_check.py gate — this rotation
    #     makes that driver-visible),
    # (c) queries whose IMPLEMENTATIONS were reshaped in round 5 —
    #     re-gated under the driver, then
    # (d) the least-recently driver-gated entries (round-2 rows).
    # Position 51+ holds previously driver-checked, untouched entries,
    # ordered oldest-gate-first so the next rotation is mechanical.
    return {
        # (a) sentinels — always driver-checked
        "kg_nodes": _q_kg_nodes,
        "kg_edges": _q_kg_edges,
        "text_curate": _q_text_curate,
        # (b) NEW in round 5: fault-injected LLM path + the
        #     text_bpe rows-only->exact conversion, then every
        #     query that has NEVER had a driver row (added late
        #     in round 4, position 51+ last round; all PASS the
        #     local tools/oracle_check.py gate)
        "kg_nodes_llm_faulty": _q_kg_nodes_llm_faulty,
        "kg_llm_quarantine": _q_kg_llm_quarantine,
        "text_bpe": _q_text_bpe,
        "events_mode": _q_events_mode,
        "events_firstlast": _q_events_firstlast,
        "events_dcount": _q_events_dcount,
        "events_lag": _q_events_lag,
        "rel_intersect": _q_rel_intersect,
        "recall_ivf": _q_recall_ivf,
        "recall_pq": _q_recall_pq,
        "rel_unpivot": _q_rel_unpivot,
        "export_jsonl": _q_export_jsonl,
        # (c) implementations RESHAPED in round 5 — re-gated
        #     under the driver (supersede co-shuffle, fpindex
        #     persistence, LLM quarantine default, window null
        #     guards + key-type fix, nation_profit inner-join)
        "kg_update_supersede": _q_kg_update_supersede,
        "kg_update_parity": _q_kg_update_parity,
        "kg_nodes_llm": _q_kg_nodes_llm,
        "events_moving": _q_events_moving,
        "rel_profit": _q_rel_profit,
        # (d) least-recently driver-gated: rotated-in round-2
        #     rows (oldest 30 of 47; the rest follow position
        #     50 and stay covered by the committed local
        #     transcript)
        "dedup_minhash": _q_dedup_minhash,
        "dedup_simhash": _q_dedup_simhash,
        "kg_claims": _q_kg_claims,
        "dedup_jaccard": _q_dedup_jaccard,
        "kg_chunks": _q_kg_chunks,
        "kg_chunks_win": _q_kg_chunks_win,
        "kg_mentions": _q_kg_mentions,
        "kg_synth_nodes": _q_kg_synth_nodes,
        "kg_communities": _q_kg_communities,
        "kg_summaries": _q_kg_summaries,
        "kg_answer": _q_kg_answer,
        "kg_pagerank": _q_kg_pagerank,
        "kg_triangles": _q_kg_triangles,
        "kg_lcc": _q_kg_lcc,
        "kg_wcc": _q_kg_wcc,
        "kg_kcore": _q_kg_kcore,
        "kg_neighbor_jaccard": _q_kg_neighbor_jaccard,
        "kg_khop": _q_kg_khop,
        "kg_lift": _q_kg_lift,
        "kg_degree_hist": _q_kg_degree_hist,
        "kg_stats": _q_kg_stats,
        "dedup_exact": _q_dedup_exact,
        "dedup_embedding": _q_dedup_embedding,
        "dedup_components": _q_dedup_components,
        "dedup_lines": _q_dedup_lines,
        "text_tokens": _q_text_tokens,
        "text_quality": _q_text_quality,
        "text_lang": _q_text_lang,
        "text_fingerprint": _q_text_fingerprint,
        "text_winnow": _q_text_winnow,
        # --- position 51+: previously driver-checked ---
        # remaining round-2 rows, then round-3, then round-4
        # (most recently gated last)
        "dedup_semantic": _q_dedup_semantic,
        "embed_kmeans": _q_embed_kmeans,
        "embed_labels": _q_embed_labels,
        "embed_sample": _q_embed_sample,
        "simsearch_knn": _q_simsearch_knn,
        "text_boilerplate": _q_text_boilerplate,
        "text_contaminate": _q_text_contaminate,
        "text_filter": _q_text_filter,
        "text_logprob": _q_text_logprob,
        "text_mix": _q_text_mix,
        "text_ngrams": _q_text_ngrams,
        "text_pack": _q_text_pack,
        "text_pii": _q_text_pii,
        "text_quality_gate": _q_text_quality_gate,
        "text_repetition": _q_text_repetition,
        "text_source_stats": _q_text_source_stats,
        "text_tfidf": _q_text_tfidf,
        "bm25_topk": _q_bm25_topk,
        "events_asof": _q_events_asof,
        "events_funnel": _q_events_funnel,
        "events_histogram": _q_events_histogram,
        "events_interval": _q_events_interval,
        "events_json": _q_events_json,
        "events_ordered": _q_events_ordered,
        "events_quantile": _q_events_quantile,
        "events_quantile_by_type": _q_events_quantile_by_type,
        "events_retention": _q_events_retention,
        "events_session": _q_events_session,
        "events_sliding": _q_events_sliding,
        "events_stream": _q_events_stream,
        "events_window": _q_events_window,
        "events_zscore": _q_events_zscore,
        "multimodal_decode": _q_multimodal_decode,
        "multimodal_frames": _q_multimodal_frames,
        "multimodal_stats": _q_multimodal_stats,
        "rel_antijoin": _q_rel_antijoin,
        "rel_big_orders": _q_rel_big_orders,
        "rel_distinct": _q_rel_distinct,
        "rel_exists": _q_rel_exists,
        "rel_forecast": _q_rel_forecast,
        "rel_join": _q_rel_join,
        "rel_order_counts": _q_rel_order_counts,
        "rel_outerjoin": _q_rel_outerjoin,
        "rel_pivot": _q_rel_pivot,
        "rel_pricing": _q_rel_pricing,
        "rel_promo": _q_rel_promo,
        "rel_regional": _q_rel_regional,
        "rel_rollup": _q_rel_rollup,
        "rel_semijoin": _q_rel_semijoin,
        "rel_shipping": _q_rel_shipping,
        "rel_top_customers": _q_rel_top_customers,
        "rel_topn": _q_rel_topn,
        "simsearch_ivf": _q_simsearch_ivf,
        "simsearch_topk": _q_simsearch_topk,
        "sketch_distinct": _q_sketch_distinct,
        "sketch_heavy": _q_sketch_heavy,
        "sketch_quantile": _q_sketch_quantile,
        "text_source_cap": _q_text_source_cap,
        "text_split": _q_text_split,
        "text_weighted_sample": _q_text_weighted_sample,
        "vector_rag_topk": _q_vector_rag,
        "dedup_fuzzy": _q_dedup_fuzzy,
        "embed_negatives": _q_embed_negatives,
        "embed_triplets": _q_embed_triplets,
        "events_corr": _q_events_corr,
        "events_rank": _q_events_rank,
        "events_streaks": _q_events_streaks,
        "events_stream_sharded": _q_events_stream_sharded,
        "events_throttle": _q_events_throttle,
        "kg_assortativity": _q_kg_assortativity,
        "kg_claims_llm": _q_kg_claims_llm,
        "kg_claims_pipe": _q_kg_claims_pipe,
        "kg_community_invariants": _q_kg_community_invariants,
        "kg_lpa": _q_kg_lpa,
        "kg_modularity": _q_kg_modularity,
        "kg_nodes_pipe": _q_kg_nodes_pipe,
        "kg_pagerank_weighted": _q_kg_pagerank_weighted,
        "kg_ppr": _q_kg_ppr,
        "multimodal_dedup": _q_multimodal_dedup,
        "recall_lsh": _q_recall_lsh,
        "recall_minhash": _q_recall_minhash,
        "rel_brand_rev": _q_rel_brand_rev,
        "rel_cube": _q_rel_cube,
        "rel_custdist": _q_rel_custdist,
        "rel_dominant": _q_rel_dominant,
        "rel_global_sales": _q_rel_global_sales,
        "rel_important": _q_rel_important,
        "rel_late_lines": _q_rel_late_lines,
        "rel_market_share": _q_rel_market_share,
        "rel_mincost": _q_rel_mincost,
        "rel_returns": _q_rel_returns,
        "rel_running": _q_rel_running,
        "rel_small_orders": _q_rel_small_orders,
        "rel_suppcnt": _q_rel_suppcnt,
        "rel_top_supplier": _q_rel_top_supplier,
        "rel_volume": _q_rel_volume,
        "rel_waiting": _q_rel_waiting,
        "simsearch_lsh": _q_simsearch_lsh,
        "simsearch_pq": _q_simsearch_pq,
        "sketch_cms": _q_sketch_cms,
        "sketch_distinct_by_type": _q_sketch_distinct_by_type,
        "text_dsir": _q_text_dsir,
        "text_perplexity": _q_text_perplexity,
        "text_span_dup": _q_text_span_dup,
        "text_wordfreq": _q_text_wordfreq,
    }


def oracle_sql() -> dict[str, str]:
    from kgx.ops.pii import EMAIL_RE as _EMAIL_RE
    from kgx.ops.pii import IPV4_RE as _IPV4_RE
    from kgx.ops.pii import PHONE_RE as _PHONE_RE
    # SQL that more than one entry shares
    nodes = _term_nodes()
    claims = f"""
            WITH {_CHUNK_TEXTS},
            g AS (
              SELECT min(ctext) AS content,
                     CAST(len(list_distinct(flatten(array_agg(
                       regexp_extract_all(ctext, '{_TERM_RE}')))))
                       AS BIGINT) AS n_entities,
                     count(*) AS n_instances
              FROM t GROUP BY lower(ctext))
            SELECT content, n_entities, n_instances
            FROM g WHERE n_entities >= 1
        """
    # the fault transport's per-chunk poison draw (ppm scale)
    poison = (_md5_u64(f"'{_FAULT_SEED}:poison:' || ctext")
              + " % 1000000")
    hourly = """
            SELECT make_timestamp((epoch_us(ts) // 3600000000) * 3600000000)
                     AS window_start,
                   event_type,
                   count(*) AS n_events,
                   round(sum(value), 2) AS sum_value,
                   min(value) AS min_value,
                   max(value) AS max_value
            FROM events GROUP BY 1, 2
        """
    lsh = _lsh_oracle()
    ivf = _ivf_oracle(n_q=8, k=10, n_cells=16, n_probe=4, train_mod=4,
                      iters=5)
    pq = _pq_oracle(n_q=8, k=10, m=16, k_sub=32, n_cells=16, n_probe=8,
                    train_mod=4, iters=5, refine=4)
    return {
        "kg_chunks": f"""
            WITH t AS (
              SELECT 'doc://' || doc_id AS url,
                     string_split_regex(trim(text), '\\s+') AS toks
              FROM documents WHERE trim(text) <> '')
            SELECT url, url || '_0' AS chunk_id, CAST(0 AS INT) AS chunk_index,
                   array_to_string(toks, ' ') AS text,
                   CAST(len(toks) AS INT) AS n_tokens
            FROM t
        """,
        "kg_chunks_win": """
            WITH t AS (
              SELECT 'doc://' || doc_id AS url,
                     string_split_regex(trim(text), '\\s+') AS toks
              FROM documents WHERE trim(text) <> ''),
            c AS (
              SELECT url, toks, len(toks) AS n,
                     CASE WHEN len(toks) <= 32 THEN 1
                          ELSE 1 + CAST(ceil((len(toks) - 32) / 24.0) AS INT)
                     END AS n_chunks
              FROM t),
            e AS (
              SELECT url, toks, unnest(generate_series(0, n_chunks - 1)) AS i
              FROM c)
            SELECT url, url || '_' || i AS chunk_id, CAST(i AS INT) AS chunk_index,
                   array_to_string(toks[i*24 + 1 : i*24 + 32], ' ') AS text,
                   CAST(len(toks[i*24 + 1 : i*24 + 32]) AS INT) AS n_tokens
            FROM e
        """,
        "kg_mentions": f"""
            WITH t AS (
              SELECT 'doc://' || doc_id AS url,
                     'doc://' || doc_id || '_0' AS chunk_id,
                     regexp_extract_all(text, '{_TERM_RE}') AS terms
              FROM documents)
            SELECT url, chunk_id, unnest(terms) AS mention, 'TERM' AS type
            FROM t
        """,
        "kg_nodes": nodes,
        # Incremental ingest (shard A built, shard B update_pipeline'd)
        # must equal a from-scratch build of the UNION — which is the
        # whole documents table, i.e. exactly the kg_nodes SQL.
        "kg_update_parity": nodes,
        # Newest-snapshot-wins: the final corpus is each url's LATEST
        # snapshot — even docs keep their text, odd docs carry the
        # re-crawled text (one appended term).
        "kg_update_supersede": _term_nodes(
            "CASE WHEN doc_id % 2 = 1"
            " THEN text || ' freshlyrecrawled' ELSE text END"),
        # The LLM production path with the term-emulating transport has
        # the SAME mention semantics as TermExtractor, hence the same SQL.
        "kg_nodes_llm": nodes,
        # Fault-injected LLM path: transient/malformed faults RECOVER
        # (same tables), poisoned chunks drop via quarantine — the
        # oracle excludes exactly those chunks with the same seeded md5
        # predicate the transport uses (chunk text = the whitespace-
        # normalized document, oracle-pinned by kg_chunks).
        "kg_nodes_llm_faulty": f"""
            WITH {_CHUNK_TEXTS},
            keep AS (SELECT ctext FROM t
                     WHERE {poison} >= {_FAULT_POISON_PPM})
            {_term_nodes("ctext", "keep")}
        """,
        # The quarantine sidecar: n_quarantined == the poisoned chunks.
        "kg_llm_quarantine": f"""
            WITH {_CHUNK_TEXTS}
            SELECT CAST(count(*) AS BIGINT) AS n_quarantined
            FROM t WHERE {poison} < {_FAULT_POISON_PPM}
        """,
        # The pipe-record prompt family with the pipe term transport has
        # the same mention semantics — one entity record per term
        # occurrence — so the kg_nodes SQL gates it too.
        "kg_nodes_pipe": nodes,
        # The Louvain partition is not SQL-expressible, but its checkable
        # invariants are: C0 must cover every canonical node, account for
        # every edge (internal + cross/2), respect the min-size floor,
        # and the stored flow/description_length arithmetic must match an
        # independent recomputation (violation counters pinned at 0).
        "kg_community_invariants": f"""
            WITH {_term_docs()}, {_cooc_pairs()}
            SELECT CAST(0 AS INT) AS level,
                   (SELECT count(DISTINCT term) FROM dt) AS n_members,
                   (SELECT count(*) FROM p) AS n_edges_accounted,
                   CAST(3 AS BIGINT) AS min_size_clamped,
                   CAST(0 AS BIGINT) AS n_flow_mismatch,
                   CAST(0 AS BIGINT) AS n_dl_mismatch,
                   CAST(0 AS BIGINT) AS n_hierarchy_orphans
        """,
        "kg_edges": f"""
            WITH {_term_docs()}, {_cooc_pairs(weighted=True)}
            SELECT s AS subj_name, 'co_occurs_with' AS pred,
                   t AS obj_name, CAST(0.6 AS DOUBLE) AS strength,
                   w AS n_instances
            FROM p
        """,
        "kg_claims": claims,
        # The LLM claim path (ClaimEmulatingTransport / PipeTermTransport)
        # reproduces TermExtractor(emit_claims=True) semantics exactly, so
        # the kg_claims SQL gates both prompt formats end-to-end.
        "kg_claims_llm": claims,
        "kg_claims_pipe": claims,
        "text_tokens": f"""
            SELECT doc_id, length(text) AS n_chars,
                   len(regexp_extract_all(text, '{_WS_RE}')) AS n_ws_tokens,
                   len(regexp_extract_all(text, '{_BPE_RE}')) AS n_re_tokens
            FROM documents
        """,
        "text_quality": f"""
            WITH {_quality_scores()}
            SELECT doc_id, n_tokens, n_distinct_tokens,
                   round(n_distinct_tokens
                         / CAST(greatest(n_tokens, 1) AS DOUBLE), 6)
                     AS type_token_ratio,
                   round(length(regexp_replace(text, '\\s+', '', 'g'))
                         / CAST(greatest(n_tokens, 1) AS DOUBLE), 6)
                     AS mean_token_len,
                   round(n_stop / CAST(greatest(n_tokens, 1) AS DOUBLE), 6)
                     AS stopword_ratio,
                   quality_score_ppm
            FROM qs
        """,
        "text_lang": f"""
            WITH {_lang_ids()}
            SELECT doc_id, pred_lang, marker_hits FROM lid
        """,
        "text_fingerprint": """
            SELECT doc_id, md5(text) AS fingerprint, strlen(text) AS n_bytes
            FROM documents
        """,
        "text_source_stats": """
            SELECT source, count(*) AS n_docs,
                   CAST(sum(length(text)) AS BIGINT) AS total_chars,
                   CAST((sum(length(text)) * 1000) // count(*) AS BIGINT)
                     AS mean_chars_milli
            FROM documents GROUP BY source
        """,
        "text_filter": f"""
            WITH {_quality_scores()}, {_lang_ids()}
            SELECT qs.doc_id, qs.quality_score_ppm, lid.pred_lang
            FROM qs JOIN lid ON qs.doc_id = lid.doc_id
            WHERE qs.quality_score_ppm >= 300000 AND lid.pred_lang = 'en'
        """,
        "text_pack": f"""
            WITH {_packed("documents")}
            SELECT doc_id, n_tokens, begin_token, seq_id FROM pk
        """,
        "text_contaminate": """
            WITH toks AS (
              SELECT doc_id,
                     string_split_regex(lower(trim(text)), '\\s+') AS t
              FROM documents WHERE trim(text) <> ''),
            pos AS (
              SELECT doc_id, t,
                     unnest(generate_series(0, len(t) - 8)) AS i
              FROM toks WHERE len(t) >= 8),
            dg AS (
              SELECT DISTINCT doc_id,
                     array_to_string(t[i + 1 : i + 8], ' ') AS g
              FROM pos),
            bench AS (
              SELECT DISTINCT g FROM dg WHERE doc_id % 97 = 0),
            hits AS (
              SELECT d.doc_id, count(*) AS n
              FROM dg d JOIN bench b USING (g)
              GROUP BY d.doc_id)
            SELECT doc_id,
                   coalesce(h.n, 0) AS n_gram_hits,
                   coalesce(h.n, 0) > 0 AS contaminated
            FROM documents LEFT JOIN hits h USING (doc_id)
        """,
        "dedup_exact": """
            SELECT md5(text) AS fingerprint, min(doc_id) AS rep_doc_id,
                   count(*) AS n_docs
            FROM documents GROUP BY 1
        """,
        "dedup_minhash": _minhash_oracle(),
        "dedup_simhash": _simhash_oracle(),
        "dedup_jaccard": f"""
            WITH {_term_docs()}, {_set_jaccard("dt", "term", 0.8)}
            SELECT doc_a, doc_b, jaccard FROM jp
        """,
        "dedup_components": _components_oracle(),
        # A-ES key = ln(u)/w, u = (hex12(md5(id)) + 1) / 16^12; libm-vs-
        # DuckDB ln() differ at ~1 ulp, far under the 12-dp rounding
        "text_weighted_sample": """
            WITH u AS (
              SELECT doc_id, n_chars,
                     (CAST('0x' || substr(md5(CAST(doc_id AS VARCHAR)),
                                          1, 12) AS BIGINT) + 1)
                       / 281474976710656.0 AS uu
              FROM documents),
            s AS (
              SELECT doc_id, CAST(n_chars AS BIGINT) AS weight,
                     round(ln(uu) / greatest(n_chars, 1), 12) AS key,
                     row_number() OVER (
                       ORDER BY round(ln(uu) / greatest(n_chars, 1), 12)
                                  DESC,
                                doc_id ASC) AS rank
              FROM u)
            SELECT doc_id, weight, key AS samp_key, rank
            FROM s WHERE rank <= 100
        """,
        "text_split": f"""
            WITH b AS (
              SELECT doc_id,
                     {_hex_int("md5(CAST(doc_id AS VARCHAR))", 2)} AS bucket
              FROM documents)
            SELECT doc_id, CAST(bucket AS INT) AS bucket,
                   CASE WHEN bucket < 26 THEN 'val' ELSE 'train' END AS split
            FROM b
        """,
        "text_source_cap": f"""
            WITH {_quality_scores()},
            r AS (
              SELECT source, doc_id, quality_score_ppm,
                     row_number() OVER (
                       PARTITION BY source
                       ORDER BY quality_score_ppm DESC, doc_id ASC) AS rank
              FROM qs)
            SELECT source, doc_id, quality_score_ppm, rank
            FROM r WHERE rank <= 10
        """,
        "dedup_embedding": f"""
            WITH {_EMB}
            SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
                   round(list_cosine_similarity(a.v, b.v), 6) AS cosine
            FROM e a JOIN e b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(a.v, b.v) >= 0.45
        """,
        "simsearch_lsh": lsh,
        "simsearch_ivf": ivf,
        "simsearch_pq": pq,
        "recall_lsh": _recall_oracle("lsh", lsh),
        "recall_ivf": _recall_oracle("ivf", ivf),
        "recall_pq": _recall_oracle("pq", pq),
        "recall_minhash": _recall_minhash_oracle(),
        "simsearch_topk": _EXACT_TOPK_SQL,
        "bm25_topk": _bm25_oracle(_BM25_QUERIES),
        "kg_pagerank": _pagerank_oracle("pr"),
        "kg_ppr": _pagerank_oracle("ppr"),
        "kg_triangles": f"""
            WITH {_term_docs()}, {_cooc_pairs()}, {_TRIANGLES}
            SELECT name, CAST(n AS BIGINT) AS n_triangles FROM tc
        """,
        # lcc_units = (2*T*1e12) // (deg*(deg-1)), integer floor-div —
        # identical fixed-point arithmetic to kgx.ops.graph.
        "kg_lcc": f"""
            WITH {_term_docs()}, {_cooc_pairs()}, {_sym_edges()},
            {_DEGREES}, {_TRIANGLES}
            SELECT d.v AS name,
                   CAST(d.d AS BIGINT) AS degree,
                   CAST(COALESCE(tc.n, 0) AS BIGINT) AS n_triangles,
                   CAST((2 * COALESCE(tc.n, 0) * 1000000000000)
                        // (d.d * (d.d - 1)) AS BIGINT) AS lcc_units
            FROM deg d LEFT JOIN tc ON d.v = tc.name
            WHERE d.d >= 2
        """,
        "kg_wcc": f"""
            WITH {_term_docs()}, {_cooc_pairs()}, {_sym_edges()},
            {_COMPONENTS}
            SELECT name, component FROM comp
        """,
        # EXACT twin of kgx/ops/graph.py:partition_modularity under the
        # first-letter partition: per edge, both endpoints' communities
        # gain a degree unit and intra edges count once — then the
        # integer form q_num = sum(4*m*e_c - d_c^2), q_den = 4*m^2.
        "kg_modularity": f"""
            WITH {_term_docs()}, {_cooc_pairs()},
            lab AS (SELECT substr(s, 1, 1) AS cs,
                           substr(t, 1, 1) AS ct FROM p),
            contrib AS (
              SELECT cs AS comm, 1 AS d,
                     CASE WHEN cs = ct THEN 1 ELSE 0 END AS e
              FROM lab
              UNION ALL
              SELECT ct AS comm, 1 AS d, 0 AS e FROM lab),
            pc AS (SELECT comm,
                          CAST(sum(d) AS BIGINT) AS d_c,
                          CAST(sum(e) AS BIGINT) AS e_c
                   FROM contrib GROUP BY comm),
            mm AS (SELECT CAST(sum(d_c) // 2 AS BIGINT) AS m FROM pc)
            SELECT CAST(count(*) AS BIGINT) AS n_communities,
                   mm.m AS n_edges,
                   CAST(sum(4 * mm.m * e_c - d_c * d_c) AS BIGINT)
                     AS q_num,
                   CAST(4 * mm.m * mm.m AS BIGINT) AS q_den
            FROM pc, mm
            GROUP BY mm.m
        """,
        "kg_lpa": _lpa_oracle(rounds=_LPA_ROUNDS),
        "kg_pagerank_weighted": _pagerank_oracle("wpr"),
        "kg_kcore": _kcore_oracle(k=_KCORE_K, rounds=_KCORE_ROUNDS),
        "kg_stats": f"""
            WITH {_term_docs()}, {_cooc_pairs()}, {_sym_edges()},
            {_DEGREES}, {_COMPONENTS}, {_TRIANGLES}
            SELECT CAST((SELECT count(*) FROM deg) AS BIGINT) AS n_vertices,
                   CAST((SELECT count(*) FROM p) AS BIGINT) AS n_edges,
                   CAST((SELECT max(d) FROM deg) AS BIGINT) AS max_degree,
                   CAST((SELECT count(DISTINCT component) FROM comp)
                        AS BIGINT) AS n_components,
                   CAST((SELECT count(*) FROM tri) AS BIGINT) AS n_triangles
        """,
        # degree histogram buckets: floor(degree / 4); sum column is the
        # histogram op's integer-cents contract (degree * 100)
        "kg_degree_hist": f"""
            WITH {_term_docs()}, {_cooc_pairs()}, {_sym_edges()}, {_DEGREES}
            SELECT CAST(floor(d / 4.0) AS BIGINT) AS bin,
                   CAST(count(*) AS BIGINT) AS n_rows,
                   CAST(sum(d * 100) AS BIGINT) AS sum_value_cents
            FROM deg GROUP BY 1
        """,
        # lift_units = (c_ab * N * 1e6) // (c_a * c_b), integer floor-div
        "kg_lift": f"""
            WITH {_term_docs("lower(text)")}, {_cooc_pairs(weighted=True)},
            n AS (SELECT count(*) AS nd FROM documents),
            df AS (SELECT term, count(*) AS c FROM dt GROUP BY term)
            SELECT p.s AS term_a, p.t AS term_b,
                   CAST(p.w AS BIGINT) AS n_both,
                   (p.w * (SELECT nd FROM n) * 1000000)
                     // (da.c * db.c) AS lift_units
            FROM p JOIN df da ON da.term = p.s
                   JOIN df db ON db.term = p.t
        """,
        # BFS distance = min hop over the unioned frontier expansions
        "kg_khop": f"""
            WITH {_term_docs()}, {_cooc_pairs()}, {_sym_edges()},
            seed AS (SELECT min(s) AS v FROM ed),
            h1 AS (SELECT DISTINCT t AS name FROM ed
                   WHERE s = (SELECT v FROM seed)),
            h2 AS (SELECT DISTINCT e.t AS name
                   FROM ed e JOIN h1 ON e.s = h1.name)
            SELECT name, CAST(min(hop) AS BIGINT) AS hop FROM (
              SELECT v AS name, 0 AS hop FROM seed
              UNION ALL SELECT name, 1 FROM h1
              UNION ALL SELECT name, 2 FROM h2)
            GROUP BY name
        """,
        # common neighbors of (a,b) == wedges a-c-b; jac_units is the
        # same integer floor-division as kgx.ops.graph (SCALE = 1e12)
        "kg_neighbor_jaccard": f"""
            WITH {_term_docs()}, {_cooc_pairs()}, {_sym_edges()},
            {_DEGREES},
            w AS (SELECT l.t AS x, r.t AS y
                  FROM ed l JOIN ed r ON l.s = r.s AND l.t < r.t),
            cm AS (SELECT x, y, count(*) AS common FROM w GROUP BY x, y)
            SELECT cm.x AS name_a, cm.y AS name_b,
                   CAST(cm.common AS BIGINT) AS common,
                   (cm.common * 1000000000000)
                     // (da.d + db.d - cm.common) AS jac_units
            FROM cm JOIN deg da ON da.v = cm.x
                    JOIN deg db ON db.v = cm.y
            WHERE (cm.common * 1000000000000)
                    // (da.d + db.d - cm.common) >= 200000000000
        """,
        "rel_antijoin": """
            SELECT c_custkey, c_name FROM customer
            WHERE c_custkey NOT IN (
              SELECT DISTINCT o_custkey FROM orders
              WHERE o_totalprice > 300000.0)
        """,
        "events_quantile": """
            WITH v AS (
              SELECT value FROM events
              WHERE value IS NOT NULL AND NOT isnan(value)),
            o AS (SELECT value,
                         row_number() OVER (ORDER BY value) - 1 AS rk
                  FROM v),
            n AS (SELECT count(*) AS c FROM v),
            p AS (SELECT unnest([0.5, 0.9, 0.99]) AS p)
            SELECT p.p, o.value
            FROM p, n
            JOIN o ON o.rk = CAST(floor(p.p * (n.c - 1)) AS BIGINT)
        """,
        "rel_join": """
            SELECT o.o_custkey, o.o_orderkey,
                   CAST(floor(o.o_totalprice * 100.0 + 0.5) AS BIGINT)
                     AS price_cents,
                   c.c_name
            FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
        """,
        "text_ngrams": _ngram_topk(2, 20),
        "text_wordfreq": _ngram_topk(1, 100),
        # rows-only -> exact r5: the fixed-rounds merge loop unrolled
        # into per-round argmax + greedy-rewrite CTEs (see _bpe_oracle)
        "text_bpe": _bpe_oracle(n_merges=_BPE_MERGES,
                                min_count=_BPE_MIN_COUNT),
        # EXACT twin of kgx/ops/dsir.py:dsir_weights — same md5-high64
        # bucketing, same single-ln-of-integer-quotient micro fixing.
        "text_dsir": f"""
            WITH toks AS (
              SELECT doc_id, lang,
                     unnest(regexp_extract_all(lower(trim(text)),
                                               '\\S+')) AS tok
              FROM documents WHERE trim(text) <> ''),
            bt AS (
              SELECT doc_id, lang,
                     {_md5_u64("tok")}
                       % 4096 AS b
              FROM toks),
            agg AS (
              SELECT b,
                     count(*) FILTER (WHERE lang = 'en') AS t_c,
                     count(*) AS r_c
              FROM bt GROUP BY b),
            tot AS (SELECT CAST(sum(t_c) AS BIGINT) AS t_tot,
                           CAST(sum(r_c) AS BIGINT) AS r_tot
                    FROM agg),
            lr AS (
              SELECT b,
                     CAST(floor(ln(((t_c + 1.0) * (r_tot + 4096))
                                   / ((t_tot + 4096) * (r_c + 1.0)))
                                * 1000000 + 0.5) AS BIGINT) AS w
              FROM agg, tot)
            SELECT bt.doc_id,
                   CAST(count(*) AS BIGINT) AS n_tokens,
                   CAST(sum(lr.w) AS BIGINT) AS dsir_score_micro
            FROM bt JOIN lr ON bt.b = lr.b
            GROUP BY bt.doc_id
        """,
        "text_tfidf": f"""
            WITH dt AS (
              SELECT doc_id,
                     unnest(regexp_extract_all(lower(text),
                                               '{_TERM_RE}')) AS term
              FROM documents),
            tf AS (SELECT doc_id, term, count(*) AS tf
                   FROM dt GROUP BY 1, 2),
            df AS (SELECT term, count(DISTINCT doc_id) AS df
                   FROM dt GROUP BY 1),
            nn AS (SELECT count(*) AS n FROM documents),
            s AS (
              SELECT tf.doc_id, tf.term,
                     round(tf.tf * ln(CAST((SELECT n FROM nn) AS DOUBLE)
                                      / df.df), 6) AS score
              FROM tf JOIN df USING (term)),
            r AS (
              SELECT doc_id, term, score,
                     row_number() OVER (PARTITION BY doc_id
                       ORDER BY score DESC, term) AS rk
              FROM s)
            SELECT doc_id, term,
                   CAST(round(score * 1000000) AS BIGINT) AS tfidf_ppm,
                   CAST(rk AS BIGINT) AS "rank"
            FROM r WHERE rk <= 5
        """,
        "events_stream": hourly,
        "events_window": hourly,
        "events_stream_sharded": hourly,
        "events_sliding": """
            WITH e AS (SELECT epoch_us(ts) AS t, event_type, value
                       FROM events),
            w AS (
              SELECT unnest(generate_series(
                       ((t - 3600000000) // 900000000 + 1) * 900000000,
                       (t // 900000000) * 900000000, 900000000)) AS ws,
                     event_type, value
              FROM e)
            SELECT make_timestamp(ws) AS window_start, event_type,
                   count(*) AS n_events,
                   round(sum(value), 2) AS sum_value,
                   min(value) AS min_value,
                   max(value) AS max_value
            FROM w GROUP BY 1, 2
        """,
        "events_session": """
            WITH e AS (SELECT user_id, epoch_us(ts) AS t, value FROM events),
            m AS (
              SELECT *, CASE WHEN lag(t) OVER w IS NULL
                               OR t - lag(t) OVER w > 1800000000
                             THEN 1 ELSE 0 END AS ns
              FROM e WINDOW w AS (PARTITION BY user_id ORDER BY t)),
            s AS (
              SELECT *, sum(ns) OVER (PARTITION BY user_id ORDER BY t
                                      ROWS UNBOUNDED PRECEDING) AS sid
              FROM m)
            SELECT user_id, make_timestamp(min(t)) AS session_start,
                   count(*) AS n_events,
                   round(sum(value), 2) AS sum_value,
                   (max(t) - min(t)) // 1000000 AS duration_s
            FROM s GROUP BY user_id, sid
        """,
        "events_asof": """
            WITH a AS (SELECT event_id, user_id, ts, value FROM events
                       WHERE event_type = 'click'),
            b AS (SELECT event_id, user_id, ts, value FROM events
                  WHERE event_type = 'view'),
            j AS (
              SELECT a.event_id, a.user_id, a.ts, a.value,
                     b.event_id AS prior_event_id, b.ts AS prior_ts,
                     b.value AS prior_value,
                     row_number() OVER (
                       PARTITION BY a.event_id
                       ORDER BY b.ts DESC, b.event_id DESC) AS rn
              FROM a JOIN b ON a.user_id = b.user_id AND b.ts <= a.ts)
            SELECT event_id, user_id, ts, value,
                   prior_event_id, prior_ts, prior_value
            FROM j WHERE rn = 1
        """,
        "events_interval": """
            SELECT a.user_id, a.event_id AS left_event_id,
                   b.event_id AS right_event_id,
                   CAST(floor((epoch_us(a.ts) - epoch_us(b.ts))
                              / 1000000.0) AS BIGINT) AS delta_s
            FROM events a JOIN events b
              ON a.user_id = b.user_id
             AND a.event_type = 'purchase' AND b.event_type = 'click'
             AND abs(epoch_us(a.ts) - epoch_us(b.ts)) <= 600000000
        """,
        "rel_pricing": """
            WITH l AS (
              SELECT l_returnflag, l_linestatus,
                     CAST(floor(l_quantity * 100.0 + 0.5) AS BIGINT) AS qty_c,
                     CAST(floor(l_extendedprice * 100.0 + 0.5) AS BIGINT) AS ext_c,
                     CAST(floor(l_discount * 100.0 + 0.5) AS BIGINT) AS disc_c
              FROM lineitem
              WHERE l_shipdate <= TIMESTAMP '1998-09-01 00:00:00')
            SELECT l_returnflag, l_linestatus,
                   CAST(sum(qty_c) AS BIGINT) AS sum_qty_cents,
                   CAST(sum(ext_c) AS BIGINT) AS sum_price_cents,
                   CAST(sum(disc_c) AS BIGINT) AS sum_disc_cents,
                   CAST((sum(qty_c) * 10000) // count(*) AS BIGINT)
                     AS avg_qty_micro,
                   count(*) AS count_order
            FROM l GROUP BY 1, 2
        """,
        "rel_top_customers": """
            SELECT c.c_custkey, c.c_name,
                   CAST(sum(CAST(floor(o.o_totalprice * 100.0 + 0.5) AS BIGINT))
                        AS BIGINT) AS revenue_cents,
                   count(*) AS n_orders
            FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
            GROUP BY 1, 2
            ORDER BY revenue_cents DESC, c_custkey ASC
            LIMIT 10
        """,
        "rel_distinct": """
            SELECT DISTINCT l_returnflag, l_linestatus FROM lineitem
        """,
        "rel_order_counts": """
            SELECT o_orderstatus, o_orderpriority, count(*) AS n_orders
            FROM orders GROUP BY 1, 2
        """,
        "multimodal_stats": """
            SELECT 'doc-' || doc_id AS media_id, strlen(text) AS n_bytes,
                   md5(text) AS checksum
            FROM documents
        """,
        # Fake decode dims derive from md5 hex pairs of the payload (the
        # utf-8 text) — byte i == int(hex[2i:2i+2], 16), computed below
        # with strpos over the hex alphabet.
        "multimodal_decode": f"""
            WITH m AS (
              SELECT 'doc-' || doc_id AS media_id, md5(text) AS h
              FROM documents),
            b AS (
              SELECT media_id,
                     {_hex_int("h", 2, 1)} AS b0,
                     {_hex_int("h", 2, 3)} AS b1,
                     {_hex_int("h", 2, 5)} AS b2
              FROM m)
            SELECT media_id, CAST(64 + b0 % 192 AS INT) AS width,
                   CAST(64 + b1 % 192 AS INT) AS height,
                   CAST(1 + b2 % 3 AS INT) AS channels
            FROM b
        """,
        "events_ordered": """
            SELECT user_id, event_id,
                   row_number() OVER w AS seq,
                   CAST(coalesce((epoch_us(ts) - lag(epoch_us(ts)) OVER w)
                                 // 1000000, 0) AS BIGINT) AS gap_s,
                   lag(CAST(floor(value * 100 + 0.5) AS BIGINT)) OVER w
                     AS prev_value_cents,
                   CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT))
                          OVER (PARTITION BY user_id ORDER BY ts, event_id
                                ROWS UNBOUNDED PRECEDING) AS BIGINT)
                     AS cum_value_cents
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
        """,
        # population variance via n*E[x^2]-E[x]^2; mean/std rounded 6dp
        # BEFORE z like the Ray side, z rounded 6dp then 1e-6 int units
        "events_zscore": """
            WITH v AS (
              SELECT event_id, event_type, value FROM events
              WHERE value IS NOT NULL AND NOT isnan(value)),
            m AS (
              SELECT event_type,
                     round(avg(value), 6) AS mean,
                     round(sqrt(greatest(
                       avg(value * value) - avg(value) * avg(value),
                       0.0)), 6) AS std
              FROM v GROUP BY event_type),
            z AS (
              SELECT v.event_id, v.event_type, v.value,
                     round((v.value - m.mean)
                           / (CASE WHEN m.std > 0 THEN m.std ELSE 1 END),
                           6) AS zz
              FROM v JOIN m USING (event_type))
            SELECT event_id, event_type, value,
                   CAST(round(zz * 1000000, 0) AS BIGINT) AS z_units,
                   abs(zz) > 3.0 AS is_anomaly
            FROM z
        """,
        "events_json": """
            WITH v AS (
              SELECT event_type,
                     CAST(json_extract_string(props, '$.k') AS BIGINT)
                       AS val
              FROM events
              WHERE json_extract_string(props, '$.k') IS NOT NULL)
            SELECT event_type,
                   CAST(count(*) AS BIGINT) AS n_events,
                   CAST(sum(val) AS BIGINT) AS sum_val,
                   CAST(min(val) AS BIGINT) AS min_val,
                   CAST(max(val) AS BIGINT) AS max_val,
                   CAST(count(DISTINCT val) AS BIGINT) AS n_distinct_vals
            FROM v GROUP BY event_type
        """,
        "events_retention": """
            WITH ud AS (
              SELECT DISTINCT user_id,
                     epoch_us(ts) // 86400000000 AS day
              FROM events),
            c AS (SELECT user_id, min(day) AS cohort FROM ud GROUP BY 1)
            SELECT c.cohort AS cohort_day,
                   ud.day - c.cohort AS day_offset,
                   CAST(count(*) AS BIGINT) AS n_users
            FROM ud JOIN c USING (user_id)
            GROUP BY 1, 2
        """,
        "events_histogram": """
            SELECT CAST(floor(value / 25.0) AS BIGINT) AS bin,
                   count(*) AS n_rows,
                   CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT))
                        AS BIGINT) AS sum_value_cents
            FROM events
            WHERE value IS NOT NULL AND NOT isnan(value)
            GROUP BY 1
        """,
        "events_funnel": """
            WITH s1 AS (
              SELECT user_id, min(ts) AS t1 FROM events
              WHERE event_type = 'view' GROUP BY user_id),
            s2 AS (
              SELECT e.user_id, min(e.ts) AS t2
              FROM events e JOIN s1 ON e.user_id = s1.user_id
                                   AND e.ts > s1.t1
              WHERE e.event_type = 'click' GROUP BY e.user_id),
            s3 AS (
              SELECT e.user_id, min(e.ts) AS t3
              FROM events e JOIN s2 ON e.user_id = s2.user_id
                                   AND e.ts > s2.t2
              WHERE e.event_type = 'purchase' GROUP BY e.user_id)
            SELECT s1.user_id, s1.t1 AS step1_ts, s2.t2 AS step2_ts,
                   s3.t3 AS step3_ts,
                   CAST(1 + CASE WHEN s2.user_id IS NULL THEN 0 ELSE 1 END
                          + CASE WHEN s3.user_id IS NULL THEN 0 ELSE 1 END
                        AS BIGINT) AS steps_reached
            FROM s1 LEFT JOIN s2 ON s1.user_id = s2.user_id
                    LEFT JOIN s3 ON s1.user_id = s3.user_id
        """,
        "rel_topn": """
            SELECT o_custkey, o_orderkey, o_totalprice, rk FROM (
              SELECT o_custkey, o_orderkey, o_totalprice,
                     row_number() OVER (PARTITION BY o_custkey
                       ORDER BY o_totalprice DESC, o_orderkey) AS rk
              FROM orders) WHERE rk <= 3
        """,
        "rel_semijoin": """
            SELECT l_returnflag, l_linestatus,
                   count(*) AS n_items,
                   CAST(sum(CAST(floor(l_quantity * 100 + 0.5) AS BIGINT))
                        AS BIGINT) AS sum_qty_cents
            FROM lineitem
            WHERE l_orderkey IN (SELECT o_orderkey FROM orders
                                 WHERE o_orderpriority = '1-URGENT')
            GROUP BY l_returnflag, l_linestatus
        """,
        "rel_shipping": """
            WITH c AS (
              SELECT c_custkey FROM customer
              WHERE c_mktsegment = 'BUILDING'),
            o AS (
              SELECT o_orderkey, o_orderdate
              FROM orders JOIN c ON o_custkey = c_custkey
              WHERE o_orderdate < TIMESTAMP '1998-06-01'),
            l AS (
              SELECT l_orderkey,
                     CAST(floor(l_extendedprice * (1.0 - l_discount)
                                * 10000.0 + 0.5) AS BIGINT) AS rev
              FROM lineitem
              WHERE l_shipdate > TIMESTAMP '1998-06-01')
            SELECT o.o_orderkey,
                   CAST(sum(l.rev) AS BIGINT) AS revenue_units,
                   o.o_orderdate
            FROM l JOIN o ON l.l_orderkey = o.o_orderkey
            GROUP BY o.o_orderkey, o.o_orderdate
            ORDER BY revenue_units DESC, o.o_orderkey
            LIMIT 10
        """,
        "rel_rollup": """
            SELECT l_returnflag, l_linestatus,
                   CAST(sum(CAST(floor(l_quantity * 100 + 0.5) AS BIGINT))
                        AS BIGINT) AS sum_qty_cents,
                   CAST(sum(CAST(floor(l_extendedprice * 100 + 0.5)
                                 AS BIGINT)) AS BIGINT) AS sum_price_cents,
                   count(*) AS n_rows
            FROM lineitem
            GROUP BY ROLLUP(l_returnflag, l_linestatus)
        """,
        "rel_pivot": """
            SELECT o_orderstatus,
                   CAST(sum(CASE WHEN o_orderpriority = '1-URGENT'
                                 THEN 1 ELSE 0 END) AS BIGINT)
                     AS n_urgent,
                   CAST(sum(CASE WHEN o_orderpriority = '2-HIGH'
                                 THEN 1 ELSE 0 END) AS BIGINT) AS n_high,
                   CAST(sum(CASE WHEN o_orderpriority = '3-MEDIUM'
                                 THEN 1 ELSE 0 END) AS BIGINT)
                     AS n_medium,
                   CAST(sum(CASE WHEN o_orderpriority = '4-NOT SPECIFIED'
                                 THEN 1 ELSE 0 END) AS BIGINT)
                     AS n_not_specified,
                   CAST(sum(CASE WHEN o_orderpriority = '5-LOW'
                                 THEN 1 ELSE 0 END) AS BIGINT) AS n_low
            FROM orders GROUP BY o_orderstatus
        """,
        "rel_exists": """
            SELECT o_orderpriority,
                   CAST(count(*) AS BIGINT) AS n_orders
            FROM orders o
            WHERE EXISTS (SELECT 1 FROM lineitem l
                          WHERE l.l_orderkey = o.o_orderkey
                            AND l.l_quantity > 49.0)
            GROUP BY o_orderpriority
        """,
        "rel_promo": f"""
            WITH l AS (
              SELECT l_partkey,
                     {_rev_units("")} AS rev
              FROM lineitem
              WHERE l_shipdate >= TIMESTAMP '1996-01-01'
                AND l_shipdate <  TIMESTAMP '1996-02-01'),
            s AS (
              SELECT
                CAST(coalesce(sum(CASE WHEN p.p_type = 'PROMO'
                                       THEN l.rev END), 0) AS BIGINT)
                  AS promo_units,
                CAST(coalesce(sum(l.rev), 0) AS BIGINT) AS total_units
              FROM l LEFT JOIN part p ON p.p_partkey = l.l_partkey)
            SELECT promo_units, total_units,
                   CASE WHEN total_units = 0 THEN 0
                        ELSE (promo_units * 1000000) // total_units
                   END AS promo_ratio_ppm
            FROM s
        """,
        "rel_outerjoin": """
            WITH l AS (
              SELECT o_custkey AS custkey, CAST(count(*) AS BIGINT) AS n_big
              FROM orders WHERE o_totalprice > 300000.0
              GROUP BY o_custkey),
            r AS (
              SELECT c_custkey,
                     CAST(floor(c_acctbal * 100 + 0.5) AS BIGINT)
                       AS acctbal_cents
              FROM customer WHERE c_acctbal < 1000.0)
            SELECT coalesce(l.custkey, r.c_custkey) AS custkey,
                   l.n_big, r.acctbal_cents
            FROM l FULL OUTER JOIN r ON l.custkey = r.c_custkey
        """,
        "rel_regional": f"""
            SELECT n.n_name,
                   CAST(sum(
                     {_rev_units("l.")}) AS BIGINT) AS revenue_units
            FROM customer c
            JOIN orders o ON c.c_custkey = o.o_custkey
            JOIN lineitem l ON l.l_orderkey = o.o_orderkey
            JOIN supplier s ON s.s_suppkey = l.l_suppkey
                           AND s.s_nationkey = c.c_nationkey
            JOIN nation n ON n.n_nationkey = c.c_nationkey
            JOIN region r ON r.r_regionkey = n.n_regionkey
            WHERE r.r_name = 'ASIA'
              AND o.o_orderdate >= TIMESTAMP '1996-01-01'
              AND o.o_orderdate <  TIMESTAMP '1997-01-01'
            GROUP BY n.n_name
        """,
        "sketch_distinct": _hll_oracle("events", "user_id"),
        "sketch_distinct_by_type": _hll_oracle("events", "user_id",
                                               key="event_type"),
        "sketch_cms": _cms_oracle("events", "event_type",
                                  _CMS_QUERY_TYPES),
        "sketch_heavy": """
            SELECT CAST(event_type AS VARCHAR) AS value,
                   CAST(count(*) AS BIGINT) AS min_count
            FROM events
            GROUP BY event_type
            ORDER BY min_count DESC, value ASC
            LIMIT 5
        """,
        "rel_volume": f"""
            WITH s AS (
              SELECT s_suppkey, n_name AS supp_nation
              FROM supplier JOIN nation ON s_nationkey = n_nationkey
              WHERE n_name IN ('NATION_11', 'NATION_12')),
            c AS (
              SELECT c_custkey, n_name AS cust_nation
              FROM customer JOIN nation ON c_nationkey = n_nationkey
              WHERE n_name IN ('NATION_11', 'NATION_12'))
            SELECT s.supp_nation, c.cust_nation,
                   CAST(year(l.l_shipdate) AS BIGINT) AS l_year,
                   CAST(sum(
                     {_rev_units("l.")}) AS BIGINT) AS revenue_units
            FROM lineitem l
            JOIN orders o ON l.l_orderkey = o.o_orderkey
            JOIN s ON l.l_suppkey = s.s_suppkey
            JOIN c ON o.o_custkey = c.c_custkey
            WHERE s.supp_nation <> c.cust_nation
              AND l.l_shipdate >= TIMESTAMP '1996-01-01'
              AND l.l_shipdate <  TIMESTAMP '1999-01-01'
            GROUP BY 1, 2, 3
        """,
        "rel_market_share": f"""
            WITH l AS (
              SELECT l_orderkey,
                     {_rev_units("")} AS rev,
                     CASE WHEN l_suppkey IN (
                            SELECT s_suppkey FROM supplier
                            JOIN nation ON s_nationkey = n_nationkey
                            WHERE n_name = 'NATION_7')
                          THEN 1 ELSE 0 END AS is_nat
              FROM lineitem
              WHERE l_partkey IN (SELECT p_partkey FROM part
                                  WHERE p_type = 'ECONOMY')),
            o AS (
              SELECT o_orderkey,
                     CAST(year(o_orderdate) AS BIGINT) AS o_year
              FROM orders
              WHERE o_orderdate >= TIMESTAMP '1996-01-01'
                AND o_orderdate <  TIMESTAMP '1998-01-01'
                AND o_custkey IN (
                  SELECT c_custkey FROM customer
                  JOIN nation ON c_nationkey = n_nationkey
                  JOIN region ON n_regionkey = r_regionkey
                  WHERE r_name = 'ASIA'))
            SELECT o.o_year,
                   CAST(sum(l.rev * l.is_nat) AS BIGINT) AS nation_units,
                   CAST(sum(l.rev) AS BIGINT) AS total_units,
                   CAST(sum(l.rev * l.is_nat) AS BIGINT) * 1000000
                     // greatest(CAST(sum(l.rev) AS BIGINT), 1)
                     AS mkt_share_ppm
            FROM l JOIN o ON l.l_orderkey = o.o_orderkey
            GROUP BY o.o_year
        """,
        "rel_custdist": """
            WITH c_orders AS (
              SELECT c.c_custkey, count(o.o_orderkey) AS c_count
              FROM customer c
              LEFT JOIN orders o ON c.c_custkey = o.o_custkey
              GROUP BY c.c_custkey)
            SELECT CAST(c_count AS BIGINT) AS c_count,
                   count(*) AS custdist
            FROM c_orders GROUP BY c_count
        """,
        "rel_top_supplier": f"""
            WITH rev AS (
              SELECT l_suppkey AS s,
                     CAST(sum(
                       {_rev_units("")}) AS BIGINT) AS r
              FROM lineitem
              WHERE l_shipdate >= TIMESTAMP '1996-01-01'
                AND l_shipdate <  TIMESTAMP '1996-04-01'
              GROUP BY l_suppkey)
            SELECT s.s_suppkey, s.s_name,
                   rev.r AS total_revenue_units
            FROM rev JOIN supplier s ON s.s_suppkey = rev.s
            WHERE rev.r = (SELECT max(r) FROM rev)
        """,
        "rel_small_orders": """
            WITH l AS (
              SELECT l_partkey,
                     CAST(floor(l_quantity * 100 + 0.5) AS BIGINT)
                       AS qty_c,
                     CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)
                       AS ext_c
              FROM lineitem
              WHERE l_partkey IN (SELECT p_partkey FROM part
                                  WHERE p_type = 'SMALL')),
            st AS (
              SELECT l_partkey, CAST(sum(qty_c) AS BIGINT) AS sq,
                     count(*) AS n
              FROM l GROUP BY l_partkey)
            SELECT CAST(count(*) AS BIGINT) AS n_small_lineitems,
                   CAST(coalesce(sum(l.ext_c), 0) AS BIGINT)
                     AS revenue_cents
            FROM l JOIN st USING (l_partkey)
            WHERE 5 * l.qty_c * st.n < st.sq
        """,
        "rel_late_lines": """
            SELECT CAST(year(l.l_shipdate) AS BIGINT) AS ship_year,
                   CAST(sum(CASE WHEN o.o_orderpriority IN
                                      ('1-URGENT', '2-HIGH')
                                 THEN 1 ELSE 0 END) AS BIGINT)
                     AS high_line_count,
                   CAST(sum(CASE WHEN o.o_orderpriority IN
                                      ('1-URGENT', '2-HIGH')
                                 THEN 0 ELSE 1 END) AS BIGINT)
                     AS low_line_count
            FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
            WHERE epoch_us(l.l_shipdate) - epoch_us(o.o_orderdate)
                  >= 60 * 86400000000
            GROUP BY 1
        """,
        "rel_brand_rev": """
            WITH j AS (
              SELECT l.l_quantity AS qty,
                     CAST(floor(l.l_extendedprice * 100 + 0.5) AS BIGINT)
                       AS ext_c,
                     CAST(floor(l.l_discount * 100 + 0.5) AS BIGINT)
                       AS disc_c,
                     p.p_brand, p.p_size
              FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey),
            m AS (
              SELECT ext_c, disc_c FROM j
              WHERE (p_brand = 'Brand#1' AND p_size BETWEEN 1 AND 15
                     AND qty BETWEEN 1.0 AND 20.0)
                 OR (p_brand = 'Brand#2' AND p_size BETWEEN 1 AND 25
                     AND qty BETWEEN 10.0 AND 30.0)
                 OR (p_brand = 'Brand#3' AND p_size BETWEEN 1 AND 35
                     AND qty BETWEEN 20.0 AND 40.0))
            SELECT CAST(coalesce(sum(ext_c * (100 - disc_c)), 0)
                        AS BIGINT) AS revenue_units,
                   CAST(count(*) AS BIGINT) AS n_lines
            FROM m
        """,
        "multimodal_dedup": """
            WITH t AS (
              SELECT 'doc-' || CAST(doc_id AS VARCHAR) AS media_id,
                     md5(text) AS checksum
              FROM documents)
            SELECT checksum, CAST(count(*) AS BIGINT) AS n_copies,
                   min(media_id) AS keep_id
            FROM t GROUP BY checksum
        """,
        "dedup_fuzzy": """
            WITH p AS (
              SELECT doc_id,
                     rpad(substr(text, 1, 24), 24, chr(1)) AS pre
              FROM documents)
            SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                   CAST(hamming(a.pre, b.pre) AS BIGINT) AS dist
            FROM p a JOIN p b ON a.doc_id < b.doc_id
            WHERE hamming(a.pre, b.pre) <= 2
        """,
        "rel_cube": """
            SELECT l_returnflag, l_linestatus,
                   CAST(sum(CAST(floor(l_quantity * 100 + 0.5)
                                 AS BIGINT)) AS BIGINT) AS sum_qty_cents,
                   CAST(sum(CAST(floor(l_extendedprice * 100 + 0.5)
                                 AS BIGINT)) AS BIGINT)
                     AS sum_price_cents,
                   CAST(count(*) AS BIGINT) AS n_rows
            FROM lineitem
            GROUP BY CUBE (l_returnflag, l_linestatus)
        """,
        "rel_waiting": """
            WITH l AS (
              SELECT l_orderkey, l_suppkey,
                     (epoch_us(l_shipdate) - epoch_us(o_orderdate)
                      > 90 * 86400000000) AS late
              FROM lineitem JOIN orders ON o_orderkey = l_orderkey
              WHERE o_orderstatus = 'F')
            SELECT n_name, s_name, CAST(count(*) AS BIGINT) AS numwait
            FROM l l1
            JOIN supplier ON s_suppkey = l1.l_suppkey
            JOIN nation ON n_nationkey = s_nationkey
            WHERE l1.late
              AND EXISTS (SELECT 1 FROM l l2
                          WHERE l2.l_orderkey = l1.l_orderkey
                            AND l2.l_suppkey <> l1.l_suppkey)
              AND NOT EXISTS (SELECT 1 FROM l l3
                              WHERE l3.l_orderkey = l1.l_orderkey
                                AND l3.l_suppkey <> l1.l_suppkey
                                AND l3.late)
            GROUP BY 1, 2
            ORDER BY numwait DESC, s_name
            LIMIT 100
        """,
        "rel_profit": f"""
            SELECT n_name AS nation,
                   CAST(year(o_orderdate) AS BIGINT) AS o_year,
                   CAST(sum(
                     {_rev_units("")}) AS BIGINT) AS profit_units
            FROM lineitem
            JOIN orders ON l_orderkey = o_orderkey
            JOIN supplier ON l_suppkey = s_suppkey
            JOIN nation ON s_nationkey = n_nationkey
            WHERE l_partkey IN (SELECT p_partkey FROM part
                                WHERE p_name LIKE '%red%')
            GROUP BY 1, 2
        """,
        "rel_important": f"""
            WITH v AS (
              SELECT l_partkey,
                     CAST(sum(
                       {_rev_units("")}) AS BIGINT) AS value_units
              FROM lineitem
              WHERE l_suppkey IN (SELECT s_suppkey FROM supplier
                                  JOIN nation ON s_nationkey = n_nationkey
                                  WHERE n_name = 'NATION_3')
              GROUP BY 1)
            SELECT l_partkey, value_units FROM v
            WHERE value_units * 1000000
                  > (SELECT sum(value_units) FROM v) * 1000
        """,
        "rel_mincost": """
            WITH f AS (
              SELECT DISTINCT l.l_partkey AS p_partkey, l.l_suppkey,
                     CAST(floor(l.l_extendedprice * 100 + 0.5)
                          AS BIGINT) AS cost_cents
              FROM lineitem l
              JOIN part p ON l.l_partkey = p.p_partkey
              WHERE p.p_size = 25
                AND CAST(floor(l.l_extendedprice * 100 + 0.5) AS BIGINT)
                    = (SELECT min(CAST(floor(l2.l_extendedprice * 100
                                             + 0.5) AS BIGINT))
                       FROM lineitem l2
                       WHERE l2.l_partkey = l.l_partkey))
            SELECT CAST(floor(s.s_acctbal * 100 + 0.5) AS BIGINT)
                     AS s_acctbal_cents,
                   s.s_name, n.n_name, f.p_partkey, f.cost_cents
            FROM f
            JOIN supplier s ON f.l_suppkey = s.s_suppkey
            JOIN nation n ON s.s_nationkey = n.n_nationkey
            ORDER BY s_acctbal_cents DESC, n.n_name, s.s_name,
                     f.p_partkey
            LIMIT 100
        """,
        "rel_suppcnt": """
            SELECT p_brand, p_type, CAST(p_size AS BIGINT) AS p_size,
                   CAST(count(DISTINCT l_suppkey) AS BIGINT)
                     AS supplier_cnt
            FROM lineitem JOIN part ON l_partkey = p_partkey
            WHERE p_brand <> 'Brand#1'
              AND p_size IN (5, 11, 20, 28, 37, 42, 49, 3)
              AND l_suppkey NOT IN (SELECT s_suppkey FROM supplier
                                    WHERE s_acctbal < 0)
            GROUP BY 1, 2, 3
        """,
        "rel_dominant": """
            WITH q AS (
              SELECT l_partkey, l_suppkey,
                     CAST(sum(CAST(floor(l_quantity * 100 + 0.5)
                                   AS BIGINT)) AS BIGINT) AS sq
              FROM lineitem
              WHERE l_shipdate >= TIMESTAMP '1997-01-01'
                AND l_shipdate <  TIMESTAMP '1998-01-01'
                AND l_partkey IN (SELECT p_partkey FROM part
                                  WHERE p_name LIKE '%bolt%')
              GROUP BY 1, 2),
            t AS (SELECT l_partkey, sum(sq) AS tq FROM q GROUP BY 1)
            SELECT s.s_name,
                   CAST(floor(s.s_acctbal * 100 + 0.5) AS BIGINT)
                     AS s_acctbal_cents
            FROM supplier s
            WHERE s.s_suppkey IN (
              SELECT q.l_suppkey FROM q
              JOIN t ON q.l_partkey = t.l_partkey
              WHERE q.sq * 100 > t.tq * 20)
            ORDER BY s.s_name
        """,
        "events_dcount": """
            SELECT make_timestamp((epoch_us(ts) // 3600000000)
                                  * 3600000000) AS window_start,
                   event_type,
                   CAST(count(DISTINCT user_id) AS BIGINT) AS n_users
            FROM events
            GROUP BY 1, 2
        """,
        "events_moving": """
            SELECT user_id, event_id,
                   CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT))
                        OVER w AS BIGINT) AS mov_sum_cents,
                   CAST(count(*) OVER w AS BIGINT) AS mov_n
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                         ROWS BETWEEN 3 PRECEDING AND CURRENT ROW)
        """,
        "events_streaks": """
            WITH d AS (
              SELECT DISTINCT user_id,
                     epoch_us(ts) // 86400000000 AS day
              FROM events),
            g AS (
              SELECT user_id, day,
                     day - row_number() OVER (PARTITION BY user_id
                                              ORDER BY day) AS grp
              FROM d),
            r AS (SELECT user_id, grp, count(*) AS len
                  FROM g GROUP BY 1, 2)
            SELECT user_id, CAST(sum(len) AS BIGINT) AS n_days,
                   CAST(max(len) AS BIGINT) AS longest_streak
            FROM r GROUP BY 1
        """,
        "events_mode": """
            WITH c AS (
              SELECT event_type,
                     CAST(floor(value * 100 + 0.5) AS BIGINT) AS v,
                     count(*) AS n
              FROM events
              WHERE value IS NOT NULL AND NOT isnan(value)
              GROUP BY 1, 2),
            m AS (SELECT event_type, max(n) AS mx FROM c GROUP BY 1)
            SELECT c.event_type,
                   CAST(min(c.v) AS BIGINT) AS mode_cents,
                   CAST(m.mx AS BIGINT) AS n_mode
            FROM c JOIN m ON c.event_type = m.event_type
                         AND c.n = m.mx
            GROUP BY c.event_type, m.mx
        """,
        "events_firstlast": """
            WITH o AS (
              SELECT user_id, event_id,
                     CAST(floor(value * 100 + 0.5) AS BIGINT) AS c,
                     row_number() OVER (PARTITION BY user_id
                                        ORDER BY ts, event_id) AS rn_a,
                     row_number() OVER (PARTITION BY user_id
                                        ORDER BY ts DESC,
                                                 event_id DESC) AS rn_d,
                     count(*) OVER (PARTITION BY user_id) AS n
              FROM events)
            SELECT a.user_id, CAST(a.n AS BIGINT) AS n_events,
                   a.event_id AS first_id,
                   a.c AS first_value_cents,
                   d.event_id AS last_id,
                   d.c AS last_value_cents
            FROM o a JOIN o d ON a.user_id = d.user_id
            WHERE a.rn_a = 1 AND d.rn_d = 1
        """,
        "rel_unpivot": """
            WITH q1 AS (
              SELECT l_returnflag, l_linestatus,
                     CAST(sum(CAST(floor(l_quantity * 100 + 0.5)
                                   AS BIGINT)) AS BIGINT)
                       AS sum_qty_cents,
                     CAST(sum(CAST(floor(l_extendedprice * 100 + 0.5)
                                   AS BIGINT)) AS BIGINT)
                       AS sum_price_cents,
                     CAST(sum(CAST(floor(l_discount * 100 + 0.5)
                                   AS BIGINT)) AS BIGINT)
                       AS sum_disc_cents
              FROM lineitem
              WHERE l_shipdate <= TIMESTAMP '1998-09-01'
              GROUP BY 1, 2)
            SELECT l_returnflag, l_linestatus,
                   'sum_qty_cents' AS measure,
                   sum_qty_cents AS value_cents FROM q1
            UNION ALL
            SELECT l_returnflag, l_linestatus, 'sum_price_cents',
                   sum_price_cents FROM q1
            UNION ALL
            SELECT l_returnflag, l_linestatus, 'sum_disc_cents',
                   sum_disc_cents FROM q1
        """,
        "rel_intersect": """
            SELECT c_custkey, c_name FROM customer
            WHERE c_custkey IN (
              SELECT o_custkey FROM orders
              WHERE year(o_orderdate) = 1996
              INTERSECT
              SELECT o_custkey FROM orders
              WHERE year(o_orderdate) = 1997)
        """,
        "kg_assortativity": f"""
            WITH {_term_docs()}, {_cooc_pairs()}, {_sym_edges()},
            {_DEGREES},
            xy AS (SELECT da.d AS x, db.d AS y
                   FROM ed JOIN deg da ON da.v = ed.s
                           JOIN deg db ON db.v = ed.t),
            m AS (SELECT CAST(count(*) AS BIGINT) AS n,
                         CAST(sum(x) AS BIGINT) AS sx,
                         CAST(sum(y) AS BIGINT) AS sy,
                         CAST(sum(x * y) AS BIGINT) AS sxy,
                         CAST(sum(x * x) AS BIGINT) AS sx2,
                         CAST(sum(y * y) AS BIGINT) AS sy2
                  FROM xy)
            SELECT n AS n_directed,
                   {_PEARSON_PPM} AS corr_ppm
            FROM m
        """,
        "events_corr": f"""
            WITH m AS (
              SELECT event_type,
                     CAST(count(*) AS BIGINT) AS n,
                     CAST(sum((epoch_us(ts) // 3600000000) % 24)
                          AS BIGINT) AS sx,
                     CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT))
                          AS BIGINT) AS sy,
                     CAST(sum(((epoch_us(ts) // 3600000000) % 24)
                              * CAST(floor(value * 100 + 0.5) AS BIGINT))
                          AS BIGINT) AS sxy,
                     CAST(sum(((epoch_us(ts) // 3600000000) % 24)
                              * ((epoch_us(ts) // 3600000000) % 24))
                          AS BIGINT) AS sx2,
                     CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT)
                              * CAST(floor(value * 100 + 0.5) AS BIGINT))
                          AS BIGINT) AS sy2
              FROM events GROUP BY event_type)
            SELECT event_type, n, sx AS sum_x, sy AS sum_y,
                   sxy AS sum_xy,
                   {_PEARSON_PPM} AS corr_ppm
            FROM m
        """,
        "rel_global_sales": """
            WITH bal AS (
              SELECT c_custkey, c_nationkey,
                     CAST(floor(c_acctbal * 100 + 0.5) AS BIGINT)
                       AS bal_c
              FROM customer),
            a AS (
              SELECT CAST(coalesce(sum(CASE WHEN bal_c > 0
                                            THEN bal_c END), 0)
                          AS BIGINT) AS s,
                     greatest(count(CASE WHEN bal_c > 0 THEN 1 END), 1)
                       AS n
              FROM bal),
            sel AS (
              SELECT b.c_nationkey, b.bal_c
              FROM bal b, a
              WHERE b.bal_c * a.n > a.s
                AND NOT EXISTS (SELECT 1 FROM orders o
                                WHERE o.o_custkey = b.c_custkey
                                  AND o.o_orderdate >=
                                      TIMESTAMP '1999-01-01'))
            SELECT nn.n_name AS cntry,
                   CAST(count(*) AS BIGINT) AS numcust,
                   CAST(sum(sel.bal_c) AS BIGINT) AS totacctbal_cents
            FROM sel JOIN nation nn
              ON sel.c_nationkey = nn.n_nationkey
            GROUP BY 1
        """,
        # EXACT twin of kgx/ops/window.py:throttle_dedup: the recursive
        # CTE emits, per key, each survivor's NEXT survivor (first rn by
        # (ts, event_id) whose ts clears last_kept + gap) — the same
        # jump walk the Ray group scan does with searchsorted.
        "events_throttle": """
            WITH RECURSIVE ord AS (
              SELECT user_id, event_id, ts,
                     row_number() OVER (PARTITION BY user_id
                                        ORDER BY ts, event_id) AS rn
              FROM events),
            kept AS (
              SELECT user_id, event_id, ts, rn FROM ord WHERE rn = 1
              UNION ALL
              SELECT o.user_id, o.event_id, o.ts, o.rn
              FROM kept k JOIN ord o ON o.user_id = k.user_id
              WHERE o.rn = (SELECT min(rn) FROM ord o2
                            WHERE o2.user_id = k.user_id
                              AND o2.ts >= k.ts
                                  + INTERVAL 604800 SECOND)
            )
            SELECT user_id, event_id, ts FROM kept
        """,
        "events_rank": """
            WITH e AS (
              SELECT user_id, event_id,
                     CAST(floor(value * 100 + 0.5) AS BIGINT)
                       AS value_cents
              FROM events)
            SELECT user_id, event_id, value_cents,
                   CAST(rank() OVER w AS BIGINT) AS rnk,
                   CAST(dense_rank() OVER w AS BIGINT) AS dense_rnk,
                   CAST(floor((rank() OVER w - 1) * 1000000.0
                        / greatest(count(*) OVER
                            (PARTITION BY user_id) - 1, 1))
                        AS BIGINT) AS prank_ppm,
                   CAST(ntile(4) OVER w2 AS BIGINT) AS tile
            FROM e
            WINDOW w AS (PARTITION BY user_id
                         ORDER BY value_cents DESC),
                   w2 AS (PARTITION BY user_id
                          ORDER BY value_cents DESC, event_id)
        """,
        "rel_running": """
            SELECT o_custkey, o_orderkey,
                   CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)
                     AS total_cents,
                   CAST(sum(CAST(floor(o_totalprice * 100 + 0.5)
                                 AS BIGINT)) OVER (
                     PARTITION BY o_custkey
                     ORDER BY o_orderdate, o_orderkey
                     ROWS UNBOUNDED PRECEDING) AS BIGINT)
                     AS running_cents
            FROM orders
            WHERE o_orderdate >= TIMESTAMP '1996-01-01'
              AND o_orderdate <  TIMESTAMP '1996-07-01'
        """,
        "events_lag": """
            SELECT event_id, user_id,
                   lag(event_id) OVER w AS prev_event_id,
                   (epoch_us(ts) - lag(epoch_us(ts)) OVER w) // 1000000
                     AS gap_s
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
        """,
        "rel_returns": f"""
            WITH agg AS (
              SELECT o.o_custkey AS c_custkey,
                     CAST(sum(
                       {_rev_units("l.")}) AS BIGINT)
                       AS revenue_units
              FROM orders o
              JOIN lineitem l ON l.l_orderkey = o.o_orderkey
              WHERE l.l_returnflag = 'R'
                AND o.o_orderdate >= TIMESTAMP '1996-01-01'
                AND o.o_orderdate <  TIMESTAMP '1996-04-01'
              GROUP BY 1)
            SELECT a.c_custkey, c.c_name, n.n_name, a.revenue_units
            FROM agg a
            JOIN customer c ON c.c_custkey = a.c_custkey
            JOIN nation n ON n.n_nationkey = c.c_nationkey
            ORDER BY a.revenue_units DESC, a.c_custkey
            LIMIT 20
        """,
        "rel_forecast": """
            SELECT CAST(coalesce(sum(
                     CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)
                     * CAST(floor(l_discount * 100 + 0.5) AS BIGINT)), 0)
                   AS BIGINT) AS revenue_units,
                   CAST(count(*) AS BIGINT) AS n_items
            FROM lineitem
            WHERE l_shipdate >= TIMESTAMP '1996-01-01'
              AND l_shipdate <  TIMESTAMP '1997-01-01'
              AND CAST(floor(l_discount * 100 + 0.5) AS BIGINT)
                    BETWEEN 5 AND 7
              AND l_quantity < 24.0
        """,
        "rel_big_orders": """
            WITH t AS (
              SELECT l_orderkey,
                     CAST(sum(CAST(floor(l_quantity * 100 + 0.5) AS BIGINT))
                          AS BIGINT) AS qty_cents
              FROM lineitem GROUP BY l_orderkey
              HAVING sum(CAST(floor(l_quantity * 100 + 0.5) AS BIGINT))
                       > 25000)
            SELECT o.o_orderkey, o.o_custkey,
                   CAST(floor(o.o_totalprice * 100 + 0.5) AS BIGINT)
                     AS o_totalprice_cents,
                   epoch_us(o.o_orderdate) AS o_orderdate,
                   t.qty_cents, c.c_name
            FROM t JOIN orders o ON o.o_orderkey = t.l_orderkey
                   JOIN customer c ON c.c_custkey = o.o_custkey
            ORDER BY t.qty_cents DESC, o.o_orderkey
            LIMIT 100
        """,
        "text_pii": f"""
            WITH aug AS (
              SELECT doc_id,
                     text || ' contact u' || CAST(doc_id AS VARCHAR)
                          || '@ex' || CAST(doc_id % 7 AS VARCHAR)
                          || '.org at 10.0.'
                          || CAST(doc_id % 251 AS VARCHAR) || '.'
                          || CAST(doc_id % 97 AS VARCHAR)
                          || ' tel 415-555-'
                          || lpad(CAST(doc_id % 10000 AS VARCHAR), 4, '0')
                       AS t
              FROM documents),
            s1 AS (
              SELECT doc_id,
                     CAST(len(regexp_extract_all(t, '{_EMAIL_RE}'))
                          AS BIGINT) AS n_emails,
                     regexp_replace(t, '{_EMAIL_RE}', '<EMAIL>', 'g') AS t
              FROM aug),
            s2 AS (
              SELECT doc_id, n_emails,
                     CAST(len(regexp_extract_all(t, '{_IPV4_RE}'))
                          AS BIGINT) AS n_ips,
                     regexp_replace(t, '{_IPV4_RE}', '<IP>', 'g') AS t
              FROM s1),
            s3 AS (
              SELECT doc_id, n_emails, n_ips,
                     CAST(len(regexp_extract_all(t, '{_PHONE_RE}'))
                          AS BIGINT) AS n_phones,
                     regexp_replace(t, '{_PHONE_RE}', '<PHONE>', 'g') AS t
              FROM s2)
            SELECT doc_id, t AS text_clean, n_emails, n_ips, n_phones
            FROM s3
        """,
        "text_winnow": f"""
            WITH tk AS (
              SELECT doc_id, regexp_extract_all(text, '\\S+') AS t
              FROM documents),
            gr AS (
              SELECT doc_id, i,
                     md5(array_to_string(t[i:(i + 2)], ' ')) AS hx
              FROM (SELECT doc_id, t,
                           unnest(generate_series(1, len(t) - 2)) AS i
                    FROM tk)),
            hs AS (
              SELECT doc_id, i,
                     CAST({_hex_int("hx", 8)}
                          AS BIGINT) AS v
              FROM gr),
            nh AS (SELECT doc_id, count(*) AS ch FROM hs GROUP BY doc_id),
            mins AS (
              SELECT h.doc_id, h.i, nh.ch,
                     min(h.v) OVER (PARTITION BY h.doc_id ORDER BY h.i
                                    ROWS BETWEEN CURRENT ROW
                                    AND 3 FOLLOWING) AS m
              FROM hs h JOIN nh USING (doc_id)),
            sel AS (
              SELECT doc_id, m FROM mins
              WHERE (ch <= 4 AND i = 1) OR (ch > 4 AND i <= ch - 3)),
            agg AS (
              SELECT doc_id,
                     CAST(count(DISTINCT m) AS BIGINT) AS n_fingerprints,
                     min(m) AS fp_min, max(m) AS fp_max,
                     CAST(sum(DISTINCT m) AS BIGINT) AS fp_sum
              FROM sel GROUP BY doc_id)
            SELECT d.doc_id,
                   coalesce(a.n_fingerprints, 0) AS n_fingerprints,
                   a.fp_min, a.fp_max, a.fp_sum
            FROM documents d LEFT JOIN agg a USING (doc_id)
        """,
        "text_span_dup": """
            WITH dt AS (
              SELECT doc_id,
                     regexp_extract_all(lower(trim(text)), '\\S+') AS toks
              FROM documents WHERE trim(text) <> ''),
            dw AS (
              SELECT doc_id, len(toks) - 15 AS n_win, toks
              FROM dt WHERE len(toks) >= 16),
            pos AS (
              SELECT doc_id,
                     unnest(generate_series(1, n_win)) AS i, toks
              FROM dw),
            w AS (
              SELECT doc_id, i,
                     array_to_string(toks[i:i + 15], ' ') AS win
              FROM pos),
            r AS (
              SELECT doc_id,
                     row_number() OVER (
                       PARTITION BY win ORDER BY doc_id, i) AS rn
              FROM w),
            d AS (
              SELECT doc_id, count(*) FILTER (WHERE rn > 1) AS dup
              FROM r GROUP BY doc_id)
            SELECT dw.doc_id, dw.n_win AS n_windows,
                   coalesce(d.dup, 0) AS n_dup_windows,
                   coalesce(d.dup, 0) * 1000000 // dw.n_win AS dup_ppm
            FROM dw LEFT JOIN d USING (doc_id)
        """,
        "text_perplexity": """
            WITH dt AS (
              SELECT doc_id,
                     regexp_extract_all(lower(trim(text)), '\\S+') AS toks
              FROM documents WHERE trim(text) <> ''),
            bg AS (
              SELECT doc_id,
                     unnest(toks[1:len(toks) - 1]) AS w1,
                     unnest(toks[2:len(toks)]) AS w2
              FROM dt WHERE len(toks) >= 2),
            tbg AS (
              SELECT w1, w2, count(*) AS c12 FROM bg
              WHERE doc_id % 4 = 0 GROUP BY 1, 2),
            tctx AS (
              SELECT w1, CAST(sum(c12) AS BIGINT) AS c1
              FROM tbg GROUP BY 1),
            tv AS (
              SELECT count(DISTINCT tok) AS v FROM (
                SELECT unnest(toks) AS tok FROM dt
                WHERE doc_id % 4 = 0)),
            scored AS (
              SELECT b.doc_id,
                     CASE
                       WHEN t.c12 IS NOT NULL THEN
                         CAST(floor(ln((t.c12 + 1.0) / (x.c1 + v.v))
                                    * 1000000 + 0.5) AS BIGINT)
                       WHEN x.c1 IS NOT NULL THEN
                         CAST(floor(ln(1.0 / (x.c1 + v.v))
                                    * 1000000 + 0.5) AS BIGINT)
                       ELSE
                         CAST(floor(ln(1.0 / v.v)
                                    * 1000000 + 0.5) AS BIGINT)
                     END AS lpm
              FROM bg b
              LEFT JOIN tbg t ON t.w1 = b.w1 AND t.w2 = b.w2
              LEFT JOIN tctx x ON x.w1 = b.w1
              CROSS JOIN tv v)
            SELECT doc_id, count(*) AS n_bigrams,
                   CAST(floor(CAST(sum(lpm) AS DOUBLE) / count(*))
                     AS BIGINT) AS mean_logprob_micro
            FROM scored GROUP BY doc_id
        """,
        "text_logprob": """
            WITH toks AS (
              SELECT doc_id,
                     unnest(regexp_extract_all(lower(trim(text)), '\\S+'))
                       AS tok
              FROM documents WHERE trim(text) <> ''),
            cnt AS (SELECT tok, count(*) AS c FROM toks GROUP BY tok),
            tot AS (SELECT CAST(sum(c) AS BIGINT) AS t,
                           count(*) AS v FROM cnt),
            lp AS (SELECT tok,
                          CAST(floor(ln((c + 1.0) / (t + v)) * 1000000
                                     + 0.5) AS BIGINT) AS lpm
                   FROM cnt, tot),
            d AS (SELECT doc_id, count(*) AS n, sum(lpm) AS s
                  FROM toks JOIN lp USING (tok) GROUP BY doc_id)
            SELECT doc_id, n AS n_tokens,
                   CAST(floor(CAST(s AS DOUBLE) / n) AS BIGINT)
                     AS mean_logprob_micro
            FROM d
        """,
        "multimodal_frames": f"""
            WITH m AS (
              SELECT 'doc-' || doc_id AS media_id, md5(text) AS h
              FROM documents),
            d AS (
              SELECT media_id,
                     1000 + ({_hex_int("h", 8)}) % 59000 AS duration_ms
              FROM m),
            f AS (SELECT media_id, duration_ms,
                         unnest(generate_series(0, 1)) AS i
                  FROM d)
            SELECT media_id, CAST(i AS INT) AS frame_index,
                   CAST((duration_ms * i) // 2 AS BIGINT) AS frame_ts_ms
            FROM f
        """,
        "events_quantile_by_type": """
            WITH v AS (
              SELECT event_type,
                     CAST(floor(value * 100 + 0.5) AS BIGINT) AS c
              FROM events
              WHERE value IS NOT NULL AND NOT isnan(value)),
            r AS (
              SELECT event_type, c,
                     row_number() OVER (PARTITION BY event_type
                                        ORDER BY c) - 1 AS rk,
                     count(*) OVER (PARTITION BY event_type) AS n
              FROM v)
            SELECT event_type, max(n) AS n,
                   CAST(max(CASE WHEN rk = CAST(floor(0.5 * (n - 1))
                                               AS BIGINT)
                                 THEN c END) AS BIGINT) AS q50_cents,
                   CAST(max(CASE WHEN rk = CAST(floor(0.9 * (n - 1))
                                               AS BIGINT)
                                 THEN c END) AS BIGINT) AS q90_cents,
                   CAST(max(CASE WHEN rk = CAST(floor(0.99 * (n - 1))
                                               AS BIGINT)
                                 THEN c END) AS BIGINT) AS q99_cents
            FROM r GROUP BY event_type
        """,
        "text_repetition": """
            WITH toks AS (
              SELECT doc_id, string_split(text, ' ') AS tk FROM documents),
            bi AS (
              SELECT doc_id, tk[i] || ' ' || tk[i+1] AS g
              FROM (SELECT doc_id, tk,
                           unnest(generate_series(1, len(tk) - 1)) AS i
                    FROM toks)),
            bc AS (SELECT doc_id, g, count(*) AS c FROM bi GROUP BY 1, 2),
            bs AS (SELECT doc_id, CAST(sum(c) AS BIGINT) AS n,
                          CAST(max(c) AS BIGINT) AS m
                   FROM bc GROUP BY doc_id),
            tri AS (
              SELECT doc_id, tk[i] || ' ' || tk[i+1] || ' ' || tk[i+2] AS g
              FROM (SELECT doc_id, tk,
                           unnest(generate_series(1, len(tk) - 2)) AS i
                    FROM toks)),
            tc AS (SELECT doc_id, g, count(*) AS c FROM tri GROUP BY 1, 2),
            ts AS (SELECT doc_id, CAST(sum(c) AS BIGINT) AS n,
                          CAST(max(c) AS BIGINT) AS m
                   FROM tc GROUP BY doc_id)
            SELECT d.doc_id,
                   coalesce(bs.n, 0) AS n_bigrams,
                   CAST(CASE WHEN coalesce(bs.n, 0) = 0 THEN 0
                             ELSE (bs.m * 1000000) // bs.n END AS BIGINT)
                     AS top_bigram_ppm,
                   coalesce(ts.n, 0) AS n_trigrams,
                   CAST(CASE WHEN coalesce(ts.n, 0) = 0 THEN 0
                             ELSE (ts.m * 1000000) // ts.n END AS BIGINT)
                     AS top_trigram_ppm
            FROM documents d
            LEFT JOIN bs ON d.doc_id = bs.doc_id
            LEFT JOIN ts ON d.doc_id = ts.doc_id
        """,
        "text_mix": f"""
            WITH h AS (
              SELECT doc_id, source,
                     md5(CAST(doc_id AS VARCHAR)) AS hx
              FROM documents),
            b AS (
              SELECT doc_id, source,
                     CAST({_hex_int("hx", 4)}
                          AS BIGINT) AS bucket16
              FROM h)
            SELECT doc_id, source, bucket16,
                   bucket16 < CASE source
                                WHEN 'src0' THEN 16384
                                WHEN 'src1' THEN 16384
                                WHEN 'src2' THEN 32768
                                WHEN 'src3' THEN 49152
                                ELSE 58982 END AS keep
            FROM b
        """,
        "embed_negatives": f"""
            WITH {_negatives(4)}
            SELECT vec_id, j, neg_id FROM neg
        """,
        "embed_triplets": f"""
            WITH {_EMB}, {_KNN},
            pos AS (
              SELECT vec_id, neighbor_id AS pos_id, score AS pos_score
              FROM kn WHERE rank = 1),
            {_negatives(2)}
            SELECT p.vec_id, p.pos_id, p.pos_score, ng.j, ng.neg_id
            FROM pos p JOIN neg ng USING (vec_id)
        """,
        "simsearch_knn": f"""
            WITH {_EMB}, {_KNN}
            SELECT vec_id, neighbor_id, score, rank FROM kn WHERE rank <= 3
        """,
        "text_quality_gate": f"""
            WITH {_quality_gate("documents")}
            SELECT doc_id, source, quality_score_ppm, threshold_ppm,
                   quality_score_ppm >= threshold_ppm AS keep
            FROM qg
        """,
        "text_curate": _curate_oracle(),
        "text_boilerplate": f"""
            WITH {_boilerplate_segs("documents")}
            SELECT doc_id,
                   string_agg(CASE WHEN NOT boiler THEN seg END, ' '
                              ORDER BY seg_no) AS text_clean,
                   CAST(count(*) AS BIGINT) AS n_segs,
                   CAST(sum(CASE WHEN boiler THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_removed
            FROM bseg GROUP BY doc_id
        """,
        "embed_kmeans": _kmeans_oracle(k=_KMEANS_K, iters=_KMEANS_ITERS),
        "dedup_semantic": _semdedup_oracle(k=_KMEANS_K, iters=_KMEANS_ITERS,
                                           tau=_SEMDEDUP_TAU),
        "embed_sample": _cluster_sample_oracle(
            k=_KMEANS_K, iters=_KMEANS_ITERS, cap=_SAMPLE_CAP),
        # centroid = per-dim mean rounded 6dp (the kmeans device); dist
        # rounded 6dp per vector, mean rounded 4dp
        "embed_labels": f"""
            WITH {_EMB},
            cm AS (
              SELECT label, i, round(avg(x), 6) AS m
              FROM (SELECT label, unnest(v) AS x,
                           unnest(range(1, len(v) + 1)) AS i FROM e)
              GROUP BY label, i),
            cent AS (SELECT label, list(m ORDER BY i) AS cv
                     FROM cm GROUP BY label),
            nrm AS (SELECT label, round(sqrt(sum(m * m)), 6)
                      AS centroid_norm FROM cm GROUP BY label),
            d AS (
              SELECT e.label,
                     round(list_distance(e.v, c.cv), 6) AS dist
              FROM e JOIN cent c USING (label)),
            s AS (
              SELECT label, CAST(count(*) AS BIGINT) AS n_vecs,
                     round(sum(dist) / count(*), 4) AS mean_dist
              FROM d GROUP BY label)
            SELECT s.label, s.n_vecs, nrm.centroid_norm, s.mean_dist
            FROM s JOIN nrm USING (label)
        """,
        "dedup_lines": f"""
            WITH {_dup_segs("documents")}
            SELECT doc_id,
                   string_agg(CASE WHEN rn = 1 THEN seg END, ' '
                              ORDER BY seg_no) AS text_dedup,
                   count(*) AS n_segs,
                   CAST(sum(CASE WHEN rn > 1 THEN 1 ELSE 0 END) AS BIGINT)
                     AS n_dropped
            FROM dranked GROUP BY doc_id
        """,
    }
