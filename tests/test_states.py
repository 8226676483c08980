"""Pins the contracts of the one fused-state KG finalize.

Every KG output is built by kgx.functions.fold: one ``ds.sort(key)``
plus one pass over each whole sorted block.  That relies
on the sort's range partitioning putting every row of a key into ONE
block, however skewed the key is; the fold tests below pin that with a
hot key holding over half the rows.  If a Ray upgrade ever breaks it,
these tests fail.  The fold also sizes its own input: at most one block
per Ray CPU, never a split block, never a block above the size target.
The streaming and checkpointed compositions must emit equal tables, the
written tables carry one Parquet row group per block rather than per
key, and every entry point refuses the hash shuffle.
"""

import numpy as np
import pytest
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from kgx.functions.fold import key_runs, map_sorted_blocks


def _concat(ds) -> pa.Table:
    return pa.concat_tables(
        list(ds.iter_batches(batch_size=None, batch_format="pyarrow")))


def _check_hot_key_fold(tbl: pa.Table, key: list, hot: tuple):
    """Fold ``tbl`` (spread over 17 input blocks) on ``key``, one row per
    run of equal keys in each sorted block: the hot key is one run that
    holds all its rows, no key shows up in two output blocks, and the
    output is key-sorted."""
    assert tbl.num_rows == 40000
    ds = rd.from_arrow(tbl).repartition(17)
    schema = pa.schema([tbl.schema.field(k) for k in key]
                       + [("n", pa.int64()), ("s", pa.int64())])

    def fold(block: pa.Table) -> pa.Table:
        runs = key_runs(block, key)
        return block.select(key).take(runs[:-1]).append_column(
            "n", pa.array(np.diff(runs))).append_column(
            "s", pa.array(np.add.reduceat(block["v"].to_numpy(),
                                          runs[:-1])))

    blocks = list(map_sorted_blocks(ds, key, fold, schema).iter_batches(
        batch_size=None, batch_format="pyarrow"))
    seen: set = set()
    for b in blocks:
        ks = set(zip(*(b[k].to_pylist() for k in key)))
        assert not ks & seen          # no key in two blocks
        seen |= ks
    out = pa.concat_tables(blocks)
    got = list(zip(*(out[k].to_pylist() for k in key)))
    assert got == sorted(got) and len(got) == len(set(got))
    mask = np.ones(tbl.num_rows, dtype=bool)
    for k, h in zip(key, hot):
        mask &= np.asarray(tbl[k].to_pylist(), dtype=object) == h
    n_hot = int(mask.sum())
    assert n_hot >= tbl.num_rows // 2
    hot_rows = [r for r in out.to_pylist()
                if tuple(r[k] for k in key) == hot]
    assert len(hot_rows) == 1           # one run ...
    assert hot_rows[0]["n"] == n_hot     # ... that holds every hot row
    assert sum(out["n"].to_pylist()) == tbl.num_rows
    assert sum(out["s"].to_pylist()) == int(pc.sum(tbl["v"]).as_py())


def test_map_sorted_blocks_hot_key_one_run(ray_session):
    rng = np.random.default_rng(11)
    ks = rng.integers(0, 4000, 40000)
    ks[rng.random(40000) < 0.55] = 1234
    keys = [f"k{int(x):05d}" for x in ks]
    tbl = pa.table({"k": keys, "v": rng.integers(0, 100, 40000)})
    _check_hot_key_fold(tbl, ["k"], ("k01234",))


def test_map_sorted_blocks_multikey_hot_key_one_run(ray_session):
    """Multi-column key: the hot (a, b) pair shares its ``a`` with many
    other pairs, so only the full sort key keeps it together."""
    rng = np.random.default_rng(12)
    a = rng.integers(0, 20, 40000)
    b = rng.integers(0, 200, 40000)
    hot = rng.random(40000) < 0.55
    a[hot], b[hot] = 3, 17
    tbl = pa.table({"a": [f"a{int(x):02d}" for x in a],
                    "b": [f"b{int(x):03d}" for x in b],
                    "v": rng.integers(0, 100, 40000)})
    _check_hot_key_fold(tbl, ["a", "b"], ("a03", "b017"))


def _fold_blocks(ds, key: str) -> int:
    def firsts(b: pa.Table) -> pa.Table:
        return b.take(key_runs(b, [key])[:-1])

    return map_sorted_blocks(ds, key, firsts, ds.schema().base_schema) \
        .materialize().num_blocks()


def _ncpu() -> int:
    import ray
    return int(ray.cluster_resources()["CPU"])


def test_fold_input_coalesces_to_ncpu(ray_session):
    """The fold coalesces its 17 input blocks to at most one per CPU."""
    tbl = pa.table({"k": [f"k{i % 500:03d}" for i in range(40000)]})
    assert _fold_blocks(rd.from_arrow(tbl).repartition(17), "k") <= _ncpu()


def test_fold_input_never_split(ray_session):
    tbl = pa.table({"k": [f"k{i % 500:03d}" for i in range(40000)]})
    assert _fold_blocks(rd.from_arrow(tbl), "k") == 1


def test_stream_kg_tables_at_most_one_block_per_cpu(smoke_corpus,
                                                    ray_session):
    from kgx.pipelines.kg import KGConfig, stream_kg

    tables = stream_kg(smoke_corpus["pages"], KGConfig())
    for name in ("nodes", "edges"):
        assert tables[name].materialize().num_blocks() <= _ncpu(), name


def test_stream_kg_tables_arrive_key_sorted(smoke_corpus, ray_session):
    """End-to-end: the no-trailing-sort tails still emit entity_id-sorted
    nodes, (subj, pred, obj)-sorted edges (the S2 output contract)."""
    from kgx.pipelines.kg import KGConfig, stream_kg

    tables = stream_kg(smoke_corpus["pages"], KGConfig())
    nodes = _concat(tables["nodes"])
    ids = nodes["entity_id"].to_pylist()
    assert ids == sorted(ids) and len(ids) == len(set(ids))
    edges = _concat(tables["edges"])
    spo = list(zip(edges["subj_id"].to_pylist(), edges["pred"].to_pylist(),
                   edges["obj_id"].to_pylist()))
    assert spo == sorted(spo) and len(spo) == len(set(spo))


@pytest.fixture(scope="module")
def recrawl_corpus(smoke_corpus, tmp_path_factory):
    """The smoke corpus plus a newer snapshot of every fourth url, whose
    page is the next url's page."""
    import os

    import pyarrow.parquet as pq

    pages = pq.read_table(smoke_corpus["pages"])
    old = list(range(0, pages.num_rows - 1, 4))
    new = pages.take(old)
    for col in ("html", "text"):
        new = new.set_column(new.schema.get_field_index(col), col,
                             pages[col].take([i + 1 for i in old]))
    ts = pc.cast(pc.add(pc.cast(new["warc_ts"], pa.int64()), 86_400_000_000),
                 new.schema.field("warc_ts").type)
    new = new.set_column(new.schema.get_field_index("warc_ts"), "warc_ts", ts)
    root = str(tmp_path_factory.mktemp("recrawl_pages"))
    pq.write_table(pages, os.path.join(root, "part-0.parquet"))
    pq.write_table(new, os.path.join(root, "part-1.parquet"))
    return {"pages": root}


@pytest.mark.parametrize("corpus, cfg_kw", [
    pytest.param("smoke_corpus", {"extractor": "gazetteer"}, id="gazetteer"),
    pytest.param("smoke_corpus", {"extractor": "term"}, id="term"),
    pytest.param("recrawl_corpus", {"dedup_recrawls": True},
                 id="dedup_recrawls"),
    pytest.param("smoke_corpus", {"lang_filter": "en"}, id="lang_filter"),
])
def test_stream_kg_equals_run_pipeline(request, ray_session, tmp_path_factory,
                                       corpus, cfg_kw):
    """Both compositions finalize nodes and edges from the same fused
    states (kgx.pipelines.kg), so their tables are equal value for value,
    not just in names and counts — under every page-selection option
    too.  The language-filtered tables also equal the sequential
    oracle's."""
    import pyarrow.parquet as pq

    from kgx.oracle import run_oracle
    from kgx.pipelines.kg import KGConfig, run_pipeline, stream_kg

    pages = request.getfixturevalue(corpus)["pages"]
    cfg = KGConfig(**cfg_kw)
    streamed = stream_kg(pages, cfg)
    paths = run_pipeline(pages, str(tmp_path_factory.mktemp("parity")), cfg)
    oracle = (run_oracle(pq.read_table(pages), lang_filter=cfg.lang_filter)
              if cfg.lang_filter else None)
    for name, key in (("nodes", ["entity_id"]),
                      ("edges", ["subj_id", "pred", "obj_id"])):
        order = [(k, "ascending") for k in key]
        s = _concat(streamed[name]).sort_by(order)
        c = pq.read_table(paths[name]).sort_by(order)
        assert s.num_rows > 0
        assert s.equals(c), name
        if oracle is not None:
            assert c.to_pylist() == oracle[name].sort_by(order).to_pylist()


def test_hash_shuffle_refused_before_execution(ray_session, tmp_path):
    """HASH_SHUFFLE groupbys hang at low CPU counts on this Ray version:
    every KG entry point refuses it before any Dataset executes."""
    from ray.data.context import ShuffleStrategy

    from kgx.pipelines.kg import run_pipeline, stream_kg, update_pipeline

    ctx = rd.DataContext.get_current()
    saved = ctx.shuffle_strategy
    missing = str(tmp_path / "no_such_pages")
    ctx.shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE
    try:
        # the input path does not exist, so reaching any read would raise
        # something other than the ValueError
        for run in (lambda: stream_kg(missing),
                    lambda: run_pipeline(missing, str(tmp_path / "a")),
                    lambda: update_pipeline(missing, str(tmp_path / "b"))):
            with pytest.raises(ValueError, match="HASH_SHUFFLE"):
                run()
        assert not (tmp_path / "a").exists()
    finally:
        ctx.shuffle_strategy = saved


def test_stream_kg_parquet_one_row_group_per_file(smoke_corpus, ray_session,
                                                  tmp_path):
    """The folds build one table per block, so written nodes and edges
    carry no more Parquet row groups than files (a per-key reducer wrote
    one row group per key)."""
    import glob

    import pyarrow.parquet as pq

    from kgx.pipelines.kg import KGConfig, stream_kg

    tables = stream_kg(smoke_corpus["pages"], KGConfig())
    for name in ("nodes", "edges"):
        tables[name].write_parquet(str(tmp_path / name))
        files = glob.glob(str(tmp_path / name / "*.parquet"))
        n_groups = sum(pq.ParquetFile(f).metadata.num_row_groups
                       for f in files)
        assert files and sum(pq.ParquetFile(f).metadata.num_rows
                             for f in files) > 1
        assert n_groups <= len(files), name


# Tagged triple rows for the typed triple-state tests.  "Acme", "ACME"
# and "acme!" all normalize to "acme", so several raw keys fold into one
# edge; "Nowhere" has no alias and its triples are dropped.
_ALIAS = {"acme": ("e-acme", "Acme"), "globex": ("e-globex", "Globex"),
          "initech": ("e-initech", "Initech")}
_HOT = ("Acme", "acquired", "Globex")


def _tagged(rows: list, mentions: int = 0) -> pa.Table:
    """``rows`` of (subj, pred, obj, url, chunk_id, strength) plus
    ``mentions`` mention rows, as a tagged extraction batch.  Strengths
    are float64, not the extractors' float32: sums of float32 values are
    exact in float64 at these sizes, so only float64 ones show the
    summation order."""
    from kgx.stages.extract import EXTRACTED_SCHEMA

    schema = EXTRACTED_SCHEMA.set(
        EXTRACTED_SCHEMA.get_field_index("strength"),
        pa.field("strength", pa.float64()))
    recs = [{"kind": "triple", "subj": s, "pred": p, "obj": o, "url": u,
             "chunk_id": c, "strength": w} for s, p, o, u, c, w in rows]
    recs += [{"kind": "mention", "url": "u0", "chunk_id": f"c{i}",
              "mention": "Acme", "norm_mention": "acme", "type": "ORG",
              "description": ""} for i in range(mentions)]
    return pa.Table.from_pylist(recs, schema=schema)


def _triple_rows(n: int, seed: int) -> list:
    import random

    rng = random.Random(seed)
    subjects = ["Acme", "ACME", "acme!", "Globex", "Initech", "Nowhere"]
    rows = []
    for _ in range(n):
        if rng.random() < 0.6:
            s, p, o = _HOT
        else:
            s, o = rng.sample(subjects, 2)
            p = rng.choice(["acquired", "owns"])
        w = rng.choice([0.1, 0.2, 0.7, 0.7, 0.05, None])
        rows.append((s, p, o, f"u{rng.randrange(6)}",
                     f"c{rng.randrange(4)}", w))
    return rows


def _reference_edges(batches: list, *, min_strength: float,
                     cap: int) -> list:
    """Pure-Python edges: ``+=`` per raw key per batch in row order, then
    per resolved key over the batches' state rows in order (each batch's
    raw keys sorted)."""
    from kgx.functions.normalize import edge_id, normalize

    out: dict = {}
    for rows in batches:
        per: dict = {}
        for s, p, o, u, c, w in rows:
            if w is None or w < min_strength:
                continue
            st = per.setdefault((s, p, o), [0.0, 0, set()])
            st[0] += w
            st[1] += 1
            st[2].add((u, c))
        for (s, p, o), (tot, n, inst) in sorted(per.items()):
            if normalize(s) not in _ALIAS or normalize(o) not in _ALIAS:
                continue
            (sid, sn), (oid, on) = _ALIAS[normalize(s)], _ALIAS[normalize(o)]
            e = out.setdefault((sid, p, oid), [0.0, 0, set(), sn, on])
            e[0] += tot
            e[1] += n
            e[2] |= set(sorted(inst)[:cap])
    return [{"edge_id": edge_id(*k), "subj_id": k[0], "obj_id": k[2],
             "subj_name": sn, "obj_name": on, "pred": k[1],
             "strength": tot / n, "n_instances": n,
             "instances": [{"url": u, "chunk_id": c}
                           for u, c in sorted(inst)[:cap]]}
            for k, (tot, n, inst, sn, on) in sorted(out.items())]


@pytest.mark.parametrize("n_batches", [1, 3, 7])
def test_typed_triple_states_fold_like_python(ray_session, n_batches):
    """Triple states carry typed sum/n/inst columns and the edges fold
    them one sorted block at a time; the result equals a per-row Python
    fold bit for bit.  The 0.1/0.2/0.7 strengths make the float sums
    depend on order, one raw key holds over half the rows, and a
    mention-only batch, an all-below-min_strength batch and a
    null-strength batch ride along."""
    import ray

    from kgx.stages.states import edges_from_states, make_combine_extracted_fn

    rows = _triple_rows(600, seed=n_batches)
    assert sum(r[:3] == _HOT for r in rows) > len(rows) // 2
    per = -(-len(rows) // n_batches)
    batches = [rows[i:i + per] for i in range(0, len(rows), per)]
    batches += [[], [("Acme", "owns", "Globex", "u9", "c9", 0.05)],
                [("Acme", "owns", "Globex", "u9", "c9", None)]]
    combine = make_combine_extracted_fn(cap=3, min_strength=0.1)
    states = [combine(_tagged(b, mentions=2)) for b in batches]
    ds = rd.from_arrow(states).repartition(5)
    got = _concat(edges_from_states(ds, ray.put(_ALIAS), cap=3))
    want = _reference_edges(batches, min_strength=0.1, cap=3)
    assert got.to_pylist() == want
    assert any(len(e["instances"]) == 3 for e in want)


@pytest.mark.parametrize("rows, mentions", [
    pytest.param([], 3, id="mention_only"),
    pytest.param([("Acme", "owns", "Globex", "u", "c", 0.2)] * 2, 1,
                 id="all_below_min_strength"),
    pytest.param([("Acme", "owns", "Globex", "u", "c", None)], 0,
                 id="null_strength"),
])
def test_empty_triple_states_are_typed(rows, mentions):
    from kgx.stages.edges import INSTANCES_TYPE, _combine_triples_unresolved
    from kgx.stages.states import STATES_SCHEMA, make_combine_extracted_fn

    tagged = _tagged(rows, mentions)
    t = _combine_triples_unresolved(tagged, min_strength=0.5, cap=3)
    assert t.num_rows == 0
    assert t.schema == pa.schema([
        ("norm", pa.string()), ("no", pa.string()), ("p", pa.string()),
        ("sum", pa.float64()), ("n", pa.int64()), ("inst", INSTANCES_TYPE)])
    states = make_combine_extracted_fn(cap=3, min_strength=0.5)(tagged)
    assert states.schema == STATES_SCHEMA
    assert states["kind"].to_pylist() == ["m"] * (mentions > 0)
    assert states["sum"].null_count == states.num_rows


_CLAIM_ALIAS = {"acme": ("e-acme", "Acme"), "globex": ("e-globex", "Globex"),
                "kéy corp": ("e-key", "Kéy Corp")}


def _claim_rows(n: int) -> list:
    """Tagged claim rows: case variants of one content key with different
    entity sets, a claim no entity of which resolves, a claim without
    entities, empty and null contents, and 12 distinct (url, chunk_id)
    pairs repeated over the ``n`` rows."""
    variants = [("Acme grew.", ["Acme"]), ("ACME grew.", ["ACME", "Globex"]),
                ("acme GREW.", ["acme"]), ("Globex shrank.", ["GLOBEX"]),
                ("Nobody knows.", ["Nobody"]),
                ("Kéy Corp grew.", ["Kéy  Corp"]),
                ("KÉY CORP GREW.", ["kéy corp", "Acme"]),
                ("No entities.", None), ("", ["Acme"]), (None, ["Acme"])]
    return [{"kind": "claim", "url": f"u{i % 4}", "chunk_id": f"c{i % 3}",
             "content": variants[i % len(variants)][0],
             "entities": variants[i % len(variants)][1]} for i in range(n)]


@pytest.mark.parametrize("n_batches", [1, 3, 7])
def test_claim_states_fold_like_the_oracle(ray_session, n_batches):
    """Claims split into 1, 3 and 7 batches, resolved and combined per
    batch, then folded per claim_id, equal the sequential oracle's claim
    path: case variants share one claim (smallest raw content, union of
    ids), an unresolvable claim is dropped, and the instances are the
    capped distinct pairs while ``n_instances`` counts every row."""
    import ray

    from kgx.oracle import oracle_claims
    from kgx.stages.edges import (CLAIMS_SCHEMA, ResolveClaims,
                                  _finalize_claims_block,
                                  resolve_and_dedup_claims)

    rows = _claim_rows(70)
    want = pa.Table.from_pylist(oracle_claims(rows, _CLAIM_ALIAS, 3),
                                schema=CLAIMS_SCHEMA)
    assert want.num_rows == 3
    assert sorted(want["content"].to_pylist()) == [
        "ACME grew.", "Globex shrank.", "KÉY CORP GREW."]
    assert max(want["n_instances"].to_pylist()) > 3
    per = -(-len(rows) // n_batches)
    batches = [pa.Table.from_pylist(rows[i:i + per]).select(
        ["url", "chunk_id", "content", "entities"])
        for i in range(0, len(rows), per)]
    resolve = ResolveClaims(_CLAIM_ALIAS, cap=3)
    states = pa.concat_tables([resolve(b) for b in batches])
    assert states.num_rows <= 3 * len(batches)
    got = _finalize_claims_block(states.sort_by("claim_id"), 3)
    assert got.equals(want)
    ds = resolve_and_dedup_claims(rd.from_arrow(batches),
                                  ray.put(_CLAIM_ALIAS), cap=3)
    assert _concat(ds).equals(want)
