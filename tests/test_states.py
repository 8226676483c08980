"""Pins the contracts of the one fused-state KG finalize.

kgx/stages/states.py and kgx/stages/edges.py drop their former trailing
``ds.sort(<groupby key>)`` because on this Ray version
``groupby().map_groups()`` shuffles via a GLOBAL SORT on the group key, so
the output already arrives globally key-sorted.  If a Ray upgrade ever
switches groupby to a hash shuffle, these tests fail and the trailing
sorts must come back.  The streaming and checkpointed compositions must
emit equal tables, and every entry point refuses the hash shuffle.
"""

import numpy as np
import pytest
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd


def _concat(ds) -> pa.Table:
    return pa.concat_tables(
        list(ds.iter_batches(batch_size=None, batch_format="pyarrow")))


def test_map_groups_output_key_sorted(ray_session):
    rng = np.random.default_rng(11)
    keys = [f"k{int(x):05d}" for x in rng.integers(0, 4000, 40000)]
    vals = rng.integers(0, 100, 40000)
    ds = rd.from_arrow(pa.table({"k": keys, "v": vals})).repartition(17)

    def one(g: pa.Table) -> pa.Table:
        return pa.table({"k": [g["k"][0].as_py()],
                         "s": [int(pc.sum(g["v"]).as_py())]})

    out = _concat(ds.groupby("k").map_groups(one, batch_format="pyarrow"))
    got = out["k"].to_pylist()
    assert len(got) == len(set(got)) == 4000
    assert got == sorted(got)


def test_map_groups_multikey_output_sorted(ray_session):
    rng = np.random.default_rng(12)
    a = [f"a{int(x):02d}" for x in rng.integers(0, 20, 20000)]
    b = [f"b{int(x):03d}" for x in rng.integers(0, 200, 20000)]
    ds = rd.from_arrow(pa.table({"a": a, "b": b})).repartition(13)

    def one(g: pa.Table) -> pa.Table:
        return pa.table({"a": [g["a"][0].as_py()], "b": [g["b"][0].as_py()]})

    out = _concat(ds.groupby(["a", "b"]).map_groups(one,
                                                    batch_format="pyarrow"))
    pairs = list(zip(out["a"].to_pylist(), out["b"].to_pylist()))
    assert len(pairs) == len(set(pairs))
    assert pairs == sorted(pairs)


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


@pytest.mark.parametrize("extractor", ["gazetteer", "term"])
def test_stream_kg_equals_run_pipeline(smoke_corpus, ray_session,
                                       tmp_path_factory, extractor):
    """Both compositions finalize nodes and edges from the same fused
    states (kgx.pipelines.kg), so their tables are equal value for value,
    not just in names and counts."""
    import pyarrow.parquet as pq

    from kgx.pipelines.kg import KGConfig, run_pipeline, stream_kg

    cfg = KGConfig(extractor=extractor)
    streamed = stream_kg(smoke_corpus["pages"], cfg)
    paths = run_pipeline(smoke_corpus["pages"],
                         str(tmp_path_factory.mktemp(f"parity_{extractor}")),
                         cfg)
    for name, key in (("nodes", ["entity_id"]),
                      ("edges", ["subj_id", "pred", "obj_id"])):
        order = [(k, "ascending") for k in key]
        s = _concat(streamed[name]).sort_by(order)
        c = pq.read_table(paths[name]).sort_by(order)
        assert s.num_rows > 0
        assert s.equals(c), name


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
