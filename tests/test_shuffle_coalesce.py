"""Regression tests for the round-5 fixed-cost helpers: the size-aware
pre-shuffle coalesce, the small-table read block policy, the bounded
per-worker task-instance cache, and a driver-side collect that runs its
pipeline once."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray
import ray.data as rd

from kgx.functions.collect import (collect_arrow, default_shuffle_blocks,
                                   shuffle_coalesce)
from kgx.sources.pages import _SMALL_TABLE_BYTES, read_table


def test_shuffle_coalesce_merges_tiny_blocks():
    # 64 one-row blocks of narrow data must coalesce down to the
    # cluster-derived target (max(8, ncpu//2)) — the B_in x B_out
    # machinery fix.
    ds = rd.range(64, override_num_blocks=64)
    out = shuffle_coalesce(ds).materialize()
    assert out.num_blocks() == default_shuffle_blocks()
    # rows survive untouched
    assert sorted(r["id"] for r in out.take_all()) == list(range(64))


def test_shuffle_coalesce_respects_block_size_bound():
    # A dataset whose bytes exceed target_block_bytes x target keeps
    # MORE blocks than the cpu-derived floor: a corpus-proportional
    # table can never collapse into oversize blocks.
    big = rd.range(4000, override_num_blocks=40).map_batches(
        lambda b: pa.table({"payload": [b"x" * 10_000] * b.num_rows}),
        batch_format="pyarrow")
    out = shuffle_coalesce(big, target_block_bytes=1 << 20).materialize()
    size = out.size_bytes()
    assert size > (1 << 20)
    assert out.num_blocks() >= size // (1 << 20)


def test_collect_arrow_runs_pipeline_once(tmp_path):
    # to_arrow_refs on a lazy Dataset fetches the schema after iterating,
    # which re-runs the plan; collect_arrow must not pay for it
    import uuid

    def record(b: pa.Table) -> pa.Table:
        (tmp_path / uuid.uuid4().hex).write_text(str(b.num_rows))
        return b

    ds = rd.range(300, override_num_blocks=3).sort("id").map_batches(
        record, batch_format="pyarrow", batch_size=None)
    out = collect_arrow(ds)
    calls = [int(p.read_text()) for p in tmp_path.iterdir()]
    assert len(calls) == 3 and sum(calls) == 300
    assert sorted(out["id"].to_pylist()) == list(range(300))


def test_read_table_small_file_block_policy(tmp_path):
    p = str(tmp_path / "small.parquet")
    pq.write_table(pa.table({"x": list(range(1000))}), p)
    assert os.path.getsize(p) < _SMALL_TABLE_BYTES
    ds = read_table(p, columns=["x"])
    ncpu = int(ray.cluster_resources().get("CPU", 4))
    assert ds.materialize().num_blocks() <= max(8, ncpu // 2)
    assert ds.count() == 1000


def test_read_table_directory_uses_default(tmp_path):
    d = tmp_path / "sharded"
    d.mkdir()
    for i in range(3):
        pq.write_table(pa.table({"x": [i] * 10}), str(d / f"part{i}.parquet"))
    ds = read_table(str(d))
    assert ds.count() == 30  # no override path taken; just reads


def test_task_instance_cache_is_bounded():
    from kgx.stages.extract import (_WORKER_EXTRACTOR_CACHE,
                                    _WORKER_EXTRACTOR_CACHE_MAX,
                                    make_task_extractor)

    class Echo:
        def __init__(self, tag):
            self.tag = tag

        def __call__(self, batch):
            return batch

    _WORKER_EXTRACTOR_CACHE.clear()
    batch = pa.table({"x": [1]})
    for i in range(3 * _WORKER_EXTRACTOR_CACHE_MAX):
        make_task_extractor(Echo, tag=i)(batch)
    assert len(_WORKER_EXTRACTOR_CACHE) <= _WORKER_EXTRACTOR_CACHE_MAX
    # LRU keeps the most recent keys
    assert any(f"'tag', {3 * _WORKER_EXTRACTOR_CACHE_MAX - 1}" in k
               for k in _WORKER_EXTRACTOR_CACHE)


def test_broadcast_resolvers_share_the_bounded_cache():
    # the alias resolvers and the page-dedup loser filter are cached per
    # worker in the one bounded LRU, keyed by their broadcast ref: twenty
    # distinct alias maps leave at most the cap behind, and no resolver
    # answers with another map's aliases
    import kgx.pipelines.kg as kg
    import kgx.stages.edges as edges
    import kgx.stages.extract as extract
    from kgx.stages.states import STATES_SCHEMA, _ResolveTripleStates

    extract._WORKER_EXTRACTOR_CACHE.clear()
    triples = pa.Table.from_pylist(
        [{"kind": "t", "key": "acme", "no": "globex", "p": "acquired",
          "sum": 0.7, "n": 1, "inst": [{"url": "u", "chunk_id": "c"}]}],
        schema=STATES_SCHEMA)
    claims = pa.table({"url": ["u"], "chunk_id": ["c"],
                       "content": ["Acme grew."], "entities": [["Acme"]]})
    pages = pa.table({"url": ["u0", "u1"], "fp": ["f" * 32] * 2})
    for i in range(20):
        ref = ray.put({"acme": (f"e{i}", "Acme"), "globex": ("g", "Globex")})
        t = extract.make_task_extractor(_ResolveTripleStates,
                                        alias_ref=ref)(triples)
        assert t["subj_id"].to_pylist() == [f"e{i}"]
        c = extract.make_task_extractor(edges.ResolveClaims, alias_ref=ref,
                                        cap=4)(claims)
        assert c["ids"].to_pylist() == [[f"e{i}"]]
        drop = ray.put(["f" * 32 + f"u{i % 2}"])
        kept = extract.make_task_extractor(kg._LoserFilter,
                                           drop_ref=drop)(pages)
        assert kept["url"].to_pylist() == [f"u{1 - i % 2}"]
    caches = [v for m in (kg, edges, extract) for k, v in vars(m).items()
              if k.startswith("_WORKER_") and isinstance(v, dict)]
    assert sum(map(len, caches)) <= extract._WORKER_EXTRACTOR_CACHE_MAX
