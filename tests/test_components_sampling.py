"""Connected components over near-dup pairs + deterministic sampling
operators (kgx.ops.components / kgx.ops.sampling)."""

import hashlib

import pyarrow as pa
import pytest
import ray.data as rd

from kgx.ops.components import connected_components, neardup_components
from kgx.ops.sampling import cap_per_source, hash_split


def _nodes(ids):
    return rd.from_arrow(pa.table({"doc_id": pa.array(ids, pa.int64())}))


def _pairs(pairs):
    return rd.from_arrow(pa.table({
        "doc_a": pa.array([a for a, _ in pairs], pa.int64()),
        "doc_b": pa.array([b for _, b in pairs], pa.int64()),
    }))


class TestConnectedComponents:
    def test_chain_and_singletons(self, ray_session):
        # 0-1-2-3 chain (diameter 3), pair {5,6}, singletons 4 and 7;
        # again over many small blocks, so a node's rows start apart
        pairs = [(0, 1), (1, 2), (2, 3), (5, 6)]
        for nodes, edges in ((_nodes(range(8)), _pairs(pairs)),
                             (_nodes(range(8)).repartition(17),
                              _pairs(pairs).repartition(17))):
            df = connected_components(nodes, edges).to_pandas()
            assert df["doc_id"].tolist() == list(range(8))
            assert df["component_id"].tolist() == [0, 0, 0, 0, 4, 5, 5, 7]

    def test_no_pairs_all_singletons(self, ray_session):
        out = connected_components(_nodes([3, 1, 2]), _pairs([]))
        df = out.to_pandas()
        assert df["doc_id"].tolist() == [1, 2, 3]  # sorted output
        assert (df["doc_id"] == df["component_id"]).all()

    def test_diameter_bound_raises(self, ray_session):
        chain = [(i, i + 1) for i in range(5)]
        with pytest.raises(RuntimeError):
            connected_components(_nodes(range(6)), _pairs(chain),
                                 max_iters=2)
        # exact bound: a chain of diameter d reaches its fixpoint in
        # round d and sees it unchanged in round d + 1
        d = len(chain)
        with pytest.raises(RuntimeError):
            connected_components(_nodes(range(6)), _pairs(chain),
                                 max_iters=d)
        out = connected_components(_nodes(range(6)), _pairs(chain),
                                   max_iters=d + 1).to_pandas()
        assert out["component_id"].tolist() == [0] * 6

    def test_neardup_components_on_docs(self, ray_session):
        docs = rd.from_arrow(pa.table({
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "text": pa.array([
                "alpha beta gamma delta epsilon",
                "alpha beta gamma delta epsilon",   # dup of 0
                "alpha beta gamma delta zeta",      # near 0/1 at J=4/6
                "completely different words here"], pa.string()),
        }))
        out = neardup_components(docs, threshold=0.8).to_pandas()
        got = dict(zip(out["doc_id"], out["component_id"]))
        assert got == {0: 0, 1: 0, 2: 2, 3: 3}   # 4/6 < 0.8 keeps 2 out
        loose = neardup_components(docs, threshold=0.6).to_pandas()
        got2 = dict(zip(loose["doc_id"], loose["component_id"]))
        assert got2 == {0: 0, 1: 0, 2: 0, 3: 3}


class TestSampling:
    def test_hash_split_deterministic_and_md5_based(self, ray_session):
        ds = _nodes(range(300))
        a = hash_split(ds).to_pandas().sort_values("doc_id")
        b = hash_split(ds).to_pandas().sort_values("doc_id")
        assert a.equals(b)
        row = a[a["doc_id"] == 7].iloc[0]
        assert row["bucket"] == hashlib.md5(b"7").digest()[0]
        frac = (a["split"] == "val").mean()
        assert 0.03 < frac < 0.2  # ~26/256

    def test_cap_per_source_top_k_and_tiebreak(self, ray_session):
        docs = rd.from_arrow(pa.table({
            "doc_id": pa.array([0, 1, 2, 3, 4], pa.int64()),
            "source": pa.array(["s1", "s1", "s1", "s2", "s2"], pa.string()),
            # identical texts -> identical scores -> doc_id tie-break
            "text": pa.array(["the data table join merge"] * 5, pa.string()),
        }))
        out = cap_per_source(docs, k=2).to_pandas().sort_values(
            ["source", "rank"])
        assert out[out["source"] == "s1"]["doc_id"].tolist() == [0, 1]
        assert out[out["source"] == "s2"]["doc_id"].tolist() == [3, 4]
        assert out["rank"].tolist() == [1, 2, 1, 2]


def test_weighted_sample_is_aes_topk(ray_session):
    import hashlib
    import math
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from kgx.ops.sampling import weighted_sample
    n = 200
    w = (np.arange(n) % 37 + 3) * 10
    tbl = pa.table({"doc_id": pa.array(np.arange(n, dtype=np.int64)),
                    "n_chars": pa.array(w.astype(np.int64))})
    out = weighted_sample(rd.from_arrow(tbl), k=25).to_pandas()
    keys = {}
    for i in range(n):
        v = int(hashlib.md5(str(i).encode()).hexdigest()[:12], 16)
        u = (v + 1) / 16 ** 12
        keys[i] = math.log(u) / max(w[i], 1)
    ref = sorted(keys, key=lambda i: (-keys[i], i))[:25]
    assert out["doc_id"].tolist() == ref
    assert out["rank"].tolist() == list(range(1, 26))
    # partition invariance: same result from many small blocks
    out2 = weighted_sample(rd.from_arrow(tbl).repartition(13),
                           k=25).to_pandas()
    assert out2["doc_id"].tolist() == ref


def test_weighted_sample_prefers_heavy_rows_statistically(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from kgx.ops.sampling import weighted_sample
    # half the corpus is 100x heavier; it should dominate the sample
    n = 400
    w = np.where(np.arange(n) < 200, 10000, 100).astype(np.int64)
    tbl = pa.table({"doc_id": pa.array(np.arange(n, dtype=np.int64)),
                    "n_chars": pa.array(w)})
    out = weighted_sample(rd.from_arrow(tbl), k=50).to_pandas()
    heavy = (out["doc_id"] < 200).sum()
    assert heavy >= 45
