"""Unit tests for the training-data operators (kgx.ops.*)."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from kgx.ops.dedup import (exact_dup_groups, jaccard_pairs,
                           minhash_lsh_pairs, minhash_signature,
                           _perm_params, _shingle_hashes, simhash64,
                           simhash_pairs)
from kgx.ops.multimodal import ImageDecodeStage, byte_histogram_batch
from kgx.ops.simsearch import cosine_topk
from kgx.ops.text import _winnow, lang_id_batch, quality_batch, \
    token_stats_batch
from kgx.ops.window import assign_tumbling


def docs_ds(texts):
    return rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }))


def test_token_stats():
    out = token_stats_batch(pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array(["one two  three", "a-b c3d!"], pa.string()),
    }))
    assert out["n_ws_tokens"].to_pylist() == [3, 2]
    # a, -, b, c, 3, d, !  -> 7 BPE-ish tokens
    assert out["n_re_tokens"].to_pylist() == [3, 7]


def test_quality_ratios():
    out = quality_batch(pa.table({
        "doc_id": pa.array([1], pa.int64()),
        "text": pa.array(["the cat the dog"], pa.string()),
    }))
    assert out["n_tokens"].to_pylist() == [4]
    assert out["n_distinct_tokens"].to_pylist() == [3]
    assert out["stopword_ratio"].to_pylist() == [0.5]  # 'the' twice / 4


def test_lang_id():
    out = lang_id_batch(pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array(["the cat is on the mat", "der hund ist da und",
                          "zzz qqq"], pa.string()),
    }))
    assert out["pred_lang"].to_pylist() == ["en", "de", "und"]


def test_winnow_deterministic_and_short():
    toks = "a b c d e f g h".split()
    f1 = _winnow(toks, 3, 4)
    assert f1 == _winnow(toks, 3, 4)
    assert _winnow(["a"], 3, 4) == []
    assert len(_winnow(["a", "b", "c"], 3, 4)) == 1


def test_exact_dedup_groups(ray_session):
    base = ["same text", "same text", "other"]
    ds = docs_ds(base)
    out = exact_dup_groups(ds).to_pandas().sort_values("rep_doc_id")
    assert out["n_docs"].tolist() == [2, 1]
    assert out["rep_doc_id"].tolist() == [0, 2]
    # a hot key holding over half the rows, spread over many blocks,
    # still folds to one row with the full count and the smallest id
    ds = docs_ds(base + ["hot text"] * 40).repartition(17)
    out = exact_dup_groups(ds).to_pandas().sort_values("rep_doc_id")
    assert out["n_docs"].tolist() == [2, 1, 40]
    assert out["rep_doc_id"].tolist() == [0, 2, 3]


def test_jaccard_pairs_exact(ray_session):
    ds = docs_ds(["alpha beta gamma delta", "alpha beta gamma echo",
                  "zulu yankee xray whiskey"])
    out = jaccard_pairs(ds, threshold=0.5).to_pandas()
    assert len(out) == 1
    assert (out.iloc[0]["doc_a"], out.iloc[0]["doc_b"]) == (0, 1)
    assert out.iloc[0]["jaccard"] == pytest.approx(3 / 5)


def test_jaccard_lsh_verify_equals_matrix(ray_session):
    """The scale-default LSH-then-exact-verify path must emit exactly the
    broadcast-matrix baseline's pairs (VERDICT r01 #5)."""
    texts = ["alpha beta gamma delta epsilon",
             "alpha beta gamma delta zeta",
             "alpha beta gamma delta epsilon",   # exact dup of 0
             "zulu yankee xray whiskey victor",
             "zulu yankee xray whiskey uniform",
             "",                                  # empty term set
             "solo document nothing shared here"]

    def rows(df):
        return sorted((a, b, round(j, 9)) for a, b, j in
                      zip(df["doc_a"], df["doc_b"], df["jaccard"]))

    for thr in (0.5, 0.8):
        mat = jaccard_pairs(docs_ds(texts), threshold=thr,
                            method="matrix").to_pandas()
        for ds in (docs_ds(texts), docs_ds(texts).repartition(5)):
            lsh = jaccard_pairs(ds, threshold=thr).to_pandas()
            assert rows(lsh) == rows(mat), thr


def test_lsh_bucket_pair_cap_on_degenerate_corpus(ray_session):
    """An all-identical corpus puts every doc in one bucket per band; the
    cap bounds emitted pairs deterministically instead of going quadratic
    silently (VERDICT r01 #9)."""
    from kgx.ops.dedup import simhash_pairs
    texts = ["identical boilerplate page content here"] * 20
    out = minhash_lsh_pairs(docs_ds(texts), min_est_jaccard=0.3,
                            max_bucket_pairs=5).to_pandas()
    # every band produces the same first-5 sorted-id pairs -> 5 after dedup
    assert len(out) == 5
    assert set(zip(out["doc_a"], out["doc_b"])) == {
        (0, 1), (0, 2), (0, 3), (0, 4), (0, 5)}
    sh = simhash_pairs(docs_ds(texts), max_hamming=3,
                       max_bucket_pairs=5).to_pandas()
    assert len(sh) == 5
    assert set(zip(sh["doc_a"], sh["doc_b"])) == {
        (0, 1), (0, 2), (0, 3), (0, 4), (0, 5)}


def test_segment_pair_kernel_matches_per_run_loop(monkeypatch):
    """The LSH pair kernel against a plain per-run triu loop with
    argmax first-band ownership, a predicate and a cap, over a block of
    many runs walked in small chunks."""
    import kgx.ops.dedup as dedup

    monkeypatch.setattr(dedup, "_PAIR_CHUNK", 7)
    rng = np.random.default_rng(3)
    n, n_bands = 400, 4
    owners = rng.integers(0, 3, size=(n // n_bands, n_bands))
    rows = np.repeat(np.arange(n // n_bands), n_bands)
    band = np.tile(np.arange(n_bands), n // n_bands)
    ids = rng.permutation(n // n_bands)[rows]
    owners = owners[rows]
    key = owners[np.arange(n), band]

    def pred(a, b):
        return (ids[a] + ids[b]) % 3 != 0

    def per_run_loop(max_pairs):
        out = []
        order = np.lexsort((ids, key, band))
        for bk in sorted(set(zip(band.tolist(), key.tolist()))):
            seg = order[(band[order] == bk[0]) & (key[order] == bk[1])]
            iu, ju = np.triu_indices(len(seg), k=1)
            a, b = seg[iu], seg[ju]
            first = (owners[a] == owners[b]).argmax(axis=1)
            keep = (first == bk[0]) & pred(a, b)
            out += list(zip(a[keep], b[keep]))[:max_pairs]
        return out

    for cap in (None, 5):
        ia, ib = dedup._segment_pairs("test", band, key, ids, owners,
                                      pred=pred, max_pairs=cap)
        assert list(zip(ia, ib)) == per_run_loop(cap or n * n)


def test_minhash_signature_properties():
    a, b = _perm_params(32, seed=1)
    s1 = _shingle_hashes("the quick brown fox jumps".split(), 3)
    sig1 = minhash_signature(s1, a, b)
    assert sig1.shape == (32,)
    assert (minhash_signature(s1, a, b) == sig1).all()
    # near-identical docs share most minhash values
    s2 = _shingle_hashes("the quick brown fox leaps".split(), 3)
    sim = (minhash_signature(s2, a, b) == sig1).mean()
    s3 = _shingle_hashes("completely different words entirely here".split(), 3)
    dis = (minhash_signature(s3, a, b) == sig1).mean()
    assert sim > dis


def test_minhash_lsh_finds_near_dups(ray_session):
    near = "the quick brown fox jumps over the lazy dog again and again"
    ds = docs_ds([near, near + " today",
                  "an entirely unrelated document about databases"])
    out = minhash_lsh_pairs(ds, min_est_jaccard=0.3).to_pandas()
    assert {(0, 1)} <= set(zip(out["doc_a"], out["doc_b"]))
    assert (2 not in set(out["doc_a"]) and 2 not in set(out["doc_b"]))


def test_simhash_near_dups(ray_session):
    base = "one two three four five six seven eight nine ten"
    assert simhash64(base.split()) == simhash64(base.split())
    # band blocking guarantees recall only for hamming < n_bands; an exact
    # duplicate (hamming 0) must always be found, a far doc must not
    ds = docs_ds([base, base,
                  "totally different content matter entirely unrelated"])
    out = simhash_pairs(ds, max_hamming=3).to_pandas()
    assert set(zip(out["doc_a"], out["doc_b"])) == {(0, 1)}


def test_cosine_topk_exact(ray_session):
    vecs = np.eye(4, dtype=np.float32).tolist()
    vecs[1] = [0.9, 0.1, 0.0, 0.0]
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array(range(4), pa.int64()),
        "embedding": pa.array(vecs, pa.list_(pa.float32())),
    }))
    out = cosine_topk(ds, query_ids=[0], k=2).to_pandas()
    assert out["neighbor_id"].tolist() == [1, 2]
    assert out["rank"].tolist() == [1, 2]


def test_tumbling_assignment():
    ts = pa.array([0, 3_599_999_999, 3_600_000_000], pa.timestamp("us"))
    out = assign_tumbling(pa.table({"ts": ts}), width_s=3600)
    got = [v.value for v in out["window_start"]]
    assert got == [0, 0, 3_600_000_000]


def test_byte_histogram_and_fake_decode():
    batch = pa.table({
        "media_id": pa.array(["a", "b"], pa.string()),
        "payload": pa.array([b"\x00" * 8, b""], pa.binary()),
    })
    hist = byte_histogram_batch(batch)
    assert hist["feature"][0].as_py()[0] == pytest.approx(1.0)
    assert hist["feature"][1].as_py() == [0.0] * 16
    dec = ImageDecodeStage(fake=True)(batch)
    again = ImageDecodeStage(fake=True)(batch)
    assert dec["width"].to_pylist() == again["width"].to_pylist()
    assert all(64 <= w < 256 for w in dec["width"].to_pylist())


def _emb_table():
    import numpy as np
    import pyarrow as pa
    rng = np.random.default_rng(3)
    centers = rng.standard_normal((4, 8))
    vecs = []
    for i in range(40):
        v = centers[i % 4] + 0.05 * rng.standard_normal(8)
        vecs.append((v / np.linalg.norm(v)).astype("float32").tolist())
    return pa.table({
        "vec_id": pa.array(range(40), pa.int64()),
        "embedding": pa.array(vecs, pa.list_(pa.float32())),
    })


class TestIvfAndSourceStats:
    def test_ivf_recall_vs_exact(self, ray_session):
        import ray.data as rd
        from kgx.ops.simsearch import cosine_topk, ivf_topk
        emb = rd.from_arrow(_emb_table())
        exact = cosine_topk(emb, query_ids=[0, 1], k=5).to_pandas()
        approx = ivf_topk(rd.from_arrow(_emb_table()), query_ids=[0, 1],
                          k=5, n_centroids=4, n_probe=2,
                          train_mod=1).to_pandas()
        for q in (0, 1):
            want = set(exact[exact.query_id == q].neighbor_id)
            got = set(approx[approx.query_id == q].neighbor_id)
            assert len(want & got) / len(want) >= 0.6  # probe-bound recall

    def test_ivf_deterministic(self, ray_session):
        import ray.data as rd
        from kgx.ops.simsearch import ivf_topk
        a = ivf_topk(rd.from_arrow(_emb_table()), query_ids=[0], k=5,
                     n_centroids=4, n_probe=2, train_mod=1).to_pandas()
        b = ivf_topk(rd.from_arrow(_emb_table()), query_ids=[0], k=5,
                     n_centroids=4, n_probe=2, train_mod=1).to_pandas()
        assert a.values.tolist() == b.values.tolist()

    def test_source_stats(self, ray_session):
        import pyarrow as pa
        import ray.data as rd
        from kgx.ops.text import source_stats
        docs = rd.from_arrow(pa.table({
            "source": pa.array(["a", "a", "b"]),
            "text": pa.array(["xx", "yyyy", "z"]),
        }))
        out = {r["source"]: r for r in source_stats(docs).to_pandas()
               .to_dict("records")}
        assert out["a"]["n_docs"] == 2 and out["a"]["total_chars"] == 6
        assert out["a"]["mean_chars_milli"] == 3000
        assert out["b"]["n_docs"] == 1


class TestMultimodalStages:
    def _media(self):
        import pyarrow as pa
        import ray.data as rd
        return rd.from_arrow(pa.table({
            "media_id": pa.array(["m0", "m1"], pa.string()),
            "media_type": pa.array(["image/png", "video/mp4"], pa.string()),
            "payload": pa.array([b"\x89PNGfake", b"\x00vidfake"],
                                pa.binary()),
        }))

    def test_resize_stage_contract(self, ray_session):
        from kgx.ops.multimodal import ResizeStage
        out = self._media().map_batches(
            ResizeStage, batch_format="pyarrow", batch_size=32,
            concurrency=(1, 2),
            fn_constructor_kwargs={"fake": True, "width": 128,
                                   "height": 96}).to_pandas()
        assert list(out["width"]) == [128, 128]
        assert list(out["height"]) == [96, 96]
        assert out["resized_digest"].nunique() == 2

    def test_frame_sample_expansion(self, ray_session):
        from kgx.ops.multimodal import FrameSampleStage
        out = self._media().map_batches(
            FrameSampleStage, batch_format="pyarrow", batch_size=32,
            concurrency=(1, 2),
            fn_constructor_kwargs={"n_frames": 3}).to_pandas()
        assert len(out) == 6
        per = out[out.media_id == "m0"]
        assert list(per["frame_index"]) == [0, 1, 2]
        assert per["frame_ts_ms"].is_monotonic_increasing

    def test_media_dedup_groups(self, ray_session):
        import pyarrow as pa
        import ray.data as rd
        from kgx.ops.multimodal import media_dedup_groups
        import hashlib
        ids = ["m3", "m0", "m1", "m2"]
        payloads = [b"dup", b"dup", b"uniq", b"dup"]
        # the same rows, then plus a hot payload holding over half the
        # rows, spread over many blocks
        hot_ids = [f"h{i:02d}" for i in range(40, 0, -1)]
        for extra_ids, n_blocks in (([], 1), (hot_ids, 17)):
            media = rd.from_arrow(pa.table({
                "media_id": pa.array(ids + extra_ids, pa.string()),
                "media_type": pa.array(
                    ["image/png"] * (4 + len(extra_ids)), pa.string()),
                "payload": pa.array(payloads + [b"hot"] * len(extra_ids),
                                    pa.binary()),
            })).repartition(n_blocks)
            out = media_dedup_groups(media).to_pandas()
            assert len(out) == 2 + bool(extra_ids)
            by = out.set_index("checksum")
            dup = hashlib.md5(b"dup").hexdigest()
            assert by.loc[dup, "n_copies"] == 3
            assert by.loc[dup, "keep_id"] == "m0"
            assert by.loc[hashlib.md5(b"uniq").hexdigest(),
                          "n_copies"] == 1
            if extra_ids:
                hot = hashlib.md5(b"hot").hexdigest()
                assert by.loc[hot, "n_copies"] == 40
                assert by.loc[hot, "keep_id"] == "h01"

    def test_real_paths_require_libs(self):
        import pytest as pt
        from kgx.ops.multimodal import FrameSampleStage, ResizeStage
        with pt.raises(NotImplementedError):
            ResizeStage(fake=False)
        with pt.raises(NotImplementedError):
            FrameSampleStage(fake=False)


def test_waiting_suppliers_semantics(ray_session, tmp_path):
    """Q21 corner cases: an order where TWO suppliers are late counts
    for neither; a single-supplier order never counts (no other
    supplier exists); multiple late lines of the one late supplier
    each count."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from kgx.ops.relational import waiting_suppliers

    d0 = pa.scalar("1996-01-01", pa.string()).cast(pa.timestamp("us"))
    on_time = pa.scalar("1996-02-01", pa.string()) \
        .cast(pa.timestamp("us"))
    late = pa.scalar("1996-06-01", pa.string()).cast(pa.timestamp("us"))
    # o1: s1 late twice, s2 on time -> s1 numwait 2
    # o2: s1 late, s2 late -> nobody
    # o3: s3 late, sole supplier -> nobody
    # o4: status 'O' (not finalized) -> ignored entirely
    pq.write_table(pa.table({
        "o_orderkey": pa.array([1, 2, 3, 4], pa.int64()),
        "o_orderstatus": pa.array(["F", "F", "F", "O"], pa.string()),
        "o_orderdate": pa.array([d0.as_py()] * 4, pa.timestamp("us")),
    }), tmp_path / "orders.parquet")
    pq.write_table(pa.table({
        "l_orderkey": pa.array([1, 1, 1, 2, 2, 3, 4, 4], pa.int64()),
        "l_suppkey": pa.array([1, 1, 2, 1, 2, 3, 1, 2], pa.int64()),
        "l_shipdate": pa.array(
            [late.as_py(), late.as_py(), on_time.as_py(), late.as_py(),
             late.as_py(), late.as_py(), late.as_py(), on_time.as_py()],
            pa.timestamp("us")),
    }), tmp_path / "lineitem.parquet")
    pq.write_table(pa.table({
        "s_suppkey": pa.array([1, 2, 3], pa.int64()),
        "s_name": pa.array(["S1", "S2", "S3"], pa.string()),
        "s_nationkey": pa.array([0, 0, 1], pa.int64()),
    }), tmp_path / "supplier.parquet")
    pq.write_table(pa.table({
        "n_nationkey": pa.array([0, 1], pa.int64()),
        "n_name": pa.array(["N0", "N1"], pa.string()),
    }), tmp_path / "nation.parquet")

    out = waiting_suppliers(str(tmp_path)).to_pandas()
    assert len(out) == 1
    assert out.iloc[0]["s_name"] == "S1"
    assert out.iloc[0]["n_name"] == "N0"
    assert out.iloc[0]["numwait"] == 2


def test_filter_quality(ray_session):
    import pyarrow as pa
    import ray.data as rd
    from kgx.ops.text import filter_quality
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array([
            "the quick brown fox jumps over the lazy dog with style and "
            "grace in the morning light of a new day",
            "zz zz zz zz zz zz zz zz",              # degenerate repetition
            "le chat est sur la table et les livres sont dans le salon "
            "près des fenêtres et le soleil est dans le ciel",  # french
        ], pa.string()),
    }))
    out = filter_quality(docs, min_score_ppm=300_000,
                         langs=("en",)).to_pandas()
    assert list(out["doc_id"]) == [1]
    assert out["pred_lang"].tolist() == ["en"]


def test_contamination_flags(ray_session):
    import pyarrow as pa
    import ray.data as rd
    from kgx.ops.decontam import benchmark_gram_set, contamination_flags
    base = "alpha beta gamma delta epsilon zeta eta theta"      # 8 tokens
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": pa.array([
            "intro " + base + " outro words here",   # contains bench 8-gram
            "completely unrelated text with plenty of distinct words okay",
            "ALPHA Beta GAMMA delta EPSILON zeta ETA theta",  # case-folded hit
            "short doc",                              # < 8 tokens: no grams
        ], pa.string()),
    }))
    bench = rd.from_arrow(pa.table({
        "doc_id": pa.array([100], pa.int64()),
        "text": pa.array([base], pa.string()),
    }))
    bref = benchmark_gram_set(bench, n=8)
    out = contamination_flags(docs, bref, n=8).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert out["contaminated"].tolist() == [True, False, True, False]
    assert out["n_gram_hits"].tolist() == [1, 0, 1, 0]


def test_contamination_empty_benchmark(ray_session):
    import pyarrow as pa
    import ray.data as rd
    from kgx.ops.decontam import benchmark_gram_set, contamination_flags
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([0], pa.int64()),
        "text": pa.array(["one two three four five six seven eight nine"],
                         pa.string()),
    }))
    bench = rd.from_arrow(pa.table({
        "doc_id": pa.array([], pa.int64()),
        "text": pa.array([], pa.string()),
    }))
    bref = benchmark_gram_set(bench, n=8)
    out = contamination_flags(docs, bref, n=8).to_pandas()
    assert out["contaminated"].tolist() == [False]


def test_pack_offsets(ray_session):
    import pyarrow as pa
    import ray.data as rd
    from kgx.ops.packing import pack_offsets
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([3, 0, 2, 1, 4], pa.int64()),
        "text": pa.array(["a b c", "x y", "", "one", "p q r s"],
                         pa.string()),
    }))
    # small range_size forces multiple ranges through the prefix scan
    out = pack_offsets(docs, seq_len=4, range_size=2).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    # order by doc_id: n_tokens = [2, 1, 0, 3, 4]
    assert out["n_tokens"].tolist() == [2, 1, 0, 3, 4]
    assert out["begin_token"].tolist() == [0, 2, 3, 3, 6]
    assert out["seq_id"].tolist() == [0, 0, 0, 0, 1]


def test_pack_offsets_empty(ray_session):
    import pyarrow as pa
    import ray.data as rd
    from kgx.ops.packing import pack_offsets
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([], pa.int64()),
        "text": pa.array([], pa.string()),
    }))
    assert pack_offsets(docs).count() == 0


def _bm25_reference(texts, query, k1=1.2, b=0.75):
    """Plain-Python Okapi BM25 for the test corpus (independent of the
    operator's vectorized path)."""
    import math
    import re
    terms = sorted(set(re.findall(r"\b[a-z]{4,}\b", query.lower())))
    toks = [t.lower().split() for t in texts]
    n = len(texts)
    avgdl = sum(len(t) for t in toks) / n
    scores = []
    for dt in toks:
        s = 0.0
        for term in terms:
            tf = dt.count(term)
            df = sum(1 for other in toks if term in other)
            idf = math.log((n - df + 0.5) / (df + 0.5) + 1.0)
            s += idf * (tf * (k1 + 1.0)) / (tf + k1 * (1 - b + b * len(dt) / avgdl))
        scores.append(round(s, 6))
    return scores


def test_bm25_topk_matches_reference(ray_session):
    import pyarrow as pa
    import ray.data as rd
    from kgx.ops.bm25 import bm25_topk
    texts = [
        "apple banana cherry apple apple",
        "banana banana durian elderberry fig",
        "cherry cherry cherry grape melon lemon",
        "unrelated words entirely different tokens here",
        "apple grape",
    ]
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array(list(range(5)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }))
    out = bm25_topk(docs, ["apple cherry"], k=3).to_pandas()
    ref = _bm25_reference(texts, "apple cherry")
    order = sorted(range(5), key=lambda i: (-ref[i], i))
    expect = [i for i in order if ref[i] > 0][:3]
    got = out.sort_values("rank")
    assert got["doc_id"].tolist() == expect
    assert got["rank"].tolist() == [1, 2, 3]
    for did, sc in zip(got["doc_id"], got["score"]):
        assert sc == ref[did]


def test_bm25_multi_query_and_no_hits(ray_session):
    import pyarrow as pa
    import ray.data as rd
    from kgx.ops.bm25 import bm25_topk
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([10, 11], pa.int64()),
        "text": pa.array(["alpha beta gamma", "beta beta beta"], pa.string()),
    }))
    out = bm25_topk(docs, ["alpha", "zzzz missing"], k=5).to_pandas()
    # query 1 has no matching docs -> contributes zero rows
    assert set(out["query_idx"]) == {0}
    assert out.sort_values("rank")["doc_id"].tolist() == [10]


def test_bm25_tie_breaks_on_doc_id(ray_session):
    import pyarrow as pa
    import ray.data as rd
    from kgx.ops.bm25 import bm25_topk
    # identical docs -> identical scores; rank order must be doc_id asc
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([7, 3, 5], pa.int64()),
        "text": pa.array(["echo foxtrot golf"] * 3, pa.string()),
    })).repartition(3)
    out = bm25_topk(docs, ["echo golf"], k=3).to_pandas()
    assert out.sort_values("rank")["doc_id"].tolist() == [3, 5, 7]


def test_customers_without_orders(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq
    from kgx.ops.relational import customers_without_orders
    pq.write_table(pa.table({
        "c_custkey": pa.array([1, 2, 3, 4], pa.int64()),
        "c_name": pa.array(["a", "b", "c", "d"], pa.string()),
    }), tmp_path / "customer.parquet")
    pq.write_table(pa.table({
        "o_custkey": pa.array([1, 1, 3], pa.int64()),
        "o_orderkey": pa.array([10, 11, 12], pa.int64()),
        "o_totalprice": pa.array([1.0, 2.0, 3.0], pa.float64()),
    }), tmp_path / "orders.parquet")
    out = customers_without_orders(str(tmp_path)).to_pandas() \
        .sort_values("c_custkey")
    assert out["c_custkey"].tolist() == [2, 4]
    assert out["c_name"].tolist() == ["b", "d"]
    # price floor: only order 12 (3.0) clears 2.5 -> custkey 3 keeps cover
    out2 = customers_without_orders(str(tmp_path), min_totalprice=2.5) \
        .to_pandas().sort_values("c_custkey")
    assert out2["c_custkey"].tolist() == [1, 2, 4]


def test_forecast_revenue_and_big_orders_shapes(ray_session):
    """Semantics vs a pandas reference at sf0.001 (the DuckDB hash gate
    runs in test_oracle_parity)."""
    import numpy as np
    import pandas as pd
    import pyarrow.parquet as pq
    from kgx.ops.relational import big_orders, forecast_revenue

    sf = "/root/testdata/sf0.001"
    li = pq.read_table(f"{sf}/lineitem.parquet").to_pandas()
    ext_c = np.floor(li["l_extendedprice"] * 100 + 0.5).astype("int64")
    disc_c = np.floor(li["l_discount"] * 100 + 0.5).astype("int64")
    ship = li["l_shipdate"].astype("datetime64[us]")
    m = ((ship >= pd.Timestamp("1996-01-01"))
         & (ship < pd.Timestamp("1997-01-01"))
         & disc_c.between(5, 7) & (li["l_quantity"] < 24.0))
    out = forecast_revenue(sf).to_pandas()
    assert out["revenue_units"][0] == int((ext_c[m] * disc_c[m]).sum())
    assert out["n_items"][0] == int(m.sum())

    qty_c = np.floor(li["l_quantity"] * 100 + 0.5).astype("int64")
    totals = qty_c.groupby(li["l_orderkey"]).sum()
    big = totals[totals > 25000]
    out2 = big_orders(sf).to_pandas()
    assert len(out2) == min(100, len(big))
    assert set(out2["o_orderkey"]) <= set(big.index)
    # sorted by qty desc, orderkey asc
    key = list(zip(-out2["qty_cents"], out2["o_orderkey"]))
    assert key == sorted(key)


def test_boilerplate_scrub_removes_all_occurrences(ray_session):
    import pyarrow as pa
    import ray.data as rd
    from kgx.ops.linededup import boilerplate_scrub
    boiler = "copyright acme corp all rights reserved terms of use apply"
    docs = [
        (0, f"{boiler} unique words for document zero here padding tokens x", "a"),
        (1, f"{boiler} other unique content one two three four five six y", "a"),
        (2, boiler, "a"),                                   # only boilerplate
        (3, f"{boiler} same text different source keeps it all intact z", "b"),
    ]
    tbl = pa.table({
        "doc_id": pa.array([d for d, _, _ in docs], pa.int64()),
        "text": pa.array([t for _, t, _ in docs], pa.string()),
        "source": pa.array([s for _, _, s in docs], pa.string()),
    })
    out = boilerplate_scrub(rd.from_arrow(tbl), seg_tokens=10,
                            min_docs=2).to_pandas().set_index("doc_id")
    # source a: boiler segment is in 3 docs -> removed everywhere
    assert out.loc[0, "n_removed"] == 1
    assert boiler not in out.loc[0, "text_clean"]
    assert out.loc[0, "text_clean"].startswith("unique words")
    assert out.loc[2, "text_clean"] is None        # fully scrubbed
    # source b has a single occurrence -> kept
    assert out.loc[3, "n_removed"] == 0
    assert out.loc[3, "text_clean"].startswith(boiler)


def test_knn_self_join_bruteforce(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from kgx.ops.simsearch import knn_self_join
    rng = np.random.default_rng(2)
    M = rng.normal(size=(25, 6))
    ids = np.arange(25, dtype=np.int64)
    ds = rd.from_arrow(pa.table({
        "vec_id": ids,
        "embedding": pa.array(list(M), pa.list_(pa.float64()))}))
    out = knn_self_join(ds, k=4).to_pandas()
    Mn = M / np.linalg.norm(M, axis=1, keepdims=True)
    S = Mn @ Mn.T
    np.fill_diagonal(S, -np.inf)
    for i in ids:
        mine = out[out["vec_id"] == i].sort_values("rank")
        ref = np.argsort(-S[i], kind="stable")[:4]
        assert mine["neighbor_id"].tolist() == ref.tolist()
        np.testing.assert_allclose(
            mine["score"].to_numpy(), np.round(S[i][ref], 6), atol=1e-9)


def test_quality_gate_per_source_quartile(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from kgx.ops.text import quality_batch, quality_gate
    rng = np.random.default_rng(9)
    texts = [" ".join(rng.choice(["alpha", "beta", "the", "of", "gamma",
                                  "delta", "x"], size=rng.integers(5, 40))
                      .tolist()) for _ in range(60)]
    srcs = [f"s{i % 3}" for i in range(60)]
    tbl = pa.table({
        "doc_id": pa.array(np.arange(60, dtype=np.int64)),
        "text": pa.array(texts, pa.string()),
        "source": pa.array(srcs, pa.string())})
    out = quality_gate(rd.from_arrow(tbl)).to_pandas()
    scores = quality_batch(tbl)["quality_score_ppm"].to_numpy()
    for s in ("s0", "s1", "s2"):
        sel = np.array([x == s for x in srcs])
        ref_thr = int(np.sort(scores[sel])[(sel.sum() - 1) // 4])
        grp = out[out["source"] == s]
        assert (grp["threshold_ppm"] == ref_thr).all()
        assert (grp["keep"] == (grp["quality_score_ppm"] >= ref_thr)).all()
    # the gate keeps at least ~3/4 of each source by construction
    kept = out.groupby("source")["keep"].mean()
    assert (kept >= 0.7).all()


def test_curate_span_gate_is_optional_and_monotone(ray_session):
    """span_dup_ppm_max off -> identical result to the oracle'd default;
    on with threshold 0 -> a subset (only span-free docs survive), and
    packing invariants still hold on the survivors."""
    from kgx.pipelines.curate import curate_corpus
    base = curate_corpus("/root/testdata/sf0.001").to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    gated = curate_corpus("/root/testdata/sf0.001",
                          span_dup_ppm_max=0).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert set(gated["doc_id"]) <= set(base["doc_id"])
    assert len(gated) > 0
    # packing invariants on the gated manifest
    expect = gated["n_tokens"].cumsum().shift(fill_value=0)
    assert (gated["begin_token"] == expect).all()
    assert (gated["seq_id"] == gated["begin_token"] // 2048).all()


def test_curate_corpus_shape_and_packing_invariants(ray_session):
    from kgx.pipelines.curate import curate_corpus
    out = curate_corpus("/root/testdata/sf0.001").to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert len(out) > 0
    # begin_token is the exclusive prefix sum over doc_id order
    assert out["begin_token"].iloc[0] == 0
    expect = out["n_tokens"].cumsum().shift(fill_value=0)
    assert (out["begin_token"] == expect).all()
    assert (out["seq_id"] == out["begin_token"] // 2048).all()
    # curation strictly shrinks the corpus (lang + gate + dedups)
    import pyarrow.parquet as pq
    n_in = pq.read_metadata(
        "/root/testdata/sf0.001/documents.parquet").num_rows
    assert len(out) < n_in


def test_pq_topk_recall_and_determinism(ray_session):
    """IVFADC+R: PQ codes (16 uint8 vs 64 floats) + ADC shortlist +
    exact re-rank must recover an IVF-class share of the exact top-k on
    the adversarially near-random embeddings, and twice-run results must
    be byte-identical (seeded codebooks, stable tie-breaks)."""
    import ray.data as rd
    from kgx.ops.pq import pq_topk
    from kgx.ops.simsearch import cosine_topk
    emb = rd.read_parquet("/root/testdata/sf0.001/embeddings.parquet",
                          columns=["vec_id", "embedding"])
    qids = list(range(8))
    exact = cosine_topk(emb, qids, k=5).to_pandas()
    got = pq_topk(emb, qids, k=5).to_pandas()
    recalls = []
    for q in qids:
        want = set(exact[exact["query_id"] == q]["neighbor_id"])
        g = set(got[got["query_id"] == q]["neighbor_id"])
        if want:
            recalls.append(len(want & g) / len(want))
    # measured 0.625 (refine=4) vs 0.375 raw-ADC on this data; pin a
    # floor that catches a refine or probing regression
    assert sum(recalls) / len(recalls) >= 0.45, recalls
    again = pq_topk(emb, qids, k=5).to_pandas()
    assert got.to_dict("records") == again.to_dict("records")
    # refined scores are TRUE cosines: every (q, n) row matches the
    # exact baseline's score for that pair when present there
    ex = {(r["query_id"], r["neighbor_id"]): r["score"]
          for r in exact.to_dict("records")}
    for r in got.to_dict("records"):
        key = (r["query_id"], r["neighbor_id"])
        if key in ex:
            assert abs(r["score"] - ex[key]) < 1e-6


def test_pq_encode_compresses(ray_session):
    import ray.data as rd
    from kgx.ops.pq import pq_encode
    emb = rd.read_parquet("/root/testdata/sf0.001/embeddings.parquet",
                          columns=["vec_id", "embedding"])
    enc, _, _ = pq_encode(emb, m=16, k_sub=32)
    t = enc.to_pandas()
    assert len(t) == 500
    assert all(len(c) == 16 for c in t["code"])   # 16 B vs 64 floats
    assert t["cell"].between(0, 15).all()


def test_embedding_dup_pairs_bucketed_matches_matrix(ray_session):
    """The IVF-bucketed default (triangle-inequality cell-pair pruning,
    no corpus broadcast) must be pair-for-pair identical to the
    broadcast-matrix baseline — the bucketing is exact, not approximate."""
    import pandas as pd
    import ray.data as rd
    from kgx.ops.dedup import embedding_dup_pairs
    emb = rd.read_parquet("/root/testdata/sf0.001/embeddings.parquet",
                          columns=["vec_id", "embedding"])
    key = ["vec_a", "vec_b"]
    a = embedding_dup_pairs(emb, threshold=0.4, method="matrix") \
        .to_pandas().sort_values(key).reset_index(drop=True)
    b = embedding_dup_pairs(emb, threshold=0.4, method="bucketed",
                            n_cells=7) \
        .to_pandas().sort_values(key).reset_index(drop=True)
    assert len(a) > 0
    pd.testing.assert_frame_equal(a, b[a.columns])


def test_knn_self_join_blocked_matches_matrix(ray_session):
    """The triangle block-join default must reproduce the broadcast
    baseline exactly, ranks and rounded scores included."""
    import pandas as pd
    import ray.data as rd
    from kgx.ops.simsearch import knn_self_join
    emb = rd.read_parquet("/root/testdata/sf0.001/embeddings.parquet",
                          columns=["vec_id", "embedding"])
    key = ["vec_id", "rank"]
    a = knn_self_join(emb, k=4, method="matrix") \
        .to_pandas().sort_values(key).reset_index(drop=True)
    b = knn_self_join(emb, k=4, method="blocked", n_blocks=5,
                      merge_parts=3) \
        .to_pandas().sort_values(key).reset_index(drop=True)
    assert len(a) > 0
    pd.testing.assert_frame_equal(a, b[a.columns])


def test_lsh_topk_recall_vs_exact_knn(ray_session):
    """simsearch_lsh's bucketed candidates must recover a healthy share
    of the exact top-k (audited against the exact kNN baseline)."""
    import ray.data as rd
    from kgx.ops.simsearch import cosine_topk, lsh_topk
    emb = rd.read_parquet("/root/testdata/sf0.001/embeddings.parquet",
                          columns=["vec_id", "embedding"])
    qids = list(range(8))
    exact = cosine_topk(emb, qids, k=5).to_pandas()
    approx = lsh_topk(emb, qids, k=5).to_pandas()
    recalls = []
    for q in qids:
        want = set(exact[exact["query_id"] == q]["neighbor_id"])
        got = set(approx[approx["query_id"] == q]["neighbor_id"])
        if want:
            recalls.append(len(want & got) / len(want))
    # Near-random embeddings are the ADVERSARIAL case for hyperplane LSH
    # (no cluster structure to exploit): single-probe recall measured
    # ~0.15 vs exact here.  Multi-probe (default n_probe=8 of 16
    # buckets, lowest-|margin| bit flips) lifts the measured average to
    # ~0.675 on this data; this pins a 3x-higher floor than the old
    # single-probe one so a probing regression is caught.  On clustered
    # real embeddings fewer probes buy the same recall.
    assert sum(recalls) / len(recalls) >= 0.45, recalls
    # single-probe semantics unchanged (home bucket is always probed)
    from kgx.ops.simsearch import lsh_topk as _lsh
    single = _lsh(emb, qids, k=5, n_probe=1).to_pandas()
    r1 = []
    for q in qids:
        want = set(exact[exact["query_id"] == q]["neighbor_id"])
        got = set(single[single["query_id"] == q]["neighbor_id"])
        if want:
            r1.append(len(want & got) / len(want))
    assert sum(r1) / len(r1) >= 0.1, r1


def test_min_cost_supplier_ties(ray_session, tmp_path):
    """Q2 corner cases: ALL suppliers tied at the per-part minimum are
    kept (one row each, deduped across repeat lineitems); non-minimal
    suppliers drop; the part filter restricts which parts report."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from kgx.ops.relational import min_cost_supplier

    pq.write_table(pa.table({
        "p_partkey": pa.array([1, 2, 3], pa.int64()),
        "p_size": pa.array([25, 25, 9], pa.int32()),
        "p_type": pa.array(["SMALL"] * 3, pa.string()),
    }), tmp_path / "part.parquet")
    # part 1: s1 and s2 tie at 5.00 (s1 twice), s3 at 7.00
    # part 2: s3 alone at 1.00
    # part 3: filtered out by size
    pq.write_table(pa.table({
        "l_partkey": pa.array([1, 1, 1, 1, 2, 3], pa.int64()),
        "l_suppkey": pa.array([1, 1, 2, 3, 3, 1], pa.int64()),
        "l_extendedprice": pa.array(
            [5.0, 5.0, 5.0, 7.0, 1.0, 0.5], pa.float64()),
    }), tmp_path / "lineitem.parquet")
    pq.write_table(pa.table({
        "s_suppkey": pa.array([1, 2, 3], pa.int64()),
        "s_name": pa.array(["S1", "S2", "S3"], pa.string()),
        "s_acctbal": pa.array([10.0, 20.0, 30.0], pa.float64()),
        "s_nationkey": pa.array([0, 0, 1], pa.int64()),
    }), tmp_path / "supplier.parquet")
    pq.write_table(pa.table({
        "n_nationkey": pa.array([0, 1], pa.int64()),
        "n_name": pa.array(["N0", "N1"], pa.string()),
    }), tmp_path / "nation.parquet")

    out = min_cost_supplier(str(tmp_path)).to_pandas()
    got = set(map(tuple, out[["p_partkey", "s_name",
                              "cost_cents"]].values.tolist()))
    assert got == {(1, "S1", 500), (1, "S2", 500), (2, "S3", 100)}
    # sorted by acctbal desc: S3 (30) first
    assert out.iloc[0]["s_name"] == "S3"


def test_dominant_suppliers_share(ray_session, tmp_path):
    """Q20 corner cases: the share test is strict (> share_pct%), sums
    accumulate across lineitems of the same (part, supplier), a
    supplier dominant for ANY matching part qualifies once, and parts
    outside the name filter or date window never count."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    from kgx.ops.relational import dominant_suppliers

    pq.write_table(pa.table({
        "p_partkey": pa.array([1, 2], pa.int64()),
        "p_name": pa.array(["green bolt", "red widget"], pa.string()),
    }), tmp_path / "part.parquet")
    ts = pa.scalar("1997-06-01", pa.string()).cast(pa.timestamp("us"))
    out_ts = pa.scalar("1995-06-01", pa.string()) \
        .cast(pa.timestamp("us"))
    # part 1 total 100: s1 ships 10+15=25 (25% > 20% -> in),
    # s2 ships 20 exactly... make s2 ship 20 of 100 = 20% (NOT > 20).
    # s3 ships 55. part 2 matches no name. out-of-window row ignored.
    pq.write_table(pa.table({
        "l_partkey": pa.array([1, 1, 1, 1, 2, 1], pa.int64()),
        "l_suppkey": pa.array([1, 1, 2, 3, 2, 2], pa.int64()),
        "l_quantity": pa.array([10.0, 15.0, 20.0, 55.0, 99.0, 99.0],
                               pa.float64()),
        "l_shipdate": pa.array(
            [ts.as_py()] * 5 + [out_ts.as_py()], pa.timestamp("us")),
    }), tmp_path / "lineitem.parquet")
    pq.write_table(pa.table({
        "s_suppkey": pa.array([1, 2, 3], pa.int64()),
        "s_name": pa.array(["S1", "S2", "S3"], pa.string()),
        "s_acctbal": pa.array([1.0, 2.0, 3.0], pa.float64()),
    }), tmp_path / "supplier.parquet")

    out = dominant_suppliers(str(tmp_path)).to_pandas()
    assert out["s_name"].tolist() == ["S1", "S3"]
    assert out["s_acctbal_cents"].tolist() == [100, 300]


def test_important_parts_threshold(ray_session, tmp_path):
    """Q11 corner cases: the HAVING threshold is a strict global
    fraction over the SAME nation-filtered value; other nations'
    suppliers contribute nothing to either side."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from kgx.ops.relational import important_parts

    pq.write_table(pa.table({
        "s_suppkey": pa.array([1, 2], pa.int64()),
        "s_nationkey": pa.array([0, 1], pa.int64()),
    }), tmp_path / "supplier.parquet")
    pq.write_table(pa.table({
        "n_nationkey": pa.array([0, 1], pa.int64()),
        "n_name": pa.array(["NATION_3", "N1"], pa.string()),
    }), tmp_path / "nation.parquet")
    # nation-3 value: part 1 -> 100.00 * 100 units, part 2 -> tiny.
    # supplier 2's huge row is another nation: excluded everywhere.
    pq.write_table(pa.table({
        "l_partkey": pa.array([1, 2, 2], pa.int64()),
        "l_suppkey": pa.array([1, 1, 2], pa.int64()),
        "l_extendedprice": pa.array([100.0, 0.01, 9999.0], pa.float64()),
        "l_discount": pa.array([0.0, 0.0, 0.0], pa.float64()),
    }), tmp_path / "lineitem.parquet")

    out = important_parts(str(tmp_path), fraction_ppm=500_000) \
        .to_pandas()
    # total = 100.00 + 0.01 -> only part 1 exceeds 50%
    assert out["l_partkey"].tolist() == [1]
    assert out["value_units"].tolist() == [10000 * 100]


def test_important_parts_fraction_past_int64(ray_session):
    """total * fraction_ppm passes 2**63 at fraction_ppm=10**9 on the
    testdata sf0.001; the HAVING compare must stay exact (the threshold
    is 1000x the total, so no part passes) instead of overflowing."""
    from kgx.ops.relational import important_parts
    from test_oracle_parity import SF_DIR

    assert important_parts(SF_DIR, fraction_ppm=10**9).count() == 0
