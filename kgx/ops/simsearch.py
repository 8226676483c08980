"""Similarity search over an embedding column (list<float>).

- :func:`cosine_topk` — exact brute-force cosine top-k: the query matrix is
  broadcast once (``ray.put``), every block of the corpus scores against it
  with one numpy matmul, each block emits only its per-query top-k, and a
  final single-task lexsort merges the partial top-ks (the partial stream
  is <= blocks * queries * k narrow rows — a distributed groupby barrier
  costs more than the merge).  The shuffle moves at most n_queries * k
  rows per block — never the score matrix.
- :func:`lsh_topk` — the scale path: seeded random-hyperplane signatures
  bucket the corpus; each query searches only its bucket (and is scored
  exactly within it).  Approximate; rows-only driver check.

The reference's analog is the VectorRAG baseline's torch.topk over all
chunk embeddings in one process (/root/reference/baselines/vector_rag.py:34-38).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray


def emb_matrix(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """list<float> column -> (rows, dim) float64 matrix without a Python
    round-trip: flatten the Arrow list buffer and reshape.  Falls back to
    to_pylist for ragged/null lists (never the case for embeddings)."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    n = len(arr)
    if n == 0:
        return np.zeros((0, 0), dtype=np.float64)
    flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    if flat.size % n == 0 and arr.null_count == 0:
        return flat.reshape(n, flat.size // n)
    return np.asarray(arr.to_pylist(), dtype=np.float64)


def _pull_queries(emb_ds, query_ids: list[int]):
    """Materialize the (small) query matrix driver-side, ordered by id."""
    from kgx.functions.collect import collect_arrow
    qset = set(query_ids)
    tbl = collect_arrow(emb_ds.select_columns(["vec_id", "embedding"]))
    ids = tbl["vec_id"].to_pylist()
    embs = tbl["embedding"].to_pylist()
    picked = {i: e for i, e in zip(ids, embs) if i in qset}
    qids = sorted(picked)
    Q = np.asarray([picked[i] for i in qids], dtype=np.float64)
    Q = Q / np.linalg.norm(Q, axis=1, keepdims=True)
    return np.asarray(qids, dtype=np.int64), Q


class _BlockTopK:
    """Score one corpus block against the broadcast query matrix and emit
    the block-local top-k per query (partial top-k combiner)."""

    def __init__(self, qref, k: int):
        self.qids, self.Q = ray.get(qref)
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch["vec_id"].to_pylist(), dtype=np.int64)
        M = emb_matrix(batch["embedding"])
        M = M / np.linalg.norm(M, axis=1, keepdims=True)
        S = self.Q @ M.T                      # n_queries x block_rows
        q_col, n_col, s_col = [], [], []
        for qi in range(len(self.qids)):
            scores = S[qi]
            keep = np.flatnonzero(ids != self.qids[qi])   # exclude self
            # deterministic partial top-k: score desc, vec_id asc
            order = keep[np.lexsort((ids[keep], -scores[keep]))][:self.k]
            q_col.extend([self.qids[qi]] * len(order))
            n_col.extend(ids[order].tolist())
            s_col.extend(scores[order].tolist())
        return pa.table({
            "query_id": pa.array(q_col, pa.int64()),
            "neighbor_id": pa.array(n_col, pa.int64()),
            "score": pa.array(s_col, pa.float64()),
        })


def _merge_topk_all(batch: pa.Table, k: int) -> pa.Table:
    """Merge ALL block-local top-k partials in one vectorized task.

    The partial stream holds <= blocks x queries x k narrow rows, so a
    distributed sort/groupby barrier costs far more in scheduling than
    the merge itself (measured 4.9 s of a 6.9 s query at sf0.1 for 5k
    rows); instead the partials coalesce to one block
    (``repartition(1)``) and a single lexsort emits every query's final
    ranking.  PARTITIONING ASSUMPTION: blocks x queries x k fits one
    worker — at 10^5 blocks x 8 queries x k=10 that is ~8M narrow rows;
    tree-merge with an intermediate repartition if ever exceeded."""
    qids = np.asarray(batch["query_id"].to_pylist(), dtype=np.int64)
    ids = np.asarray(batch["neighbor_id"].to_pylist(), dtype=np.int64)
    scores = np.asarray(batch["score"].to_pylist(), dtype=np.float64)
    order = np.lexsort((ids, -scores, qids))   # qid asc, score desc, id asc
    qs, is_, ss = qids[order], ids[order], scores[order]
    starts = np.flatnonzero(np.r_[True, np.diff(qs) != 0])
    ranks = np.arange(len(qs)) - np.repeat(
        starts, np.diff(np.r_[starts, len(qs)])) + 1
    keep = ranks <= k
    return pa.table({
        "query_id": pa.array(qs[keep], pa.int64()),
        "neighbor_id": pa.array(is_[keep], pa.int64()),
        "score": pa.array(np.round(ss[keep], 6), pa.float64()),
        "rank": pa.array(ranks[keep], pa.int64()),
    })


def cosine_topk(emb_ds, query_ids: list[int], *, k: int = 10):
    """Exact cosine top-k neighbors for each query id (self excluded).

    Returns (query_id, neighbor_id, score rounded 6dp, rank 1..k) with the
    deterministic tie-break (score desc, neighbor_id asc).
    """
    # two passes (query pull + scoring) share one cached read
    emb_ds = emb_ds.materialize()
    qref = ray.put(_pull_queries(emb_ds, query_ids))
    from kgx.stages.extract import make_task_extractor
    # task-based per-worker cached instance (no actor-pool spin-up)
    partial = emb_ds.map_batches(
        make_task_extractor(_BlockTopK, qref=qref, k=k),
        batch_format="pyarrow")
    return partial.repartition(1).map_batches(
        lambda b: _merge_topk_all(b, k), batch_format="pyarrow",
        batch_size=None)


# ----------------------------------------------------------------------
# IVF (inverted-file) approximate variant
# ----------------------------------------------------------------------

def _train_sample(emb_ds, train_mod: int) -> np.ndarray:
    """Deterministic training sample, collected in the calling process:
    the ``vec_id % train_mod == 0`` rows, vec_id-ordered and L2-normalized
    (the ``s`` CTE of the DuckDB quantizer oracles)."""
    from kgx.functions.collect import collect_arrow

    def pick(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch["vec_id"].to_pylist(), dtype=np.int64)
        keep = np.flatnonzero(ids % train_mod == 0)
        return batch.take(pa.array(keep, pa.int64()))

    tbl = collect_arrow(emb_ds.map_batches(pick, batch_format="pyarrow"))
    order = np.argsort(np.asarray(tbl["vec_id"].to_pylist()))
    S = np.asarray(tbl["embedding"].to_pylist(), dtype=np.float64)[order]
    return S / np.linalg.norm(S, axis=1, keepdims=True)


def _kmeans(sample: np.ndarray, n_centroids: int, iters: int) -> np.ndarray:
    """Deterministic, SQL-twinnable k-means on L2-normalized vectors.

    Init = the first ``n_centroids`` sample rows (the sample arrives
    vec_id-ordered), assignment = argmax of the 6dp-ROUNDED dot product
    (ties -> lowest cluster id, numpy argmax-first), update =
    renormalized member mean rounded to 6dp, empty clusters keep their
    previous centroid.  The 6dp rounding at every step is what lets the
    DuckDB oracle reproduce the iteration exactly (the embed_kmeans
    unroll pattern, kgx/ops/cluster.py)."""
    C = np.round(sample[:min(n_centroids, len(sample))].copy(), 6)
    for _ in range(iters):
        assign = np.argmax(np.round(sample @ C.T, 6), axis=1)
        for c in range(len(C)):
            members = sample[assign == c]
            if len(members):
                m = members.mean(axis=0)
                n = np.linalg.norm(m)
                if n > 0:
                    C[c] = np.round(m / n, 6)
    return C


def ivf_topk(emb_ds, query_ids: list[int], *, k: int = 10,
             n_centroids: int = 16, n_probe: int = 4, train_mod: int = 4,
             iters: int = 5):
    """IVF approximate top-k: k-means coarse quantizer, per-query probing
    of the ``n_probe`` nearest cells, exact scoring inside probed cells.

    Scale shape: the quantizer trains driver-side on a deterministic
    sample (``vec_id % train_mod == 0``); centroids broadcast once; each
    corpus block tags rows with their cell and emits ONLY rows belonging
    to a probed cell; a ``groupby(cell)`` scores queries against their
    probed cells and a final ``groupby(query_id)`` merges the per-cell
    top-ks.  Shuffles move probed rows + n_queries*k rows — never the
    full corpus or a score matrix.  Deterministic; approximate (recall
    rises with ``n_probe``).
    """
    import ray

    # three passes (query pull, quantizer sample, cell tagging) share
    # one cached read of the corpus
    emb_ds = emb_ds.materialize()
    qids, Q = _pull_queries(emb_ds, query_ids)

    C = _kmeans(_train_sample(emb_ds, train_mod), n_centroids, iters)
    cref = ray.put(C)

    # rounded + stable so the probing order has an exact SQL twin
    # (round-6 dot desc, cell id asc)
    q_cells = np.argsort(-np.round(Q @ C.T, 6), axis=1,
                         kind="stable")[:, :n_probe]
    probed = sorted({int(c) for row in q_cells for c in row})
    probed_set = set(probed)
    qref = ray.put((qids, Q, q_cells))

    probed_arr = np.asarray(probed, dtype=np.int64)

    def tag_cells(batch: pa.Table) -> pa.Table:
        Cm = ray.get(cref)
        M = emb_matrix(batch["embedding"])
        M = M / np.linalg.norm(M, axis=1, keepdims=True)
        # round-6 before argmax: same tie semantics as the SQL twin
        cells = np.argmax(np.round(M @ Cm.T, 6), axis=1).astype(np.int64)
        keep = np.flatnonzero(np.isin(cells, probed_arr))
        kept = batch.take(pa.array(keep, pa.int64()))   # zero-copy-ish gather
        return pa.table({
            "cell": pa.array(cells[keep], pa.int64()),
            "vec_id": kept["vec_id"].combine_chunks(),
            "embedding": kept["embedding"].combine_chunks(),
        })

    def cell_topk(group: pa.Table) -> pa.Table:
        cell = group["cell"][0].as_py()
        qids_, Q_, qc = ray.get(qref)
        sel = np.flatnonzero([(cell in row) for row in qc])
        ids = np.asarray(group["vec_id"].to_pylist(), dtype=np.int64)
        M = emb_matrix(group["embedding"])
        M = M / np.linalg.norm(M, axis=1, keepdims=True)
        Ssc = Q_[sel] @ M.T
        q_col, n_col, s_col = [], [], []
        for row, qi in enumerate(sel):
            keep = np.flatnonzero(ids != qids_[qi])
            order = keep[np.lexsort((ids[keep], -Ssc[row][keep]))][:k]
            q_col.extend([qids_[qi]] * len(order))
            n_col.extend(ids[order].tolist())
            s_col.extend(Ssc[row][order].tolist())
        return pa.table({
            "query_id": pa.array(q_col, pa.int64()),
            "neighbor_id": pa.array(n_col, pa.int64()),
            "score": pa.array(s_col, pa.float64()),
        })

    tagged = emb_ds.map_batches(tag_cells, batch_format="pyarrow")
    per_cell = tagged.groupby("cell").map_groups(cell_topk,
                                                 batch_format="pyarrow")
    return per_cell.repartition(1).map_batches(
        lambda b: _merge_topk_all(b, k), batch_format="pyarrow",
        batch_size=None)


# ----------------------------------------------------------------------
# LSH-bucketed approximate variant (the 100 TB path)
# ----------------------------------------------------------------------

def _hyperplanes(dim: int, n_bits: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((n_bits, dim))


def _sign_bucket(M: np.ndarray, H: np.ndarray) -> np.ndarray:
    bits = (M @ H.T) > 0                       # rows x n_bits
    weights = (1 << np.arange(H.shape[0], dtype=np.int64))
    return bits.astype(np.int64) @ weights


def _probe_buckets(raw: np.ndarray, n_bits: int, n_probe: int
                   ) -> np.ndarray:
    """Multi-probe bucket list per query (n_q x n_probe int64).

    ``raw`` is the signed hyperplane margin matrix (Q @ H.T).  All
    2^n_bits flip masks are enumerated and costed as the sum of |margin|
    over flipped bits; each query probes the ``n_probe`` cheapest masks
    (the un-flipped home bucket, cost 0, always first).  Flipping the
    lowest-margin bits visits exactly the buckets a near-boundary
    neighbor most likely fell into — the standard multi-probe LSH trick
    that buys recall without extra hash tables or corpus replication."""
    n_probe = min(n_probe, 1 << n_bits)
    masks = np.arange(1 << n_bits, dtype=np.int64)
    flip = ((masks[:, None] >> np.arange(n_bits)) & 1).astype(np.float64)
    costs = np.abs(raw) @ flip.T                 # n_q x 2^n_bits
    probe_ix = np.argsort(costs, axis=1, kind="stable")[:, :n_probe]
    base = ((raw > 0).astype(np.int64)
            @ (1 << np.arange(n_bits, dtype=np.int64)))
    return base[:, None] ^ masks[probe_ix]


def lsh_topk(emb_ds, query_ids: list[int], *, k: int = 10, n_bits: int = 4,
             seed: int = 29, n_probe: int = 8):
    """Approximate top-k: random-hyperplane buckets with multi-probe
    querying, exact scoring in-bucket.

    Each corpus block emits (bucket, vec_id, embedding) only for buckets
    some query probes — every corpus row still lands in exactly ONE
    bucket, so multi-probe expands the query side only, never corpus
    replication.  Each probed bucket's groupby group scores its queries
    exactly and emits a partial top-k; a final single-task merge (the
    partial stream is <= n_queries * n_probe * k narrow rows) ranks
    across a query's probed buckets.  Recall rises with ``n_probe``
    (probing the lowest-|margin| bit flips); still approximate — a
    neighbor outside every probed bucket is missed by design.
    """
    qids, Q = _pull_queries(emb_ds, query_ids)
    dim = Q.shape[1]
    H = _hyperplanes(dim, n_bits, seed)
    q_probes = _probe_buckets(Q @ H.T, n_bits, n_probe)
    qref = ray.put((qids, Q, q_probes))
    href = ray.put(H)

    wanted_arr = np.unique(q_probes)

    def tag_buckets(batch: pa.Table) -> pa.Table:
        M = emb_matrix(batch["embedding"])
        M = M / np.linalg.norm(M, axis=1, keepdims=True)
        buckets = _sign_bucket(M, ray.get(href))
        idx = np.flatnonzero(np.isin(buckets, wanted_arr))
        kept = batch.take(pa.array(idx, pa.int64()))    # zero-copy-ish gather
        return pa.table({
            "bucket": pa.array(buckets[idx], pa.int64()),
            "vec_id": kept["vec_id"].combine_chunks(),
            "embedding": kept["embedding"].combine_chunks(),
        })

    def bucket_topk(group: pa.Table) -> pa.Table:
        bucket = group["bucket"][0].as_py()
        qids_, Q_, qp = ray.get(qref)
        sel = np.flatnonzero((qp == bucket).any(axis=1))
        ids = np.asarray(group["vec_id"].to_pylist(), dtype=np.int64)
        M = emb_matrix(group["embedding"])
        M = M / np.linalg.norm(M, axis=1, keepdims=True)
        S = Q_[sel] @ M.T
        # one flattened lexsort resolves every selected query's top-k at
        # once (the _merge_topk_all idiom): sort (query, -score, id),
        # keep rank < k per query group, self-pairs masked out first.
        qarr = np.asarray([qids_[qi] for qi in sel], dtype=np.int64)
        n_sel, n_rows = S.shape
        qq = np.repeat(np.arange(n_sel), n_rows)
        ii = np.tile(ids, n_sel)
        ss = S.ravel()
        mask = ii != qarr[qq]
        qq, ii, ss = qq[mask], ii[mask], ss[mask]
        order = np.lexsort((ii, -ss, qq))
        qs = qq[order]
        starts = np.flatnonzero(np.r_[True, qs[1:] != qs[:-1]])
        sizes = np.diff(np.r_[starts, qs.size])
        rank = np.arange(qs.size) - np.repeat(starts, sizes)
        keep = order[rank < k]
        return pa.table({
            "query_id": pa.array(qarr[qq[keep]], pa.int64()),
            "neighbor_id": pa.array(ii[keep], pa.int64()),
            "score": pa.array(ss[keep], pa.float64()),
        })

    tagged = emb_ds.map_batches(tag_buckets, batch_format="pyarrow")
    per_bucket = tagged.groupby("bucket").map_groups(
        bucket_topk, batch_format="pyarrow")
    # merge a query's partial top-ks across its probed buckets; the
    # partial stream is <= n_queries * n_probe * k narrow rows
    return per_bucket.repartition(1).map_batches(
        lambda b: _merge_topk_all(b, k), batch_format="pyarrow",
        batch_size=None)


def knn_self_join(emb_ds, *, k: int = 3, method: str = "blocked",
                  n_blocks: int = 8, merge_parts: int = 8):
    """Exact all-pairs kNN self-join: every vector's top-k cosine
    neighbors (self excluded) — the pairwise primitive behind kNN-graph
    construction for cluster analysis and near-dup audits.

    ``method="blocked"`` (default, the no-broadcast shape): the classic
    triangle block join.  Rows hash into ``n_blocks`` blocks by vec_id;
    every unordered block pair (i <= j) forms one group, each row
    replicates to its block's ``n_blocks`` groups, and a per-group
    matmul emits each side's partial top-k vs the other side.  A row's
    true top-k neighbor is necessarily in its partial top-k vs the
    neighbor's block, so merging a row's partials (a hash-partitioned
    lexsort over <= n * n_blocks * k narrow rows) is EXACT.  Compute is
    ~n^2/2 dots (half the broadcast baseline, which scores both
    triangles); communication is n * n_blocks replicated rows — never
    an O(n*d) driver-side matrix.  At 100 TB the approximate answers
    come from ``lsh_topk``/``ivf_topk``; this stays the exact
    recall-audit baseline, now in a shape that distributes.

    ``method="matrix"``: the original broadcast-matrix baseline — the
    normalized corpus broadcasts once (``ray.put``) and each block does
    one (block x corpus) matmul.  Kept as the oracle cross-check.

    Output: (vec_id, neighbor_id, score rounded 6dp, rank 1..k), ties
    broken (score desc, neighbor_id asc) — identical for both methods.
    """
    if method == "blocked":
        return _knn_self_join_blocked(emb_ds, k=k, n_blocks=n_blocks,
                                      merge_parts=merge_parts)
    assert method == "matrix", method
    from kgx.functions.collect import collect_arrow

    tbl = collect_arrow(emb_ds.select_columns(["vec_id", "embedding"]))
    ids_all = np.asarray(tbl["vec_id"].to_pylist(), dtype=np.int64)
    order = np.argsort(ids_all)
    ids_all = ids_all[order]
    M = emb_matrix(tbl["embedding"])[order]
    norms = np.linalg.norm(M, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    mref = ray.put((ids_all, M / norms))

    def block_knn(batch: pa.Table, _mref=mref) -> pa.Table:
        ids_c, Mn = ray.get(_mref)
        ids = np.asarray(batch["vec_id"].to_pylist(), dtype=np.int64)
        B = emb_matrix(batch["embedding"])
        bn = np.linalg.norm(B, axis=1, keepdims=True)
        bn[bn == 0] = 1.0
        # Rank on scores ROUNDED to 6dp so the oracle (DuckDB's own
        # unrounded list_cosine_similarity, rounded in SQL) sorts the
        # identical numbers — sub-ulp BLAS differences can otherwise
        # flip ranks at near-ties and break the hash gate.
        S = np.round((B / bn) @ Mn.T, 6)          # block_rows x corpus
        # exclude self; stable argsort on -S tie-breaks by neighbor id
        # automatically (columns are in ascending ids_c order)
        self_col = np.searchsorted(ids_c, ids)
        S[np.arange(len(ids)), self_col] = -np.inf
        kk = min(k, S.shape[1] - 1)
        idx = np.argsort(-S, axis=1, kind="stable")[:, :kk]
        rows = np.repeat(np.arange(len(ids)), kk)
        cols = idx.ravel()
        sc = S[rows, cols]
        rank = np.tile(np.arange(1, kk + 1), len(ids))
        return pa.table({
            "vec_id": pa.array(ids[rows], pa.int64()),
            "neighbor_id": pa.array(ids_c[cols], pa.int64()),
            "score": pa.array(sc, pa.float64()),
            "rank": pa.array(rank, pa.int64()),
        })

    return emb_ds.map_batches(block_knn, batch_format="pyarrow")


def _side_topk(ids_q: np.ndarray, ids_n: np.ndarray, Sc: np.ndarray,
               k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row partial top-k from a (rows x cols) rounded score matrix.
    Columns must be in ascending ids_n order so the stable argsort
    tie-breaks (score desc, neighbor_id asc) automatically."""
    kk = min(k, Sc.shape[1])
    if kk <= 0 or not len(ids_q):
        z = np.zeros(0, np.int64)
        return z, z, np.zeros(0, np.float64)
    idx = np.argsort(-Sc, axis=1, kind="stable")[:, :kk]
    rows = np.repeat(np.arange(len(ids_q)), kk)
    cols = idx.ravel()
    sc = Sc[rows, cols]
    fin = sc > -np.inf                    # drop masked self slots
    return ids_q[rows[fin]], ids_n[cols[fin]], sc[fin]


def _knn_self_join_blocked(emb_ds, *, k: int, n_blocks: int,
                           merge_parts: int):
    """Triangle block-join kNN (see :func:`knn_self_join`)."""
    pairs = [(i, j) for i in range(n_blocks) for j in range(i, n_blocks)]
    block_gids: dict[int, list[int]] = {}
    for gid, (i, j) in enumerate(pairs):
        block_gids.setdefault(i, []).append(gid)
        if j != i:
            block_gids.setdefault(j, []).append(gid)
    gref = ray.put((block_gids, np.asarray(pairs, dtype=np.int64)))

    def replicate(batch: pa.Table) -> pa.Table:
        groups, _ = ray.get(gref)
        ids = np.asarray(batch["vec_id"].to_pylist(), dtype=np.int64)
        blocks = ids % n_blocks
        gid_col = np.concatenate(
            [np.asarray(groups[int(b)], dtype=np.int64) for b in blocks]
        ) if len(ids) else np.zeros(0, np.int64)
        rows = np.repeat(np.arange(len(ids)), n_blocks)
        rep = batch.take(pa.array(rows, pa.int64()))
        return pa.table({
            "gid": pa.array(gid_col, pa.int64()),
            "block": pa.array(blocks[rows], pa.int64()),
            "vec_id": rep["vec_id"].combine_chunks(),
            "embedding": rep["embedding"].combine_chunks(),
        })

    def group_topk(group: pa.Table) -> pa.Table:
        _, pairs_arr = ray.get(gref)
        gid = group["gid"][0].as_py()
        bi, bj = int(pairs_arr[gid][0]), int(pairs_arr[gid][1])
        blocks = np.asarray(group["block"].to_pylist(), dtype=np.int64)
        ids = np.asarray(group["vec_id"].to_pylist(), dtype=np.int64)
        M = emb_matrix(group["embedding"])
        nrm = np.linalg.norm(M, axis=1, keepdims=True)
        nrm[nrm == 0] = 1.0
        M = M / nrm
        qs, ns, ss = [], [], []
        if bi == bj:
            order = np.argsort(ids)
            ids_s, Ms = ids[order], M[order]
            Sc = np.round(Ms @ Ms.T, 6)
            np.fill_diagonal(Sc, -np.inf)     # exclude self
            q, n, s = _side_topk(ids_s, ids_s, Sc, k)
            qs.append(q); ns.append(n); ss.append(s)
        else:
            am, bm = blocks == bi, blocks == bj
            oa, ob = np.argsort(ids[am]), np.argsort(ids[bm])
            ia, ib = ids[am][oa], ids[bm][ob]
            Ma, Mb = M[am][oa], M[bm][ob]
            if len(ia) and len(ib):
                Sc = np.round(Ma @ Mb.T, 6)
                q, n, s = _side_topk(ia, ib, Sc, k)
                qs.append(q); ns.append(n); ss.append(s)
                q, n, s = _side_topk(ib, ia, Sc.T, k)
                qs.append(q); ns.append(n); ss.append(s)
        if not qs:
            qs, ns, ss = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)], \
                         [np.zeros(0, np.float64)]
        return pa.table({
            "query_id": pa.array(np.concatenate(qs), pa.int64()),
            "neighbor_id": pa.array(np.concatenate(ns), pa.int64()),
            "score": pa.array(np.concatenate(ss), pa.float64()),
            "part": pa.array(np.concatenate(qs) % merge_parts, pa.int64()),
        })

    rep = emb_ds.map_batches(replicate, batch_format="pyarrow")
    partial = rep.groupby("gid").map_groups(group_topk,
                                            batch_format="pyarrow")
    # hash-partitioned merge: each part holds <= (n/merge_parts) *
    # n_blocks * k narrow rows — no single-task bottleneck at scale
    merged = partial.groupby("part").map_groups(
        lambda g: _merge_topk_all(g, k), batch_format="pyarrow")
    return merged.map_batches(
        lambda t: t.rename_columns(
            ["vec_id", "neighbor_id", "score", "rank"]),
        batch_format="pyarrow")
