"""Product-quantization (IVF-ADC) approximate nearest neighbors.

The missing piece between the exact baselines (``cosine_topk`` /
``knn_self_join``) and the bucket-pruned approximations (``lsh_topk`` /
``ivf_topk``): at 100 TB the embedding column itself is the storage
problem — float32*dim is 256 B/vector at dim=64 — and PQ compresses each
vector to ``m`` uint8 codes (8 B here, 32x) while still supporting
asymmetric-distance (ADC) scoring against uncompressed queries.

Scale shape (all driver state is KB-sized):

1. TRAIN driver-side on a deterministic sample (``vec_id % train_mod``):
   a coarse k-means quantizer (IVF cells, reused from
   ``kgx.ops.simsearch._kmeans``) plus one k-means codebook per
   ``m``-way subspace.  Codebooks are (m x k_sub x dim/m) — a few KB —
   broadcast once via ``ray.put``.
2. ENCODE with one ``map_batches`` pass: cell id + m uint8 codes per
   vector.  The encoded table (vec_id, cell, code) is what a deployment
   would persist — the float embeddings never need to be read again for
   search.
3. SEARCH: each query probes its ``n_probe`` nearest cells; a per-query
   ADC lookup table (m x k_sub dot products) turns scoring a code into
   ``m`` table lookups — vectorized here as one fancy-index sum per
   block.  Probed-cell rows flow through the same
   ``groupby(cell) -> partial top-k -> single small merge`` shape as
   ``ivf_topk``; nothing corpus-sized is broadcast or materialized.

Approximate by construction (quantization error + cell pruning) but
fully deterministic, and since round 5 EXACT against an unrolled DuckDB
oracle (deterministic-init k-means, 6dp rounding at every train/encode
step, stable tie-breaks score desc / vec_id asc); the recall floor vs
the exact baseline is additionally pinned in tests.

The reference has no ANN surface; this extends its VectorRAG brute-force
retrieval (/root/reference/baselines/vector_rag.py:34-38) the way a
100 TB deployment would have to.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from kgx.ops.simsearch import (_kmeans, _merge_topk_all, _pull_queries,
                               _train_sample, emb_matrix)


def train_pq(sample: np.ndarray, *, m: int, k_sub: int,
             iters: int) -> np.ndarray:
    """Per-subspace k-means codebooks: (m, k_sub, dim//m).

    Subspace vectors are NOT re-normalized (they are residual-free
    slices of unit vectors); k-means here is plain Lloyd's on the
    euclidean geometry.  Deterministic AND SQL-twinnable since round 5:
    init = the first ``k_sub`` sample rows per subspace, assignment =
    argmin of the 6dp-rounded squared distance (ties -> lowest code),
    update = member mean rounded 6dp — the same rounding discipline as
    :func:`kgx.ops.simsearch._kmeans`, which lets the DuckDB oracle
    reproduce every codebook exactly.  (Like every 6dp-rounded oracle
    in this repo, exactness assumes no value lands within the two
    engines' float-sum residue of a 0.5e-6 rounding boundary — the
    synthetic embeddings keep comfortable margins, and the gate would
    flag a violation rather than hide it.)"""
    dim = sample.shape[1]
    assert dim % m == 0, (dim, m)
    d_sub = dim // m
    # codebook height = min(k_sub, sample size): zero-PADDING to k_sub
    # would let _encode pick phantom all-zero codewords the SQL twin
    # does not contain (its init CTE naturally holds only real rows)
    n_codes = min(k_sub, len(sample))
    books = np.zeros((m, n_codes, d_sub))
    for j in range(m):
        sub = sample[:, j * d_sub:(j + 1) * d_sub]
        C = np.round(sub[:n_codes].copy(), 6)
        for _ in range(iters):
            # euclidean assignment (argmin ||x - c||^2), stable ties
            d2 = (sub ** 2).sum(1, keepdims=True) \
                - 2.0 * (sub @ C.T) + (C ** 2).sum(1)[None, :]
            assign = np.argmin(np.round(d2, 6), axis=1)
            for c in range(len(C)):
                members = sub[assign == c]
                if len(members):
                    C[c] = np.round(members.mean(axis=0), 6)
        books[j, :len(C)] = C
    return books


def _encode(M: np.ndarray, books: np.ndarray) -> np.ndarray:
    """(rows, dim) -> (rows, m) uint8 codes, nearest codeword per
    subspace (euclidean, stable argmin tie-break)."""
    m, k_sub, d_sub = books.shape
    codes = np.zeros((len(M), m), dtype=np.uint8)
    for j in range(m):
        sub = M[:, j * d_sub:(j + 1) * d_sub]
        C = books[j]
        d2 = (sub ** 2).sum(1, keepdims=True) - 2.0 * (sub @ C.T) \
            + (C ** 2).sum(1)[None, :]
        # round-6 before argmin: same tie semantics as the SQL twin
        codes[:, j] = np.argmin(np.round(d2, 6), axis=1).astype(np.uint8)
    return codes


def pq_encode(emb_ds, *, m: int = 8, k_sub: int = 32, n_cells: int = 16,
              train_mod: int = 4, iters: int = 5):
    """Encode the corpus: (vec_id, cell, code list<uint8>) — the
    persisted, 32x-smaller search table.  Returns (encoded_ds, cref,
    bref): centroid/codebook object refs for reuse by :func:`pq_topk`."""
    sample = _train_sample(emb_ds, train_mod)
    cells = _kmeans(sample, n_cells, iters)
    books = train_pq(sample, m=m, k_sub=k_sub, iters=iters)
    cref, bref = ray.put(cells), ray.put(books)

    def encode(batch: pa.Table) -> pa.Table:
        C, B = ray.get(cref), ray.get(bref)
        M = emb_matrix(batch["embedding"])
        M = M / np.linalg.norm(M, axis=1, keepdims=True)
        # round-6 before argmax: same tie semantics as the SQL twin
        cell = np.argmax(np.round(M @ C.T, 6), axis=1).astype(np.int64)
        codes = _encode(M, B)
        return pa.table({
            "vec_id": batch["vec_id"].combine_chunks(),
            "cell": pa.array(cell, pa.int64()),
            "code": pa.array([c.tolist() for c in codes],
                             pa.list_(pa.uint8())),
        })

    return (emb_ds.map_batches(encode, batch_format="pyarrow"),
            cref, bref)


def pq_topk(emb_ds, query_ids: list[int], *, k: int = 10, m: int = 16,
            k_sub: int = 32, n_cells: int = 16, n_probe: int = 8,
            train_mod: int = 4, iters: int = 5, refine: int = 4):
    """IVF-ADC top-k with exact re-ranking (IVFADC+R): PQ-encode the
    corpus, probe each query's ``n_probe`` nearest cells, score codes
    via the query's ADC lookup table, shortlist ``k * refine``
    candidates per query, then ONE extra pass over the float embeddings
    re-scores just the shortlist exactly (<= n_queries * k * refine
    rows survive the filter — never a corpus materialization).

    ``refine`` decouples recall from quantization error: the final
    ranking is exact within the probed cells, so recall equals the
    IVF cell-probe recall whenever the true neighbor enters the ADC
    shortlist.  ``refine=0`` skips the pass and returns raw ADC ranks
    (scores then carry quantization error — the pure compressed-domain
    mode a deployment uses when the floats are cold storage).

    Output: (query_id, neighbor_id, score 6dp, rank).
    """
    # four passes share one cached read (queries, train sample, encode,
    # exact refine) — without it each pass re-executes the read graph
    emb_ds = emb_ds.materialize()
    qids, Q = _pull_queries(emb_ds, query_ids)
    encoded, cref, bref = pq_encode(
        emb_ds, m=m, k_sub=k_sub, n_cells=n_cells, train_mod=train_mod,
        iters=iters)

    shortlist_k = k if refine <= 0 else k * refine
    cells = ray.get(cref)
    q_cells = np.argsort(-np.round(Q @ cells.T, 6), axis=1,
                         kind="stable")[:, :n_probe]
    probed = np.unique(q_cells)
    books = ray.get(bref)
    m_, k_sub_, d_sub = books.shape
    # ADC tables: luts[q, j, c] = Q[q, sub_j] . books[j, c]
    luts = np.einsum("qjd,jcd->qjc",
                     Q.reshape(len(Q), m_, d_sub), books)
    qref = ray.put((qids, luts, q_cells))

    def keep_probed(batch: pa.Table) -> pa.Table:
        c = np.asarray(batch["cell"].to_pylist(), dtype=np.int64)
        keep = np.flatnonzero(np.isin(c, probed))
        return batch.take(pa.array(keep, pa.int64()))

    def cell_topk(group: pa.Table) -> pa.Table:
        cell = group["cell"][0].as_py()
        qids_, luts_, qc = ray.get(qref)
        sel = np.flatnonzero((qc == cell).any(axis=1))
        ids = np.asarray(group["vec_id"].to_pylist(), dtype=np.int64)
        order = np.argsort(ids)
        ids = ids[order]
        codes = np.asarray(group["code"].to_pylist(),
                           dtype=np.int64)[order]          # rows x m
        cols = np.arange(codes.shape[1])
        q_col, n_col, s_col = [], [], []
        for qi in sel:
            scores = luts_[qi][cols, codes].sum(axis=1)    # ADC lookups
            scores = np.round(scores, 6)
            keep = np.flatnonzero(ids != qids_[qi])
            # emit the full per-cell shortlist (k * refine when
            # refining), not just top-k: candidates ranked k+1..k*refine
            # by ADC within one cell must survive to the exact re-rank
            # for `refine` to buy the recall the docstring promises
            top = keep[np.lexsort((ids[keep], -scores[keep]))][:shortlist_k]
            q_col.extend([qids_[qi]] * len(top))
            n_col.extend(ids[top].tolist())
            s_col.extend(scores[top].tolist())
        return pa.table({
            "query_id": pa.array(q_col, pa.int64()),
            "neighbor_id": pa.array(n_col, pa.int64()),
            "score": pa.array(s_col, pa.float64()),
        })

    per_cell = encoded.map_batches(keep_probed, batch_format="pyarrow") \
        .groupby("cell").map_groups(cell_topk, batch_format="pyarrow")
    # merge stream <= n_queries * n_probe * shortlist_k narrow rows
    adc = per_cell.repartition(1).map_batches(
        lambda b: _merge_topk_all(b, shortlist_k), batch_format="pyarrow",
        batch_size=None)
    if refine <= 0:
        return adc

    # exact re-rank: broadcast the tiny shortlist, one filtered pass
    # over the float embeddings, final small merge
    from kgx.functions.collect import collect_arrow
    sl = collect_arrow(adc)
    sl_q = np.asarray(sl["query_id"].to_pylist(), dtype=np.int64)
    sl_n = np.asarray(sl["neighbor_id"].to_pylist(), dtype=np.int64)
    cand_ids = np.unique(sl_n)
    qix = {int(q): i for i, q in enumerate(qids)}
    cand_sets: dict[int, set] = {}
    for q, n in zip(sl_q, sl_n):
        cand_sets.setdefault(int(n), set()).add(int(q))
    rref = ray.put((qids, Q, cand_ids, cand_sets))

    def rescore(batch: pa.Table) -> pa.Table:
        qids_, Q_, cids, csets = ray.get(rref)
        ids = np.asarray(batch["vec_id"].to_pylist(), dtype=np.int64)
        keep = np.flatnonzero(np.isin(ids, cids))
        if not len(keep):
            return pa.table({
                "query_id": pa.array([], pa.int64()),
                "neighbor_id": pa.array([], pa.int64()),
                "score": pa.array([], pa.float64())})
        kept = batch.take(pa.array(keep, pa.int64()))
        M = emb_matrix(kept["embedding"])
        M = M / np.linalg.norm(M, axis=1, keepdims=True)
        S = Q_ @ M.T
        kid = ids[keep]
        q_col, n_col, s_col = [], [], []
        for col, vid in enumerate(kid):
            for q in csets[int(vid)]:
                q_col.append(q)
                n_col.append(int(vid))
                s_col.append(float(S[qix[q], col]))
        return pa.table({
            "query_id": pa.array(q_col, pa.int64()),
            "neighbor_id": pa.array(n_col, pa.int64()),
            "score": pa.array(s_col, pa.float64()),
        })

    rescored = emb_ds.map_batches(rescore, batch_format="pyarrow")
    return rescored.repartition(1).map_batches(
        lambda b: _merge_topk_all(b, k), batch_format="pyarrow",
        batch_size=None)
