"""Deduplication operators: exact, n-gram Jaccard, MinHash+LSH, SimHash,
embedding-cosine.

Scale design notes (100 TB path):

- **Exact** dedup is one sort on the content fingerprint — the only
  all-to-all move is one narrow (fingerprint, doc_id) table.
- **Exact Jaccard** (:func:`jaccard_pairs`) defaults to
  ``method="lsh_verify"``: MinHash-LSH banding over the term sets
  generates candidate pairs, and each candidate is verified with the
  EXACT set Jaccard via two co-shuffle joins that attach the term sets —
  nothing is materialized driver-side, nothing is broadcast.  With the
  default 32 bands x 2 rows the per-pair miss probability at J >= 0.8 is
  (1 - J^2)^32 <= 4e-15 — numerically exact in practice, and the DuckDB
  oracle gate checks exact equality.  ``method="matrix"`` keeps the
  quadratic broadcast-incidence baseline (one numpy matmul per block
  against a driver-built doc x vocab matrix) for reference/testing.
- **Embedding-cosine** near-dup is the analogous *baseline* quadratic
  path (broadcast normalized matrix, one matmul per block); past one
  node's heap, the scale path is the hyperplane-LSH bucketing of
  :func:`kgx.ops.simsearch.lsh_topk`.
- **MinHash+LSH** (shingle -> minhash -> band -> sort on (band,
  bucket)) and **SimHash** (bit-sampling bands, sort on (band, value))
  never materialize a pairwise matrix: candidates come out of one pass
  over each sorted block (kgx.functions.fold.map_sorted_blocks), and
  first-band ownership emits each pair once.  Both are deterministic
  (seeded permutations, content hashes) but approximate, so their driver
  checks are rows-only.  A skewed bucket (boilerplate-identical docs)
  would go quadratic, so in-bucket pair generation is CAPPED at
  ``max_bucket_pairs`` with the drop count logged — never silent.

The reference has no dedup beyond case-insensitive entity-name equality
(/root/reference/models/knowledge_graph.py:25-45); these operators are the
training-data-pipeline surface.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from kgx.functions.fold import map_sorted_blocks
from kgx.ops.text import WS_TOKEN_RE  # noqa: F401  (shared tokenization)

TERM_RE = r"\b[a-z]{4,}\b"

_MERSENNE = (1 << 61) - 1


# ----------------------------------------------------------------------
# Exact dedup
# ----------------------------------------------------------------------

def fingerprint_docs_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, text) -> (doc_id, fingerprint md5)."""
    return pa.table({
        "doc_id": batch["doc_id"],
        "fingerprint": pa.array(
            [hashlib.md5(t.encode("utf-8")).hexdigest()
             for t in batch["text"].to_pylist()], pa.string()),
    })


def _dedup_block(block: pa.Table) -> pa.Table:
    """Fold EVERY fingerprint in one sorted block vectorized: np.unique
    codes, min-doc representative via np.minimum.at, counts via
    bincount — one Python call per block, not per distinct document."""
    fps = np.asarray(block["fingerprint"].to_pylist())
    ids = np.asarray(block["doc_id"].to_pylist(), dtype=np.int64)
    uniq, inv = np.unique(fps, return_inverse=True)
    rep = np.full(len(uniq), np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(rep, inv, ids)
    cnt = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
    return pa.table({
        "fingerprint": pa.array(uniq.tolist(), pa.string()),
        "rep_doc_id": pa.array(rep, pa.int64()),
        "n_docs": pa.array(cnt, pa.int64()),
    })


_EXACT_SCHEMA = pa.schema([("fingerprint", pa.string()),
                           ("rep_doc_id", pa.int64()),
                           ("n_docs", pa.int64())])


def exact_dup_groups(docs_ds):
    """documents -> one row per distinct content fingerprint with the
    smallest doc_id as the kept representative.  One sort on the
    fingerprint puts every copy of a text in one block and
    :func:`_dedup_block` folds each whole block
    (kgx.functions.fold.map_sorted_blocks, which materializes and
    coalesces the fingerprint rows when the fold is built)."""
    fp = docs_ds.map_batches(fingerprint_docs_batch, batch_format="pyarrow")
    return map_sorted_blocks(fp, "fingerprint", _dedup_block, _EXACT_SCHEMA)


# ----------------------------------------------------------------------
# Doc-term incidence helpers (shared by Jaccard exact + MinHash verify)
# ----------------------------------------------------------------------

def term_sets_batch(batch: pa.Table, pattern: str = TERM_RE) -> pa.Table:
    """(doc_id, text) -> (doc_id, terms: sorted distinct list)."""
    import re
    rx = re.compile(pattern)
    terms = [sorted(set(rx.findall(t))) for t in batch["text"].to_pylist()]
    return pa.table({
        "doc_id": batch["doc_id"],
        "terms": pa.array(terms, pa.list_(pa.string())),
    })


def collect_incidence(term_sets_ds):
    """Pull the (small) doc->term-set table and build the incidence matrix.

    Returns (doc_ids int64 array, vocab list, B bool matrix n_docs x vocab).
    Driver-side by design — this is the broadcast small side of the exact
    quadratic baseline; see module docstring for the scale path.
    """
    from kgx.functions.collect import collect_arrow
    tbl = collect_arrow(term_sets_ds)
    doc_ids = np.asarray(tbl["doc_id"].to_pylist(), dtype=np.int64)
    order = np.argsort(doc_ids)
    doc_ids = doc_ids[order]
    sets = [tbl["terms"][int(i)].as_py() for i in order]
    vocab = sorted({t for s in sets for t in s})
    index = {t: i for i, t in enumerate(vocab)}
    B = np.zeros((len(sets), len(vocab)), dtype=bool)
    for r, s in enumerate(sets):
        for t in s:
            B[r, index[t]] = True
    return doc_ids, vocab, B


def jaccard_pairs(docs_ds, *, threshold: float = 0.8,
                  pattern: str = TERM_RE, method: str = "lsh_verify"):
    """Exact term-set Jaccard near-dup pairs >= threshold, emitted as
    (doc_a < doc_b, jaccard).

    ``method="lsh_verify"`` (default): LSH candidates + exact per-pair
    verification via co-shuffle joins — the scale path (see module
    docstring).  ``method="matrix"``: the broadcast incidence-matrix
    baseline (driver-side materialization; fine as an oracle baseline,
    weak at 100 TB).
    """
    if method == "lsh_verify":
        return _jaccard_pairs_lsh_verified(docs_ds, threshold=threshold,
                                           pattern=pattern)
    return _jaccard_pairs_matrix(docs_ds, threshold=threshold,
                                 pattern=pattern)


def _jaccard_pairs_matrix(docs_ds, *, threshold: float, pattern: str):
    import ray

    sets_ds = docs_ds.map_batches(
        lambda b: term_sets_batch(b, pattern), batch_format="pyarrow")
    sets_ds = sets_ds.materialize()
    doc_ids, _vocab, B = collect_incidence(sets_ds)
    sizes = B.sum(axis=1).astype(np.int64)
    bref = ray.put((doc_ids, B.astype(np.int8), sizes))

    class ScoreBlock:
        def __init__(self, bref):
            self.doc_ids, self.B, self.sizes = ray.get(bref)
            self.pos = {d: i for i, d in enumerate(self.doc_ids)}

        def __call__(self, batch: pa.Table) -> pa.Table:
            rows = np.asarray(
                [self.pos[d] for d in batch["doc_id"].to_pylist()],
                dtype=np.int64)
            inter = self.B[rows].astype(np.int64) @ self.B.T.astype(np.int64)
            na = self.sizes[rows][:, None]
            nb = self.sizes[None, :]
            union = na + nb - inter
            with np.errstate(divide="ignore", invalid="ignore"):
                j = np.where(union > 0, inter / union, 0.0)
            a_ids = self.doc_ids[rows][:, None]
            b_ids = self.doc_ids[None, :]
            mask = (j >= threshold) & (a_ids < b_ids)
            ai, bi = np.nonzero(mask)
            return pa.table({
                "doc_a": pa.array(a_ids[ai, 0], pa.int64()),
                "doc_b": pa.array(b_ids[0, bi], pa.int64()),
                "jaccard": pa.array(j[ai, bi], pa.float64()),
            })

    from kgx.stages.extract import make_task_extractor
    # task-based with a per-worker cached instance: an actor pool here
    # pays ~1 s spin-up per query invocation for KB-scale ctor state
    # (the kmeans stages document the same choice)
    return sets_ds.map_batches(
        make_task_extractor(ScoreBlock, bref=bref),
        batch_format="pyarrow")


def _band_hashes(sig: np.ndarray, bands: int,
                 rows_per_band: int) -> np.ndarray:
    """Per-band bucket ids (uint64) from a minhash signature."""
    out = np.empty(bands, dtype=np.uint64)
    for band in range(bands):
        chunk = sig[band * rows_per_band:(band + 1) * rows_per_band]
        out[band] = np.uint64(int.from_bytes(hashlib.blake2b(
            chunk.tobytes(), digest_size=8).digest(), "big"))
    return out


def _owned_bucket_pairs(group: pa.Table) -> pa.Table:
    """Emit (doc_a < doc_b) pairs of one (band, bucket) group ONLY when
    this band is the pair's FIRST colliding band (emit-once ownership):
    every band row carries the doc's full per-band bucket vector, so the
    first-collision band is computed vectorized per pair, and no
    deduplicating shuffle over the (bands x pairs) blowup is ever needed.
    """
    band = group["band"][0].as_py()
    ids = np.asarray(group["doc_id"].to_pylist(), dtype=np.int64)
    order = np.argsort(ids)
    ids = ids[order]
    B = np.asarray(group["bands"].to_pylist(), dtype=np.uint64)[order]
    iu, ju = np.triu_indices(len(ids), k=1)
    if len(iu) == 0:
        return pa.table({"doc_a": pa.array([], pa.int64()),
                         "doc_b": pa.array([], pa.int64())})
    first = (B[iu] == B[ju]).argmax(axis=1)   # first colliding band
    keep = np.flatnonzero(first == band)
    return pa.table({"doc_a": pa.array(ids[iu[keep]], pa.int64()),
                     "doc_b": pa.array(ids[ju[keep]], pa.int64())})


def _jaccard_pairs_lsh_verified(docs_ds, *, threshold: float, pattern: str,
                                num_perm: int = 64, bands: int = 32,
                                seed: int = 13):
    """LSH-then-exact-verify Jaccard pairs (the scale default).

    1. minhash the term SET of each doc (one hash per term, ``num_perm``
       permutations) and emit band-bucket rows carrying the doc's full
       per-band bucket vector;
    2. candidate (doc_a < doc_b) pairs per bucket with FIRST-band
       ownership (:func:`_owned_bucket_pairs`) — each band-coincident
       pair is emitted by exactly one band, so there is no
       bands-x-pairs candidate blowup and no dedup shuffle; candidates
       are NOT filtered by the signature estimate, every one is
       verified exactly;
    3. two co-shuffle joins on doc id attach both term sets and compute
       the exact Jaccard; filter >= threshold.

    No driver materialization, no broadcast; shuffles move band rows,
    candidate pairs, and each candidate's two term lists.  Miss
    probability per true pair is (1 - J^rows_per_band)^bands — at the
    default 32x2 and J >= 0.8 that is <= 4e-15.
    """
    assert num_perm % bands == 0
    rows_per_band = num_perm // bands
    a, b = _perm_params(num_perm, seed)

    from kgx.functions.collect import shuffle_coalesce

    def term_hash_rows(batch: pa.Table) -> pa.Table:
        """(doc_id, thash): unique uint64 term hashes per doc — the
        verify payload AND the minhash input, computed once.  Jaccard
        over the hash sets equals Jaccard over the distinct term strings
        up to 64-bit collisions (~C(|terms|,2) * 2^-64 per doc — far
        below the gate's resolution, and deterministic)."""
        import re
        rx = re.compile(pattern)
        ids, hs = [], []
        for doc_id, text in zip(batch["doc_id"].to_pylist(),
                                batch["text"].to_pylist()):
            terms = set(rx.findall(text or ""))
            ids.append(doc_id)
            hs.append(np.unique(np.asarray(
                [int.from_bytes(hashlib.blake2b(
                    t.encode(), digest_size=8).digest(), "big")
                 for t in terms], dtype=np.uint64)).tolist()
                if terms else [])
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "thash": pa.array(hs, pa.list_(pa.uint64())),
        })

    # materialized once (feeds banding + both verify joins) and coalesced:
    # the four downstream shuffles' task counts track the block count
    sets_ds = shuffle_coalesce(docs_ds.map_batches(
        term_hash_rows, batch_format="pyarrow")).materialize()

    def band_rows(batch: pa.Table) -> pa.Table:
        band_c, bucket_c, doc_c, bands_c = [], [], [], []
        for doc_id, hashes in zip(batch["doc_id"].to_pylist(),
                                  batch["thash"].to_pylist()):
            sig = minhash_signature(
                np.asarray(hashes, dtype=np.uint64), a, b)
            bh = _band_hashes(sig, bands, rows_per_band)
            bh_list = bh.tolist()
            for band in range(bands):
                band_c.append(band)
                bucket_c.append(bh_list[band])
                doc_c.append(doc_id)
                bands_c.append(bh_list)
        return pa.table({
            "band": pa.array(band_c, pa.int32()),
            "bucket": pa.array(bucket_c, pa.uint64()),
            "doc_id": pa.array(doc_c, pa.int64()),
            "bands": pa.array(bands_c, pa.list_(pa.uint64())),
        })

    cand = sets_ds.map_batches(band_rows, batch_format="pyarrow") \
        .groupby(["band", "bucket"]).map_groups(_owned_bucket_pairs,
                                                batch_format="pyarrow")

    # verify join phase A: attach doc_a's term-hash set (key = doc_a)
    TERMS = pa.list_(pa.uint64())

    def sets_as_join_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({
            "key": batch["doc_id"].combine_chunks().cast(pa.int64()),
            "kind": pa.array(["s"] * n, pa.string()),
            "doc_a": pa.array([None] * n, pa.int64()),
            "doc_b": pa.array([None] * n, pa.int64()),
            "terms": batch["thash"].combine_chunks().cast(TERMS),
            "terms_a": pa.array([None] * n, TERMS),
        })

    def cand_as_join_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({
            "key": batch["doc_a"].combine_chunks().cast(pa.int64()),
            "kind": pa.array(["p"] * n, pa.string()),
            "doc_a": batch["doc_a"].combine_chunks().cast(pa.int64()),
            "doc_b": batch["doc_b"].combine_chunks().cast(pa.int64()),
            "terms": pa.array([None] * n, TERMS),
            "terms_a": pa.array([None] * n, TERMS),
        })

    def attach_a(group: pa.Table) -> pa.Table:
        kinds = group["kind"].to_pylist()
        try:
            s_row = kinds.index("s")
            terms = np.asarray(group["terms"][s_row].as_py(),
                               dtype=np.uint64)
        except ValueError:
            terms = None
        out = group.filter(pc.equal(group["kind"], "p"))
        if terms is None:
            return out.slice(0, 0)
        n = out.num_rows
        # replicate the term-hash set per candidate via one numpy tile
        # + ListArray offsets — no per-row Python list construction
        rep = pa.ListArray.from_arrays(
            pa.array(np.arange(n + 1, dtype=np.int32) * len(terms)),
            pa.array(np.tile(terms, n), pa.uint64()))
        return pa.table({
            "key": out["doc_b"].combine_chunks(),   # next join key
            "kind": out["kind"].combine_chunks(),
            "doc_a": out["doc_a"].combine_chunks(),
            "doc_b": out["doc_b"].combine_chunks(),
            "terms": pa.array([None] * n, TERMS),
            "terms_a": rep.cast(TERMS),
        })

    def verify_b(group: pa.Table) -> pa.Table:
        kinds = np.asarray(group["kind"].to_pylist())
        s_rows = np.flatnonzero(kinds == "s")
        a_c, b_c, j_c = [], [], []
        if len(s_rows):
            terms_b = np.asarray(group["terms"][int(s_rows[0])].as_py(),
                                 dtype=np.uint64)
            nb = len(terms_b)
            p_rows = np.flatnonzero(kinds == "p")
            da_all = np.asarray(group["doc_a"].to_pylist())
            db_all = np.asarray(group["doc_b"].to_pylist())
            # zero-copy candidate term sets: flatten + offset slicing,
            # no per-row Python list materialization
            ta_col = group["terms_a"].combine_chunks()
            # .values (not .flatten()) stays offset-aligned when null
            # rows ("s" side) are present
            flat = ta_col.values.to_numpy(zero_copy_only=False) \
                .astype(np.uint64, copy=False)
            offs = ta_col.offsets.to_numpy(zero_copy_only=False)
            for i in p_rows:
                sa = flat[offs[i]:offs[i + 1]]
                # both sides are unique-sorted uint64 hash sets
                inter = np.intersect1d(sa, terms_b,
                                       assume_unique=True).size
                union = len(sa) + nb - inter
                j = inter / union if union else 0.0
                if j >= threshold:
                    a_c.append(da_all[i])
                    b_c.append(db_all[i])
                    j_c.append(j)
        return pa.table({
            "doc_a": pa.array(a_c, pa.int64()),
            "doc_b": pa.array(b_c, pa.int64()),
            "jaccard": pa.array(j_c, pa.float64()),
        })

    sets_rows = sets_ds.map_batches(sets_as_join_rows,
                                    batch_format="pyarrow")
    phase_a = sets_rows.union(
        cand.map_batches(cand_as_join_rows, batch_format="pyarrow")) \
        .groupby("key").map_groups(attach_a, batch_format="pyarrow")
    return sets_rows.union(phase_a).groupby("key").map_groups(
        verify_b, batch_format="pyarrow")


# ----------------------------------------------------------------------
# MinHash + LSH
# ----------------------------------------------------------------------

def _shingle_hashes(tokens: list[str], k: int) -> np.ndarray:
    """Distinct uint64 shingle hashes — md5 low-64 (big-endian of the
    first 8 digest bytes) so the DuckDB oracle can mirror it exactly:
    ``CAST('0x' || substr(md5(s), 1, 16) AS UBIGINT)``."""
    if len(tokens) < k:
        joined = [" ".join(tokens)] if tokens else []
    else:
        joined = [" ".join(tokens[i:i + k]) for i in range(len(tokens) - k + 1)]
    if not joined:
        return np.zeros(0, dtype=np.uint64)
    return np.unique(np.asarray(
        [int.from_bytes(hashlib.md5(s.encode()).digest()[:8], "big")
         for s in joined], dtype=np.uint64))


def _perm_params(num_perm: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MERSENNE, size=num_perm, dtype=np.uint64)
    b = rng.integers(0, _MERSENNE, size=num_perm, dtype=np.uint64)
    return a, b


def minhash_signature(shingles: np.ndarray, a: np.ndarray,
                      b: np.ndarray) -> np.ndarray:
    """num_perm minhash values via (a*x + b) with wrapping uint64
    arithmetic, fully vectorized.

    Multiplication modulo 2^64 is itself a fine universal-ish hash family
    for minhashing (the low 64 bits of a*x are uniformly scrambled for odd
    a); it avoids the 128-bit intermediate a Mersenne-prime modulus needs,
    which otherwise forces Python-object math ~1000x slower per batch.
    Deterministic for a fixed seed.
    """
    if len(shingles) == 0:
        return np.full(len(a), np.iinfo(np.uint64).max, dtype=np.uint64)
    with np.errstate(over="ignore"):
        vals = shingles[:, None] * (a | np.uint64(1)) + b  # wraps mod 2^64
    return vals.min(axis=0)


class MinHashBands:
    """Actor-pool stage: documents batch -> (band, bucket, doc_id, sig) rows.

    Permutation parameters are derived once per actor in ``__init__`` from
    the seed (deterministic across the pool)."""

    def __init__(self, *, num_perm: int = 64, bands: int = 16, k: int = 3,
                 seed: int = 13):
        assert num_perm % bands == 0
        self.num_perm, self.bands, self.k = num_perm, bands, k
        self.rows_per_band = num_perm // bands
        self.a, self.b = _perm_params(num_perm, seed)

    def __call__(self, batch: pa.Table) -> pa.Table:
        band_col, bucket_col, doc_col, sig_col, bands_col = [], [], [], [], []
        for doc_id, text in zip(batch["doc_id"].to_pylist(),
                                batch["text"].to_pylist()):
            sig = minhash_signature(
                _shingle_hashes(text.split(), self.k), self.a, self.b)
            sig_list = sig.tolist()
            bh_list = _band_hashes(sig, self.bands,
                                   self.rows_per_band).tolist()
            for band in range(self.bands):
                band_col.append(band)
                bucket_col.append(bh_list[band])
                doc_col.append(doc_id)
                sig_col.append(sig_list)
                bands_col.append(bh_list)
        return pa.table({
            "band": pa.array(band_col, pa.int32()),
            "bucket": pa.array(bucket_col, pa.uint64()),
            "doc_id": pa.array(doc_col, pa.int64()),
            "sig": pa.array(sig_col, pa.list_(pa.uint64())),
            "bands": pa.array(bands_col, pa.list_(pa.uint64())),
        })


DEFAULT_MAX_BUCKET_PAIRS = 100_000


def _log_bucket_drop(op: str, n_members: int, n_emitted: int,
                     n_dropped: int) -> None:
    """No silent caps: a skewed bucket's truncation is always logged."""
    import logging
    logging.getLogger("kgx.dedup").warning(
        "%s: bucket with %d members capped — emitted %d pairs, "
        "dropped %d", op, n_members, n_emitted, n_dropped)


def _band_group_pairs(group: pa.Table,
                      max_pairs: int = DEFAULT_MAX_BUCKET_PAIRS) -> pa.Table:
    """Owned pairs across EVERY (band, bucket) segment in one block
    of the (band, bucket) sort, with signature-estimated Jaccard.

    One block holds many whole LSH buckets (see
    :func:`minhash_lsh_pairs`): rows lexsort by (band, bucket, doc_id),
    each segment runs the vectorized triu pair pass (numpy-only — the
    Python/Arrow overhead is paid once per block, not once per LSH
    bucket), and one Arrow table leaves per block.

    First-band ownership (see :func:`_owned_bucket_pairs`) means a pair
    is emitted by exactly one band — no dedup shuffle downstream.  A
    degenerate bucket (boilerplate-identical corpus) is quadratic in its
    member count, so emission is capped at ``max_pairs`` pairs per
    bucket (in deterministic sorted-id order) and the drop count is
    logged."""
    def _list_mat(col) -> np.ndarray:
        # fixed-length uint64 lists -> (rows, width) without a Python
        # round-trip (same flatten device as simsearch.emb_matrix)
        arr = col.combine_chunks()
        flat = arr.flatten().to_numpy(zero_copy_only=False)
        return flat.reshape(len(arr), flat.size // max(len(arr), 1))

    bands_col = np.asarray(group["band"].to_pylist(), dtype=np.int64)
    buckets = np.asarray(group["bucket"].to_pylist(), dtype=np.uint64)
    ids = np.asarray(group["doc_id"].to_pylist(), dtype=np.int64)
    B = _list_mat(group["bands"]).astype(np.uint64, copy=False)
    S = _list_mat(group["sig"]).astype(np.uint64, copy=False)
    order = np.lexsort((ids, buckets, bands_col))
    b_s, k_s = bands_col[order], buckets[order]
    starts = np.flatnonzero(np.r_[True, (b_s[1:] != b_s[:-1]) |
                                  (k_s[1:] != k_s[:-1])])
    ends = np.r_[starts[1:], len(order)]
    a_c, b_c, e_c = [], [], []
    for s, e in zip(starts, ends):
        if e - s < 2:
            continue
        seg = order[s:e]                  # already doc_id-ascending
        band = int(b_s[s])
        sid, sB, sS = ids[seg], B[seg], S[seg]
        iu, ju = np.triu_indices(e - s, k=1)
        first = (sB[iu] == sB[ju]).argmax(axis=1)
        keep = np.flatnonzero(first == band)
        if len(keep) > max_pairs:
            _log_bucket_drop("minhash_lsh_pairs", e - s, max_pairs,
                             len(keep) - max_pairs)
            keep = keep[:max_pairs]
        if len(keep):
            a_c.append(sid[iu[keep]])
            b_c.append(sid[ju[keep]])
            e_c.append((sS[iu[keep]] == sS[ju[keep]]).mean(axis=1))
    if not a_c:
        return pa.table({"doc_a": pa.array([], pa.int64()),
                         "doc_b": pa.array([], pa.int64()),
                         "est_jaccard": pa.array([], pa.float64())})
    return pa.table({
        "doc_a": pa.array(np.concatenate(a_c), pa.int64()),
        "doc_b": pa.array(np.concatenate(b_c), pa.int64()),
        "est_jaccard": pa.array(np.concatenate(e_c), pa.float64()),
    })


def minhash_lsh_pairs(docs_ds, *, num_perm: int = 64, bands: int = 16,
                      k: int = 3, seed: int = 13,
                      min_est_jaccard: float = 0.5,
                      max_bucket_pairs: int = DEFAULT_MAX_BUCKET_PAIRS):
    """MinHash+LSH candidate near-dup pairs (deterministic, approximate).

    shingle -> minhash -> one sort on (band, bucket) -> in-segment
    pairs -> filter.  Only (band, bucket, doc, sig) rows shuffle; every
    LSH bucket lands whole in one sorted block, and the pair pass walks
    the (band, bucket) segments of each block in one Python call
    (kgx.functions.fold.map_sorted_blocks, which materializes and
    coalesces the banded rows when the fold is built).
    Skewed buckets are capped at ``max_bucket_pairs`` pairs each, with
    drops logged (never silent).
    """
    from kgx.stages.extract import make_task_extractor
    # task-based per-worker cached instance (no actor-pool spin-up per
    # query; the permutation params re-derive once per worker)
    banded = docs_ds.map_batches(
        make_task_extractor(MinHashBands, num_perm=num_perm, bands=bands,
                            k=k, seed=seed),
        batch_format="pyarrow")

    cand = map_sorted_blocks(
        banded, ["band", "bucket"],
        lambda g: _band_group_pairs(g, max_bucket_pairs),
        pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64()),
                   ("est_jaccard", pa.float64())]))
    # first-band ownership already guarantees one row per distinct pair
    return cand.map_batches(
        lambda t: t.filter(
            pa.compute.greater_equal(t["est_jaccard"], min_est_jaccard)),
        batch_format="pyarrow")


# ----------------------------------------------------------------------
# SimHash
# ----------------------------------------------------------------------

def simhash64(tokens: list[str]) -> int:
    """64-bit SimHash over token tf weights — md5 low-64 token hashes so
    the DuckDB oracle can recompute the signature exactly
    (``CAST('0x' || substr(md5(t), 1, 16) AS UBIGINT)``)."""
    if not tokens:
        return 0
    acc = np.zeros(64, dtype=np.int64)
    counts: dict[str, int] = {}
    for t in tokens:
        counts[t] = counts.get(t, 0) + 1
    shifts = np.arange(64, dtype=np.uint64)
    for t, w in counts.items():
        h = np.uint64(int.from_bytes(hashlib.md5(t.encode()).digest()[:8],
                                     "big"))
        bits = (h >> shifts) & np.uint64(1)
        acc += np.where(bits == np.uint64(1), w, -w)
    return int(((acc > 0).astype(np.uint64) << np.arange(64, dtype=np.uint64))
               .sum())


def simhash_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, text) -> (doc_id, simhash uint64)."""
    hs = [simhash64(t.split()) for t in batch["text"].to_pylist()]
    return pa.table({
        "doc_id": batch["doc_id"],
        "simhash": pa.array(hs, pa.uint64()),
    })


def _simhash_band_rows(batch: pa.Table, bands: int = 4) -> pa.Table:
    width = 64 // bands
    mask = (1 << width) - 1
    band_col, val_col, doc_col, h_col = [], [], [], []
    for doc_id, h in zip(batch["doc_id"].to_pylist(),
                         batch["simhash"].to_pylist()):
        for band in range(bands):
            band_col.append(band)
            val_col.append((h >> (band * width)) & mask)
            doc_col.append(doc_id)
            h_col.append(h)
    return pa.table({
        "band": pa.array(band_col, pa.int32()),
        "val": pa.array(val_col, pa.uint64()),
        "doc_id": pa.array(doc_col, pa.int64()),
        "simhash": pa.array(h_col, pa.uint64()),
    })


def simhash_pairs(docs_ds, *, bands: int = 4, max_hamming: int = 3,
                  max_bucket_pairs: int = DEFAULT_MAX_BUCKET_PAIRS):
    """SimHash near-dup pairs with hamming distance <= max_hamming.

    Band-equality blocking guarantees recall for distances < bands
    (pigeonhole); pairs are verified in-bucket, and first-band ownership
    emits each pair once.  Skewed buckets are capped at
    ``max_bucket_pairs`` EMITTED pairs each, with drops logged.
    """
    width = 64 // bands
    mask = np.uint64((1 << width) - 1)
    shifts = (np.arange(bands, dtype=np.uint64) * np.uint64(width))

    sh = docs_ds.map_batches(simhash_batch, batch_format="pyarrow")
    banded = sh.map_batches(
        lambda b: _simhash_band_rows(b, bands), batch_format="pyarrow")

    def bucket_pairs(group: pa.Table) -> pa.Table:
        """Owned pairs across every (band, val) segment of one block of
        the (band, val) sort (the same amortization as the MinHash pair
        stage):
        band chunks derive straight from the carried simhash, so
        first-band ownership (emit-once, see _owned_bucket_pairs) needs
        no extra columns; hamming via 64-bit popcount in numpy."""
        bands_c = np.asarray(group["band"].to_pylist(), dtype=np.int64)
        vals = np.asarray(group["val"].to_pylist(), dtype=np.uint64)
        ids = np.asarray(group["doc_id"].to_pylist(), dtype=np.int64)
        hs = np.asarray(group["simhash"].to_pylist(), dtype=np.uint64)
        order = np.lexsort((ids, vals, bands_c))
        b_s, v_s = bands_c[order], vals[order]
        starts = np.flatnonzero(np.r_[True, (b_s[1:] != b_s[:-1]) |
                                      (v_s[1:] != v_s[:-1])])
        ends = np.r_[starts[1:], len(order)]
        a_c, b_c, h_c = [], [], []
        for s, e in zip(starts, ends):
            if e - s < 2:
                continue
            seg = order[s:e]              # already doc_id-ascending
            band = int(b_s[s])
            sid, shs = ids[seg], hs[seg]
            iu, ju = np.triu_indices(e - s, k=1)
            chunks = (shs[:, None] >> shifts[None, :]) & mask
            first = (chunks[iu] == chunks[ju]).argmax(axis=1)
            xor = shs[iu] ^ shs[ju]
            ham = np.unpackbits(xor.view(np.uint8).reshape(-1, 8),
                                axis=1).sum(axis=1)
            keep = np.flatnonzero((first == band) & (ham <= max_hamming))
            if len(keep) > max_bucket_pairs:
                _log_bucket_drop("simhash_pairs", e - s, max_bucket_pairs,
                                 len(keep) - max_bucket_pairs)
                keep = keep[:max_bucket_pairs]
            if len(keep):
                a_c.append(sid[iu[keep]])
                b_c.append(sid[ju[keep]])
                h_c.append(ham[keep].astype(np.int32))
        if not a_c:
            return pa.table({"doc_a": pa.array([], pa.int64()),
                             "doc_b": pa.array([], pa.int64()),
                             "hamming": pa.array([], pa.int32())})
        return pa.table({
            "doc_a": pa.array(np.concatenate(a_c), pa.int64()),
            "doc_b": pa.array(np.concatenate(b_c), pa.int64()),
            "hamming": pa.array(np.concatenate(h_c), pa.int32()),
        })

    # first-band ownership already emits each pair exactly once
    return map_sorted_blocks(
        banded, ["band", "val"], bucket_pairs,
        pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64()),
                   ("hamming", pa.int32())]))


# ----------------------------------------------------------------------
# Embedding-cosine near-dup
# ----------------------------------------------------------------------

def embedding_dup_pairs(emb_ds, *, threshold: float = 0.45,
                        method: str = "bucketed", n_cells: int = 16,
                        train_mod: int = 4, iters: int = 5):
    """Exact embedding-cosine near-dup pairs >= threshold.

    ``method="bucketed"`` (default, the 100 TB shape): IVF cells with
    triangle-inequality cell-pair pruning — see
    :func:`_embedding_dup_pairs_bucketed`.  Exact output, no corpus
    broadcast; rows replicate only to admissible cell pairs.

    ``method="matrix"``: the broadcast baseline — the normalized
    embedding matrix is pulled once, broadcast via ``ray.put``, and each
    block scores with one float64 matmul.  O(n*d) broadcast, kept as the
    oracle/recall baseline the bucketed path is audited against.
    """
    import ray

    if method == "bucketed":
        return _embedding_dup_pairs_bucketed(
            emb_ds, threshold=threshold, n_cells=n_cells,
            train_mod=train_mod, iters=iters)
    assert method == "matrix", method

    from kgx.functions.collect import collect_arrow
    tbl = collect_arrow(emb_ds.select_columns(["vec_id", "embedding"]))
    ids = np.asarray(tbl["vec_id"].to_pylist(), dtype=np.int64)
    order = np.argsort(ids)
    ids = ids[order]
    M = np.asarray(tbl["embedding"].to_pylist(), dtype=np.float64)[order]
    M = M / np.linalg.norm(M, axis=1, keepdims=True)
    mref = ray.put((ids, M))

    class ScoreBlock:
        def __init__(self, mref):
            self.ids, self.M = ray.get(mref)
            self.pos = {d: i for i, d in enumerate(self.ids)}

        def __call__(self, batch: pa.Table) -> pa.Table:
            rows = np.asarray(
                [self.pos[d] for d in batch["vec_id"].to_pylist()],
                dtype=np.int64)
            S = self.M[rows] @ self.M.T
            a_ids = self.ids[rows][:, None]
            b_ids = self.ids[None, :]
            mask = (S >= threshold) & (a_ids < b_ids)
            ai, bi = np.nonzero(mask)
            return pa.table({
                "vec_a": pa.array(a_ids[ai, 0], pa.int64()),
                "vec_b": pa.array(b_ids[0, bi], pa.int64()),
                "cosine": pa.array(np.round(S[ai, bi], 6), pa.float64()),
            })

    from kgx.stages.extract import make_task_extractor
    return emb_ds.map_batches(
        make_task_extractor(ScoreBlock, mref=mref),
        batch_format="pyarrow")


def _embedding_dup_pairs_bucketed(emb_ds, *, threshold: float,
                                  n_cells: int, train_mod: int,
                                  iters: int):
    """IVF-bucketed EXACT cosine pairs >= threshold — no corpus broadcast.

    Shape: a deterministic sample (``vec_id % train_mod == 0``) trains a
    kmeans coarse quantizer driver-side; tiny centroid matrix broadcasts.
    Pass 1 assigns each vector its cell and folds a per-cell radius
    (max euclidean distance to centroid) map-side.  cos(a,b) >= t on
    unit vectors implies ||a-b|| <= sqrt(2-2t), so by the triangle
    inequality a qualifying pair's cells satisfy
    ``||c_i-c_j|| <= r_i + r_j + sqrt(2-2t)`` — only those ADMISSIBLE
    cell pairs are searched, and each unordered vector pair lives in
    exactly one (cell_a, cell_b) group, so the result is exact and
    emitted once with no downstream dedup.  Pass 2 replicates each row
    to its cell's admissible pair-groups (replication factor = admissible
    partners per cell; worst case ``n_cells`` on unclusterable data,
    where the plan degrades to the classic triangle all-pairs block join
    — still no O(n*d) broadcast, compute ~n^2/2) and a per-group matmul
    emits qualifying pairs.  Pruning bites exactly when the embedding
    space is clustered — the regime near-dup corpora live in."""
    import ray

    from kgx.functions.collect import collect_arrow
    from kgx.ops.simsearch import _kmeans, _train_sample, emb_matrix

    C = _kmeans(_train_sample(emb_ds, train_mod), n_cells, iters)
    cref = ray.put(C)

    # pass 1: per-cell radius partials (cell, max distance to centroid)
    def radius_part(batch: pa.Table) -> pa.Table:
        Cm = ray.get(cref)
        M = emb_matrix(batch["embedding"])
        M = M / np.linalg.norm(M, axis=1, keepdims=True)
        cos = M @ Cm.T
        cells = np.argmax(cos, axis=1).astype(np.int64)
        best = cos[np.arange(len(cells)), cells]
        d = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * best))
        uniq, inv = np.unique(cells, return_inverse=True)
        rmax = np.zeros(len(uniq))
        np.maximum.at(rmax, inv, d)
        return pa.table({"cell": pa.array(uniq, pa.int64()),
                         "r": pa.array(rmax, pa.float64())})

    parts = collect_arrow(
        emb_ds.map_batches(radius_part, batch_format="pyarrow"))
    radius = np.zeros(len(C))
    pc_cells = np.asarray(parts["cell"].to_pylist(), dtype=np.int64)
    np.maximum.at(radius, pc_cells,
                  np.asarray(parts["r"].to_pylist(), dtype=np.float64))
    occupied = np.unique(pc_cells)

    # driver: admissible cell pairs under the triangle-inequality bound
    D = float(np.sqrt(max(0.0, 2.0 - 2.0 * threshold)))
    cd = np.sqrt(np.maximum(
        0.0, 2.0 - 2.0 * (C[occupied] @ C[occupied].T)))
    bound = radius[occupied][:, None] + radius[occupied][None, :] + D
    ii, jj = np.nonzero(np.triu(cd <= bound))
    pair_cells = np.stack([occupied[ii], occupied[jj]], axis=1)
    cell_groups: dict[int, list[int]] = {}
    for gid, (a, b) in enumerate(pair_cells):
        cell_groups.setdefault(int(a), []).append(gid)
        if b != a:
            cell_groups.setdefault(int(b), []).append(gid)
    gref = ray.put((cell_groups, pair_cells))

    def replicate(batch: pa.Table) -> pa.Table:
        Cm = ray.get(cref)
        groups, _ = ray.get(gref)
        M = emb_matrix(batch["embedding"])
        M = M / np.linalg.norm(M, axis=1, keepdims=True)
        cells = np.argmax(M @ Cm.T, axis=1).astype(np.int64)
        reps = np.asarray([len(groups.get(int(c), [])) for c in cells],
                          dtype=np.int64)
        gid_col = np.concatenate(
            [np.asarray(groups.get(int(c), []), dtype=np.int64)
             for c in cells]) if reps.sum() else np.zeros(0, np.int64)
        rows = np.repeat(np.arange(len(cells)), reps)
        rep = batch.take(pa.array(rows, pa.int64()))
        return pa.table({
            "gid": pa.array(gid_col, pa.int64()),
            "cell": pa.array(cells[rows], pa.int64()),
            "vec_id": rep["vec_id"].combine_chunks(),
            "embedding": rep["embedding"].combine_chunks(),
        })

    def group_pairs(group: pa.Table) -> pa.Table:
        _, pairs = ray.get(gref)
        gid = group["gid"][0].as_py()
        ca, cb = int(pairs[gid][0]), int(pairs[gid][1])
        cells = np.asarray(group["cell"].to_pylist(), dtype=np.int64)
        ids = np.asarray(group["vec_id"].to_pylist(), dtype=np.int64)
        M = emb_matrix(group["embedding"])
        M = M / np.linalg.norm(M, axis=1, keepdims=True)
        empty = pa.table({"vec_a": pa.array([], pa.int64()),
                          "vec_b": pa.array([], pa.int64()),
                          "cosine": pa.array([], pa.float64())})
        if ca == cb:
            order = np.argsort(ids)
            ids_s, Ms = ids[order], M[order]
            Sc = Ms @ Ms.T
            keep = (Sc >= threshold) & (ids_s[:, None] < ids_s[None, :])
            ai, bi = np.nonzero(keep)
            a_ids, b_ids, sc = ids_s[ai], ids_s[bi], Sc[ai, bi]
        else:
            am, bm = cells == ca, cells == cb
            if not am.any() or not bm.any():
                return empty
            Sc = M[am] @ M[bm].T
            ai, bi = np.nonzero(Sc >= threshold)
            ia, ib = ids[am][ai], ids[bm][bi]
            a_ids, b_ids = np.minimum(ia, ib), np.maximum(ia, ib)
            sc = Sc[ai, bi]
        if not len(a_ids):
            return empty
        return pa.table({
            "vec_a": pa.array(a_ids, pa.int64()),
            "vec_b": pa.array(b_ids, pa.int64()),
            "cosine": pa.array(np.round(sc, 6), pa.float64()),
        })

    rep = emb_ds.map_batches(replicate, batch_format="pyarrow")
    return rep.groupby("gid").map_groups(group_pairs,
                                         batch_format="pyarrow")


def prefix_hamming_pairs(docs_ds, *, prefix_chars: int = 24,
                         max_dist: int = 2,
                         max_pairs: int = DEFAULT_MAX_BUCKET_PAIRS):
    """Fuzzy-string near-dup pairs: documents whose first
    ``prefix_chars`` characters (padded with chr(1)) differ in at most
    ``max_dist`` positions — the Hamming cousin of edit-distance
    blocking, catching title/boilerplate variants exact dedup misses.

    EXACT candidate generation by pigeonhole: the prefix splits into
    ``max_dist + 1`` aligned chunks, and any pair within ``max_dist``
    substitutions must agree on at least one whole chunk, so emitting
    one (chunk_idx, chunk_value) row per document per chunk and
    grouping on it finds EVERY qualifying pair — no recall caveat
    (unlike MinHash banding).  Ownership: each in-group segment holds
    both full prefixes, so a pair is emitted only from its FIRST
    matching chunk index — no dedup shuffle downstream.

    Scale shape: (max_dist+1) narrow (chunk index, chunk value, prefix,
    id) rows per document ride ONE sort on (chunk index, chunk value),
    so every chunk segment lands whole in one block; per-block work is
    a lexsort + per-segment vectorized char-matrix compare (one Python
    call per sorted block, minhash-style; kgx.functions.fold
    materializes and coalesces the chunk rows when the fold is built).
    A boilerplate-degenerate chunk
    value goes quadratic in its members, so emission caps at
    ``max_pairs`` with the drop logged.  Output: (doc_a, doc_b, dist),
    each unordered pair exactly once.
    """
    n_chunks = max_dist + 1
    width = prefix_chars // n_chunks
    assert prefix_chars % n_chunks == 0, "prefix_chars % (max_dist+1) != 0"
    pad = "\x01"

    def chunk_rows(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        pres = [(t or "")[:prefix_chars].ljust(prefix_chars, pad)
                for t in texts]
        out_v, out_c, out_id, out_p = [], [], [], []
        for did, pre in zip(ids, pres):
            for ci in range(n_chunks):
                out_v.append(pre[ci * width:(ci + 1) * width])
                out_c.append(ci)
                out_id.append(did)
                out_p.append(pre)
        return pa.table({
            "ci": pa.array(out_c, pa.int64()),
            "val": pa.array(out_v, pa.string()),
            "doc_id": pa.array(out_id, pa.int64()),
            "pre": pa.array(out_p, pa.string()),
        })

    def bucket_pairs(group: pa.Table) -> pa.Table:
        ids = np.asarray(group["doc_id"].to_pylist(), dtype=np.int64)
        cis = np.asarray(group["ci"].to_pylist(), dtype=np.int64)
        pres = group["pre"].to_pylist()
        P = np.array(pres, dtype=f"U{prefix_chars}") \
            .view("U1").reshape(len(pres), prefix_chars)
        chunk_vals = np.array(group["val"].to_pylist(), dtype=f"U{width}")
        order = np.lexsort((ids, chunk_vals, cis))
        c_s, v_s = cis[order], chunk_vals[order]
        starts = np.flatnonzero(np.r_[True, (c_s[1:] != c_s[:-1]) |
                                      (v_s[1:] != v_s[:-1])])
        ends = np.r_[starts[1:], len(order)]
        a_c, b_c, d_c = [], [], []
        for s, e in zip(starts, ends):
            if e - s < 2:
                continue
            seg = order[s:e]
            ci = int(c_s[s])
            sid, sP = ids[seg], P[seg]
            iu, ju = np.triu_indices(e - s, k=1)
            eq = sP[iu] == sP[ju]                      # (pairs, P) bool
            dist = prefix_chars - eq.sum(axis=1)
            chunk_eq = eq.reshape(len(iu), n_chunks, width).all(axis=2)
            first = chunk_eq.argmax(axis=1)
            keep = np.flatnonzero((dist <= max_dist) & (first == ci)
                                  & (sid[iu] != sid[ju]))
            if len(keep) > max_pairs:
                _log_bucket_drop("prefix_hamming_pairs", e - s, max_pairs,
                                 len(keep) - max_pairs)
                keep = keep[:max_pairs]
            if len(keep):
                lo = np.minimum(sid[iu[keep]], sid[ju[keep]])
                hi = np.maximum(sid[iu[keep]], sid[ju[keep]])
                a_c.append(lo)
                b_c.append(hi)
                d_c.append(dist[keep])
        if not a_c:
            return pa.table({"doc_a": pa.array([], pa.int64()),
                             "doc_b": pa.array([], pa.int64()),
                             "dist": pa.array([], pa.int64())})
        return pa.table({
            "doc_a": pa.array(np.concatenate(a_c), pa.int64()),
            "doc_b": pa.array(np.concatenate(b_c), pa.int64()),
            "dist": pa.array(np.concatenate(d_c).astype(np.int64),
                             pa.int64()),
        })

    return map_sorted_blocks(
        docs_ds.map_batches(chunk_rows, batch_format="pyarrow"),
        ["ci", "val"], bucket_pairs,
        pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64()),
                   ("dist", pa.int64())]))
