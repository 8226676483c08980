"""Deduplication operators: exact, n-gram Jaccard, MinHash+LSH, SimHash,
embedding-cosine.

Scale design notes (100 TB path):

- **Exact** dedup is one sort on the content fingerprint — the only
  all-to-all move is one narrow (fingerprint, doc_id) table.
- **Exact Jaccard** (:func:`jaccard_pairs`) defaults to
  ``method="lsh_verify"``: MinHash-LSH banding over the term sets
  generates candidate pairs, and each candidate is verified with the
  EXACT set Jaccard: two sorts on a doc key (doc_a, then doc_b) put a
  doc's term set in the same block as its candidates, and one pass over
  each sorted block looks it up — nothing is materialized driver-side,
  nothing is broadcast.  With the
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
  first-band ownership emits each pair once.  Their pair passes, the
  prefix-Hamming one and the Jaccard candidate pass share one kernel,
  :func:`_segment_pairs`; each caller adds only its owner matrix and its
  score or predicate.  Both are deterministic
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
    verification over two sorts on a doc key, one pass per sorted block
    each — the scale path (see module docstring).  ``method="matrix"``:
    the broadcast incidence-matrix baseline (driver-side
    materialization; fine as an oracle baseline, weak at 100 TB).
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


_TERMS = pa.list_(pa.uint64())
# one shape for the term-set rows and the candidate rows of the verify
# sorts: a set row has a null doc_a and its set in ``terms``; a candidate
# row carries (doc_a, doc_b) and, once its first side is attached, that
# side's set in ``sa``
_VERIFY_SCHEMA = pa.schema([("key", pa.int64()), ("doc_a", pa.int64()),
                            ("doc_b", pa.int64()), ("sa", _TERMS),
                            ("terms", _TERMS)])
_JACCARD_SCHEMA = pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64()),
                             ("jaccard", pa.float64())])


def _candidate_rows(key, doc_a, doc_b, sa=None) -> pa.Table:
    n = len(key)
    return pa.table({"key": key, "doc_a": doc_a, "doc_b": doc_b,
                     "sa": pa.nulls(n, _TERMS) if sa is None else sa,
                     "terms": pa.nulls(n, _TERMS)},
                    schema=_VERIFY_SCHEMA)


def _key_sets(block: pa.Table):
    """One ``key``-sorted block -> (candidate rows, set rows, the index
    of each candidate's set row).  Every row of a key is in the block,
    so the set row is a hash lookup of the key; a candidate whose key
    has no set row is dropped."""
    is_set = pc.is_null(block["doc_a"])
    sets = block.filter(is_set)
    cand = block.filter(pc.invert(is_set))
    idx = pc.index_in(cand["key"], value_set=sets["key"].combine_chunks())
    found = pc.is_valid(idx)
    return cand.filter(found), sets, idx.filter(found)


def _attach_a(block: pa.Table) -> pa.Table:
    """Candidates keyed on doc_a -> the same candidates keyed on doc_b,
    carrying doc_a's set in ``sa``."""
    cand, sets, idx = _key_sets(block)
    return _candidate_rows(cand["doc_b"], cand["doc_a"], cand["doc_b"],
                           pc.take(sets["terms"], idx))


def _exact_jaccard(block: pa.Table, threshold: float) -> pa.Table:
    """(doc_a, doc_b, jaccard >= threshold) of the candidates keyed on
    doc_b, each carrying doc_a's unique hash set in ``sa``.  Every doc_a
    hash is looked up in its doc_b's set with two binary searches over
    the block's set rows, so doc_b's set is never copied per candidate:
    a dense rank in the block's hash vocabulary, then the sorted
    (set row, rank) keys."""
    cand, sets, idx = _key_sets(block)
    sb = sets["terms"].combine_chunks()
    sv = pc.list_flatten(sb).to_numpy(zero_copy_only=False)
    # a max-value sentinel ends both sorted arrays, so every search
    # lands on a valid index
    vocab = np.unique(np.r_[sv, np.iinfo(np.uint64).max].astype(np.uint64))
    skey = np.r_[pc.list_parent_indices(sb).to_numpy(zero_copy_only=False)
                 * len(vocab) + np.searchsorted(vocab, sv),
                 np.iinfo(np.int64).max]
    set_row = idx.to_numpy(zero_copy_only=False).astype(np.int64)
    sa = cand["sa"].combine_chunks()
    av = pc.list_flatten(sa).to_numpy(zero_copy_only=False)
    arow = pc.list_parent_indices(sa).to_numpy(zero_copy_only=False)
    rank = np.searchsorted(vocab, av)
    akey = set_row[arow] * len(vocab) + rank
    hit = (vocab[rank] == av) & (skey[np.searchsorted(skey, akey)] == akey)
    inter = np.bincount(arow[hit], minlength=cand.num_rows)
    na = pc.list_value_length(sa).to_numpy(zero_copy_only=False)
    nb = pc.list_value_length(sb).to_numpy(zero_copy_only=False)[set_row]
    union = na + nb - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        j = np.where(union > 0, inter / union, 0.0)
    keep = pa.array(j >= threshold)
    return pa.table({"doc_a": cand["doc_a"].filter(keep),
                     "doc_b": cand["doc_b"].filter(keep),
                     "jaccard": pa.array(j, pa.float64()).filter(keep)},
                    schema=_JACCARD_SCHEMA)


def _jaccard_pairs_lsh_verified(docs_ds, *, threshold: float, pattern: str,
                                num_perm: int = 64, bands: int = 32,
                                seed: int = 13):
    """LSH-then-exact-verify Jaccard pairs (the scale default).

    1. minhash the term SET of each doc (one hash per term, ``num_perm``
       permutations) and emit band-bucket rows carrying the doc's full
       per-band bucket vector;
    2. one sort on (band, bucket) and the shared pair kernel
       (:func:`_segment_pairs`) over each sorted block give the candidate
       (doc_a < doc_b) pairs with FIRST-band ownership — each
       band-coincident pair is emitted by exactly one band, so there is
       no bands-x-pairs candidate blowup and no dedup shuffle;
       candidates are NOT filtered by the signature estimate, and no
       bucket is capped: every candidate is verified exactly;
    3. two sorts on a doc key, over the term-set rows plus the
       candidates keyed on doc_a, then on doc_b, find each candidate's
       set row in its sorted block (:func:`_key_sets`): the first
       attaches doc_a's set, the second computes the exact Jaccard
       against doc_b's set; filter >= threshold.

    No driver materialization, no broadcast; the sorts move band rows,
    candidate pairs, and each candidate's two term lists.  Miss
    probability per true pair is (1 - J^rows_per_band)^bands — at the
    default 32x2 and J >= 0.8 that is <= 4e-15.
    """
    assert num_perm % bands == 0
    rows_per_band = num_perm // bands
    a, b = _perm_params(num_perm, seed)

    def set_rows(batch: pa.Table) -> pa.Table:
        """Term-set rows keyed on doc_id: the unique uint64 term hashes
        per doc, the verify payload AND the minhash input, computed
        once.  Jaccard over the hash sets equals Jaccard over the
        distinct term strings up to 64-bit collisions (~C(|terms|,2) *
        2^-64 per doc — far below the gate's resolution, and
        deterministic)."""
        import re
        rx = re.compile(pattern)
        hs = []
        for text in batch["text"].to_pylist():
            terms = set(rx.findall(text or ""))
            hs.append(np.unique(np.asarray(
                [int.from_bytes(hashlib.blake2b(
                    t.encode(), digest_size=8).digest(), "big")
                 for t in terms], dtype=np.uint64)).tolist()
                if terms else [])
        n = batch.num_rows
        return pa.table({
            "key": batch["doc_id"].combine_chunks().cast(pa.int64()),
            "doc_a": pa.nulls(n, pa.int64()),
            "doc_b": pa.nulls(n, pa.int64()),
            "sa": pa.nulls(n, _TERMS),
            "terms": pa.array(hs, _TERMS),
        })

    # materialized once: feeds the banding and both verify sorts
    sets_ds = docs_ds.map_batches(set_rows, batch_format="pyarrow") \
        .materialize()

    def band_rows(batch: pa.Table) -> pa.Table:
        band_c, bucket_c, doc_c, bands_c = [], [], [], []
        for doc_id, hashes in zip(batch["key"].to_pylist(),
                                  batch["terms"].to_pylist()):
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

    def candidates(block: pa.Table) -> pa.Table:
        """Owned pairs of one (band, bucket) block as candidate rows
        keyed on doc_a."""
        ids = _np(block["doc_id"])
        ia, ib = _segment_pairs("jaccard_pairs", _np(block["band"]),
                                _np(block["bucket"]), ids,
                                _list_mat(block["bands"]))
        doc_a = pa.array(ids[ia], pa.int64())
        return _candidate_rows(doc_a, doc_a, pa.array(ids[ib], pa.int64()))

    cand = map_sorted_blocks(
        sets_ds.map_batches(band_rows, batch_format="pyarrow"),
        ["band", "bucket"], candidates, _VERIFY_SCHEMA)
    side_b = map_sorted_blocks(sets_ds.union(cand), "key", _attach_a,
                               _VERIFY_SCHEMA)
    return map_sorted_blocks(
        sets_ds.union(side_b), "key",
        lambda blk: _exact_jaccard(blk, threshold), _JACCARD_SCHEMA)


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


def _list_mat(col) -> np.ndarray:
    """Fixed-length list column -> (rows, width) numpy matrix, without a
    Python round-trip (same flatten device as simsearch.emb_matrix)."""
    arr = col.combine_chunks()
    flat = arr.flatten().to_numpy(zero_copy_only=False)
    return flat.reshape(len(arr), flat.size // max(len(arr), 1))


def _np(col) -> np.ndarray:
    return col.combine_chunks().to_numpy(zero_copy_only=False)


def _ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The concatenation of ``arange(s, e)`` for every (s, e)."""
    lens = ends - starts
    return np.repeat(starts - np.r_[0, np.cumsum(lens)[:-1]], lens) + \
        np.arange(lens.sum())


# candidate pairs built per numpy pass: bounds the pass's peak memory to
# this plus the largest single run's pairs
_PAIR_CHUNK = 1 << 20


def _segment_pairs(op: str, band: np.ndarray, key: np.ndarray,
                   ids: np.ndarray, owners: np.ndarray, *, pred=None,
                   max_pairs: int | None = None):
    """The LSH pair kernel: owned pairs inside every run of equal
    (band, key) of one block, as block row indices ``(ia, ib)``.

    Rows lexsort by (band, key, id), and each run's pairs come out in
    ``np.triu_indices`` order, so ``ids[ia] <= ids[ib]``.  First-owner
    ownership emits a pair once across all bands, with no dedup shuffle:
    ``owners`` has one column per band (column ``band`` of a row is its
    key in that band), and a pair is kept only by the run of the first
    band in which the two rows agree.  Then ``pred(ia, ib)`` filters, and
    a run keeps its first ``max_pairs`` pairs, logging the drop
    (``None``: no cap).  Every run's pairs are built with a few numpy
    calls per block, not per run."""
    cols = np.ascontiguousarray(owners.T)
    order = np.lexsort((ids, key, band))
    b, k = band[order], key[order]
    starts = np.flatnonzero(np.r_[True, (b[1:] != b[:-1]) |
                                  (k[1:] != k[:-1])])
    ends = np.r_[starts[1:], len(order)]
    multi = ends - starts > 1
    starts, ends = starts[multi], ends[multi]
    npairs = (ends - starts) * (ends - starts - 1) // 2
    chunk = (np.cumsum(npairs) - npairs) // _PAIR_CHUNK
    cuts = np.r_[np.flatnonzero(np.r_[True, chunk[1:] != chunk[:-1]]),
                 len(chunk)]
    out_a, out_b = [], []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        s, e = starts[lo:hi], ends[lo:hi]
        pos = _ranges(s, e)
        run_end = np.repeat(e, e - s)
        n_after = run_end - pos - 1
        run = np.repeat(np.repeat(np.arange(hi - lo), e - s), n_after)
        ia = order[np.repeat(pos, n_after)]
        ib = order[_ranges(pos + 1, run_end)]
        # drop the pairs that agree in an earlier band, one band column
        # at a time; near-dups mostly agree early, so few pairs stay
        pair_band = band[ia]
        keep = np.ones(len(ia), dtype=bool)
        open_ = np.flatnonzero(pair_band > 0)
        for j, col in enumerate(cols):
            if not len(open_):
                break
            hit = col[ia[open_]] == col[ib[open_]]
            keep[open_[hit]] = False
            open_ = open_[~hit]
            open_ = open_[pair_band[open_] > j + 1]
        if pred is not None:
            keep[keep] = pred(ia[keep], ib[keep])
        ia, ib, run = ia[keep], ib[keep], run[keep]
        if max_pairs is not None and len(run):
            n_run = np.bincount(run, minlength=hi - lo)
            for r in np.flatnonzero(n_run > max_pairs):
                _log_bucket_drop(op, int(e[r] - s[r]), max_pairs,
                                 int(n_run[r]) - max_pairs)
            rank = np.arange(len(run)) - np.searchsorted(run, run)
            ia, ib = ia[rank < max_pairs], ib[rank < max_pairs]
        out_a.append(ia)
        out_b.append(ib)
    if not out_a:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    return np.concatenate(out_a), np.concatenate(out_b)


def _band_group_pairs(block: pa.Table,
                      max_pairs: int = DEFAULT_MAX_BUCKET_PAIRS) -> pa.Table:
    """Owned pairs of every (band, bucket) run of one block of the
    (band, bucket) sort (:func:`_segment_pairs`, the doc's per-band
    bucket vector as owner matrix, capped at ``max_pairs`` per bucket),
    with the signature-estimated Jaccard."""
    ids = _np(block["doc_id"])
    S = _list_mat(block["sig"])
    ia, ib = _segment_pairs(
        "minhash_lsh_pairs", _np(block["band"]), _np(block["bucket"]), ids,
        _list_mat(block["bands"]), max_pairs=max_pairs)
    return pa.table({
        "doc_a": pa.array(ids[ia], pa.int64()),
        "doc_b": pa.array(ids[ib], pa.int64()),
        "est_jaccard": pa.array((S[ia] == S[ib]).mean(axis=1),
                                pa.float64()),
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

    def popcount(x: np.ndarray) -> np.ndarray:
        return np.unpackbits(x.view(np.uint8).reshape(-1, 8),
                             axis=1).sum(axis=1)

    def bucket_pairs(block: pa.Table) -> pa.Table:
        """Owned pairs of every (band, val) run of one block: the band
        chunks of the carried simhash are the owner matrix, and hamming
        is a 64-bit popcount in numpy."""
        ids, hs = _np(block["doc_id"]), _np(block["simhash"])
        ia, ib = _segment_pairs(
            "simhash_pairs", _np(block["band"]), _np(block["val"]), ids,
            (hs[:, None] >> shifts[None, :]) & mask,
            pred=lambda a, b: popcount(hs[a] ^ hs[b]) <= max_hamming,
            max_pairs=max_bucket_pairs)
        return pa.table({
            "doc_a": pa.array(ids[ia], pa.int64()),
            "doc_b": pa.array(ids[ib], pa.int64()),
            "hamming": pa.array(popcount(hs[ia] ^ hs[ib]), pa.int32()),
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

    def bucket_pairs(block: pa.Table) -> pa.Table:
        """Owned pairs of every (chunk index, chunk value) run of one
        block: the prefix's chunks are the owner matrix, and the distance
        counts unequal characters."""
        ids = _np(block["doc_id"])
        P = np.array(block["pre"].to_pylist(), dtype=f"U{prefix_chars}")
        chars = P.view("U1").reshape(len(P), prefix_chars)

        def dist(a, b):
            return prefix_chars - (chars[a] == chars[b]).sum(axis=1)

        ia, ib = _segment_pairs(
            "prefix_hamming_pairs", _np(block["ci"]),
            np.array(block["val"].to_pylist(), dtype=f"U{width}"), ids,
            P.view(f"U{width}").reshape(len(P), n_chunks),
            pred=lambda a, b: (dist(a, b) <= max_dist) & (ids[a] != ids[b]),
            max_pairs=max_pairs)
        return pa.table({
            "doc_a": pa.array(ids[ia], pa.int64()),
            "doc_b": pa.array(ids[ib], pa.int64()),
            "dist": pa.array(dist(ia, ib), pa.int64()),
        })

    return map_sorted_blocks(
        docs_ds.map_batches(chunk_rows, batch_format="pyarrow"),
        ["ci", "val"], bucket_pairs,
        pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64()),
                   ("dist", pa.int64())]))
