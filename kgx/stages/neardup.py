"""Near-duplicate entity merging (SURVEY.md §2.5 O1 extension).

The reference's resolver merges entities whose EMBEDDING cosine exceeds
0.85 in a greedy, order-dependent O(n²) scan
(/root/reference/extraction/entity_resolver.py:25-56).  Exact-on-
normalized-name canonicalization (kgx.stages.canonicalize) replaces most
of that; this optional second pass recovers the *near-miss* merges
("Acme Corp" vs "Acme Corporation") with a scalable, order-independent
construction:

1. character-shingle MinHash signatures of each canonical node's
   normalized name, banded LSH — ``map_batches`` over the nodes table;
2. one sort on (band, bucket) emits candidate pairs with
   signature-estimated Jaccard >= threshold per bucket (only same-bucket
   names are ever compared — no pairwise matrix);
3. candidate pairs are tiny (bounded by true near-duplicates); a
   driver-side union-find picks each component's canonical member — the
   highest-``n_instances`` node, ties to the smallest ``entity_id``
   (deterministic, unlike the reference's insertion-order winner);
4. a broadcast remap dict rewrites ids in ``map_batches`` and one sort
   on entity_id plus one vectorized merge per sorted block merges member
   rows (longest description, alias and instance union, summed counts),
   leaving the output sorted by entity_id.

The merged node keeps the canonical member's ``entity_id`` (a content
hash of its normalized name), so downstream alias maps resolve every
surface form of every member.
"""

from __future__ import annotations

import hashlib
from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from kgx.functions.fold import (key_runs, map_sorted_blocks, merge_runs,
                                run_distinct, run_lists, run_min,
                                run_sum)
from kgx.functions.normalize import normalize
from kgx.stages.canonicalize import NODES_SCHEMA, DEFAULT_INSTANCE_CAP


def _char_shingles(norm: str, k: int) -> np.ndarray:
    s = f" {norm} "
    if len(s) <= k:
        grams = [s]
    else:
        grams = [s[i:i + k] for i in range(len(s) - k + 1)]
    return np.unique(np.asarray(
        [int.from_bytes(hashlib.blake2b(g.encode(), digest_size=8).digest(),
                        "big") for g in grams], dtype=np.uint64))


def _signature(shingles: np.ndarray, a: np.ndarray,
               b: np.ndarray) -> np.ndarray:
    if len(shingles) == 0:
        return np.full(len(a), np.iinfo(np.uint64).max, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return (shingles[:, None] * (a | np.uint64(1)) + b).min(axis=0)


def _perm_params(num_perm: int, seed: int):
    rng = np.random.default_rng(seed)
    return (rng.integers(1, 1 << 61, size=num_perm, dtype=np.uint64),
            rng.integers(0, 1 << 61, size=num_perm, dtype=np.uint64))


def band_nodes(nodes_ds, *, num_perm: int = 32, bands: int = 8, k: int = 3,
               seed: int = 17):
    """nodes -> (band, bucket, entity_id, n_instances, sig) rows."""
    assert num_perm % bands == 0
    rows_per_band = num_perm // bands

    def to_bands(batch: pa.Table) -> pa.Table:
        a, b = _perm_params(num_perm, seed)  # derived per worker, seeded
        band_c, bucket_c, eid_c, n_c, sig_c = [], [], [], [], []
        for eid, name, n in zip(batch["entity_id"].to_pylist(),
                                batch["name"].to_pylist(),
                                batch["n_instances"].to_pylist()):
            sig = _signature(_char_shingles(normalize(name), k), a, b)
            sig_list = sig.tolist()
            for band in range(bands):
                chunk = sig[band * rows_per_band:(band + 1) * rows_per_band]
                band_c.append(band)
                bucket_c.append(hashlib.blake2b(
                    chunk.tobytes(), digest_size=8).hexdigest())
                eid_c.append(eid)
                n_c.append(n)
                sig_c.append(sig_list)
        return pa.table({
            "band": pa.array(band_c, pa.int32()),
            "bucket": pa.array(bucket_c, pa.string()),
            "entity_id": pa.array(eid_c, pa.string()),
            "n_instances": pa.array(n_c, pa.int64()),
            "sig": pa.array(sig_c, pa.list_(pa.uint64())),
        })

    return nodes_ds.map_batches(to_bands, batch_format="pyarrow")


def _bucket_pairs(banded_ds, pairs, score: str):
    """One sort on (band, bucket), then ``pairs(rows of one bucket) ->
    [(i, j, score)]`` per bucket over each whole sorted block; emits
    (id_a < id_b, score, n_a, n_b) rows, one table per block."""
    schema = pa.schema([("id_a", pa.string()), ("id_b", pa.string()),
                        (score, pa.float64()), ("n_a", pa.int64()),
                        ("n_b", pa.int64())])

    def per_block(block: pa.Table) -> pa.Table:
        rows = []
        b = key_runs(block, ["band", "bucket"])
        for s, e in zip(b[:-1], b[1:]):
            g = block.slice(s, e - s)
            ids = g["entity_id"].to_pylist()
            ns = g["n_instances"].to_pylist()
            rows += [{"id_a": ids[i], "id_b": ids[j], score: v,
                      "n_a": ns[i], "n_b": ns[j]} for i, j, v in pairs(g)]
        return pa.Table.from_pylist(rows, schema=schema)

    return map_sorted_blocks(banded_ds, ["band", "bucket"], per_block,
                             schema)


def candidate_pairs(banded_ds, *, threshold: float):
    """Per (band, bucket): (id_a < id_b, est_jaccard, n_a, n_b)."""
    def pairs(group: pa.Table) -> list:
        ids = group["entity_id"].to_pylist()
        sigs = group["sig"].to_pylist()
        order = sorted(range(len(ids)), key=lambda i: ids[i])
        out = []
        for x in range(len(order)):
            for y in range(x + 1, len(order)):
                i, j = order[x], order[y]
                if ids[i] == ids[j]:
                    continue
                est = float((np.asarray(sigs[i]) ==
                             np.asarray(sigs[j])).mean())
                if est >= threshold:
                    out.append((i, j, est))
        return out

    return _bucket_pairs(banded_ds, pairs, "est_jaccard")


def build_remap(pairs_tbl: pa.Table) -> dict[str, str]:
    """Union-find over candidate pairs -> {member_id: canonical_id}.

    Canonical member of each component: max n_instances, tie -> smallest
    entity_id (order-independent, unlike entity_resolver.py:36-45)."""
    parent: dict[str, str] = {}
    weight: dict[str, int] = {}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b, na, nb in zip(pairs_tbl["id_a"].to_pylist(),
                            pairs_tbl["id_b"].to_pylist(),
                            pairs_tbl["n_a"].to_pylist(),
                            pairs_tbl["n_b"].to_pylist()):
        for x, n in ((a, na), (b, nb)):
            if x not in parent:
                parent[x] = x
                weight[x] = n
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    comps: dict[str, list[str]] = {}
    for x in parent:
        comps.setdefault(find(x), []).append(x)
    remap: dict[str, str] = {}
    for members in comps.values():
        canon = min(members, key=lambda m: (-weight[m], m))
        for m in members:
            if m != canon:
                remap[m] = canon
    return remap


def _merge_members_block(block: pa.Table, cap: int) -> pa.Table:
    """One entity_id-sorted block of remapped nodes -> one node per
    entity_id: the name and type of the member whose own id it is, the
    longest description, every member's name and aliases, the summed
    ``n_instances`` and the capped distinct instances."""
    n = block.num_rows
    al = block["aliases"].combine_chunks()
    row = np.r_[np.repeat(np.arange(n), pc.list_value_length(al).fill_null(
        0)), np.arange(n)]
    order = np.argsort(row, kind="stable")
    names = pa.concat_arrays([al.flatten(), block["name"].combine_chunks()])
    block = block.set_column(
        block.schema.get_field_index("aliases"), "aliases",
        run_lists(row[order], n, [names.take(order)], al.type))
    block = block.set_column(
        block.schema.get_field_index("description"), "description",
        pc.fill_null(block["description"], ""))
    # the canonical member first in its run, so the merge keeps its row
    block = block.append_column("_alt", pc.not_equal(
        block["_orig_id"], block["entity_id"])).sort_by(
            [("entity_id", "ascending"), ("_alt", "ascending")])
    return merge_runs(block, ["entity_id"], {
        "description": partial(run_min, longest=True),
        "aliases": run_distinct, "n_instances": run_sum,
        "instances": partial(run_distinct, cap=cap),
    }).select(NODES_SCHEMA.names)


def _name_embed(norm: str, dim: int) -> np.ndarray:
    """Deterministic character-shingle feature-hash embedding of a
    normalized name: each 3-shingle lands in bucket ``h % dim`` with a
    sign from the hash's top bit, L2-normalized.  Near-duplicate
    surface forms share most shingles, so their cosine is high — the
    sandbox stand-in for the reference resolver's name-embedding model
    (/root/reference/extraction/entity_resolver.py:25-56); a real
    encoder drops in by replacing this one function."""
    sh = _char_shingles(norm, 3)
    v = np.zeros(dim, dtype=np.float64)
    if len(sh):
        idx = (sh % np.uint64(dim)).astype(np.int64)
        sign = np.where((sh >> np.uint64(63)) & np.uint64(1), 1.0, -1.0)
        np.add.at(v, idx, sign)
    n = np.linalg.norm(v)
    return v / n if n > 0 else v


def band_nodes_cosine(nodes_ds, *, dim: int = 64, n_tables: int = 24,
                      n_bits: int = 4, seed: int = 23):
    """nodes -> (band, bucket, entity_id, n_instances, emb) LSH rows:
    ``n_tables`` independent random-hyperplane sign buckets of ``n_bits``
    each over the name embedding.  A corpus row lands in one bucket PER
    TABLE (n_tables-fold replication of the tiny nodes table), giving
    candidate recall ~1-(1-p^n_bits)^n_tables; exactness comes from the
    cosine verify in :func:`candidate_pairs_cosine`."""

    def to_bands(batch: pa.Table) -> pa.Table:
        rng = np.random.default_rng(seed)
        H = rng.standard_normal((n_tables * n_bits, dim))
        names = batch["name"].to_pylist()
        E = np.stack([_name_embed(normalize(n or ""), dim)
                      for n in names]) if names else np.zeros((0, dim))
        bits = (E @ H.T) > 0                    # rows x (tables*bits)
        w = (1 << np.arange(n_bits, dtype=np.int64))
        n = len(names)
        tbl_ids = np.repeat(np.arange(n_tables, dtype=np.int64), n)
        buckets = np.concatenate(
            [bits[:, t * n_bits:(t + 1) * n_bits].astype(np.int64) @ w
             for t in range(n_tables)]) if n else np.zeros(0, np.int64)
        rows = np.tile(np.arange(n), n_tables)
        rep = batch.take(pa.array(rows, pa.int64()))
        return pa.table({
            "band": pa.array(tbl_ids, pa.int32()),
            "bucket": pa.array(buckets, pa.int64()),
            "entity_id": rep["entity_id"].combine_chunks(),
            "n_instances": rep["n_instances"].combine_chunks(),
            "emb": pa.array([E[r].tolist() for r in rows],
                            pa.list_(pa.float64())),
        })

    return nodes_ds.map_batches(to_bands, batch_format="pyarrow")


def candidate_pairs_cosine(banded_ds, *, threshold: float):
    """Per (band, bucket): exact-cosine-verified pairs >= threshold.
    A pair colliding in several tables is emitted once per table; the
    downstream union-find is idempotent, so no ownership pass is
    needed on this small side."""

    def pairs(group: pa.Table) -> list:
        ids = group["entity_id"].to_pylist()
        if len(ids) < 2:
            return []
        sel = np.asarray(sorted(range(len(ids)), key=lambda i: ids[i]))
        E = np.asarray(group["emb"].to_pylist(), dtype=np.float64)
        S = E[sel] @ E[sel].T
        iu, ju = np.triu_indices(len(sel), k=1)
        keep = np.flatnonzero(S[iu, ju] >= threshold)
        return [(sel[iu[x]], sel[ju[x]], float(np.round(S[iu[x], ju[x]], 6)))
                for x in keep if ids[sel[iu[x]]] != ids[sel[ju[x]]]]

    return _bucket_pairs(banded_ds, pairs, "cosine")


def cosine_merge_nodes(nodes_ds, *, threshold: float = 0.6,
                       dim: int = 64, n_tables: int = 24, n_bits: int = 4,
                       seed: int = 23, cap: int = DEFAULT_INSTANCE_CAP):
    """Config-gated EMBEDDING-COSINE entity merge — the reference
    resolver's semantics (entity_resolver.py:25-56, cosine >= 0.85 with
    a real encoder) in an order-independent, bucketed construction:
    hyperplane-LSH candidates over name embeddings, exact cosine verify
    in-bucket, union-find canonical pick (max n_instances, tie smallest
    id), broadcast remap + one merge fold — the same downstream flow as
    :func:`neardup_merge_nodes`.  The default threshold 0.6 fits the
    character-shingle stand-in embedding; with a real model plug the
    reference's 0.85 back in."""
    banded = band_nodes_cosine(nodes_ds, dim=dim, n_tables=n_tables,
                               n_bits=n_bits, seed=seed)
    return _apply_remap(
        nodes_ds, candidate_pairs_cosine(banded, threshold=threshold), cap)


def _apply_remap(nodes_ds, pairs_ds, cap: int):
    """Union-find remap of the candidate pairs, broadcast rewrite + one
    fold per remapped id, sorted by entity_id (shared tail of the two
    near-dup merge passes); no pairs leaves ``nodes_ds`` as it is."""
    import ray

    from kgx.functions.collect import collect_arrow
    remap = build_remap(collect_arrow(pairs_ds))
    if not remap:
        return nodes_ds
    remap_ref = ray.put(remap)

    def rewrite(batch: pa.Table) -> pa.Table:
        m = ray.get(remap_ref)
        ids = batch["entity_id"].to_pylist()
        batch = batch.append_column("_orig_id", batch["entity_id"])
        return batch.set_column(
            batch.schema.get_field_index("entity_id"), "entity_id",
            pa.array([m.get(i, i) for i in ids], pa.string()))

    return map_sorted_blocks(
        nodes_ds.map_batches(rewrite, batch_format="pyarrow"), "entity_id",
        lambda b: _merge_members_block(b, cap), NODES_SCHEMA)


def neardup_merge_nodes(nodes_ds, *, threshold: float = 0.7,
                        num_perm: int = 32, bands: int = 8, k: int = 3,
                        seed: int = 17, cap: int = DEFAULT_INSTANCE_CAP):
    """Optional near-dup pass over canonical nodes; returns merged nodes
    sorted by entity_id.  With no near-duplicates this is a no-op."""
    banded = band_nodes(nodes_ds, num_perm=num_perm, bands=bands, k=k,
                        seed=seed)
    return _apply_remap(
        nodes_ds, candidate_pairs(banded, threshold=threshold), cap)
