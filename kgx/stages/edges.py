"""Edge / claim resolution and dedup.

Endpoint resolution is a **broadcast hash join** (SURVEY.md §2.4 J1/J2): the
canonical alias map ``norm_name -> (entity_id, canonical_name)`` built from
the (small, post-canonicalization) nodes table is ``ray.put`` once and read
by one cached resolver per worker — never re-shipped per batch, never
an all-to-all shuffle.  The reference builds the same name->id dict in
driver memory (/root/reference/indexing/simple_graph_builder.py:74-78) and
drops relationships with an unresolvable endpoint (:88-97) and claims with
zero resolved entities (:136-138); we preserve both drop rules but key the
lookup on ``normalize(name)`` so alias surface variants resolve.

Edge dedup follows ``KnowledgeGraph.add_relationship`` /
``Relationship.merge`` (/root/reference/models/knowledge_graph.py:47-68,
models/relationship.py:35-57) with two documented upgrades: the group key is
the full ``(subj_id, pred, obj_id)`` triple (the north_rule output; the
reference ignores the predicate in its key) and strength is the **true
mean** carried as (sum, count) — the reference's running average-of-averages
is order-dependent.  Claim dedup follows ``add_claim``
(/root/reference/models/knowledge_graph.py:70-101): key ``lower(content)``,
union entity_ids and instances.

Every dedup is one sort on its key plus one pass over each whole sorted
block (:mod:`kgx.functions.fold`) over per-batch pre-combined typed state
rows, and each kind has one merge that its per-batch combine (on raw
rows lifted to one-row states) and its fold both call.  Triples
(:func:`merge_triple_states`) combine UNRESOLVED on the raw (subj, pred,
obj) (:func:`_combine_triples_unresolved`, the triple half of the fused
states in ``kgx.stages.states``), are resolved per state and merged per
resolved key (:func:`_finalize_edges_block`).  Claims
(:func:`merge_claim_states`) are resolved and combined per batch by
:class:`ResolveClaims` and merged per claim_id
(:func:`_finalize_claims_block`).
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from kgx.functions.fold import (map_sorted_blocks, merge_runs,
                                run_distinct, run_left_fold, run_lists,
                                run_min, run_sum)
from kgx.functions.normalize import claim_id, edge_id, normalize
from kgx.stages.canonicalize import (DEFAULT_INSTANCE_CAP, INSTANCES_TYPE,
                                     lifted_states)

DEFAULT_MIN_STRENGTH = 0.5  # /root/reference/config.py:37

EDGES_SCHEMA = pa.schema([
    ("edge_id", pa.string()),
    ("subj_id", pa.string()),
    ("obj_id", pa.string()),
    ("subj_name", pa.string()),
    ("obj_name", pa.string()),
    ("pred", pa.string()),
    ("strength", pa.float64()),
    ("n_instances", pa.int64()),
    ("instances", INSTANCES_TYPE),
])

CLAIMS_SCHEMA = pa.schema([
    ("claim_id", pa.string()),
    ("content", pa.string()),
    ("entity_ids", pa.list_(pa.string())),
    ("n_instances", pa.int64()),
    ("instances", INSTANCES_TYPE),
])


def build_alias_map(nodes_table: pa.Table) -> dict[str, tuple[str, str]]:
    """norm_name -> (entity_id, canonical_name) from the nodes table.

    The canonicalization key IS the normalized name, so ``entity_id =
    sha1(norm)`` and every raw mention resolves through ``normalize``.
    Small by construction (one row per canonical entity): at 10^6
    entities the map took 11.3 s and 264 MB of heap in the calling
    process to build and pickles to 83 MB on a shared 4-vCPU VM
    (SURVEY.md §7 hard parts).
    """
    alias: dict[str, tuple[str, str]] = {}
    names = nodes_table["name"].to_pylist()
    ids = nodes_table["entity_id"].to_pylist()
    aliases_col = nodes_table["aliases"].to_pylist()
    for eid, name, aliases in zip(ids, names, aliases_col):
        for surface in [name] + (aliases or []):
            key = normalize(surface)
            cur = alias.get(key)
            # On the pathological chance two canonical entities share an
            # alias norm, keep the smallest entity_id (order-independent).
            if cur is None or eid < cur[0]:
                alias[key] = (eid, name)
    return alias


def alias_arrays(alias_ref) -> tuple:
    """The broadcast alias map as sorted arrays (norms, entity ids,
    canonical names): resolving norms is one ``pc.index_in``."""
    alias = ray.get(alias_ref) if isinstance(
        alias_ref, ray.ObjectRef) else alias_ref
    keys = sorted(alias)
    return (pa.array(keys, pa.string()),
            pa.array([alias[k][0] for k in keys], pa.string()),
            pa.array([alias[k][1] for k in keys], pa.string()))


def merge_triple_states(block: pa.Table, keys: list, cap: int) -> pa.Table:
    """The one triple merge, per run of ``keys`` in a key-sorted table:
    ``sum`` left-folded in row order, ``n`` summed, ``inst`` the capped
    distinct union, the first row's other columns."""
    return merge_runs(block, keys, {
        "sum": run_left_fold, "n": run_sum,
        "inst": partial(run_distinct, cap=cap)})


def _finalize_edges_block(block: pa.Table, cap: int) -> pa.Table:
    """Resolved triple states sorted by (subj_id, pred, obj_id) -> one
    edge per key: strength = merged ``sum`` / ``n``; the canonical names
    come from the first row (the key fixes both entity ids)."""
    keys = ["subj_id", "pred", "obj_id"]
    m = merge_triple_states(block, keys, cap)
    sid, pred, oid = (m[k].to_pylist() for k in keys)
    return pa.table({
        "edge_id": [edge_id(*k) for k in zip(sid, pred, oid)],
        "subj_id": m["subj_id"], "obj_id": m["obj_id"],
        "subj_name": m["sn"], "obj_name": m["on"],
        "pred": m["pred"],
        "strength": m["sum"].to_numpy() / m["n"].to_numpy(),
        "n_instances": m["n"],
        "instances": m["inst"],
    }, schema=EDGES_SCHEMA)


def _combine_triples_unresolved(batch: pa.Table, *, min_strength: float,
                                cap: int) -> pa.Table:
    """Pre-combine raw triples per batch on the RAW (subj, pred, obj) key
    so the shuffle moves one state row per key per batch.  Triples below
    ``min_strength`` or without a strength are dropped first.  Emits one
    typed row per raw key, in key order: ``norm`` = normalize(subj),
    ``no`` = normalize(obj), ``p`` = pred, and the merged ``sum``, ``n``
    and ``inst`` of the key's rows.  The Arrow sort is STABLE, so
    :func:`merge_triple_states` left-folds the strengths in batch order,
    as a per-row ``+=`` would; ``normalize`` runs once per surface."""
    keys = ["subj", "pred", "obj"]
    b = batch.filter(pc.fill_null(
        pc.greater_equal(batch["strength"], min_strength), False))
    b = b.sort_by([(k, "ascending") for k in keys])
    m = merge_triple_states(pa.table({
        **{k: b[k] for k in keys},
        "sum": b["strength"].cast(pa.float64()),
        **lifted_states(b.num_rows, b["url"], b["chunk_id"]),
    }), keys, cap)
    subj, obj = m["subj"].combine_chunks(), m["obj"].combine_chunks()
    surf = pc.unique(pa.concat_arrays([subj, obj]))
    norms = pa.array([normalize(x) for x in surf.to_pylist()], pa.string())
    return pa.table({
        "norm": norms.take(pc.index_in(subj, value_set=surf)),
        "no": norms.take(pc.index_in(obj, value_set=surf)),
        "p": m["pred"], "sum": m["sum"], "n": m["n"], "inst": m["inst"],
    })


def merge_claim_states(block: pa.Table, keys: list, cap: int) -> pa.Table:
    """The one claim merge, per run of ``keys`` in a key-sorted table:
    the smallest raw ``content`` (of the key's case variants), the sorted
    distinct ``ids``, ``n`` summed and ``inst`` the capped union."""
    return merge_runs(block, keys, {
        "content": run_min, "ids": run_distinct, "n": run_sum,
        "inst": partial(run_distinct, cap=cap)})


class ResolveClaims:
    """Per-batch resolver: raw claims -> claim state rows (claim_id,
    content, ids, n, inst) merged per claim_id, the hash of
    ``content.lower()``.  Claims with zero resolved entities are dropped
    (/root/reference/indexing/simple_graph_builder.py:136-138).  Entities
    resolve through :func:`alias_arrays`; ``normalize``, ``str.lower``
    and ``claim_id`` run once per distinct value."""

    def __init__(self, alias_ref, *, cap: int = DEFAULT_INSTANCE_CAP):
        self._keys, self._ids, _ = alias_arrays(alias_ref)
        self.cap = cap

    def __call__(self, batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.fill_null(
            pc.not_equal(batch["content"], ""), False))
        ents = b["entities"].combine_chunks()
        row = np.repeat(np.arange(b.num_rows), pc.fill_null(
            pc.list_value_length(ents), 0).to_numpy())
        surf = ents.flatten()
        uniq = pc.unique(surf)
        norms = pa.array([normalize(e) for e in uniq.to_pylist()],
                         pa.string())
        idx = pc.index_in(norms.take(pc.index_in(surf, value_set=uniq)),
                          value_set=self._keys)
        ok = pc.is_valid(idx)
        row = row[ok.to_numpy(zero_copy_only=False)]
        ids = run_lists(row, b.num_rows, [self._ids.take(idx.filter(ok))],
                        pa.list_(pa.string()))
        content = b["content"].combine_chunks()
        uniq = pc.unique(content)
        cids = pa.array([claim_id(c.lower()) for c in uniq.to_pylist()],
                        pa.string())
        lifted = pa.table({
            "claim_id": cids.take(pc.index_in(content, value_set=uniq)),
            "content": content,
            "ids": ids,
            **lifted_states(b.num_rows, b["url"], b["chunk_id"]),
        }).filter(pa.array(np.bincount(row, minlength=b.num_rows) > 0))
        return merge_claim_states(lifted.sort_by("claim_id"), ["claim_id"],
                                  self.cap)


def _finalize_claims_block(block: pa.Table, cap: int) -> pa.Table:
    """Claim states sorted by claim_id -> one claim per claim_id."""
    m = merge_claim_states(block, ["claim_id"], cap)
    return pa.table({
        "claim_id": m["claim_id"], "content": m["content"],
        "entity_ids": m["ids"], "n_instances": m["n"],
        "instances": m["inst"],
    }, schema=CLAIMS_SCHEMA)


def resolve_and_dedup_claims(claims_ds, alias_ref, *,
                             cap: int = DEFAULT_INSTANCE_CAP):
    """claims_raw Dataset -> canonical claims Dataset sorted by claim_id.

    Task-based with the broadcast alias map read once per worker
    (:func:`kgx.stages.extract.make_task_extractor`).
    """
    from kgx.stages.extract import make_task_extractor
    combined = claims_ds.map_batches(
        make_task_extractor(ResolveClaims, alias_ref=alias_ref, cap=cap),
        batch_format="pyarrow", batch_size=32768)
    return map_sorted_blocks(combined, "claim_id",
                             lambda b: _finalize_claims_block(b, cap),
                             CLAIMS_SCHEMA)
