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
block (:mod:`kgx.functions.fold`) over per-batch pre-combined state rows.
Triples are pre-combined UNRESOLVED into typed (sum, n, inst) columns
(:func:`_combine_triples_unresolved`, the triple half of the fused state
rows in ``kgx.stages.states``), resolved per state by
``kgx.stages.states.edges_from_states`` and merged by
:func:`_finalize_edges_block`, one vectorized call per sorted block with
no JSON and no per-key table.  Claims are resolved and combined per
batch into JSON states by :class:`ResolveClaims` and folded per key by
:func:`_finalize_claim_group`.
"""

from __future__ import annotations

import json
from functools import reduce
from operator import add

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from kgx.functions.fold import fold_sorted, key_runs
from kgx.functions.normalize import claim_id, edge_id, normalize
from kgx.stages.canonicalize import _cap_instances, DEFAULT_INSTANCE_CAP

DEFAULT_MIN_STRENGTH = 0.5  # /root/reference/config.py:37

# (url, chunk_id) provenance pairs: edge and claim instances, and the
# ``inst`` column of the triple states
INSTANCES_TYPE = pa.list_(pa.struct([("url", pa.string()),
                                     ("chunk_id", pa.string())]))

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


def _left_fold_sums(vals: list, runs: np.ndarray) -> list:
    """Per run of ``runs`` (:func:`key_runs` offsets): the SEQUENTIAL left
    fold ``0.0 + v0 + v1 + ...`` of ``vals``.  ``np.add.reduceat`` sums
    pairwise, which is not bit-identical to a per-row ``+=`` (measured:
    4.140000000000001 vs 4.14); one C-level ``reduce`` per run is, and
    stays O(rows) however the rows split into runs."""
    b = runs.tolist()
    return [reduce(add, vals[s:e], 0.0) for s, e in zip(b[:-1], b[1:])]


def _capped_distinct(run: np.ndarray, n_runs: int, url, chunk_id,
                     cap: int) -> pa.ListArray:
    """``_cap_instances`` for many runs at once: run ``r`` gets the first
    ``cap`` distinct (url, chunk_id) pairs of the rows with ``run == r``,
    in sorted order.  One Arrow sort on (run, url, chunk_id), adjacent
    duplicates dropped, the first ``cap`` of each run kept; returns one
    ``INSTANCES_TYPE`` list per run.  Arrow's bytewise UTF-8 string order
    is Python's code-point order, so the lists equal the per-key
    ``sorted(set(pairs))[:cap]``."""
    t = pa.table({"r": run, "u": url, "c": chunk_id}).sort_by(
        [("r", "ascending"), ("u", "ascending"), ("c", "ascending")])
    t = t.take(key_runs(t, ["r", "u", "c"])[:-1])
    r = t["r"].to_numpy()
    keep = np.arange(len(r)) - np.searchsorted(r, r) < cap
    t = t.filter(pa.array(keep))
    offsets = np.zeros(n_runs + 1, np.int32)
    np.cumsum(np.bincount(r[keep], minlength=n_runs), out=offsets[1:])
    return pa.ListArray.from_arrays(
        pa.array(offsets), pa.StructArray.from_arrays(
            [t["u"].combine_chunks(), t["c"].combine_chunks()],
            fields=list(INSTANCES_TYPE.value_type)), type=INSTANCES_TYPE)


def _finalize_edges_block(block: pa.Table, cap: int) -> pa.Table:
    """One key-sorted block of resolved triple states -> one edge per run
    of (subj_id, pred, obj_id): the strength is the run's summed ``sum``
    over its total ``n`` (both folded in block order), the instances the
    capped distinct union of its ``inst`` lists, and the canonical names
    come from the run's first row (the key fixes both entity ids)."""
    keys = ["subj_id", "pred", "obj_id"]
    runs = key_runs(block, keys)
    starts = runs[:-1]
    n_runs = len(starts)
    head = block.take(starts)
    n = np.add.reduceat(block["n"].to_numpy(), starts)
    total = np.asarray(_left_fold_sums(block["sum"].to_pylist(), runs))
    inst = block["inst"].combine_chunks()
    run = np.repeat(np.repeat(np.arange(n_runs), np.diff(runs)),
                    pc.list_value_length(inst).to_numpy())
    url, chunk_id = inst.flatten().flatten()
    sid, pred, oid = (head[k].to_pylist() for k in keys)
    return pa.table({
        "edge_id": [edge_id(*k) for k in zip(sid, pred, oid)],
        "subj_id": head["subj_id"], "obj_id": head["obj_id"],
        "subj_name": head["sn"], "obj_name": head["on"],
        "pred": head["pred"],
        "strength": total / n,
        "n_instances": n,
        "instances": _capped_distinct(run, n_runs, url, chunk_id, cap),
    }, schema=EDGES_SCHEMA)


def _combine_triples_unresolved(batch: pa.Table, *, min_strength: float,
                                cap: int) -> pa.Table:
    """Pre-combine raw triples per batch on the RAW (subj, pred, obj) key
    so the shuffle moves one state row per key per batch.  Triples below
    ``min_strength`` or without a strength are dropped first.  Emits one
    typed row per raw key, in key order: ``norm`` = normalize(subj),
    ``no`` = normalize(obj), ``p`` = pred, and the multiplicity that
    survives until the resolved-key merge: ``sum`` (float64) and ``n``
    (int64) of the strengths, and ``inst``, the key's capped distinct
    instances (``INSTANCES_TYPE``).

    No per-key dict or JSON: one STABLE Arrow sort on the key columns
    co-locates each key's rows in batch order, and :func:`key_runs`
    gives the runs; ``n`` is the run length, ``sum`` a per-run
    sequential left fold (bit-identical to a per-row ``+=``, see
    :func:`_left_fold_sums`), ``inst`` one :func:`_capped_distinct` pass,
    and ``normalize`` runs once per distinct surface."""
    keys = ["subj", "pred", "obj"]
    b = batch.filter(pc.fill_null(
        pc.greater_equal(batch["strength"], min_strength), False))
    b = b.select(keys + ["url", "chunk_id", "strength"]).sort_by(
        [(k, "ascending") for k in keys])
    runs = key_runs(b, keys)
    starts = runs[:-1]
    head = b.take(starts)
    subj, obj = head["subj"].combine_chunks(), head["obj"].combine_chunks()
    surf = pc.unique(pa.concat_arrays([subj, obj]))
    norms = pa.array([normalize(x) for x in surf.to_pylist()], pa.string())
    counts = np.diff(runs)
    return pa.table({
        "norm": norms.take(pc.index_in(subj, value_set=surf)),
        "no": norms.take(pc.index_in(obj, value_set=surf)),
        "p": head["pred"],
        "sum": pa.array(_left_fold_sums(
            b["strength"].cast(pa.float64()).to_pylist(), runs),
            pa.float64()),
        "n": pa.array(counts, pa.int64()),
        "inst": _capped_distinct(np.repeat(np.arange(len(starts)), counts),
                                 len(starts), b["url"], b["chunk_id"], cap),
    })


class ResolveClaims:
    """Per-batch resolver: raw claims -> pre-combined claim state rows keyed
    by lower(content).  Claims with zero resolved entities are dropped
    (/root/reference/indexing/simple_graph_builder.py:136-138)."""

    def __init__(self, alias_ref, *, cap: int = DEFAULT_INSTANCE_CAP):
        self.alias = ray.get(alias_ref) if isinstance(
            alias_ref, ray.ObjectRef) else alias_ref
        self.cap = cap

    def __call__(self, batch: pa.Table) -> pa.Table:
        states: dict[str, dict] = {}
        for url, chunk_id, content, entities in zip(
                batch["url"].to_pylist(), batch["chunk_id"].to_pylist(),
                batch["content"].to_pylist(), batch["entities"].to_pylist()):
            if not content:
                continue
            ids = sorted({self.alias[normalize(e)][0] for e in (entities or [])
                          if normalize(e) in self.alias})
            if not ids:
                continue
            key = content.lower()
            st = states.get(key)
            if st is None:
                st = states[key] = {"c": content, "ids": [], "n": 0, "inst": []}
            st["c"] = min(st["c"], content)  # deterministic raw-content pick
            st["ids"].extend(ids)
            st["n"] += 1
            st["inst"].append((url, chunk_id))
        keys = sorted(states)
        for k in keys:
            states[k]["ids"] = sorted(set(states[k]["ids"]))
            states[k]["inst"] = _cap_instances(states[k]["inst"], self.cap)
        # claim_id is the deterministic 1:1 hash of content_key: emitting
        # it here lets the dedup fold sort on it directly, so claims
        # arrive already in claim_id order.
        return pa.table({
            "content_key": pa.array(keys, pa.string()),
            "claim_id": pa.array([claim_id(k) for k in keys], pa.string()),
            "state": pa.array([json.dumps(states[k], sort_keys=True)
                               for k in keys], pa.string()),
        })


def _finalize_claim_group(group: pa.Table, cap: int) -> dict:
    key = group["content_key"][0].as_py()
    content, ids, n = None, set(), 0
    seen: set = set()
    for s in group["state"].to_pylist():
        st = json.loads(s)
        content = st["c"] if content is None else min(content, st["c"])
        ids |= set(st["ids"])
        n += st["n"]
        seen.update(map(tuple, st["inst"]))   # cap once below (associative)
    inst = sorted(seen)[:cap]
    return {
        "claim_id": claim_id(key),
        "content": content,
        "entity_ids": sorted(ids),
        "n_instances": n,
        "instances": [{"url": u, "chunk_id": c} for u, c in inst],
    }


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
    # Folding on claim_id (1:1 with content_key) delivers the output
    # already in claim_id order.
    return fold_sorted(combined, "claim_id",
                       lambda g: _finalize_claim_group(g, cap), CLAIMS_SCHEMA)
