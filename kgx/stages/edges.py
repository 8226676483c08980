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

Every dedup is one sort on its key plus one whole-block fold
(:func:`kgx.functions.fold.fold_sorted`) over per-batch pre-combined
state rows; the reducers here return one row per key.  Triples are
pre-combined UNRESOLVED (:func:`_combine_triples_unresolved`, the
triple half of the fused state rows in ``kgx.stages.states``) and
resolved per state by ``kgx.stages.states.edges_from_states``; claims are
resolved and combined per batch by :class:`ResolveClaims`.
"""

from __future__ import annotations

import json

import pyarrow as pa
import pyarrow.compute as pc
import ray

from kgx.functions.fold import fold_sorted, key_runs
from kgx.functions.normalize import claim_id, edge_id, normalize
from kgx.stages.canonicalize import _cap_instances, DEFAULT_INSTANCE_CAP

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
    ("instances", pa.list_(pa.struct([("url", pa.string()),
                                      ("chunk_id", pa.string())]))),
])

CLAIMS_SCHEMA = pa.schema([
    ("claim_id", pa.string()),
    ("content", pa.string()),
    ("entity_ids", pa.list_(pa.string())),
    ("n_instances", pa.int64()),
    ("instances", pa.list_(pa.struct([("url", pa.string()),
                                      ("chunk_id", pa.string())]))),
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


def _finalize_edge_group(group: pa.Table, cap: int) -> dict:
    subj_id = group["subj_id"][0].as_py()
    pred = group["pred"][0].as_py()
    obj_id = group["obj_id"][0].as_py()
    # the vectorized resolver carries the canonical names as COLUMNS
    # (constant within a group — the group key fixes both entity ids)
    # and leaves the pre-combined state json untouched
    sn = group["sn"][0].as_py()
    on = group["on"][0].as_py()
    total, n = 0.0, 0
    seen: set = set()
    for s in group["state"].to_pylist():
        st = json.loads(s)
        total += st["sum"]
        n += st["n"]
        # capped min-K is associative under union, so ONE set union per
        # state + one final sort replaces the old per-state
        # sort(set(...))[:cap] re-cap (O(states * cap log cap) -> was
        # the dominant cost of the whole edges stage at 200k states)
        seen.update(map(tuple, st["inst"]))
    inst = sorted(seen)[:cap]
    return {
        "edge_id": edge_id(subj_id, pred, obj_id),
        "subj_id": subj_id, "obj_id": obj_id,
        "subj_name": sn, "obj_name": on, "pred": pred,
        "strength": total / n,
        "n_instances": n,
        "instances": [{"url": u, "chunk_id": c} for u, c in inst],
    }


def _combine_triples_unresolved(batch: pa.Table, *, min_strength: float,
                                cap: int) -> pa.Table:
    """Pre-combine raw triples per batch on the RAW (subj, pred, obj) key
    so the shuffle moves one state row per key per batch; the state
    carries the multiplicity (sum, n, instances), so duplicate triples
    survive until the resolved-key merge.  Emits (norm = normalize(subj),
    state, no = normalize(obj), p = pred).

    Vectorized: one STABLE Arrow sort on the key columns co-locates each
    key's rows in original order and segment boundaries come from
    :func:`kgx.functions.fold.key_runs`; strengths fold with a
    per-segment SEQUENTIAL left fold so the float sums are bit-identical
    to the old per-row ``+=`` loop (pairwise reducers are not).  Stable
    sort preserves within-key row order, and UTF-8 bytewise sort order
    equals Python's code-point tuple sort, so the emitted key order
    matches the old ``sorted(states)``."""
    import numpy as np
    mask = pc.fill_null(
        pc.greater_equal(batch["strength"], min_strength), False)
    b = batch.filter(mask)
    states: dict[tuple, dict] = {}
    keys: list = []
    if b.num_rows:
        b = pa.table({
            "subj": b["subj"], "pred": b["pred"], "obj": b["obj"],
            "url": b["url"], "chunk_id": b["chunk_id"],
            "strength": b["strength"],
        }).sort_by([("subj", "ascending"), ("pred", "ascending"),
                    ("obj", "ascending")])
        runs = key_runs(b, ["subj", "pred", "obj"])
        starts, counts = runs[:-1], np.diff(runs)
        # per-segment SEQUENTIAL float fold: np.add.reduceat sums
        # pairwise, which is not bit-identical to the old per-row +=
        # (measured: 4.140000000000001 vs 4.14) — a plain left fold is
        vals = b["strength"].to_numpy(zero_copy_only=False) \
            .astype(np.float64).tolist()

        def seg_sum(s0: int, cnt: int) -> float:
            tot = 0.0
            for v in vals[s0:s0 + cnt]:
                tot += v
            return tot

        sums = [seg_sum(int(s0), int(c))
                for s0, c in zip(starts, counts)]
        subj_l = b["subj"].to_pylist()
        pred_l = b["pred"].to_pylist()
        obj_l = b["obj"].to_pylist()
        urls = b["url"].to_pylist()
        chunks = b["chunk_id"].to_pylist()
        for s0, cnt, tot in zip(starts.tolist(), counts.tolist(), sums):
            s_, p_, o_ = subj_l[s0], pred_l[s0], obj_l[s0]
            key = (s_, p_, o_)
            keys.append(key)
            states[key] = {
                "s": s_, "p": p_, "o": o_, "no": normalize(o_),
                "sum": float(tot), "n": int(cnt),
                "inst": _cap_instances(
                    list(zip(urls[s0:s0 + cnt], chunks[s0:s0 + cnt])),
                    cap),
            }
    # "no"/"p" ride along as COLUMNS (duplicating two json fields) so the
    # broadcast resolver can rewrite keys fully vectorized (index_in)
    # without parsing the state json per row.
    return pa.table({
        "norm": pa.array([normalize(k[0]) for k in keys], pa.string()),
        "state": pa.array([json.dumps(states[k], sort_keys=True)
                           for k in keys], pa.string()),
        "no": pa.array([states[k]["no"] for k in keys], pa.string()),
        "p": pa.array([k[1] for k in keys], pa.string()),
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
