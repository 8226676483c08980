"""Entity canonicalization: one merge of mention states per normalized
mention.

Replaces the reference's order-dependent O(n²) greedy resolver
(``EntityResolver.resolve_entities``,
/root/reference/extraction/entity_resolver.py:25-56) and the global mutable
dedup store (``KnowledgeGraph.add_entity``,
/root/reference/models/knowledge_graph.py:25-45) with an order-independent,
associative merge over the normalized-mention key.  This module holds the
merge state and its reducers; the Dataset composition is
``kgx.stages.states.nodes_from_states``:

1. **in-batch combine** (:func:`combine_mentions_batch`, run inside the
   fused extraction chain): partial-aggregate each Arrow batch of mentions
   to one state row per norm_mention, so the shuffle moves one row per key
   per batch instead of every mention.  This is also what handles
   head-entity skew: "United States" in ~20% of pages is still at most
   one state row per combine batch;
2. **one fold** sorted on ``entity_id`` (the 1:1 hash of norm_mention)
   with :func:`finalize_group`: merge every state row of a key and emit
   its nodes row.

Merge semantics preserve the reference's ``Entity.merge``
(/root/reference/models/entity.py:40-64) made order-independent:
longest description wins (tie -> lexicographically smallest); canonical
name/type are the most frequent raw surface/type (tie -> smallest);
instances are the distinct min-K ``(url, chunk_id)`` pairs (min-K of a union
is associative) with the exact occurrence count kept separately in
``n_instances``.  All of this is property-tested: arbitrary batching then
one fold == a single batch.
"""

from __future__ import annotations

import json

import pyarrow as pa
import pyarrow.compute as pc

NODES_SCHEMA = pa.schema([
    ("entity_id", pa.string()),
    ("name", pa.string()),
    ("type", pa.string()),
    ("description", pa.string()),
    ("aliases", pa.list_(pa.string())),
    ("n_instances", pa.int64()),
    ("instances", pa.list_(pa.struct([("url", pa.string()),
                                      ("chunk_id", pa.string())]))),
])

DEFAULT_INSTANCE_CAP = 200


def _new_state() -> dict:
    return {"nc": {}, "tc": {}, "d": "", "n": 0, "inst": [], "al": []}


def _better_desc(a: str, b: str) -> str:
    """Longest wins; ties break to the lexicographically smallest."""
    if len(a) != len(b):
        return a if len(a) > len(b) else b
    return min(a, b)


def _merge_counts(dst: dict, src: dict) -> None:
    for k, v in src.items():
        dst[k] = dst.get(k, 0) + v


def _cap_instances(pairs: list, cap: int) -> list:
    """Distinct min-K of (url, chunk_id) pairs — associative under union."""
    return sorted(set(map(tuple, pairs)))[:cap]


def merge_states(a: dict, b: dict, cap: int = DEFAULT_INSTANCE_CAP) -> dict:
    _merge_counts(a["nc"], b["nc"])
    _merge_counts(a["tc"], b["tc"])
    a["d"] = _better_desc(a["d"], b["d"])
    a["n"] += b["n"]
    a["inst"] = _cap_instances(a["inst"] + b["inst"], cap)
    a["al"] = sorted(set(a["al"]) | set(b["al"]))
    return a


def _argmax_count(counts: dict) -> str:
    """Most frequent; ties break to the lexicographically smallest key."""
    return min(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]


def combine_mentions_batch(batch: pa.Table, *,
                           cap: int = DEFAULT_INSTANCE_CAP) -> pa.Table:
    """In-batch combiner: mentions batch -> one (norm, state) row per key.

    Vectorized: the per-row work runs as Arrow ``group_by`` counts over
    (norm, mention) / (norm, type) / distinct (norm, desc) / distinct
    (norm, url, chunk) — Python touches only DISTINCT combinations.
    Every fold is order-free — counts, the longest-ties-lex-min
    description max, distinct-sorted-capped instances — so the output is
    byte-identical to the old per-row loop (pinned by the oracle/e2e
    parity tests).
    """
    norm_arr = batch["norm_mention"].combine_chunks()
    ok = pc.fill_null(
        pc.and_(pc.is_valid(norm_arr), pc.not_equal(norm_arr, "")), False)
    b = batch.filter(ok)
    if b.num_rows == 0:
        return pa.table({
            "norm_mention": pa.array([], pa.string()),
            "state": pa.array([], pa.string()),
        })
    states: dict[str, dict] = {}

    def st_of(norm: str) -> dict:
        s = states.get(norm)
        if s is None:
            s = states[norm] = _new_state()
        return s

    norm_col = b["norm_mention"].combine_chunks()
    # nc: counts per (norm, raw mention); n: row count per norm
    nc = pa.table({"k": norm_col, "m": b["mention"].combine_chunks()}) \
        .group_by(["k", "m"]).aggregate([("m", "count")])
    for k, m, c in zip(nc["k"].to_pylist(), nc["m"].to_pylist(),
                       nc["m_count"].to_pylist()):
        s = st_of(k)
        s["nc"][m] = c
        s["n"] += c
    # tc: counts per (norm, type)
    tc = pa.table({"k": norm_col, "t": b["type"].combine_chunks()}) \
        .group_by(["k", "t"]).aggregate([("t", "count")])
    for k, t, c in zip(tc["k"].to_pylist(), tc["t"].to_pylist(),
                       tc["t_count"].to_pylist()):
        st_of(k)["tc"][t] = c
    # d: fold _better_desc over the DISTINCT descs of each norm
    # (order-free: longest wins, ties to the lexicographic minimum)
    dd = pa.table({"k": norm_col, "d": b["description"].combine_chunks()}) \
        .group_by(["k", "d"]).aggregate([])
    for k, d in zip(dd["k"].to_pylist(), dd["d"].to_pylist()):
        s = st_of(k)
        s["d"] = _better_desc(s["d"], d or "")
    # inst: distinct (url, chunk_id) per norm, sorted + capped at emit
    ii = pa.table({"k": norm_col, "u": b["url"].combine_chunks(),
                   "c": b["chunk_id"].combine_chunks()}) \
        .group_by(["k", "u", "c"]).aggregate([])
    for k, u, c in zip(ii["k"].to_pylist(), ii["u"].to_pylist(),
                       ii["c"].to_pylist()):
        st_of(k)["inst"].append((u, c))
    keys = sorted(states)
    for k in keys:
        st = states[k]
        st["inst"] = sorted(st["inst"])[:cap]   # already distinct tuples
        st["al"] = sorted(st["nc"])
    return pa.table({
        "norm_mention": pa.array(keys, pa.string()),
        "state": pa.array([json.dumps(states[k], sort_keys=True) for k in keys],
                          pa.string()),
    })


def _fold_state_rows(jsons, cap: int) -> dict:
    """Fold a group's state rows with ONE final dedupe/sort/cap instead of
    per-merge ``sorted(set(...))`` maintenance (capped min-K and sorted
    union are associative, so the result is byte-identical to the pairwise
    :func:`merge_states` fold — asserted by the parity tests)."""
    acc = _new_state()
    inst: set = set()
    al: set = set()
    for s in jsons:
        b = json.loads(s)
        _merge_counts(acc["nc"], b["nc"])
        _merge_counts(acc["tc"], b["tc"])
        acc["d"] = _better_desc(acc["d"], b["d"])
        acc["n"] += b["n"]
        inst.update(map(tuple, b["inst"]))
        al.update(b["al"])
    acc["inst"] = sorted(inst)[:cap]
    acc["al"] = sorted(al)
    return acc


def finalize_group(group: pa.Table, *,
                   cap: int = DEFAULT_INSTANCE_CAP) -> dict:
    """Merge every state row of one entity_id into its nodes row."""
    acc = _fold_state_rows(group["state"].to_pylist(), cap)
    return {
        "entity_id": group["entity_id"][0].as_py(),
        "name": _argmax_count(acc["nc"]),
        "type": _argmax_count(acc["tc"]),
        "description": acc["d"],
        "aliases": acc["al"],
        "n_instances": acc["n"],
        "instances": [{"url": u, "chunk_id": c} for u, c in acc["inst"]],
    }
