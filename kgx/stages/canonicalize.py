"""Entity canonicalization: one merge of mention states per normalized
mention.

Replaces the reference's order-dependent O(n²) greedy resolver
(``EntityResolver.resolve_entities``,
/root/reference/extraction/entity_resolver.py:25-56) and the global mutable
dedup store (``KnowledgeGraph.add_entity``,
/root/reference/models/knowledge_graph.py:25-45) with an order-independent,
associative merge over the normalized-mention key: typed state columns
(``names``/``types`` counts, ``desc``, ``n``, ``inst``) and their one
merge, :func:`merge_mention_states`, run in two places (the Dataset
composition is ``kgx.stages.states.nodes_from_states``):

1. **in-batch combine** (:func:`combine_mentions_batch`, run inside the
   fused extraction chain): each mention row lifted to a one-row state,
   merged per norm_mention, so the shuffle moves one row per key per
   batch instead of every mention.  This is also what handles
   head-entity skew: "United States" in ~20% of pages is still at most
   one state row per combine batch;
2. **one fold** sorted on ``entity_id`` (the 1:1 hash of norm_mention),
   one :func:`finalize_nodes_block` call per sorted block: merge every
   state row of a key and emit its nodes row.

Merge semantics preserve the reference's ``Entity.merge``
(/root/reference/models/entity.py:40-64) made order-independent:
longest description wins (tie -> lexicographically smallest); canonical
name/type are the most frequent raw surface/type (tie -> smallest);
aliases are every raw surface; instances are the distinct min-K
``(url, chunk_id)`` pairs (min-K of a union is associative) with the
exact occurrence count kept separately in ``n_instances``.  All of this
is property-tested: arbitrary batching then one fold == a single batch
== the dict reference :func:`merge_states` (the oracle's).
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from kgx.functions.fold import (merge_runs, run_argmax, run_counts,
                                run_distinct, run_lists, run_min,
                                run_sum)

# (url, chunk_id) pairs: node/edge/claim instances and every state's inst
INSTANCES_TYPE = pa.list_(pa.struct([("url", pa.string()),
                                     ("chunk_id", pa.string())]))
# surface -> count, sorted by surface: the ``names``/``types`` columns
COUNTS_TYPE = pa.list_(pa.struct([("s", pa.string()), ("c", pa.int64())]))

NODES_SCHEMA = pa.schema([
    ("entity_id", pa.string()),
    ("name", pa.string()),
    ("type", pa.string()),
    ("description", pa.string()),
    ("aliases", pa.list_(pa.string())),
    ("n_instances", pa.int64()),
    ("instances", INSTANCES_TYPE),
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


def lifted_states(n: int, url, chunk_id) -> dict:
    """``n = 1`` and the one-pair ``inst`` of ``n`` raw rows lifted to
    one-row states."""
    return {"n": pa.array(np.ones(n, np.int64)),
            "inst": run_lists(np.arange(n), n, [url, chunk_id],
                              INSTANCES_TYPE)}


def merge_mention_states(block: pa.Table, keys: list,
                         cap: int) -> pa.Table:
    """The one mention merge, per run of ``keys`` in a key-sorted table:
    counts summed per surface, the longest ``desc`` (ties to the
    smallest), ``n`` summed, ``inst`` the capped distinct union."""
    return merge_runs(block, keys, {
        "names": run_counts, "types": run_counts,
        "desc": partial(run_min, longest=True), "n": run_sum,
        "inst": partial(run_distinct, cap=cap)})


def combine_mentions_batch(batch: pa.Table, *,
                           cap: int = DEFAULT_INSTANCE_CAP) -> pa.Table:
    """In-batch combiner: mentions batch -> one state row per
    norm_mention, sorted by it: each mention with a non-empty norm lifted
    to a one-row state, merged by :func:`merge_mention_states`."""
    b = batch.filter(pc.fill_null(pc.not_equal(batch["norm_mention"], ""),
                                  False)).sort_by("norm_mention")
    n = b.num_rows
    one, st = np.arange(n), lifted_states(n, b["url"], b["chunk_id"])
    return merge_mention_states(pa.table({
        "norm_mention": b["norm_mention"],
        "names": run_lists(one, n, [b["mention"], st["n"]], COUNTS_TYPE),
        "types": run_lists(one, n, [b["type"], st["n"]], COUNTS_TYPE),
        "desc": pc.fill_null(b["description"], ""),
        **st,
    }), ["norm_mention"], cap)


def finalize_nodes_block(block: pa.Table, cap: int) -> pa.Table:
    """Mention states sorted by entity_id -> one node per entity_id: the
    most frequent surface and type, every surface as an alias."""
    m = merge_mention_states(block, ["entity_id"], cap)
    names = m["names"].combine_chunks()
    return pa.table({
        "entity_id": m["entity_id"],
        "name": run_argmax(names),
        "type": run_argmax(m["types"].combine_chunks()),
        "description": m["desc"],
        "aliases": pa.ListArray.from_arrays(
            names.offsets, names.flatten().flatten()[0]),
        "n_instances": m["n"],
        "instances": m["inst"],
    }, schema=NODES_SCHEMA)
