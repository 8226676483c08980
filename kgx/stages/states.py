"""Fused per-key aggregation states: the one KG finalize.

Every KG composition (``stream_kg``, ``docs_kg.kg_tables``, and the
checkpointed ``run_pipeline`` / ``update_pipeline`` finalize in
``kgx.pipelines.kg``) builds nodes and edges from these state rows, never
from the corpus-sized tagged extraction table; ``docs_kg.claims_table``
takes its nodes from them too:

    tagged extraction -> combine          (one state row per key per batch)
      -> materialize                      (tiny)
    nodes = states[kind=m] -> + entity_id -> fold_sorted(entity_id)
    edges = states[kind=t] -> broadcast resolve
                           -> map_sorted_blocks(subj_id, pred, obj_id)

On the streaming paths the combiner runs INSIDE the fused
read->text->chunk->extract task chain, so only states leave the map phase;
the checkpointed path runs it over the tagged ``extracted`` checkpoints,
which it keeps for partition-level resume and for the claims consumer.
Each output is one sort on its key plus one pass over each whole sorted
block (:mod:`kgx.functions.fold`).  Head-entity skew needs no
salting: the combiner leaves any key at most one state row per combine
batch, so even a key in every page is a few KB of states in one block.

Unified state row (``STATES_SCHEMA``): kind "m" or "t", key, state,
no, p, sum, n, inst.
  - "m" rows are :func:`kgx.stages.canonicalize.combine_mentions_batch`
    output: key = norm_mention and a JSON merge ``state``; the triple
    columns are null.
  - "t" rows are :func:`kgx.stages.edges._combine_triples_unresolved`
    output and carry no JSON (``state`` is null): key = normalized
    subject, no = normalized object, p = predicate, and the typed
    ``sum``/``n``/``inst`` multiplicity of one raw (s, p, o) key.  The
    edge finalize merges them one sorted block at a time
    (:func:`kgx.stages.edges._finalize_edges_block`), with no JSON and
    no per-key table.
Every merge is associative, so the result does not depend on how rows
were batched — asserted by the stream-vs-checkpointed parity tests;
strengths are sequential left folds in row order, so they are
bit-identical for the same batching.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray

from kgx.functions.fold import fold_sorted, map_sorted_blocks
from kgx.functions.normalize import entity_id
from kgx.stages.canonicalize import (DEFAULT_INSTANCE_CAP, NODES_SCHEMA,
                                     combine_mentions_batch, finalize_group)
from kgx.stages.edges import (DEFAULT_MIN_STRENGTH, EDGES_SCHEMA,
                              INSTANCES_TYPE, _combine_triples_unresolved,
                              _finalize_edges_block)

STATES_SCHEMA = pa.schema([
    ("kind", pa.string()),       # "m" mention-state | "t" triple-state
    ("key", pa.string()),        # m: norm_mention; t: normalize(subj)
    ("state", pa.string()),      # m only: json merge state
    ("no", pa.string()),         # t only: normalize(obj) — resolver key
    ("p", pa.string()),          # t only: predicate
    ("sum", pa.float64()),       # t only: summed strength
    ("n", pa.int64()),           # t only: triple count
    ("inst", INSTANCES_TYPE),    # t only: capped distinct instances
])


def _state_rows(kind: str, num_rows: int, **cols) -> pa.Table:
    """``num_rows`` STATES_SCHEMA rows of ``kind``; the columns not given
    are null."""
    cols["kind"] = pa.array([kind] * num_rows, pa.string())
    return pa.table([cols[f.name] if f.name in cols else
                     pa.nulls(num_rows, f.type) for f in STATES_SCHEMA],
                    schema=STATES_SCHEMA)


def make_combine_extracted_fn(*, n_salts: int | None = None,
                              cap: int = DEFAULT_INSTANCE_CAP,
                              min_strength: float = DEFAULT_MIN_STRENGTH):
    """Tagged extraction batch -> unified per-key state rows.

    ``n_salts`` is accepted and ignored: the mention states are no longer
    salted, and the keyword stays only for callers that still pass
    ``KGConfig.n_salts``."""
    def combine(tagged: pa.Table) -> pa.Table:
        m_in = tagged.filter(pc.equal(tagged["kind"], "mention"))
        m = combine_mentions_batch(m_in, cap=cap)
        t_in = tagged.filter(pc.equal(tagged["kind"], "triple"))
        t = _combine_triples_unresolved(t_in, min_strength=min_strength,
                                        cap=cap)
        return pa.concat_tables([
            _state_rows("m", m.num_rows, key=m["norm_mention"],
                        state=m["state"]),
            _state_rows("t", t.num_rows, key=t["norm"], no=t["no"],
                        p=t["p"], sum=t["sum"], n=t["n"], inst=t["inst"]),
        ]).combine_chunks()
    return combine


def nodes_from_states(states_ds, *, cap: int = DEFAULT_INSTANCE_CAP):
    """Mention states -> canonical nodes sorted by entity_id: entity_id is
    added map-side, then one sort and one fold merge each key's states."""
    def mention_states(t: pa.Table) -> pa.Table:
        m = t.filter(pc.equal(t["kind"], "m"))
        return pa.table({
            "entity_id": pa.array([entity_id(k) for k in
                                   m["key"].to_pylist()], pa.string()),
            "state": m["state"],
        })

    return fold_sorted(
        states_ds.map_batches(mention_states, batch_format="pyarrow"),
        "entity_id", lambda g: finalize_group(g, cap=cap), NODES_SCHEMA)


class _ResolveTripleStates:
    """Broadcast-resolve pre-combined triple states: rewrite each raw
    (s, p, o) state to its (subj_id, pred, obj_id) key, dropping states
    with an unresolvable endpoint (J1 semantics).  States whose raw keys
    resolve to the same id-key are merged by the downstream fold.

    Fully vectorized: the subject/object norms are COLUMNS ("key"/"no"),
    so resolution is two ``pc.index_in`` passes against the broadcast
    alias arrays and the typed ``sum``/``n``/``inst`` columns pass
    through untouched.  The canonical names ride as "sn"/"on" columns
    for the finalize."""

    def __init__(self, alias_ref):
        alias = ray.get(alias_ref) if isinstance(
            alias_ref, ray.ObjectRef) else alias_ref
        keys = sorted(alias)
        self._keys = pa.array(keys, pa.string())
        self._ids = pa.array([alias[k][0] for k in keys], pa.string())
        self._names = pa.array([alias[k][1] for k in keys], pa.string())

    def __call__(self, batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.equal(batch["kind"], "t"))
        s_idx = pc.index_in(t["key"].combine_chunks(),
                            value_set=self._keys)
        o_idx = pc.index_in(t["no"].combine_chunks(),
                            value_set=self._keys)
        ok = pc.and_(pc.is_valid(s_idx), pc.is_valid(o_idx))
        t = t.filter(ok)
        s_idx = s_idx.filter(ok)
        o_idx = o_idx.filter(ok)
        return pa.table({
            "subj_id": pc.take(self._ids, s_idx),
            "pred": t["p"],
            "obj_id": pc.take(self._ids, o_idx),
            "sn": pc.take(self._names, s_idx),
            "on": pc.take(self._names, o_idx),
            "sum": t["sum"],
            "n": t["n"],
            "inst": t["inst"],
        })


def edges_from_states(states_ds, alias_ref, *,
                      cap: int = DEFAULT_INSTANCE_CAP):
    """Triple states -> canonical edges sorted by (subj_id, pred,
    obj_id): broadcast alias resolve, then one sort and one vectorized
    finalize per sorted block (:func:`_finalize_edges_block`)."""
    from kgx.stages.extract import make_task_extractor
    resolved = states_ds.map_batches(
        make_task_extractor(_ResolveTripleStates, alias_ref=alias_ref),
        batch_format="pyarrow")
    return map_sorted_blocks(resolved, ["subj_id", "pred", "obj_id"],
                             lambda b: _finalize_edges_block(b, cap),
                             EDGES_SCHEMA)
