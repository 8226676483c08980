"""Fused per-key aggregation states: the one KG finalize.

Every KG composition (``stream_kg``, ``docs_kg.kg_tables``, and the
checkpointed ``run_pipeline`` / ``update_pipeline`` finalize in
``kgx.pipelines.kg``) builds nodes and edges from these state rows, never
from the corpus-sized tagged extraction table; ``docs_kg.claims_table``
takes its nodes from them too:

    tagged extraction -> combine          (one state row per key per batch)
      -> materialize                      (tiny)
    nodes = states[kind=m] -> + entity_id
                           -> map_sorted_blocks(entity_id)
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

Unified state row (``STATES_SCHEMA``), typed columns only: "m" rows
(:func:`kgx.stages.canonicalize.combine_mentions_batch`: key =
norm_mention, ``names``/``types`` counts, ``desc``) and "t" rows
(:func:`kgx.stages.edges._combine_triples_unresolved`: key / no = the
normalized subject / object, p = predicate, ``sum`` of the strengths of
one raw (s, p, o) key) share ``n`` and ``inst``; the other kind's
columns are null.  Each kind's one merge (``merge_mention_states``,
``merge_triple_states``) runs in its combine and again, once per sorted
block, in its finalize.  Every merge is associative, so the result does
not depend on how rows were batched (parity-tested); strengths are left
folds in row order, bit-identical for the same batching.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from kgx.functions.fold import map_sorted_blocks
from kgx.functions.normalize import entity_id
from kgx.stages.canonicalize import (COUNTS_TYPE, DEFAULT_INSTANCE_CAP,
                                     INSTANCES_TYPE, NODES_SCHEMA,
                                     combine_mentions_batch,
                                     finalize_nodes_block)
from kgx.stages.edges import (DEFAULT_MIN_STRENGTH, EDGES_SCHEMA,
                              _combine_triples_unresolved,
                              _finalize_edges_block, alias_arrays)

STATES_SCHEMA = pa.schema([
    ("kind", pa.string()),       # "m" mention-state | "t" triple-state
    ("key", pa.string()),        # m: norm_mention; t: normalize(subj)
    ("no", pa.string()),         # t only: normalize(obj) — resolver key
    ("p", pa.string()),          # t only: predicate
    ("sum", pa.float64()),       # t only: summed strength
    ("n", pa.int64()),           # mention / triple count
    ("inst", INSTANCES_TYPE),    # capped distinct instances
    ("names", COUNTS_TYPE),      # m only: raw surface counts
    ("types", COUNTS_TYPE),      # m only: type counts
    ("desc", pa.string()),       # m only: best description
])
_MENTION_COLS = ["names", "types", "desc", "n", "inst"]


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
                        **{c: m[c] for c in _MENTION_COLS}),
            _state_rows("t", t.num_rows, key=t["norm"], no=t["no"],
                        p=t["p"], sum=t["sum"], n=t["n"], inst=t["inst"]),
        ]).combine_chunks()
    return combine


def nodes_from_states(states_ds, *, cap: int = DEFAULT_INSTANCE_CAP):
    """Mention states -> canonical nodes sorted by entity_id: entity_id is
    added map-side, then one sort and one vectorized finalize per sorted
    block (:func:`kgx.stages.canonicalize.finalize_nodes_block`)."""
    def mention_states(t: pa.Table) -> pa.Table:
        m = t.filter(pc.equal(t["kind"], "m"))
        return pa.table({
            "entity_id": pa.array([entity_id(k) for k in
                                   m["key"].to_pylist()], pa.string()),
            **{c: m[c] for c in _MENTION_COLS},
        })

    return map_sorted_blocks(
        states_ds.map_batches(mention_states, batch_format="pyarrow"),
        "entity_id", lambda b: finalize_nodes_block(b, cap), NODES_SCHEMA)


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
        self._keys, self._ids, self._names = alias_arrays(alias_ref)

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
