"""Fused per-key aggregation states: the one KG finalize.

Every KG composition (``stream_kg``, ``docs_kg.kg_tables``, and the
checkpointed ``run_pipeline`` / ``update_pipeline`` finalize in
``kgx.pipelines.kg``) builds nodes and edges from these state rows, never
from the corpus-sized tagged extraction table; ``docs_kg.claims_table``
takes its nodes from them too:

    tagged extraction -> combine          (one state row per key per batch)
      -> materialize                      (tiny)
    nodes = states[kind=m] -> salted groupby x2          (two-phase merge)
    edges = states[kind=t] -> broadcast resolve -> groupby

On the streaming paths the combiner runs INSIDE the fused
read->text->chunk->extract task chain, so only states leave the map phase;
the checkpointed path runs it over the tagged ``extracted`` checkpoints,
which it keeps for partition-level resume and for the claims consumer.

Unified state row: (kind: "m"|"t", key, salt, state-json, no, p).  Mention
states are :func:`kgx.stages.canonicalize.combine_mentions_batch` output;
triple states are :func:`kgx.stages.edges._combine_triples_unresolved`
output (key = normalized subject, state carries raw s/p/o +
sum/n/instances).  Every merge is associative, so the result does not
depend on how rows were batched — asserted by the stream-vs-checkpointed
parity tests.
"""

from __future__ import annotations


import pyarrow as pa
import pyarrow.compute as pc
import ray

from kgx.functions.normalize import normalize
from kgx.stages.canonicalize import (DEFAULT_INSTANCE_CAP, DEFAULT_N_SALTS,
                                     combine_mentions_batch, finalize_group,
                                     reduce_partial_group)
from kgx.stages.edges import (DEFAULT_MIN_STRENGTH, _combine_triples_unresolved,
                              _finalize_edge_group)

STATES_SCHEMA = pa.schema([
    ("kind", pa.string()),       # "m" mention-state | "t" triple-state
    ("key", pa.string()),        # m: norm_mention; t: normalize(subj)
    ("salt", pa.int32()),        # m only (0 for t)
    ("state", pa.string()),      # json merge state
    ("no", pa.string()),         # t only: normalize(obj) — resolver key
    ("p", pa.string()),          # t only: predicate
])


def make_combine_extracted_fn(*, n_salts: int = DEFAULT_N_SALTS,
                              cap: int = DEFAULT_INSTANCE_CAP,
                              min_strength: float = DEFAULT_MIN_STRENGTH):
    """Tagged extraction batch -> unified per-key state rows."""
    def combine(tagged: pa.Table) -> pa.Table:
        m_in = tagged.filter(pc.equal(tagged["kind"], "mention"))
        m = combine_mentions_batch(m_in, n_salts=n_salts, cap=cap)
        t_in = tagged.filter(pc.equal(tagged["kind"], "triple"))
        t = _combine_triples_unresolved(t_in, min_strength=min_strength,
                                        cap=cap)
        nm, nt = m.num_rows, t.num_rows
        return pa.Table.from_arrays([
            pa.array(["m"] * nm + ["t"] * nt, pa.string()),
            pa.concat_arrays([m["norm_mention"].combine_chunks(),
                              t["norm"].combine_chunks()]),
            pa.concat_arrays([m["salt"].combine_chunks(),
                              pa.array([0] * nt, pa.int32())]),
            pa.concat_arrays([m["state"].combine_chunks(),
                              t["state"].combine_chunks()]),
            pa.concat_arrays([pa.nulls(nm, pa.string()),
                              t["no"].combine_chunks()]),
            pa.concat_arrays([pa.nulls(nm, pa.string()),
                              t["p"].combine_chunks()]),
        ], schema=STATES_SCHEMA)
    return combine


def nodes_from_states(states_ds, *, cap: int = DEFAULT_INSTANCE_CAP):
    """Mention states -> canonical nodes (same two-phase reducers)."""
    m = states_ds.map_batches(
        lambda t: pa.table({
            "norm_mention": t.filter(pc.equal(t["kind"], "m"))["key"],
            "salt": t.filter(pc.equal(t["kind"], "m"))["salt"],
            "state": t.filter(pc.equal(t["kind"], "m"))["state"],
        }),
        batch_format="pyarrow")
    partial = m.groupby(["norm_mention", "salt"]).map_groups(
        lambda g: reduce_partial_group(g, cap=cap), batch_format="pyarrow")
    # Phase 2 groups by entity_id (the 1:1 hash of norm_mention the
    # phase-1 reducer now emits): groupby.map_groups on this Ray version
    # shuffles via a GLOBAL SORT on the group key, so the output arrives
    # already sorted by entity_id and the former trailing
    # ``.sort("entity_id")`` was a redundant extra all-to-all — pure fixed
    # per-run latency at every cluster size (~1 s here; the invariant is
    # pinned by tests/test_states.py::test_map_groups_output_key_sorted).
    return partial.groupby("entity_id").map_groups(
        lambda g: finalize_group(g, cap=cap), batch_format="pyarrow")


class _ResolveTripleStates:
    """Broadcast-resolve pre-combined triple states: rewrite each raw
    (s, p, o) state to its (subj_id, pred, obj_id) key, dropping states
    with an unresolvable endpoint (J1 semantics).  States whose raw keys
    resolve to the same id-key are merged by the downstream groupby.

    Fully vectorized: the subject/object norms are COLUMNS ("key"/"no"),
    so resolution is two ``pc.index_in`` passes against the broadcast
    alias arrays and the state json passes through untouched — no
    per-row parse/re-dump (that loop was ~5 core-s on 200k states).  The
    canonical names ride as "sn"/"on" columns for the finalize."""

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
            "state": t["state"],
        })


def edges_from_states(states_ds, alias_ref, *,
                      cap: int = DEFAULT_INSTANCE_CAP):
    """Triple states -> canonical edges via the broadcast alias map and
    the shared merge/finalize groupby + global dedup-sort."""
    from kgx.stages.edges import make_task_resolver
    resolved = states_ds.map_batches(
        make_task_resolver(_ResolveTripleStates, alias_ref),
        batch_format="pyarrow")
    # The groupby's sort-based shuffle already leaves the output globally
    # sorted by (subj_id, pred, obj_id) — no trailing ds.sort needed (see
    # nodes_from_states; same invariant, same pinned test).
    return resolved.groupby(["subj_id", "pred", "obj_id"]).map_groups(
        lambda g: _finalize_edge_group(g, cap), batch_format="pyarrow")
