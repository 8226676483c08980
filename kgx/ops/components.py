"""Connected components over near-duplicate pairs -> dedup clusters.

The missing last step of a dedup pipeline: pair emitters
(:mod:`kgx.ops.dedup`) produce (doc_a, doc_b) near-dup PAIRS; choosing
one canonical representative per duplicate CLUSTER requires the
connected components of that pair graph.  Ray Data has no graph
operator, so this implements distributed **min-label propagation**
(hash-to-min) with ONE sort per round:

- the round's input is label rows (node, label) plus the constant
  edge-endpoint rows (node, other); round 1's label rows are each node's
  own id and, on the endpoint rows, each neighbour's id, both emitted
  map-side;
- one :func:`kgx.functions.fold.map_sorted_blocks` on ``node`` takes
  every node's minimum label over whole sorted blocks with numpy, and
  emits it once as the node's own row (flagged ``own``) and once to
  every neighbour: the label rows of the next round;
- after round k a node's own label is the smallest id within k hops.
  Labels decrease monotonically, so the sum of the own labels strictly
  decreases until the fixpoint — equal sums in two rounds are an exact
  convergence test (no row-wise diff needed), and the last round's own
  rows are the result;
- iteration count is bounded by the component diameter; near-dup
  clusters are clique-like (diameter 1-2), so a handful of rounds
  converges.  ``max_iters`` bounds the worst case; non-convergence
  raises rather than returning wrong labels.

Partitioning assumption: the sorts move (node, label) and edge-endpoint
rows — never document text; a node's rows are its degree + its
incoming labels, so a pathological hub node's run is its full neighbour
list, which for near-dup semantics is the duplicate-cluster size.

The reference has no dedup at all; this is the training-data surface.
DuckDB oracle: transitive closure via a recursive CTE (driver query
``dedup_components``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from kgx.functions.collect import collect_arrow
from kgx.functions.fold import key_runs, map_sorted_blocks

_ROUND_SCHEMA = pa.schema([("node", pa.int64()), ("other", pa.int64()),
                           ("label", pa.int64()), ("own", pa.bool_())])


def _round_rows(node, other, label, own: bool) -> pa.Table:
    n = len(node)
    return pa.table({
        "node": node,
        "other": pa.nulls(n, pa.int64()) if other is None else other,
        "label": label,
        "own": pa.array(np.full(n, own)),
    }, schema=_ROUND_SCHEMA)


def _node_rows(nodes: pa.Table) -> pa.Table:
    """doc_id -> the node's round-1 label row: its own id."""
    ids = nodes["doc_id"].combine_chunks().cast(pa.int64())
    return _round_rows(ids, None, ids, False)


def _edge_endpoint_rows(pairs: pa.Table) -> pa.Table:
    """(doc_a, doc_b) pairs -> two endpoint rows each: (node, other),
    labelled min(node, other), i.e. the node's and the neighbour's round-1
    label at once.  Later rounds' labels never exceed it, so the rows can
    stay in every round's input."""
    a = pairs["doc_a"].combine_chunks().cast(pa.int64())
    b = pairs["doc_b"].combine_chunks().cast(pa.int64())
    return _round_rows(pa.concat_arrays([a, b]), pa.concat_arrays([b, a]),
                       pa.concat_arrays([pc.min_element_wise(a, b)] * 2),
                       False)


def _min_label_block(block: pa.Table) -> pa.Table:
    """One node-sorted block -> each node's minimum label as its own row
    (in node order), then that label sent to each of its neighbours."""
    starts = key_runs(block, ["node"])[:-1]
    label = np.minimum.reduceat(
        block["label"].combine_chunks().to_numpy(zero_copy_only=False),
        starts)
    node = block["node"].combine_chunks()
    other = block["other"].combine_chunks()
    edge = pc.is_valid(other)
    run = np.repeat(np.arange(len(starts)), np.diff(np.r_[starts,
                                                          len(block)]))
    return pa.concat_tables([
        _round_rows(node.take(starts), None, label, True),
        _round_rows(other.filter(edge), None,
                    label[run[edge.to_numpy(zero_copy_only=False)]], False),
    ])


def _own_rows(t: pa.Table) -> pa.Table:
    """A round's own rows: each node's label -> (doc_id, component_id)."""
    return t.filter(t["own"]).select(["node", "label"]).rename_columns(
        ["doc_id", "component_id"])


def _label_sum(own):
    """Sum of a round's own labels (``None`` for no rows, as
    ``Dataset.sum``): one partial per block, added up by the caller, so no
    ``Aggregate`` exchange runs."""
    part = collect_arrow(own.map_batches(
        lambda t: pa.table({"s": pa.array([pc.sum(t["component_id"])
                                           .as_py()], pa.int64())}),
        batch_format="pyarrow", batch_size=None))
    return pc.sum(part["s"]).as_py() if part.num_rows else None


def connected_components(nodes_ds, pairs_ds, *, max_iters: int = 12):
    """(nodes: doc_id) x (pairs: doc_a, doc_b) -> (doc_id, component_id)
    where component_id is the smallest doc_id in the component;
    singletons map to themselves.  Returns a Dataset sorted by doc_id.
    """
    edges = pairs_ds.map_batches(_edge_endpoint_rows,
                                 batch_format="pyarrow").materialize()
    labels = nodes_ds.map_batches(_node_rows, batch_format="pyarrow")

    prev_sum = None
    for _ in range(max_iters):
        labels = map_sorted_blocks(labels.union(edges), "node",
                                   _min_label_block,
                                   _ROUND_SCHEMA).materialize()
        own = labels.map_batches(_own_rows, batch_format="pyarrow")
        cur_sum = _label_sum(own)
        if cur_sum == prev_sum:   # labels are monotone non-increasing:
            break                 # equal sums == exact fixpoint
        prev_sum = cur_sum
    else:
        raise RuntimeError(
            f"label propagation did not converge in {max_iters} iterations"
            " — component diameter exceeds the bound")
    return own.sort("doc_id")


def neardup_components(docs_ds, *, threshold: float = 0.8,
                       max_iters: int = 12):
    """documents -> (doc_id, component_id) duplicate clusters from exact
    term-set Jaccard pairs at ``threshold``.

    Docs with IDENTICAL term sets are collapsed first: they form a true
    clique (pairwise J = 1), so a star around the group's min doc_id is
    an exact connectivity-preserving substitute for the clique's
    quadratic edge set, and pair mining (LSH candidates + exact verify)
    runs only over one representative per distinct set — J between two
    docs depends only on their sets, so rep edges are exactly the
    between-group edges.  Empty-set docs stay singletons (J(∅,·) is 0).

    Scale note: between-group pairs remain inherently quadratic in the
    near-dup REP-cluster size — that is the operator's output contract
    ("all pairs >= threshold" drives connectivity), not an
    implementation artifact; the identical-set collapse removes the
    usually-dominant exact-duplicate blowup.
    """
    import hashlib

    from kgx.ops.dedup import jaccard_pairs, term_sets_batch

    docs_ds = docs_ds.materialize()   # feeds set hashing + rep filtering

    def set_fp(batch: pa.Table) -> pa.Table:
        sets = term_sets_batch(batch)
        fps, nts = [], []
        for terms in sets["terms"].to_pylist():
            fps.append(hashlib.md5("|".join(terms).encode()).hexdigest())
            nts.append(len(terms))
        return pa.table({
            "doc_id": sets["doc_id"].combine_chunks().cast(pa.int64()),
            "fp": pa.array(fps, pa.string()),
            "n_terms": pa.array(nts, pa.int32()),
        })

    def set_groups(block: pa.Table) -> pa.Table:
        """Every distinct-set run of one fp-sorted block -> tagged rows:
        one rep row (its min doc_id) plus star edges rep->member (none
        for the empty set), run by run in doc_id order."""
        ids = block["doc_id"].combine_chunks().to_numpy(zero_copy_only=False)
        starts = key_runs(block, ["fp"])
        run = np.repeat(np.arange(len(starts) - 1), np.diff(starts))
        order = np.lexsort((ids, run))
        ids = ids[order]
        rep = ids[starts[:-1]][run]
        is_rep = np.zeros(len(ids), dtype=bool)
        is_rep[starts[:-1]] = True
        empty = block["n_terms"].combine_chunks().to_numpy(
            zero_copy_only=False)[order] == 0
        keep = is_rep | ~empty
        return pa.table({
            "kind": pa.array(np.where(is_rep, "r", "e")[keep], pa.string()),
            "doc_a": pa.array(rep[keep], pa.int64()),
            "doc_b": pa.array(ids[keep], pa.int64(),
                              mask=is_rep[keep]),
        })

    tagged = map_sorted_blocks(
        docs_ds.map_batches(set_fp, batch_format="pyarrow"), "fp",
        set_groups, pa.schema([("kind", pa.string()), ("doc_a", pa.int64()),
                               ("doc_b", pa.int64())])).materialize()
    star = tagged.map_batches(
        lambda t: t.filter(pc.equal(t["kind"], "e")).select(
            ["doc_a", "doc_b"]),
        batch_format="pyarrow")

    # one representative doc per distinct set -> pair mining input
    import ray
    rep_tbl = collect_arrow(tagged.map_batches(
        lambda t: t.filter(pc.equal(t["kind"], "r")).select(["doc_a"]),
        batch_format="pyarrow"))
    rep_ref = ray.put(rep_tbl["doc_a"].combine_chunks().cast(pa.int64()))

    def keep_reps(batch: pa.Table) -> pa.Table:
        vs = ray.get(rep_ref)
        return batch.filter(pc.is_in(batch["doc_id"].combine_chunks()
                                     .cast(pa.int64()), value_set=vs))

    rep_docs = docs_ds.map_batches(keep_reps, batch_format="pyarrow")
    rep_pairs = jaccard_pairs(rep_docs, threshold=threshold) \
        .select_columns(["doc_a", "doc_b"])

    nodes = docs_ds.select_columns(["doc_id"])
    return connected_components(nodes, star.union(rep_pairs),
                                max_iters=max_iters)
