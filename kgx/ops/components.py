"""Connected components over near-duplicate pairs -> dedup clusters.

The missing last step of a dedup pipeline: pair emitters
(:mod:`kgx.ops.dedup`) produce (doc_a, doc_b) near-dup PAIRS; choosing
one canonical representative per duplicate CLUSTER requires the
connected components of that pair graph.  Ray Data has no graph
operator, so this implements distributed **min-label propagation**
(hash-to-min) as groupby shuffles:

- state: a labels Dataset (node, label), initialized label = node;
- per iteration, ONE co-shuffle ``groupby(node)`` over
  [label rows ∪ edge-endpoint rows] lets every node's current label
  flow to each neighbor as a message row, and a second ``groupby(node)``
  takes the min of [old label ∪ incoming messages];
- labels decrease monotonically, so the global label SUM strictly
  decreases until the fixpoint — a cheap ``sum()`` aggregate per
  iteration is an exact convergence test (no row-wise diff needed);
- iteration count is bounded by the component diameter; near-dup
  clusters are clique-like (diameter 1-2), so a handful of rounds
  converges.  ``max_iters`` bounds the worst case; non-convergence
  raises rather than returning wrong labels.

Partitioning assumption: shuffles move (node, label) and edge-endpoint
rows — never document text; per-node group size is its degree + 1.
A pathological hub node's group is its full neighbor list, which for
near-dup semantics is the duplicate-cluster size.

The reference has no dedup at all; this is the training-data surface.
DuckDB oracle: transitive closure via a recursive CTE (driver query
``dedup_components``).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc


def _edge_endpoint_rows(pairs: pa.Table) -> pa.Table:
    """(doc_a, doc_b) pairs -> two endpoint rows each: (node, other)."""
    a = pairs["doc_a"].combine_chunks().cast(pa.int64())
    b = pairs["doc_b"].combine_chunks().cast(pa.int64())
    return pa.table({
        "node": pa.concat_arrays([a, b]),
        "other": pa.concat_arrays([b, a]),
        "label": pa.nulls(2 * pairs.num_rows, pa.int64()),
    })


def _propagate_group(group: pa.Table) -> pa.Table:
    """One node's [label row ∪ endpoint rows] -> message rows to every
    neighbor plus the node's own label row."""
    others = group["other"].to_pylist()
    labels = [v for v in group["label"].to_pylist() if v is not None]
    node = group["node"][0].as_py()
    label = min(labels) if labels else node
    out_node = [node] + [o for o in others if o is not None]
    n = len(out_node)
    return pa.table({
        "node": pa.array(out_node, pa.int64()),
        "label": pa.array([label] * n, pa.int64()),
    })


def _min_label_group(group: pa.Table) -> pa.Table:
    return pa.table({
        "node": pa.array([group["node"][0].as_py()], pa.int64()),
        "label": pa.array([pc.min(group["label"]).as_py()], pa.int64()),
    })


def connected_components(nodes_ds, pairs_ds, *, max_iters: int = 12):
    """(nodes: doc_id) x (pairs: doc_a, doc_b) -> (doc_id, component_id)
    where component_id is the smallest doc_id in the component;
    singletons map to themselves.  Returns a Dataset sorted by doc_id.
    """
    from kgx.functions.collect import shuffle_coalesce

    # Coalesce both sides once: every iteration runs two sort shuffles
    # whose task counts track the BLOCK counts, so thousands of tiny
    # blocks would make each round a scheduling storm.
    labels = shuffle_coalesce(nodes_ds.map_batches(
        lambda t: pa.table({
            "node": t["doc_id"].combine_chunks().cast(pa.int64()),
            "other": pa.nulls(t.num_rows, pa.int64()),
            "label": t["doc_id"].combine_chunks().cast(pa.int64()),
        }),
        batch_format="pyarrow")).materialize()
    edges = shuffle_coalesce(pairs_ds.map_batches(
        _edge_endpoint_rows, batch_format="pyarrow")).materialize()

    prev_sum = None
    for _ in range(max_iters):
        messages = labels.union(edges).groupby("node").map_groups(
            _propagate_group, batch_format="pyarrow")
        new_labels = messages.groupby("node").map_groups(
            _min_label_group, batch_format="pyarrow")
        new_labels = new_labels.map_batches(
            lambda t: pa.table({
                "node": t["node"].combine_chunks(),
                "other": pa.nulls(t.num_rows, pa.int64()),
                "label": t["label"].combine_chunks(),
            }),
            batch_format="pyarrow").materialize()
        cur_sum = new_labels.sum("label")
        labels = new_labels
        if cur_sum == prev_sum:   # labels are monotone non-increasing:
            break                 # equal sums == exact fixpoint
        prev_sum = cur_sum
    else:
        raise RuntimeError(
            f"label propagation did not converge in {max_iters} iterations"
            " — component diameter exceeds the bound")

    out = labels.map_batches(
        lambda t: pa.table({
            "doc_id": t["node"].combine_chunks(),
            "component_id": t["label"].combine_chunks(),
        }),
        batch_format="pyarrow")
    return out.sort("doc_id")


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

    def group_rows(group: pa.Table) -> pa.Table:
        """One distinct-set group -> tagged rows: one rep row plus star
        edges rep->member (skipped for the empty set)."""
        ids = sorted(group["doc_id"].to_pylist())
        empty = group["n_terms"][0].as_py() == 0
        kinds, a_c, b_c = ["r"], [ids[0]], [None]
        if not empty:
            for m in ids[1:]:
                kinds.append("e")
                a_c.append(ids[0])
                b_c.append(m)
        return pa.table({
            "kind": pa.array(kinds, pa.string()),
            "doc_a": pa.array(a_c, pa.int64()),
            "doc_b": pa.array(b_c, pa.int64()),
        })

    from kgx.functions.collect import shuffle_coalesce
    tagged = shuffle_coalesce(
        docs_ds.map_batches(set_fp, batch_format="pyarrow")
        .groupby("fp").map_groups(group_rows, batch_format="pyarrow")
    ).materialize()
    star = tagged.map_batches(
        lambda t: t.filter(pc.equal(t["kind"], "e")).select(
            ["doc_a", "doc_b"]),
        batch_format="pyarrow")

    # one representative doc per distinct set -> pair mining input
    import ray
    from kgx.functions.collect import collect_arrow
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
