"""Graph analytics over the constructed knowledge graph.

The reference stops at communities + flow metrics
(/root/reference/indexing/community_detection.py); centrality is the
next thing a KG user asks for, so this adds undirected degree and
PageRank as first-class distributed operators over any (src, dst) edge
table — in practice the canonical co-occurrence edges from
kgx.pipelines.docs_kg.

**Integer fixed-point arithmetic throughout.**  Ranks live in integer
units of 1e-12 (``SCALE = 10**12``) and every update is integer
floor-division::

    r0(v)  = SCALE // N
    r_k(v) = ((100-d) * (SCALE // N)) // 100
             + (d * sum_{u~v} (r_{k-1}(u) // deg(u))) // 100

Because integer addition is associative and order-independent, the
distributed fold gives bit-identical results to any sequential engine —
the DuckDB oracle (driver query ``kg_pagerank``) unrolls the same
iterations in BIGINT arithmetic and hash-matches exactly, which a
float formulation could never guarantee across summation orders.

Scale shape (100 TB path): the edge list is streamed per iteration
(map_batches partials, one ``(vertex, partial_sum)`` row per distinct
in-batch target), while the rank/degree vectors are O(|V|) dense int64
arrays broadcast once per iteration via ``ray.put``.  PARTITIONING
ASSUMPTION: the vertex set fits in one worker's heap (a few GB covers
~10^8 entities — far beyond any canonicalized KG's node count; the
corpus-sized thing is the *edge* list, which never leaves the stream).
Dangling nodes cannot exist here: vertices are defined as edge
endpoints of an undirected graph, so deg >= 1 always.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from kgx.functions.collect import collect_arrow

SCALE = 10**12


def undirected_edges(edges_ds, *, src_col: str = "subj_name",
                     dst_col: str = "obj_name",
                     weight_col: str | None = None):
    """Distinct (src, dst) pairs emitted in both directions; with
    ``weight_col`` the weight rides along as an int64 ``w`` column.

    Input pairs are assumed already distinct (the canonical edges table
    is grouped); each undirected edge becomes two directed rows.
    """
    def both(batch: pa.Table) -> pa.Table:
        s = batch[src_col].combine_chunks().cast(pa.string())
        t = batch[dst_col].combine_chunks().cast(pa.string())
        cols = {
            "src": pa.concat_arrays([s, t]),
            "dst": pa.concat_arrays([t, s]),
        }
        if weight_col is not None:
            w = batch[weight_col].combine_chunks().cast(pa.int64())
            cols["w"] = pa.concat_arrays([w, w])
        return pa.table(cols)

    return edges_ds.map_batches(both, batch_format="pyarrow")


def _vertex_arrays(ed) -> tuple[pa.Array, np.ndarray]:
    """(sorted vertex names, int64 degree per vertex) from the directed
    edge list — one narrow groupby-count, collected to the driver under
    the O(|V|) assumption documented above."""
    deg = collect_arrow(ed.groupby("src").count())
    if deg.num_rows == 0:
        return pa.array([], pa.string()), np.array([], dtype=np.int64)
    order = pc.sort_indices(deg["src"].combine_chunks())
    verts = pc.take(deg["src"].combine_chunks(), order)
    degs = pc.take(deg["count()"].combine_chunks(), order) \
             .to_numpy(zero_copy_only=False).astype(np.int64)
    return verts, degs


def pagerank(edges_ds, *, src_col: str = "subj_name",
             dst_col: str = "obj_name", iters: int = 10,
             damping_pct: int = 85):
    """(name, degree, pr_units) for every vertex of the undirected graph.

    ``pr_units`` is the integer fixed-point rank after ``iters``
    synchronous iterations (see module docstring for the exact integer
    recurrence mirrored by the SQL oracle).
    """
    ed = undirected_edges(edges_ds, src_col=src_col,
                          dst_col=dst_col).materialize()
    verts, degs = _vertex_arrays(ed)
    n = len(degs)
    if n == 0:
        return ray.data.from_arrow(pa.table({
            "name": pa.array([], pa.string()),
            "degree": pa.array([], pa.int64()),
            "pr_units": pa.array([], pa.int64()),
        }))

    base = ((100 - damping_pct) * (SCALE // n)) // 100
    ranks = np.full(n, SCALE // n, dtype=np.int64)

    for _ in range(iters):
        bref = ray.put((verts, ranks, degs))

        def partial(batch: pa.Table, _bref=bref) -> pa.Table:
            vs, rk, dg = ray.get(_bref)
            si = pc.index_in(batch["src"].combine_chunks(), value_set=vs) \
                   .to_numpy(zero_copy_only=False)
            di = pc.index_in(batch["dst"].combine_chunks(), value_set=vs) \
                   .to_numpy(zero_copy_only=False)
            contrib = rk[si] // dg[si]
            acc = np.zeros(len(vs), dtype=np.int64)
            np.add.at(acc, di, contrib)
            nz = np.flatnonzero(acc)
            return pa.table({
                "vi": pa.array(nz, pa.int64()),
                "c": pa.array(acc[nz], pa.int64()),
            })

        parts = collect_arrow(
            ed.map_batches(partial, batch_format="pyarrow"))
        total = np.zeros(n, dtype=np.int64)
        if parts.num_rows:
            np.add.at(total,
                      parts["vi"].to_numpy(zero_copy_only=False),
                      parts["c"].to_numpy(zero_copy_only=False))
        ranks = base + (damping_pct * total) // 100

    return ray.data.from_arrow(pa.table({
        "name": verts,
        "degree": pa.array(degs, pa.int64()),
        "pr_units": pa.array(ranks, pa.int64()),
    }))


def weighted_pagerank(edges_ds, *, src_col: str = "subj_name",
                      dst_col: str = "obj_name",
                      weight_col: str = "n_instances",
                      iters: int = 10, damping_pct: int = 85):
    """(name, wdegree, wpr_units): PageRank with integer EDGE WEIGHTS —
    u spreads its rank proportionally to w_uv instead of uniformly::

        r_k(v) = base + (d * sum_{u~v} (r_{k-1}(u) * w_uv) // W_u) // 100

    with ``W_u = sum_t w_ut`` the vertex's total weight (wdegree).  For
    the co-occurrence KG the natural weight is ``n_instances`` (how many
    documents witness the pair), so heavily-witnessed associations carry
    more centrality mass than one-off co-mentions — the ranking KG
    applications actually want.  Per-edge division BEFORE the sum keeps
    every step order-independent integer arithmetic; the SQL oracle
    (driver query ``kg_pagerank_weighted``) unrolls the identical
    recurrence in BIGINT.

    Scale shape: identical to :func:`pagerank` (edge stream per
    iteration, batch-distinct contribution partials, O(|V|) rank/weight
    broadcast).  RANGE ASSUMPTION: ``r * w`` must fit int64 — per-edge
    weight below ~9e6 even under full mass concentration; clip or
    rescale weights beyond that.
    """
    from ray.data.aggregate import Sum

    ed = undirected_edges(edges_ds, src_col=src_col, dst_col=dst_col,
                          weight_col=weight_col).materialize()
    wd = collect_arrow(ed.groupby("src").aggregate(Sum("w")))
    n = wd.num_rows
    if n == 0:
        return ray.data.from_arrow(pa.table({
            "name": pa.array([], pa.string()),
            "wdegree": pa.array([], pa.int64()),
            "wpr_units": pa.array([], pa.int64()),
        }))
    order = pc.sort_indices(wd["src"].combine_chunks())
    verts = pc.take(wd["src"].combine_chunks(), order)
    wsum = pc.take(wd["sum(w)"].combine_chunks(), order) \
             .to_numpy(zero_copy_only=False).astype(np.int64)

    base = ((100 - damping_pct) * (SCALE // n)) // 100
    ranks = np.full(n, SCALE // n, dtype=np.int64)

    for _ in range(iters):
        bref = ray.put((verts, ranks, wsum))

        def partial(batch: pa.Table, _bref=bref) -> pa.Table:
            vs, rk, ws = ray.get(_bref)
            si = pc.index_in(batch["src"].combine_chunks(), value_set=vs) \
                   .to_numpy(zero_copy_only=False)
            di = pc.index_in(batch["dst"].combine_chunks(), value_set=vs) \
                   .to_numpy(zero_copy_only=False)
            w = batch["w"].to_numpy(zero_copy_only=False)
            contrib = (rk[si] * w) // ws[si]
            acc = np.zeros(len(vs), dtype=np.int64)
            np.add.at(acc, di, contrib)
            nz = np.flatnonzero(acc)
            return pa.table({
                "vi": pa.array(nz, pa.int64()),
                "c": pa.array(acc[nz], pa.int64()),
            })

        parts = collect_arrow(
            ed.map_batches(partial, batch_format="pyarrow"))
        total = np.zeros(n, dtype=np.int64)
        if parts.num_rows:
            np.add.at(total,
                      parts["vi"].to_numpy(zero_copy_only=False),
                      parts["c"].to_numpy(zero_copy_only=False))
        ranks = base + (damping_pct * total) // 100

    return ray.data.from_arrow(pa.table({
        "name": verts,
        "wdegree": pa.array(wsum, pa.int64()),
        "wpr_units": pa.array(ranks, pa.int64()),
    }))


def personalized_pagerank(edges_ds, *, src_col: str = "subj_name",
                          dst_col: str = "obj_name", iters: int = 10,
                          damping_pct: int = 85):
    """Personalized PageRank from the lexicographically smallest vertex
    (the deterministic seed device ``khop_neighborhood`` uses): the
    teleport mass restarts at the SEED instead of spreading uniformly,
    so ranks measure proximity to the seed — the recommend-around-an-
    entity primitive.  Same integer fixed-point recurrence, broadcast
    rank vector and map-side contribution partials as :func:`pagerank`
    (O(|V|) broadcast documented there); only the restart vector
    differs.  Output: (name, degree, ppr_units)."""
    ed = undirected_edges(edges_ds, src_col=src_col,
                          dst_col=dst_col).materialize()
    verts, degs = _vertex_arrays(ed)
    n = len(degs)
    if n == 0:
        return ray.data.from_arrow(pa.table({
            "name": pa.array([], pa.string()),
            "degree": pa.array([], pa.int64()),
            "ppr_units": pa.array([], pa.int64()),
        }))

    seed_ix = int(np.argmin(np.asarray(verts.to_pylist())))
    restart = np.zeros(n, dtype=np.int64)
    restart[seed_ix] = SCALE
    base_vec = ((100 - damping_pct) * restart) // 100
    ranks = restart.copy()

    for _ in range(iters):
        bref = ray.put((verts, ranks, degs))

        def partial(batch: pa.Table, _bref=bref) -> pa.Table:
            vs, rk, dg = ray.get(_bref)
            si = pc.index_in(batch["src"].combine_chunks(), value_set=vs) \
                   .to_numpy(zero_copy_only=False)
            di = pc.index_in(batch["dst"].combine_chunks(), value_set=vs) \
                   .to_numpy(zero_copy_only=False)
            contrib = rk[si] // dg[si]
            acc = np.zeros(len(vs), dtype=np.int64)
            np.add.at(acc, di, contrib)
            nz = np.flatnonzero(acc)
            return pa.table({
                "vi": pa.array(nz, pa.int64()),
                "c": pa.array(acc[nz], pa.int64()),
            })

        parts = collect_arrow(
            ed.map_batches(partial, batch_format="pyarrow"))
        total = np.zeros(n, dtype=np.int64)
        if parts.num_rows:
            np.add.at(total,
                      parts["vi"].to_numpy(zero_copy_only=False),
                      parts["c"].to_numpy(zero_copy_only=False))
        ranks = base_vec + (damping_pct * total) // 100

    return ray.data.from_arrow(pa.table({
        "name": verts,
        "degree": pa.array(degs, pa.int64()),
        "ppr_units": pa.array(ranks, pa.int64()),
    }))


def degree_table(edges_ds, *, src_col: str = "subj_name",
                 dst_col: str = "obj_name"):
    """(name, degree) per vertex of the undirected graph."""
    ed = undirected_edges(edges_ds, src_col=src_col, dst_col=dst_col)
    verts, degs = _vertex_arrays(ed)
    return ray.data.from_arrow(pa.table({
        "name": verts,
        "degree": pa.array(degs, pa.int64()),
    }))


def triangle_counts(edges_ds, *, src_col: str = "subj_name",
                    dst_col: str = "obj_name"):
    """Per-vertex triangle counts of the undirected graph — the classic
    wedge-join: each vertex emits its neighbor pairs (wedges), and a
    wedge closes into a triangle iff its endpoint pair is itself an
    edge.  Every triangle {a,b,c} is counted exactly once per center,
    so the per-vertex count needs no division.

    Scale shape: TWO narrow shuffles — groupby(center) builds adjacency
    and emits (endpoint-pair, center) wedge rows vectorized
    (``np.triu_indices`` + Arrow ``take``/``binary_join_element_wise``),
    then ONE groupby(pair) co-shuffle with the distinct edge rows closes
    wedges; counts reduce with map-side partials.  PARTITIONING
    ASSUMPTION: wedges per vertex are C(deg, 2) — a hub vertex
    quadratically inflates the wedge stream, so degree-cap or
    split-high-degree handling is required beyond ~10^4-degree hubs
    (not present in canonicalized term graphs).
    Output: (name, n_triangles), vertices in >= 1 triangle only.
    """
    from ray.data.aggregate import Sum

    und = undirected_edges(edges_ds, src_col=src_col, dst_col=dst_col)

    def wedges(group: pa.Table) -> pa.Table:
        nbrs = pc.unique(group["dst"].combine_chunks())
        nbrs = pc.take(nbrs, pc.sort_indices(nbrs))
        m = len(nbrs)
        if m < 2:
            return pa.table({"pair": pa.array([], pa.string()),
                             "center": pa.array([], pa.string()),
                             "is_edge": pa.array([], pa.int64())})
        ai, ci = np.triu_indices(m, k=1)
        a = pc.take(nbrs, pa.array(ai, pa.int64()))
        c = pc.take(nbrs, pa.array(ci, pa.int64()))
        pair = pc.binary_join_element_wise(a, c, "|")
        n = len(pair)
        return pa.table({
            "pair": pair,
            "center": pa.concat_arrays(
                [group["src"].combine_chunks().cast(pa.string())
                 .slice(0, 1)] * n) if n else pa.array([], pa.string()),
            "is_edge": pa.array(np.zeros(n, dtype=np.int64)),
        })

    def edge_rows(batch: pa.Table) -> pa.Table:
        s = batch[src_col].combine_chunks().cast(pa.string())
        t = batch[dst_col].combine_chunks().cast(pa.string())
        lo = pc.min_element_wise(s, t)
        hi = pc.max_element_wise(s, t)
        return pa.table({
            "pair": pc.binary_join_element_wise(lo, hi, "|"),
            "center": pa.nulls(batch.num_rows, pa.string()),
            "is_edge": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
        })

    wedge_ds = und.groupby("src").map_groups(wedges, batch_format="pyarrow")
    edge_ds = edges_ds.map_batches(edge_rows, batch_format="pyarrow")

    def close(group: pa.Table) -> pa.Table:
        is_e = group["is_edge"].to_numpy(zero_copy_only=False)
        if is_e.max() == 0:       # wedge never closes: pair is not an edge
            return pa.table({"name": pa.array([], pa.string())})
        centers = group.filter(pc.equal(group["is_edge"], 0))["center"]
        return pa.table({"name": centers.combine_chunks().cast(pa.string())})

    closed = wedge_ds.union(edge_ds).groupby("pair").map_groups(
        close, batch_format="pyarrow")

    def count_partial(batch: pa.Table) -> pa.Table:
        t = batch.append_column(
            "one", pa.array(np.ones(batch.num_rows, dtype=np.int64)))
        return t.group_by(["name"]).aggregate([("one", "sum")])

    agg = (closed.map_batches(count_partial, batch_format="pyarrow")
                 .groupby("name").aggregate(Sum("one_sum")))

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table({
            "name": batch["name"].combine_chunks().cast(pa.string()),
            "n_triangles": batch["sum(one_sum)"].combine_chunks()
                                .cast(pa.int64()),
        })

    return agg.map_batches(finish, batch_format="pyarrow")


def clustering_coefficients(edges_ds, *, src_col: str = "subj_name",
                            dst_col: str = "obj_name"):
    """(name, degree, n_triangles, lcc_units) for every vertex of
    degree >= 2 — the local clustering coefficient in integer
    fixed-point units of 1e-12::

        lcc_units(v) = (2 * T(v) * SCALE) // (deg(v) * (deg(v) - 1))

    Integer floor-division (like ``pagerank``) makes the distributed
    result bit-identical to the SQL oracle regardless of summation
    order, which a float ratio could not guarantee.

    Scale shape: triangles come from the streamed wedge-join
    (``triangle_counts``); the degree vector is O(|V|) and joined on
    the driver under the same vertex-set-fits-one-heap assumption as
    ``pagerank`` (module docstring) — the corpus-sized edge/wedge
    streams never collect.  RANGE ASSUMPTION: ``2 * T(v) * SCALE``
    must fit int64, i.e. T(v) < ~4.6e6 triangles per vertex — far
    beyond any canonicalized term graph; a >4k-degree hub needs the
    degree-cap handling noted on ``triangle_counts`` first anyway.
    """
    ed = undirected_edges(edges_ds, src_col=src_col,
                          dst_col=dst_col).materialize()
    verts, degs = _vertex_arrays(ed)
    if len(degs) == 0:
        return ray.data.from_arrow(pa.table({
            "name": pa.array([], pa.string()),
            "degree": pa.array([], pa.int64()),
            "n_triangles": pa.array([], pa.int64()),
            "lcc_units": pa.array([], pa.int64()),
        }))

    tri = collect_arrow(
        triangle_counts(edges_ds, src_col=src_col, dst_col=dst_col))
    ntri = np.zeros(len(degs), dtype=np.int64)
    if tri.num_rows:
        ti = pc.index_in(tri["name"].combine_chunks(), value_set=verts) \
               .to_numpy(zero_copy_only=False)
        ntri[ti] = tri["n_triangles"].to_numpy(zero_copy_only=False)

    keep = degs >= 2
    d = degs[keep]
    t = ntri[keep]
    lcc = (2 * t * SCALE) // (d * (d - 1))
    return ray.data.from_arrow(pa.table({
        "name": pc.take(verts, pa.array(np.flatnonzero(keep), pa.int64())),
        "degree": pa.array(d, pa.int64()),
        "n_triangles": pa.array(t, pa.int64()),
        "lcc_units": pa.array(lcc, pa.int64()),
    }))


def label_propagation(edges_ds, *, rounds: int = 4,
                      src_col: str = "subj_name",
                      dst_col: str = "obj_name"):
    """Synchronous label-propagation community detection ->
    (name, community) after a FIXED ``rounds`` rounds.

    Each vertex starts labeled with its own name; every round it adopts
    the label most frequent among its neighbors' CURRENT labels, ties
    broken on the lexicographically smallest label.  Fixed synchronous
    rounds (no convergence test) keep the operator SQL-unrollable — the
    DuckDB oracle (driver query ``kg_lpa``) replays the identical
    count/argmax rounds, making this the community DETECTOR with an
    exact gate (Louvain's greedy sweep has none; reference analog
    /root/reference/indexing/community_detection.py).  Labels are dense
    vertex RANKS of the sorted name array, so min-rank tie-breaks equal
    min-name tie-breaks.

    Scale shape (per round): the edge list streams once — each batch
    folds (dst, neighbor_label) into batch-distinct count rows via one
    ``np.unique`` on a packed int64 key (RANGE ASSUMPTION: |V|^2 fits
    int64, i.e. |V| < ~3e9); a narrow ``groupby(v, lab).sum`` merges,
    and a ``groupby(v).map_groups`` argmax picks each vertex's new
    label.  The O(|V|) label array broadcasts once per round via
    ``ray.put`` — the same vertex-set-fits-heap assumption as
    :func:`pagerank`.  The corpus-sized edge list never leaves the
    stream.
    """
    from ray.data.aggregate import Sum

    ed = undirected_edges(edges_ds, src_col=src_col,
                          dst_col=dst_col).materialize()
    verts, _ = _vertex_arrays(ed)
    n = len(verts)
    if n == 0:
        return ray.data.from_arrow(pa.table({
            "name": pa.array([], pa.string()),
            "community": pa.array([], pa.string()),
        }))
    vref = ray.put(verts)
    labels = np.arange(n, dtype=np.int64)

    def pick(group: pa.Table) -> pa.Table:
        c = group["sum(c)"].to_numpy(zero_copy_only=False)
        lab = group["lab"].to_numpy(zero_copy_only=False)
        best = np.lexsort((lab, -c))[0]
        return pa.table({
            "v": pa.array([group["v"][0].as_py()], pa.int64()),
            "lab": pa.array([int(lab[best])], pa.int64()),
        })

    for _ in range(rounds):
        lref = ray.put(labels)

        def partial(batch: pa.Table, _lref=lref, _vref=vref) -> pa.Table:
            vs = ray.get(_vref)
            lb = ray.get(_lref)
            si = pc.index_in(batch["src"].combine_chunks(), value_set=vs) \
                   .to_numpy(zero_copy_only=False).astype(np.int64)
            di = pc.index_in(batch["dst"].combine_chunks(), value_set=vs) \
                   .to_numpy(zero_copy_only=False).astype(np.int64)
            key = di * len(vs) + lb[si]
            uniq, cnt = np.unique(key, return_counts=True)
            return pa.table({
                "v": pa.array(uniq // len(vs), pa.int64()),
                "lab": pa.array(uniq % len(vs), pa.int64()),
                "c": pa.array(cnt, pa.int64()),
            })

        new = collect_arrow(
            ed.map_batches(partial, batch_format="pyarrow")
            .groupby(["v", "lab"]).aggregate(Sum("c"))
            .groupby("v").map_groups(pick, batch_format="pyarrow"))
        labels = labels.copy()
        labels[new["v"].to_numpy(zero_copy_only=False)] = \
            new["lab"].to_numpy(zero_copy_only=False)

    idx = pa.array(labels, pa.int64())
    return ray.data.from_arrow(pa.table({
        "name": verts,
        "community": pc.take(verts, idx),
    }))


def partition_modularity(edges_ds, membership_ds, *,
                         src_col: str = "subj_name",
                         dst_col: str = "obj_name",
                         name_col: str = "name",
                         community_col: str = "community"):
    """Newman modularity of a vertex partition, in EXACT integer form ->
    one row (n_communities, n_edges, q_num, q_den).

    Q = sum_c [ e_c/m - (d_c/(2m))^2 ] where e_c is the number of
    intra-community edges, d_c the summed degree of community c and m
    the undirected edge count — the quality score for any community
    assignment (reference analog: scoring
    /root/reference/indexing/community_detection.py output; here it
    grades Louvain/WCC/heuristic partitions alike).  Multiplying by
    4m^2 keeps it exact: q_num = sum_c (4*m*e_c - d_c^2), q_den =
    4*m^2 — integer arithmetic end to end, so the distributed fold
    hash-matches the SQL oracle bit for bit (a float Q could not).

    Scale shape: the distinct-pair edge table streams once through
    ``map_batches``; each batch folds per-community partials ((community,
    e_c, d_c) — rows bounded by batch-distinct communities), a narrow
    ``groupby(community).sum`` merges them, and the per-community table
    (O(#communities), KG-small) is collected driver-side for the final
    one-row reduction.  The membership table is O(|V|) and broadcasts
    once via ``ray.put`` — the same vertex-set-fits-in-heap assumption
    as :func:`pagerank`; a >heap membership would co-shuffle the edge
    endpoints against it instead.  RANGE ASSUMPTION: 4*m^2 must fit
    int64 (m < ~1.5e9 edges); beyond that emit q_num/q_den as decimal
    strings.

    Every edge endpoint must appear in ``membership_ds`` — a missing
    vertex raises KeyError loudly rather than skewing Q.
    """
    from ray.data.aggregate import Sum

    memb = collect_arrow(membership_ds)
    name_order = pc.sort_indices(memb[name_col].combine_chunks())
    names = pc.take(memb[name_col].combine_chunks(), name_order)
    comm_str = pc.take(memb[community_col].combine_chunks(),
                       name_order).cast(pa.string())
    # dense community codes so the streamed fold is pure integer numpy
    comms_uniq = pc.unique(comm_str)
    comms_sorted = pc.take(comms_uniq, pc.sort_indices(comms_uniq))
    codes = pc.index_in(comm_str, value_set=comms_sorted) \
              .to_numpy(zero_copy_only=False).astype(np.int64)
    mref = ray.put((names, codes, comms_sorted))

    def partial(batch: pa.Table, _mref=mref) -> pa.Table:
        nm, cd, cs_names = ray.get(_mref)
        si = pc.index_in(batch[src_col].combine_chunks().cast(pa.string()),
                         value_set=nm).to_numpy(zero_copy_only=False)
        di = pc.index_in(batch[dst_col].combine_chunks().cast(pa.string()),
                         value_set=nm).to_numpy(zero_copy_only=False)
        if np.isnan(si.astype(np.float64)).any() \
                or np.isnan(di.astype(np.float64)).any():
            raise KeyError("partition_modularity: edge endpoint missing "
                           "from membership_ds")
        cs = cd[si.astype(np.int64)]
        ct = cd[di.astype(np.int64)]
        d_acc = np.zeros(len(cs_names), dtype=np.int64)
        np.add.at(d_acc, cs, 1)
        np.add.at(d_acc, ct, 1)
        e_acc = np.zeros(len(cs_names), dtype=np.int64)
        intra = cs[cs == ct]
        np.add.at(e_acc, intra, 1)
        nz = np.flatnonzero(d_acc)
        return pa.table({
            "community": pc.take(cs_names, pa.array(nz, pa.int64())),
            "e_c": pa.array(e_acc[nz], pa.int64()),
            "d_c": pa.array(d_acc[nz], pa.int64()),
        })

    per_comm = collect_arrow(
        edges_ds.map_batches(partial, batch_format="pyarrow")
        .groupby("community").aggregate(Sum("e_c"), Sum("d_c")))
    if per_comm.num_rows == 0:
        # empty edge set -> empty report, matching the SQL oracle's
        # zero-row aggregate and the sibling graph ops' empty outputs
        return ray.data.from_arrow(pa.table({
            "n_communities": pa.array([], pa.int64()),
            "n_edges": pa.array([], pa.int64()),
            "q_num": pa.array([], pa.int64()),
            "q_den": pa.array([], pa.int64()),
        }))
    e_arr = per_comm["sum(e_c)"].to_numpy(zero_copy_only=False)
    d_arr = per_comm["sum(d_c)"].to_numpy(zero_copy_only=False)
    m = int(d_arr.sum()) // 2  # every edge adds 2 to the degree total
    q_num = sum(4 * m * int(e) - int(d) * int(d)
                for e, d in zip(e_arr, d_arr))
    return ray.data.from_arrow(pa.table({
        "n_communities": pa.array([per_comm.num_rows], pa.int64()),
        "n_edges": pa.array([m], pa.int64()),
        "q_num": pa.array([q_num], pa.int64()),
        "q_den": pa.array([4 * m * m], pa.int64()),
    }))


def weakly_connected_components(edges_ds, *, src_col: str = "subj_name",
                                dst_col: str = "obj_name",
                                max_iters: int = 50):
    """(name, component) per vertex, component = lexicographically
    smallest vertex name in the weakly connected component.

    ``max_iters`` bounds the one-hop min-label propagation rounds, one
    sort each over (node, label) and edge-endpoint rows; the
    convergence test is exact (label-sum fixpoint), so extra budget
    costs nothing once converged.  A component of diameter d settles in
    at most d rounds and is seen unchanged in the next, so the default
    converges for every diameter below 50, far beyond canonicalized term
    graphs (KG graphs are hub-dense, diameter single digits).  A
    path-like graph past the bound raises loudly rather than returning
    wrong labels; raise ``max_iters`` for those.

    Vertices are ranked into dense int64 ids by SORTED name (one O(|V|)
    broadcast, same vertex-set assumption as ``pagerank``), so the
    existing distributed min-label propagation
    (kgx/ops/components.py:connected_components — one sort per round,
    moving only (node, label) and edge-endpoint rows, converging in
    diameter-bounded rounds with an exact sum-fixpoint test) applies
    unchanged: the minimum RANK is the minimum NAME.  The edge stream
    itself is never collected.
    """
    from kgx.functions.collect import collect_arrow
    from kgx.ops.components import connected_components

    ed = undirected_edges(edges_ds, src_col=src_col,
                          dst_col=dst_col).materialize()
    verts, _ = _vertex_arrays(ed)
    n = len(verts)
    if n == 0:
        return ray.data.from_arrow(pa.table({
            "name": pa.array([], pa.string()),
            "component": pa.array([], pa.string()),
        }))
    vref = ray.put(verts)

    def to_id_pairs(batch: pa.Table, _vref=vref) -> pa.Table:
        vs = ray.get(_vref)
        si = pc.index_in(batch["src"].combine_chunks(), value_set=vs)
        di = pc.index_in(batch["dst"].combine_chunks(), value_set=vs)
        return pa.table({"doc_a": si.cast(pa.int64()),
                         "doc_b": di.cast(pa.int64())})

    # ed already holds each undirected edge in both directions; keeping
    # src < dst passes each edge to the propagation exactly once.
    pairs = ed.map_batches(
        lambda t: t.filter(pc.less(t["src"], t["dst"])),
        batch_format="pyarrow").map_batches(to_id_pairs,
                                            batch_format="pyarrow")
    nodes = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64), pa.int64())}))
    comp = connected_components(nodes, pairs, max_iters=max_iters)

    def back_to_names(batch: pa.Table, _vref=vref) -> pa.Table:
        vs = ray.get(_vref)
        ids = pa.array(batch["doc_id"].to_numpy(zero_copy_only=False),
                       pa.int64())
        labels = pa.array(batch["component_id"]
                          .to_numpy(zero_copy_only=False), pa.int64())
        return pa.table({"name": pc.take(vs, ids),
                         "component": pc.take(vs, labels)})

    return comp.map_batches(back_to_names, batch_format="pyarrow")


def kcore_vertices(edges_ds, *, k: int = 2, rounds: int = 8,
                   src_col: str = "subj_name", dst_col: str = "obj_name"):
    """Fixed-round k-core peeling: after each round only vertices with
    degree >= k in the current subgraph survive, and edges keep only
    surviving endpoints.  Returns the survivors after ``rounds`` rounds
    as (name, degree-in-subgraph).

    Fixing the round count (instead of iterating to convergence) makes
    the semantics engine-independent — the DuckDB oracle unrolls the
    same rounds; extra rounds past the fixpoint are no-ops on both
    sides.  Scale shape: each round is one streamed degree count over
    the surviving edge list plus an O(|surviving V|) broadcast of the
    survivor set; the edge stream is filtered map-side and re-
    materialized per round (strictly shrinking).
    """
    ed = undirected_edges(edges_ds, src_col=src_col,
                          dst_col=dst_col).materialize()
    verts, degs = _vertex_arrays(ed)
    if len(verts) == 0:
        return ray.data.from_arrow(pa.table({
            "name": pa.array([], pa.string()),
            "degree": pa.array([], pa.int64()),
        }))
    for _ in range(rounds):
        keep = degs >= k
        if keep.all():
            break                      # fixpoint: further rounds are no-ops
        survivors = pc.take(verts, pa.array(np.flatnonzero(keep),
                                            pa.int64()))
        sref = ray.put(survivors)

        def keep_edges(batch: pa.Table, _sref=sref) -> pa.Table:
            sv = ray.get(_sref)
            m = pc.and_(pc.is_in(batch["src"], value_set=sv),
                        pc.is_in(batch["dst"], value_set=sv))
            return batch.filter(m)

        ed = ed.map_batches(keep_edges, batch_format="pyarrow") \
               .materialize()
        verts, degs = _vertex_arrays(ed)
        if len(verts) == 0:
            break
    keep = degs >= k
    idx = pa.array(np.flatnonzero(keep), pa.int64())
    return ray.data.from_arrow(pa.table({
        "name": pc.take(verts, idx),
        "degree": pa.array(degs[keep], pa.int64()),
    }))


def neighbor_jaccard_pairs(edges_ds, *, src_col: str = "subj_name",
                           dst_col: str = "obj_name",
                           min_units: int = SCALE // 5):
    """Entity-pair similarity by OPEN-neighborhood Jaccard — the
    entity-linking candidate generator: two canonical entities whose
    neighbor sets overlap heavily are merge/alias candidates even when
    their surface forms share nothing.

    ``|N(a) & N(b)|`` comes from the same streamed wedge-join as
    ``triangle_counts`` (common neighbors of (a,b) == wedges a-c-b;
    groupby(center) emits neighbor pairs vectorized, ONE pair-keyed
    groupby with map-side partial counts reduces them); degrees join
    in O(|V|) on the driver (module-docstring vertex assumption).
    Jaccard is integer fixed-point — ``jac_units = (common * SCALE) //
    (deg(a) + deg(b) - common)`` — so the distributed result is
    bit-identical to the SQL oracle.  Output: (name_a < name_b, common,
    jac_units) for pairs with >= 1 common neighbor and jac_units >=
    ``min_units``.  Hub caveat as on ``triangle_counts``: wedges per
    center are C(deg, 2).
    """
    from ray.data.aggregate import Sum

    und = undirected_edges(edges_ds, src_col=src_col,
                           dst_col=dst_col).materialize()
    verts, degs = _vertex_arrays(und)
    if len(verts) == 0:
        return ray.data.from_arrow(pa.table({
            "name_a": pa.array([], pa.string()),
            "name_b": pa.array([], pa.string()),
            "common": pa.array([], pa.int64()),
            "jac_units": pa.array([], pa.int64()),
        }))

    def wedge_pairs(group: pa.Table) -> pa.Table:
        nbrs = pc.unique(group["dst"].combine_chunks())
        nbrs = pc.take(nbrs, pc.sort_indices(nbrs))
        m = len(nbrs)
        if m < 2:
            return pa.table({"name_a": pa.array([], pa.string()),
                             "name_b": pa.array([], pa.string()),
                             "one": pa.array([], pa.int64())})
        ai, bi = np.triu_indices(m, k=1)
        return pa.table({
            "name_a": pc.take(nbrs, pa.array(ai, pa.int64())),
            "name_b": pc.take(nbrs, pa.array(bi, pa.int64())),
            "one": pa.array(np.ones(len(ai), dtype=np.int64)),
        })

    def partial(batch: pa.Table) -> pa.Table:
        return batch.group_by(["name_a", "name_b"]).aggregate(
            [("one", "sum")])

    common = (und.groupby("src")
                 .map_groups(wedge_pairs, batch_format="pyarrow")
                 .map_batches(partial, batch_format="pyarrow")
                 .groupby(["name_a", "name_b"]).aggregate(Sum("one_sum")))

    dref = ray.put((verts, degs))

    def jaccard(batch: pa.Table, _dref=dref) -> pa.Table:
        vs, dg = ray.get(_dref)
        a = batch["name_a"].combine_chunks().cast(pa.string())
        b = batch["name_b"].combine_chunks().cast(pa.string())
        c = batch["sum(one_sum)"].combine_chunks().cast(pa.int64()) \
                 .to_numpy(zero_copy_only=False)
        da = dg[pc.index_in(a, value_set=vs).to_numpy(zero_copy_only=False)]
        db = dg[pc.index_in(b, value_set=vs).to_numpy(zero_copy_only=False)]
        units = (c * SCALE) // (da + db - c)
        keep = units >= min_units
        idx = pa.array(np.flatnonzero(keep), pa.int64())
        return pa.table({
            "name_a": pc.take(a, idx),
            "name_b": pc.take(b, idx),
            "common": pa.array(c[keep], pa.int64()),
            "jac_units": pa.array(units[keep], pa.int64()),
        })

    return common.map_batches(jaccard, batch_format="pyarrow")


def khop_neighborhood(edges_ds, *, seed: str | None = None, hops: int = 2,
                      src_col: str = "subj_name",
                      dst_col: str = "obj_name"):
    """(name, hop) for every vertex within ``hops`` undirected hops of
    ``seed`` (hop = BFS distance, seed itself at hop 0) — the subgraph
    retrieval primitive behind "expand the query entity's neighborhood"
    GraphRAG lookups.  ``seed=None`` picks the lexicographically
    smallest vertex (deterministic, corpus-independent).

    Scale shape: per hop, the CURRENT FRONTIER (bounded by the
    neighborhood, not the graph) broadcasts via ``ray.put`` and one
    streamed map-side ``is_in`` filter + distinct-endpoint groupby finds
    the next frontier; the edge list is never collected.  PARTITIONING
    ASSUMPTION: the visited set fits the driver (same O(|neighborhood|)
    bound any BFS answer has).
    """
    from kgx.functions.collect import collect_arrow

    ed = undirected_edges(edges_ds, src_col=src_col,
                          dst_col=dst_col).materialize()
    if seed is None:
        verts, _ = _vertex_arrays(ed)
        if len(verts) == 0:
            return ray.data.from_arrow(pa.table({
                "name": pa.array([], pa.string()),
                "hop": pa.array([], pa.int64()),
            }))
        seed = verts[0].as_py()

    dist: dict[str, int] = {seed: 0}
    frontier = [seed]
    for h in range(1, hops + 1):
        fref = ray.put(pa.array(sorted(frontier), pa.string()))

        def next_hop(batch: pa.Table, _fref=fref) -> pa.Table:
            fs = ray.get(_fref)
            hit = batch.filter(pc.is_in(batch["src"], value_set=fs))
            nbrs = pc.unique(hit["dst"].combine_chunks())
            return pa.table({"name": nbrs})

        # in-batch distinct above, global distinct below — the shuffle
        # carries at most one row per (block, neighbor)
        nxt = collect_arrow(
            ed.map_batches(next_hop, batch_format="pyarrow")
              .groupby("name").count())
        frontier = [n for n in nxt["name"].to_pylist() if n not in dist]
        for n in frontier:
            dist[n] = h
        if not frontier:
            break

    names = sorted(dist)
    return ray.data.from_arrow(pa.table({
        "name": pa.array(names, pa.string()),
        "hop": pa.array([dist[n] for n in names], pa.int64()),
    }))


def degree_assortativity(edges_ds, *, src_col: str = "subj_name",
                         dst_col: str = "obj_name"):
    """Degree assortativity of the undirected graph: the Pearson
    correlation between the endpoint degrees of every DIRECTED edge row
    (each undirected edge contributes both orientations — Newman 2002's
    standard estimator), from EXACT integer moment sums in ppm (the
    events_corr recipe: int64 Σx, Σy, Σxy, Σx², Σy² fold order-free,
    then ONE deterministic double expression).

    Scale shape: one narrow groupby-count builds the degree table
    (O(|V|), broadcast once via ray.put — same bound every op in this
    module documents); directed rows then fold map-side to a single
    6-int partial per block, and the final reduce sees one row per
    block.  Output: one row (n_directed, corr_ppm).
    """
    ed = undirected_edges(edges_ds, src_col=src_col, dst_col=dst_col)
    verts, degs = _vertex_arrays(ed)
    dref = ray.put((verts, degs))

    def partial(batch: pa.Table, _d=dref) -> pa.Table:
        verts_a, degs_a = ray.get(_d)
        si = pc.index_in(batch["src"].combine_chunks(),
                         value_set=verts_a) \
               .to_numpy(zero_copy_only=False).astype(np.int64)
        ti = pc.index_in(batch["dst"].combine_chunks(),
                         value_set=verts_a) \
               .to_numpy(zero_copy_only=False).astype(np.int64)
        x, y = degs_a[si], degs_a[ti]
        return pa.table({
            "n": pa.array([len(x)], pa.int64()),
            "sx": pa.array([int(x.sum())], pa.int64()),
            "sy": pa.array([int(y.sum())], pa.int64()),
            "sxy": pa.array([int((x * y).sum())], pa.int64()),
            "sx2": pa.array([int((x * x).sum())], pa.int64()),
            "sy2": pa.array([int((y * y).sum())], pa.int64()),
        })

    def finish(batch: pa.Table) -> pa.Table:
        n = sum(batch["n"].to_pylist())
        sx = sum(batch["sx"].to_pylist())
        sy = sum(batch["sy"].to_pylist())
        sxy = sum(batch["sxy"].to_pylist())
        sx2 = sum(batch["sx2"].to_pylist())
        sy2 = sum(batch["sy2"].to_pylist())
        num = n * sxy - sx * sy
        d1 = n * sx2 - sx * sx
        d2 = n * sy2 - sy * sy
        if d1 > 0 and d2 > 0:
            corr = int(np.floor(float(num) * 1e6
                                / np.sqrt(float(d1) * float(d2))))
        else:
            corr = 0
        return pa.table({
            "n_directed": pa.array([n], pa.int64()),
            "corr_ppm": pa.array([corr], pa.int64()),
        })

    return (ed.map_batches(partial, batch_format="pyarrow")
            .repartition(1)
            .map_batches(finish, batch_format="pyarrow",
                         batch_size=None))
