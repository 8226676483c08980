"""Relational operator demonstrations over the TPC-H-ish testdata tables.

These exercise the engine's general data-processing surface — pruning
reads, vectorized filters, keyed aggregates, broadcast hash joins,
global sort + limit — with exact DuckDB oracles.  Every pass that brings
a key's rows together runs on kgx.functions.fold: a keyed sum, min or
max is ``aggregate_by`` (one Arrow ``group_by`` as the map-side partial
of each block and again as the fold of each whole sorted block, the
result materialized), and any other per-key pass is one
``map_sorted_blocks`` fold per sorted block.  Money sums use
integer cents via ``floor(x*100 + 0.5)`` (identical IEEE double ops on
both sides — numpy rounds half-to-even while DuckDB rounds half away from
zero, so ``round`` would diverge on exact .5 products) so distributed
summation is exact and order-independent; averages are exact integer
floor-divisions of those sums.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd
from kgx.sources.pages import read_table

from kgx.functions.collect import collect_arrow
from kgx.functions.fold import aggregate_by, key_runs, map_sorted_blocks


def _cents(col) -> pa.Array:
    """floor(x*100 + 0.5) as int64 — SQL: cast(floor(x*100 + 0.5) as bigint)."""
    return pc.cast(pc.floor(pc.add(pc.multiply(col, 100.0), 0.5)), pa.int64())


def pricing_summary(sf_dir: str, *, cutoff: str = "1998-09-01"):
    """TPC-H Q1-shaped aggregate over lineitem (filter -> partial groupby
    -> final merge).  Returns one row per (l_returnflag, l_linestatus)."""
    cutoff_ts = np.datetime64(cutoff).astype("datetime64[us]").astype("int64")

    def partial(batch: pa.Table) -> pa.Table:
        mask = pc.less_equal(pc.cast(batch["l_shipdate"], pa.int64()),
                             cutoff_ts)
        b = batch.filter(mask)
        ext_c = _cents(b["l_extendedprice"])
        disc_c = _cents(b["l_discount"])
        qty_c = _cents(b["l_quantity"])
        t = pa.table({
            "l_returnflag": b["l_returnflag"],
            "l_linestatus": b["l_linestatus"],
            "qty_c": qty_c,
            "ext_c": ext_c,
            "disc_c": disc_c,
        })
        return (t.group_by(["l_returnflag", "l_linestatus"])
                 .aggregate([("qty_c", "sum"), ("ext_c", "sum"),
                             ("disc_c", "sum"), ("qty_c", "count")]))

    ds = read_table(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_discount", "l_shipdate"])
    partial_ds = ds.map_batches(partial, batch_format="pyarrow")
    # The partial table is (distinct flag/status groups x blocks) rows —
    # bounded by ~6 groups at ANY corpus size, so the final merge is a
    # driver-side integer fold (the sketch/corr pattern), not a sort
    # shuffle: a Ray groupby here costs ~2 s of pure task overhead on
    # 384 KB-scale rows.  Exact-integer sums keep it order-independent.
    parts = collect_arrow(partial_ds)
    groups: dict[tuple[str, str], list[int]] = {}
    for rf, ls, q, e, d, n in zip(parts["l_returnflag"].to_pylist(),
                                  parts["l_linestatus"].to_pylist(),
                                  parts["qty_c_sum"].to_pylist(),
                                  parts["ext_c_sum"].to_pylist(),
                                  parts["disc_c_sum"].to_pylist(),
                                  parts["qty_c_count"].to_pylist()):
        acc = groups.setdefault((rf, ls), [0, 0, 0, 0])
        acc[0] += q
        acc[1] += e
        acc[2] += d
        acc[3] += n
    keys = sorted(groups)
    return rd.from_arrow(pa.table({
        "l_returnflag": pa.array([k[0] for k in keys], pa.string()),
        "l_linestatus": pa.array([k[1] for k in keys], pa.string()),
        "sum_qty_cents": pa.array([groups[k][0] for k in keys], pa.int64()),
        "sum_price_cents": pa.array([groups[k][1] for k in keys],
                                    pa.int64()),
        "sum_disc_cents": pa.array([groups[k][2] for k in keys],
                                   pa.int64()),
        "avg_qty_micro": pa.array(
            [(groups[k][0] * 10000) // groups[k][3] for k in keys],
            pa.int64()),
        "count_order": pa.array([groups[k][3] for k in keys], pa.int64()),
    }))


def top_customers(sf_dir: str, *, n: int = 10):
    """Revenue per customer: broadcast hash join (small customer table
    ``ray.put`` once) + keyed aggregate + global sort + limit.

    Returns the top-n (c_custkey, c_name, revenue_cents, n_orders) by
    (revenue desc, custkey asc).

    Merge shape: per-customer sums through ``aggregate_by`` (an Arrow
    partial per block, one sorted-block fold, materialized) -> one
    vectorized ``index_in``/``take`` name join + LOCAL top-n per output
    block (each block holds complete keys post-aggregate, so per-block
    top-n is lossless) -> single-block final sort over <= n x blocks
    candidate rows.  No per-group Python anywhere; the global Sort
    barrier over every customer is gone.
    """
    sort_keys = [("revenue_cents", "descending"), ("c_custkey", "ascending")]

    cust = read_table(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey", "c_name"])
    cust_tbl = collect_arrow(cust).combine_chunks()
    cref = ray.put(cust_tbl)

    def project(batch: pa.Table) -> pa.Table:
        return pa.table({
            "c_custkey": batch["o_custkey"].combine_chunks().cast(pa.int64()),
            "revenue_cents": _cents(batch["o_totalprice"]),
            "n_orders": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
        })

    def attach_topn(batch: pa.Table) -> pa.Table:
        # broadcast join: the customer table ships once per worker via
        # the object store; index_in/take are vectorized Arrow kernels
        ctab = ray.get(cref)
        idx = pc.index_in(batch["c_custkey"], value_set=ctab["c_custkey"]
                          .combine_chunks().cast(pa.int64()))
        out = pa.table({
            "c_custkey": batch["c_custkey"],
            "c_name": pc.take(ctab["c_name"].combine_chunks(), idx),
            "revenue_cents": batch["revenue_cents"],
            "n_orders": batch["n_orders"],
        })
        out = out.filter(pc.is_valid(idx))    # inner-join: drop unknowns
        order = pc.sort_indices(out, sort_keys=sort_keys)
        return out.take(order.slice(0, n))    # lossless local top-n

    def final_topn(batch: pa.Table) -> pa.Table:
        order = pc.sort_indices(batch, sort_keys=sort_keys)
        return batch.take(order.slice(0, n))

    orders = read_table(f"{sf_dir}/orders.parquet",
                             columns=["o_custkey", "o_totalprice"])
    agg = aggregate_by(orders.map_batches(project, batch_format="pyarrow"),
                       "c_custkey", {"revenue_cents": "sum",
                                     "n_orders": "sum"})
    return agg.map_batches(attach_topn, batch_format="pyarrow") \
        .repartition(1) \
        .map_batches(final_topn, batch_format="pyarrow", batch_size=None)


def distinct_pairs(sf_dir: str, table: str, cols: list[str]):
    """Distinct combinations of ``cols`` (an in-block distinct first, so
    duplicate rows never reach the sort)."""
    return aggregate_by(read_table(f"{sf_dir}/{table}.parquet", columns=cols),
                        cols, {})


def order_priority_counts(sf_dir: str):
    """Orders per (o_orderstatus, o_orderpriority)."""
    ds = read_table(f"{sf_dir}/orders.parquet",
                         columns=["o_orderstatus", "o_orderpriority"])
    ones = ds.map_batches(
        lambda b: b.append_column(
            "n_orders", pa.array(np.ones(b.num_rows, dtype=np.int64))),
        batch_format="pyarrow")
    return aggregate_by(ones, ["o_orderstatus", "o_orderpriority"],
                        {"n_orders": "sum"})


_PRICING_KEYS = ["l_returnflag", "l_linestatus"]
_PRICING_SUMS = ["sum_qty_cents", "sum_price_cents", "n_rows"]


def _pricing_grouping_sets(sf_dir: str, sets: list[tuple]):
    """GROUP BY GROUPING SETS over lineitem on (l_returnflag,
    l_linestatus).

    The finest level, one row per (flag, status) (at most 6 at any
    corpus size), is one ``aggregate_by`` over the scan; every set then
    re-aggregates those rows in the calling process, as
    ``pricing_summary`` does.  SQL-convention NULLs mark the rolled-up
    key positions.  Output: (l_returnflag, l_linestatus, sum_qty_cents,
    sum_price_cents, n_rows) — money/quantity in integer cents
    (order-independent sums)."""
    def project(batch: pa.Table) -> pa.Table:
        return pa.table({
            "l_returnflag": batch["l_returnflag"],
            "l_linestatus": batch["l_linestatus"],
            "sum_qty_cents": _cents(batch["l_quantity"]),
            "sum_price_cents": _cents(batch["l_extendedprice"]),
            "n_rows": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
        })

    fine = collect_arrow(aggregate_by(
        read_table(f"{sf_dir}/lineitem.parquet",
                   columns=_PRICING_KEYS + ["l_quantity", "l_extendedprice"])
        .map_batches(project, batch_format="pyarrow"),
        _PRICING_KEYS, dict.fromkeys(_PRICING_SUMS, "sum")))
    out = []
    for kept in sets:
        t = fine.group_by(list(kept), use_threads=False).aggregate(
            [(m, "sum") for m in _PRICING_SUMS])
        out.append(pa.table(
            [t[k] if k in kept
             else pa.nulls(t.num_rows, fine.schema.field(k).type)
             for k in _PRICING_KEYS]
            + [t[f"{m}_sum"] for m in _PRICING_SUMS],
            names=_PRICING_KEYS + _PRICING_SUMS))
    return rd.from_arrow(pa.concat_tables(out))


def pricing_rollup(sf_dir: str):
    """GROUP BY ROLLUP(l_returnflag, l_linestatus) over lineitem: the
    sets (rf, ls), (rf) and () of :func:`_pricing_grouping_sets`."""
    return _pricing_grouping_sets(
        sf_dir, [("l_returnflag", "l_linestatus"), ("l_returnflag",), ()])


ORDER_PRIORITIES = ("1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED",
                    "5-LOW")


def priority_pivot(sf_dir: str):
    """PIVOT orders to one row per status with a count column per
    priority (the known, fixed TPC-H domain — a pivot over an unknown
    domain needs a distinct-pass first).

    Shape: each row pivots map-side to five 0/1 columns, and one keyed
    sum per status merges them — equivalent to sum(CASE WHEN ...) in
    SQL.
    Output: (o_orderstatus, n_urgent, n_high, n_medium, n_not_specified,
    n_low).
    """
    col_names = ["n_" + p.split("-", 1)[1].lower().replace(" ", "_")
                 for p in ORDER_PRIORITIES]

    def pivot(batch: pa.Table) -> pa.Table:
        cols = {"o_orderstatus": batch["o_orderstatus"]}
        pr = batch["o_orderpriority"]
        for p, name in zip(ORDER_PRIORITIES, col_names):
            cols[name] = pc.cast(pc.equal(pr, p), pa.int64())
        return pa.table(cols)

    ds = read_table(f"{sf_dir}/orders.parquet",
                         columns=["o_orderstatus", "o_orderpriority"])
    return aggregate_by(ds.map_batches(pivot, batch_format="pyarrow"),
                        "o_orderstatus", dict.fromkeys(col_names, "sum"))


def customers_without_orders(sf_dir: str, *, min_totalprice: float = 0.0):
    """Broadcast anti-join: customers with no order pricier than
    ``min_totalprice`` (0.0 = no order at all).

    Scale shape: the DISTINCT key set of the BIG side (orders) is
    bounded by the customer count, so it is reduced by one keyed
    distinct (``aggregate_by``), collected once,
    broadcast via ``ray.put``, and the probe side filters map-side with
    a vectorized ``is_in`` — no wide shuffle ever carries order rows.
    The co-shuffle alternative for an unbounded key domain is
    ``kgx.ops.joins.hash_equijoin(how='left')`` + null filter.
    Output: (c_custkey, c_name).
    """
    orders = read_table(f"{sf_dir}/orders.parquet",
                             columns=["o_custkey", "o_totalprice"])

    def buyers(batch: pa.Table) -> pa.Table:
        keep = batch.filter(pc.greater(batch["o_totalprice"],
                                       min_totalprice))
        return pa.table({"k": keep["o_custkey"]})

    keys_tbl = collect_arrow(aggregate_by(
        orders.map_batches(buyers, batch_format="pyarrow"), "k", {}))
    have = keys_tbl["k"].combine_chunks() \
        if keys_tbl.num_rows else pa.array([], pa.int64())
    kref = ray.put(have)

    def anti(batch: pa.Table) -> pa.Table:
        ks = ray.get(kref)
        mask = pc.invert(pc.is_in(batch["c_custkey"].combine_chunks(),
                                  value_set=ks))
        return batch.filter(mask)

    cust = read_table(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey", "c_name"])
    return cust.map_batches(anti, batch_format="pyarrow")


def shipping_priority(sf_dir: str, *, segment: str = "BUILDING",
                      cutoff: str = "1998-06-01", n: int = 10):
    """TPC-H Q3-shaped three-way join: top-n undelivered orders of one
    market segment by post-cutoff lineitem revenue.

    Scale shape — each table joins at its natural size tier:
      * customer (small side) filters to the segment and broadcasts its
        key set once via ``ray.put``; orders semi-join map-side with a
        vectorized ``is_in`` — no customer row ever shuffles.
      * orders and lineitem rows meet in ONE keyed sum/max per order
        key (``aggregate_by``: an Arrow partial per block, so the sort
        carries one partial row per (orderkey, block), never raw
        lineitems), then filter + global sort + limit on the
        already-tiny result.

    Revenue is exact integer ten-thousandths:
    ``floor(l_extendedprice * (1.0 - l_discount) * 10000.0 + 0.5)`` —
    the identical IEEE-double expression the DuckDB oracle evaluates,
    summed as int64 so distributed order cannot flip a bit.
    Output: (o_orderkey, revenue_units, o_orderdate) by
    (revenue desc, orderkey asc), top n.
    """
    cutoff_ts = np.datetime64(cutoff).astype("datetime64[us]").astype("int64")

    cust = read_table(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey", "c_mktsegment"])

    def seg_keys(batch: pa.Table) -> pa.Table:
        keep = batch.filter(pc.equal(batch["c_mktsegment"], segment))
        return pa.table({"k": pc.unique(keep["c_custkey"].combine_chunks()
                                        .cast(pa.int64()))})

    seg_tbl = collect_arrow(cust.map_batches(seg_keys,
                                             batch_format="pyarrow"))
    seg_set = (pc.unique(seg_tbl["k"].combine_chunks())
               if seg_tbl.num_rows else pa.array([], pa.int64()))
    sref = ray.put(seg_set)

    def orders_tag(batch: pa.Table) -> pa.Table:
        dt = pc.cast(batch["o_orderdate"], pa.int64())
        mask = pc.and_(pc.less(dt, cutoff_ts),
                       pc.is_in(batch["o_custkey"].combine_chunks()
                                .cast(pa.int64()), value_set=ray.get(sref)))
        b = batch.filter(mask)
        nrow = b.num_rows
        return pa.table({
            "o_orderkey": b["o_orderkey"],
            "rev_units": pa.nulls(nrow, pa.int64()),
            "n_items": pa.nulls(nrow, pa.int64()),
            "date_us": pc.cast(b["o_orderdate"], pa.int64()),
            "is_order": pa.array(np.ones(nrow, dtype=np.int64)),
        })

    def lineitem_tag(batch: pa.Table) -> pa.Table:
        mask = pc.greater(pc.cast(batch["l_shipdate"], pa.int64()),
                          cutoff_ts)
        b = batch.filter(mask)
        ext = b["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = b["l_discount"].to_numpy(zero_copy_only=False)
        rev = np.floor(ext * (1.0 - disc) * 10000.0 + 0.5).astype(np.int64)
        nrow = b.num_rows
        return pa.table({
            "o_orderkey": b["l_orderkey"],
            "rev_units": pa.array(rev),
            "n_items": pa.array(np.ones(nrow, dtype=np.int64)),
            "date_us": pa.nulls(nrow, pa.int64()),
            "is_order": pa.array(np.zeros(nrow, dtype=np.int64)),
        })

    orders = read_table(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"]
    ).map_batches(orders_tag, batch_format="pyarrow")
    items = read_table(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount",
                 "l_shipdate"]
    ).map_batches(lineitem_tag, batch_format="pyarrow")

    agg = aggregate_by(orders.union(items), "o_orderkey", {
        "rev_units": "sum", "n_items": "sum", "date_us": "max",
        "is_order": "sum"})

    def finish(batch: pa.Table) -> pa.Table:
        mask = pc.and_(pc.and_(pc.is_valid(batch["rev_units"]),
                               pc.is_valid(batch["n_items"])),
                       pc.greater(pc.fill_null(batch["is_order"], 0), 0))
        b = batch.filter(mask)
        return pa.table({
            "o_orderkey": b["o_orderkey"].combine_chunks().cast(pa.int64()),
            "revenue_units": b["rev_units"],
            "o_orderdate": pc.cast(b["date_us"], pa.timestamp("us")),
        })

    return (agg.map_batches(finish, batch_format="pyarrow")
               .sort(["revenue_units", "o_orderkey"],
                     descending=[True, False])
               .limit(n))


def forecast_revenue(sf_dir: str, *, date_lo: str = "1996-01-01",
                     date_hi: str = "1997-01-01",
                     disc_lo_c: int = 5, disc_hi_c: int = 7,
                     max_qty: float = 24.0):
    """TPC-H Q6-shaped forecasting filter-aggregate: one streamed pass,
    map-side partial sums, single-row output — the cheapest possible
    query shape (pruned 4-column read, no shuffle at all beyond the
    kilobyte partial stream).  Revenue in exact integer cents x cents:
    sum(ext_c * disc_c) so the distributed fold is order-independent.
    Output: (revenue_units, n_items)."""
    lo = np.datetime64(date_lo).astype("datetime64[us]").astype("int64")
    hi = np.datetime64(date_hi).astype("datetime64[us]").astype("int64")

    def partial(batch: pa.Table) -> pa.Table:
        ship = pc.cast(batch["l_shipdate"], pa.int64())
        disc_c = _cents(batch["l_discount"])
        mask = pc.and_(
            pc.and_(pc.greater_equal(ship, lo), pc.less(ship, hi)),
            pc.and_(
                pc.and_(pc.greater_equal(disc_c, disc_lo_c),
                        pc.less_equal(disc_c, disc_hi_c)),
                pc.less(batch["l_quantity"], max_qty)))
        b = batch.filter(mask)
        rev = pc.multiply(_cents(b["l_extendedprice"]).cast(pa.int64()),
                          _cents(b["l_discount"]).cast(pa.int64()))
        return pa.table({
            "rev": pa.array([pc.sum(rev).as_py() or 0], pa.int64()),
            "n": pa.array([b.num_rows], pa.int64()),
        })

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table({
            "revenue_units": pa.array(
                [pc.sum(batch["rev"]).as_py() or 0], pa.int64()),
            "n_items": pa.array(
                [pc.sum(batch["n"]).as_py() or 0], pa.int64()),
        })

    li = read_table(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_shipdate", "l_discount", "l_quantity",
                 "l_extendedprice"])
    return li.map_batches(partial, batch_format="pyarrow") \
             .repartition(1).map_batches(finish, batch_format="pyarrow")


def big_orders(sf_dir: str, *, min_qty_c: int = 25000, n: int = 100):
    """TPC-H Q18-shaped large-volume-order report: orders whose total
    lineitem quantity exceeds a threshold, with customer names.

    Scale shape: lineitem sums per order through ``aggregate_by`` (the
    only corpus-sized sort carries the narrow (orderkey, qty_cents)
    partials), the HAVING filter shrinks the result to the rare big
    orders, and the orders + customer sides attach via BROADCAST lookup
    maps (both o_orderkey-keyed rows needed are exactly the surviving
    keys, but orders is itself large, so the broadcast goes the other
    way: the tiny surviving-orderkey set is broadcast and orders is
    semi-joined map-side, then customer names broadcast-join onto it).
    Output: top-n by (qty desc, orderkey asc).
    """
    li = read_table(f"{sf_dir}/lineitem.parquet",
                         columns=["l_orderkey", "l_quantity"])

    def project(batch: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": batch["l_orderkey"],
            "qty_cents": _cents(batch["l_quantity"]),
        })

    totals = aggregate_by(li.map_batches(project, batch_format="pyarrow"),
                          "o_orderkey", {"qty_cents": "sum"}) \
        .filter(expr=f"qty_cents > {min_qty_c}")

    # surviving keys are rare -> collect + broadcast the small side as
    # parallel arrays (vectorized is_in/index_in/take, no dict probes)
    surv = collect_arrow(totals)
    kref = ray.put((surv["o_orderkey"].combine_chunks().cast(pa.int64()),
                    surv["qty_cents"].combine_chunks().cast(pa.int64())))

    def attach_orders(batch: pa.Table, _kref=kref) -> pa.Table:
        keys, qtys = ray.get(_kref)
        m = pc.is_in(batch["o_orderkey"], value_set=keys)
        b = batch.filter(m)
        idx = pc.index_in(b["o_orderkey"].combine_chunks()
                          .cast(pa.int64()), value_set=keys)
        qty = pc.take(qtys, idx)
        return pa.table({
            "o_orderkey": b["o_orderkey"],
            "o_custkey": b["o_custkey"],
            "o_totalprice_cents": _cents(b["o_totalprice"]),
            "o_orderdate": pc.cast(b["o_orderdate"], pa.int64()),
            "qty_cents": qty,
        })

    orders = read_table(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_totalprice", "o_orderdate"])
    hits = orders.map_batches(attach_orders, batch_format="pyarrow")

    cust = collect_arrow(read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"]))
    nref = ray.put((cust["c_custkey"].combine_chunks().cast(pa.int64()),
                    cust["c_name"].combine_chunks()))

    def attach_names(batch: pa.Table, _nref=nref) -> pa.Table:
        ckeys, cnames = ray.get(_nref)
        idx = pc.index_in(batch["o_custkey"].combine_chunks()
                          .cast(pa.int64()), value_set=ckeys)
        return batch.append_column("c_name", pc.take(cnames, idx))

    return (hits.map_batches(attach_names, batch_format="pyarrow")
                .sort(["qty_cents", "o_orderkey"], descending=[True, False])
                .limit(n))


def regional_revenue(sf_dir: str, *, region: str = "ASIA",
                     date_lo: str = "1996-01-01",
                     date_hi: str = "1997-01-01"):
    """TPC-H Q5-shaped regional supplier revenue: per-nation revenue from
    lineitems where the supplier and the customer share a nation inside
    ``region``, for orders in the date window.

    Join plan for the 100 TB shape: the two FACT tables co-shuffle —
    orders (date-filtered, projected to (o_orderkey, o_custkey)) joins
    lineitem on the order key via the general hash equi-join — while
    every DIMENSION lookup (customer nation at 1 row/customer is the
    largest; supplier nation; nation->region) broadcasts once via
    ``ray.put`` and resolves map-side.  Revenue is exact integer units:
    sum(ext_cents * (100 - disc_cents)) — divide by 10^4 for currency.
    Output: (n_name, revenue_units) for nations with >= 1 qualifying
    lineitem.

    NOTE on the customer broadcast: TPC-H customer is 0.15M rows/SF —
    a (custkey -> nationkey) int64 pair map stays broadcastable far
    beyond any realistic SF (16 B/row = 1.6 GB at SF=1000); if it ever
    didn't, the same hash_equijoin handles it.
    """
    import pyarrow.parquet as _pq

    from kgx.ops.joins import hash_equijoin

    lo = np.datetime64(date_lo).astype("datetime64[us]").astype("int64")
    hi = np.datetime64(date_hi).astype("datetime64[us]").astype("int64")

    # dimension broadcasts (tiny): nation/region -> the nationkey set in
    # the region + nation names; supplier -> nationkey; customer -> nationkey
    nation = _pq.read_table(f"{sf_dir}/nation.parquet")
    reg = _pq.read_table(f"{sf_dir}/region.parquet")
    rkeys = {r["r_regionkey"] for r in reg.to_pylist()
             if r["r_name"] == region}
    nat_name = {r["n_nationkey"]: r["n_name"] for r in nation.to_pylist()
                if r["n_regionkey"] in rkeys}
    supp = _pq.read_table(f"{sf_dir}/supplier.parquet",
                          columns=["s_suppkey", "s_nationkey"])
    supp_nat = {k: v for k, v in zip(supp["s_suppkey"].to_pylist(),
                                     supp["s_nationkey"].to_pylist())
                if v in nat_name}
    cust = _pq.read_table(f"{sf_dir}/customer.parquet",
                          columns=["c_custkey", "c_nationkey"])
    cust_nat = {k: v for k, v in zip(cust["c_custkey"].to_pylist(),
                                     cust["c_nationkey"].to_pylist())
                if v in nat_name}
    # broadcast as parallel Arrow/numpy arrays so the map side stays
    # vectorized (index_in/take), never a per-row dict probe
    sk_arr = pa.array(sorted(supp_nat), pa.int64())
    sn_arr = np.asarray([supp_nat[k] for k in sorted(supp_nat)],
                        dtype=np.int64)
    ck_arr = pa.array(sorted(cust_nat), pa.int64())
    cn_arr = np.asarray([cust_nat[k] for k in sorted(cust_nat)],
                        dtype=np.int64)
    nk_sorted = sorted(nat_name)
    nk_arr = pa.array(nk_sorted, pa.int64())
    nname_arr = pa.array([nat_name[k] for k in nk_sorted], pa.string())
    dref = ray.put((sk_arr, sn_arr, ck_arr, cn_arr, nk_arr, nname_arr))

    # Both region-membership filters move map-side BEFORE the fact-fact
    # co-shuffle: orders keep only customers of the region's nations
    # (attaching cnat), lineitems keep only the region's suppliers
    # (attaching snat) — ~4/5 of each fact table drops before the
    # exchange; the residual same-nation test runs post-join.
    def orders_side(batch: pa.Table, _dref=dref) -> pa.Table:
        _, _, ck_a, cn_a, _, _ = ray.get(_dref)
        od = pc.cast(batch["o_orderdate"], pa.int64())
        m = pc.and_(pc.greater_equal(od, lo), pc.less(od, hi))
        b = batch.filter(m)
        ci = pc.index_in(b["o_custkey"].combine_chunks()
                         .cast(pa.int64()), value_set=ck_a) \
               .to_numpy(zero_copy_only=False).astype(np.float64)
        keep = ~np.isnan(ci)
        return pa.table({
            "o_orderkey": b["o_orderkey"].filter(pa.array(keep)),
            "cnat": pa.array(cn_a[ci[keep].astype(np.int64)], pa.int64()),
        })

    orders = read_table(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"]) \
        .map_batches(orders_side, batch_format="pyarrow")

    def line_side(batch: pa.Table, _dref=dref) -> pa.Table:
        sk_a, sn_a, _, _, _, _ = ray.get(_dref)
        si = pc.index_in(batch["l_suppkey"].combine_chunks()
                         .cast(pa.int64()), value_set=sk_a) \
               .to_numpy(zero_copy_only=False).astype(np.float64)
        keep = ~np.isnan(si)
        km = pa.array(keep)
        ext_c = _cents(batch["l_extendedprice"].filter(km)) \
            .to_numpy(zero_copy_only=False)
        disc_c = _cents(batch["l_discount"].filter(km)) \
            .to_numpy(zero_copy_only=False)
        return pa.table({
            "l_orderkey": batch["l_orderkey"].filter(km),
            "snat": pa.array(sn_a[si[keep].astype(np.int64)], pa.int64()),
            "rev_units": pa.array(ext_c * (100 - disc_c), pa.int64()),
        })

    line = read_table(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice",
                 "l_discount"]).map_batches(line_side,
                                            batch_format="pyarrow")

    # both fact sides are ~4/5 pre-filtered map-side above, so the
    # tagged blocks are tiny: coalesce before the bucket shuffle
    # (see hash_equijoin's coalesce doc for the B_in x B_out rationale)
    joined = hash_equijoin(orders, line, left_on="o_orderkey",
                           right_on="l_orderkey", coalesce="auto")

    def resolve_partial(batch: pa.Table, _dref=dref) -> pa.Table:
        _, _, _, _, nk_a, nm_a = ray.get(_dref)
        cnat = batch["cnat"].to_numpy(zero_copy_only=False)
        snat = batch["snat"].to_numpy(zero_copy_only=False)
        same = cnat == snat
        rev = batch["rev_units"].to_numpy(zero_copy_only=False)[same]
        ni = pc.index_in(pa.array(cnat[same], pa.int64()), value_set=nk_a)
        t = pa.table({"n_name": pc.take(nm_a, ni),
                      "rev": pa.array(rev, pa.int64())})
        agg = t.group_by(["n_name"]).aggregate([("rev", "sum")])
        return pa.table({"n_name": agg["n_name"],
                         "rev": agg["rev_sum"]})

    # Driver-side integer fold for the final merge: the partial table is
    # (region's nations x blocks) rows, bounded at any corpus size — a
    # Ray groupby here pays ~2 s of task overhead for nothing (same
    # pattern as pricing_summary / volume_shipping).
    parts = collect_arrow(
        joined.map_batches(resolve_partial, batch_format="pyarrow"))
    acc: dict[str, int] = {}
    for nname, r in zip(parts["n_name"].to_pylist(),
                        parts["rev"].to_pylist()):
        acc[nname] = acc.get(nname, 0) + r
    keys = sorted(acc)
    return rd.from_arrow(pa.table({
        "n_name": pa.array(keys, pa.string()),
        "revenue_units": pa.array([acc[k] for k in keys], pa.int64()),
    }))


def returned_revenue(sf_dir: str, *, date_lo: str = "1996-01-01",
                     date_hi: str = "1996-04-01", n: int = 20):
    """TPC-H Q10-shaped returned-item report: top-``n`` customers by
    revenue lost to returned lineitems (``l_returnflag = 'R'``) on
    orders placed in the date window.

    Join plan, same 100 TB shape as :func:`regional_revenue`: the two
    FACT tables co-shuffle on the order key (orders date-filtered and
    projected to (o_orderkey, o_custkey); lineitem return-filtered and
    reduced to (l_orderkey, rev_units)); per-customer revenue sums
    through one ``aggregate_by``; the customer name / nation
    dimensions broadcast once and resolve on the tiny
    top-``n`` output, never against the facts.  Revenue in exact
    integer units (ext_cents * (100 - disc_cents)); ties break on
    custkey asc.  Output: (c_custkey, c_name, n_name, revenue_units).
    """
    import pyarrow.parquet as _pq

    from kgx.ops.joins import hash_equijoin

    lo = np.datetime64(date_lo).astype("datetime64[us]").astype("int64")
    hi = np.datetime64(date_hi).astype("datetime64[us]").astype("int64")

    nation = _pq.read_table(f"{sf_dir}/nation.parquet",
                            columns=["n_nationkey", "n_name"])
    nat = {k: v for k, v in zip(nation["n_nationkey"].to_pylist(),
                                nation["n_name"].to_pylist())}
    cust = _pq.read_table(f"{sf_dir}/customer.parquet",
                          columns=["c_custkey", "c_name", "c_nationkey"])
    cref = ray.put((cust.combine_chunks(), nat))

    def orders_side(batch: pa.Table) -> pa.Table:
        od = pc.cast(batch["o_orderdate"], pa.int64())
        b = batch.filter(pc.and_(pc.greater_equal(od, lo),
                                 pc.less(od, hi)))
        return pa.table({"o_orderkey": b["o_orderkey"],
                         "o_custkey": b["o_custkey"]})

    orders = read_table(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"]) \
        .map_batches(orders_side, batch_format="pyarrow")

    def line_side(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.equal(batch["l_returnflag"], "R"))
        ext_c = _cents(b["l_extendedprice"]).to_numpy(zero_copy_only=False)
        disc_c = _cents(b["l_discount"]).to_numpy(zero_copy_only=False)
        return pa.table({
            "l_orderkey": b["l_orderkey"],
            "rev_units": pa.array(ext_c * (100 - disc_c), pa.int64()),
        })

    line = read_table(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_returnflag", "l_extendedprice",
                 "l_discount"]).map_batches(line_side,
                                            batch_format="pyarrow")

    joined = hash_equijoin(orders, line, left_on="o_orderkey",
                           right_on="l_orderkey")

    def project(batch: pa.Table) -> pa.Table:
        return pa.table({
            "c_custkey": batch["o_custkey"].combine_chunks()
                              .cast(pa.int64()),
            "revenue_units": batch["rev_units"]})

    def attach(batch: pa.Table, _cref=cref) -> pa.Table:
        # runs AFTER sort+limit, so the dimension lookup touches only
        # the top-n rows — matching the docstring's join plan
        ctab, nat_ = ray.get(_cref)
        keys = batch["c_custkey"].combine_chunks()
        idx = pc.index_in(keys, value_set=ctab["c_custkey"]
                          .combine_chunks().cast(pa.int64()))
        nk = pc.take(ctab["c_nationkey"].combine_chunks(), idx)
        return pa.table({
            "c_custkey": keys,
            "c_name": pc.take(ctab["c_name"].combine_chunks(), idx),
            "n_name": pa.array([nat_.get(k) for k in nk.to_pylist()],
                               pa.string()),
            "revenue_units": batch["revenue_units"],
        })

    return (aggregate_by(joined.map_batches(project, batch_format="pyarrow"),
                         "c_custkey", {"revenue_units": "sum"})
            .sort(["revenue_units", "c_custkey"],
                  descending=[True, False])
            .limit(n)
            .map_batches(attach, batch_format="pyarrow"))


def promo_revenue(sf_dir: str, *, date_lo: str = "1996-01-01",
                  date_hi: str = "1996-02-01"):
    """TPC-H Q14-shaped promotion-effect ratio: the share of revenue from
    PROMO-type parts in a shipping window.

    Scale shape: the part dimension broadcasts once as a (partkey ->
    is-promo) lookup (``ray.put``); lineitem streams through one
    filter + vectorized index_in pass emitting per-block partial sums;
    a single-task fold finishes.  Exact integer revenue units
    (ext_cents x (100 - disc_cents)); ratio in integer ppm.
    Output: one row (promo_units, total_units, promo_ratio_ppm)."""
    import pyarrow.parquet as _pq

    lo = np.datetime64(date_lo).astype("datetime64[us]").astype("int64")
    hi = np.datetime64(date_hi).astype("datetime64[us]").astype("int64")

    part = _pq.read_table(f"{sf_dir}/part.parquet",
                          columns=["p_partkey", "p_type"])
    keys = pa.array(part["p_partkey"].to_pylist(), pa.int64())
    promo = np.asarray(
        [t == "PROMO" for t in part["p_type"].to_pylist()], dtype=bool)
    pref = ray.put((keys, promo))

    def partial(batch: pa.Table, _pref=pref) -> pa.Table:
        ks, pr = ray.get(_pref)
        ship = pc.cast(batch["l_shipdate"], pa.int64())
        m = pc.and_(pc.greater_equal(ship, lo), pc.less(ship, hi))
        b = batch.filter(m)
        rev = (_cents(b["l_extendedprice"]).to_numpy(zero_copy_only=False)
               * (100 - _cents(b["l_discount"])
                  .to_numpy(zero_copy_only=False)))
        idx = pc.index_in(b["l_partkey"].combine_chunks().cast(pa.int64()),
                          value_set=ks).to_numpy(zero_copy_only=False) \
                .astype(np.float64)
        ok = ~np.isnan(idx)
        is_promo = np.zeros(len(rev), dtype=bool)
        is_promo[ok] = pr[idx[ok].astype(np.int64)]
        return pa.table({
            "promo": pa.array([int(rev[is_promo].sum())], pa.int64()),
            "total": pa.array([int(rev.sum())], pa.int64()),
        })

    def finish(batch: pa.Table) -> pa.Table:
        p = sum(batch["promo"].to_pylist())
        t = sum(batch["total"].to_pylist())
        return pa.table({
            "promo_units": pa.array([p], pa.int64()),
            "total_units": pa.array([t], pa.int64()),
            "promo_ratio_ppm": pa.array(
                [0 if t == 0 else (p * 1_000_000) // t], pa.int64()),
        })

    li = read_table(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_shipdate", "l_extendedprice",
                 "l_discount"])
    return li.map_batches(partial, batch_format="pyarrow") \
             .repartition(1).map_batches(finish, batch_format="pyarrow",
                                         batch_size=None)


def priority_exists(sf_dir: str, *, min_qty: float = 49.0):
    """TPC-H Q4-shaped EXISTS report: orders per priority having at
    least one big-quantity lineitem.

    Composition of existing narrow primitives: the qualifying order-key
    set comes from a filtered lineitem projection (one narrow column),
    the orders side semi-joins against it through the Bloom-prefiltered
    exact semi-join (``kgx.ops.joins.bloom_semijoin`` — probe rows that
    can't match die map-side; no wide shuffle carries payload), and one
    keyed sum counts per priority.
    Output: (o_orderpriority, n_orders).
    """
    from kgx.ops.joins import bloom_semijoin

    big = read_table(f"{sf_dir}/lineitem.parquet",
                          columns=["l_orderkey", "l_quantity"]) \
        .map_batches(
            lambda t: pa.table({
                "l_orderkey": t.filter(
                    pc.greater(t["l_quantity"], min_qty))["l_orderkey"]}),
            batch_format="pyarrow")

    orders = read_table(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_orderpriority"])
    hits = bloom_semijoin(orders, big, probe_on="o_orderkey",
                          build_on="l_orderkey")

    def ones(batch: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderpriority": batch["o_orderpriority"],
            "n_orders": pa.array(np.ones(batch.num_rows, dtype=np.int64))})

    return aggregate_by(hits.map_batches(ones, batch_format="pyarrow"),
                        "o_orderpriority", {"n_orders": "sum"})


def volume_shipping(sf_dir: str, *, nation_a: str = "NATION_11",
                    nation_b: str = "NATION_12",
                    date_lo: str = "1996-01-01",
                    date_hi: str = "1999-01-01"):
    """TPC-H Q7-shaped volume shipping: revenue shipped between two
    nations (both directions) per supplier-nation/customer-nation/year,
    for lineitems shipped inside the window.

    Join plan (the Q5/Q10 house shape): lineitem pre-filters map-side to
    suppliers of the two nations (broadcast suppkey->nation) and
    projects (l_orderkey, supp_nation, year(l_shipdate), rev_units);
    orders projects (o_orderkey, o_custkey); ONE fact-fact co-shuffle on
    the order key; the customer nation resolves map-side from a
    broadcast pair map, keeping only the two directed nation pairs;
    per-(snat, cnat, year) partials fold before one tiny groupby.
    Revenue in exact integer units.  Output: (supp_nation, cust_nation,
    l_year, revenue_units)."""
    import pyarrow.parquet as _pq

    from kgx.ops.joins import hash_equijoin

    lo = np.datetime64(date_lo).astype("datetime64[us]").astype("int64")
    hi = np.datetime64(date_hi).astype("datetime64[us]").astype("int64")

    nation = _pq.read_table(f"{sf_dir}/nation.parquet",
                            columns=["n_nationkey", "n_name"])
    nk = {r["n_name"]: r["n_nationkey"] for r in nation.to_pylist()}
    pair_keys = {nk[nation_a], nk[nation_b]}
    name_of = {nk[nation_a]: nation_a, nk[nation_b]: nation_b}
    supp = _pq.read_table(f"{sf_dir}/supplier.parquet",
                          columns=["s_suppkey", "s_nationkey"])
    s_map = {k: v for k, v in zip(supp["s_suppkey"].to_pylist(),
                                  supp["s_nationkey"].to_pylist())
             if v in pair_keys}
    cust = _pq.read_table(f"{sf_dir}/customer.parquet",
                          columns=["c_custkey", "c_nationkey"])
    c_map = {k: v for k, v in zip(cust["c_custkey"].to_pylist(),
                                  cust["c_nationkey"].to_pylist())
             if v in pair_keys}
    sk = pa.array(sorted(s_map), pa.int64())
    sn = np.asarray([s_map[k] for k in sorted(s_map)], dtype=np.int64)
    ck = pa.array(sorted(c_map), pa.int64())
    cn = np.asarray([c_map[k] for k in sorted(c_map)], dtype=np.int64)
    dref = ray.put((sk, sn, ck, cn, name_of))

    def line_side(batch: pa.Table, _d=dref) -> pa.Table:
        sk_a, sn_a, _, _, _ = ray.get(_d)
        sd = pc.cast(batch["l_shipdate"], pa.int64())
        b = batch.filter(pc.and_(pc.greater_equal(sd, lo),
                                 pc.less(sd, hi)))
        si = pc.index_in(b["l_suppkey"].combine_chunks().cast(pa.int64()),
                         value_set=sk_a) \
               .to_numpy(zero_copy_only=False).astype(np.float64)
        keep = ~np.isnan(si)
        b = b.filter(pa.array(keep))
        snat = sn_a[si[keep].astype(np.int64)]
        ext_c = _cents(b["l_extendedprice"]).to_numpy(zero_copy_only=False)
        disc_c = _cents(b["l_discount"]).to_numpy(zero_copy_only=False)
        year = pc.year(b["l_shipdate"].combine_chunks()) \
                 .to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "l_orderkey": b["l_orderkey"],
            "snat": pa.array(snat, pa.int64()),
            "l_year": pa.array(year, pa.int64()),
            "rev_units": pa.array(ext_c * (100 - disc_c), pa.int64()),
        })

    line = read_table(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_shipdate",
                 "l_extendedprice", "l_discount"]) \
        .map_batches(line_side, batch_format="pyarrow")

    # Orders pre-filters map-side to customers of the two nations
    # (broadcast custkey->nation) BEFORE the fact-fact co-shuffle, so
    # only ~2/N of the orders table (and the matching join output) is
    # exchanged — same rows survive, the cust filter just moves ahead
    # of the join instead of after it.
    def order_side(batch: pa.Table, _d=dref) -> pa.Table:
        _, _, ck_a, cn_a, _ = ray.get(_d)
        ci = pc.index_in(batch["o_custkey"].combine_chunks()
                         .cast(pa.int64()), value_set=ck_a) \
               .to_numpy(zero_copy_only=False).astype(np.float64)
        keep = ~np.isnan(ci)
        return pa.table({
            "o_orderkey": batch["o_orderkey"].filter(pa.array(keep)),
            "cnat": pa.array(cn_a[ci[keep].astype(np.int64)], pa.int64()),
        })

    orders = read_table(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey"]) \
        .map_batches(order_side, batch_format="pyarrow")

    # both fact sides are nation-filtered map-side above, so the tagged
    # blocks are tiny: coalesce before the bucket shuffle (see
    # hash_equijoin's coalesce doc for the B_in x B_out rationale)
    joined = hash_equijoin(orders, line, left_on="o_orderkey",
                           right_on="l_orderkey", coalesce="auto")

    def partial(batch: pa.Table) -> pa.Table:
        snat = batch["snat"].to_numpy(zero_copy_only=False)
        cnat = batch["cnat"].to_numpy(zero_copy_only=False)
        cross = snat != cnat          # the two directed pairs only
        t = pa.table({
            "snat": pa.array(snat[cross], pa.int64()),
            "cnat": pa.array(cnat[cross], pa.int64()),
            "l_year": pa.array(
                batch["l_year"].to_numpy(
                    zero_copy_only=False)[cross], pa.int64()),
            "rev": pa.array(
                batch["rev_units"].to_numpy(
                    zero_copy_only=False)[cross], pa.int64()),
        })
        agg = t.group_by(["snat", "cnat", "l_year"]).aggregate(
            [("rev", "sum")])
        return pa.table({"snat": agg["snat"], "cnat": agg["cnat"],
                         "l_year": agg["l_year"], "rev": agg["rev_sum"]})

    # Final merge is a driver-side integer fold: the partial table is
    # (2 directed pairs x years x blocks) rows — bounded at any corpus
    # size — and a Ray groupby on it costs ~2 s of pure task overhead
    # (same reasoning as pricing_summary above).
    parts = collect_arrow(
        joined.map_batches(partial, batch_format="pyarrow"))
    acc: dict[tuple[int, int, int], int] = {}
    for s, c, y, r in zip(parts["snat"].to_pylist(),
                          parts["cnat"].to_pylist(),
                          parts["l_year"].to_pylist(),
                          parts["rev"].to_pylist()):
        acc[(s, c, y)] = acc.get((s, c, y), 0) + r
    keys = sorted(acc)
    return rd.from_arrow(pa.table({
        "supp_nation": pa.array([name_of[k[0]] for k in keys],
                                pa.string()),
        "cust_nation": pa.array([name_of[k[1]] for k in keys],
                                pa.string()),
        "l_year": pa.array([k[2] for k in keys], pa.int64()),
        "revenue_units": pa.array([acc[k] for k in keys], pa.int64()),
    }))


def market_share(sf_dir: str, *, region: str = "ASIA",
                 nation: str = "NATION_7", p_type: str = "ECONOMY",
                 date_lo: str = "1996-01-01",
                 date_hi: str = "1998-01-01"):
    """TPC-H Q8-shaped market share: ``nation``'s share of revenue from
    ``p_type`` parts sold into ``region`` per order year, in integer ppm.

    Join plan: lineitem pre-filters map-side to the part-type key set
    and tags each row with is-
    ``nation`` supplier (two broadcast lookups), projecting
    (l_orderkey, rev_units, nat_units); orders date-filters and keeps
    only customers in ``region`` (broadcast custkey->in-region),
    projecting (o_orderkey, o_year); ONE fact-fact co-shuffle on the
    order key; one keyed sum per year of (nation_units, total_units).
    Output: (o_year, nation_units, total_units,
    mkt_share_ppm = nation*10^6 // total)."""
    import pyarrow.parquet as _pq

    from kgx.ops.joins import hash_equijoin

    lo = np.datetime64(date_lo).astype("datetime64[us]").astype("int64")
    hi = np.datetime64(date_hi).astype("datetime64[us]").astype("int64")

    nat_tbl = _pq.read_table(f"{sf_dir}/nation.parquet")
    reg = _pq.read_table(f"{sf_dir}/region.parquet")
    rkeys = {r["r_regionkey"] for r in reg.to_pylist()
             if r["r_name"] == region}
    region_nations = {r["n_nationkey"] for r in nat_tbl.to_pylist()
                      if r["n_regionkey"] in rkeys}
    nation_key = {r["n_name"]: r["n_nationkey"]
                  for r in nat_tbl.to_pylist()}[nation]
    part = _pq.read_table(f"{sf_dir}/part.parquet",
                          columns=["p_partkey", "p_type"])
    pkeys = pa.array(sorted(
        k for k, t in zip(part["p_partkey"].to_pylist(),
                          part["p_type"].to_pylist()) if t == p_type),
        pa.int64())
    supp = _pq.read_table(f"{sf_dir}/supplier.parquet",
                          columns=["s_suppkey", "s_nationkey"])
    nat_supp = pa.array(sorted(
        k for k, v in zip(supp["s_suppkey"].to_pylist(),
                          supp["s_nationkey"].to_pylist())
        if v == nation_key), pa.int64())
    cust = _pq.read_table(f"{sf_dir}/customer.parquet",
                          columns=["c_custkey", "c_nationkey"])
    reg_cust = pa.array(sorted(
        k for k, v in zip(cust["c_custkey"].to_pylist(),
                          cust["c_nationkey"].to_pylist())
        if v in region_nations), pa.int64())
    dref = ray.put((pkeys, nat_supp, reg_cust))

    def line_side(batch: pa.Table, _d=dref) -> pa.Table:
        pk, ns, _ = ray.get(_d)
        keep = pc.is_in(batch["l_partkey"].combine_chunks()
                        .cast(pa.int64()), value_set=pk)
        b = batch.filter(keep)
        is_nat = pc.is_in(b["l_suppkey"].combine_chunks()
                          .cast(pa.int64()), value_set=ns) \
                   .to_numpy(zero_copy_only=False)
        ext_c = _cents(b["l_extendedprice"]).to_numpy(zero_copy_only=False)
        disc_c = _cents(b["l_discount"]).to_numpy(zero_copy_only=False)
        rev = ext_c * (100 - disc_c)
        return pa.table({
            "l_orderkey": b["l_orderkey"],
            "rev_units": pa.array(rev, pa.int64()),
            "nat_units": pa.array(np.where(is_nat, rev, 0), pa.int64()),
        })

    line = read_table(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_partkey", "l_suppkey",
                 "l_extendedprice", "l_discount"]) \
        .map_batches(line_side, batch_format="pyarrow")

    def orders_side(batch: pa.Table, _d=dref) -> pa.Table:
        _, _, rc = ray.get(_d)
        od = pc.cast(batch["o_orderdate"], pa.int64())
        b = batch.filter(pc.and_(pc.greater_equal(od, lo),
                                 pc.less(od, hi)))
        b = b.filter(pc.is_in(b["o_custkey"].combine_chunks()
                              .cast(pa.int64()), value_set=rc))
        return pa.table({
            "o_orderkey": b["o_orderkey"],
            "o_year": pc.year(b["o_orderdate"].combine_chunks())
                        .cast(pa.int64()),
        })

    orders = read_table(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"]) \
        .map_batches(orders_side, batch_format="pyarrow")

    joined = hash_equijoin(orders, line, left_on="o_orderkey",
                           right_on="l_orderkey")

    def project(batch: pa.Table) -> pa.Table:
        return pa.table({"o_year": batch["o_year"],
                         "nation_units": batch["nat_units"],
                         "total_units": batch["rev_units"]})

    def share(batch: pa.Table) -> pa.Table:
        tot = batch["total_units"].to_numpy(zero_copy_only=False)
        nat = batch["nation_units"].to_numpy(zero_copy_only=False)
        return batch.append_column("mkt_share_ppm", pa.array(
            nat * 1_000_000 // np.maximum(tot, 1), pa.int64()))

    return aggregate_by(joined.map_batches(project, batch_format="pyarrow"),
                        "o_year", {"nation_units": "sum",
                                   "total_units": "sum"}) \
        .map_batches(share, batch_format="pyarrow")


def running_revenue(sf_dir: str, *, date_lo: str = "1996-01-01",
                    date_hi: str = "1996-07-01"):
    """Per-customer RUNNING revenue over their orders by date — the
    cumulative-window shape (SQL ``sum() OVER (PARTITION BY custkey
    ORDER BY date, key)``) Ray Data has no native operator for.

    Scale shape: one narrow sort on custkey of (custkey, orderkey,
    date, cents) rows; each whole sorted block lexsorts by (custkey,
    date, orderkey) and takes one cumsum, less each customer's total
    before its first order.  Output: (o_custkey, o_orderkey,
    total_cents, running_cents)."""
    lo = np.datetime64(date_lo).astype("datetime64[us]").astype("int64")
    hi = np.datetime64(date_hi).astype("datetime64[us]").astype("int64")

    def project(batch: pa.Table) -> pa.Table:
        od = pc.cast(batch["o_orderdate"], pa.int64())
        b = batch.filter(pc.and_(pc.greater_equal(od, lo),
                                 pc.less(od, hi)))
        return pa.table({
            "o_custkey": b["o_custkey"],
            "o_orderkey": b["o_orderkey"],
            "od": pc.cast(b["o_orderdate"], pa.int64()),
            "total_cents": _cents(b["o_totalprice"]),
        })

    def running(block: pa.Table) -> pa.Table:
        ck = block["o_custkey"].to_numpy(zero_copy_only=False)
        ok = block["o_orderkey"].to_numpy(zero_copy_only=False)
        od = block["od"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ok, od, ck))
        ck, ok = ck[order], ok[order]
        c = block["total_cents"].to_numpy(zero_copy_only=False)[order]
        run = np.cumsum(c)
        starts = np.flatnonzero(np.r_[True, ck[1:] != ck[:-1]])
        run -= np.repeat(run[starts] - c[starts],
                         np.diff(np.r_[starts, ck.size]))
        return pa.table({
            "o_custkey": pa.array(ck, pa.int64()),
            "o_orderkey": pa.array(ok, pa.int64()),
            "total_cents": pa.array(c, pa.int64()),
            "running_cents": pa.array(run, pa.int64()),
        })

    return map_sorted_blocks(
        read_table(f"{sf_dir}/orders.parquet",
                   columns=["o_custkey", "o_orderkey", "o_orderdate",
                            "o_totalprice"])
        .map_batches(project, batch_format="pyarrow"),
        "o_custkey", running,
        pa.schema([(c, pa.int64()) for c in (
            "o_custkey", "o_orderkey", "total_cents", "running_cents")]))


def customer_distribution(sf_dir: str):
    """TPC-H Q13-shaped customer distribution: histogram of per-customer
    order counts INCLUDING zero-order customers.

    Shape: one keyed sum counts orders per custkey; the customer table
    LEFT-joins the counts through the general co-shuffle join
    (exercising its null-emitting outer path at scale — no broadcast of
    the customer side), nulls fill to 0, and a second keyed sum builds
    the histogram.  Output: (c_count, custdist)."""
    from kgx.ops.joins import hash_equijoin

    def ones(batch: pa.Table) -> pa.Table:
        return pa.table({
            "k": batch["o_custkey"].combine_chunks().cast(pa.int64()),
            "n_orders": pa.array(np.ones(batch.num_rows, dtype=np.int64))})

    counts = aggregate_by(
        read_table(f"{sf_dir}/orders.parquet", columns=["o_custkey"])
        .map_batches(ones, batch_format="pyarrow"),
        "k", {"n_orders": "sum"})

    cust = read_table(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey"])
    joined = hash_equijoin(cust, counts, left_on="c_custkey",
                           right_on="k", how="left")

    def hist_ones(batch: pa.Table) -> pa.Table:
        n = batch["n_orders"].to_numpy(zero_copy_only=False)
        n = np.where(np.isnan(n.astype(np.float64)), 0,
                     n.astype(np.float64)).astype(np.int64)
        return pa.table({"c_count": pa.array(n, pa.int64()),
                         "custdist": pa.array(
                             np.ones(len(n), dtype=np.int64))})

    return aggregate_by(joined.map_batches(hist_ones, batch_format="pyarrow"),
                        "c_count", {"custdist": "sum"})


def top_supplier(sf_dir: str, *, date_lo: str = "1996-01-01",
                 date_hi: str = "1996-04-01"):
    """TPC-H Q15-shaped top supplier: the supplier(s) with MAXIMUM
    lineitem revenue in the ship window (ties all emitted, like the
    view+max formulation).

    Shape: one keyed sum per supplier (``aggregate_by``) -> the
    (tiny, one row per supplier) result is collected, and its scalar
    max, the filter and the name attach run in the calling process.
    Output: (s_suppkey, s_name, total_revenue_units)."""
    import pyarrow.parquet as _pq

    lo = np.datetime64(date_lo).astype("datetime64[us]").astype("int64")
    hi = np.datetime64(date_hi).astype("datetime64[us]").astype("int64")

    def project(batch: pa.Table) -> pa.Table:
        sd = pc.cast(batch["l_shipdate"], pa.int64())
        b = batch.filter(pc.and_(pc.greater_equal(sd, lo),
                                 pc.less(sd, hi)))
        ext_c = _cents(b["l_extendedprice"]).to_numpy(zero_copy_only=False)
        disc_c = _cents(b["l_discount"]).to_numpy(zero_copy_only=False)
        return pa.table({
            "s_suppkey": b["l_suppkey"].combine_chunks().cast(pa.int64()),
            "total_revenue_units": pa.array(ext_c * (100 - disc_c),
                                            pa.int64())})

    per_supp = collect_arrow(aggregate_by(
        read_table(f"{sf_dir}/lineitem.parquet",
                   columns=["l_suppkey", "l_shipdate", "l_extendedprice",
                            "l_discount"])
        .map_batches(project, batch_format="pyarrow"),
        "s_suppkey", {"total_revenue_units": "sum"}))
    if not per_supp.num_rows:              # no lineitem in the window
        return rd.from_arrow(per_supp)
    b = per_supp.filter(pc.equal(per_supp["total_revenue_units"],
                                 pc.max(per_supp["total_revenue_units"])))
    supp = _pq.read_table(f"{sf_dir}/supplier.parquet",
                          columns=["s_suppkey", "s_name"])
    idx = pc.index_in(b["s_suppkey"], value_set=supp["s_suppkey"]
                      .combine_chunks().cast(pa.int64()))
    return rd.from_arrow(pa.table({
        "s_suppkey": b["s_suppkey"],
        "s_name": pc.take(supp["s_name"].combine_chunks(), idx),
        "total_revenue_units": b["total_revenue_units"],
    }))


def small_order_revenue(sf_dir: str, *, p_type: str = "SMALL"):
    """TPC-H Q17-shaped small-order revenue: lineitems of ``p_type``
    parts whose quantity is below 20% of that PART's average quantity —
    a filter against a per-group aggregate.

    Shape: the part-type key set broadcasts; ONE sort on partkey
    co-locates each part's lineitems, and one pass per sorted block
    computes every part's stats (``np.add.reduceat`` over its runs) AND
    applies the threshold in the same vectorized visit (detail and
    aggregate co-located — no second scan, no aggregate re-broadcast).
    The 20% test is exact integer arithmetic:
    qty < 0.2 * (sum_qty / n)  <=>  5 * qty_c * n < sum_qty_c.
    Output: one row (n_small_lineitems, revenue_cents)."""
    import pyarrow.parquet as _pq

    part = _pq.read_table(f"{sf_dir}/part.parquet",
                          columns=["p_partkey", "p_type"])
    pk = pa.array(sorted(
        k for k, t in zip(part["p_partkey"].to_pylist(),
                          part["p_type"].to_pylist()) if t == p_type),
        pa.int64())
    pref = ray.put(pk)

    def project(batch: pa.Table, _p=pref) -> pa.Table:
        keep = pc.is_in(batch["l_partkey"].combine_chunks()
                        .cast(pa.int64()), value_set=ray.get(_p))
        b = batch.filter(keep)
        return pa.table({
            "l_partkey": b["l_partkey"],
            "qty_c": _cents(b["l_quantity"]),
            "ext_c": _cents(b["l_extendedprice"]),
        })

    def per_block(block: pa.Table) -> pa.Table:
        runs = key_runs(block, ["l_partkey"])
        n = np.diff(runs)
        q = block["qty_c"].to_numpy(zero_copy_only=False)
        e = block["ext_c"].to_numpy(zero_copy_only=False)
        small = 5 * q * np.repeat(n, n) \
            < np.repeat(np.add.reduceat(q, runs[:-1]), n)
        return pa.table({
            "n": pa.array([int(small.sum())], pa.int64()),
            "rev": pa.array([int(e[small].sum())], pa.int64()),
        })

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table({
            "n_small_lineitems": pa.array(
                [sum(batch["n"].to_pylist())], pa.int64()),
            "revenue_cents": pa.array(
                [sum(batch["rev"].to_pylist())], pa.int64()),
        })

    return map_sorted_blocks(
        read_table(f"{sf_dir}/lineitem.parquet",
                   columns=["l_partkey", "l_quantity", "l_extendedprice"])
        .map_batches(project, batch_format="pyarrow"),
        "l_partkey", per_block,
        pa.schema([("n", pa.int64()), ("rev", pa.int64())])) \
        .repartition(1) \
        .map_batches(finish, batch_format="pyarrow", batch_size=None)


def late_priority_lines(sf_dir: str, *, min_delay_days: int = 60):
    """TPC-H Q12-shaped shipping-delay priority report (the testdata has
    no l_shipmode/commitdate/receiptdate, so "late" is a ship date >=
    ``min_delay_days`` after the order date and the grouping key is the
    ship year — same plan, reference semantics per SURVEY §2.6).

    Plan for the 100 TB shape: both sides are FACT tables, so they
    co-shuffle through the general bucketed hash equi-join on the order
    key (kgx/ops/joins.py:hash_equijoin) — orders projected to
    (o_orderkey, o_orderdate, is_high int8), lineitem to (l_orderkey,
    l_shipdate) — then the delay filter and one keyed sum per ship year
    of the high/low conditional counts.  Output: (ship_year, high_line_count,
    low_line_count).
    """
    from kgx.ops.joins import hash_equijoin

    delay_us = int(min_delay_days) * 86_400_000_000

    def orders_side(batch: pa.Table) -> pa.Table:
        hi = pc.is_in(batch["o_orderpriority"],
                      value_set=pa.array(["1-URGENT", "2-HIGH"]))
        return pa.table({
            "o_orderkey": batch["o_orderkey"],
            "o_date_us": pc.cast(batch["o_orderdate"], pa.int64()),
            "is_high": pc.cast(hi, pa.int64()),
        })

    orders = read_table(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"]) \
        .map_batches(orders_side, batch_format="pyarrow")

    line = read_table(f"{sf_dir}/lineitem.parquet",
                           columns=["l_orderkey", "l_shipdate"])

    joined = hash_equijoin(orders, line, left_on="o_orderkey",
                           right_on="l_orderkey")

    def late_counts(batch: pa.Table) -> pa.Table:
        ship_us = pc.cast(batch["l_shipdate"], pa.int64())
        late = pc.greater_equal(pc.subtract(ship_us, batch["o_date_us"]
                                            .combine_chunks()
                                            .cast(pa.int64())),
                                delay_us)
        b = batch.filter(late)
        year = pc.cast(pc.year(b["l_shipdate"]), pa.int64())
        hi = b["is_high"].combine_chunks().cast(pa.int64())
        return pa.table({
            "ship_year": year,
            "high_line_count": hi,
            "low_line_count": pc.subtract(pa.scalar(1, pa.int64()), hi),
        })

    return aggregate_by(
        joined.map_batches(late_counts, batch_format="pyarrow"),
        "ship_year", {"high_line_count": "sum", "low_line_count": "sum"})


_Q19_CLAUSES = (("Brand#1", 1, 15, 1.0, 20.0),
                ("Brand#2", 1, 25, 10.0, 30.0),
                ("Brand#3", 1, 35, 20.0, 40.0))


def brand_discount_revenue(sf_dir: str, *, clauses=_Q19_CLAUSES):
    """TPC-H Q19-shaped disjunctive-predicate revenue: total discounted
    revenue from lineitems matching ANY of the (brand, size range,
    quantity range) clauses (the testdata has no p_container /
    l_shipmode, so the clause legs are brand+size+quantity).

    Plan: the part dimension is PRUNED AT BROADCAST TIME to the union
    of clause brands (a few % of the table), shipped once via
    ``ray.put`` as parallel (partkey, brand ordinal, size) arrays; each
    lineitem batch resolves its parts with one vectorized ``index_in``
    and evaluates the whole disjunction as numpy masks — rows that
    cannot match any clause never leave the map task, and the "shuffle"
    is the kilobyte single-row partial stream.  Revenue in exact
    integer units: sum(ext_cents * (100 - disc_cents)).
    Output: one row (revenue_units, n_lines).
    """
    import pyarrow.parquet as _pq

    brands = [c[0] for c in clauses]
    part = _pq.read_table(f"{sf_dir}/part.parquet",
                          columns=["p_partkey", "p_brand", "p_size"])
    keep = pc.is_in(part["p_brand"], value_set=pa.array(brands))
    part = part.filter(keep).combine_chunks()
    bcode = pc.index_in(part["p_brand"],
                        value_set=pa.array(brands)) \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    pref = ray.put((part["p_partkey"].combine_chunks().cast(pa.int64()),
                    bcode,
                    part["p_size"].to_numpy(zero_copy_only=False)
                        .astype(np.int64)))

    def partial(batch: pa.Table, _pref=pref) -> pa.Table:
        pk, bc, sz = ray.get(_pref)
        idx = pc.index_in(batch["l_partkey"].combine_chunks()
                          .cast(pa.int64()), value_set=pk) \
            .to_numpy(zero_copy_only=False).astype(np.float64)
        ok = ~np.isnan(idx)
        ii = idx[ok].astype(np.int64)
        qty = batch["l_quantity"].to_numpy(zero_copy_only=False)[ok]
        hit = np.zeros(len(ii), dtype=bool)
        for ci, (_, slo, shi, qlo, qhi) in enumerate(clauses):
            hit |= ((bc[ii] == ci) & (sz[ii] >= slo) & (sz[ii] <= shi)
                    & (qty >= qlo) & (qty <= qhi))
        sel = np.flatnonzero(ok)[hit]
        b = batch.take(pa.array(sel, pa.int64()))
        ext_c = _cents(b["l_extendedprice"]).to_numpy(zero_copy_only=False)
        disc_c = _cents(b["l_discount"]).to_numpy(zero_copy_only=False)
        return pa.table({
            "rev": pa.array([int((ext_c * (100 - disc_c)).sum())],
                            pa.int64()),
            "n": pa.array([b.num_rows], pa.int64()),
        })

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table({
            "revenue_units": pa.array(
                [sum(batch["rev"].to_pylist())], pa.int64()),
            "n_lines": pa.array(
                [sum(batch["n"].to_pylist())], pa.int64()),
        })

    return read_table(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_quantity", "l_extendedprice",
                 "l_discount"]) \
        .map_batches(partial, batch_format="pyarrow") \
        .repartition(1) \
        .map_batches(finish, batch_format="pyarrow", batch_size=None)


def global_sales_opportunity(sf_dir: str, *, since: str = "1999-01-01"):
    """TPC-H Q22-shaped report: customers with an above-average positive
    account balance and no order since ``since``, counted per nation
    (the testdata has no c_phone, so the country-code grouping key is
    the nation name; every customer has SOME order in this synthetic
    data, so the anti-join windows the orders side by date — same plan,
    reference semantics per SURVEY §2.6).

    Plan for the 100 TB shape, three broadcast-sized artifacts and zero
    wide shuffles over customer rows:
      * the positive-balance average reduces map-side to ONE
        (sum_cents, n_pos) row; the selection test is the exact integer
        cross-multiplication ``bal_c * n_pos > sum_c`` — no float
        average ever exists on either side;
      * orders' DISTINCT custkey set is bounded by the customer count,
        reduces through one keyed distinct, and broadcasts once
        via ``ray.put`` for a vectorized ``is_in`` anti probe (the
        unbounded-domain fallback is hash_equijoin(how='left') + null
        filter, see customers_without_orders);
      * nation (25 rows) broadcasts as parallel arrays; one keyed sum
        per nation finishes.
    Output: (cntry, numcust, totacctbal_cents).
    """
    import pyarrow.parquet as _pq

    cust_cols = ["c_custkey", "c_nationkey", "c_acctbal"]

    def avg_partial(batch: pa.Table) -> pa.Table:
        bal_c = _cents(batch["c_acctbal"])
        pos = pc.greater(bal_c, 0)
        return pa.table({
            "s": pa.array([pc.sum(pc.if_else(pos, bal_c, 0)).as_py() or 0],
                          pa.int64()),
            "n": pa.array([pc.sum(pc.cast(pos, pa.int64())).as_py() or 0],
                          pa.int64()),
        })

    cust_path = f"{sf_dir}/customer.parquet"
    avg_tbl = collect_arrow(
        read_table(cust_path, columns=["c_acctbal"])
          .map_batches(avg_partial, batch_format="pyarrow"))
    sum_c = sum(avg_tbl["s"].to_pylist())
    n_pos = max(sum(avg_tbl["n"].to_pylist()), 1)

    since_us = np.datetime64(since).astype("datetime64[us]") \
        .astype("int64")

    def recent(batch: pa.Table) -> pa.Table:
        keep = batch.filter(pc.greater_equal(
            pc.cast(batch["o_orderdate"], pa.int64()), since_us))
        return pa.table({"k": keep["o_custkey"]})

    keys_tbl = collect_arrow(aggregate_by(
        read_table(f"{sf_dir}/orders.parquet",
                        columns=["o_custkey", "o_orderdate"])
          .map_batches(recent, batch_format="pyarrow"), "k", {}))
    have = keys_tbl["k"].combine_chunks() \
        if keys_tbl.num_rows else pa.array([], pa.int64())
    kref = ray.put(have)

    nat = _pq.read_table(f"{sf_dir}/nation.parquet",
                         columns=["n_nationkey", "n_name"])
    nref = ray.put((nat["n_nationkey"].combine_chunks().cast(pa.int64()),
                    nat["n_name"].combine_chunks()))

    def selected(batch: pa.Table) -> pa.Table:
        bal_c = _cents(batch["c_acctbal"])
        sel = pc.and_(
            pc.greater(pc.multiply(pc.cast(bal_c, pa.int64()),
                                   pa.scalar(n_pos, pa.int64())),
                       pa.scalar(sum_c, pa.int64())),
            pc.invert(pc.is_in(batch["c_custkey"].combine_chunks(),
                               value_set=ray.get(kref))))
        b = batch.filter(sel)
        nk, nn = ray.get(nref)
        idx = pc.index_in(b["c_nationkey"].combine_chunks()
                          .cast(pa.int64()), value_set=nk)
        return pa.table({
            "cntry": nn.take(idx),
            "numcust": pa.array(np.ones(b.num_rows, np.int64)),
            "totacctbal_cents": _cents(b["c_acctbal"]),
        })

    return aggregate_by(
        read_table(cust_path, columns=cust_cols)
        .map_batches(selected, batch_format="pyarrow"),
        "cntry", {"numcust": "sum", "totacctbal_cents": "sum"})


def pricing_cube(sf_dir: str):
    """GROUP BY CUBE(l_returnflag, l_linestatus) over lineitem: the full
    lattice (rf, ls), (rf), (ls), () of :func:`_pricing_grouping_sets`."""
    return _pricing_grouping_sets(
        sf_dir, [("l_returnflag", "l_linestatus"), ("l_returnflag",),
                 ("l_linestatus",), ()])


def waiting_suppliers(sf_dir: str, *, delay_days: int = 90,
                      n: int = 100):
    """TPC-H Q21-shaped waiting-suppliers report: for finalized orders
    ('F'), count per supplier the late lineitems where at least one
    OTHER supplier contributed to the order (EXISTS) but no other
    supplier was late (NOT EXISTS) — the classic exists/anti-exists
    self-join on lineitem.  The testdata has no commit/receipt dates,
    so "late" is a ship date more than ``delay_days`` after the order
    date (the same Q12 adaptation, SURVEY §2.6); the single-nation
    filter is widened to a per-nation column so the report is
    data-robust at every sf.

    Plan for the 100 TB shape: orders filter map-side to status 'F'
    and project (o_orderkey, o_date_us); lineitem projects
    (l_orderkey, l_suppkey, l_shipdate); ONE fact-fact co-shuffle on
    the order key (kgx/ops/joins.py:hash_equijoin), then one sort on
    the order key puts every order in one block and the
    exists/anti-exists logic folds each whole sorted block
    (kgx.functions.fold.map_sorted_blocks) — lexsort by (order,
    supplier), segment boundaries via flatnonzero, per-(order,
    supplier) late counts via ``np.add.reduceat``, per-order
    distinct/late-supplier counts via a second reduceat over the
    segment array — one vectorized pass per block, no per-order
    Python.  Each block emits (suppkey, late count) rows, and one keyed
    sum per supplier finishes.
    Supplier name + nation resolve from a broadcast dim map on the tiny
    aggregated output before the global sort + limit.
    Output: (n_name, s_name, numwait).
    """
    import pyarrow.parquet as _pq

    from kgx.ops.joins import hash_equijoin

    delay_us = int(delay_days) * 86_400_000_000

    def orders_side(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.equal(batch["o_orderstatus"], "F"))
        return pa.table({
            "o_orderkey": b["o_orderkey"],
            "o_date_us": pc.cast(b["o_orderdate"], pa.int64()),
        })

    orders = read_table(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderstatus", "o_orderdate"]) \
        .map_batches(orders_side, batch_format="pyarrow")

    line = read_table(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_shipdate"])

    joined = hash_equijoin(orders, line, left_on="o_orderkey",
                           right_on="l_orderkey")

    def late_rows(batch: pa.Table) -> pa.Table:
        okey = batch["o_orderkey"].combine_chunks().cast(pa.int64())
        late = pc.greater(
            pc.subtract(pc.cast(batch["l_shipdate"], pa.int64()),
                        batch["o_date_us"].combine_chunks()
                             .cast(pa.int64())),
            pa.scalar(delay_us, pa.int64()))
        return pa.table({
            "okey": okey,
            "skey": batch["l_suppkey"].combine_chunks().cast(pa.int64()),
            "late": pc.cast(late, pa.int64()),
        })

    def fold(group: pa.Table) -> pa.Table:
        o = group["okey"].to_numpy(zero_copy_only=False)
        s = group["skey"].to_numpy(zero_copy_only=False)
        l = group["late"].to_numpy(zero_copy_only=False)
        order = np.lexsort((s, o))
        o_s, s_s, l_s = o[order], s[order], l[order]
        # (order, supplier) segments
        seg = np.flatnonzero(np.r_[True, (o_s[1:] != o_s[:-1])
                                   | (s_s[1:] != s_s[:-1])])
        seg_o, seg_s = o_s[seg], s_s[seg]
        late_cnt = np.add.reduceat(l_s, seg)
        # order segments over the (order, supplier) segment array
        ost = np.flatnonzero(np.r_[True, seg_o[1:] != seg_o[:-1]])
        n_supp = np.diff(np.r_[ost, len(seg_o)])
        has_late = (late_cnt > 0).astype(np.int64)
        n_late_supp = np.add.reduceat(has_late, ost)
        qualifies = (n_supp >= 2) & (n_late_supp == 1)
        oidx = np.cumsum(np.r_[0, (seg_o[1:] != seg_o[:-1])
                               .astype(np.int64)])
        mask = (late_cnt > 0) & qualifies[oidx]
        return pa.table({"skey": pa.array(seg_s[mask], pa.int64()),
                         "numwait": pa.array(late_cnt[mask], pa.int64())})

    supp = _pq.read_table(f"{sf_dir}/supplier.parquet",
                          columns=["s_suppkey", "s_name", "s_nationkey"])
    nat = _pq.read_table(f"{sf_dir}/nation.parquet",
                         columns=["n_nationkey", "n_name"])
    sref = ray.put((supp["s_suppkey"].combine_chunks().cast(pa.int64()),
                    supp["s_name"].combine_chunks(),
                    supp["s_nationkey"].combine_chunks().cast(pa.int64()),
                    nat["n_nationkey"].combine_chunks().cast(pa.int64()),
                    nat["n_name"].combine_chunks()))

    def attach(batch: pa.Table, _d=sref) -> pa.Table:
        sk, sname, snat, nk, nn = ray.get(_d)
        si = pc.index_in(batch["skey"].combine_chunks(), value_set=sk)
        ni = pc.index_in(snat.take(si), value_set=nk)
        return pa.table({
            "n_name": nn.take(ni),
            "s_name": sname.take(si),
            "numwait": batch["numwait"],
        })

    return (aggregate_by(map_sorted_blocks(
                joined.map_batches(late_rows, batch_format="pyarrow"),
                "okey", fold,
                pa.schema([("skey", pa.int64()), ("numwait", pa.int64())])),
                "skey", {"numwait": "sum"})
            .map_batches(attach, batch_format="pyarrow")
            .sort(["numwait", "s_name"], descending=[True, False])
            .limit(n))


def nation_profit(sf_dir: str, *, name_frag: str = "red"):
    """TPC-H Q9-shaped profit report: revenue from lineitems whose part
    name contains ``name_frag``, grouped by the SUPPLIER's nation and
    the order year.  (The testdata has no partsupp, so profit is plain
    ``extprice*(1-disc)`` in exact integer units — the supplycost term
    of Q9 has no source column; the JOIN SHAPE is the point: two
    broadcast dimension resolutions on the fact side, one fact-fact
    co-shuffle.  Reference analog: SURVEY §2.4-§2.5 multi-dim rollup.)

    100 TB plan: the part-name filter reduces to a broadcast int64
    partkey SET (part is ~2 % of lineitem's bytes; at cluster scale
    swap to a Bloom filter + hash_equijoin co-shuffle — same bound as
    rel_promo); supplier->nation resolves map-side from broadcast
    parallel arrays (KB-scale); orders contributes only
    (o_orderkey, year) through ONE fact-fact co-shuffle on the order
    key; one keyed sum per (nation, year) finishes.
    Output: (nation, o_year, profit_units)."""
    import pyarrow.parquet as _pq

    from kgx.ops.joins import hash_equijoin

    part = _pq.read_table(f"{sf_dir}/part.parquet",
                          columns=["p_partkey", "p_name"])
    keep = pc.match_substring(part["p_name"], name_frag)
    pset = ray.put(part.filter(keep)["p_partkey"].combine_chunks()
                   .cast(pa.int64()))

    supp = _pq.read_table(f"{sf_dir}/supplier.parquet",
                          columns=["s_suppkey", "s_nationkey"])
    nat = _pq.read_table(f"{sf_dir}/nation.parquet",
                         columns=["n_nationkey", "n_name"])
    sref = ray.put((supp["s_suppkey"].combine_chunks().cast(pa.int64()),
                    supp["s_nationkey"].combine_chunks().cast(pa.int64()),
                    nat["n_nationkey"].combine_chunks().cast(pa.int64()),
                    nat["n_name"].combine_chunks()))

    def line_side(batch: pa.Table, _p=pset, _s=sref) -> pa.Table:
        b = batch.filter(pc.is_in(batch["l_partkey"].combine_chunks()
                                  .cast(pa.int64()),
                                  value_set=ray.get(_p)))
        sk, sn, nk, _ = ray.get(_s)
        si = pc.index_in(b["l_suppkey"].combine_chunks().cast(pa.int64()),
                         value_set=sk)
        # inner-join semantics: a suppkey absent from supplier must DROP
        # the row (as the oracle's JOIN does), not flow a null nation
        b = b.filter(pc.is_valid(si))
        si = si.filter(pc.is_valid(si))
        ni = pc.index_in(sn.take(si), value_set=nk)
        ext_c = _cents(b["l_extendedprice"]).to_numpy(zero_copy_only=False)
        disc_c = _cents(b["l_discount"]).to_numpy(zero_copy_only=False)
        return pa.table({
            "l_orderkey": b["l_orderkey"],
            "nidx": pc.cast(ni, pa.int64()),
            "profit_part": pa.array(ext_c * (100 - disc_c), pa.int64()),
        })

    line = read_table(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_partkey", "l_suppkey",
                 "l_extendedprice", "l_discount"]) \
        .map_batches(line_side, batch_format="pyarrow")

    def order_side(batch: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": batch["o_orderkey"],
            "o_year": pc.cast(pc.year(batch["o_orderdate"]
                                      .combine_chunks()), pa.int64()),
        })

    orders = read_table(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate"]) \
        .map_batches(order_side, batch_format="pyarrow")

    joined = hash_equijoin(orders, line, left_on="o_orderkey",
                           right_on="l_orderkey")

    def named(batch: pa.Table, _s=sref) -> pa.Table:
        _, _, _, nn = ray.get(_s)
        return pa.table({
            "nation": nn.take(batch["nidx"].combine_chunks()
                              .cast(pa.int64())),
            "o_year": batch["o_year"].combine_chunks().cast(pa.int64()),
            "profit_units": batch["profit_part"],
        })

    return aggregate_by(joined.map_batches(named, batch_format="pyarrow"),
                        ["nation", "o_year"], {"profit_units": "sum"})


def important_parts(sf_dir: str, *, nation: str = "NATION_3",
                    fraction_ppm: int = 1000):
    """TPC-H Q11-shaped "important stock" report: per-part revenue from
    the suppliers of ONE nation, keeping parts whose value exceeds
    ``fraction_ppm`` parts-per-million of the nation's total (Q11's
    HAVING-against-a-scalar-subquery shape; supplycost*availqty has no
    source columns here so value is exact integer revenue units).

    100 TB plan: the nation's suppkey set broadcasts (KB); ONE keyed
    sum per partkey (``aggregate_by``) runs; the
    global threshold is computed by a second map-side reduction OVER
    THE AGGREGATED per-part output (rows = distinct parts, already
    ~lineitem/30 and shrinking with scale) — the fact table is read
    once.  The HAVING test is the exact integer comparison
    ``value * 1_000_000 > total * fraction_ppm``, run as ``value >
    total * fraction_ppm // 1_000_000`` — no float ratio and no int64
    product exists on either side.  Output: (l_partkey, value_units)."""
    import pyarrow.parquet as _pq

    supp = _pq.read_table(f"{sf_dir}/supplier.parquet",
                          columns=["s_suppkey", "s_nationkey"])
    nat = _pq.read_table(f"{sf_dir}/nation.parquet",
                         columns=["n_nationkey", "n_name"])
    nk = {r["n_name"]: r["n_nationkey"] for r in nat.to_pylist()}[nation]
    sset = ray.put(supp.filter(
        pc.equal(supp["s_nationkey"], nk))["s_suppkey"]
        .combine_chunks().cast(pa.int64()))

    def project(batch: pa.Table, _s=sset) -> pa.Table:
        b = batch.filter(pc.is_in(batch["l_suppkey"].combine_chunks()
                                  .cast(pa.int64()),
                                  value_set=ray.get(_s)))
        ext_c = _cents(b["l_extendedprice"]).to_numpy(zero_copy_only=False)
        disc_c = _cents(b["l_discount"]).to_numpy(zero_copy_only=False)
        return pa.table({
            "l_partkey": pc.cast(b["l_partkey"].combine_chunks(),
                                 pa.int64()),
            "value_units": pa.array(ext_c * (100 - disc_c), pa.int64()),
        })

    per_part = aggregate_by(
        read_table(f"{sf_dir}/lineitem.parquet",
                   columns=["l_partkey", "l_suppkey", "l_extendedprice",
                            "l_discount"])
        .map_batches(project, batch_format="pyarrow"),
        "l_partkey", {"value_units": "sum"})

    total_tbl = collect_arrow(per_part.map_batches(
        lambda b: pa.table({"t": pa.array(
            [pc.sum(b["value_units"]).as_py() or 0], pa.int64())}),
        batch_format="pyarrow"))
    total = sum(total_tbl["t"].to_pylist())

    # value * 10**6 > total * ppm  <=>  value > (total * ppm) // 10**6 for
    # integer values; the floor is taken in Python ints and capped at
    # int64 max (which no int64 value exceeds), so nothing overflows.
    threshold = pa.scalar(min(total * fraction_ppm // 1_000_000, 2**63 - 1),
                          pa.int64())

    def having(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater(batch["value_units"], threshold))

    return per_part.map_batches(having, batch_format="pyarrow")


def min_cost_supplier(sf_dir: str, *, size: int = 25,
                      type_name: str | None = None, n: int = 100):
    """TPC-H Q2-shaped minimum-cost supplier: for each part of the
    given size and type, the supplier(s) whose lineitem unit price hits
    the part's MINIMUM — the correlated-min-subquery join-back shape
    (``WHERE cost = (SELECT min(cost) ... same part)``).  The testdata
    has no partsupp, so "cost" is the lineitem extended price in exact
    integer cents.

    100 TB plan: the (size, type) part filter reduces to a broadcast
    int64 partkey set (selectivity ~1/300 here — at cluster scale swap
    to Bloom + co-shuffle, same note as rel_profit); surviving
    (partkey, suppkey, cost) rows take ONE narrow sort on partkey, and
    one fold per sorted block resolves every part's min and its argmin
    rows in one vectorized lexsort pass (Python cost per block, not per
    part); ties emit every minimal (part, supplier)
    pair exactly once (DISTINCT), matching Q2's all-ties semantics.
    Supplier/nation attach from broadcast arrays on the tiny survivor
    set; global sort + limit last.
    Output: (s_acctbal_cents, s_name, n_name, p_partkey, cost_cents)."""
    import pyarrow.parquet as _pq

    part = _pq.read_table(f"{sf_dir}/part.parquet",
                          columns=["p_partkey", "p_size", "p_type"])
    keep = pc.equal(part["p_size"], size)
    if type_name is not None:
        keep = pc.and_(keep, pc.equal(part["p_type"], type_name))
    pset = ray.put(part.filter(keep)["p_partkey"].combine_chunks()
                   .cast(pa.int64()))

    def line_side(batch: pa.Table, _p=pset) -> pa.Table:
        pk = batch["l_partkey"].combine_chunks().cast(pa.int64())
        b = batch.filter(pc.is_in(pk, value_set=ray.get(_p)))
        pk = b["l_partkey"].combine_chunks().cast(pa.int64())
        return pa.table({
            "pkey": pk,
            "skey": pc.cast(b["l_suppkey"].combine_chunks(), pa.int64()),
            "cost": _cents(b["l_extendedprice"]),
        })

    def fold(group: pa.Table) -> pa.Table:
        pk = group["pkey"].to_numpy(zero_copy_only=False)
        sk = group["skey"].to_numpy(zero_copy_only=False)
        c = group["cost"].to_numpy(zero_copy_only=False)
        order = np.lexsort((sk, c, pk))
        pk, sk, c = pk[order], sk[order], c[order]
        starts = np.flatnonzero(np.r_[True, pk[1:] != pk[:-1]])
        gmin = np.repeat(c[starts], np.diff(np.r_[starts, pk.size]))
        at_min = c == gmin
        pk, sk, c = pk[at_min], sk[at_min], c[at_min]
        uniq = np.r_[True, (pk[1:] != pk[:-1]) | (sk[1:] != sk[:-1])]
        return pa.table({
            "pkey": pa.array(pk[uniq], pa.int64()),
            "skey": pa.array(sk[uniq], pa.int64()),
            "cost_cents": pa.array(c[uniq], pa.int64()),
        })

    supp = _pq.read_table(f"{sf_dir}/supplier.parquet",
                          columns=["s_suppkey", "s_name", "s_acctbal",
                                   "s_nationkey"])
    nat = _pq.read_table(f"{sf_dir}/nation.parquet",
                         columns=["n_nationkey", "n_name"])
    sref = ray.put((supp["s_suppkey"].combine_chunks().cast(pa.int64()),
                    supp["s_name"].combine_chunks(),
                    _cents(supp["s_acctbal"].combine_chunks()),
                    supp["s_nationkey"].combine_chunks().cast(pa.int64()),
                    nat["n_nationkey"].combine_chunks().cast(pa.int64()),
                    nat["n_name"].combine_chunks()))

    def attach(batch: pa.Table, _d=sref) -> pa.Table:
        sk, sname, sbal, snat, nk, nn = ray.get(_d)
        si = pc.index_in(batch["skey"].combine_chunks(), value_set=sk)
        ni = pc.index_in(snat.take(si), value_set=nk)
        return pa.table({
            "s_acctbal_cents": sbal.take(si),
            "s_name": sname.take(si),
            "n_name": nn.take(ni),
            "p_partkey": batch["pkey"].combine_chunks(),
            "cost_cents": batch["cost_cents"].combine_chunks(),
        })

    return (map_sorted_blocks(
                read_table(
                    f"{sf_dir}/lineitem.parquet",
                    columns=["l_partkey", "l_suppkey", "l_extendedprice"])
                .map_batches(line_side, batch_format="pyarrow"),
                "pkey", fold,
                pa.schema([("pkey", pa.int64()), ("skey", pa.int64()),
                           ("cost_cents", pa.int64())]))
            .map_batches(attach, batch_format="pyarrow")
            .sort(["s_acctbal_cents", "n_name", "s_name", "p_partkey"],
                  descending=[True, False, False, False])
            .limit(n))


def supplier_part_counts(sf_dir: str, *, brand_excl: str = "Brand#1",
                         sizes=(5, 11, 20, 28, 37, 42, 49, 3)):
    """TPC-H Q16-shaped parts/supplier relationship: how many DISTINCT
    suppliers shipped parts of each surviving (brand, type, size)
    combination, excluding one brand, restricting to eight sizes, and
    excluding "complaint" suppliers (stand-in predicate: negative
    account balance — the testdata has no supplier comments).

    100 TB plan: both exclusion artifacts broadcast (the matching
    part attr arrays — partkey-aligned — and the bad-supplier keyset);
    the fact scan projects to DISTINCT (brand, type, size, suppkey)
    per batch map-side (per-batch Arrow group_by — the pair domain is
    bounded by #groups x #suppliers, NOT by lineitem rows), then one
    narrow sort on the attr triple, and one Arrow ``count_distinct``
    per sorted block counts every group's suppliers.  Output: (p_brand,
    p_type, p_size, supplier_cnt)."""
    import pyarrow.parquet as _pq

    part = _pq.read_table(f"{sf_dir}/part.parquet",
                          columns=["p_partkey", "p_brand", "p_type",
                                   "p_size"])
    keep = pc.and_(pc.invert(pc.equal(part["p_brand"], brand_excl)),
                   pc.is_in(part["p_size"],
                            value_set=pa.array(list(sizes), pa.int32())))
    part = part.filter(keep)
    pref = ray.put((part["p_partkey"].combine_chunks().cast(pa.int64()),
                    part["p_brand"].combine_chunks(),
                    part["p_type"].combine_chunks(),
                    part["p_size"].combine_chunks().cast(pa.int64())))

    supp = _pq.read_table(f"{sf_dir}/supplier.parquet",
                          columns=["s_suppkey", "s_acctbal"])
    bad = ray.put(supp.filter(pc.less(supp["s_acctbal"], 0))["s_suppkey"]
                  .combine_chunks().cast(pa.int64()))

    def pairs(batch: pa.Table, _p=pref, _b=bad) -> pa.Table:
        pk, brand, ptype, psize = ray.get(_p)
        sk = batch["l_suppkey"].combine_chunks().cast(pa.int64())
        pi = pc.index_in(batch["l_partkey"].combine_chunks()
                         .cast(pa.int64()), value_set=pk)
        ok = pc.and_(pc.is_valid(pi),
                     pc.invert(pc.is_in(sk, value_set=ray.get(_b))))
        pi, sk = pi.filter(ok), sk.filter(ok)
        t = pa.table({
            "p_brand": brand.take(pi),
            "p_type": ptype.take(pi),
            "p_size": psize.take(pi),
            "skey": sk,
        })
        return (t.group_by(["p_brand", "p_type", "p_size", "skey"])
                 .aggregate([]))

    keys = ["p_brand", "p_type", "p_size"]

    def count_unique(block: pa.Table) -> pa.Table:
        return block.group_by(keys, use_threads=False) \
            .aggregate([("skey", "count_distinct")]) \
            .rename_columns(keys + ["supplier_cnt"])

    return map_sorted_blocks(
        read_table(f"{sf_dir}/lineitem.parquet",
                   columns=["l_partkey", "l_suppkey"])
        .map_batches(pairs, batch_format="pyarrow"),
        keys, count_unique,
        pa.schema([("p_brand", pa.string()), ("p_type", pa.string()),
                   ("p_size", pa.int64()), ("supplier_cnt", pa.int64())]))


def dominant_suppliers(sf_dir: str, *, name_frag: str = "bolt",
                       date_lo: str = "1997-01-01",
                       date_hi: str = "1998-01-01",
                       share_pct: int = 20):
    """TPC-H Q20-shaped "dominant supplier" selection: suppliers who,
    for SOME part whose name contains ``name_frag``, shipped more than
    ``share_pct`` percent of that part's total quantity inside the date
    window (Q20's availqty > 1/2 * sum(l_quantity) EXISTS shape,
    re-based on shipped share since partsupp has no source table).

    100 TB plan: the part-name filter broadcasts as an int64 keyset;
    surviving (partkey, suppkey, qty) rows fold map-side per pair, take
    ONE narrow sort on partkey, and one fold per sorted block computes
    every part's total and its per-supplier sums in one
    vectorized pass, emitting suppkeys passing the exact integer test
    ``supp_qty * 100 > total_qty * share_pct``; the tiny survivor
    keyset dedups through one keyed distinct and attaches supplier
    name/balance from broadcast arrays.  Output: (s_name,
    s_acctbal_cents) sorted by name."""
    import pyarrow.parquet as _pq

    lo = np.datetime64(date_lo).astype("datetime64[us]").astype("int64")
    hi = np.datetime64(date_hi).astype("datetime64[us]").astype("int64")

    part = _pq.read_table(f"{sf_dir}/part.parquet",
                          columns=["p_partkey", "p_name"])
    pset = ray.put(part.filter(
        pc.match_substring(part["p_name"], name_frag))["p_partkey"]
        .combine_chunks().cast(pa.int64()))

    def line_side(batch: pa.Table, _p=pset) -> pa.Table:
        sd = pc.cast(batch["l_shipdate"], pa.int64())
        b = batch.filter(pc.and_(
            pc.and_(pc.greater_equal(sd, lo), pc.less(sd, hi)),
            pc.is_in(batch["l_partkey"].combine_chunks().cast(pa.int64()),
                     value_set=ray.get(_p))))
        pk = b["l_partkey"].combine_chunks().cast(pa.int64())
        t = pa.table({
            "pkey": pk,
            "skey": pc.cast(b["l_suppkey"].combine_chunks(), pa.int64()),
            "qty": _cents(b["l_quantity"]),
        })
        agg = t.group_by(["pkey", "skey"]).aggregate([("qty", "sum")])
        return pa.table({"pkey": agg["pkey"], "skey": agg["skey"],
                         "qty": agg["qty_sum"]})

    def fold(group: pa.Table) -> pa.Table:
        pk = group["pkey"].to_numpy(zero_copy_only=False)
        sk = group["skey"].to_numpy(zero_copy_only=False)
        q = group["qty"].to_numpy(zero_copy_only=False)
        order = np.lexsort((sk, pk))
        pk, sk, q = pk[order], sk[order], q[order]
        pstarts = np.flatnonzero(np.r_[True, pk[1:] != pk[:-1]])
        seg = np.zeros(pk.size, np.int64)
        seg[pstarts] = 1
        gid = np.cumsum(seg) - 1
        totals = np.zeros(pstarts.size, np.int64)
        np.add.at(totals, gid, q)
        ps = np.r_[True, (pk[1:] != pk[:-1]) | (sk[1:] != sk[:-1])]
        pgid = np.cumsum(ps) - 1
        ssum = np.zeros(int(pgid[-1]) + 1 if pk.size else 0, np.int64)
        np.add.at(ssum, pgid, q)
        pair_first = np.flatnonzero(ps)
        pair_total = totals[gid[pair_first]]
        win = ssum * 100 > pair_total * share_pct
        return pa.table({"skey": pa.array(
            np.unique(sk[pair_first][win]), pa.int64())})

    supp = _pq.read_table(f"{sf_dir}/supplier.parquet",
                          columns=["s_suppkey", "s_name", "s_acctbal"])
    sref = ray.put((supp["s_suppkey"].combine_chunks().cast(pa.int64()),
                    supp["s_name"].combine_chunks(),
                    _cents(supp["s_acctbal"].combine_chunks())))

    def attach(batch: pa.Table, _d=sref) -> pa.Table:
        sk, sname, sbal = ray.get(_d)
        si = pc.index_in(batch["skey"], value_set=sk)
        return pa.table({"s_name": sname.take(si),
                         "s_acctbal_cents": sbal.take(si)})

    return (aggregate_by(map_sorted_blocks(
                read_table(
                    f"{sf_dir}/lineitem.parquet",
                    columns=["l_partkey", "l_suppkey", "l_quantity",
                             "l_shipdate"])
                .map_batches(line_side, batch_format="pyarrow"),
                "pkey", fold, pa.schema([("skey", pa.int64())])), "skey", {})
            .map_batches(attach, batch_format="pyarrow")
            .sort("s_name"))


def active_both_years(sf_dir: str, *, year_a: int = 1996,
                      year_b: int = 1997):
    """SQL INTERSECT shape: customers who placed orders in BOTH given
    calendar years (SURVEY §2.7 set ops, the explicit relational form).

    100 TB plan: orders project map-side to (custkey, year-flag) rows
    for the two years only (flag 1 or 2); ONE keyed min/max per custkey
    (``aggregate_by``, whose map-side partial bounds the rows by
    customers, not orders) keeps keys whose min and max flags differ,
    i.e. that saw both years; names attach from a broadcast array on the
    survivor set.  Output: (c_custkey, c_name)."""
    import pyarrow.parquet as _pq

    def flags(batch: pa.Table) -> pa.Table:
        yr = pc.year(batch["o_orderdate"].combine_chunks()) \
               .to_numpy(zero_copy_only=False)
        ck = batch["o_custkey"].combine_chunks().cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        flag = np.where(yr == year_a, 1, np.where(yr == year_b, 2, 0))
        keep = flag > 0
        f = pa.array(flag[keep], pa.int64())
        return pa.table({"k": pa.array(ck[keep], pa.int64()),
                         "lo": f, "hi": f})

    cust = _pq.read_table(f"{sf_dir}/customer.parquet",
                          columns=["c_custkey", "c_name"])
    cref = ray.put((cust["c_custkey"].combine_chunks().cast(pa.int64()),
                    cust["c_name"].combine_chunks()))

    def both(batch: pa.Table, _c=cref) -> pa.Table:
        b = batch.filter(pc.less(batch["lo"], batch["hi"]))
        ck, cn = ray.get(_c)
        ci = pc.index_in(b["k"], value_set=ck)
        return pa.table({"c_custkey": b["k"], "c_name": cn.take(ci)})

    return aggregate_by(
        read_table(f"{sf_dir}/orders.parquet",
                   columns=["o_custkey", "o_orderdate"])
        .map_batches(flags, batch_format="pyarrow"),
        "k", {"lo": "min", "hi": "max"}) \
        .map_batches(both, batch_format="pyarrow")


def unpivot_pricing(sf_dir: str, *, cutoff: str = "1998-09-01"):
    """SQL UNPIVOT (wide -> long melt): the Q1 pricing summary's three
    sum measures re-shaped to one (group, measure, value) row each —
    the inverse of rel_pivot's long -> wide.

    Scale shape: the melt is a pure map over the ALREADY-AGGREGATED
    summary (one row per (returnflag, linestatus) regardless of corpus
    size), so it adds zero shuffle beyond pricing_summary's own plan.
    Output: (l_returnflag, l_linestatus, measure, value_cents)."""
    measures = ("sum_qty_cents", "sum_price_cents", "sum_disc_cents")

    def melt(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        rf = batch["l_returnflag"].combine_chunks()
        ls = batch["l_linestatus"].combine_chunks()
        return pa.table({
            "l_returnflag": pa.concat_arrays([rf] * len(measures)),
            "l_linestatus": pa.concat_arrays([ls] * len(measures)),
            "measure": pa.array(
                [m for m in measures for _ in range(n)], pa.string()),
            "value_cents": pa.concat_arrays(
                [batch[m].combine_chunks().cast(pa.int64())
                 for m in measures]),
        })

    return pricing_summary(sf_dir, cutoff=cutoff) \
        .map_batches(melt, batch_format="pyarrow")
