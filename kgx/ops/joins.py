"""Temporal joins Ray Data lacks natively: as-of join and banded
interval join (custom operators per the engine's training-data surface).

Both co-locate rows by the equality key with a single ``groupby`` shuffle
and do the temporal matching inside the group — the standard
partition-then-scan shape.  Partitioning assumptions are documented per
operator; both are exact, deterministic, and DuckDB-oracle-checked.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

US = 1_000_000


def asof_join_events(events_ds, *, left_type: str, right_type: str,
                     key: str = "user_id", ts_col: str = "ts"):
    """For each left-type event, the latest right-type event of the same
    key with ``right.ts <= left.ts`` (inner as-of join; ties on ts break
    to the larger event_id — deterministic).

    One groupby(key) shuffle; per-group sorted-merge via ONE
    ``np.searchsorted`` over the group's (ts, event_id)-lexsorted right
    side (no per-left-row Python loop — a vectorized fold).
    Partitioning assumption: one key's events fit one group.
    Output: (event_id, user_id, ts, value, prior_event_id, prior_ts,
    prior_value).
    """
    def per_key(group: pa.Table) -> pa.Table:
        import numpy as np
        ids = group["event_id"].to_numpy(zero_copy_only=False)
        ts = pc.cast(group[ts_col], pa.int64()).to_numpy(
            zero_copy_only=False)
        vals = group["value"].to_numpy(zero_copy_only=False)
        user = group[key][0].as_py()
        ri = np.flatnonzero(pc.equal(group["event_type"], right_type)
                            .to_numpy(zero_copy_only=False))
        li = np.flatnonzero(pc.equal(group["event_type"], left_type)
                            .to_numpy(zero_copy_only=False))
        # lexsort both sides by (ts, event_id); searchsorted(side=right)
        # on the right ts then lands AFTER the last equal-ts entry, so
        # pos-1 is the largest (ts, event_id) <= left ts — the same
        # tie-break the old per-row bisect implemented
        r_ord = ri[np.lexsort((ids[ri], ts[ri]))]
        l_ord = li[np.lexsort((ids[li], ts[li]))]
        rts = ts[r_ord]
        pos = np.searchsorted(rts, ts[l_ord], side="right") - 1
        keep = pos >= 0                 # inner join: no prior right event
        lk = l_ord[keep]
        pk = r_ord[pos[keep]]
        return pa.table({
            "event_id": pa.array(ids[lk], pa.int64()),
            "user_id": pa.array(np.full(len(lk), user), pa.int64()),
            "ts": pc.cast(pa.array(ts[lk], pa.int64()),
                          pa.timestamp("us")),
            "value": pa.array(vals[lk], pa.float64()),
            "prior_event_id": pa.array(ids[pk], pa.int64()),
            "prior_ts": pc.cast(pa.array(ts[pk], pa.int64()),
                                pa.timestamp("us")),
            "prior_value": pa.array(vals[pk], pa.float64()),
        })

    return events_ds.groupby(key).map_groups(per_key,
                                             batch_format="pyarrow")


def interval_join_events(events_ds, *, left_type: str, right_type: str,
                         tolerance_s: int, key: str = "user_id",
                         ts_col: str = "ts"):
    """All (left, right) same-key event pairs with
    ``|left.ts - right.ts| <= tolerance`` (banded range join).

    Scale shape: instead of a cross join, rows are BUCKETED by
    ``floor(ts / tolerance)``; a right row is replicated to its bucket
    and the two neighbors, so every qualifying pair meets in exactly the
    left row's bucket and the in-bucket scan only compares near rows.
    One groupby((key, bucket)) shuffle; replication factor is a constant
    3 on the right side.  Output: (user_id, left_event_id, right_event_id,
    delta_s), delta = left.ts - right.ts, deduplicated by construction.
    """
    tol_us = tolerance_s * US

    def bucketize(batch: pa.Table) -> pa.Table:
        """Vectorized mask + repeat (no Python row loop): left rows keep
        their bucket; right rows are tiled into (b-1, b, b+1)."""
        import numpy as np
        ts = pc.cast(batch[ts_col], pa.int64()).to_numpy(
            zero_copy_only=False)
        ids = batch["event_id"].to_numpy(zero_copy_only=False)
        keys = batch[key].to_numpy(zero_copy_only=False)
        b = ts // tol_us
        li = np.flatnonzero(
            pc.equal(batch["event_type"], left_type).to_numpy(
                zero_copy_only=False))
        ri = np.flatnonzero(
            pc.equal(batch["event_type"], right_type).to_numpy(
                zero_copy_only=False))
        r3 = np.tile(ri, 3)
        r_bkt = np.concatenate([b[ri] - 1, b[ri], b[ri] + 1]) \
            if len(ri) else np.zeros(0, dtype=np.int64)
        return pa.table({
            "side": pa.array(["l"] * len(li) + ["r"] * len(r3), pa.string()),
            "key": pa.array(np.concatenate([keys[li], keys[r3]]), pa.int64()),
            "bucket": pa.array(np.concatenate([b[li], r_bkt]), pa.int64()),
            "event_id": pa.array(np.concatenate([ids[li], ids[r3]]),
                                 pa.int64()),
            "t": pa.array(np.concatenate([ts[li], ts[r3]]), pa.int64()),
        })

    def in_bucket(group: pa.Table) -> pa.Table:
        """Vectorized banded scan: lexsort both sides by (t, id), ONE
        searchsorted pair gives each left row its qualifying right
        range [lo, hi), and the pair list is built arithmetically
        (repeat + cumsum offsets) — no per-left-row Python loop."""
        import numpy as np
        ids = group["event_id"].to_numpy(zero_copy_only=False)
        ts = group["t"].to_numpy(zero_copy_only=False)
        user = group["key"][0].as_py()
        is_l = pc.equal(group["side"], "l").to_numpy(zero_copy_only=False)
        li = np.flatnonzero(is_l)
        ri = np.flatnonzero(~is_l)
        l_ord = li[np.lexsort((ids[li], ts[li]))]
        r_ord = ri[np.lexsort((ids[ri], ts[ri]))]
        rts = ts[r_ord]
        lo = np.searchsorted(rts, ts[l_ord] - tol_us, side="left")
        hi = np.searchsorted(rts, ts[l_ord] + tol_us, side="right")
        cnt = hi - lo
        tot = int(cnt.sum())
        if not tot:
            return pa.table({
                "user_id": pa.array([], pa.int64()),
                "left_event_id": pa.array([], pa.int64()),
                "right_event_id": pa.array([], pa.int64()),
                "delta_s": pa.array([], pa.int64()),
            })
        within = np.arange(tot) - np.repeat(
            np.r_[0, np.cumsum(cnt)[:-1]], cnt)
        j = np.repeat(lo, cnt) + within          # index into r_ord order
        l_rep = np.repeat(l_ord, cnt)
        return pa.table({
            "user_id": pa.array(np.full(tot, user), pa.int64()),
            "left_event_id": pa.array(ids[l_rep], pa.int64()),
            "right_event_id": pa.array(ids[r_ord[j]], pa.int64()),
            "delta_s": pa.array((ts[l_rep] - rts[j]) // US, pa.int64()),
        })

    bucketed = events_ds.map_batches(bucketize, batch_format="pyarrow")
    return bucketed.groupby(["key", "bucket"]).map_groups(
        in_bucket, batch_format="pyarrow")


def detect_hot_keys(ds, key_col: str, *, frac: int = 16,
                    top_per_batch: int = 64) -> list:
    """Best-effort heavy-key detection for hash_equijoin auto-salting.

    One extra column-pruned pass over the LEFT key column: each batch
    emits its top ``top_per_batch`` exact in-batch counts (a C-speed
    ``pc.value_counts``) plus one batch-size row, the driver sums them,
    and a key is HOT when its summed lower-bound count exceeds
    ``total_rows // frac`` — one key holding more than 1/frac of the
    whole side is the regime where a single bucket group stops fitting
    a worker.  Heuristic by design: a key hiding below every batch's
    top counter is missed, which only costs performance — salting never
    changes join output.  The same pass shape holds at cluster scale
    (per-block partials, KB-scale driver merge).
    """
    import collections

    import numpy as np

    def partial(batch: pa.Table) -> pa.Table:
        vc = pc.value_counts(batch[key_col].combine_chunks())
        vals = vc.field("values")
        cnts = vc.field("counts").to_numpy(zero_copy_only=False)
        if len(cnts) > top_per_batch:
            keep = np.argpartition(-cnts, top_per_batch)[:top_per_batch]
            vals = vals.take(pa.array(keep, pa.int64()))
            cnts = cnts[keep]
        t = pa.table({"v": vals, "c": pa.array(cnts, pa.int64())})
        size_row = pa.table({"v": pa.nulls(1, t.schema.field("v").type),
                             "c": pa.array([-batch.num_rows], pa.int64())})
        return pa.concat_tables([t, size_row])

    totals: collections.Counter = collections.Counter()
    n_total = 0
    for b in ds.map_batches(partial, batch_format="pyarrow") \
               .iter_batches(batch_format="pyarrow"):
        for v, c in zip(b["v"].to_pylist(), b["c"].to_pylist()):
            if v is None and c < 0:
                n_total += -c
            elif v is not None:
                totals[v] += c
    if not totals or n_total == 0:
        return []
    cut = max(1, n_total // frac)
    return sorted(v for v, c in totals.items() if c > cut)


def hash_equijoin(left_ds, right_ds, *, left_on: str, right_on: str,
                  how: str = "inner", hot_keys=None, n_salts: int = 8,
                  n_buckets: int = 1024,
                  coalesce: int | str | None = None):
    """General distributed hash equi-join (inner, left outer, or full
    outer).

    The one relational shape the engine's other joins don't cover:
    both sides are LARGE (broadcast-side joins live in
    kgx/ops/relational.py; temporal joins above).  Shape: each side is
    tagged and projected to (``__key``, a vectorized key-hash
    ``__bucket`` mod ``n_buckets``, own payload columns, the other
    side's columns null-filled), the two streams union, and ONE
    ``groupby(__bucket)`` shuffle co-locates matching keys; each bucket
    group then joins ALL its keys in one fully vectorized pass
    (dictionary-encode keys -> stable sort -> per-segment left/right
    counts -> arithmetic ``take`` index construction), so the Python
    cost is per BUCKET, not per key — grouping directly on ``__key``
    paid one Python call + several Arrow allocations per distinct key
    (measured 16.3 s of task time on the sf0.1 Q5 join; bucketed:
    one call per bucket).

    PARTITIONING ASSUMPTIONS: one bucket's rows (both sides) fit one
    worker — size ``n_buckets`` so total_rows / n_buckets is a
    comfortable block (the default 1024 keeps sf-scale groups tiny;
    raise it at cluster scale) — and payload column names are disjoint
    between sides (raises otherwise).  For skewed keys pass
    ``hot_keys`` (inner joins only): each hot key's LEFT rows spread
    round-robin over ``n_salts`` sub-groups and its RIGHT rows
    replicate into every sub-group, so no single group holds the hot
    key's full cross-product input — the standard salt-and-replicate
    treatment (output is identical; the cross product per key is
    preserved exactly).  Outer joins cannot salt this way (a missing
    hot key would emit its null row once per salt) and raise.  When one
    side fits the object store, the broadcast joins in
    kgx/ops/relational.py are cheaper than any shuffle.

    Output columns: ``left_on`` (the key, left side's name), then the
    left payload, then the right payload (nulls on left-outer misses).

    ``coalesce``: coalesce the tagged union before the bucket shuffle.
    Ray's sort-based groupby materializes B_in x B_out partition
    slices, so when the tagged sides arrive as many TINY blocks (e.g.
    heavily pre-filtered fact residuals: 128 blocks -> 16k slices of
    pure machinery) coalescing to ~ncpu/2 blocks removes seconds of
    fixed cost.  ``"auto"`` uses the size-aware
    :func:`kgx.functions.collect.shuffle_coalesce` (production-size
    tagged blocks are left alone); an int forces that block count;
    ``None`` (the default) skips the extra pass entirely.
    """
    import numpy as np

    if how not in ("inner", "left", "outer"):
        raise ValueError(
            f"how must be 'inner', 'left' or 'outer', got {how!r}")
    if hot_keys is not None and how != "inner":
        raise ValueError("hot_keys salting requires how='inner'")
    if isinstance(hot_keys, str):
        if hot_keys != "auto":
            raise ValueError(f"hot_keys must be a list or 'auto', "
                             f"got {hot_keys!r}")
        # one extra column-pruned pass over the left keys; empty
        # detection falls back to the unsalted plan
        hot_keys = detect_hot_keys(
            left_ds.select_columns([left_on]), left_on)
    hot_set = pa.array(sorted(set(hot_keys))) if hot_keys else None
    l_fields = [(f.name, f.type) for f in left_ds.schema().base_schema
                if f.name != left_on]
    r_fields = [(f.name, f.type) for f in right_ds.schema().base_schema
                if f.name != right_on]
    l_names = [n for n, _ in l_fields]
    r_names = [n for n, _ in r_fields]
    overlap = set(l_names) & set(r_names)
    if overlap:
        raise ValueError(f"payload column collision: {sorted(overlap)}")

    def tag(side: str, key_col: str, own):
        own_names = {name for name, _ in own}

        def fn(batch: pa.Table) -> pa.Table:
            # SQL semantics: a null key never matches.  Drop null-key
            # rows map-side when they cannot appear in the output
            # (both sides for inner; the right side for left outer) so
            # they never shuffle; the survivors (outer-side null rows)
            # are emitted unmatched by join_bucket below.
            if how == "inner" or (how == "left" and side == "r"):
                batch = batch.filter(pc.is_valid(
                    batch[key_col].combine_chunks()))
            n = batch.num_rows
            if hot_set is not None and side == "r":
                # replicate hot right rows once per salt
                is_hot = pc.is_in(batch[key_col], value_set=hot_set) \
                           .to_numpy(zero_copy_only=False)
                cold = np.flatnonzero(~is_hot)
                hot = np.flatnonzero(is_hot)
                take = np.concatenate([cold, np.repeat(hot, n_salts)])
                salt = np.concatenate([
                    np.zeros(len(cold), dtype=np.int64),
                    np.tile(np.arange(n_salts, dtype=np.int64), len(hot)),
                ])
                batch = batch.take(pa.array(take, pa.int64()))
                n = batch.num_rows
            import polars as pl
            kh = pl.from_arrow(batch[key_col].combine_chunks()) \
                   .hash(seed=7).to_numpy()
            cols = {"__key": batch[key_col],
                    "__bucket": pa.array(
                        (kh % np.uint64(n_buckets)).astype(np.int64),
                        pa.int64()),
                    "__side": pa.array([side] * n, pa.string())}
            if hot_set is not None:
                if side == "l":
                    is_hot = pc.is_in(batch[key_col], value_set=hot_set) \
                               .to_numpy(zero_copy_only=False)
                    salt = np.where(
                        is_hot,
                        np.arange(n, dtype=np.int64) % n_salts, 0)
                cols["__salt"] = pa.array(salt, pa.int64())
            # Canonical payload order (left fields then right fields) on
            # BOTH sides, so every block in the union shares one schema —
            # otherwise Ray re-unifies schemas per block pair and warns.
            for name, typ in l_fields + r_fields:
                cols[name] = batch[name] if name in own_names \
                    else pa.nulls(n, typ)
            return pa.table(cols)
        return fn

    tagged = left_ds.map_batches(
        tag("l", left_on, l_fields), batch_format="pyarrow"
    ).union(right_ds.map_batches(
        tag("r", right_on, r_fields), batch_format="pyarrow"))

    out_names = [left_on] + l_names + r_names

    def join_bucket(group: pa.Table) -> pa.Table:
        """Join EVERY key in one bucket group in a single vectorized
        pass: dictionary-encode keys to dense codes, stable-sort rows
        by code (original order preserved within a key), fold per-key
        left/right counts, then build the cross-product take indices
        arithmetically (left-major within each key, exactly like the
        old per-key repeat/tile)."""
        import numpy as np
        n_rows = group.num_rows
        sides = group["__side"].to_numpy(zero_copy_only=False)
        idx = pc.dictionary_encode(group["__key"].combine_chunks()).indices
        if idx.null_count:
            # Null join keys reach here only on the outer side(s) of a
            # left/full-outer join (tag drops the rest map-side).  Give
            # every null-key row its OWN segment so it never matches
            # any row — it then falls out of the miss branches below as
            # an unmatched row, exactly SQL's null-never-equals-null.
            # (The raw float conversion would yield NaN indices whose
            # int64 cast is undefined and silently cross-joins nulls.)
            raw = idx.to_numpy(zero_copy_only=False)
            isnull = np.isnan(raw)
            codes = np.where(isnull, 0, raw).astype(np.int64)
            codes[isnull] = codes.max(initial=-1) + 1 + \
                np.arange(int(isnull.sum()), dtype=np.int64)
        else:
            codes = idx.to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(codes, kind="stable")
        c_s = codes[order]
        l_s = sides[order] == "l"
        seg_id = np.r_[0, np.cumsum(c_s[1:] != c_s[:-1])] \
            if n_rows else np.zeros(0, np.int64)
        nseg = int(seg_id[-1]) + 1 if n_rows else 0
        left_rows = order[l_s]            # grouped by segment, stable
        right_rows = order[~l_s]
        lcounts = np.bincount(seg_id[l_s], minlength=nseg)
        rcounts = np.bincount(seg_id[~l_s], minlength=nseg)
        l_starts = np.r_[0, np.cumsum(lcounts)[:-1]]
        r_starts = np.r_[0, np.cumsum(rcounts)[:-1]]

        parts_l: list[np.ndarray] = []
        parts_r: list[np.ndarray] = []
        # cross part: segments with both sides present
        out_per_seg = lcounts * rcounts
        tot = int(out_per_seg.sum())
        if tot:
            out_start = np.repeat(np.r_[0, np.cumsum(out_per_seg)[:-1]],
                                  out_per_seg)
            within = np.arange(tot) - out_start
            r_rep = np.repeat(rcounts, out_per_seg)
            parts_l.append(left_rows[
                np.repeat(l_starts, out_per_seg) + within // r_rep])
            parts_r.append(right_rows[
                np.repeat(r_starts, out_per_seg) + within % r_rep])
        if how in ("left", "outer"):
            # left rows of keys with no right match: right payload is
            # already null on left-tagged rows, so take the SAME rows
            miss = np.repeat(rcounts == 0, lcounts)
            lm = left_rows[miss]
            parts_l.append(lm)
            parts_r.append(lm)
        if how == "outer":
            miss = np.repeat(lcounts == 0, rcounts)
            rm = right_rows[miss]
            parts_l.append(rm)
            parts_r.append(rm)
        if parts_l:
            take_l = np.concatenate(parts_l)
            take_r = np.concatenate(parts_r)
        else:
            take_l = take_r = np.zeros(0, np.int64)
        lt = group.take(pa.array(take_l, pa.int64()))
        rt = group.take(pa.array(take_r, pa.int64()))
        return pa.table(
            {left_on: lt["__key"],
             **{n: lt[n] for n in l_names},
             **{n: rt[n] for n in r_names}}).select(out_names)

    if coalesce == "auto":
        from kgx.functions.collect import shuffle_coalesce
        tagged = shuffle_coalesce(tagged)
    elif coalesce is not None:
        tagged = tagged.repartition(coalesce)
    group_keys = ["__bucket", "__salt"] if hot_set is not None \
        else "__bucket"
    return tagged.groupby(group_keys).map_groups(
        join_bucket, batch_format="pyarrow")


# -- bloom-filter semi-join ---------------------------------------------

_BLOOM_C1 = 0xBF58476D1CE4E5B9
_BLOOM_C2 = 0x94D049BB133111EB


def _bloom_positions(keys, m_bits: int, n_hashes: int):
    """splitmix64-style bit positions for int64 keys — identical on the
    build and probe sides; uint64 arithmetic wraps (mod 2^64) by design."""
    import numpy as np
    out = []
    x = keys.astype(np.uint64)
    for seed in range(n_hashes):
        with np.errstate(over="ignore"):
            z = x + np.uint64(0x9E3779B97F4A7C15 * (seed + 1) % 2**64)
            z = (z ^ (z >> np.uint64(30))) * np.uint64(_BLOOM_C1)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(_BLOOM_C2)
            z = z ^ (z >> np.uint64(31))
        out.append((z % np.uint64(m_bits)).astype(np.int64))
    return out


def bloom_semijoin(probe_ds, build_ds, *, probe_on: str, build_on: str,
                   m_bits: int = 1 << 20, n_hashes: int = 4):
    """Exact distributed semi-join: probe rows whose int64 key appears in
    the build side, with a Bloom prefilter so non-matching probe rows
    die map-side before any shuffle.

    Shape (all three steps narrow):
      1. BUILD — each build block sets its keys' bits in a fixed-size
         bitmap partial (``m_bits``/8 bytes, independent of row count);
         the driver ORs the per-block bitmaps and broadcasts the result
         once via ``ray.put``.  No build row ever shuffles.
      2. PREFILTER — probe blocks drop every row whose key misses any of
         the ``n_hashes`` bits (no false negatives, bounded false
         positives ~ (1-e^(-kn/m))^k).
      3. VERIFY — Bloom positives are made exact by ONE narrow co-shuffle
         of DISTINCT keys only (per-block unique partials from both
         sides, groupby(key), keep keys seen on both); the verified key
         set — bounded by the smaller side's distinct keys — broadcasts
         back for a vectorized map-side ``is_in``.

    PARTITIONING ASSUMPTION: the verified key INTERSECTION fits the
    object store (the raw build side need not).  For an unbounded
    intersection, replace step 3's broadcast with a second
    groupby(key) carrying the probe payload.
    Returns the probe dataset filtered to matching rows (all columns).
    """
    import numpy as np
    import ray
    from ray.data.aggregate import Max, Min

    from kgx.functions.collect import collect_arrow

    if m_bits % 8:
        raise ValueError("m_bits must be a multiple of 8")

    def build_bitmap(batch: pa.Table) -> pa.Table:
        bm = np.zeros(m_bits // 8, dtype=np.uint8)
        keys = batch[build_on].to_numpy(zero_copy_only=False)
        for pos in _bloom_positions(keys, m_bits, n_hashes):
            np.bitwise_or.at(bm, pos >> 3,
                             np.left_shift(1, pos & 7).astype(np.uint8))
        return pa.table({"bitmap": pa.array([bm.tobytes()], pa.binary())})

    parts = collect_arrow(
        build_ds.map_batches(build_bitmap, batch_format="pyarrow"))
    bitmap = np.zeros(m_bits // 8, dtype=np.uint8)
    if "bitmap" in parts.column_names:      # empty build side: no partials
        for buf in parts["bitmap"].to_pylist():
            bitmap |= np.frombuffer(buf, dtype=np.uint8)
    bref = ray.put(bitmap)

    def prefilter(batch: pa.Table) -> pa.Table:
        bm = ray.get(bref)
        keys = batch[probe_on].to_numpy(zero_copy_only=False)
        ok = np.ones(len(keys), dtype=bool)
        for pos in _bloom_positions(keys, m_bits, n_hashes):
            ok &= (bm[pos >> 3] & np.left_shift(1, pos & 7)
                   .astype(np.uint8)) != 0
        return batch.filter(pa.array(ok))

    survivors = probe_ds.map_batches(prefilter, batch_format="pyarrow")

    def distinct_keys(col: str, side: int):
        def fn(batch: pa.Table) -> pa.Table:
            u = pc.unique(batch[col].combine_chunks().cast(pa.int64()))
            return pa.table({
                "k": u,
                "is_build": pa.array([side] * len(u), pa.int64()),
            })
        return fn

    tagged = survivors.map_batches(
        distinct_keys(probe_on, 0), batch_format="pyarrow"
    ).union(build_ds.map_batches(
        distinct_keys(build_on, 1), batch_format="pyarrow"))
    both = tagged.groupby("k").aggregate(Min("is_build"), Max("is_build"))

    def verified(batch: pa.Table) -> pa.Table:
        # intersection: seen as probe (min 0) AND as build (max 1)
        keep = pc.and_(pc.equal(batch["min(is_build)"].combine_chunks(), 0),
                       pc.equal(batch["max(is_build)"].combine_chunks(), 1))
        return pa.table(
            {"k": batch.filter(keep)["k"].combine_chunks()
                  .cast(pa.int64())})

    vt = collect_arrow(both.map_batches(verified, batch_format="pyarrow"))
    vset = (pc.unique(vt["k"].combine_chunks()) if vt.num_rows
            else pa.array([], pa.int64()))
    vref = ray.put(vset)

    def exact(batch: pa.Table) -> pa.Table:
        mask = pc.is_in(batch[probe_on].combine_chunks().cast(pa.int64()),
                        value_set=ray.get(vref))
        return batch.filter(mask)

    return survivors.map_batches(exact, batch_format="pyarrow")
