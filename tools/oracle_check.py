"""Local stand-in for the driver's correctness gate: run every queries()
entry at a given sf dir, run its oracle_sql() in DuckDB over the same
parquet tables, and compare row count, schema width and an
order-insensitive value hash.  Each line ends with the query's Ray
wall time (building and collecting its result; the oracle is not
timed).  Usage:

    python tools/oracle_check.py [sf_dir] [query ...]
"""

from __future__ import annotations

import hashlib
import sys
import time

import duckdb
import pandas as pd
import ray

sys.path.insert(0, ".")

TABLES = ("region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings")


def to_pandas(res) -> pd.DataFrame:
    if isinstance(res, pd.DataFrame):
        return res
    if hasattr(res, "to_pandas"):
        return res.to_pandas()
    raise TypeError(type(res))


def canon(df: pd.DataFrame) -> tuple[int, list, str]:
    df = df[sorted(df.columns)]
    rows = sorted(
        tuple(str(v) for v in row) for row in df.itertuples(index=False))
    h = hashlib.sha1("\n".join("|".join(r) for r in rows).encode()).hexdigest()
    return len(df), sorted(df.columns), h


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    import __ray_entry__ as e

    ray.init(address="local", num_cpus=8, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")

    qs, oracles = e.queries(), e.oracle_sql()
    n_fail = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.perf_counter()
        try:
            mine = to_pandas(fn(sf_dir))
        except Exception as exc:  # noqa: BLE001
            print(f"FAIL {name}: ray error {type(exc).__name__}: {exc} "
                  f"[{time.perf_counter() - t0:.2f} s]")
            n_fail += 1
            continue
        wall = f"[{time.perf_counter() - t0:.2f} s]"
        sql = oracles.get(name)
        if sql is None:
            print(f"ok   {name}: rows-only ({len(mine)} rows) {wall}")
            continue
        try:
            ref = con.sql(sql).df()
        except Exception as exc:  # noqa: BLE001
            print(f"FAIL {name}: sql error {exc} {wall}")
            n_fail += 1
            continue
        nm, cm, hm = canon(mine)
        nr, cr, hr = canon(ref)
        if (nm, cm, hm) == (nr, cr, hr):
            print(f"PASS {name}: {nm} rows {wall}")
        else:
            n_fail += 1
            print(f"FAIL {name}: rows {nm} vs {nr}; cols {cm} vs {cr}; "
                  f"hash {'==' if hm == hr else '!='} {wall}")
    ray.shutdown()
    return 1 if n_fail else 0


if __name__ == "__main__":
    raise SystemExit(main())
