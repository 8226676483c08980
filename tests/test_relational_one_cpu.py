"""Relational queries must finish on a one-CPU Ray session, and the
ones built only on kgx.functions.fold even under
``ShuffleStrategy.HASH_SHUFFLE``.

A keyed Ray ``groupby`` hangs at one CPU under the hash shuffle, and a
``Union`` over a lazy sort branch did not finish at one CPU under either
strategy.  The queries below cover both shapes: grouping sets built from
one keyed sum (cube, rollup), a sum-plus-max keyed merge (shipping) and
a co-shuffle join fed by a keyed sum (outer join).  The outer join runs
under the sort shuffle: its ``kgx.ops.joins.hash_equijoin`` still
co-locates keys with a Ray ``groupby``.  They run in a fresh process, so
the one-CPU session and the strategies stay out of the suite's own
session, and under a timeout, so a hang fails the test instead of
stalling the suite.
"""

import os
import signal
import subprocess
import sys

import pytest
from test_oracle_parity import SF_DIR

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
QUERIES = {"rel_cube": "HASH_SHUFFLE", "rel_rollup": "HASH_SHUFFLE",
           "rel_shipping": "HASH_SHUFFLE",
           "rel_outerjoin": "SORT_SHUFFLE_PULL_BASED"}
TIMEOUT_S = 180

SCRIPT = r"""
import sys

import duckdb
import ray
from ray.data import DataContext
from ray.data.context import ShuffleStrategy

sys.path[:0] = [".", "tools"]
import __ray_entry__ as e
from oracle_check import TABLES, canon, to_pandas

sf = sys.argv[1]
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
ctx = DataContext.get_current()
ctx.enable_progress_bars = False
con = duckdb.connect()
for t in TABLES:
    con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{sf}/{t}.parquet'")
for arg in sys.argv[2:]:
    name, strategy = arg.split("=")
    ctx.shuffle_strategy = ShuffleStrategy[strategy]
    got = canon(to_pandas(e.queries()[name](sf)))
    want = canon(con.sql(e.oracle_sql()[name]).df())
    print(name, "ok" if got == want else f"MISMATCH {got} {want}",
          flush=True)
ray.shutdown()
"""


def run_at_one_cpu(queries: dict[str, str], script: str = SCRIPT
                   ) -> list[str]:
    """Run ``{query: shuffle strategy}`` in one fresh one-CPU process;
    its output lines, ``"<query> ok"`` for a match with the oracle.
    ``script`` takes the testdata directory and ``query=strategy``
    arguments, as ``SCRIPT`` does."""
    proc = subprocess.Popen(
        [sys.executable, "-c", script, SF_DIR,
         *(f"{q}={s}" for q, s in queries.items())], cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        out, err = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)   # the child's Ray cluster too
        out, _ = proc.communicate()
        pytest.fail(f"not finished in {TIMEOUT_S} s; done: {out!r}")
    assert proc.returncode == 0, err[-3000:]
    return out.splitlines()


def test_relational_finishes_at_one_cpu():
    assert run_at_one_cpu(QUERIES) == [f"{q} ok" for q in QUERIES]
