"""``kg_synth_nodes`` must finish on a one-CPU Ray session and equal the
sequential oracle's nodes on the same synthetic pages.

The query hosts ``GazetteerExtractor`` in plain tasks
(``make_task_extractor``), as the KG pipeline does.  On an actor pool of
its own, each actor holding a CPU, it took 22-23 s for its 300 pages at
one CPU.  It runs in one fresh process (as in
``test_relational_one_cpu``), so only one extra Ray session runs next to
the suite's, under a timeout, so a hang fails the test instead of
stalling the suite.  The query has no DuckDB oracle; ``run_oracle``
over the same pages is its reference.
"""

from test_relational_one_cpu import run_at_one_cpu

SCRIPT = r"""
import sys

import pyarrow.parquet as pq
import ray
from ray.data import DataContext
from ray.data.context import ShuffleStrategy

sys.path[:0] = [".", "tools"]
import __ray_entry__ as e
from kgx.oracle import run_oracle
from kgx.synth import write_pages
from oracle_check import canon, to_pandas

sf = sys.argv[1]
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
ctx = DataContext.get_current()
ctx.enable_progress_bars = False
for arg in sys.argv[2:]:
    name, strategy = arg.split("=")
    ctx.shuffle_strategy = ShuffleStrategy[strategy]
    got = to_pandas(e.queries()[name](sf))
    # the query's corpus: write_pages is cached and idempotent
    pages = pq.read_table(write_pages("/tmp/kgx_entry_synth", 300, seed=11))
    want = run_oracle(pages)["nodes"].select(list(got.columns)).to_pandas()
    print(name, "ok" if len(got) and canon(got) == canon(want)
          else f"MISMATCH {canon(got)} {canon(want)}", flush=True)
ray.shutdown()
"""


def test_synth_nodes_finish_at_one_cpu():
    assert run_at_one_cpu({"kg_synth_nodes": "SORT_SHUFFLE_PULL_BASED"},
                          SCRIPT) == ["kg_synth_nodes ok"]
