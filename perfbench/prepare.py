"""Workload sizes, input generation and the cached oracle tables.

Run as a script by ``run.py`` (one child process per run)::

    python3 perfbench/prepare.py <workload> <seed> <scale> <trace> <tmp>

It writes the run's inputs under ``<tmp>`` (``pages/``, ``warmup/`` and,
for ``ckpt_refresh``, ``refresh/``) and makes sure the sequential oracle's
tables for this workload and seed exist under ``.perfbench_cache/``.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

# spec first: it puts the repository root on the paths kgx is found by
from spec import ORACLE_KEYS, WARMUP_PAGES, cache_path, sizes

import pyarrow as pa  # noqa: E402
import pyarrow.parquet as pq  # noqa: E402

from kgx.oracle import run_oracle  # noqa: E402

import inputs  # noqa: E402


def load_oracle(workload: str, seed: int, scale: float,
                name: str = "main") -> tuple[dict, float]:
    """The cached oracle tables and the oracle's wall time."""
    d = os.path.join(cache_path(workload, seed, scale), name)
    with open(os.path.join(d, "wall_s.json")) as f:
        wall = json.load(f)
    return ({k: pq.read_table(os.path.join(d, f"{k}.parquet"))
             for k in ORACLE_KEYS}, wall)


def _write_oracle(pages: pa.Table, extractor: str, dest: str) -> None:
    t0 = time.perf_counter()
    tables = run_oracle(pages, extractor=extractor)
    wall = time.perf_counter() - t0
    os.makedirs(dest)
    for name, tbl in tables.items():
        pq.write_table(tbl, os.path.join(dest, f"{name}.parquet"))
    with open(os.path.join(dest, "wall_s.json"), "w") as f:
        json.dump(wall, f)


def prepare(workload: str, seed: int, scale: float, trace: bool,
            tmp: str) -> None:
    spec = sizes(workload, scale)
    ex = spec["extractor"]
    if ex == "term":
        pages = inputs.term_pages(spec["pages"], spec["tokens"],
                                  spec["vocab"], seed)
        warm = inputs.term_pages(WARMUP_PAGES, spec["tokens"], spec["vocab"],
                                 f"{seed}.warmup")
    else:
        pages = inputs.web_pages(spec["pages"], seed)
        warm = inputs.web_pages(WARMUP_PAGES, f"{seed}.warmup")
    inputs.write_shards(pages, os.path.join(tmp, "pages"), 8)
    inputs.write_shards(warm, os.path.join(tmp, "warmup"), 2)
    # "main" is the gate's reference for the run's final output; "base"
    # checks the traced streaming chain over the ckpt_refresh base.
    oracles = {"main": pages}
    if spec["kind"] == "ckpt":
        refresh = inputs.refresh_pages(spec["pages"], spec["recrawl"],
                                       spec["new"], seed)
        inputs.write_shards(refresh, os.path.join(tmp, "refresh"), 4)
        oracles = {"main": inputs.newest_snapshot_union(pages, refresh)}
        if trace:
            oracles["base"] = pages
    cache = cache_path(workload, seed, scale)
    for name, tbl in oracles.items():
        dest = os.path.join(cache, name)
        if os.path.exists(os.path.join(dest, "wall_s.json")):
            continue
        part = f"{dest}.{os.getpid()}.part"
        shutil.rmtree(part, ignore_errors=True)
        _write_oracle(tbl, ex, part)
        shutil.rmtree(dest, ignore_errors=True)
        os.replace(part, dest)


if __name__ == "__main__":
    w, s, x, t, tmp_dir = sys.argv[1:]
    prepare(w, int(s), float(x), bool(int(t)), tmp_dir)
