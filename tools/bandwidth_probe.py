"""Engine-independent hardware-ceiling probe for the scaling bar.

Runs the headline's EXACT single-core kernel chain (html->text -> chunk
-> extract -> combine, the same functions `bench._calibrate_single_core`
times) in K parallel OS processes with **no Ray, no object store, no
shuffle** — pure multiprocessing over a private in-heap table — and
reports per-core throughput at K = 1, 8, 32.

Why this exists: the north rule's >= 0.8 two-level scaling bar is
measured on a co-tenant VM whose per-core speed DEGRADES with occupancy
(shared memory bandwidth / LLC / host overcommit — invisible to
/proc/stat steal).  When the Ray pipeline's 8->32 efficiency reads
below 0.8, the open question is always "engine or box?".  This probe
answers it in the same window: it has zero engine code in the loop, so
its own 8->32 per-core ratio IS the box's ceiling for this instruction
mix.  An engine reading at-or-above the probe's ceiling means the
pipeline adds no scaling loss of its own.

Measured on this sandbox (2026-08-18, steal < 0.1%): 491 pages/s/core
solo, 339 at K=8, 223 at K=32 -> hardware 8->32 ceiling 0.66.  The Ray
pipeline read 0.73 in the same session — above its own hardware.

Timing is inner-loop only (the chain call), excluding pool startup and
the per-process parquet read, so the number isolates compute-under-
occupancy and nothing else.
"""
from __future__ import annotations

import json
import multiprocessing as mp
import os
import sys
import time

_N_PAGES = 1024
_REPS = 3          # stretch each worker's window so short co-tenant
                   # bursts average the same way they do in a real leg


def _work(args: tuple[str, int]) -> float:
    """Pages/sec this worker actually sustained.  The rate uses the
    slice's REAL row count (``.slice`` clamps silently when the shard is
    smaller than the request, and directory mode hands workers
    different-sized shards), so small corpora can't inflate the
    ceiling."""
    path, n = args
    import pyarrow.parquet as pq

    from kgx.pipelines.kg import (EXTRACTORS, KGConfig, extract_text_batch,
                                  make_chunk_batch_fn, make_task_extractor)
    from kgx.stages.states import make_combine_extracted_fn

    cfg = KGConfig()
    t = pq.read_table(path, columns=["url", "html", "text", "lang"]) \
          .slice(0, n)
    chunk = make_chunk_batch_fn(cfg.chunk_size, cfg.chunk_overlap)
    extract = make_task_extractor(EXTRACTORS[cfg.extractor])
    combine = make_combine_extracted_fn(
        cap=cfg.instance_cap, min_strength=cfg.min_strength)
    combine(extract(chunk(extract_text_batch(t.slice(0, 64)))))   # warm
    t0 = time.perf_counter()
    for _ in range(_REPS):
        combine(extract(chunk(extract_text_batch(t))))
    return t.num_rows / ((time.perf_counter() - t0) / _REPS)


def probe(pages_path: str, levels: tuple[int, ...] = (1, 8, 32),
          n_pages: int = _N_PAGES) -> dict:
    """{level: pages_per_sec_per_core}, plus the derived 8->32 ceiling.

    ``pages_path`` may be one parquet file or the corpus directory; a
    directory hands each concurrent worker a DIFFERENT shard, so the K
    workers stream DISTINCT bytes the way the real pipeline's tasks do
    (K copies of one shared slice understate DRAM pressure — the r5
    honest-ceiling fix)."""
    if os.path.isdir(pages_path):
        files = sorted(os.path.join(pages_path, f)
                       for f in os.listdir(pages_path)
                       if f.endswith(".parquet"))
    else:
        files = [pages_path]
    per_core: dict[str, float] = {}
    for k in levels:
        args = [(files[i % len(files)], n_pages) for i in range(k)]
        with mp.Pool(k) as pool:
            rates = pool.map(_work, args)
        # median per-worker pages/sec across the K concurrent workers
        # (each rate is normalized by that worker's OWN row count)
        rates.sort()
        per_core[str(k)] = round(rates[len(rates) // 2], 1)
    out = {"pages_per_sec_per_core": per_core, "n_pages": n_pages}
    if "8" in per_core and "32" in per_core:
        out["hw_ceiling_8_to_32"] = round(
            per_core["32"] / per_core["8"], 4)
    return out


def main() -> None:
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    from bench import _pages_corpus
    pages_dir = _pages_corpus(300000)
    print(json.dumps(probe(pages_dir)))


if __name__ == "__main__":
    main()
