"""The traced run: the chain ``stream_kg`` builds, one layer at a time.

Each layer is the program's own public function, applied to the
previous layer's materialized output and materialized itself, so its
wall time, process-tree CPU time, rows and bytes are measured from
outside the program.  Materializing between layers breaks the fusion
``stream_kg`` gets, which is what ``trace.overhead_s`` reports.
"""

from __future__ import annotations

import pickle
import time

import ray
import ray.data as rd

from kgx.functions.collect import collect_arrow
from kgx.pipelines.kg import (EXTRACTORS, KGConfig, extract_text_batch,
                              make_chunk_batch_fn)
from kgx.stages.edges import build_alias_map
from kgx.stages.extract import make_task_extractor
from kgx.stages.states import (edges_from_states, make_combine_extracted_fn,
                               nodes_from_states)

import proc

STREAM_LAYERS = ("read", "text", "chunk", "extract", "combine",
                 "repartition", "nodes", "alias", "edges")


class _Layers:
    def __init__(self):
        self.metrics: dict[str, float] = {}

    def run(self, name: str, fn):
        cpu0, t0 = proc.tree_cpu(), time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
        cpu = proc.cpu_delta(cpu0, proc.tree_cpu())
        if isinstance(out, tuple):          # (alias map, its object ref)
            rows, nbytes = len(out[0]), len(pickle.dumps(out[0]))
        else:
            rows, nbytes = out.count(), out.size_bytes()
        self.metrics.update({f"{name}.wall_s": wall, f"{name}.cpu_s": cpu,
                             f"{name}.rows_out": rows,
                             f"{name}.bytes_out": nbytes})
        return out


def traced_stream_kg(pages_path: str, cfg: KGConfig):
    """Run the ``stream_kg`` chain layer by layer.  Returns
    ``(metrics, nodes_table, edges_table, wall_s)``."""
    ncpu = int(ray.cluster_resources().get("CPU", 4))
    rd.DataContext.get_current().read_op_min_num_blocks = \
        min(200, max(2 * ncpu, 16))
    lay = _Layers()
    t0 = time.perf_counter()
    ds = lay.run("read", lambda: rd.read_parquet(
        pages_path, columns=["url", "html", "text", "lang"],
        override_num_blocks=4 * ncpu).materialize())
    ds = lay.run("text", lambda: ds.map_batches(
        extract_text_batch, batch_format="pyarrow").materialize())
    ds = lay.run("chunk", lambda: ds.map_batches(
        make_chunk_batch_fn(cfg.chunk_size, cfg.chunk_overlap),
        batch_format="pyarrow").materialize())
    ds = lay.run("extract", lambda: ds.map_batches(
        make_task_extractor(EXTRACTORS[cfg.extractor]),
        batch_format="pyarrow",
        batch_size=cfg.extract_batch_size).materialize())
    ds = lay.run("combine", lambda: ds.map_batches(
        make_combine_extracted_fn(n_salts=cfg.n_salts, cap=cfg.instance_cap,
                                  min_strength=cfg.min_strength),
        batch_format="pyarrow", batch_size=None).materialize())
    states = lay.run("repartition",
                     lambda: ds.repartition(max(8, ncpu)).materialize())
    nodes = lay.run("nodes", lambda: nodes_from_states(
        states, cap=cfg.instance_cap).materialize())

    def alias_layer():
        amap = build_alias_map(collect_arrow(
            nodes.select_columns(["entity_id", "name", "aliases"])))
        return amap, ray.put(amap)
    alias_ref = lay.run("alias", alias_layer)[1]
    edges = lay.run("edges", lambda: edges_from_states(
        states, alias_ref, cap=cfg.instance_cap).materialize())
    wall = time.perf_counter() - t0
    return lay.metrics, collect_arrow(nodes), collect_arrow(edges), wall
