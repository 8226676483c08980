"""Timed builds, the traced run and the correctness gate.

Called by ``run.py`` once the inputs are prepared: :func:`run` makes one
Ray session, times the workload's builds in it, compares every output
with the oracle outside the timers, and returns the metrics.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import time
import traceback

# spec first: it puts the repository root on the paths kgx is found by
from spec import ORACLE_KEYS, log, sizes

import pyarrow as pa  # noqa: E402
import pyarrow.parquet as pq  # noqa: E402

from kgx.pipelines.kg import (KGConfig, run_pipeline, stream_kg,  # noqa: E402
                              update_pipeline)

import proc  # noqa: E402
from prepare import load_oracle  # noqa: E402

OP_LIMIT_S = 90          # one build or update; longer counts as a hang
RUN_LIMIT_S = 170        # the whole run, preparation included
CKPT_STAGES = ("texts", "chunks", "extracted", "nodes", "edges", "claims")


# --------------------------------------------------------------------------
# the correctness gate
# --------------------------------------------------------------------------

def table_matches(got: pa.Table, want: pa.Table, keys: list) -> bool:
    """Exact equality up to row order (sorted by the oracle's key)."""
    if got.num_rows != want.num_rows or \
            set(got.column_names) != set(want.column_names):
        return False
    try:
        got = got.select(want.column_names).cast(want.schema)
    except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
        return False
    order = [(k, "ascending") for k in keys]
    return got.sort_by(order).equals(want.sort_by(order))


def edge_pr(got: pa.Table, want: pa.Table) -> tuple[float, float]:
    def triples(t):
        return set(zip(t["subj_id"].to_pylist(), t["pred"].to_pylist(),
                       t["obj_id"].to_pylist()))
    g, w = triples(got), triples(want)
    hit = len(g & w)
    return (hit / len(g) if g else 0.0, hit / len(w) if w else 0.0)


def gate(got: dict, want: dict, fault: bool = False) -> dict:
    """Compare every table in ``got`` with the oracle; returns
    ``{"ok", "precision", "recall"}``.  ``fault`` drops one edge first —
    the self-test's check that a corrupted output is caught."""
    if fault:
        got = dict(got, edges=got["edges"].slice(1))
    ok = all(table_matches(got[k], want[k], ORACLE_KEYS[k]) for k in got)
    p, r = edge_pr(got["edges"], want["edges"])
    if not ok:
        log("correctness gate: output differs from the oracle")
    return {"ok": ok, "precision": p, "recall": r}


# --------------------------------------------------------------------------
# Ray session, operation guard
# --------------------------------------------------------------------------

class OpTimeout(BaseException):
    """Raised in the main thread when an operation exceeds its limit.
    A BaseException so that no ``except Exception`` inside a library
    swallows it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


class Run:
    """State of one benchmark run: limits, operation counts, session."""

    def __init__(self, args, tmp: str, t_start: float):
        self.args = args
        self.tmp = tmp
        self.t_start = t_start
        self.attempted = 0
        self.failed = 0
        signal.signal(signal.SIGALRM, _on_alarm)

    def op(self, name: str, fn):
        """Run one guarded operation; returns ``(ok, value, wall_s)``."""
        self.attempted += 1
        left = RUN_LIMIT_S - (time.monotonic() - self.t_start) - 10
        limit = min(OP_LIMIT_S, left)
        if limit <= 0:
            log(f"{name}: no time left in the run")
            self.failed += 1
            return False, None, 0.0
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            value = fn()
        except OpTimeout:
            log(f"{name}: exceeded {limit:.0f} s")
            self.failed += 1
            return False, None, time.perf_counter() - t0
        except Exception:
            log(f"{name}: failed\n{traceback.format_exc()}")
            self.failed += 1
            return False, None, time.perf_counter() - t0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return True, value, time.perf_counter() - t0

    def check(self, result: dict) -> None:
        if not result["ok"]:
            self.failed += 1

    def start_ray(self) -> None:
        import logging

        import ray
        from ray.data import DataContext
        from ray.data.context import ShuffleStrategy
        ray.init(address="local", num_cpus=self.args.num_cpus,
                 include_dashboard=False, logging_level="ERROR",
                 log_to_driver=False, object_store_memory=768 << 20,
                 _temp_dir=os.path.join(self.tmp, "ray"))
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)
        if ctx.shuffle_strategy != ShuffleStrategy(self.args.shuffle):
            raise RuntimeError(f"Ray Data shuffle strategy is "
                               f"{ctx.shuffle_strategy.value}, expected "
                               f"{self.args.shuffle}")

    def stop_ray(self) -> None:
        import ray
        if not ray.is_initialized():
            return
        tree = proc.identities(proc.descendants())
        ray.shutdown()
        killed = proc.reap(tree)
        if killed:
            log(f"killed {killed} process(es) left after ray.shutdown()")


def du(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

def kg_config(spec: dict) -> KGConfig:
    if spec["kind"] == "ckpt":
        return KGConfig(extractor=spec["extractor"], supersede_recrawls=True)
    return KGConfig(extractor=spec["extractor"])


def stream_build(pages: str, cfg: KGConfig, out: str) -> None:
    """One full streaming build: nodes and edges consumed by writing
    them as Parquet."""
    kg = stream_kg(pages, cfg)
    kg["nodes"].write_parquet(os.path.join(out, "nodes"))
    kg["edges"].write_parquet(os.path.join(out, "edges"))


def read_stream_output(out: str) -> dict:
    return {k: pq.read_table(os.path.join(out, k))
            for k in ("nodes", "edges")}


def read_ckpt_output(paths: dict) -> dict:
    return {k: pq.read_table(paths[k]) for k in ORACLE_KEYS}


def setup(run: Run, spec: dict, cfg: KGConfig):
    """Ray session start plus one warm-up build on the small input."""
    warm_in = os.path.join(run.tmp, "warmup")
    warm_out = os.path.join(run.tmp, "warm")

    def go():
        run.start_ray()
        if spec["kind"] == "ckpt":
            run_pipeline(warm_in, warm_out, cfg)
        else:
            stream_build(warm_in, cfg, warm_out)
    return run.op("setup", go)


def e2e(run: Run, spec: dict, want: dict) -> dict:
    """One setup, then a fixed number of full builds in that session."""
    cfg = kg_config(spec)
    ckpt = spec["kind"] == "ckpt"
    pages = os.path.join(run.tmp, "pages")
    refresh = os.path.join(run.tmp, "refresh")
    n_timed = spec["pages"] + spec.get("recrawl", 0) + spec.get("new", 0)
    reps = max(1, round(run.args.seconds / spec["rep_s"]))
    s = {k: [] for k in ("build", "update", "cpu", "disk")}
    outs = []
    try:
        ok, _, setup_wall = setup(run, spec, cfg)
        if not ok:
            return {}
        for rep in range(reps):
            out = os.path.join(run.tmp, f"out{rep}")
            cpu0 = proc.tree_cpu()
            if ckpt:
                ok, _, build_wall = run.op(
                    f"build {rep}", lambda: run_pipeline(pages, out, cfg))
                if ok:
                    ok, paths, update_wall = run.op(
                        f"update {rep}",
                        lambda: update_pipeline(refresh, out, cfg))
            else:
                ok, _, build_wall = run.op(
                    f"build {rep}", lambda: stream_build(pages, cfg, out))
                # stream_kg has no incremental path: an update rebuilds
                paths, update_wall = None, build_wall
            if not ok:
                continue
            s["cpu"].append(proc.cpu_delta(cpu0, proc.tree_cpu()))
            s["build"].append(build_wall)
            s["update"].append(update_wall)
            s["disk"].append(du(out))
            outs.append((out, paths))
            log(f"rep {rep}: build {build_wall:.3f} s, update "
                f"{update_wall:.3f} s, cpu {s['cpu'][-1]:.2f} s")
        rss = proc.peak_rss_mb(proc.descendants())
    finally:
        run.stop_ray()
    if not outs:
        return {}
    p, r = [], []
    for out, paths in outs:
        res = gate(read_ckpt_output(paths) if ckpt
                   else read_stream_output(out), want,
                   fault=run.args.inject_fault)
        run.check(res)
        p.append(res["precision"])
        r.append(res["recall"])
    med = statistics.median
    return {
        "pages_per_s": (spec["pages"] / med(s["build"]), "page/s"),
        "update_s": (med(s["update"]), "s"),
        "cpu_s_per_kpage": (med(s["cpu"]) / (n_timed / 1000), "s"),
        "peak_rss_mb": (rss, "MB"),
        "disk_bytes": (med(s["disk"]), "B"),
        "triple_precision": (min(p), "ratio"),
        "triple_recall": (min(r), "ratio"),
        "setup_s": (setup_wall, "s"),
    }


def stage_metrics(prefix: str, dirs: dict) -> dict:
    """``{prefix}.{stage}.{wall_s,rows_out,bytes}`` from each stage's
    ``_MANIFEST.json``."""
    out = {}
    for stage, d in dirs.items():
        with open(os.path.join(d, "_MANIFEST.json")) as f:
            m = json.load(f)
        out[f"{prefix}.{stage}.wall_s"] = (m["wall_s"], "s")
        out[f"{prefix}.{stage}.rows_out"] = (m["rows_out"], "rows")
        out[f"{prefix}.{stage}.bytes"] = (
            sum(f["bytes"] for f in m["files"]), "B")
    return out


def traced(run: Run, spec: dict) -> dict:
    """One setup, one untraced streaming build, the traced chain over the
    same pages, and on ``ckpt_refresh`` a build + update whose stage
    manifests give the checkpoint layers."""
    from layers import STREAM_LAYERS, traced_stream_kg

    a = run.args
    cfg = kg_config(spec)
    stream_cfg = KGConfig(extractor=spec["extractor"])
    pages = os.path.join(run.tmp, "pages")
    ckpt = spec["kind"] == "ckpt"
    want, oracle_wall = load_oracle(a.workload, a.seed, a.scale)
    stream_want = (load_oracle(a.workload, a.seed, a.scale, "base")[0]
                   if ckpt else want)
    metrics = {}
    for name in STREAM_LAYERS:
        metrics.update({f"{name}.wall_s": (0.0, "s"),
                        f"{name}.cpu_s": (0.0, "s"),
                        f"{name}.rows_out": (0, "rows"),
                        f"{name}.bytes_out": (0, "B")})
    for prefix in ("build", "update"):
        for stage in CKPT_STAGES:
            metrics.update({f"{prefix}.{stage}.wall_s": (0.0, "s"),
                            f"{prefix}.{stage}.rows_out": (0, "rows"),
                            f"{prefix}.{stage}.bytes": (0, "B")})
    metrics.update({"update.other_s": (0.0, "s"),
                    "trace.overhead_s": (0.0, "s"),
                    "trace.wall_s": (0.0, "s")})
    try:
        ok, _, _ = setup(run, spec, cfg)
        if not ok:
            return {}
        plain_out = os.path.join(run.tmp, "plain")
        ok, _, plain_wall = run.op(
            "untraced build", lambda: stream_build(pages, stream_cfg,
                                                   plain_out))
        if ok:
            run.check(gate(read_stream_output(plain_out), stream_want,
                           fault=a.inject_fault))
        ok, res, _ = run.op("traced build",
                            lambda: traced_stream_kg(pages, stream_cfg))
        if ok:
            layers, nodes, edges, wall = res
            run.check(gate({"nodes": nodes, "edges": edges}, stream_want,
                           fault=a.inject_fault))
            for k, v in layers.items():
                unit = ("s" if k.endswith("_s") else
                        "rows" if k.endswith(".rows_out") else "B")
                metrics[k] = (v, unit)
            metrics["trace.overhead_s"] = (wall - plain_wall, "s")
            metrics["trace.wall_s"] = (wall, "s")
        if ckpt:
            out = os.path.join(run.tmp, "ckpt")
            ok, _, _ = run.op("build", lambda: run_pipeline(pages, out, cfg))
            if ok:
                metrics.update(stage_metrics("build", {
                    s: os.path.join(out, s) for s in CKPT_STAGES}))
                ok, paths, update_wall = run.op(
                    "update", lambda: update_pipeline(
                        os.path.join(run.tmp, "refresh"), out, cfg))
            if ok:
                run.check(gate(read_ckpt_output(paths), want,
                               fault=a.inject_fault))
                upd = stage_metrics("update", {
                    s: os.path.join(paths["shard"] if s in CKPT_STAGES[:3]
                                    else out, s) for s in CKPT_STAGES})
                metrics.update(upd)
                metrics["update.other_s"] = (update_wall - sum(
                    v for k, (v, _) in upd.items() if k.endswith(".wall_s")),
                    "s")
    finally:
        run.stop_ray()
    metrics["oracle.wall_s"] = (oracle_wall, "s")
    return metrics


def run(args, tmp: str, t_start: float) -> tuple[dict, int, int]:
    """Measure one run; returns ``(metrics, attempted, failed)``."""
    r = Run(args, tmp, t_start)
    workload = sizes(args.workload, args.scale)
    if args.trace:
        metrics = traced(r, workload)
    else:
        metrics = e2e(r, workload, load_oracle(args.workload, args.seed,
                                               args.scale)[0])
    return metrics, r.attempted, r.failed
