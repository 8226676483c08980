"""CLI entry points — the ``ray job submit`` surface.

    python -m kgx index  --pages DIR --out DIR [--extractor NAME] [...]
    python -m kgx update --pages DIR --out DIR [--cross-shard-dedup] [...]
    python -m kgx query  --graph DIR --question TEXT [--level N] [--k K]
    python -m kgx export --out DIR --graph-json DIR
    python -m kgx synth  --out DIR --pages N [--seed S] [--filler-scale F]
    python -m kgx curate --sf-dir DIR --out DIR [--lang L] [--seq-len N]
    python -m kgx export-jsonl --sf-dir DIR --out DIR [--seq-len N]
    python -m kgx eval   --out DIR --question Q [--question Q2 ...] [--csv F]
    python -m kgx lineage --out DIR

Mirrors the reference's two entry points (index+query in
/root/reference/graphrag_lite_x.py:151-203, load+query in main.py:120-135)
on the checkpointed pipeline.  The CLI owns the Ray session (scripts
init/shutdown; library code never does).
"""

from __future__ import annotations

import argparse
import json
import sys


def _init_ray(num_cpus: int | None):
    import ray
    if not ray.is_initialized():
        kwargs = {"address": "local", "include_dashboard": False,
                  "logging_level": "ERROR"}
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(**kwargs)


def cmd_index(args) -> int:
    import ray
    from kgx.pipelines.kg import KGConfig, run_pipeline
    _init_ray(args.num_cpus)
    cfg = KGConfig(chunk_size=args.chunk_size,
                   chunk_overlap=args.chunk_overlap,
                   extractor=args.extractor,
                   min_strength=args.min_strength)
    paths = run_pipeline(args.pages, args.out, cfg, resume=not args.no_resume)
    print(json.dumps({"stages": paths}))
    ray.shutdown()
    return 0


def cmd_update(args) -> int:
    """Incremental ingest: extract only the new shard, re-finalize the
    KG over every shard's extraction states (kgx/pipelines/kg.py:
    update_pipeline)."""
    import ray
    from kgx.pipelines.kg import KGConfig, update_pipeline
    _init_ray(args.num_cpus)
    cfg = KGConfig(chunk_size=args.chunk_size,
                   chunk_overlap=args.chunk_overlap,
                   extractor=args.extractor,
                   min_strength=args.min_strength,
                   cross_shard_dedup=args.cross_shard_dedup)
    paths = update_pipeline(args.pages, args.out, cfg,
                            resume=not args.no_resume)
    print(json.dumps({"stages": paths}))
    ray.shutdown()
    return 0


def cmd_export(args) -> int:
    import pyarrow.parquet as pq
    from kgx.stages.community import detect_communities
    from kgx.stages.summarize import summarize_hierarchy
    from kgx.state.graph_io import save_graph_json
    nodes = pq.read_table(f"{args.out}/nodes")
    edges = pq.read_table(f"{args.out}/edges")
    claims = pq.read_table(f"{args.out}/claims")
    hier = detect_communities(nodes, edges)
    summaries = summarize_hierarchy(hier, nodes, edges, claims)
    path = save_graph_json(args.graph_json, nodes, edges, claims,
                           summaries, hier)
    print(json.dumps({"knowledge_graph": path}))
    return 0


def cmd_query(args) -> int:
    from kgx.pipelines.query import answer_question, local_search
    from kgx.state.graph_io import load_graph_json
    tables = load_graph_json(f"{args.graph}/knowledge_graph.json")
    if args.mode == "local":
        ans = local_search(args.question, tables["nodes"],
                           tables["edges"], tables["claims"])
    else:
        from kgx.stages.community import detect_communities
        from kgx.stages.summarize import summarize_hierarchy
        hier = detect_communities(tables["nodes"], tables["edges"])
        summaries = summarize_hierarchy(hier, tables["nodes"],
                                        tables["edges"], tables["claims"])
        ans = answer_question(args.question, summaries, level=args.level,
                              k=args.k)
    print(json.dumps(ans, indent=2))
    return 0


def cmd_synth(args) -> int:
    import ray
    from kgx.synth import write_pages
    _init_ray(args.num_cpus)
    path = write_pages(args.out, args.pages, seed=args.seed,
                       filler_scale=args.filler_scale)
    print(json.dumps({"pages": path}))
    ray.shutdown()
    return 0


def cmd_eval(args) -> int:
    """Comparative GraphRAG-vs-VectorRAG evaluation over an indexed KG —
    the reference's flagship entry point (evaluate_graphrag.py) end to
    end: corpus stats, graph answers (global query path), VectorRAG
    baseline answers over the chunk checkpoint, deterministic judging,
    per-criterion tally + CSV."""
    import ray

    import pyarrow.parquet as pq_
    import ray.data as rd_

    from kgx.baselines.vector_rag import run_vector_rag
    from kgx.evaluation import corpus_stats, evaluate, save_evaluation_to_csv
    from kgx.pipelines.query import answer_question
    from kgx.stages.community import detect_communities
    from kgx.stages.summarize import summarize_hierarchy

    _init_ray(args.num_cpus)
    questions = args.question
    nodes = pq_.read_table(f"{args.out}/nodes")
    edges = pq_.read_table(f"{args.out}/edges")
    claims = pq_.read_table(f"{args.out}/claims")
    hier = detect_communities(nodes, edges)
    summaries = summarize_hierarchy(hier, nodes, edges, claims)
    graph_answers = [answer_question(q, summaries)["answer"]
                     for q in questions]
    chunks = rd_.read_parquet(f"{args.out}/chunks")
    vector_answers = run_vector_rag(chunks, questions, k=args.k)
    stats = corpus_stats(rd_.read_parquet(f"{args.out}/texts"))
    result = evaluate(questions, graph_answers, vector_answers)
    out = {"corpus": stats, "wins": result["wins"]}
    if args.csv:
        out["csv"] = save_evaluation_to_csv(result, args.csv)
    print(json.dumps(out, indent=1))
    ray.shutdown()
    return 0


def cmd_lineage(args) -> int:
    """Print the KG dir's per-stage lineage + manifest summary as JSON
    (pure metadata read — no Ray session needed)."""
    import glob
    import os

    import pyarrow.parquet as pq

    out: dict = {"stages": {}, "shards": {}}

    def stage_summary(root: str) -> dict:
        stages = {}
        for mpath in sorted(glob.glob(os.path.join(root, "*",
                                                   "_MANIFEST.json"))):
            with open(mpath) as f:
                m = json.load(f)
            stages[m["stage"]] = {
                "rows_out": m.get("rows_out"),
                "wall_s": m.get("wall_s"),
                "n_files": len(m.get("files", [])),
                "bytes": sum(rec["bytes"] for rec in m.get("files", [])),
                "finished_at": m.get("finished_at"),
            }
        return stages

    out["stages"] = stage_summary(args.out)
    for sdir in sorted(glob.glob(os.path.join(args.out, "shards", "*"))):
        out["shards"][os.path.basename(sdir)] = stage_summary(sdir)
    lineage = {}
    for lf in sorted(glob.glob(os.path.join(args.out, "lineage",
                                            "*.parquet"))):
        t = pq.read_table(lf)
        lineage[os.path.basename(lf)[:-8]] = {
            "partitions": t.num_rows,
            "rows": sum(t["rows"].to_pylist()),
            "bytes": sum(t["bytes"].to_pylist()),
        }
    out["lineage"] = lineage
    print(json.dumps(out, indent=1, sort_keys=True))
    return 0


def cmd_curate(args) -> int:
    """Write the curated-corpus packing manifest (kgx/pipelines/curate.py)
    as sharded Parquet."""
    import ray
    from kgx.pipelines.curate import curate_corpus
    _init_ray(args.num_cpus)
    ds = curate_corpus(args.sf_dir, lang=args.lang, seq_len=args.seq_len,
                       span_dup_ppm_max=args.span_dup_ppm_max)
    ds.write_parquet(args.out)
    n = ds.count()
    print(json.dumps({"out": args.out, "docs_packed": n}))
    ray.shutdown()
    return 0


def cmd_export_jsonl(args) -> int:
    """Curate + pack + write sharded JSONL with the resume manifest
    (kgx/sinks.py) — the training-data export path."""
    import ray
    from kgx.sinks import export_curated_jsonl
    _init_ray(args.num_cpus)
    m = export_curated_jsonl(args.sf_dir, args.out, seq_len=args.seq_len)
    print(json.dumps({"out": args.out, "n_rows": m["n_rows"],
                      "n_files": m["n_files"]}))
    ray.shutdown()
    return 0


def main(argv=None) -> int:
    from kgx.pipelines.kg import EXTRACTORS
    p = argparse.ArgumentParser(prog="kgx")
    sub = p.add_subparsers(dest="cmd", required=True)

    pi = sub.add_parser("index")
    pi.add_argument("--pages", required=True)
    pi.add_argument("--out", required=True)
    pi.add_argument("--extractor", default="gazetteer",
                    choices=sorted(EXTRACTORS))
    pi.add_argument("--chunk-size", type=int, default=200)
    pi.add_argument("--chunk-overlap", type=int, default=50)
    pi.add_argument("--min-strength", type=float, default=0.5)
    pi.add_argument("--no-resume", action="store_true")
    pi.add_argument("--num-cpus", type=int, default=None)
    pi.set_defaults(fn=cmd_index)

    pu = sub.add_parser("update")
    pu.add_argument("--pages", required=True, help="NEW page shard")
    pu.add_argument("--out", required=True, help="existing KG dir")
    pu.add_argument("--extractor", default="gazetteer",
                    choices=sorted(EXTRACTORS))
    pu.add_argument("--chunk-size", type=int, default=200)
    pu.add_argument("--chunk-overlap", type=int, default=50)
    pu.add_argument("--min-strength", type=float, default=0.5)
    pu.add_argument("--cross-shard-dedup", action="store_true")
    pu.add_argument("--no-resume", action="store_true")
    pu.add_argument("--num-cpus", type=int, default=None)
    pu.set_defaults(fn=cmd_update)

    pe = sub.add_parser("export")
    pe.add_argument("--out", required=True, help="pipeline output dir")
    pe.add_argument("--graph-json", required=True, help="export dir")
    pe.set_defaults(fn=cmd_export)

    pq_ = sub.add_parser("query")
    pq_.add_argument("--graph", required=True, help="export dir")
    pq_.add_argument("--question", required=True)
    pq_.add_argument("--level", type=int, default=0)
    pq_.add_argument("--k", type=int, default=10)
    pq_.add_argument("--mode", default="global",
                     choices=["global", "local"],
                     help="global = community-summary map-reduce; "
                          "local = entity-centric subgraph expansion")
    pq_.set_defaults(fn=cmd_query)

    ps = sub.add_parser("synth")
    ps.add_argument("--out", required=True)
    ps.add_argument("--pages", type=int, required=True)
    ps.add_argument("--seed", type=int, default=42)
    ps.add_argument("--filler-scale", type=int, default=1)
    ps.add_argument("--num-cpus", type=int, default=None)
    ps.set_defaults(fn=cmd_synth)

    pv = sub.add_parser("eval")
    pv.add_argument("--out", required=True, help="KG pipeline output dir")
    pv.add_argument("--question", action="append", required=True,
                    help="repeatable")
    pv.add_argument("--k", type=int, default=5)
    pv.add_argument("--csv", default=None)
    pv.add_argument("--num-cpus", type=int, default=None)
    pv.set_defaults(fn=cmd_eval)

    pl = sub.add_parser("lineage")
    pl.add_argument("--out", required=True, help="KG pipeline output dir")
    pl.set_defaults(fn=cmd_lineage)

    pc_ = sub.add_parser("curate")
    pc_.add_argument("--sf-dir", required=True,
                     help="dir holding documents.parquet")
    pc_.add_argument("--out", required=True)
    pc_.add_argument("--lang", default="en")
    pc_.add_argument("--seq-len", type=int, default=2048)
    pc_.add_argument("--span-dup-ppm-max", type=int, default=None,
                     help="drop docs whose repeated-span fraction (ppm) "
                          "exceeds this (off by default)")
    pc_.add_argument("--num-cpus", type=int, default=None)
    pc_.set_defaults(fn=cmd_curate)

    px = sub.add_parser("export-jsonl")
    px.add_argument("--sf-dir", required=True,
                    help="dir holding documents.parquet")
    px.add_argument("--out", required=True)
    px.add_argument("--seq-len", type=int, default=2048)
    px.add_argument("--num-cpus", type=int, default=None)
    px.set_defaults(fn=cmd_export_jsonl)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
