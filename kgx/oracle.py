"""Sequential single-process oracle of the full KG pipeline.

Reference-faithful sequential implementation (the execution shape of
/root/reference/indexing/simple_graph_builder.py:50-152 — everything in
driver memory, one pass) using the SAME pure functions and merge semantics
as the Ray pipeline, except where a batch kernel has a sequential twin
here (``text_reference``: stdlib ``html.parser`` without the regex fast
path of ``extract_text``; ``gazetteer_reference``: the per-chunk
sentence loop that ``GazetteerExtractor`` runs in Arrow).  The e2e test asserts the
distributed pipeline's nodes/edges/claims tables are exactly equal to
this oracle's — i.e. the shuffles, sorted-block folds, in-batch
combining and broadcast join change nothing — and both score P/R >= 0.95
against the planted truth sidecar.
"""

from __future__ import annotations

import pyarrow as pa

from kgx.functions.chunker import chunk_text
from kgx.functions.html_text import _decode, _extract_stdlib
from kgx.functions.normalize import claim_id, edge_id, entity_id, normalize
from kgx.stages.canonicalize import (NODES_SCHEMA, _argmax_count,
                                     _cap_instances, _new_state, merge_states)
from kgx.stages.edges import CLAIMS_SCHEMA, EDGES_SCHEMA
from kgx.stages.extract import (_SENT_SPLIT, _WORD_RE, GazetteerExtractor,
                                TermExtractor, _Rows)


def run_oracle(pages: pa.Table, *, chunk_size=200, chunk_overlap=50,
               min_strength=0.5, extractor: str = "gazetteer",
               lang_filter: str | None = None,
               instance_cap: int = 200) -> dict[str, pa.Table]:
    """pages Arrow table -> {"nodes","edges","claims"} Arrow tables."""
    # texts + chunks, sequentially
    chunks = []
    for row in pages.to_pylist():
        if lang_filter and row["lang"] != lang_filter:
            continue
        text = (row["text"] if row["text"] is not None
                else text_reference(row["html"]))
        chunks.extend(chunk_text(text, row["url"], chunk_size, chunk_overlap))

    chunk_tbl = pa.table({
        "url": pa.array([c["url"] for c in chunks], pa.string()),
        "chunk_id": pa.array([c["chunk_id"] for c in chunks], pa.string()),
        "text": pa.array([c["text"] for c in chunks], pa.string()),
    })
    ext = None
    if chunk_tbl.num_rows:
        ext = (gazetteer_reference(GazetteerExtractor(), chunk_tbl)
               if extractor == "gazetteer" else TermExtractor()(chunk_tbl))

    # canonicalize mentions (single global merge — no shuffle, no batching)
    ent_states: dict[str, dict] = {}
    rows = ext.to_pylist() if ext is not None else []
    for r in rows:
        if r["kind"] != "mention":
            continue
        st = ent_states.setdefault(r["norm_mention"], _new_state())
        one = _new_state()
        one["nc"][r["mention"]] = 1
        one["tc"][r["type"]] = 1
        one["d"] = r["description"] or ""
        one["n"] = 1
        one["inst"] = [(r["url"], r["chunk_id"])]
        one["al"] = [r["mention"]]
        merge_states(st, one, instance_cap)

    alias = {}
    node_rows = []
    for norm in sorted(ent_states):
        st = ent_states[norm]
        eid = entity_id(norm)
        name = _argmax_count(st["nc"])
        alias[norm] = (eid, name)
        node_rows.append({
            "entity_id": eid, "name": name, "type": _argmax_count(st["tc"]),
            "description": st["d"], "aliases": st["al"],
            "n_instances": st["n"],
            "instances": [{"url": u, "chunk_id": c} for u, c in st["inst"]],
        })
    node_rows.sort(key=lambda r: r["entity_id"])

    # edges
    edge_states: dict[tuple, dict] = {}
    for r in rows:
        if r["kind"] != "triple" or r["strength"] is None or \
                r["strength"] < min_strength:
            continue
        s = alias.get(normalize(r["subj"]))
        o = alias.get(normalize(r["obj"]))
        if s is None or o is None:
            continue
        key = (s[0], r["pred"], o[0])
        st = edge_states.setdefault(
            key, {"sn": s[1], "on": o[1], "sum": 0.0, "n": 0, "inst": []})
        st["sum"] += float(r["strength"])
        st["n"] += 1
        st["inst"] = _cap_instances(st["inst"] + [(r["url"], r["chunk_id"])],
                                    instance_cap)
    edge_rows = []
    for (sid, pred, oid) in sorted(edge_states):
        st = edge_states[(sid, pred, oid)]
        edge_rows.append({
            "edge_id": edge_id(sid, pred, oid), "subj_id": sid, "obj_id": oid,
            "subj_name": st["sn"], "obj_name": st["on"], "pred": pred,
            "strength": st["sum"] / st["n"], "n_instances": st["n"],
            "instances": [{"url": u, "chunk_id": c} for u, c in st["inst"]],
        })

    # claims
    claim_rows = oracle_claims(rows, alias, instance_cap)

    def tbl(rows_, schema):
        if not rows_:
            return schema.empty_table()
        return pa.Table.from_pylist(rows_, schema=schema)

    return {"nodes": tbl(node_rows, NODES_SCHEMA),
            "edges": tbl(edge_rows, EDGES_SCHEMA),
            "claims": tbl(claim_rows, CLAIMS_SCHEMA)}


def text_reference(html: bytes | None) -> str:
    """Sequential reference of ``extract_text``: the same decoding, then
    stdlib ``html.parser`` alone, with no regex fast path."""
    return _extract_stdlib(_decode(html))


def gazetteer_reference(ex: GazetteerExtractor, batch: pa.Table) -> pa.Table:
    """Sequential reference of ``GazetteerExtractor.__call__``: one Python
    loop over every chunk and every ``_SENT_SPLIT`` sentence, with ``ex``'s
    compiled patterns and trigger-word screen (the screen memo is local to
    the call).  Same tagged table, same row order."""
    out = _Rows()
    screen_memo: dict[str, bool] = {}
    for url, chunk_id, text in zip(batch["url"].to_pylist(),
                                   batch["chunk_id"].to_pylist(),
                                   batch["text"].to_pylist()):
        if not text:
            continue
        for sent in _SENT_SPLIT.split(text):
            passed = screen_memo.get(sent)
            if passed is None:
                passed = screen_memo[sent] = not ex._trigger.isdisjoint(
                    _WORD_RE.findall(sent.lower()))
            if not passed:
                continue
            ments = []
            for m in ex.mention_re.finditer(sent):
                hit = ex._mention_of(m.group(0))
                if hit is None:
                    continue
                ments.append(hit[0])
                out.mention(url, chunk_id, *hit)
            if len(ments) >= 2:
                # collapsed-whitespace lowering so the literal substring
                # prefilter can never miss what the \s+ regex would match
                low = " ".join(sent.lower().split())
                for rx, pred, strength, mid_low in ex.rel_res:
                    if mid_low not in low:
                        continue
                    for m in rx.finditer(sent):
                        out.triple(url, chunk_id, m.group("a"), pred,
                                   m.group("b"), strength)
            if ments and ex.claim_re.search(sent):
                out.claim(url, chunk_id, sent.strip(), ments)
    return out.table()


def oracle_claims(rows: list, alias: dict, instance_cap: int = 200) -> list:
    """Claim rows sorted by claim_id: the per-row fold of the tagged
    ``rows`` under the alias map ``norm -> (entity_id, name)``."""
    claim_states: dict[str, dict] = {}
    for r in rows:
        if r["kind"] != "claim" or not r["content"]:
            continue
        ids = sorted({alias[normalize(e)][0] for e in (r["entities"] or [])
                      if normalize(e) in alias})
        if not ids:
            continue
        key = r["content"].lower()
        st = claim_states.setdefault(
            key, {"c": r["content"], "ids": [], "n": 0, "inst": []})
        st["c"] = min(st["c"], r["content"])
        st["ids"] = sorted(set(st["ids"]) | set(ids))
        st["n"] += 1
        st["inst"] = _cap_instances(st["inst"] + [(r["url"], r["chunk_id"])],
                                    instance_cap)
    return [{"claim_id": claim_id(key), "content": st["c"],
             "entity_ids": st["ids"], "n_instances": st["n"],
             "instances": [{"url": u, "chunk_id": c} for u, c in st["inst"]]}
            for key, st in sorted(claim_states.items(),
                                  key=lambda kv: claim_id(kv[0]))]


def triple_pr(edges: pa.Table, nodes: pa.Table,
              truth: pa.Table) -> tuple[float, float]:
    """Precision/recall of emitted (subj_norm, pred, obj_norm) triples vs
    the truth sidecar (north_rule P/R metric)."""
    id2norm = {}
    for r in nodes.select(["entity_id", "name"]).to_pylist():
        id2norm[r["entity_id"]] = normalize(r["name"])
    got = {(id2norm.get(r["subj_id"]), r["pred"], id2norm.get(r["obj_id"]))
           for r in edges.select(["subj_id", "pred", "obj_id"]).to_pylist()}
    want = {(r["subj_norm"], r["pred"], r["obj_norm"])
            for r in truth.to_pylist()}
    if not got or not want:
        return (0.0, 0.0)
    inter = len(got & want)
    return inter / len(got), inter / len(want)
