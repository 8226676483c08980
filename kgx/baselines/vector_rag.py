"""VectorRAG baseline (reference baselines/vector_rag.py:10-58).

The reference chunks all documents, embeds every chunk with
SentenceTransformer in one process, takes torch.topk cosine per question
and prompts an LLM over the joined context.  Here the same retrieval
shape runs as a Ray Data pipeline with a deterministic stand-in for the
embedding model (no model in this environment): a seeded feature-hashing
embedding (token -> blake2b -> signed bucket, tf-weighted, L2-normed),
which preserves cosine geometry for lexical overlap.

Scale shape: chunks are embedded in ``map_batches`` (vectorized per
batch); per-question scoring emits only each block's top-k rows (the
partial top-k combiner of kgx.ops.simsearch), so the final merge moves
n_questions * k rows per block — never the score matrix or the corpus.
The answer step is extractive (sentences sharing terms with the
question) standing in for the LLM call, same as the rest of the
deterministic surface.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pyarrow as pa

EMBED_DIM = 256
_TOKEN_RE = re.compile(r"[a-z0-9]+")


def _token_buckets(token: str, dim: int) -> tuple[int, float]:
    h = int.from_bytes(hashlib.blake2b(token.encode(),
                                       digest_size=8).digest(), "big")
    sign = 1.0 if (h >> 63) & 1 else -1.0
    return h % dim, sign


def hash_embed(text: str, dim: int = EMBED_DIM) -> np.ndarray:
    """Deterministic feature-hash embedding: signed tf buckets, L2-normed."""
    v = np.zeros(dim, dtype=np.float64)
    for tok in _TOKEN_RE.findall(text.lower()):
        idx, sign = _token_buckets(tok, dim)
        v[idx] += sign
    n = np.linalg.norm(v)
    return v / n if n > 0 else v


def retrieve_topk(chunks_ds, questions: list[str], *, k: int = 5,
                  dim: int = EMBED_DIM):
    """chunks Dataset -> (question_idx, chunk_id, text, score, rank) of the
    per-question top-k chunks (score desc, chunk_id asc tie-break)."""
    import ray

    Q = np.stack([hash_embed(q, dim) for q in questions])
    qref = ray.put(Q)

    def block_topk(batch: pa.Table) -> pa.Table:
        Qm = ray.get(qref)
        M = np.asarray(
            [hash_embed(t or "", dim) for t in batch["text"].to_pylist()])
        ids = batch["chunk_id"].to_pylist()
        texts = batch["text"].to_pylist()
        S = Qm @ M.T
        qi_col, id_col, tx_col, sc_col = [], [], [], []
        order_ids = np.asarray(ids, dtype=object)
        for qi in range(S.shape[0]):
            order = np.lexsort((order_ids, -S[qi]))[:k]
            for j in order:
                qi_col.append(qi)
                id_col.append(ids[int(j)])
                tx_col.append(texts[int(j)])
                sc_col.append(float(S[qi][int(j)]))
        return pa.table({
            "question_idx": pa.array(qi_col, pa.int32()),
            "chunk_id": pa.array(id_col, pa.string()),
            "text": pa.array(tx_col, pa.string()),
            "score": pa.array(sc_col, pa.float64()),
        })

    def merge(group: pa.Table) -> pa.Table:
        ids = np.asarray(group["chunk_id"].to_pylist(), dtype=object)
        scores = np.asarray(group["score"].to_pylist())
        order = np.lexsort((ids, -scores))[:k]
        out = group.take(pa.array(order, pa.int64()))
        return out.append_column(
            "rank", pa.array(np.arange(1, len(order) + 1), pa.int64()))

    partial = chunks_ds.map_batches(block_topk, batch_format="pyarrow")
    return partial.groupby("question_idx").map_groups(
        merge, batch_format="pyarrow")


def extractive_answer(question: str, context_chunks: list[str]) -> str:
    """Deterministic stand-in for the reference's context-prompted LLM
    answer (vector_rag.py:40-53): sentences from the retrieved context
    that share terms with the question, best-overlap first."""
    q = set(_TOKEN_RE.findall(question.lower()))
    scored = []
    for text in context_chunks:
        for sent in re.split(r"(?<=[.!?])\s+", text):
            overlap = len(q & set(_TOKEN_RE.findall(sent.lower())))
            if overlap:
                scored.append((-overlap, sent.strip()))
    scored.sort()
    seen, out = set(), []
    for _neg, sent in scored[:8]:
        if sent not in seen:
            seen.add(sent)
            out.append(sent)
    return " ".join(out) if out else "No relevant context found."


def run_vector_rag(chunks_ds, questions: list[str], *, k: int = 5) -> list[str]:
    """Full baseline: retrieve top-k per question, answer extractively.
    Returns one answer per question (reference contract,
    vector_rag.py:10)."""
    top = retrieve_topk(chunks_ds, questions, k=k)
    by_q: dict[int, list[tuple[int, str]]] = {}
    for b in top.iter_batches(batch_format="pyarrow"):
        for qi, rank, text in zip(b["question_idx"].to_pylist(),
                                  b["rank"].to_pylist(),
                                  b["text"].to_pylist()):
            by_q.setdefault(qi, []).append((rank, text))
    answers = []
    for qi, question in enumerate(questions):
        chunks = [t for _r, t in sorted(by_q.get(qi, []))]
        answers.append(extractive_answer(question, chunks))
    return answers
