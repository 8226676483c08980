"""Seeded input generators for the kgx benchmark.

Every generator is a pure function of its arguments: the same seed gives
the same Parquet bytes.  The program under test only ever sees the files
written here.

- ``web_pages``: the synthetic web corpus of :mod:`kgx.synth` at
  ``filler_scale=8`` (~7 KB of html a page), 30 gazetteer entities.
- ``term_pages``: short pages whose pre-filled text is drawn from a Zipf
  vocabulary, so the ``term`` extractor emits a high-cardinality key set.
- ``refresh_pages``: a refresh shard for a ``web_pages`` base: it
  re-crawls the tail of the base (same urls, new text, newer ``warc_ts``)
  and adds new urls.
"""

from __future__ import annotations

import os
import random

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from kgx.synth import generate_rows

FILLER_SCALE = 8
# A refresh crawl lands a week after the base crawl's 48 h window.
REFRESH_DELAY_US = 7 * 24 * 3600 * 1_000_000
_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def write_shards(pages: pa.Table, out_dir: str, n_shards: int) -> str:
    """Write ``pages`` as ``n_shards`` Parquet files; returns ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    per = -(-pages.num_rows // n_shards)
    for s in range(n_shards):
        part = pages.slice(s * per, per)
        if part.num_rows:
            pq.write_table(part, os.path.join(out_dir,
                                              f"part-{s:05d}.parquet"))
    return out_dir


def web_pages(n: int, seed: int) -> pa.Table:
    """``n`` synthetic web pages (urls ``article-0`` .. ``article-{n-1}``)."""
    return generate_rows(0, n, seed, FILLER_SCALE)[0]


def refresh_pages(n_base: int, n_recrawl: int, n_new: int,
                  seed: int) -> pa.Table:
    """A refresh shard for ``web_pages(n_base, seed)``: the last
    ``n_recrawl`` base urls with new text and a newer ``warc_ts``, then
    ``n_new`` urls the base does not hold."""
    rows = generate_rows(n_base - n_recrawl, n_base + n_new,
                         f"{seed}.refresh", FILLER_SCALE)[0]
    ts = pc.add(rows["warc_ts"].cast(pa.int64()), REFRESH_DELAY_US)
    return rows.set_column(rows.schema.get_field_index("warc_ts"), "warc_ts",
                           ts.cast(pa.timestamp("us")))


def newest_snapshot_union(base: pa.Table, refresh: pa.Table) -> pa.Table:
    """The pages a from-scratch build over each url's newest snapshot
    reads: base rows whose url the refresh does not re-crawl, then the
    refresh rows (every refresh ``warc_ts`` is newer than the base's)."""
    kept = base.filter(pc.invert(pc.is_in(base["url"],
                                          value_set=refresh["url"])))
    return pa.concat_tables([kept, refresh])


def _vocabulary(rng: random.Random, size: int) -> list[str]:
    words: set[str] = set()
    while len(words) < size:
        words.add("".join(rng.choice(_LETTERS)
                          for _ in range(rng.randint(5, 9))))
    return sorted(words)


def term_pages(n: int, tokens_per_page: int, vocab_size: int, seed: int,
               zipf_s: float = 1.1) -> pa.Table:
    """``n`` pages of ``tokens_per_page`` terms with pre-filled ``text``
    (``html`` null), terms drawn from a ``vocab_size`` Zipf(``zipf_s``)
    vocabulary."""
    rng = random.Random(f"{seed}:terms")
    vocab = _vocabulary(rng, vocab_size)
    weights = [1.0 / (r + 1) ** zipf_s for r in range(vocab_size)]
    texts = [" ".join(rng.choices(vocab, weights, k=tokens_per_page))
             for _ in range(n)]
    return pa.table({
        "url": pa.array([f"https://terms.example/doc-{i}" for i in range(n)],
                        pa.string()),
        "warc_ts": pa.array([1_750_000_000_000_000] * n, pa.timestamp("us")),
        "html": pa.nulls(n, pa.binary()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * n, pa.string()),
    })
