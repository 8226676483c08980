"""Pages-table source helpers (input_hint shape: url, warc_ts, html, text,
lang) with column pruning at the read — the ``html`` binary column is by far
the widest and is only loaded by the text-extraction stage; every other
stage reads the narrow derived tables."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

# Below this compressed size a table's read is dominated by Ray's
# per-task/per-block fixed costs, not bytes: Ray's default parallelism
# splits even a 600 KB file into ~2*ncpu blocks, and every downstream
# task pays ~40 ms of scheduling for microseconds of compute (measured:
# the sf0.1 extract chain runs 3.1 s at 64 blocks vs 1.2 s at 16).
_SMALL_TABLE_BYTES = 64 << 20


def read_table(path: str, *, columns: list[str] | None = None):
    """``read_parquet`` with a size-aware block-count override.

    Small single-file tables (< ~64 MiB compressed) are read into
    ``max(8, ncpu // 2)`` blocks so fixed per-task costs stay bounded;
    anything larger keeps Ray's default sizing (at corpus scale the
    default ~128 MiB target blocks are correct and an override would
    create oversize blocks).  Directories always use the default.
    """
    import os

    import ray

    nb = None
    try:
        # only override once the caller's Ray session exists — guessing
        # a CPU count before init would bake a wrong block count into
        # the plan (the session is always owned by the caller)
        if ray.is_initialized() and os.path.isfile(path) and \
                os.path.getsize(path) < _SMALL_TABLE_BYTES:
            ncpu = int(ray.cluster_resources().get("CPU", 4))
            nb = max(8, ncpu // 2)
    except OSError:
        pass
    return rd.read_parquet(path, columns=columns, override_num_blocks=nb)


def pages_from_documents(documents_path: str):
    """Adapt a generic text corpus (testdata ``documents`` table:
    doc_id, text, lang, source, n_chars) into the pages shape so the same
    pipeline runs over it: url = ``doc://{doc_id}``, html = null, text as-is.
    """
    import pyarrow as pa

    def to_pages(batch: pa.Table) -> pa.Table:
        urls = [f"doc://{d}" for d in batch["doc_id"].to_pylist()]
        n = len(urls)
        return pa.table({
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array([0] * n, pa.timestamp("us")),
            "html": pa.array([None] * n, pa.binary()),
            "text": batch["text"].combine_chunks(),
            "lang": batch["lang"].combine_chunks(),
        })

    return rd.read_parquet(documents_path,
                           columns=["doc_id", "text", "lang"]).map_batches(
        to_pages, batch_format="pyarrow")


def read_jsonl_pages(path: str):
    """JSONL corpus ingestion (one JSON object per line — the interchange
    format most web-text dumps ship as) -> the pages shape.

    Field mapping, tolerant by design: ``url`` (else ``doc://{doc_id}``,
    else ``jsonl://{content-hash}`` is synthesized — batch-independent,
    so exact duplicate rows collapse to one url and the recrawl/dedup
    stages treat them as such), ``text`` (required), ``lang`` (default
    ``en``); ``html`` is null (JSONL dumps are pre-extracted).

    Distributed read via ``ray.data.read_json`` — line-delimited JSON is
    its default; blocks parse where they are scheduled, never
    driver-side.  Scale note: JSONL cannot column-prune like Parquet, so
    this source is for INGEST (first hop into Parquet via
    ``write_parquet``), not for repeated analytical reads.
    """
    return rd.read_json(path).map_batches(_tolerant_to_pages,
                                          batch_format="pyarrow")


def _tolerant_to_pages(batch: pa.Table) -> pa.Table:
    """Shared field mapping for row-oriented interchange sources
    (JSONL/CSV): url | doc://{doc_id} | content-hash url; text required;
    lang defaults to en; html null; warc_ts epoch."""
    import hashlib

    names = set(batch.column_names)
    n = batch.num_rows
    texts = batch["text"].to_pylist() if "text" in names else [""] * n

    def content_url(i: int) -> str:
        h = hashlib.blake2b((texts[i] or "").encode(),
                            digest_size=8).hexdigest()
        return f"jsonl://{h}"

    if "url" in names:
        urls = [u or content_url(i) for i, u in
                enumerate(batch["url"].to_pylist())]
    elif "doc_id" in names:
        urls = [f"doc://{d}" for d in batch["doc_id"].to_pylist()]
    else:
        urls = [content_url(i) for i in range(n)]
    langs = (batch["lang"].to_pylist() if "lang" in names
             else ["en"] * n)
    return pa.table({
        "url": pa.array(urls, pa.string()),
        "warc_ts": pa.array([0] * n, pa.timestamp("us")),
        "html": pa.array([None] * n, pa.binary()),
        "text": pa.array([t if t is not None else "" for t in texts],
                         pa.string()),
        "lang": pa.array([x if x is not None else "en" for x in langs],
                         pa.string()),
    })


def read_csv_pages(path: str, **read_csv_kwargs):
    """CSV corpus ingestion -> the pages shape, with the same tolerant
    field mapping as :func:`read_jsonl_pages` (url, else doc://{doc_id},
    else a content-hash url; text required; lang defaults to en).

    Distributed read via ``ray.data.read_csv`` (Arrow CSV reader per
    block).  Same scale note as JSONL: CSV cannot column-prune, so this
    is an INGEST hop into Parquet, not an analytical source.
    ``read_csv_kwargs`` pass through (delimiter, column types, ...).
    """
    return rd.read_csv(path, **read_csv_kwargs).map_batches(
        _tolerant_to_pages, batch_format="pyarrow")


# Reference extension filter (read_text_files,
# /root/reference/graphrag_lite_x.py:130-148, utils/io_utils.py:3-10).
TEXT_EXTENSIONS = (".txt", ".md", ".py", ".java", ".js", ".html", ".css")


def read_text_dir(directory: str, *, extensions=TEXT_EXTENSIONS):
    """Raw-corpus ingestion: a directory of loose text files -> the pages
    shape, mirroring the reference's ``read_text_files`` semantics — only
    the listed extensions are read, content is decoded as UTF-8, and
    unreadable files are skipped (not fatal).  The filename plays the
    reference's ``source_id`` role as ``file://{name}``; ``.html`` files
    land in the ``html`` column (so the extraction stage boilerplate-strips
    them), everything else arrives as pre-extracted ``text``.

    Distributed read via ``ray.data.read_binary_files`` with a path filter
    — each file is one row, read where the block is scheduled, never
    driver-side.
    """
    import os

    import pyarrow as pa

    paths = sorted(
        os.path.join(directory, f) for f in os.listdir(directory)
        if f.endswith(tuple(extensions)))
    if not paths:
        return rd.from_arrow(pa.table({
            "url": pa.array([], pa.string()),
            "warc_ts": pa.array([], pa.timestamp("us")),
            "html": pa.array([], pa.binary()),
            "text": pa.array([], pa.string()),
            "lang": pa.array([], pa.string()),
        }))

    def to_pages(batch: pa.Table) -> pa.Table:
        urls, htmls, texts = [], [], []
        for p, data in zip(batch["path"].to_pylist(),
                           batch["bytes"].to_pylist()):
            name = os.path.basename(p)
            if name.endswith(".html"):
                html, text = data, None
            else:
                try:
                    html, text = None, data.decode("utf-8")
                except UnicodeDecodeError:
                    continue  # skip unreadable files, as the reference does
            urls.append(f"file://{name}")
            htmls.append(html)
            texts.append(text)
        n = len(urls)
        return pa.table({
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array([0] * n, pa.timestamp("us")),
            "html": pa.array(htmls, pa.binary()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array([None] * n, pa.string()),
        })

    return rd.read_binary_files(paths, include_paths=True).map_batches(
        to_pages, batch_format="pyarrow")


def latest_crawl_per_url(pages_ds):
    """Recrawl dedup: keep each url's NEWEST snapshot by ``warc_ts`` —
    the Common-Crawl-side complement of content dedup (the same page
    fetched across crawls yields many (url, ts) rows; only the latest
    should feed extraction).

    Narrow-shuffle shape, html bytes never move: one sort on url over
    projected (url, warc_ts) rows, then one Arrow min/max aggregate per
    whole sorted block, finds urls with more than one snapshot and their
    winning timestamp; that RECRAWLED-URL map —
    bounded by the recrawl mass, not the corpus — broadcasts via
    ``ray.put``, and rows drop map-side unless they carry the winner
    timestamp.  Rows whose url was never recrawled stream through
    untouched.  Exact (url, ts) duplicate rows both survive, here and in
    the content dedup downstream, which drops only the rows of a text
    held by a url other than that text's smallest
    (``dedup_pages_by_text``).
    """
    import ray

    from kgx.functions.collect import collect_arrow
    from kgx.functions.fold import map_sorted_blocks

    def narrow(batch: pa.Table) -> pa.Table:
        return pa.table({
            "url": batch["url"],
            "ts": pc.cast(batch["warc_ts"], pa.int64()),
        })

    def winners(block: pa.Table) -> pa.Table:
        g = block.group_by("url").aggregate([("ts", "min"), ("ts", "max")])
        g = g.filter(pc.not_equal(g["ts_min"], g["ts_max"]))  # recrawled
        return pa.table({"url": g["url"], "ts": g["ts_max"]})

    recrawled = collect_arrow(map_sorted_blocks(
        pages_ds.map_batches(narrow, batch_format="pyarrow"), "url",
        winners, pa.schema([("url", pa.string()), ("ts", pa.int64())])))
    wref = ray.put((recrawled["url"].combine_chunks(),
                    recrawled["ts"].combine_chunks()))

    def keep_latest(batch: pa.Table, _wref=wref) -> pa.Table:
        urls, win_ts = ray.get(_wref)
        # a row of a recrawled url must carry its winning ts; a row of
        # any other url (null index) passes
        idx = pc.index_in(batch["url"], value_set=urls)
        same = pc.equal(pc.take(win_ts, idx),
                        pc.cast(batch["warc_ts"], pa.int64()))
        return batch.filter(pc.coalesce(same, pc.is_null(idx)))

    return pages_ds.map_batches(keep_latest, batch_format="pyarrow")
