"""Seeded synthetic ``pages`` corpus generator with planted ground truth.

Produces the authoritative input shape from BASELINE.json ``input_hint``::

    pages(url: string, warc_ts: timestamp[us], html: binary,
          text: string, lang: string)

plus a ``truth_triples`` sidecar (FIXTURES.md §2) for P/R scoring:

    truth_triples(subj_norm, pred, obj_norm, urls list<string>)

Properties exercised (FIXTURES.md §1):
- entities of the reference's six default types
  (/root/reference/config.py:51-53) planted via a fixed gazetteer;
- alias variants (casing, punctuation, unicode accents, extra whitespace)
  that all collapse under ``kgx.functions.normalize``;
- head-entity skew: "United States" appears in ~20% of pages;
- relations from fixed sentence patterns with known strengths, including a
  below-threshold pattern (0.4 < 0.5) that the strength filter must drop
  (/root/reference/indexing/simple_graph_builder.py:84-86);
- long articles spanning multiple overlapping chunks;
- ~10% pre-filled ``text`` rows (must pass through byte-identically), a few
  null/empty html rows, broken markup, HTML entities, non-ASCII bytes.

Everything is derived from ``random.Random(seed)`` — same seed, same bytes.
"""

from __future__ import annotations

import os
import random

import pyarrow as pa
import pyarrow.parquet as pq

from kgx.functions.html_text import extract_text
from kgx.functions.normalize import normalize

# --------------------------------------------------------------------------
# Gazetteer: canonical name -> (type, alias surface forms incl. canonical)
# --------------------------------------------------------------------------

GAZETTEER: dict[str, tuple[str, list[str]]] = {
    # PERSON
    "Ada Lovelace": ("PERSON", ["Ada Lovelace", "ada lovelace", "Ada  Lovelace", "Ada Loveláce"]),
    "Grace Hopper": ("PERSON", ["Grace Hopper", "GRACE HOPPER", "Grace-Hopper"]),
    "Alan Turing": ("PERSON", ["Alan Turing", "alan turing", "Alán Turing"]),
    "Marie Curie": ("PERSON", ["Marie Curie", "Marie  Curie", "Marie Curié"]),
    "Nikola Tesla": ("PERSON", ["Nikola Tesla", "NIKOLA TESLA"]),
    "Linus Torvalds": ("PERSON", ["Linus Torvalds", "linus torvalds"]),
    "Tim Berners-Lee": ("PERSON", ["Tim Berners-Lee", "Tim Berners Lee"]),
    "Katherine Johnson": ("PERSON", ["Katherine Johnson", "katherine johnson"]),
    # ORGANIZATION
    "Acme Corporation": ("ORGANIZATION", ["Acme Corporation", "ACME Corporation", "Acme-Corporation"]),
    "Globex Industries": ("ORGANIZATION", ["Globex Industries", "globex industries"]),
    "Initech Systems": ("ORGANIZATION", ["Initech Systems", "INITECH SYSTEMS"]),
    "Umbrella Labs": ("ORGANIZATION", ["Umbrella Labs", "Umbrella  Labs"]),
    "Stark Analytics": ("ORGANIZATION", ["Stark Analytics", "stark analytics"]),
    "Wayne Logistics": ("ORGANIZATION", ["Wayne Logistics", "WAYNE LOGISTICS"]),
    "Hooli Networks": ("ORGANIZATION", ["Hooli Networks", "Hooli-Networks"]),
    "Vandelay Imports": ("ORGANIZATION", ["Vandelay Imports", "vandelay imports"]),
    # LOCATION
    "United States": ("LOCATION", ["United States", "UNITED STATES", "united-states", "United  States"]),
    "Berlin": ("LOCATION", ["Berlin", "BERLIN", "Bérlin"]),
    "Paris": ("LOCATION", ["Paris", "paris"]),
    "Tokyo": ("LOCATION", ["Tokyo", "TOKYO"]),
    "Nairobi": ("LOCATION", ["Nairobi", "nairobi"]),
    "Sao Paulo": ("LOCATION", ["Sao Paulo", "São Paulo", "SAO PAULO"]),
    # CONCEPT
    "Machine Learning": ("CONCEPT", ["Machine Learning", "machine learning", "Machine-Learning"]),
    "Quantum Computing": ("CONCEPT", ["Quantum Computing", "quantum computing"]),
    "Graph Theory": ("CONCEPT", ["Graph Theory", "graph theory"]),
    # PRODUCT
    "Fusion Engine": ("PRODUCT", ["Fusion Engine", "FUSION ENGINE", "Fusion-Engine"]),
    "Nimbus Platform": ("PRODUCT", ["Nimbus Platform", "nimbus platform"]),
    "Atlas Toolkit": ("PRODUCT", ["Atlas Toolkit", "ATLAS TOOLKIT"]),
    # EVENT
    "World Expo": ("EVENT", ["World Expo", "world expo"]),
    "Summit Week": ("EVENT", ["Summit Week", "SUMMIT WEEK"]),
}

HEAD_ENTITY = "United States"

# (pattern template, pred, strength, subj type, obj type).  Strength 0.4
# exercises the min_relationship_strength=0.5 filter.
RELATION_PATTERNS: list[tuple[str, str, float, str, str]] = [
    ("{a} is the CEO of {b}.", "is the CEO of", 0.9, "PERSON", "ORGANIZATION"),
    ("{a} works for {b}.", "works for", 0.7, "PERSON", "ORGANIZATION"),
    ("{a} is located in {b}.", "is located in", 0.8, "ORGANIZATION", "LOCATION"),
    ("{a} acquired {b}.", "acquired", 0.9, "ORGANIZATION", "ORGANIZATION"),
    ("{a} partnered with {b}.", "partnered with", 0.6, "ORGANIZATION", "ORGANIZATION"),
    ("{a} develops {b}.", "develops", 0.8, "ORGANIZATION", "PRODUCT"),
    ("{a} pioneered {b}.", "pioneered", 0.7, "PERSON", "CONCEPT"),
    ("{a} hosted {b}.", "hosted", 0.6, "LOCATION", "EVENT"),
    ("{a} visited {b}.", "visited", 0.4, "PERSON", "LOCATION"),  # filtered out
]

CLAIM_TEMPLATES = [
    "It is reported that {a} announced record results this quarter.",
    "It is reported that {a} opened a new research facility.",
    "It is reported that {a} received an international award.",
]

_FILLER = (
    "The council met on Tuesday to discuss the quarterly agenda. "
    "Analysts expect steady growth across the sector next year. "
    "Local residents welcomed the infrastructure improvements. "
    "The committee published its findings after a long review. "
    "Officials declined to comment on the ongoing negotiations. "
).split(". ")

_BOILER_NAV = "<nav><ul><li><a href='/'>Home</a></li><li><a href='/news'>News</a></li></ul></nav>"
_BOILER_HEAD = ("<head><title>{title}</title><style>body{{margin:0}}</style>"
                "<script>var t=1;function f(){{return t}}</script></head>")
_BOILER_FOOTER = "<footer>© 2026 Example Media &amp; Co. All rights reserved.</footer>"


def _by_type() -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for name, (etype, _aliases) in GAZETTEER.items():
        out.setdefault(etype, []).append(name)
    return out


def _pick_surface(rng: random.Random, canonical: str) -> str:
    return rng.choice(GAZETTEER[canonical][1])


def generate_rows(lo: int, hi: int, seed: int = 42,
                  filler_scale: int = 1, hard: bool = False
                  ) -> tuple[pa.Table, dict[tuple[str, str, str], set[str]]]:
    """Build pages ``[lo, hi)`` and their truth partial.

    Each page is generated from its own ``random.Random(f"{seed}:{i}")``, so
    output is deterministic and independent of how the index range is
    sharded — parallel generation produces byte-identical pages.
    ``filler_scale`` multiplies the filler-sentence count (1 = test-sized
    ~1.5 KB pages; 8 ≈ Common-Crawl-ish ~10 KB pages for benchmarks).

    ``hard=True`` is the ADVERSARIAL variant (r4 VERDICT item 9): every
    page is long (~10x the default's average chunk fanout), fact density
    doubles (more mention ambiguity per chunk), and the head-entity skew
    triples (~60% of pages) so the canonicalization shuffle sees a much
    hotter key — same truth-sidecar contract, so the P/R gate must still
    read 1.0.
    """
    by_type = _by_type()

    urls, tss, htmls, texts, langs = [], [], [], [], []
    truth: dict[tuple[str, str, str], set[str]] = {}

    base_ts = 1_750_000_000_000_000  # fixed epoch-us anchor
    for i in range(lo, hi):
        rng = random.Random(f"{seed}:{i}")
        url = f"https://site-{i % 7}.example/article-{i}"
        lang = "en" if rng.random() > 0.06 else rng.choice(["de", "fr"])
        sentences: list[str] = []
        # candidate truth for this page; committed only for facts whose
        # sentence survives into the final extractable text (rows with
        # nulled/empty/truncated html must not assert unreachable truth)
        candidates: list[tuple[tuple[str, str, str], str]] = []

        n_facts = rng.randint(8, 16) if hard else rng.randint(3, 8)
        for _ in range(n_facts):
            tmpl, pred, strength, st, ot = rng.choice(RELATION_PATTERNS)
            a = rng.choice(by_type[st])
            b = rng.choice(by_type[ot])
            if a == b:
                continue
            sent = tmpl.format(a=_pick_surface(rng, a), b=_pick_surface(rng, b))
            sentences.append(sent)
            if strength >= 0.5:
                candidates.append(((normalize(a), pred, normalize(b)), sent))

        # head-entity skew: ~20% of pages mention the head entity
        # (~60% in the hard variant — a genuinely hot canonicalization key)
        if rng.random() < (0.6 if hard else 0.2):
            org = rng.choice(by_type["ORGANIZATION"])
            sent = "{a} is located in {b}.".format(
                a=_pick_surface(rng, org), b=_pick_surface(rng, HEAD_ENTITY))
            sentences.append(sent)
            candidates.append(
                ((normalize(org), "is located in", normalize(HEAD_ENTITY)), sent))

        if rng.random() < 0.35:
            a = rng.choice(by_type["ORGANIZATION"] + by_type["PERSON"])
            sentences.append(rng.choice(CLAIM_TEMPLATES).format(a=_pick_surface(rng, a)))

        # filler; ~15% of pages become long (span several chunks) —
        # in the hard variant EVERY page is long (~10x chunk fanout)
        if hard:
            n_filler = rng.randint(60, 120)
        else:
            n_filler = (rng.randint(3, 6) if rng.random() > 0.15
                        else rng.randint(60, 120))
        n_filler *= filler_scale
        for _ in range(n_filler):
            sentences.append(rng.choice(_FILLER).strip().rstrip(".") + ".")
        rng.shuffle(sentences)

        paras = []
        while sentences:
            k = min(len(sentences), rng.randint(2, 5))
            paras.append("<p>" + " ".join(sentences[:k]) + "</p>")
            sentences = sentences[k:]
        body = "\n".join(paras)

        title = f"Article {i}"
        html = (f"<html>{_BOILER_HEAD.format(title=title)}<body>{_BOILER_NAV}"
                f"<header><h1>{title}</h1></header><article>{body}</article>"
                f"{_BOILER_FOOTER}</body></html>")

        r = rng.random()
        if r < 0.02:
            html_bytes, text_val = None, None            # null html
        elif r < 0.04:
            html_bytes, text_val = b"", None             # empty html
        elif r < 0.08:
            # broken markup: truncate mid-tag
            html_bytes = html[: max(40, len(html) // 2)].encode("utf-8")
            text_val = None
        else:
            html_bytes = html.encode("utf-8")
            # ~10% pre-filled text rows: must pass through unchanged
            text_val = extract_text(html_bytes) if rng.random() < 0.10 else None

        effective = text_val if text_val is not None else extract_text(html_bytes)
        for key, sent in candidates:
            # extract_text collapses whitespace runs; compare collapsed forms
            if " ".join(sent.split()) in effective:
                truth.setdefault(key, set()).add(url)

        urls.append(url)
        tss.append(base_ts + (i * 173_000_000) % (48 * 3600 * 1_000_000))
        htmls.append(html_bytes)
        texts.append(text_val)
        langs.append(lang)

    pages = pa.table({
        "url": pa.array(urls, pa.string()),
        "warc_ts": pa.array(tss, pa.timestamp("us")),
        "html": pa.array(htmls, pa.binary()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(langs, pa.string()),
    })
    return pages, truth


def _truth_table(truth: dict[tuple[str, str, str], set[str]]) -> pa.Table:
    keys = sorted(truth.keys())
    return pa.table({
        "subj_norm": pa.array([k[0] for k in keys], pa.string()),
        "pred": pa.array([k[1] for k in keys], pa.string()),
        "obj_norm": pa.array([k[2] for k in keys], pa.string()),
        "urls": pa.array([sorted(truth[k]) for k in keys], pa.list_(pa.string())),
    })


def write_pages(out_dir: str, n_pages: int, seed: int = 42,
                n_shards: int = 8, filler_scale: int = 1,
                hard: bool = False) -> str:
    """Write a sharded pages dataset + truth sidecar; idempotent.

    Layout: ``{out_dir}/pages/part-*.parquet`` (>=n_shards files so small
    runs still exercise parallel reads) and ``{out_dir}/truth_triples.parquet``.
    Large corpora are generated in parallel with Ray tasks when a session is
    up — per-page seeding makes the bytes identical either way.  Returns the
    pages directory path.
    """
    import ray

    pages_dir = os.path.join(out_dir, "pages")
    done = os.path.join(out_dir, "_SYNTH_DONE")
    marker = (f"n={n_pages} seed={seed} shards={n_shards} v=5 "
              f"fs={filler_scale} hard={int(hard)}")
    if os.path.exists(done):
        with open(done) as f:
            if f.read() == marker:
                return pages_dir
    os.makedirs(pages_dir, exist_ok=True)
    for stale in os.listdir(pages_dir):
        os.remove(os.path.join(pages_dir, stale))

    # one shard ~2k pages (one row group each): parquet reads split per
    # file, so shard count — not the generating session's CPU count — sets
    # the read parallelism AND the load-balance granularity (fused
    # read->extract chains run one task per file; coarse shards leave a
    # straggler tail on the last wave)
    n_shards = max(n_shards, n_pages // 2048)
    parallel = ray.is_initialized() and n_pages >= 4000
    per = max(1, (n_pages + n_shards - 1) // n_shards)
    bounds = [(s, s * per, min((s + 1) * per, n_pages))
              for s in range(n_shards) if s * per < n_pages]

    def shard_task(s: int, lo: int, hi: int):
        tbl, truth = generate_rows(lo, hi, seed, filler_scale, hard=hard)
        pq.write_table(tbl, os.path.join(pages_dir, f"part-{s:05d}.parquet"))
        return truth

    truth: dict[tuple[str, str, str], set[str]] = {}
    if parallel:
        remote = ray.remote(shard_task)
        partials = ray.get([remote.remote(*b) for b in bounds])
    else:
        partials = [shard_task(*b) for b in bounds]
    for part in partials:
        for k, v in part.items():
            truth.setdefault(k, set()).update(v)
    pq.write_table(_truth_table(truth),
                   os.path.join(out_dir, "truth_triples.parquet"))
    with open(done, "w") as f:
        f.write(marker)
    return pages_dir
