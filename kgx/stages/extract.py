"""Triple / mention / claim extraction stages (``map_batches`` UDFs).

The reference extracts entities+relationships per chunk with an LLM
(/root/reference/extraction/simple_entity_extractor.py:60-125) and claims
per chunk (/root/reference/extraction/simple_claim_extractor.py:96-133),
over unbounded ``asyncio.gather`` in one process.  Here each extractor is a
callable CLASS whose state (compiled gazetteer/pattern regexes, or an LLM
client) is built once in ``__init__``.  Deterministic extractors run as
plain tasks, ``chunks.map_batches(make_task_extractor(Cls), ...)``, with
one instance cached per worker process; ``LLMExtractor`` runs on an actor
pool (``map_batches(Cls, concurrency=N)``).  ``__call__`` processes one
Arrow batch of chunks and emits a single tagged Arrow table holding all
three extraction kinds (``mention`` / ``triple`` / ``claim``), which the
pipeline checkpoints once and then projects three ways — Ray Data has no
multi-output operator, and this avoids recomputing extraction per output.

Extractors implement the same interface (SURVEY.md §2.10):

- ``GazetteerExtractor`` — deterministic NER + pattern relation typing over
  a fixed gazetteer (used for all tests and benchmarks; recovers the
  synthetic corpus's planted facts exactly).
- ``TermExtractor`` — deterministic term mentions + within-chunk
  co-occurrence relations for arbitrary text (used over generic corpora
  such as the testdata ``documents`` table; fully SQL-expressible).
- ``LLMExtractor`` — production path mirroring the reference's JSON
  prompt/parse/fallback semantics; the HTTP call is stubbed in this
  sandbox (no network), but the parsers are real and unit-tested.
"""

from __future__ import annotations

import json
import re
import sys
from collections import OrderedDict
from functools import cache

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from kgx.functions.normalize import normalize
from kgx.synth import GAZETTEER, RELATION_PATTERNS

EXTRACTED_SCHEMA = pa.schema([
    ("kind", pa.string()),
    ("url", pa.string()),
    ("chunk_id", pa.string()),
    ("mention", pa.string()),
    ("norm_mention", pa.string()),
    ("type", pa.string()),
    ("description", pa.string()),
    ("subj", pa.string()),
    ("pred", pa.string()),
    ("obj", pa.string()),
    ("strength", pa.float32()),
    ("content", pa.string()),
    ("entities", pa.list_(pa.string())),
])

_SENT_SPLIT = re.compile(r"(?<=[.!?])\s+")
_WORD_RE = re.compile(r"\w+")
_MISS = object()


@cache
def _whitespace_class() -> str:
    """RE2 character class of Python's ``\\s``: the code points where
    ``str.isspace()`` holds (29 of them; RE2's own ``\\s`` is ASCII-only).
    Built on first use, from a scan of every code point."""
    return "[" + "".join(f"\\x{{{ord(c):04x}}}" for c in map(
        chr, range(sys.maxunicode + 1)) if c.isspace()) + "]"


class _Rows:
    """Column-wise accumulator for the tagged EXTRACTED_SCHEMA table.

    Per-kind column lists (a mention row appends its 6 fields, not 13
    with null padding) — this accumulator runs once per extracted row in
    the hottest stage, so the batch table is assembled as three per-kind
    blocks with ``pa.nulls`` for the absent columns and concatenated.
    Rows therefore group by kind within a batch (mentions, then triples,
    then claims); every consumer filters on ``kind`` or aggregates, so
    intra-batch order is immaterial — and it stays deterministic.
    """

    _MENTION_COLS = ("url", "chunk_id", "mention", "norm_mention", "type",
                     "description")
    _TRIPLE_COLS = ("url", "chunk_id", "subj", "pred", "obj", "strength")
    _CLAIM_COLS = ("url", "chunk_id", "content", "entities")

    def __init__(self) -> None:
        self.m: dict[str, list] = {c: [] for c in self._MENTION_COLS}
        self.t: dict[str, list] = {c: [] for c in self._TRIPLE_COLS}
        self.c: dict[str, list] = {c: [] for c in self._CLAIM_COLS}

    def mention(self, url, chunk_id, mention, norm, etype, desc):
        m = self.m
        m["url"].append(url)
        m["chunk_id"].append(chunk_id)
        m["mention"].append(mention)
        m["norm_mention"].append(norm)
        m["type"].append(etype)
        m["description"].append(desc)

    def triple(self, url, chunk_id, subj, pred, obj, strength):
        t = self.t
        t["url"].append(url)
        t["chunk_id"].append(chunk_id)
        t["subj"].append(subj)
        t["pred"].append(pred)
        t["obj"].append(obj)
        t["strength"].append(strength)

    def claim(self, url, chunk_id, content, entities):
        c = self.c
        c["url"].append(url)
        c["chunk_id"].append(chunk_id)
        c["content"].append(content)
        c["entities"].append(entities)

    def table(self) -> pa.Table:
        parts = []
        for kind, cols in (("mention", self.m), ("triple", self.t),
                           ("claim", self.c)):
            n = len(cols["url"])
            if not n:
                continue
            arrays = []
            for f in EXTRACTED_SCHEMA:
                if f.name == "kind":
                    arrays.append(pa.array([kind] * n, f.type))
                elif f.name in cols:
                    arrays.append(pa.array(cols[f.name], f.type))
                else:
                    arrays.append(pa.nulls(n, f.type))
            parts.append(pa.Table.from_arrays(arrays,
                                              schema=EXTRACTED_SCHEMA))
        if not parts:
            return EXTRACTED_SCHEMA.empty_table()
        return pa.concat_tables(parts)


class GazetteerExtractor:
    """Deterministic NER + relation typing against a fixed gazetteer.

    Per-worker state built once in ``__init__``: a longest-first,
    case-insensitive alternation over every alias surface form, one compiled
    regex per relation sentence pattern, and the claim pattern.  Relation
    endpoints are, by construction, mentions found in the same chunk —
    preserving the reference's intra-chunk endpoint constraint
    (/root/reference/extraction/simple_entity_extractor.py:205-208).

    ``__call__`` splits and deduplicates the batch's sentences in Arrow
    and runs Python only once per DISTINCT sentence (web text is
    boilerplate-heavy: 623k sentences of 3.5k synthetic web pages are 2.7k
    distinct ones).  :func:`kgx.oracle.gazetteer_reference` is the
    per-chunk sequential loop it must equal.
    """

    def __init__(self, gazetteer: dict[str, tuple[str, list[str]]] | None = None):
        gaz = gazetteer or GAZETTEER
        self.norm2type: dict[str, str] = {}
        self.norm2canon: dict[str, str] = {}
        surfaces: list[str] = []
        for canonical, (etype, aliases) in gaz.items():
            key = normalize(canonical)
            self.norm2type[key] = etype
            self.norm2canon[key] = canonical
            surfaces.extend(aliases)
        surfaces = sorted(set(surfaces), key=len, reverse=True)
        alt = "|".join(re.escape(s) for s in surfaces)
        self.mention_re = re.compile(rf"\b(?:{alt})\b", re.IGNORECASE)
        self.rel_res: list[tuple[re.Pattern, str, float, str]] = []
        for tmpl, pred, strength, _st, _ot in RELATION_PATTERNS:
            mid = tmpl.split("{a}")[1].split("{b}")[0].strip()
            rx = re.compile(
                rf"\b(?P<a>{alt})\s+{re.escape(mid)}\s+(?P<b>{alt})", re.IGNORECASE)
            self.rel_res.append((rx, pred, strength, mid.lower()))
        self.claim_re = re.compile(r"\bIt is reported that\b", re.IGNORECASE)
        # Trigger-word screen: a sentence can only contain a mention if one
        # of its word tokens equals a word of some alias surface (both
        # case-folded the same way; mention_re verifies with \b, so a word
        # hit is a strict superset of a mention hit).  Filler sentences —
        # the vast majority of web text — fail this set check and never
        # pay the big-alternation regex scan.
        self._trigger = frozenset(
            w for s in surfaces for w in _WORD_RE.findall(s.lower()))
        # Per-worker memo: surface form -> mention tuple.  The alternation
        # guarantees a tiny closed set of matched surfaces, so this dict
        # stays bounded by the gazetteer size and skips re-normalizing the
        # same surface millions of times across a shard.
        self._surface_memo: dict[str, tuple | None] = {}
        # Per-worker sentence memo: sentence -> what it emits
        # (:meth:`_sentence_rows`, None for a sentence that fails the
        # screen or finds no mention).  The same nav/footer/filler
        # sentences recur across batches, so a batch's distinct sentences
        # are mostly one dict hit each.  Bounded: inserts stop at the cap
        # (boilerplate recurs early), so diverse corpora degrade
        # gracefully to one screen per distinct sentence per batch.
        self._sentence_memo: dict[str, tuple | None] = {}
        self._sentence_cap = 65536

    def _mention_of(self, surface: str) -> tuple | None:
        hit = self._surface_memo.get(surface)
        if hit is None and surface not in self._surface_memo:
            norm = normalize(surface)
            canon = self.norm2canon.get(norm)
            if canon is None:
                hit = None
            else:
                etype = self.norm2type[norm]
                hit = (surface, norm, etype,
                       f"{canon} is a {etype.lower()} mentioned as {surface}")
            self._surface_memo[surface] = hit
        return hit

    def _sentence_rows(self, sent: str) -> tuple | None:
        """``(mentions, triples, claim)`` of one sentence that passed the
        trigger-word screen, or None when it emits nothing.  A mention is
        ``(surface, norm, type, description)``, a triple ``(subj, pred,
        obj, strength)``, the claim ``(content, entity surfaces)`` or None.
        They depend on the text alone."""
        ments = [hit for m in self.mention_re.finditer(sent)
                 if (hit := self._mention_of(m.group(0))) is not None]
        if not ments:
            return None
        triples = []
        if len(ments) >= 2:
            # collapsed-whitespace lowering so the literal substring
            # prefilter can never miss what the \s+ regex would match
            low = " ".join(sent.lower().split())
            for rx, pred, strength, mid_low in self.rel_res:
                if mid_low in low:
                    triples.extend((m.group("a"), pred, m.group("b"), strength)
                                   for m in rx.finditer(sent))
        claim = None
        if self.claim_re.search(sent):
            claim = (sent.strip(), [h[0] for h in ments])
        return ments, triples, claim

    def __call__(self, batch: pa.Table) -> pa.Table:
        # (the cast also types an all-null column built from Python)
        text = batch["text"].combine_chunks().cast(pa.string())
        # _SENT_SPLIT in Arrow: a NUL replaces the whitespace run after
        # each [.!?], then the text splits at NULs.  One pass per end
        # character, as a capture group for the three slows RE2 down.
        cut = text
        for end in ".!?":
            cut = pc.replace_substring_regex(
                cut, f"\\{end}{_whitespace_class()}+", end + "\x00")
        sents = pc.split_pattern(cut, "\x00")
        data = text.buffers()[2]
        if data is not None and not np.frombuffer(data, np.uint8).all():
            # Some text holds a NUL (the one code point with a zero byte
            # in UTF-8), which the split above cuts at too: split those
            # rows with the regex itself.
            nul = pc.match_substring(text, "\x00")
            sents = pc.if_else(nul, pa.array(
                [_SENT_SPLIT.split(t) if has else None
                 for t, has in zip(text.to_pylist(), nul.to_pylist())],
                sents.type), sents)
        # Python sees each distinct sentence of the batch once; an
        # occurrence takes its sentence's rows by dictionary code.
        flat = pc.list_flatten(sents).dictionary_encode()
        memo, cap = self._sentence_memo, self._sentence_cap
        trigger = self._trigger
        found = []
        # (to_numpy builds the Python strs ~10x faster than to_pylist)
        for sent in flat.dictionary.to_numpy(zero_copy_only=False).tolist():
            rows = memo.get(sent, _MISS)
            if rows is _MISS:
                rows = None
                if not trigger.isdisjoint(_WORD_RE.findall(sent.lower())):
                    rows = self._sentence_rows(sent)
                if len(memo) < cap:
                    memo[sent] = rows
            found.append(rows)
        codes = flat.indices.to_numpy(zero_copy_only=False)
        hit = np.array([r is not None for r in found], bool)
        occ = np.flatnonzero(hit[codes])
        occ_chunk = pc.list_parent_indices(sents).to_numpy()[occ]
        keys = batch.select(["url", "chunk_id"]).take(occ_chunk)
        out = _Rows()
        for url, chunk_id, code in zip(keys["url"].to_pylist(),
                                       keys["chunk_id"].to_pylist(),
                                       codes[occ].tolist()):
            ments, triples, claim = found[code]
            for m in ments:
                out.mention(url, chunk_id, *m)
            for t in triples:
                out.triple(url, chunk_id, *t)
            if claim is not None:
                out.claim(url, chunk_id, *claim)
        return out.table()


# Per-worker extractor cache for task-based execution: deterministic
# extractors carry only compiled-regex state, so plain map_batches tasks
# with a once-per-worker-process build beat an actor pool (no pool
# startup, work stealing across all CPUs).  Stateful extractors that hold
# a model/client (LLMExtractor) still run as an actor pool.
# Bounded LRU: scoring stages key their entry on per-query ObjectRefs
# (a fresh key every invocation), and some instances pin sizable
# broadcast state (incidence/embedding matrices) — an unbounded dict
# would grow per query for the life of the worker.  16 keeps every
# stage of any one pipeline warm; an evicted extractor just re-derives
# its state on next use.
_WORKER_EXTRACTOR_CACHE: "OrderedDict[str, object]" = OrderedDict()
_WORKER_EXTRACTOR_CACHE_MAX = 16


def make_task_extractor(cls, **kwargs):
    """A picklable batch fn running ``cls(**kwargs)`` cached per worker."""
    key = f"{cls.__module__}.{cls.__qualname__}:{sorted(kwargs.items())!r}"

    def extract_batch(batch: pa.Table) -> pa.Table:
        ex = _WORKER_EXTRACTOR_CACHE.get(key)
        if ex is None:
            ex = _WORKER_EXTRACTOR_CACHE[key] = cls(**kwargs)
            while len(_WORKER_EXTRACTOR_CACHE) > _WORKER_EXTRACTOR_CACHE_MAX:
                _WORKER_EXTRACTOR_CACHE.popitem(last=False)
        else:
            _WORKER_EXTRACTOR_CACHE.move_to_end(key)
        return ex(batch)

    return extract_batch


class TermExtractor:
    """Generic deterministic extractor for arbitrary lowercase-ish text.

    Mentions are token occurrences matching ``[a-z]{4,}`` (type ``TERM``);
    relations are within-chunk co-occurrence pairs of distinct terms
    (``pred="co_occurs_with"``, strength 0.6), capped at ``max_terms``
    distinct terms per chunk (in first-occurrence order) so the pair
    fan-out stays bounded at scale.

    With ``emit_claims=True`` each chunk holding at least one term also
    yields one claim whose content is the chunk text and whose entities
    are the (capped) distinct terms — the generic-corpus analog of the
    reference's sentence claims (simple_claim_extractor.py:96-133), fully
    SQL-expressible so the claim dedup/resolution path (O4/J2) gets a
    DuckDB oracle.  Off by default.
    """

    PRED = "co_occurs_with"
    STRENGTH = 0.6

    def __init__(self, min_len: int = 4, max_terms: int = 64,
                 emit_claims: bool = False):
        self.term_re = re.compile(rf"\b[a-z]{{{min_len},}}\b")
        self.max_terms = max_terms
        self.emit_claims = emit_claims

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = _Rows()
        urls = batch["url"].to_pylist()
        chunk_ids = batch["chunk_id"].to_pylist()
        texts = batch["text"].to_pylist()
        for url, chunk_id, text in zip(urls, chunk_ids, texts):
            if not text:
                continue
            terms = self.term_re.findall(text)
            for t in terms:
                out.mention(url, chunk_id, t, t, "TERM", f"term {t}")
            distinct: list[str] = []
            seen: set[str] = set()
            for t in terms:
                if t not in seen:
                    seen.add(t)
                    distinct.append(t)
                    if len(distinct) >= self.max_terms:
                        break
            distinct.sort()
            for i, a in enumerate(distinct):
                for b in distinct[i + 1:]:
                    out.triple(url, chunk_id, a, self.PRED, b, self.STRENGTH)
            if self.emit_claims and distinct:
                out.claim(url, chunk_id, text, distinct)
        return out.table()


# --------------------------------------------------------------------------
# LLM extractor: real parsers, stubbed transport (no network in sandbox).
# --------------------------------------------------------------------------

_FALLBACK_ENTITY_RE = re.compile(r"(.+?)\s*\(([^)]+)\)")
_FALLBACK_CLAIM_RE = re.compile(r"CLAIM:\s*(.+?)\s*-\s*ENTITIES:\s*\[(.*?)\]")


def parse_json_response(raw: str) -> dict:
    """Robust JSON substring extraction, mirroring
    ``LLMClient.extract_json`` (/root/reference/utils/llm_client.py:100-155):
    take the ``find('{')``..``rfind('}')`` substring, ``json.loads`` it, and
    degrade to an error dict instead of raising."""
    start, end = raw.find("{"), raw.rfind("}")
    if start == -1 or end <= start:
        return {"error": "no JSON object found", "raw_response": raw}
    try:
        return json.loads(raw[start:end + 1])
    except json.JSONDecodeError as exc:
        return {"error": f"invalid JSON: {exc}", "raw_response": raw}


def parse_extraction(payload: dict, url: str, chunk_id: str) -> pa.Table:
    """Validate an LLM extraction payload into the tagged schema, mirroring
    ``_parse_json_extraction``
    (/root/reference/extraction/simple_entity_extractor.py:170-218): entities
    need ``name`` + ``type`` (description defaults to ``"A {type}"``);
    relationship endpoints must name entities from the SAME chunk else the
    relationship is dropped; strength defaults to 0.5."""
    out = _Rows()
    names = set()
    for ent in payload.get("entities") or []:
        name, etype = ent.get("name"), ent.get("type")
        if not name or not etype:
            continue
        desc = ent.get("description") or f"A {etype}"
        names.add(name)
        out.mention(url, chunk_id, name, normalize(name), etype, desc)
    for rel in payload.get("relationships") or []:
        s, t = rel.get("source"), rel.get("target")
        if s in names and t in names:
            out.triple(url, chunk_id, s, rel.get("description") or "related to",
                       t, float(rel.get("strength", 0.5)))
    return out.table()


def parse_fallback_entities(raw: str, url: str, chunk_id: str) -> pa.Table:
    """Fallback line parser ``"Entity Name (Entity Type)"`` mirroring
    ``_extract_simple_fallback``
    (/root/reference/extraction/simple_entity_extractor.py:220-278);
    relationships are dropped on this path, as in the reference."""
    out = _Rows()
    for line in raw.splitlines():
        m = _FALLBACK_ENTITY_RE.search(line.strip())
        if m:
            name, etype = m.group(1).strip(), m.group(2).strip()
            if name:
                out.mention(url, chunk_id, name, normalize(name), etype,
                            f"A {etype}")
    return out.table()


def parse_claims(payload: dict, url: str, chunk_id: str) -> pa.Table:
    """Validate an LLM claims payload, mirroring ``_parse_json_claims``
    (/root/reference/extraction/simple_claim_extractor.py:171-207): claims
    need ``content``; ``entities`` coerced str -> [str]."""
    out = _Rows()
    for c in payload.get("claims") or []:
        content = c.get("content")
        if not content:
            continue
        ents = c.get("entities") or []
        if isinstance(ents, str):
            ents = [ents]
        out.claim(url, chunk_id, str(content), [str(e) for e in ents])
    return out.table()


def parse_fallback_claims(raw: str, url: str, chunk_id: str) -> pa.Table:
    """Fallback line parser ``"CLAIM: ... - ENTITIES: [...]"`` mirroring
    ``_extract_simple_fallback``
    (/root/reference/extraction/simple_claim_extractor.py:209-273)."""
    out = _Rows()
    for line in raw.splitlines():
        m = _FALLBACK_CLAIM_RE.search(line.strip())
        if m:
            ents = [e.strip() for e in m.group(2).split(",") if e.strip()]
            out.claim(url, chunk_id, m.group(1).strip(), ents)
    return out.table()


def parse_pipe_extraction(raw: str, url: str, chunk_id: str) -> pa.Table:
    """Parse the pipe-record extraction format of the reference's richer
    prompt family (/root/reference/utils/prompts.py:6-52; dead surface
    there, implemented here to complete M3):
    ``("entity"|NAME|TYPE|DESC)`` and
    ``("relationship"|SRC|TGT|DESC|STRENGTH)`` records, ``**``-delimited,
    terminated by ``END_OF_EXTRACTION``.  Validation matches
    :func:`parse_extraction`: entities need name+type (description
    defaults to ``"A {type}"``), relationship endpoints must name
    entities from the SAME chunk, strength defaults to 0.5 (and on an
    unparseable number)."""
    out = _Rows()
    stop = raw.find("END_OF_EXTRACTION")
    if stop != -1:
        raw = raw[:stop]
    names: set[str] = set()
    rels: list[tuple] = []
    for rec in raw.split("**"):
        # tolerate prose around a record (e.g. a preamble before the
        # first): take the ( .. ) span
        start, end = rec.find("("), rec.rfind(")")
        if start == -1 or end <= start:
            continue
        parts = [p.strip() for p in rec[start + 1:end].split("|")]
        tag = parts[0].strip('"').lower()
        if tag == "entity" and len(parts) >= 3 and parts[1] and parts[2]:
            name, etype = parts[1], parts[2]
            desc = parts[3] if len(parts) > 3 and parts[3] else f"A {etype}"
            names.add(name)
            out.mention(url, chunk_id, name, normalize(name), etype, desc)
        elif tag == "relationship" and len(parts) >= 3:
            desc = parts[3] if len(parts) > 3 and parts[3] else "related to"
            try:
                strength = float(parts[4]) if len(parts) > 4 else 0.5
            except ValueError:
                strength = 0.5
            rels.append((parts[1], parts[2], desc, strength))
    for s, t, desc, strength in rels:
        if s in names and t in names:
            out.triple(url, chunk_id, s, desc, t, strength)
    return out.table()


def parse_pipe_claims(raw: str, url: str, chunk_id: str) -> pa.Table:
    """Parse ``("claim"|content|e1,e2,...)`` records
    (/root/reference/utils/prompts.py:85-124), ``**``-delimited,
    terminated by ``END_OF_CLAIMS``; claims need content, entity names
    split on commas."""
    out = _Rows()
    stop = raw.find("END_OF_CLAIMS")
    if stop != -1:
        raw = raw[:stop]
    for rec in raw.split("**"):
        start, end = rec.find("("), rec.rfind(")")
        if start == -1 or end <= start:
            continue
        parts = [p.strip() for p in rec[start + 1:end].split("|")]
        if parts[0].strip('"').lower() != "claim" or len(parts) < 2:
            continue
        content = parts[1]
        if not content:
            continue
        ents = [e.strip() for e in parts[2].split(",")
                if e.strip()] if len(parts) > 2 else []
        out.claim(url, chunk_id, content, ents)
    return out.table()


class LLMExtractor:
    """Actor-pool LLM extraction stage (production path).

    Per-actor state built once in ``__init__`` — an
    :class:`kgx.functions.llm_client.LLMClient` (retry/backoff + robust
    JSON, the reference builds one aiohttp client per process,
    /root/reference/utils/llm_client.py:24-99) and the prompt templates.
    ``__call__`` fans the batch's chunks over a bounded thread pool of
    ``max_concurrency`` workers (LLM latency is network-bound, so threads
    overlap the waits the way the reference's bounded ``asyncio.gather``
    does, /root/reference/utils/async_utils.py:36-58 — but bounded, unlike
    its unbounded indexing gather) and concatenates results in input
    order, so output is deterministic regardless of completion order.
    Per chunk: entity/relationship extraction (prompt -> extract_json ->
    :func:`parse_extraction`, degrading to the fallback line format),
    then claim extraction over the entities found in the SAME chunk (the
    reference's two-pass flow, simple_graph_builder.py:109-124).  There
    is no network in this sandbox, so the transport must be injected
    (tests use canned transports); without one the stage raises on first
    use.  Injected transports must be thread-safe for
    ``max_concurrency > 1``.
    """

    def __init__(self, endpoint: str | None = None, model: str = "local",
                 temperature: float = 0.1, max_concurrency: int = 8,
                 transport=None, extract_claims: bool = True,
                 prompt_format: str = "json", quarantine: bool = True,
                 client_kwargs: dict | None = None):
        from kgx.functions.llm_client import LLMClient
        from kgx.functions.prompts import PromptTemplates
        if prompt_format not in ("json", "pipe"):
            raise ValueError(f"unknown prompt_format {prompt_format!r}")
        self.endpoint = endpoint
        self.model = model
        self.max_concurrency = max(1, int(max_concurrency))
        self.extract_claims = extract_claims
        self.prompt_format = prompt_format
        # quarantine: a chunk whose transport errors EXHAUST the retry
        # budget lands as one kind="error" row (url, chunk_id, reason in
        # description) instead of killing the task — never silently
        # dropped, driver-countable (reference degrades per-chunk the
        # same way, simple_entity_extractor.py:87-90,114-117).  Config
        # errors (no transport at all) still raise.
        self.quarantine = quarantine
        self.client = LLMClient(transport, temperature=temperature,
                                **(client_kwargs or {}))
        self.prompts = PromptTemplates()
        self._pool = None  # lazy per-actor thread pool

    def _chunk_tables(self, url: str, chunk_id: str, text: str) -> list:
        tables = []
        if self.prompt_format == "pipe":
            raw = self.client.generate(
                self.prompts.pipe_entity_extraction(text))
            t = parse_pipe_extraction(raw, url, chunk_id)
            if t.num_rows == 0:
                raw = self.client.generate(self.prompts.entity_fallback(text))
                t = parse_fallback_entities(raw, url, chunk_id)
        else:
            payload = self.client.extract_json(
                self.prompts.entity_extraction(text))
            if "error" in payload:
                raw = self.client.generate(self.prompts.entity_fallback(text))
                t = parse_fallback_entities(raw, url, chunk_id)
            else:
                t = parse_extraction(payload, url, chunk_id)
        tables.append(t)
        if self.extract_claims:
            names = sorted(set(
                t.filter(pa.compute.equal(t["kind"], "mention"))
                 ["mention"].to_pylist()))
            if names:
                tables.append(self._claim_table(url, chunk_id, text, names))
        return tables

    def _claim_table(self, url: str, chunk_id: str, text: str,
                     names: list[str]) -> pa.Table:
        if self.prompt_format == "pipe":
            raw = self.client.generate(
                self.prompts.pipe_claim_extraction(text, names))
            return parse_pipe_claims(raw, url, chunk_id)
        cp = self.client.extract_json(
            self.prompts.claim_extraction(text, names))
        if "error" in cp:
            raw = self.client.generate(self.prompts.claim_fallback(text))
            return parse_fallback_claims(raw, url, chunk_id)
        return parse_claims(cp, url, chunk_id)

    def _quarantine_row(self, url: str, chunk_id: str,
                        exc: Exception) -> pa.Table:
        return pa.Table.from_pylist([{
            "kind": "error", "url": url, "chunk_id": chunk_id,
            "description": f"{type(exc).__name__}: {exc}"[:200],
        }], schema=EXTRACTED_SCHEMA)

    def _chunk_tables_safe(self, url: str, chunk_id: str,
                           text: str) -> list:
        from kgx.functions.llm_client import TransportError
        if not self.quarantine:
            return self._chunk_tables(url, chunk_id, text)
        try:
            return self._chunk_tables(url, chunk_id, text)
        except TransportError as exc:     # retries exhausted -> sidecar
            return [self._quarantine_row(url, chunk_id, exc)]

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = [(url, chunk_id, text)
                for url, chunk_id, text in zip(batch["url"].to_pylist(),
                                               batch["chunk_id"].to_pylist(),
                                               batch["text"].to_pylist())
                if text]
        if self.max_concurrency > 1 and len(rows) > 1:
            if self._pool is None:
                from concurrent.futures import ThreadPoolExecutor
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_concurrency)
            # executor.map preserves input order -> deterministic output
            per_chunk = list(self._pool.map(
                lambda r: self._chunk_tables_safe(*r), rows))
        else:
            per_chunk = [self._chunk_tables_safe(*r) for r in rows]
        tables = [t for ts in per_chunk for t in ts]
        if not tables:
            return EXTRACTED_SCHEMA.empty_table()
        return pa.concat_tables(tables)
