"""Extractor unit tests: gazetteer/term extraction + LLM payload parsers
(FIXTURES.md §4 extractor parse cases)."""

import sys

import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from kgx.oracle import gazetteer_reference
from kgx.stages import extract
from kgx.stages.extract import (EXTRACTED_SCHEMA, GazetteerExtractor,
                                TermExtractor, parse_extraction,
                                parse_fallback_entities, parse_json_response)
from kgx.synth import GAZETTEER, RELATION_PATTERNS

WHITESPACE = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]
ALIASES = sorted({v for _, aliases in GAZETTEER.values() for a in aliases
                  for v in (a, a.upper(), a.swapcase())})
# A mention never spans a sentence cut and a triple rarely depends on
# one, so a claim's content is what shows a misplaced cut: claim
# triggers, sentence ends and NUL each get their own share of the pieces.
WORDS = ([t.split("{a}")[1].split("{b}")[0] for t, *_ in RELATION_PATTERNS]
         + ["Ünïcödé", "naïve café", "Ada", "x"])
TEXT = st.one_of(
    st.none(), st.just(""),
    st.lists(st.one_of(st.sampled_from(ALIASES), st.sampled_from(WORDS),
                       st.sampled_from(["It is reported that",
                                        "it IS reported THAT"]),
                       st.sampled_from([".", "!", "?", "...", "?!", "\x00"]),
                       st.sampled_from(WHITESPACE),
                       st.text(WHITESPACE, min_size=1, max_size=3)),
             max_size=40).map("".join))
# Warm across examples, as a worker's extractor is across batches; the
# tiny memo cap also drives the uncached path.
WARM = [GazetteerExtractor(), GazetteerExtractor()]
WARM[1]._sentence_cap = 4
REFERENCE = GazetteerExtractor()


def _chunk(text, url="u", chunk_id="u_0"):
    return pa.table({"url": [url], "chunk_id": [chunk_id], "text": [text]})


class TestGazetteerExtractor:
    def test_mentions_and_aliases(self):
        ex = GazetteerExtractor()
        out = ex(_chunk("Ada Lovelace met ADA LOVELACE near Bérlin."))
        rows = out.filter(pa.compute.equal(out["kind"], "mention")).to_pylist()
        norms = sorted(r["norm_mention"] for r in rows)
        assert norms == ["ada lovelace", "ada lovelace", "berlin"]
        surfaces = {r["mention"] for r in rows}
        assert {"Ada Lovelace", "ADA LOVELACE", "Bérlin"} == surfaces

    def test_relation_with_strength(self):
        ex = GazetteerExtractor()
        out = ex(_chunk("Grace Hopper is the CEO of Acme Corporation."))
        tri = out.filter(pa.compute.equal(out["kind"], "triple")).to_pylist()
        assert len(tri) == 1
        assert tri[0]["pred"] == "is the CEO of"
        assert abs(tri[0]["strength"] - 0.9) < 1e-6

    def test_low_strength_pattern_emitted(self):
        # 'visited' (0.4) is emitted raw; the strength FILTER is downstream
        ex = GazetteerExtractor()
        out = ex(_chunk("Alan Turing visited Paris."))
        tri = out.filter(pa.compute.equal(out["kind"], "triple")).to_pylist()
        assert len(tri) == 1 and abs(tri[0]["strength"] - 0.4) < 1e-6

    def test_claim_requires_entity(self):
        ex = GazetteerExtractor()
        out = ex(_chunk("It is reported that Acme Corporation announced record "
                        "results this quarter."))
        claims = out.filter(pa.compute.equal(out["kind"], "claim")).to_pylist()
        assert len(claims) == 1
        assert claims[0]["entities"] == ["Acme Corporation"]
        # no entity in the claim sentence -> dropped
        out2 = ex(_chunk("It is reported that nothing happened."))
        assert out2.filter(pa.compute.equal(out2["kind"], "claim")).num_rows == 0

    def test_empty_and_null_text(self):
        ex = GazetteerExtractor()
        batch = pa.table({"url": ["u", "v"], "chunk_id": ["u_0", "v_0"],
                          "text": [None, ""]})
        assert ex(batch).num_rows == 0


def _batch(texts):
    return pa.table({
        "url": pa.array([f"u{i % 3}" for i in range(len(texts))], pa.string()),
        "chunk_id": pa.array([f"c{i}" for i in range(len(texts))],
                             pa.string()),
        "text": pa.array(texts, pa.string())})


@settings(max_examples=150, deadline=None)
@given(st.lists(TEXT, max_size=24), st.integers(0, 5))
def test_gazetteer_matches_sequential_reference(texts, n_chunks):
    """Arrow split + per-distinct-sentence extraction equals the per-chunk
    ``_SENT_SPLIT`` loop on every slice, whatever the slicing, the
    column's chunk layout or what the memo already holds."""
    whole = _batch(texts)
    if n_chunks and whole.num_rows:       # a multi-chunk text column
        cuts = sorted({len(texts) * k // (n_chunks + 1)
                       for k in range(n_chunks + 2)})
        whole = pa.concat_tables([whole.slice(a, b - a)
                                  for a, b in zip(cuts, cuts[1:])])
    for ways in (1, 3, 7):
        step = -(-whole.num_rows // ways) or 1
        for off in range(0, max(whole.num_rows, 1), step):
            part = whole.slice(off, step)
            want = gazetteer_reference(REFERENCE, part)
            for ex in WARM:
                got = ex(part)
                assert got.equals(want), (part["text"].to_pylist(),
                                          got.to_pylist(), want.to_pylist())


def test_gazetteer_edge_batches():
    ex = GazetteerExtractor()
    assert ex(_batch([])).equals(EXTRACTED_SCHEMA.empty_table())
    assert ex(_chunk(None)).equals(EXTRACTED_SCHEMA.empty_table())
    batch = _batch(["Ada Lovelace.\x00 Paris!\tAda Lovelace works for\x00"
                    " Acme Corporation.", None, "", "Ada Lovelace\u3000"
                    "visited Paris?\u2029It is reported that Acme "
                    "Corporation.  Grace Hopper", "It is reported that Acme "
                    "Corporation\x00 announced."])
    assert ex(batch).equals(gazetteer_reference(ex, batch))


def test_repeated_sentence_screened_once(monkeypatch):
    """A batch's distinct sentences reach Python once each: 10,000
    occurrences of one filler sentence are screened (word-tokenized)
    once, and a second batch holding it is all memo hits."""
    screened, words = [], extract._WORD_RE

    class CountingWords:
        def findall(self, text):
            screened.append(text)
            return words.findall(text)

    filler = "Click here to read more about our cookie policy."
    texts = [" ".join([filler] * 100 + ["Ada Lovelace visited Paris."])
             for _ in range(100)]
    batch = _batch(texts)
    want = gazetteer_reference(GazetteerExtractor(), batch)
    no_memo, warm = GazetteerExtractor(), GazetteerExtractor()
    no_memo._sentence_cap = 0          # the batch's dictionary alone
    monkeypatch.setattr(extract, "_WORD_RE", CountingWords())
    out = no_memo(batch)
    assert sorted(screened) == sorted(
        [filler.lower(), "ada lovelace visited paris."])
    assert out.equals(want)
    assert out["kind"].to_pylist().count("mention") == 200
    warm(batch)
    screened.clear()
    assert warm(batch).equals(out) and not screened


class TestTermExtractor:
    def test_terms_and_pairs(self):
        ex = TermExtractor()
        out = ex(_chunk("alpha beta alpha gamma xy"))
        mentions = out.filter(pa.compute.equal(out["kind"], "mention")).to_pylist()
        assert [m["mention"] for m in mentions] == ["alpha", "beta", "alpha", "gamma"]
        tri = out.filter(pa.compute.equal(out["kind"], "triple")).to_pylist()
        pairs = {(t["subj"], t["obj"]) for t in tri}
        assert pairs == {("alpha", "beta"), ("alpha", "gamma"), ("beta", "gamma")}

    def test_max_terms_cap(self):
        ex = TermExtractor(max_terms=2)
        out = ex(_chunk("aaaa bbbb cccc dddd"))
        tri = out.filter(pa.compute.equal(out["kind"], "triple")).to_pylist()
        assert len(tri) == 1  # only first 2 distinct terms pair up

    def test_no_claims_by_default(self):
        out = TermExtractor()(_chunk("alpha beta"))
        assert out.filter(
            pa.compute.equal(out["kind"], "claim")).num_rows == 0

    def test_emit_claims(self):
        ex = TermExtractor(emit_claims=True, max_terms=2)
        out = ex(_chunk("alpha beta alpha gamma xy"))
        claims = out.filter(pa.compute.equal(out["kind"], "claim")).to_pylist()
        assert len(claims) == 1
        assert claims[0]["content"] == "alpha beta alpha gamma xy"
        assert sorted(claims[0]["entities"]) == ["alpha", "beta"]  # capped
        # a chunk with zero terms emits no claim
        empty = ex(_chunk("xy z"))
        assert empty.filter(
            pa.compute.equal(empty["kind"], "claim")).num_rows == 0


class TestLLMParsers:
    # mirror /root/reference/extraction/simple_entity_extractor.py:170-218,260
    def test_json_substring_extraction(self):
        raw = 'Sure! Here is the JSON:\n{"entities": []}\nHope that helps.'
        assert parse_json_response(raw) == {"entities": []}

    def test_bad_json_degrades(self):
        out = parse_json_response("no braces here")
        assert "error" in out and out["raw_response"] == "no braces here"
        out2 = parse_json_response("{not valid json}")
        assert "error" in out2

    def test_parse_extraction_validates(self):
        payload = {
            "entities": [
                {"name": "Acme", "type": "ORGANIZATION"},
                {"name": "NoType"},                       # dropped: no type
                {"type": "PERSON"},                       # dropped: no name
            ],
            "relationships": [
                {"source": "Acme", "target": "Acme", "description": "self",
                 "strength": 0.8},
                {"source": "Acme", "target": "Unknown Co"},  # dropped endpoint
            ],
        }
        out = parse_extraction(payload, "u", "u_0")
        kinds = out["kind"].to_pylist()
        assert kinds.count("mention") == 1 and kinds.count("triple") == 1
        m = out.filter(pa.compute.equal(out["kind"], "mention")).to_pylist()[0]
        assert m["description"] == "A ORGANIZATION"  # default desc

    def test_fallback_line_parser(self):
        raw = "Entities found:\nAcme Corp (Organization)\nParis (Location)\nnoise"
        out = parse_fallback_entities(raw, "u", "u_0")
        assert out.num_rows == 2
        assert out.schema.equals(EXTRACTED_SCHEMA)
