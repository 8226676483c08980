"""Unit tests for the pure operators (FIXTURES.md §4 micro-fixtures)."""

import pyarrow as pa
import pytest

from kgx.functions.chunker import chunk_text, chunk_token_windows
from kgx.functions.html_text import extract_text
from kgx.functions.normalize import claim_id, edge_id, entity_id, normalize


class TestNormalize:
    # oracle semantics: /root/reference/extraction/entity_resolver.py:14-20
    @pytest.mark.parametrize("raw,want", [
        ("Café-Au_Lait!", "cafe au lait"),
        ("  United   States ", "united states"),
        ("UNITED-STATES", "united states"),
        ("Ada Loveláce", "ada lovelace"),
        ("already clean", "already clean"),
        ("Release 2.0 (beta)", "release 2 0 beta"),
        ("", ""),
        ("!!!", ""),
    ])
    def test_cases(self, raw, want):
        assert normalize(raw) == want

    def test_ids_deterministic(self):
        assert entity_id("acme") == entity_id("acme")
        assert entity_id("acme") != entity_id("acme corp")
        assert edge_id("a", "p", "b") != edge_id("b", "p", "a")
        assert claim_id("x") == claim_id("x")


class TestChunker:
    # window semantics: /root/reference/extraction/text_chunker.py:63,89-115
    def test_empty_doc(self):
        assert chunk_text("", "d") == []
        assert chunk_text("   ", "d") == []

    def test_short_doc_single_chunk(self):
        rows = chunk_text("a b c", "d", size=10, overlap=2)
        assert len(rows) == 1
        assert rows[0]["chunk_id"] == "d_0"
        assert rows[0]["text"] == "a b c"

    def test_exact_size_single_chunk(self):
        assert len(chunk_text("a b c d", "d", size=4, overlap=1)) == 1

    def test_just_over_size(self):
        rows = chunk_text("a b c d e", "d", size=4, overlap=1)
        assert len(rows) == 2
        assert rows[0]["text"] == "a b c d"
        assert rows[1]["text"] == "d e"  # stride 3, overlap 1

    def test_overlap_clamped_to_half_size(self):
        # overlap 9 > size//2 -> clamped to 5 -> stride 5
        starts = chunk_token_windows(30, 10, 9)
        assert starts == [0, 5, 10, 15, 20]

    def test_full_coverage_and_overlap(self):
        toks = [str(i) for i in range(537)]
        rows = chunk_text(" ".join(toks), "d", size=100, overlap=20)
        covered = set()
        for r in rows:
            covered.update(r["text"].split())
        assert covered == set(toks)
        # consecutive chunks share exactly `overlap` tokens
        a = rows[0]["text"].split()
        b = rows[1]["text"].split()
        assert a[-20:] == b[:20]

    def test_batch_fn_equals_chunk_text(self):
        """The pipeline's inlined column builder must emit exactly the
        rows of the sequential-oracle chunk_text, doc by doc."""
        import pyarrow as pa
        from kgx.pipelines.kg import make_chunk_batch_fn
        docs = ["", "   ", "a b c",
                " ".join(str(i) for i in range(537)),
                " ".join("tok%d" % i for i in range(100))]
        urls = [f"u{i}" for i in range(len(docs))]
        for size, overlap in ((100, 20), (4, 1), (10, 9)):
            got = make_chunk_batch_fn(size, overlap)(pa.table({
                "url": pa.array(urls), "text": pa.array(docs)})).to_pylist()
            want = [row for u, d in zip(urls, docs)
                    for row in chunk_text(d, u, size, overlap)]
            assert got == want, (size, overlap)


class TestHtmlText:
    # /root/repo-owned oracle: same function in pipeline and test (SURVEY §7.1)
    def test_basic_blocks(self):
        html = b"<html><body><p>Hello <b>world</b>.</p><p>Second.</p></body></html>"
        assert extract_text(html) == "Hello world.\nSecond."

    def test_boilerplate_stripped(self):
        html = (b"<html><head><title>T</title><style>x{}</style>"
                b"<script>var a=1;</script></head><body>"
                b"<nav>Home News</nav><header><h1>Title</h1></header>"
                b"<p>Body text.</p><footer>footer text</footer></body></html>")
        assert extract_text(html) == "Body text."

    def test_entities_unescaped(self):
        assert extract_text(b"<p>A &amp; B &lt;3</p>") == "A & B <3"

    def test_whitespace_normalized(self):
        assert extract_text(b"<p>a\n   b\t c</p>") == "a b c"

    def test_none_and_empty(self):
        assert extract_text(None) == ""
        assert extract_text(b"") == ""

    def test_broken_markup_deterministic(self):
        broken = b"<html><body><p>kept text</p><div class='x"
        out1, out2 = extract_text(broken), extract_text(broken)
        assert out1 == out2
        assert "kept text" in out1

    def test_non_utf8_bytes_replaced(self):
        out = extract_text(b"<p>caf\xe9</p>")  # latin-1 byte
        assert out.startswith("caf")

    def test_bom_stripped(self):
        assert extract_text("﻿<p>x</p>".encode("utf-8")) == "x"

    def test_unclosed_script_drops_rest(self):
        html = b"<p>before</p><script>var x=1; <p>not text</p>"
        assert extract_text(html) == "before"

    def test_idempotent_across_runs(self):
        html = ("<html><body>" + "<p>p&aacute;ra</p>" * 50 + "</body></html>").encode()
        assert extract_text(html) == extract_text(html)


def test_latest_crawl_per_url(ray_session):
    import pyarrow as pa
    import ray.data as rd
    from kgx.sources.pages import latest_crawl_per_url
    US = 1_000_000
    rows = [("u1", 100), ("u1", 300), ("u1", 200),   # recrawled -> keep 300
            ("u2", 50),                               # single snapshot
            ("u3", 70), ("u3", 70)]                   # exact-tie duplicates
    tbl = pa.table({
        "url": pa.array([r[0] for r in rows], pa.string()),
        "warc_ts": pa.array([r[1] * US for r in rows], pa.timestamp("us")),
        "html": pa.array([f"<p>{i}</p>".encode() for i in range(len(rows))],
                         pa.binary()),
        "text": pa.array([None] * len(rows), pa.string()),
        "lang": pa.array(["en"] * len(rows), pa.string()),
    })
    out = latest_crawl_per_url(rd.from_arrow(tbl)).to_pandas()
    got = sorted((r["url"], int(r["warc_ts"].timestamp()))
                 for _, r in out.iterrows())
    assert got == [("u1", 300), ("u2", 50), ("u3", 70), ("u3", 70)]


class TestFastHtmlPathEquivalence:
    """The regex fast path must be byte-identical to the stdlib parser
    wherever it claims validity (it may fall back freely — correctness
    is stdlib's; speed is the fast path's)."""

    def _check(self, s: str):
        from kgx.functions.html_text import (_extract_stdlib, _fast_parts,
                                             _finish)
        parts = _fast_parts(s)
        if parts is not None:
            assert _finish(parts) == _extract_stdlib(s), repr(s)

    def test_handled_constructs(self):
        for s in [
            "<p>a</p>", "<P>a</P>", "<br/>", "<br />", "<hr/>x<p>y",
            "<script>if(a<b){x='</scri'+'pt>'}</script><p>ok</p>",
            "<style>a{color:red}</style><p>t</p>",
            "<SCRIPT>var x=1;</SCRIPT>visible",
            "<script>no close tag at all",
            "<script></scriptx></script><p>z</p>",
            "<a href='/x'>l</a><p>m&amp;n &lt;3</p>",
            "<div class=\"a b\"><ul><li>i</li></ul></div>",
            "<nav><a href='/'>Home</a></nav><article>body</article>",
            "<p>café — naïve</p>",
            "<p>a &nbsp; b</p>", "<td>1</td><th>2</th>",
            "text only, no tags at all",
            "<footer>© 2026 Example &amp; Co.</footer>",
            "<x-unknown attr=1>kept</x-unknown>",
            "<p>trailing text",
        ]:
            self._check(s)

    @pytest.mark.parametrize("s, want", [
        ("a<script>x</ script><p>y", "a\ny"),
        ("<script>x</ script><nav>secret</nav>visible", "visible"),
        ("<script>x</ script>tail<p>y", "tail\ny"),
        ("<p>a<script>x</script></p>b<style>q</ style>c<p>d", "a\nbc\nd"),
        ("<style>x</\nstyle >q<b>r</b>", "qr"),
        ("<script>x</ script>", ""),
    ])
    def test_cdata_end_tag_inside_data_piece(self, s, want):
        # ``</ script>`` ends the CDATA region in html.parser but is not a
        # tag piece of the split: the walk resumes mid data piece, and the
        # tag right after it still acts
        from kgx.functions.html_text import (_extract_stdlib, _fast_parts,
                                             _finish)
        parts = _fast_parts(s)
        assert parts is not None
        assert _finish(parts) == _extract_stdlib(s) == want

    def test_fallback_constructs_still_correct(self):
        # these must produce stdlib output (fast path declines or not —
        # either way extract_text equals the stdlib extraction)
        from kgx.functions.html_text import _extract_stdlib, extract_text
        for s in [
            "<!-- comment --><p>a</p>", "<!DOCTYPE html><p>a</p>",
            "<?php echo 1 ?><p>a</p>", "<p>a < b</p>",
            "<a title=\"x>y\">z</a>", "<input disabled/>",
            "<a href=x/>", "<p>a</p junk>", "</ p>", "<>",
            "<p\x00bad>t</p>",
        ]:
            assert extract_text(s.encode("utf-8")) == _extract_stdlib(s), \
                repr(s)

    @staticmethod
    def _markup():
        from hypothesis import strategies as st

        tags = st.sampled_from(
            ["p", "div", "P", "script", "style", "nav", "br", "em",
             "x-y", "li", "footer"])
        frag = st.one_of(
            st.text(
                alphabet="ab <>&;/\"'=!-é\n\t",
                max_size=12),
            st.sampled_from(["&amp;", "&lt;", "&#65;", "&bogus;",
                             "<!--c-->", "]]>", "<? ?>", "a<b"]),
            tags.map(lambda t: f"<{t}>"),
            tags.map(lambda t: f"</{t}>"),
            tags.map(lambda t: f"</ {t}>"),
            tags.map(lambda t: f"</\n{t} >"),
            tags.map(lambda t: f"<{t} d='{'x' * 300}'>"),
            tags.map(lambda t: f"<{t}/>"),
            tags.map(lambda t: f"<{t} a='v'>"),
            tags.map(lambda t: f"<{t} a=\"v\" b>"),
        )
        return st.lists(frag, max_size=24).map("".join)

    def test_property_random_markup(self):
        from hypothesis import given, settings
        check = self._check

        @given(self._markup())
        @settings(max_examples=400, deadline=None)
        def run(s):
            check(s)

        run()

    def test_property_random_markup_tiny_tag_memo(self, monkeypatch):
        # A memo that fills after two tags: most tags are classified on
        # every occurrence, the first two (possibly a reject) from the
        # memo.  A second pass over the same page must agree with the
        # first, and both with html.parser.
        from hypothesis import given, settings
        from kgx.functions import html_text as ht
        monkeypatch.setattr(ht, "_TAG_MEMO", {})
        monkeypatch.setattr(ht, "_TAG_MEMO_MAX", 2)
        check = self._check

        @given(self._markup())
        @settings(max_examples=400, deadline=None)
        def run(s):
            first = ht._fast_parts(s)
            assert ht._fast_parts(s) == first, repr(s)
            check(s)
            assert ht.extract_text(s.encode("utf-8")) == \
                ht._extract_stdlib(s), repr(s)

        run()
        assert len(ht._TAG_MEMO) == 2

    @pytest.mark.parametrize("first", [
        "<nav><p>hidden</p><b>h</b></nav>",              # skip subtree
        "<script>var s = '<p>x</p><b>y</b>';</script>",   # CDATA region
        "<style>a::after { content: '<p><b>' }</style>",
    ])
    def test_tag_seen_first_in_skipped_content(self, monkeypatch, first):
        # <p> / <b> first occur where their content is dropped (a skip
        # subtree, or CDATA where they are not tags at all), then at top
        # level: their memoized actions must still hold there.
        from kgx.functions import html_text as ht
        monkeypatch.setattr(ht, "_TAG_MEMO", {})
        s = first + "<p>shown <b>bold</b> text</p><p>more</p>"
        parts = ht._fast_parts(s)
        assert parts is not None
        assert ht._finish(parts) == ht._extract_stdlib(s) \
            == "shown bold text\nmore"
        assert ht._TAG_MEMO["<p>"] == ht._BREAK
        assert ht._TAG_MEMO["<b>"] == ht._NONE
        # a tag the fast path rejects, first seen inside CDATA (not a
        # tag there), is memoized as a reject at top level
        bad = "<a title='x\"y'>"
        s = f"<script>'{bad}'</script><p>a</p>{bad}z</a>"
        assert ht._fast_parts(s) is None
        assert ht._TAG_MEMO[bad] == ht._REJECT
        assert ht.extract_text(s.encode()) == ht._extract_stdlib(s)

    def test_tag_memo_stays_at_cap(self, monkeypatch):
        # more distinct tags (unique hrefs) than the memo holds: inserts
        # stop at the cap, and the rest are classified per occurrence
        from kgx.functions import html_text as ht
        monkeypatch.setattr(ht, "_TAG_MEMO", {})
        n = ht._TAG_MEMO_MAX + 100
        s = "<p>" + "".join(f"<a href='/p{i}'>x{i}</a>"
                            for i in range(n)) + "</p><p>end</p>"
        want = ht._extract_stdlib(s)
        parts = ht._fast_parts(s)
        assert parts is not None and ht._finish(parts) == want
        assert len(ht._TAG_MEMO) == ht._TAG_MEMO_MAX
        assert ht._finish(ht._fast_parts(s)) == want
        assert len(ht._TAG_MEMO) == ht._TAG_MEMO_MAX

    def test_long_tags_not_memoized(self, monkeypatch):
        # unique long tags (inline data: URIs) are classified per
        # occurrence and never held by the memo
        from kgx.functions import html_text as ht
        monkeypatch.setattr(ht, "_TAG_MEMO", {})
        pad = "A" * ht._TAG_MEMO_KEY_MAX
        s = "".join(f"<p><img src='data:{pad}{i}'>t{i}</p>"
                    for i in range(50)) + "<nav x='" + pad + "'>n</nav>z"
        parts = ht._fast_parts(s)
        assert parts is not None
        assert ht._finish(parts) == ht._extract_stdlib(s)
        assert sorted(ht._TAG_MEMO) == ["</nav>", "</p>", "<p>"]

    def test_benchmark_page_shape(self):
        # the perfbench web_pages shape (filler_scale=8, ~7 KB pages):
        # equal to html.parser, and carried by the fast path, so a
        # silent fallback regression shows here
        from kgx.functions.html_text import (_decode, _extract_stdlib,
                                             _fast_parts, _finish)
        from kgx.synth import generate_rows
        t, _ = generate_rows(0, 300, seed=1, filler_scale=8)
        n = n_fast = 0
        for v in t["html"].to_pylist():
            s = _decode(v)
            if not s:
                continue
            n += 1
            parts = _fast_parts(s)
            if parts is not None:
                n_fast += 1
                assert _finish(parts) == _extract_stdlib(s)
        assert n > 250 and n_fast >= 0.95 * n, (n_fast, n)

    def test_corpus_sample_equivalence(self):
        # every synthetic page shape (null / empty / truncated / entity /
        # boilerplate) through BOTH paths
        from kgx.functions.html_text import _extract_stdlib
        from kgx.synth import generate_rows
        t, _ = generate_rows(0, 400, seed=7)
        n_fast = 0
        from kgx.functions.html_text import _fast_parts, _finish
        for v in t["html"].to_pylist():
            if not v:
                continue
            s = bytes(v).decode("utf-8", errors="replace")
            if s.startswith("﻿"):
                s = s[1:]
            parts = _fast_parts(s)
            if parts is not None:
                n_fast += 1
                assert _finish(parts) == _extract_stdlib(s)
        assert n_fast > 300      # the fast path carries the corpus
