"""Deterministic, pure-Python HTML -> text extraction (trafilatura-style
boilerplate removal on stdlib ``html.parser`` only).

The reference has no HTML path at all (it reads raw ``.txt``,
/root/reference/graphrag_lite_x.py:130-148); the web-page input shape comes
from BASELINE.json ``input_hint``.  The Ray pipeline runs
:func:`extract_text`: a regex fast path that falls back to
``html.parser`` wherever it has not proven it mirrors it.  The
sequential oracle (``kgx.oracle.run_oracle``) runs ``html.parser`` alone
behind the same decoding, so the "byte-identical extracted text per url"
invariant checks the fast path against the stdlib parser.

Rules (fixed, versioned by EXTRACTOR_VERSION — bump on any behavior change,
it participates in checkpoint config hashes):

- bytes are decoded as UTF-8 with ``errors="replace"``; a leading BOM is
  stripped; ``None``/empty html yields ``""``.
- content inside script/style/noscript/template/head/nav/header/footer/
  aside/svg/iframe/button/form/select/option is dropped (boilerplate).
- block-level tags emit a line break; inline tags emit nothing; character
  and entity references are unescaped (``convert_charrefs=True``).
- whitespace is normalized per line (runs collapse to one space, lines
  stripped, empty lines dropped) and lines joined with ``"\\n"``.
- malformed markup is handled by html.parser's tolerant state machine; an
  unclosed skip-tag deterministically drops the remainder of the document.
"""

from __future__ import annotations

import re
from html import unescape
from html.parser import HTMLParser

EXTRACTOR_VERSION = "kgx-html-2"

# Subtrees that are never content.
_SKIP_TAGS = frozenset({
    "script", "style", "noscript", "template", "head", "nav", "header",
    "footer", "aside", "svg", "iframe", "button", "form", "select", "option",
})

# Tags that delimit visual blocks -> line breaks.
_BLOCK_TAGS = frozenset({
    "p", "div", "section", "article", "main", "body", "html",
    "h1", "h2", "h3", "h4", "h5", "h6",
    "ul", "ol", "li", "dl", "dt", "dd",
    "table", "thead", "tbody", "tfoot", "tr", "td", "th", "caption",
    "blockquote", "pre", "figure", "figcaption", "address", "hr", "br",
})


class _TextExtractor(HTMLParser):
    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self._skip_depth = 0
        self._parts: list[str] = []

    _BREAK = "\x00"  # block-boundary sentinel; source newlines are spaces

    def handle_starttag(self, tag, attrs):
        if tag in _SKIP_TAGS:
            self._skip_depth += 1
        elif tag in _BLOCK_TAGS:
            self._parts.append(self._BREAK)

    def handle_endtag(self, tag):
        if tag in _SKIP_TAGS:
            if self._skip_depth > 0:
                self._skip_depth -= 1
        elif tag in _BLOCK_TAGS:
            self._parts.append(self._BREAK)

    def handle_startendtag(self, tag, attrs):
        # self-closing (<br/>, <hr/>): a void skip tag has no subtree to skip
        if tag in _BLOCK_TAGS:
            self._parts.append(self._BREAK)

    def handle_data(self, data):
        if self._skip_depth == 0 and data:
            self._parts.append(data)

    def text(self) -> str:
        return _finish(self._parts)


# ---------------------------------------------------------------------------
# Fast path.  html.parser's pure-Python state machine is the slowest step
# of HTML -> text: about 1.25 s against 0.34 s for ``extract_text`` over
# the 3,500 ~7 KB synthetic pages of perfbench ``web_pages`` (one core of
# a shared VM).  The tokenizer below reproduces its
# OBSERVABLE behavior (the emitted parts sequence) on a strictly verified
# input subset and returns None — falling back to the stdlib parser — the
# moment it sees anything whose stdlib handling it has not proven it
# mirrors: declarations / comments / PIs (``<!``, ``<?``), a stray ``<``
# in text, a ``>`` inside a quoted attribute (detected as an unbalanced
# quote in the regex-matched tag body, which always truncates INSIDE the
# open quote), a tag name extending past ``[-.a-zA-Z0-9:_]``, an
# ambiguous trailing ``/`` (html.parser folds it into an unquoted
# attribute VALUE but self-closes after a name/quote/whitespace), a
# non-trivial end tag, or an unterminated trailing tag.  Byte-identity
# fast-vs-stdlib is pinned by a hypothesis property test over adversarial
# markup plus a whole-corpus compare (tests/test_functions.py).
#
# One regex split cuts a page into alternating data and tag pieces.  What
# a tag does depends on its text alone, and pages repeat a few dozen tag
# strings hundreds of thousands of times, so each distinct tag text is
# classified once (``_tag_action``) and its action memoized per process;
# an occurrence costs one dict lookup.  The CDATA close scan after
# <script>/<style> depends on position and runs per occurrence.
# ---------------------------------------------------------------------------

_SUSPECT_RE = re.compile(r"<[!?]")
_TAG_RE = re.compile(r"<(/?)([a-zA-Z][^<>]*?)(/?)>")
# The spans of _TAG_RE (a tag runs from ``<`` to the first ``>``), as the
# separators of one split: data, tag, data, ..., tag, data.
_TAG_SPLIT_RE = re.compile(r"(</?[a-zA-Z][^<>]*>)")
_NAME_RE = re.compile(r"[a-zA-Z][-.a-zA-Z0-9:_]*")
_END_BODY_RE = re.compile(r"[a-zA-Z][-.a-zA-Z0-9:_]*\s*\Z")
_WS_OR_SLASH = " \t\n\r\f/"
_SELFCLOSE_OK = " \t\n\r\f\"'"
_CDATA_CLOSE = {
    "script": re.compile(r"</\s*script", re.I),
    "style": re.compile(r"</\s*style", re.I),
}
_CDATA_TAIL_RE = re.compile(r"([-.a-zA-Z0-9:_]*)\s*(>?)")

# Tag actions: nothing, a line break, open / close a skipped subtree,
# open a script / style subtree (skipped, CDATA content), fall back.
_NONE, _BREAK, _SKIP_OPEN, _SKIP_CLOSE, _SCRIPT, _STYLE, _REJECT = range(7)
_CDATA_OF = {_SCRIPT: _CDATA_CLOSE["script"], _STYLE: _CDATA_CLOSE["style"]}
# Per-process memo: tag text -> action.  Bounded: inserts stop at the cap
# (the frequent tags recur early), so a page of unique tags costs one
# classification per occurrence.
_TAG_MEMO: dict[str, int] = {}
_TAG_MEMO_MAX = 65536
# Longer tags (inline data: URIs, JSON attributes) are rarely repeated
# and are classified per occurrence, so the memo holds at most 65,536 x
# 256 characters of keys (about 20 MB of ASCII tag text).
_TAG_MEMO_KEY_MAX = 256


def _tag_action(tag: str) -> int:
    """The action of one matched tag text ``<...>``."""
    closing, body, selfclose = _TAG_RE.match(tag).groups()
    if closing:
        if selfclose or not _END_BODY_RE.match(body):
            return _REJECT
        name = _NAME_RE.match(body).group(0).lower()
        if name in _SKIP_TAGS:
            return _SKIP_CLOSE
        return _BREAK if name in _BLOCK_TAGS else _NONE
    nm = _NAME_RE.match(body)
    name_end = nm.end()
    if name_end < len(body) and body[name_end] not in _WS_OR_SLASH:
        return _REJECT                    # name uses chars we don't model
    name = nm.group(0).lower()
    attrs = body[name_end:]
    if attrs.count('"') % 2 or attrs.count("'") % 2:
        return _REJECT                    # '>' inside a quoted attribute
    if selfclose:
        if attrs and attrs[-1] not in _SELFCLOSE_OK:
            return _REJECT                # '/' may belong to a bare value
        # genuine <tag/>: block tags break, skip tags have no subtree
        return _BREAK if name in _BLOCK_TAGS else _NONE
    if name == "script":
        return _SCRIPT
    if name == "style":
        return _STYLE
    if name in _SKIP_TAGS:
        return _SKIP_OPEN
    return _BREAK if name in _BLOCK_TAGS else _NONE


def _cdata_end(s: str, pos: int, close_re: re.Pattern) -> int | None:
    """Where the script/style content opened at ``pos`` and its end tag
    end, or None -> stdlib.  ``len(s) + 1`` when it is unterminated: the
    rest of the document is dropped."""
    while True:
        cm = close_re.search(s, pos)
        if cm is None:
            return len(s) + 1
        tm = _CDATA_TAIL_RE.match(s, cm.end())
        if tm.group(1):                   # </scriptx... : still CDATA
            pos = cm.end()
            continue
        if not tm.group(2):               # </script junk> : stdlib-only
            return None
        return tm.end()


def _fast_parts(s: str) -> list[str] | None:
    """html.parser-equivalent (parts, breaks) stream, or None -> stdlib."""
    if _SUSPECT_RE.search(s):
        return None
    pieces = _TAG_SPLIT_RE.split(s)
    memo = _TAG_MEMO
    parts: list[str] = []
    append = parts.append
    brk = _TextExtractor._BREAK
    skip = 0
    base = at = 0   # piece ``at`` starts at offset ``base``
    resume = 0      # the first tag piece after a consumed CDATA region
    for i in range(1, len(pieces), 2):
        if i < resume:                    # inside a consumed CDATA region
            continue
        data = pieces[i - 1]
        if data:
            if "<" in data:
                return None
            if not skip:
                append(unescape(data) if "&" in data else data)
        tag = pieces[i]
        act = memo.get(tag)
        if act is None:
            act = _tag_action(tag)
            if len(memo) < _TAG_MEMO_MAX and len(tag) <= _TAG_MEMO_KEY_MAX:
                memo[tag] = act
        if act == _BREAK:
            append(brk)
        elif act == _NONE:
            pass
        elif act == _SKIP_OPEN:
            skip += 1
        elif act == _SKIP_CLOSE:
            if skip > 0:
                skip -= 1
        elif act == _REJECT:
            return None
        else:                             # CDATA content mode
            skip += 1
            # Offsets count from the last region's end (``base``, piece
            # ``at``), so the walks over a page add up to one pass.
            pos = base + sum(map(len, pieces[at:i + 1]))
            end = _cdata_end(s, pos, _CDATA_OF[act])
            if end is None:
                return None
            if end > len(s):              # unterminated
                return parts
            if skip > 0:                  # the real end tag
                skip -= 1
            at = i
            while pos < end:              # to the piece holding the '>'
                at += 1
                pos += len(pieces[at])
            # That piece is the end tag (a tag piece ends at its only
            # '>'), or a data piece holding it (``</ script>`` is not a
            # tag piece), whose rest is the next data.  Either way the
            # walk resumes with piece ``at`` cut to start at ``end``.
            pieces[at] = s[end:pos]
            base = end
            resume = (at + 1) | 1         # the next tag piece
    data = pieces[-1]
    if "<" in data:
        return None                       # unterminated trailing tag
    if data and skip == 0:
        append(unescape(data))
    return parts


def _finish(parts: list[str]) -> str:
    """Parts -> lines: each segment between breaks with its whitespace
    runs collapsed to one space and stripped; empty segments dropped."""
    lines = []
    for seg in "".join(parts).split(_TextExtractor._BREAK):
        # Already normalized when its only whitespace is single inner
        # spaces: every whitespace character but " " is non-printable.
        if not (seg.isprintable() and "  " not in seg and seg[:1] != " "
                and seg[-1:] != " "):
            seg = " ".join(seg.split())
        if seg:
            lines.append(seg)
    return "\n".join(lines)


def _extract_stdlib(s: str) -> str:
    parser = _TextExtractor()
    try:
        parser.feed(s)
        parser.close()
    except Exception:
        # html.parser is tolerant; any residual parse error ends extraction
        # at the last good state — deterministically.
        pass
    return parser.text()


def _decode(html: bytes | bytearray | memoryview | None) -> str:
    """Raw page bytes -> str: UTF-8 with replacement, leading BOM
    stripped; ``""`` for None or empty html."""
    if html is None:
        return ""
    raw = bytes(html)
    if not raw:
        return ""
    s = raw.decode("utf-8", errors="replace")
    if s.startswith("\ufeff"):
        s = s[1:]
    return s


def extract_text(html: bytes | bytearray | memoryview | None) -> str:
    """Extract visible text from raw page bytes. Pure and deterministic."""
    s = _decode(html)
    parts = _fast_parts(s)
    if parts is not None:
        return _finish(parts)
    return _extract_stdlib(s)
