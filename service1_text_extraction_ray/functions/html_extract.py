"""From-scratch HTML main-content extraction on the Python stdlib.

The reference service has **no** HTML processing (SURVEY.md §0); this module
supplies the web-page half of the north star: a DOM-lite block segmentation
with text-density / link-density boilerplate heuristics in the lineage of
Kohlschütter et al., "Boilerplate Detection using Shallow Text Features"
(WSDM 2010) and the readability/trafilatura family of open-source extractors
— implemented here from scratch on ``html.parser.HTMLParser`` (no lxml /
bs4 / trafilatura in the environment, and the north rule demands a
from-scratch build anyway).

Algorithm (single streaming pass, O(bytes)):

1. Walk the tag stream; fully drop non-content subtrees
   (``script/style/head/nav/header/footer/aside/form/...``).
2. Segment character data into *blocks* at block-level tag boundaries
   (``p/div/h1-6/li/td/...``); inside a block, track how many characters sit
   under an ``<a>`` ancestor (link chars).
3. Keep a block iff its whitespace-normalized text is long enough
   (``min_block_chars``; headings use the smaller ``min_heading_chars``) and
   its link density ``link_chars / text_chars`` is <= ``max_link_density``
   (default 0.5 — drops link farms / related-article boxes / nav crumbs).
4. Join kept blocks with blank lines -> the page's candidate main text.

The caller then applies the reference's page-acceptance ladder
(min-length + garbage gate, ``core_pdf_processor.py:356-416``) — see
``functions/extract.py``.

Everything is deterministic: no randomness, no wall clock, dict/set iteration
never affects output ordering.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from html.parser import HTMLParser
from json.encoder import encode_basestring_ascii as _json_str
from typing import List, Optional

_WS_RE = re.compile(r"\s+")

# Subtrees that never contribute main content.
DROP_TAGS = frozenset(
    {
        "script", "style", "noscript", "template", "svg", "head",
        "nav", "header", "footer", "aside", "form", "button",
        "select", "option", "datalist", "iframe", "object", "embed",
        "canvas", "map", "audio", "video",
    }
)

# Tags whose open or close ends the current text block.
BLOCK_TAGS = frozenset(
    {
        "p", "div", "section", "article", "main", "body", "html",
        "h1", "h2", "h3", "h4", "h5", "h6",
        "ul", "ol", "li", "dl", "dt", "dd",
        "table", "tr", "td", "th", "thead", "tbody", "tfoot", "caption",
        "pre", "blockquote", "figure", "figcaption", "hr", "br",
        "address", "fieldset", "legend", "details", "summary",
    }
)

HEADING_TAGS = frozenset({"h1", "h2", "h3", "h4", "h5", "h6"})

# Void elements: the parser may see them via handle_startendtag or handle_starttag.
# Full WHATWG void-element set (embed/param included — a void tag missing here
# that appears inside a dropped subtree would inflate _drop_depth forever).
_VOID_TAGS = frozenset(
    "area base br col embed hr img input link meta param source track wbr".split()
)


@dataclass
class Block:
    """One candidate content block with its shallow text features."""

    text: str          # whitespace-normalized visible text
    link_chars: int    # normalized chars under an <a> ancestor
    tag: str           # block-level tag that opened/contained it
    is_heading: bool

    @property
    def text_chars(self) -> int:
        return len(self.text)

    @property
    def link_density(self) -> float:
        return self.link_chars / self.text_chars if self.text_chars else 0.0


_HIDDEN_STYLE_RE = re.compile(r"display\s*:\s*none|visibility\s*:\s*hidden", re.I)


def _attrs_hide(attrs) -> bool:
    """True when a start tag's attributes hide its subtree from rendering:
    the boolean ``hidden`` attribute (WHATWG) or an inline style containing
    ``display:none`` / ``visibility:hidden`` — the CSS-era boilerplate
    carriers (cookie banners, off-screen nav, A/B leftovers) that a
    text-density extractor must not count as content."""
    for k, v in attrs:
        if k == "hidden":
            return True
        if k == "style" and v and _HIDDEN_STYLE_RE.search(v):
            return True
    return False


class _BlockParser(HTMLParser):
    """Streaming block segmenter (single pass, no DOM materialization)."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.blocks: List[Block] = []
        self._drop_depth = 0
        self._link_depth = 0
        self._segments: List[str] = []       # raw text segments of the open block
        self._link_segments: List[str] = []  # subset of segments inside <a>
        self._current_tag = "body"
        self._heading_depth = 0
        # open-element stack (tag, hides_subtree) — drives hidden-content
        # drops only; DROP_TAGS keep their cheaper counter. Endtags pop to
        # the nearest matching frame (standard recovery on malformed HTML).
        self._open: List[tuple] = []
        self._hidden_depth = 0

    # -- block lifecycle ---------------------------------------------------
    def _flush(self) -> None:
        if not self._segments:
            return
        text = _WS_RE.sub(" ", "".join(self._segments)).strip()
        self._segments = []
        link_text = _WS_RE.sub(" ", "".join(self._link_segments)).strip()
        self._link_segments = []
        if text:
            self.blocks.append(
                Block(
                    text=text,
                    link_chars=len(link_text),
                    tag=self._current_tag,
                    is_heading=self._heading_depth > 0,
                )
            )

    # -- HTMLParser hooks --------------------------------------------------
    def handle_starttag(self, tag: str, attrs) -> None:
        if tag in DROP_TAGS:
            self._flush()
            if tag not in _VOID_TAGS:
                self._drop_depth += 1
            return
        if self._drop_depth:
            return
        if tag not in _VOID_TAGS:
            hides = _attrs_hide(attrs)
            self._open.append((tag, hides))
            if hides:
                if self._hidden_depth == 0:
                    self._flush()
                self._hidden_depth += 1
        if tag in BLOCK_TAGS:
            self._flush()
            self._current_tag = tag
            if tag in HEADING_TAGS:
                self._heading_depth += 1
        elif tag == "a":
            self._link_depth += 1

    def handle_endtag(self, tag: str) -> None:
        if tag in DROP_TAGS:
            if tag not in _VOID_TAGS and self._drop_depth:
                self._drop_depth -= 1
            return
        if self._drop_depth:
            return
        st = self._open
        for j in range(len(st) - 1, -1, -1):
            if st[j][0] == tag:
                for _, h in st[j:]:
                    if h:
                        self._hidden_depth -= 1
                del st[j:]
                break
        if tag in BLOCK_TAGS:
            self._flush()
            if tag in HEADING_TAGS and self._heading_depth:
                self._heading_depth -= 1
            self._current_tag = "body"
        elif tag == "a" and self._link_depth:
            self._link_depth -= 1

    def handle_startendtag(self, tag: str, attrs) -> None:
        # Treat <tag/> as open+close (the HTMLParser default behavior we override).
        self.handle_starttag(tag, attrs)
        if tag not in _VOID_TAGS:
            self.handle_endtag(tag)

    def handle_data(self, data: str) -> None:
        if self._drop_depth or self._hidden_depth or not data:
            return
        self._segments.append(data)
        if self._link_depth:
            self._link_segments.append(data)

    def close(self) -> None:  # flush trailing text of truncated documents
        super().close()
        self._flush()


_META_CHARSET_RE = re.compile(
    rb"""<meta[^>]+?(?:charset\s*=\s*["']?|content\s*=\s*["'][^"']*?charset=)"""
    rb"""([A-Za-z0-9_\-]+)""",
    re.IGNORECASE,
)


def decode_payload(payload: bytes) -> str:
    """Deterministic bytes->str, WHATWG-style precedence without guessing
    libraries: (1) byte-order mark (UTF-8/UTF-16 LE/BE — BOM stripped, and
    a BOM overrides any declared charset, per the encoding standard);
    (2) ``<meta charset=...>`` / ``http-equiv`` declaration in the first
    1024 bytes, if Python knows the codec and the bytes actually decode;
    (3) strict UTF-8; (4) latin-1 (never fails). Every step is a pure
    function of the payload bytes, so extraction stays byte-reproducible."""
    if payload.startswith(b"\xef\xbb\xbf"):
        return payload[3:].decode("utf-8", errors="replace")
    if payload.startswith(b"\xff\xfe"):
        return payload.decode("utf-16-le", errors="replace")[1:]
    if payload.startswith(b"\xfe\xff"):
        return payload.decode("utf-16-be", errors="replace")[1:]
    m = _META_CHARSET_RE.search(payload[:1024])
    if m:
        name = m.group(1).decode("ascii", "replace").lower()
        if name not in ("utf-8", "utf8"):
            try:
                return payload.decode(name)
            except (UnicodeDecodeError, LookupError):
                pass  # mis-declared charset: fall through to the UTF-8 path
    try:
        return payload.decode("utf-8")
    except UnicodeDecodeError:
        return payload.decode("latin-1")


def parse_blocks(html_text: str) -> List[Block]:
    """Parse HTML into candidate blocks. Tolerant of malformed/truncated markup
    (html.parser never raises on bad input)."""
    p = _BlockParser()
    p.feed(html_text)
    p.close()
    return p.blocks


def select_content_blocks(
    blocks: List[Block],
    min_block_chars: int = 25,
    min_heading_chars: int = 8,
    max_link_density: float = 0.5,
) -> List[Block]:
    """Apply the shallow-feature keep rule (step 3 of the module docstring)."""
    kept: List[Block] = []
    for b in blocks:
        threshold = min_heading_chars if b.is_heading else min_block_chars
        if b.text_chars >= threshold and b.link_density <= max_link_density:
            kept.append(b)
    return kept


def extract_html_text(payload: bytes) -> tuple[str, List[Block]]:
    """Full HTML main-content extraction: payload bytes -> (text, kept_blocks).

    The returned text is kept blocks joined with blank lines; the acceptance
    gate (250-char minimum + garbage predicate) is applied by the caller.
    """
    html_text = decode_payload(payload)
    blocks = parse_blocks(html_text)
    kept = select_content_blocks(blocks)
    return "\n\n".join(b.text for b in kept), kept


# The pseudo-y step between consecutive blocks of an HTML page's layout.
_LINE_HEIGHT = 30.0


def html_layout(kept_blocks: List[Block]) -> dict:
    """Synthetic layout tree for HTML pages in the reference's layout shape
    (``core_pdf_processor.py:418-465``): one layout block per kept content
    block at a deterministic pseudo-y, so the layout-recreation formatter
    (render.recreate_text_with_layout) works uniformly across content kinds.
    """
    blocks = []
    for i, b in enumerate(kept_blocks):
        y0 = round(i * _LINE_HEIGHT, 2)
        y1 = round(y0 + _LINE_HEIGHT * 0.67, 2)
        bbox = [0.0, y0, 612.0, y1]
        blocks.append(
            {
                "bbox": bbox,
                "lines": [
                    {
                        "bbox": bbox,
                        "spans": [
                            {
                                "text": b.text,
                                "bbox": bbox,
                                "font": f"html:{b.tag}",
                                "size": 12.0,
                                "flags": 0,
                            }
                        ],
                    }
                ],
            }
        )
    return {"width": 612.0, "height": 792.0, "rotation": 0, "blocks": blocks}


def dump_layout(layout: Optional[dict]) -> str:
    """A page's ``layout_json``: the layout tree as compact, key-sorted
    JSON, or ``""`` when there is none. A DOM page's layout is written by
    ``html_layout_json`` instead, which the tests hold to this byte for
    byte."""
    return json.dumps(layout, sort_keys=True, separators=(",", ":")) if layout else ""


# A span's font key as ``dump_layout`` writes it. A quote inside a JSON
# string is escaped, so block text can never produce this match.
_FONT_TAG_RE = re.compile(r'"font":"html:([^"\\]*)"')


def html_layout_tags(layout_json: str) -> str:
    """The block tags of an ``html_layout`` JSON in block order, space-joined
    (``"h1 p p"``): all of the layout that its page text does not hold."""
    return " ".join(_FONT_TAG_RE.findall(layout_json))


def html_layout_json(text: str, tags: str) -> str:
    """A DOM page's ``layout_json`` from its text (the kept blocks joined by
    blank lines) and its ``html_layout_tags``: ``dump_layout(html_layout(
    blocks))`` written directly, one f-string per block in its sorted key
    order, with json's own string escaping and float ``repr``. Extraction
    writes the page's layout through here and the part readers rebuild it
    through here. Exact only when the page's layout came from
    ``html_layout`` of those blocks; callers that store the tags instead
    of the JSON check the rebuild first."""
    blocks = []
    for i, (block, tag) in enumerate(zip(text.split("\n\n"), tags.split(" "))):
        y0 = round(i * _LINE_HEIGHT, 2)
        bbox = f"[0.0,{y0!r},612.0,{round(y0 + _LINE_HEIGHT * 0.67, 2)!r}]"
        blocks.append(
            f'{{"bbox":{bbox},"lines":[{{"bbox":{bbox},"spans":[{{"bbox":{bbox},'
            f'"flags":0,"font":{_json_str("html:" + tag)},"size":12.0,'
            f'"text":{_json_str(block)}}}]}}]}}'
        )
    return ('{"blocks":[' + ",".join(blocks)
            + '],"height":792.0,"rotation":0,"width":612.0}')
