"""Page-metadata extraction: <title>, OpenGraph, description, canonical URL.

The metadata side of web extraction the reference never needed (its input
was PDFs behind a queue): canonical URLs drive dedup scopes (pages sharing
a canonical target are declared duplicates by the SITE, stronger than any
similarity signal), og:/description feed document metadata columns. Same
stdlib streaming-parser foundation as functions/links.py, one pass,
script/style decoys dropped, truncation-tolerant.

Semantics (kept SQL-replayable):
- title: character data inside the FIRST <title> element, whitespace-
  normalized; later <title>s ignored.
- og_title / description: first <meta property="og:title" content=...> /
  <meta name="description" content=...>, content used verbatim.
- canonical: first <link rel="canonical" href=...>, resolved against the
  base URL with links.resolve_href (so relative canonicals work).
"""

from __future__ import annotations

from html.parser import HTMLParser
from typing import Optional

from .links import resolve_href


class _MetaParser(HTMLParser):
    def __init__(self, base_url: str) -> None:
        super().__init__(convert_charrefs=True)
        self.base_url = base_url
        self.title: Optional[str] = None
        self.og_title: Optional[str] = None
        self.description: Optional[str] = None
        self.canonical: Optional[str] = None
        self._skip_depth = 0
        self._in_title = False
        self._title_parts: list[str] = []
        self._title_done = False

    def handle_starttag(self, tag, attrs):
        if tag in ("script", "style"):
            self._skip_depth += 1
            return
        if self._skip_depth:
            return
        d = dict(attrs)
        if tag == "title" and not self._title_done:
            self._in_title = True
            return
        if tag == "meta":
            prop = (d.get("property") or "").strip().lower()
            name = (d.get("name") or "").strip().lower()
            content = d.get("content")
            if prop == "og:title" and self.og_title is None and content is not None:
                self.og_title = content
            elif name == "description" and self.description is None and content is not None:
                self.description = content
            return
        if tag == "link" and self.canonical is None:
            rel = {t.strip().lower() for t in (d.get("rel") or "").split()}
            if "canonical" in rel:
                self.canonical = resolve_href(self.base_url, d.get("href") or "")

    def handle_endtag(self, tag):
        if tag in ("script", "style"):
            self._skip_depth = max(0, self._skip_depth - 1)
            return
        if tag == "title" and self._in_title:
            self._in_title = False
            self._title_done = True

    def handle_data(self, data):
        if self._in_title and not self._skip_depth:
            self._title_parts.append(data)


def extract_meta(html: bytes | str, base_url: str) -> dict:
    """-> {title, og_title, description, canonical} (None when absent)."""
    text = html.decode("utf-8", errors="replace") if isinstance(html, bytes) else html
    p = _MetaParser(base_url)
    try:
        p.feed(text)
        p.close()
    except Exception:
        pass
    title = " ".join("".join(p._title_parts).split()) if p._title_parts else None
    return {
        "title": title,
        "og_title": p.og_title,
        "description": p.description,
        "canonical": p.canonical,
    }


class _HreflangParser(HTMLParser):
    """Collect <link rel="alternate" hreflang="xx" href="..."> entries —
    the site-declared translation set (RFC 8288 + Google's hreflang
    convention). Pages sharing an alternate cluster are the SAME content
    in different languages: a multilingual corpus keeps one per language
    but must not treat them as independent documents. Same script/style
    skip and href resolution as the other head parsers."""

    def __init__(self, base_url: str) -> None:
        super().__init__(convert_charrefs=True)
        self.base_url = base_url
        self.alternates: list[tuple[str, str]] = []  # (hreflang, resolved href)
        self._skip_depth = 0

    def handle_starttag(self, tag, attrs):
        if tag in ("script", "style"):
            self._skip_depth += 1
            return
        if self._skip_depth:
            return
        if tag != "link":
            return
        d = dict(attrs)
        rel = {t.strip().lower() for t in (d.get("rel") or "").split()}
        lang = (d.get("hreflang") or "").strip().lower()
        if "alternate" not in rel or not lang:
            return
        resolved = resolve_href(self.base_url, d.get("href") or "")
        if resolved is not None:
            self.alternates.append((lang, resolved))

    def handle_endtag(self, tag):
        if tag in ("script", "style"):
            self._skip_depth = max(0, self._skip_depth - 1)


def extract_hreflang(html: bytes | str, base_url: str) -> list[tuple[str, str]]:
    """Parse a page -> [(hreflang, absolute href)] in document order.
    x-default is kept as the literal 'x-default' language tag."""
    text = html.decode("utf-8", errors="replace") if isinstance(html, bytes) else html
    p = _HreflangParser(base_url)
    try:
        p.feed(text)
        p.close()
    except Exception:
        pass
    return p.alternates


_FEED_MIMES = {
    "application/rss+xml": "rss",
    "application/atom+xml": "atom",
}


class _FeedDiscoveryParser(HTMLParser):
    """Collect feed-autodiscovery links (<link rel="alternate"
    type="application/rss+xml|atom+xml">, the WHATWG/RSS-board
    convention) — how a crawler finds a site's feeds from any page.
    Same skip/resolution semantics as the other head parsers."""

    def __init__(self, base_url: str) -> None:
        super().__init__(convert_charrefs=True)
        self.base_url = base_url
        self.feeds: list[tuple[str, str, str]] = []  # (kind, href, title)
        self._skip_depth = 0

    def handle_starttag(self, tag, attrs):
        if tag in ("script", "style"):
            self._skip_depth += 1
            return
        if self._skip_depth or tag != "link":
            return
        d = dict(attrs)
        rel = {t.strip().lower() for t in (d.get("rel") or "").split()}
        kind = _FEED_MIMES.get((d.get("type") or "").split(";")[0].strip().lower())
        if "alternate" not in rel or kind is None:
            return
        resolved = resolve_href(self.base_url, d.get("href") or "")
        if resolved is None:
            return
        title = " ".join((d.get("title") or "").split())
        self.feeds.append((kind, resolved, title))

    def handle_endtag(self, tag):
        if tag in ("script", "style"):
            self._skip_depth = max(0, self._skip_depth - 1)


def discover_feeds(html: bytes | str, base_url: str) -> list[tuple[str, str, str]]:
    """Parse a page -> [(feed kind, absolute feed URL, title)] in document
    order."""
    text = html.decode("utf-8", errors="replace") if isinstance(html, bytes) else html
    p = _FeedDiscoveryParser(base_url)
    try:
        p.feed(text)
        p.close()
    except Exception:
        pass
    return p.feeds


class _RelLinkParser(HTMLParser):
    """Collect <link rel="..."> targets for a chosen rel-token set (next/
    prev pagination, amphtml, etc.) — same skip/resolution semantics as the
    other head parsers. A link matching several wanted tokens emits one row
    per token (rel is a set per WHATWG)."""

    def __init__(self, base_url: str, rels: frozenset) -> None:
        super().__init__(convert_charrefs=True)
        self.base_url = base_url
        self.rels = rels
        self.found: list[tuple[str, str]] = []  # (rel token, absolute href)
        self._skip_depth = 0

    def handle_starttag(self, tag, attrs):
        if tag in ("script", "style"):
            self._skip_depth += 1
            return
        if self._skip_depth or tag != "link":
            return
        d = dict(attrs)
        tokens = {t.strip().lower() for t in (d.get("rel") or "").split()}
        wanted = tokens & self.rels
        if not wanted:
            return
        resolved = resolve_href(self.base_url, d.get("href") or "")
        if resolved is None:
            return
        for rel in sorted(wanted):
            self.found.append((rel, resolved))

    def handle_endtag(self, tag):
        if tag in ("script", "style"):
            self._skip_depth = max(0, self._skip_depth - 1)


def extract_rel_links(
    html: bytes | str, base_url: str, rels: tuple = ("next", "prev")
) -> list[tuple[str, str]]:
    """Parse a page -> [(rel token, absolute href)] in document order, for
    the requested rel tokens only."""
    text = html.decode("utf-8", errors="replace") if isinstance(html, bytes) else html
    p = _RelLinkParser(base_url, frozenset(r.lower() for r in rels))
    try:
        p.feed(text)
        p.close()
    except Exception:
        pass
    return p.found


# ---------------------------------------------------------------------------
# Robots-meta directives + soft-404 classification
# ---------------------------------------------------------------------------

# phrases, not the bare token "404": a healthy title like "Doc 404" must
# not flag (the classic soft-404 false positive — caught by the oracle at
# doc_id=404)
_SOFT404_TITLE_MARKERS = ("not found", "error 404")
_SOFT404_BODY_MARKERS = (
    "page does not exist",
    "page not found",
    "could not be found",
    "has been removed",
)
SOFT404_BODY_MAX_CHARS = 200  # error phrasing only counts on a thin page


class _StatusParser(HTMLParser):
    """Collect the first <title>, the first <meta name=robots> content and
    the page's visible body text (character data outside script/style and
    outside the title) — the three signals the indexability classifier
    reads."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.robots: Optional[str] = None
        self._skip_depth = 0
        self._in_title = False
        self._title_done = False
        self._title_parts: list[str] = []
        self._body_parts: list[str] = []

    def handle_starttag(self, tag, attrs):
        if tag in ("script", "style"):
            self._skip_depth += 1
            return
        if self._skip_depth:
            return
        if tag == "title" and not self._title_done:
            self._in_title = True
            return
        if tag == "meta" and self.robots is None:
            d = dict(attrs)
            if (d.get("name") or "").strip().lower() == "robots":
                self.robots = d.get("content")

    def handle_endtag(self, tag):
        if tag in ("script", "style"):
            self._skip_depth = max(0, self._skip_depth - 1)
            return
        if tag == "title" and self._in_title:
            self._in_title = False
            self._title_done = True

    def handle_data(self, data):
        if self._skip_depth:
            return
        if self._in_title:
            self._title_parts.append(data)
        else:
            self._body_parts.append(data)


def page_status(html: bytes | str) -> dict:
    """-> {noindex, nofollow, soft404, reason}.

    Robots-meta semantics (Google/Bing documented behavior): the content
    attribute is a comma-separated, case-insensitive token list; ``none``
    means ``noindex, nofollow``. Soft-404 heuristic (the classifier every
    crawl pipeline runs because servers answer 200 for missing pages):
    a 404-ish TITLE flags unconditionally (reason='title'); an error
    phrase in the BODY flags only when the visible text is thin
    (< SOFT404_BODY_MAX_CHARS, reason='body') — long pages legitimately
    mention "not found"."""
    text = html.decode("utf-8", errors="replace") if isinstance(html, bytes) else html
    p = _StatusParser()
    try:
        p.feed(text)
        p.close()
    except Exception:
        pass
    tokens = set()
    if p.robots:
        tokens = {t.strip().lower() for t in p.robots.split(",")}
    noindex = "noindex" in tokens or "none" in tokens
    nofollow = "nofollow" in tokens or "none" in tokens

    title = " ".join("".join(p._title_parts).split()).lower()
    body = " ".join("".join(p._body_parts).split())
    soft404 = False
    reason = None
    if any(m in title for m in _SOFT404_TITLE_MARKERS):
        soft404, reason = True, "title"
    elif len(body) < SOFT404_BODY_MAX_CHARS and any(
        m in body.lower() for m in _SOFT404_BODY_MARKERS
    ):
        soft404, reason = True, "body"
    return {
        "noindex": noindex,
        "nofollow": nofollow,
        "soft404": soft404,
        "reason": reason,
    }


class _TagSeqParser(HTMLParser):
    """Collect start tags in document order — the page's structural
    skeleton. Void elements reach handle_starttag too; an explicit
    handle_startendtag forwards XHTML-style self-closed tags so both
    spellings fingerprint identically."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.tags: list[str] = []

    def handle_starttag(self, tag, attrs):
        self.tags.append(tag)

    def handle_startendtag(self, tag, attrs):
        self.tags.append(tag)


def tag_sequence(html: bytes | str) -> list[str]:
    """Start-tag sequence of a page — input to template fingerprinting."""
    text = html.decode("utf-8", errors="replace") if isinstance(html, bytes) else html
    p = _TagSeqParser()
    try:
        p.feed(text)
        p.close()
    except Exception:
        pass
    return p.tags


class _SocialCardParser(HTMLParser):
    """Collect OpenGraph (property="og:*") and Twitter-card (name=
    "twitter:*") metadata, first value per key wins — the share-preview
    surface next to extract_meta's title/description. Same script/style
    skip as the other head parsers."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.card: dict = {}
        self._skip_depth = 0

    def handle_starttag(self, tag, attrs):
        if tag in ("script", "style"):
            self._skip_depth += 1
            return
        if self._skip_depth or tag != "meta":
            return
        d = dict(attrs)
        key = (d.get("property") or d.get("name") or "").strip().lower()
        content = d.get("content")
        if content is None:
            return
        if (key.startswith("og:") or key.startswith("twitter:")) \
                and key not in self.card:
            self.card[key] = content

    def handle_endtag(self, tag):
        if tag in ("script", "style"):
            self._skip_depth = max(0, self._skip_depth - 1)


def extract_social_card(html: bytes | str, base_url: str) -> dict:
    """-> {og_type, og_image, twitter_card, twitter_site} (None when
    absent); og:image resolves relative URLs against the base."""
    text = html.decode("utf-8", errors="replace") if isinstance(html, bytes) else html
    p = _SocialCardParser()
    try:
        p.feed(text)
        p.close()
    except Exception:
        pass
    img = p.card.get("og:image")
    if img is not None:
        img = resolve_href(base_url, img)
    return {
        "og_type": p.card.get("og:type"),
        "og_image": img,
        "twitter_card": p.card.get("twitter:card"),
        "twitter_site": p.card.get("twitter:site"),
    }


_REFRESH_RX = None  # built lazily below


def parse_meta_refresh(html: bytes | str, base_url: str):
    """First <meta http-equiv="refresh"> -> (delay_seconds, absolute target
    url) or None. The HTML-level redirect (CC honors these like 3xx):
    content is "N; url=TARGET" (case-insensitive 'url', optional quotes,
    spec-tolerant whitespace); a bare "N" (reload, no url) returns None.
    Script decoys ignored via the shared skip parser."""
    import re as _re

    global _REFRESH_RX
    if _REFRESH_RX is None:
        _REFRESH_RX = _re.compile(
            r"^\s*(\d+)\s*(?:;\s*url\s*=\s*['\"]?([^'\"]+?)['\"]?\s*)?$",
            _re.I,
        )

    text = html.decode("utf-8", errors="replace") if isinstance(html, bytes) else html

    class _P(HTMLParser):
        def __init__(self):
            super().__init__(convert_charrefs=True)
            self.content = None
            self._skip = 0

        def handle_starttag(self, tag, attrs):
            if tag in ("script", "style"):
                self._skip += 1
                return
            if self._skip or tag != "meta" or self.content is not None:
                return
            d = dict(attrs)
            if (d.get("http-equiv") or "").strip().lower() == "refresh":
                self.content = d.get("content") or ""

        def handle_endtag(self, tag):
            if tag in ("script", "style"):
                self._skip = max(0, self._skip - 1)

    p = _P()
    try:
        p.feed(text)
        p.close()
    except Exception:
        pass
    if p.content is None:
        return None
    m = _REFRESH_RX.match(p.content)
    if not m or m.group(2) is None:
        return None
    target = resolve_href(base_url, m.group(2).strip())
    if target is None:
        return None
    return int(m.group(1)), target


class _FormParser(HTMLParser):
    """Collect <form> elements with action/method and their input/select/
    textarea field names — what a crawler needs to recognize (and avoid
    crawling into) unbounded form spaces, and what wrapper-induction uses
    to map site search."""

    def __init__(self, base_url: str) -> None:
        super().__init__(convert_charrefs=True)
        self.base_url = base_url
        self.forms: list = []
        self._cur = None
        self._skip = 0

    def handle_starttag(self, tag, attrs):
        if tag in ("script", "style"):
            self._skip += 1
            return
        if self._skip:
            return
        d = dict(attrs)
        if tag == "form":
            action = resolve_href(self.base_url, d.get("action") or "")
            self._cur = {
                "action": action,
                "method": (d.get("method") or "get").strip().lower(),
                "fields": [],
            }
            return
        if self._cur is not None and tag in ("input", "select", "textarea"):
            name = (d.get("name") or "").strip()
            if name:
                self._cur["fields"].append(name)

    def handle_endtag(self, tag):
        if tag in ("script", "style"):
            self._skip = max(0, self._skip - 1)
            return
        if tag == "form" and self._cur is not None:
            self.forms.append(self._cur)
            self._cur = None

    def close(self):
        super().close()
        if self._cur is not None:  # unclosed form at EOF still counts
            self.forms.append(self._cur)
            self._cur = None


def extract_forms(html: bytes | str, base_url: str) -> list:
    """-> [{action, method, fields: [name,...]}] in document order."""
    text = html.decode("utf-8", errors="replace") if isinstance(html, bytes) else html
    p = _FormParser(base_url)
    try:
        p.feed(text)
        p.close()
    except Exception:
        pass
    return p.forms


# ---------------------------------------------------------------------------
# Heading outline (h1-h6 hierarchy)
# ---------------------------------------------------------------------------

_HEADING_TAGS = {"h1", "h2", "h3", "h4", "h5", "h6"}
_CHROME_TAGS = {"nav", "footer", "aside", "header"}
# Full WHATWG void-element set: handle_starttag fires but handle_endtag never
# does, so none of these may touch skip_depth — a missing entry inside a
# skipped nav/footer/hidden subtree permanently inflates the depth and drops
# every later heading.
_VOID_TAGS = frozenset(
    "area base br col embed hr img input link meta param source track wbr".split()
)


def _heading_hidden(attrs) -> bool:
    for k, v in attrs:
        if k == "hidden":
            return True
        if k == "style" and v and "display:none" in v.replace(" ", "").lower():
            return True
    return False


class _HeadingParser(HTMLParser):
    """h1-h6 collection in document order, skipping page-chrome subtrees
    (nav/footer/aside/header — the same boilerplate containers
    html_extract drops) and hidden subtrees; heading text is the
    concatenated character data of the whole element (nested inline tags
    contribute), whitespace-normalized; empty headings are dropped."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.skip_depth = 0
        self.cur_level: Optional[int] = None
        self.buf: list = []
        self.out: list = []  # (level, text)

    def handle_starttag(self, tag, attrs):
        if self.skip_depth:
            if tag not in _VOID_TAGS:
                self.skip_depth += 1
            return
        if tag in _CHROME_TAGS or _heading_hidden(attrs):
            if tag not in _VOID_TAGS:
                self.skip_depth = 1
            return
        if tag in _HEADING_TAGS:
            self.cur_level = int(tag[1])
            self.buf = []

    def handle_endtag(self, tag):
        if self.skip_depth:
            if tag not in _VOID_TAGS:
                self.skip_depth -= 1
            return
        if self.cur_level is not None and tag == f"h{self.cur_level}":
            text = " ".join("".join(self.buf).split())
            if text:
                self.out.append((self.cur_level, text))
            self.cur_level = None

    def handle_data(self, data):
        if self.cur_level is not None and not self.skip_depth:
            self.buf.append(data)


def extract_headings(html: bytes | str) -> list:
    """-> [{pos, level, text, parent_pos}] in document order; pos is
    1-based among EMITTED headings, parent_pos the pos of the nearest
    preceding heading of strictly lower level (-1 at the top level)."""
    text = html.decode("utf-8", errors="replace") if isinstance(html, bytes) else html
    p = _HeadingParser()
    try:
        p.feed(text)
        p.close()
    except Exception:
        pass
    rows = []
    for i, (level, txt) in enumerate(p.out, 1):
        parent = -1
        for j in range(i - 2, -1, -1):
            if p.out[j][0] < level:
                parent = j + 1
                break
        rows.append({"pos": i, "level": level, "text": txt, "parent_pos": parent})
    return rows
