"""Outlink + meta-robots extraction from HTML pages.

The web-graph side of an extraction engine: every crawl pipeline needs the
page's outgoing links (frontier expansion, link-graph features, PageRank-ish
priors) and its robots directives (noindex/nofollow gates) — the reference
service extracts only the text (SURVEY.md §2), so this is a from-scratch
training-data addition. Built on the stdlib ``html.parser`` streaming
tokenizer (same foundation as functions/html_tables.py): one pass, tolerant
of truncated markup, ``<script>``/``<style>`` decoys dropped.

Semantics (each deliberately simple enough for an exact SQL replay):
- kept schemes: http/https only; ``javascript:``, ``mailto:``, ``tel:``,
  ``data:`` and bare-fragment hrefs are dropped.
- resolution: RFC-3986 subset — absolute kept as-is; ``//host/p`` takes the
  base scheme; ``/p`` takes the base authority; relative joins the base
  path's directory with ``.``/``..`` normalization. Query strings kept,
  fragments stripped.
- anchor text: concatenated character data inside the ``<a>`` element,
  whitespace-normalized (split/join).
- nofollow: ``rel`` attribute containing the token ``nofollow``.
- meta robots: first ``<meta name="robots">``; ``noindex`` / ``nofollow``
  token membership in its ``content``.
"""

from __future__ import annotations

from dataclasses import dataclass
from html.parser import HTMLParser
from typing import List, Optional, Tuple

_DROP_SCHEMES = ("javascript:", "mailto:", "tel:", "data:")


def split_url(url: str) -> Tuple[str, str, str]:
    """-> (scheme, host, path-with-query). Minimal absolute-URL splitter."""
    scheme, _, rest = url.partition("://")
    host, slash, tail = rest.partition("/")
    return scheme.lower(), host.lower(), (slash + tail if slash else "")


def _normalize_path(path: str) -> str:
    """Collapse ``.`` and ``..`` segments (leading '/' preserved)."""
    out: List[str] = []
    for seg in path.split("/"):
        if seg == ".":
            continue
        if seg == "..":
            if out and out[-1]:
                out.pop()
            continue
        out.append(seg)
    norm = "/".join(out)
    return norm if norm.startswith("/") else "/" + norm


def resolve_href(base_url: str, href: str) -> Optional[str]:
    """Resolve ``href`` against ``base_url``; None for dropped hrefs."""
    href = href.strip()
    if not href or href.startswith("#"):
        return None
    low = href.lower()
    if any(low.startswith(s) for s in _DROP_SCHEMES):
        return None
    scheme, host, base_path = split_url(base_url)
    href = href.split("#", 1)[0]
    if not href:
        return None
    if "://" in href:
        s, h, p = split_url(href)
        if s not in ("http", "https"):
            return None
        return f"{s}://{h}{p}"
    if href.startswith("//"):
        h, slash, tail = href[2:].partition("/")
        return f"{scheme}://{h.lower()}{slash + tail if slash else ''}"
    if href.startswith("/"):
        return f"{scheme}://{host}{_normalize_path(href)}"
    # relative: join with the directory of the base path
    base_q = base_path.split("?", 1)[0]
    base_dir = base_q[: base_q.rfind("/") + 1] if "/" in base_q else "/"
    return f"{scheme}://{host}{_normalize_path(base_dir + href)}"


@dataclass
class Outlink:
    href: str          # resolved absolute URL
    anchor: str        # whitespace-normalized anchor text
    nofollow: bool


class _LinkParser(HTMLParser):
    def __init__(self, base_url: str) -> None:
        super().__init__(convert_charrefs=True)
        self.base_url = base_url
        self.links: List[Outlink] = []
        self.robots_noindex = False
        self.robots_nofollow = False
        self._robots_seen = False
        self._base_seen = False
        self._skip_depth = 0          # inside <script>/<style>
        self._cur: Optional[Tuple[str, bool]] = None  # (resolved, nofollow)
        self._anchor_parts: List[str] = []

    def handle_starttag(self, tag, attrs):
        if tag in ("script", "style"):
            self._skip_depth += 1
            return
        if self._skip_depth:
            return
        d = dict(attrs)
        if tag == "base" and not self._base_seen:
            # HTML spec: the FIRST <base href> sets the resolution base for
            # (subsequently parsed) relative URLs; the page's own host —
            # used as the graph source — is unaffected. The base href is
            # itself resolved against the page URL.
            self._base_seen = True
            href = (d.get("href") or "").strip()
            if href:
                resolved = resolve_href(self.base_url, href)
                if resolved is not None:
                    self.base_url = resolved
            return
        if tag == "meta" and not self._robots_seen:
            if (d.get("name") or "").strip().lower() == "robots":
                self._robots_seen = True
                toks = {
                    t.strip().lower()
                    for t in (d.get("content") or "").split(",")
                }
                self.robots_noindex = "noindex" in toks
                self.robots_nofollow = "nofollow" in toks
            return
        if tag == "a":
            if self._cur is not None:
                self._flush()  # unclosed <a> before a new one
            resolved = resolve_href(self.base_url, d.get("href") or "")
            if resolved is None:
                self._cur = None
                return
            rel = {t.strip().lower() for t in (d.get("rel") or "").split()}
            # ugc/sponsored are crawl-equivalent to nofollow (the 2019
            # rel-attribute extension: paid or user-generated links carry
            # no endorsement, so a frontier must not follow-score them)
            self._cur = (resolved, bool(rel & {"nofollow", "ugc", "sponsored"}))
            self._anchor_parts = []

    def handle_endtag(self, tag):
        if tag in ("script", "style"):
            self._skip_depth = max(0, self._skip_depth - 1)
            return
        if tag == "a" and self._cur is not None:
            self._flush()

    def handle_data(self, data):
        if self._cur is not None and not self._skip_depth:
            self._anchor_parts.append(data)

    def _flush(self):
        href, nofollow = self._cur  # type: ignore[misc]
        anchor = " ".join("".join(self._anchor_parts).split())
        self.links.append(Outlink(href, anchor, nofollow))
        self._cur = None
        self._anchor_parts = []


def extract_outlinks(
    html: bytes | str, base_url: str
) -> Tuple[List[Outlink], bool, bool]:
    """Parse a page -> (outlinks, robots_noindex, robots_nofollow).

    Truncation-tolerant: a dangling unclosed <a> at EOF is flushed with the
    anchor text collected so far.
    """
    text = html.decode("utf-8", errors="replace") if isinstance(html, bytes) else html
    p = _LinkParser(base_url)
    try:
        p.feed(text)
        p.close()
    except Exception:
        pass  # keep whatever parsed before the failure
    if p._cur is not None:
        p._flush()
    return p.links, p.robots_noindex, p.robots_nofollow


@dataclass
class ImageRef:
    src: str           # resolved absolute URL
    alt: str           # whitespace-normalized alt text (never empty)


class _ImageParser(HTMLParser):
    """Collect <img src alt> pairs — the image-text pairing primitive a
    multimodal training corpus is built from (CLIP-style pairs). Same
    <base href> and <script>/<style> skip semantics as the link parser.
    Images without a NON-EMPTY alt are dropped: an empty alt declares the
    image decorative (WAI-ARIA), and a missing one pairs with nothing.
    data:/javascript: sources resolve to None and are dropped."""

    def __init__(self, base_url: str) -> None:
        super().__init__(convert_charrefs=True)
        self.base_url = base_url
        self.images: List[ImageRef] = []
        self._base_seen = False
        self._skip_depth = 0

    def handle_starttag(self, tag, attrs):
        if tag in ("script", "style"):
            self._skip_depth += 1
            return
        if self._skip_depth:
            return
        d = dict(attrs)
        if tag == "base" and not self._base_seen:
            self._base_seen = True
            href = (d.get("href") or "").strip()
            if href:
                resolved = resolve_href(self.base_url, href)
                if resolved is not None:
                    self.base_url = resolved
            return
        if tag == "img":
            alt = " ".join((d.get("alt") or "").split())
            if not alt:
                return
            resolved = resolve_href(self.base_url, d.get("src") or "")
            if resolved is None:
                return
            self.images.append(ImageRef(resolved, alt))

    def handle_endtag(self, tag):
        if tag in ("script", "style"):
            self._skip_depth = max(0, self._skip_depth - 1)

    # img is a void element: no data/endtag handling needed


def extract_image_alts(html: bytes | str, base_url: str) -> List[ImageRef]:
    """Parse a page -> resolved (src, alt) image-text pairs, in document
    order. Truncation-tolerant like the link parser."""
    text = html.decode("utf-8", errors="replace") if isinstance(html, bytes) else html
    p = _ImageParser(base_url)
    try:
        p.feed(text)
        p.close()
    except Exception:
        pass
    return p.images
