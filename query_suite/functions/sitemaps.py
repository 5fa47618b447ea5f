"""XML sitemap parsing (sitemaps.org protocol subset) + deterministic
synthetic sitemap bodies.

The crawl-discovery twin of ``robots.py``: a crawler that has passed the
robots gate seeds its frontier from ``/sitemap.xml``. This module parses
the two document kinds the protocol defines —

- ``<sitemapindex>``: a list of child sitemap ``<loc>`` URLs,
- ``<urlset>``: ``<url>`` entries with ``<loc>`` (required), ``<lastmod>``
  (optional W3C date) and ``<priority>`` (optional, default 0.5),

with the XML realities a tolerant crawler must survive: namespace prefixes
(``<sm:url>``), CDATA-wrapped locs, entity escaping (``&amp;`` and
numeric ``&#NN;``), and arbitrary whitespace. It is a streaming regex
scanner (the same tolerant-subset approach as ``links.py``), not a DOM
parser — sitemap files cap at 50 MB and the scanner is O(len).

No network exists in the sandbox, so ``make_sitemap_index`` /
``make_sitemap`` synthesize each host's sitemap tree as a pure function of
the host string — simple enough for the DuckDB oracle to replay (entity
escaping, CDATA and omitted-field branches are all exercised); the parser's
fuller semantics are unit-tested separately.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

_LOC_BLOCK = re.compile(
    r"<(?:\w+:)?(sitemap|url)\b[^>]*>(.*?)</(?:\w+:)?\1>", re.S | re.I
)
_FIELD = re.compile(
    r"<(?:\w+:)?(loc|lastmod|priority)\b[^>]*>(.*?)</(?:\w+:)?\1>", re.S | re.I
)
_CDATA = re.compile(r"<!\[CDATA\[(.*?)\]\]>", re.S)
_ENTITY = re.compile(r"&(amp|lt|gt|quot|apos|#\d+);")

DEFAULT_PRIORITY_PPM = 500_000


def _text(raw: str) -> str:
    m = _CDATA.search(raw)
    if m:
        raw = m.group(1)

    def sub(em: "re.Match[str]") -> str:
        name = em.group(1)
        if name.startswith("#"):
            cp = int(name[1:])
            # out-of-range numeric references (hostile input) pass through
            # verbatim rather than crashing the task
            return chr(cp) if cp <= 0x10FFFF else em.group(0)
        return {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'"}[name]

    return _ENTITY.sub(sub, raw.strip())


def parse_sitemap(
    xml: str,
) -> Tuple[str, List[Tuple[str, Optional[str], int]]]:
    """Parse a sitemap document. Returns ``(kind, entries)`` where kind is
    ``"index"`` or ``"urlset"`` and each entry is
    ``(loc, lastmod or None, priority_ppm)`` (index entries carry the
    defaults). Entries without a ``<loc>`` are dropped, per protocol."""
    kind = "urlset"
    if re.search(r"<(?:\w+:)?sitemapindex\b", xml, re.I):
        kind = "index"
    entries: List[Tuple[str, Optional[str], int]] = []
    for m in _LOC_BLOCK.finditer(xml):
        body = m.group(2)
        loc: Optional[str] = None
        lastmod: Optional[str] = None
        prio = DEFAULT_PRIORITY_PPM
        for fm in _FIELD.finditer(body):
            field = fm.group(1).lower()
            val = _text(fm.group(2))
            if field == "loc" and val:
                loc = val
            elif field == "lastmod" and val:
                lastmod = val
            elif field == "priority" and val:
                try:
                    prio = int(round(float(val) * 1_000_000))
                except ValueError:
                    pass
        if loc:
            entries.append((loc, lastmod, prio))
    return kind, entries


# --- deterministic synthetic sitemap tree (oracle-replayable) --------------

N_CHILD_SITEMAPS = 2


def n_urls_in_child(host: str, k: int) -> int:
    return 4 + (len(host) + k) % 3


def make_sitemap_index(host: str) -> str:
    locs = "".join(
        f"  <sitemap><loc>https://{host}/sitemap-{k}.xml</loc></sitemap>\n"
        for k in range(N_CHILD_SITEMAPS)
    )
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<sitemapindex xmlns="http://www.sitemaps.org/schemas/sitemap/0.9">\n'
        f"{locs}</sitemapindex>\n"
    )


def make_sitemap(host: str, k: int) -> str:
    """Child urlset ``k`` for ``host``. Branch coverage per entry index i:
    i%4==0 -> entity-escaped query in loc; i%5==2 -> CDATA-wrapped loc;
    i%5==1 -> priority omitted (parser defaults to 0.5)."""
    rows = []
    for i in range(n_urls_in_child(host, k)):
        loc = f"https://{host}/p/{k}/{i}"
        if i % 4 == 0:
            loc += "?x=1&amp;ref=home"
        if i % 5 == 2:
            loc = f"<![CDATA[{loc}]]>"
        day = 1 + (i * 7 + len(host) + k) % 28
        parts = [f"<loc>{loc}</loc>", f"<lastmod>2024-01-{day:02d}</lastmod>"]
        if i % 5 != 1:
            parts.append(f"<priority>0.{(i + k) % 9 + 1}</priority>")
        rows.append("  <url>" + "".join(parts) + "</url>\n")
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<urlset xmlns="http://www.sitemaps.org/schemas/sitemap/0.9">\n'
        + "".join(rows)
        + "</urlset>\n"
    )
