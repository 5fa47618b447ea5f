"""JSON-LD structured-data extraction (schema.org entities embedded in
``<script type="application/ld+json">`` blocks — the machine-readable
metadata news articles, products and recipes ship).

The reference has no JSON-LD path, but it DOES ship a tolerant JSON salvage
suite for almost-JSON payloads (``backend/core/json_utils.py``, re-expressed
in ``functions/json_utils.py``); real-world JSON-LD is exactly that kind of
almost-JSON (trailing commas, stray apostrophes, CMS templating leftovers),
so this extractor reuses ``safe_json_loads`` as its parse step: a block that
plain ``json.loads`` rejects gets one sanitize-and-retry pass before being
dropped. Blocks that fail even the sanitizer contribute no entities — never
an exception (the per-batch totality contract all extract stages follow).

Entity model (deliberately flat — the engine's unit of work is a row):
every top-level object, every element of a top-level array, and every node
of a ``@graph`` array becomes one entity row with its ``@type``, its
display name (``name``, falling back to ``headline`` — the Article idiom),
and ``wordCount`` when present. Nested entities (e.g. ``author`` objects)
are NOT recursed into: they belong to their parent row; flattening them
would double-count names under the dedup/curation consumers downstream.
"""

from __future__ import annotations

from html.parser import HTMLParser
from typing import Any, Dict, List, Optional, Tuple

from .json_utils import safe_json_loads


class _LdBlockCollector(HTMLParser):
    """Collect the raw text of every ld+json script block; any other script
    (untyped, text/javascript, a decoy carrying JSON-looking source) is
    ignored by the MIME check, not by content sniffing."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self._in_ld = False
        self._buf: List[str] = []
        self.blocks: List[str] = []

    def handle_starttag(self, tag: str, attrs) -> None:
        if tag == "script":
            mime = (dict(attrs).get("type") or "").split(";")[0].strip().lower()
            if mime == "application/ld+json":
                self._in_ld = True
                self._buf = []

    def handle_endtag(self, tag: str) -> None:
        if tag == "script" and self._in_ld:
            self._in_ld = False
            self.blocks.append("".join(self._buf))

    def handle_data(self, data: str) -> None:
        if self._in_ld:
            self._buf.append(data)


def _nodes(data: Any) -> List[Dict[str, Any]]:
    """Top-level entity nodes of one parsed block: a bare object, a bare
    array of objects, or the objects under ``@graph``."""
    if isinstance(data, dict):
        graph = data.get("@graph")
        if isinstance(graph, list):
            return [n for n in graph if isinstance(n, dict)]
        return [data]
    if isinstance(data, list):
        return [n for n in data if isinstance(n, dict)]
    return []


def extract_jsonld(html: bytes | str) -> List[Dict[str, Optional[object]]]:
    """All schema.org entities of a page, in block order then node order.

    Returns dicts with keys ``entity_type`` (the ``@type`` string; nodes
    without a string ``@type`` are skipped — untyped nodes carry no
    classification downstream), ``name`` (``name`` falling back to
    ``headline``; None when absent), ``word_count`` (``wordCount`` when an
    int; None otherwise)."""
    if isinstance(html, bytes):
        html = html.decode("utf-8", errors="replace")
    collector = _LdBlockCollector()
    try:
        collector.feed(html)
        collector.close()
    except Exception:
        return []
    out: List[Dict[str, Optional[object]]] = []
    for block in collector.blocks:
        try:
            data = safe_json_loads(block)
        except Exception:
            continue  # beyond salvage: no entities, never an exception
        for node in _nodes(data):
            etype = node.get("@type")
            if not isinstance(etype, str):
                continue
            name = node.get("name")
            if not isinstance(name, str):
                name = node.get("headline")
                if not isinstance(name, str):
                    name = None
            wc = node.get("wordCount")
            out.append({
                "entity_type": etype,
                "name": name,
                "word_count": int(wc) if isinstance(wc, int) and not isinstance(wc, bool) else None,
            })
    return out


# ---------------------------------------------------------------------------
# Microdata (HTML attributes itemscope/itemtype/itemprop — the other
# schema.org wire format; WHATWG HTML §5). Flat extraction: one row per
# (entity, property) with the entity's type and ordinal, values from
# either the tag's natural value attribute (href for <a>/<link>, src for
# <img>, content for <meta>, datetime for <time>) or its text content.
# Nested itemscopes start a NEW entity (their props never leak into the
# parent — the mirror of the JSON-LD no-recursion rule).
# ---------------------------------------------------------------------------

_VALUE_ATTRS = {
    "a": "href", "link": "href", "img": "src", "meta": "content",
    "time": "datetime", "source": "src",
}

# WHATWG void elements: handle_starttag fires but handle_endtag never does —
# they must not contribute to the tag-depth used for scope popping.
_VOID_TAGS = frozenset(
    "area base br col embed hr img input link meta param source track wbr".split()
)


class _MicrodataParser(HTMLParser):
    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.rows: List[Dict[str, object]] = []
        self._scope_stack: List[Tuple[int, str]] = []  # (entity ordinal, type)
        self._n_entities = 0
        self._depths: List[int] = []  # tag depth when each scope opened
        self._depth = 0
        self._skip_depth = 0
        # open text-valued prop: (entity ordinal, type, prop, buffer)
        self._open_prop: Optional[List[object]] = None

    def handle_starttag(self, tag, attrs):
        if tag not in _VOID_TAGS:
            self._depth += 1
        if tag in ("script", "style"):
            self._skip_depth += 1
            return
        if self._skip_depth:
            return
        d = dict(attrs)
        if "itemscope" in d and tag not in _VOID_TAGS:
            self._n_entities += 1
            itype = (d.get("itemtype") or "").strip()
            self._scope_stack.append((self._n_entities, itype))
            self._depths.append(self._depth)
            return  # an itemscope tag's own itemprop belongs to the PARENT
                    # scope per spec, but the subset keeps scopes disjoint
        prop = (d.get("itemprop") or "").strip()
        if prop and self._scope_stack:
            ent, itype = self._scope_stack[-1]
            vattr = _VALUE_ATTRS.get(tag)
            if vattr is not None:
                val = (d.get(vattr) or "").strip()
                if val:
                    self.rows.append({
                        "entity": ent, "itemtype": itype,
                        "prop": prop, "value": val,
                    })
            else:
                if self._open_prop is not None:
                    self._flush_prop()
                self._open_prop = [ent, itype, prop, []]

    def handle_endtag(self, tag):
        if tag in _VOID_TAGS:
            return  # stray </img> etc.: depth never counted them
        if tag in ("script", "style"):
            self._skip_depth = max(0, self._skip_depth - 1)
        if self._open_prop is not None:
            self._flush_prop()
        if self._depths and self._depth <= self._depths[-1]:
            self._depths.pop()
            self._scope_stack.pop()
        self._depth = max(0, self._depth - 1)

    def handle_data(self, data):
        if self._open_prop is not None and not self._skip_depth:
            self._open_prop[3].append(data)

    def _flush_prop(self) -> None:
        ent, itype, prop, parts = self._open_prop  # type: ignore[misc]
        self._open_prop = None
        val = " ".join("".join(parts).split())
        if val:
            self.rows.append({
                "entity": ent, "itemtype": itype, "prop": prop, "value": val,
            })


def extract_microdata(html: bytes | str) -> List[Dict[str, object]]:
    """All microdata (entity ordinal, itemtype, prop, value) rows of a
    page, in document order. Text-valued props close at their end tag;
    a dangling open prop at EOF is flushed (truncation tolerance)."""
    if isinstance(html, bytes):
        html = html.decode("utf-8", errors="replace")
    p = _MicrodataParser()
    try:
        p.feed(html)
        p.close()
    except Exception:
        pass
    if p._open_prop is not None:
        p._flush_prop()
    return p.rows

# ---------------------------------------------------------------------------
# RDFa Lite (W3C RDFa Lite 1.1: vocab/typeof/property/resource attributes —
# the THIRD schema.org wire format next to JSON-LD and microdata; news CMSes
# and Facebook-era pages ship it). Same flat row model as microdata: one row
# per (entity ordinal, type, property, value), document order.
#
# Subset semantics (documented; chosen to mirror the microdata subset so the
# three wire formats produce comparable rows):
# - ``typeof`` on a non-void tag opens a NEW entity scope; nested typeofs are
#   disjoint entities (no chaining — the mirror of microdata's nested-scope
#   and JSON-LD's no-recursion rule). A ``property`` on the typeof tag itself
#   is skipped (full RDFa gives it chaining semantics the flat model cannot
#   represent).
# - ``vocab`` applies to its element's subtree; terse ``typeof``/``property``
#   terms (no ``:``) expand against the innermost vocab, CURIEs/IRIs
#   (containing ``:``) pass through verbatim. Multi-token ``typeof`` takes
#   the FIRST token (the primary type).
# - Property value: ``content`` attr wins (RDFa Lite §2.2), then the tag's
#   natural value attribute (href/src/datetime), then whitespace-normalized
#   text content. Empty values drop the row.
# - A ``property`` outside any typeof scope is dropped (full RDFa would
#   attach it to the document subject; classification-less rows carry
#   nothing downstream — the microdata orphan rule).
# ---------------------------------------------------------------------------


class _RdfaParser(HTMLParser):
    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.rows: List[Dict[str, object]] = []
        self._scope_stack: List[Tuple[int, str]] = []  # (entity ordinal, type)
        self._scope_depths: List[int] = []
        self._vocab_stack: List[Tuple[int, str]] = []  # (depth when set, vocab)
        self._n_entities = 0
        self._depth = 0
        self._skip_depth = 0
        # open text-valued property: (entity, type, prop, buffer)
        self._open_prop: Optional[List[object]] = None

    def _vocab(self) -> str:
        return self._vocab_stack[-1][1] if self._vocab_stack else ""

    def _expand(self, term: str) -> str:
        return term if ":" in term else self._vocab() + term

    def handle_starttag(self, tag, attrs):
        if tag not in _VOID_TAGS:
            self._depth += 1
        if tag in ("script", "style"):
            self._skip_depth += 1
            return
        if self._skip_depth:
            return
        d = dict(attrs)
        vocab = (d.get("vocab") or "").strip()
        if vocab and tag not in _VOID_TAGS:
            self._vocab_stack.append((self._depth, vocab))
        typeof = (d.get("typeof") or "").strip()
        if typeof and tag not in _VOID_TAGS:
            self._n_entities += 1
            rtype = self._expand(typeof.split()[0])
            self._scope_stack.append((self._n_entities, rtype))
            self._scope_depths.append(self._depth)
            return  # property on the typeof tag itself: chaining, skipped
        prop = (d.get("property") or "").strip()
        if prop and self._scope_stack:
            ent, rtype = self._scope_stack[-1]
            prop = self._expand(prop.split()[0])
            content = (d.get("content") or "").strip()
            if content:
                self.rows.append({
                    "entity": ent, "rtype": rtype, "prop": prop,
                    "value": content,
                })
                return
            vattr = _VALUE_ATTRS.get(tag)
            if vattr is not None and vattr != "content":
                val = (d.get(vattr) or "").strip()
                if val:
                    self.rows.append({
                        "entity": ent, "rtype": rtype, "prop": prop,
                        "value": val,
                    })
                return
            if self._open_prop is not None:
                self._flush_prop()
            self._open_prop = [ent, rtype, prop, []]

    def handle_endtag(self, tag):
        if tag in _VOID_TAGS:
            return
        if tag in ("script", "style"):
            self._skip_depth = max(0, self._skip_depth - 1)
        if self._open_prop is not None:
            self._flush_prop()
        if self._scope_depths and self._depth <= self._scope_depths[-1]:
            self._scope_depths.pop()
            self._scope_stack.pop()
        while self._vocab_stack and self._depth <= self._vocab_stack[-1][0]:
            self._vocab_stack.pop()
        self._depth = max(0, self._depth - 1)

    def handle_data(self, data):
        if self._open_prop is not None and not self._skip_depth:
            self._open_prop[3].append(data)

    def _flush_prop(self) -> None:
        ent, rtype, prop, parts = self._open_prop  # type: ignore[misc]
        self._open_prop = None
        val = " ".join("".join(parts).split())
        if val:
            self.rows.append({
                "entity": ent, "rtype": rtype, "prop": prop, "value": val,
            })


def extract_rdfa(html: bytes | str) -> List[Dict[str, object]]:
    """All RDFa Lite (entity ordinal, rtype, prop, value) rows of a page,
    in document order. Truncation-tolerant like the microdata twin: a
    dangling open property at EOF is flushed."""
    if isinstance(html, bytes):
        html = html.decode("utf-8", errors="replace")
    p = _RdfaParser()
    try:
        p.feed(html)
        p.close()
    except Exception:
        pass
    if p._open_prop is not None:
        p._flush_prop()
    return p.rows
