"""Document-level PDF metadata for the query suite.

``PdfDocument`` here is the engine's ``PdfDocument`` plus read-only
accessors over the document catalog and page dictionaries: the /Info
dictionary, the outline, embedded files, fonts, optional-content layers,
AcroForm fields, XMP, page labels, link and text annotations, and the
structure tree. Text extraction never reads any of them; it lives in
``service1_text_extraction_ray.functions.pdf_extract``. The accessors
reuse the engine's walks rather than copy them: each reads the dicts the
engine parsed once per object (``_PdfObject.dict``), ``info`` finds /Info
through the inherited trailer lookup ``_trailer_entry``, ``fonts`` lists a
page's /Font entries with ``_resource_entries``, and ``structure`` reads
each page's spans through the inherited ``_page_spans``.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional, Tuple

from service1_text_extraction_ray.functions.pdf_extract import (
    PdfDocument as _EnginePdfDocument,
    PdfParseError,
    _Ref,
    _decode_stream,
    _doc_off_ocgs,
    _page_order,
    _resolve_dict,
    _resource_entries,
)

_INFO_KEYS = ("Title", "Author", "Subject", "Producer", "CreationDate")


def _text(d: Dict[str, Any], key: str) -> Optional[str]:
    """The string entry ``key`` of ``d`` decoded latin-1, else None."""
    v = d.get(key)
    return v.decode("latin-1") if isinstance(v, bytes) else None


def _name(d: Dict[str, Any], key: str) -> Optional[str]:
    """The name entry ``key`` of ``d``, else None."""
    v = d.get(key)
    return v if isinstance(v, str) else None


def _refs(v: Any) -> List[int]:
    """The object numbers an array value references, in order."""
    return [r.num for r in v if isinstance(r, _Ref)] if isinstance(v, list) else []


class PdfDocument(_EnginePdfDocument):
    """The engine's ``PdfDocument`` with the metadata accessors."""

    def _catalog_dict(self, key: str) -> Optional[Dict[str, Any]]:
        """The dict the catalog's ``key`` names, inline or by reference."""
        root = self._objects.get(self._root) if self._root is not None else None
        return _resolve_dict(self._objects, root.dict if root else None, key)

    def info(self) -> Dict[str, str]:
        """Document information dictionary (ISO 32000-1 §14.3.3): the
        /Info reference of the trailer (``_trailer_entry``), with the
        standard string entries decoded latin-1 (PDFDocEncoding's ASCII
        range; UTF-16 metadata strings are out of subset). Missing dict or
        entries -> absent keys, never an error. Strings in encrypted
        documents are themselves encrypted and are out of subset -> empty
        dict there."""
        if self._encrypt is not None:
            return {}
        found = self._trailer_entry("Info")
        obj = self._objects.get(found["Info"].num) if found else None
        if obj is None:
            return {}
        out: Dict[str, str] = {}
        for key in _INFO_KEYS:
            s = _text(obj.dict, key)
            if s is not None:
                out[key] = s
        return out

    def outline(self) -> List[Tuple[int, str]]:
        """Document outline (bookmarks, ISO 32000-1 §12.3.3): ``(depth,
        title)`` in reading order — depth 1 for top-level items. Walks the
        /Outlines -> /First -> /Next chains with a visited-set cycle guard
        and a depth cap (malformed trees terminate, never hang). Encrypted
        documents: titles are encrypted strings — out of subset, empty
        list (same boundary as info()/links())."""
        if self._encrypt is not None or self._root is None:
            return []
        outlines = self._catalog_dict("Outlines")
        if outlines is None:
            return []
        out: List[Tuple[int, str]] = []
        seen: set = set()

        def first_ref(d: Dict[str, Any], key: str) -> Optional[int]:
            v = d.get(key)
            return v.num if isinstance(v, _Ref) else None

        def walk(num: Optional[int], depth: int) -> None:
            while num is not None and num not in seen and depth <= 16:
                seen.add(num)
                item = self._objects.get(num)
                if item is None:
                    return
                title = _text(item.dict, "Title")
                if title is not None:
                    out.append((depth, title))
                walk(first_ref(item.dict, "First"), depth + 1)
                num = first_ref(item.dict, "Next")

        walk(first_ref(outlines, "First"), 1)
        return out

    def attachments(self) -> List[Tuple[str, bytes]]:
        """Embedded file attachments (ISO 32000-1 §7.11.4 name tree:
        catalog /Names -> /EmbeddedFiles -> tree of /Names [(key) ref ...]
        pairs with optional /Kids nesting -> /Type /Filespec -> /EF /F
        stream). Returns (tree key, decoded bytes) in tree order; the
        stream passes through the normal filter chain (Flate etc.).
        Depth/visited guards terminate malformed trees; encrypted
        documents are out of subset (empty, the info()/links() boundary)."""
        if self._encrypt is not None or self._root is None:
            return []
        ef_root = _resolve_dict(self._objects, self._catalog_dict("Names"),
                                "EmbeddedFiles")
        if ef_root is None:
            return []

        out: List[Tuple[str, bytes]] = []
        seen: set = set()

        def walk(node: Dict[str, Any], depth: int) -> None:
            if depth > 8:
                return
            if isinstance(node.get("Kids"), list):
                for num in _refs(node["Kids"]):
                    if num in seen:
                        continue
                    seen.add(num)
                    child = self._objects.get(num)
                    if child is not None:
                        walk(child.dict, depth + 1)
                return
            pairs = node.get("Names")
            if not isinstance(pairs, list):
                return
            for key, ref in zip(pairs[::2], pairs[1::2]):
                if not isinstance(key, bytes) or not isinstance(ref, _Ref):
                    break
                spec = self._objects.get(ref.num)
                ef = _resolve_dict(self._objects, spec.dict if spec else None, "EF")
                f = ef.get("F") if ef is not None else None
                stream_obj = self._objects.get(f.num) if isinstance(f, _Ref) else None
                if stream_obj is None or stream_obj.stream is None:
                    continue
                try:
                    data = _decode_stream(stream_obj)
                except PdfParseError:
                    continue
                out.append((key.decode("latin-1"), data))
        walk(ef_root, 0)
        return out

    def fonts(self) -> List[Tuple[int, str, str, str, int]]:
        """Font inventory (ISO 32000-1 §9.6-9.7): one ``(page_idx,
        resource_name, base_font, subtype, embedded)`` per /Font resource
        entry, pages in document order, entries in dict order. ``embedded``
        is 1 iff the font's descriptor carries a font program
        (/FontFile | /FontFile2 | /FontFile3); for /Type0 composite fonts
        the descriptor lives on the FIRST descendant CIDFont (§9.7.4) and
        the reported subtype stays Type0. Dangling font refs are skipped;
        /Resources inheritance comes from the _page_order walk. Encrypted
        documents work too (names/refs are not encrypted strings)."""
        if self._root is None:
            return []
        try:
            pages = _page_order(self._objects, self._root)
        except PdfParseError:
            return []
        out: List[Tuple[int, str, str, str, int]] = []
        for idx, (_, _, _, res) in enumerate(pages):
            for name, num in _resource_entries(self._objects, res, "Font"):
                fobj = self._objects.get(num)
                if fobj is None:
                    continue
                subtype = _name(fobj.dict, "Subtype")
                desc_holder = fobj.dict
                if subtype == "Type0":
                    desc = _refs(fobj.dict.get("DescendantFonts"))[:1]
                    child = self._objects.get(desc[0]) if desc else None
                    if child is not None:
                        desc_holder = child.dict
                fd = _resolve_dict(self._objects, desc_holder, "FontDescriptor")
                embedded = int(fd is not None and any(
                    k in fd for k in ("FontFile", "FontFile2", "FontFile3")))
                out.append((idx, name, _name(fobj.dict, "BaseFont") or "",
                            subtype or "", embedded))
        return out

    def layers(self) -> List[Tuple[str, int]]:
        """Optional-content groups (ISO 32000-1 §8.11): ``(name, on)`` in
        /OCProperties /OCGs array order; ``on`` is 0 iff the group sits in
        the default configuration's /OFF list. Text inside a ``/OC`` mark
        of an OFF group is suppressed by extract_pages (the watermark /
        hidden-layer drop, the PDF twin of the hidden-HTML-subtree drop).
        Empty for documents without optional content."""
        if self._root is None:
            return []
        ocp = self._catalog_dict("OCProperties")
        if ocp is None or not isinstance(ocp.get("OCGs"), list):
            return []
        off = _doc_off_ocgs(self._objects, self._root)
        out: List[Tuple[str, int]] = []
        for num in _refs(ocp["OCGs"]):
            obj = self._objects.get(num)
            name = _text(obj.dict, "Name") if obj is not None else None
            if name is not None:
                out.append((name, 0 if num in off else 1))
        return out

    def form_fields(self) -> List[Tuple[str, str, str, int]]:
        """Interactive form fields (AcroForm, ISO 32000-1 §12.7):
        ``(fully-qualified name, field type, value, flags)`` per TERMINAL
        field in /Fields-array DFS order. A node is terminal when none of
        its /Kids carries its own /T (kids without /T are widget
        annotations of the same field); non-terminal nodes contribute only
        their name segment (dot-joined). /FT and /V are inheritable —
        absent on a kid, the nearest ancestor's applies (§12.7.3.1).
        Values: literal strings decode latin-1; name values (checkbox /Yes,
        radio /opt1) drop the slash. Fields without /T are skipped (no
        addressable name). Encrypted documents are out of subset (empty,
        the info()/outline() boundary); visited/depth guards terminate
        malformed trees."""
        if self._encrypt is not None or self._root is None:
            return []
        acro = self._catalog_dict("AcroForm")
        if acro is None or not isinstance(acro.get("Fields"), list):
            return []

        out: List[Tuple[str, str, str, int]] = []
        seen: set = set()

        def walk(num: int, prefix: str, ftype: str, value: str,
                 flags: int, depth: int) -> None:
            if depth > 8 or num in seen:
                return
            seen.add(num)
            obj = self._objects.get(num)
            if obj is None:
                return
            d = obj.dict
            t = _text(d, "T")
            ftype = _name(d, "FT") or ftype
            v = _text(d, "V")
            if v is None:
                v = _name(d, "V")
            value = v if v is not None else value
            if type(d.get("Ff")) is int:  # /Ff is inheritable like /FT and /V
                flags = d["Ff"]
            kids = _refs(d.get("Kids"))
            named_kids = [k for k in kids if k in self._objects
                          and _text(self._objects[k].dict, "T") is not None]
            qual = (prefix + "." + t if prefix and t else (t or prefix))
            if named_kids:
                for k in kids:
                    walk(k, qual, ftype, value, flags, depth + 1)
            elif t is not None:
                out.append((qual, ftype, value, flags))

        for num in _refs(acro["Fields"]):
            walk(num, "", "", "", 0, 0)
        return out

    def xmp(self) -> Dict[str, str]:
        """XMP metadata (ISO 32000-1 §14.3.2: catalog /Metadata -> /Subtype
        /XML stream with an RDF/XML packet). Returns the common provenance
        properties a corpus pipeline keys on: ``dc_title`` (first rdf:Alt
        item), ``dc_creator`` (first rdf:Seq item), ``create_date``
        (xmp:CreateDate text). Extraction is regex over the decoded packet
        — total on arbitrary bytes, no XML parser to error out — and
        whitespace inside property text is preserved verbatim. Missing
        packet/properties -> absent keys; encrypted documents are out of
        subset (empty, the info()/outline() boundary)."""
        if self._encrypt is not None or self._root is None:
            return {}
        root = self._objects.get(self._root)
        ref = root.dict.get("Metadata") if root is not None else None
        obj = self._objects.get(ref.num) if isinstance(ref, _Ref) else None
        if obj is None or obj.stream is None:
            return {}
        try:
            data = _decode_stream(obj)
        except PdfParseError:
            return {}
        out: Dict[str, str] = {}
        tm = re.search(
            rb"<dc:title>.*?<rdf:li[^>]*>(.*?)</rdf:li>", data, re.DOTALL
        )
        if tm:
            out["dc_title"] = tm.group(1).decode("utf-8", "replace")
        cm = re.search(
            rb"<dc:creator>.*?<rdf:li[^>]*>(.*?)</rdf:li>", data, re.DOTALL
        )
        if cm:
            out["dc_creator"] = cm.group(1).decode("utf-8", "replace")
        dm = re.search(rb"<xmp:CreateDate>(.*?)</xmp:CreateDate>", data, re.DOTALL)
        if dm:
            out["create_date"] = dm.group(1).decode("utf-8", "replace")
        return out

    def page_labels(self) -> List[str]:
        """Page labels (ISO 32000-1 §12.4.2): the /PageLabels number tree
        maps page-index ranges to label styles — front matter "i, ii, iii"
        then body "1, 2, ..." is the classic. Supported: /S /D (decimal),
        /r /R (roman), /a /A (letters), optional /P prefix and /St start;
        pages before the first range (malformed docs) fall back to their
        1-based decimal index. Returns one label per page in page order."""
        if self._encrypt is not None or self._root is None:
            return []
        try:
            n_pages = len(_page_order(self._objects, self._root))
        except PdfParseError:
            return []
        node = self._catalog_dict("PageLabels")
        nums = node.get("Nums") if node is not None else None
        if not isinstance(nums, list):
            return []
        ranges: List[tuple] = []  # (start_index, style, prefix, start_num)
        for idx, d in zip(nums[::2], nums[1::2]):
            if isinstance(d, _Ref):  # a dangling label dict reads as empty
                d = self._objects[d.num].dict if d.num in self._objects else {}
            if type(idx) is not int or not isinstance(d, dict):
                break
            st = d.get("St")
            ranges.append((idx, _name(d, "S") or "", _text(d, "P") or "",
                           st if type(st) is int else 1))

        ranges.sort()

        def roman(n: int) -> str:
            vals = [(1000, "m"), (900, "cm"), (500, "d"), (400, "cd"),
                    (100, "c"), (90, "xc"), (50, "l"), (40, "xl"),
                    (10, "x"), (9, "ix"), (5, "v"), (4, "iv"), (1, "i")]
            out = []
            for v, sym in vals:
                while n >= v:
                    out.append(sym)
                    n -= v
            return "".join(out)

        def letters(n: int) -> str:
            # a..z, aa..zz, ... (the spec's repetition style)
            q, r = divmod(n - 1, 26)
            return chr(ord("a") + r) * (q + 1)

        labels: List[str] = []
        for p in range(n_pages):
            rng_ = None
            for r in ranges:
                if r[0] <= p:
                    rng_ = r
                else:
                    break
            if rng_ is None:
                labels.append(str(p + 1))
                continue
            idx, style, prefix, start = rng_
            n = start + (p - idx)
            if style == "D":
                body = str(n)
            elif style == "r":
                body = roman(n)
            elif style == "R":
                body = roman(n).upper()
            elif style == "a":
                body = letters(n)
            elif style == "A":
                body = letters(n).upper()
            else:
                body = ""
            labels.append(prefix + body)
        return labels

    def links(self) -> List[Tuple[int, str]]:
        """External URI link annotations, in page order: ``(page_number
        1-based, uri)`` per /Subtype /Link annotation whose action is
        /S /URI (ISO 32000-1 §12.5.6.5, §12.6.4.7) — the PDF twin of the
        HTML outlink extractor, feeding the same web-graph operators.
        Internal GoTo links and non-link annotations contribute nothing.
        Encrypted documents: URI strings are themselves encrypted — out of
        subset, empty list (same boundary as info())."""
        if self._encrypt is not None or self._root is None:
            return []
        out: List[Tuple[int, str]] = []
        for idx, annot in self._page_annotations():
            if annot.get("Subtype") != "Link":
                continue
            action = _resolve_dict(self._objects, annot, "A")
            uri = _text(action, "URI") if action is not None else None
            if uri is not None and action.get("S") == "URI":
                out.append((idx, uri))
        return out

    def annotations(self) -> List[Tuple[int, str, str]]:
        """Comment/markup annotations with their /Contents note text, in
        page order: ``(page_number 1-based, subtype, contents)`` per
        annotation whose /Subtype is a markup kind carrying a /Contents
        literal string (ISO 32000-1 §12.5.6.4 /Text notes, §12.5.6.10
        text-markup Highlight/Underline/StrikeOut/Squiggly, §12.5.6.6
        /FreeText). Link/geometry annotations and markup annotations
        WITHOUT /Contents contribute nothing. Encrypted documents: the
        strings are encrypted — out of subset, empty list (the links()
        boundary)."""
        markup = {"Text", "Highlight", "Underline", "StrikeOut",
                  "Squiggly", "FreeText"}
        if self._encrypt is not None or self._root is None:
            return []
        out: List[Tuple[int, str, str]] = []
        for idx, annot in self._page_annotations():
            subtype = _name(annot, "Subtype")
            contents = _text(annot, "Contents")
            if subtype in markup and contents is not None:
                out.append((idx, subtype, contents))
        return out

    def _page_annotations(self) -> List[Tuple[int, Dict[str, Any]]]:
        """``(page_number 1-based, annotation dict)`` for each annotation
        that a page's /Annots array references, in page order."""
        out: List[Tuple[int, Dict[str, Any]]] = []
        for idx, (pnum, _rot, _box, _res) in enumerate(
            _page_order(self._objects, self._root), start=1
        ):
            page = self._objects.get(pnum)
            for num in _refs(page.dict.get("Annots")) if page else []:
                annot = self._objects.get(num)
                if annot is not None:
                    out.append((idx, annot.dict))
        return out

    def structure(self) -> List[Tuple[int, str, str]]:
        """Logical structure (tagged PDF, ISO 32000-1 §14.7-14.8):
        ``(index, role, text)`` per structure element in depth-first
        reading order. Roles pass through /RoleMap (one level — custom
        role -> standard); element text is the concatenation of the spans
        carrying the element's marked-content ids (/K integers), in /K
        order. Content OUTSIDE any structure element (/Artifact page
        chrome) never appears here even though plain extraction keeps it —
        the reading-order/accessibility view of the document. Empty for
        untagged PDFs. Subset: MCIDs resolve against the element's /Pg
        page (fixtures: every page), leaf /K forms int | ref | array of
        ints/refs."""
        if self._root is None:
            return []
        st = self._catalog_dict("StructTreeRoot")
        if st is None:
            return []
        rolemap = {k: v for k, v in
                   (_resolve_dict(self._objects, st, "RoleMap") or {}).items()
                   if isinstance(v, str)}

        # mcid -> text, per page index (subset: fixture pages are unique
        # owners of their mcids; /Pg selects the page). A broken page tree
        # means no MCID can resolve: empty structure, not an exception
        # (the inventory-method totality contract).
        try:
            page_nums = _page_order(self._objects, self._root)
        except PdfParseError:
            return []
        off_ocgs = _doc_off_ocgs(self._objects, self._root)
        by_page: Dict[int, Dict[int, str]] = {}
        for pnum, _rot, _box, resources in page_nums:
            texts: Dict[int, str] = {}
            try:
                spans = self._page_spans(pnum, resources, off_ocgs)
            except PdfParseError:
                spans = []
            for sp in spans:
                if sp.mcid is not None:
                    texts[sp.mcid] = texts.get(sp.mcid, "") + sp.text
            by_page[pnum] = texts

        def k_items(d: Dict[str, Any]) -> List[Tuple[str, int]]:
            """Parse /K: ('ref', obj) | ('mcid', n) items in order."""
            k = d.get("K")
            return [("ref", x.num) if isinstance(x, _Ref) else ("mcid", x)
                    for x in (k if isinstance(k, list) else [k])
                    if isinstance(x, _Ref) or type(x) is int]

        out: List[Tuple[int, str, str]] = []
        seen: set = set()

        def walk(num: int) -> None:
            if num in seen or len(seen) > 10_000:  # cyclic/huge tree guard
                return
            seen.add(num)
            obj = self._objects.get(num)
            if obj is None:
                return
            role_raw = _name(obj.dict, "S") or ""
            role = rolemap.get(role_raw, role_raw)
            pg = obj.dict.get("Pg")
            pnum = pg.num if isinstance(pg, _Ref) else (
                page_nums[0][0] if page_nums else -1
            )
            texts = by_page.get(pnum, {})
            mcids = [n for kind, n in k_items(obj.dict) if kind == "mcid"]
            if mcids:
                out.append((
                    len(out), role,
                    "".join(texts.get(n, "") for n in mcids),
                ))
            for kind, n in k_items(obj.dict):
                if kind == "ref":
                    walk(n)

        for kind, n in k_items(st):
            if kind == "ref":
                walk(n)
        return out
