"""Document-level PDF metadata for the query suite.

``PdfDocument`` here is the engine's ``PdfDocument`` plus read-only
accessors over the document catalog and page dictionaries: the /Info
dictionary, the outline, embedded files, fonts, optional-content layers,
AcroForm fields, XMP, page labels, link and text annotations, and the
structure tree. Text extraction never reads any of them; it lives in
``service1_text_extraction_ray.functions.pdf_extract``. The accessors
reuse the engine's walks rather than copy them: ``info`` finds /Info
through the inherited trailer lookup ``_trailer_entry``, ``fonts`` lists a
page's /Font entries with ``_resource_entries``, and ``structure`` reads
each page's spans through the inherited ``_page_spans``.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from service1_text_extraction_ray.functions.pdf_extract import (
    PdfDocument as _EnginePdfDocument,
    PdfParseError,
    _REF_RE,
    _decode_stream,
    _doc_off_ocgs,
    _page_order,
    _parse_string_entry,
    _read_literal_string,
    _resolve_dict,
    _resource_entries,
    _scan_dict,
    _skip_ws,
)

_INFO_REF_RE = re.compile(rb"/Info\s+(\d+)\s+\d+\s+R")
_ANNOTS_RE = re.compile(rb"/Annots\s*\[([^\]]*)\]")
_ACTION_REF_RE = re.compile(rb"/A\s+(\d+)\s+\d+\s+R")
_URI_STR_RE = re.compile(rb"/URI\s*\(")
_TITLE_STR_RE = re.compile(rb"/Title\s*\(")


_INFO_KEYS = ("Title", "Author", "Subject", "Producer", "CreationDate")


class PdfDocument(_EnginePdfDocument):
    """The engine's ``PdfDocument`` with the metadata accessors."""

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
        found = self._trailer_entry(_INFO_REF_RE)
        obj = self._objects.get(int(found[1].group(1))) if found else None
        if obj is None:
            return {}
        out: Dict[str, str] = {}
        for key in _INFO_KEYS:
            s = _parse_string_entry(obj.dict_bytes, key.encode("ascii"))
            if s is not None:
                out[key] = s.decode("latin-1")
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
        root = self._objects.get(self._root)
        if root is None:
            return []
        om = re.search(rb"/Outlines\s+(\d+)\s+\d+\s+R", root.dict_bytes)
        if om is None:
            return []
        out: List[Tuple[int, str]] = []
        seen: set = set()

        def first_ref(d: bytes, key: bytes) -> Optional[int]:
            m = re.search(key + rb"\s+(\d+)\s+\d+\s+R", d)
            return int(m.group(1)) if m else None

        def walk(num: Optional[int], depth: int) -> None:
            while num is not None and num not in seen and depth <= 16:
                seen.add(num)
                item = self._objects.get(num)
                if item is None:
                    return
                tm = _TITLE_STR_RE.search(item.dict_bytes)
                if tm is not None:
                    raw, _ = _read_literal_string(item.dict_bytes, tm.end() - 1)
                    out.append((depth, raw.decode("latin-1")))
                walk(first_ref(item.dict_bytes, rb"/First"), depth + 1)
                num = first_ref(item.dict_bytes, rb"/Next")

        outlines = self._objects.get(int(om.group(1)))
        if outlines is None:
            return []
        walk(first_ref(outlines.dict_bytes, rb"/First"), 1)
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
        root = self._objects.get(self._root)
        if root is None:
            return []

        def dict_of(ref_or_inline: bytes, key: bytes) -> Optional[bytes]:
            """Value of ``key`` in a dict: inline << >> or indirect ref."""
            m = re.search(key + rb"\s+(\d+)\s+\d+\s+R", ref_or_inline)
            if m:
                o = self._objects.get(int(m.group(1)))
                return o.dict_bytes if o is not None else None
            m = re.search(key + rb"\s*<<", ref_or_inline)
            if m:
                d, _ = _scan_dict(ref_or_inline, m.end() - 2)
                return d
            return None

        names_dict = dict_of(root.dict_bytes, rb"/Names")
        if names_dict is None:
            return []
        ef_root = dict_of(names_dict, rb"/EmbeddedFiles")
        if ef_root is None:
            return []

        out: List[Tuple[str, bytes]] = []
        seen: set = set()

        def walk(node: bytes, depth: int) -> None:
            if depth > 8:
                return
            km = re.search(rb"/Kids\s*\[", node)
            if km:
                arr_start = km.end() - 1
                arr_end = node.index(b"]", arr_start)
                for rm in _REF_RE.finditer(node[arr_start:arr_end]):
                    num = int(rm.group(1))
                    if num in seen:
                        continue
                    seen.add(num)
                    child = self._objects.get(num)
                    if child is not None:
                        walk(child.dict_bytes, depth + 1)
                return
            nm = re.search(rb"/Names\s*\[", node)
            if nm is None:
                return
            i = nm.end()
            while i < len(node):
                i = _skip_ws(node, i)
                if i >= len(node) or node[i : i + 1] == b"]":
                    break
                if node[i : i + 1] != b"(":
                    break
                key_raw, i = _read_literal_string(node, i)
                i = _skip_ws(node, i)
                rm = _REF_RE.match(node[i:])
                if rm is None:
                    break
                i += rm.end()
                spec = self._objects.get(int(rm.group(1)))
                if spec is None:
                    continue
                em = re.search(rb"/EF\s*<<", spec.dict_bytes)
                if em is None:
                    continue
                efd, _ = _scan_dict(spec.dict_bytes, em.end() - 2)
                fm = re.search(rb"/F\s+(\d+)\s+\d+\s+R", efd)
                if fm is None:
                    continue
                stream_obj = self._objects.get(int(fm.group(1)))
                if stream_obj is None or stream_obj.stream is None:
                    continue
                try:
                    data = _decode_stream(stream_obj)
                except PdfParseError:
                    continue
                out.append((key_raw.decode("latin-1"), data))
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
                st = re.search(rb"/Subtype\s*/(\w+)", fobj.dict_bytes)
                bm = re.search(rb"/BaseFont\s*/([^\s/<>\[\]()]+)",
                               fobj.dict_bytes)
                desc_holder = fobj.dict_bytes
                if st is not None and st.group(1) == b"Type0":
                    dm = re.search(rb"/DescendantFonts\s*\[\s*(\d+)\s+\d+\s+R",
                                   fobj.dict_bytes)
                    if dm is not None:
                        child = self._objects.get(int(dm.group(1)))
                        if child is not None:
                            desc_holder = child.dict_bytes
                embedded = 0
                rm = re.search(rb"/FontDescriptor\s+(\d+)\s+\d+\s+R",
                               desc_holder)
                if rm is not None:
                    dobj = self._objects.get(int(rm.group(1)))
                    if dobj is not None and re.search(
                        rb"/FontFile[23]?\b", dobj.dict_bytes
                    ):
                        embedded = 1
                out.append((
                    idx,
                    name,
                    bm.group(1).decode("latin-1") if bm else "",
                    st.group(1).decode("latin-1") if st else "",
                    embedded,
                ))
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
        root = self._objects.get(self._root)
        if root is None:
            return []
        ocp = _resolve_dict(self._objects, root.dict_bytes, "OCProperties")
        if ocp is None:
            return []
        gm = re.search(rb"/OCGs\s*\[", ocp)
        if gm is None:
            return []
        end = ocp.find(b"]", gm.end() - 1)
        if end < 0:
            return []
        off = _doc_off_ocgs(self._objects, self._root)
        out: List[Tuple[str, int]] = []
        for r in _REF_RE.finditer(ocp[gm.end() - 1 : end]):
            obj = self._objects.get(int(r.group(1)))
            if obj is None:
                continue
            nm = re.search(rb"/Name\s*\(", obj.dict_bytes)
            if nm is None:
                continue
            raw, _ = _read_literal_string(obj.dict_bytes, nm.end() - 1)
            out.append((raw.decode("latin-1"),
                        0 if int(r.group(1)) in off else 1))
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
        root = self._objects.get(self._root)
        if root is None:
            return []

        def sub_dict(d: bytes, key: bytes) -> Optional[bytes]:
            m = re.search(key + rb"\s+(\d+)\s+\d+\s+R", d)
            if m:
                o = self._objects.get(int(m.group(1)))
                return o.dict_bytes if o is not None else None
            m = re.search(key + rb"\s*<<", d)
            if m:
                dd, _ = _scan_dict(d, m.end() - 2)
                return dd
            return None

        acro = sub_dict(root.dict_bytes, rb"/AcroForm")
        if acro is None:
            return []
        fm = re.search(rb"/Fields\s*\[", acro)
        if fm is None:
            return []
        fend = acro.find(b"]", fm.end() - 1)
        if fend < 0:  # unterminated array in a corrupt file
            return []
        arr = acro[fm.end() - 1 : fend + 1]

        def lit(d: bytes, key: bytes) -> Optional[str]:
            m = re.search(key + rb"\s*\(", d)
            if m is None:
                return None
            raw, _ = _read_literal_string(d, m.end() - 1)
            return raw.decode("latin-1")

        def name_tok(d: bytes, key: bytes) -> Optional[str]:
            m = re.search(key + rb"\s*/([^\s/<>\[\]()]+)", d)
            return m.group(1).decode("latin-1") if m else None

        out: List[Tuple[str, str, str, int]] = []
        seen: set = set()

        def kid_refs(d: bytes) -> List[int]:
            m = re.search(rb"/Kids\s*\[", d)
            if m is None:
                return []
            kend = d.find(b"]", m.end() - 1)
            if kend < 0:
                return []
            seg = d[m.end() - 1 : kend + 1]
            return [int(r.group(1)) for r in _REF_RE.finditer(seg)]

        def walk(num: int, prefix: str, ftype: str, value: str,
                 flags: int, depth: int) -> None:
            if depth > 8 or num in seen:
                return
            seen.add(num)
            obj = self._objects.get(num)
            if obj is None:
                return
            d = obj.dict_bytes
            t = lit(d, rb"/T")
            ftype = name_tok(d, rb"/FT") or ftype
            v = lit(d, rb"/V")
            if v is None:
                v = name_tok(d, rb"/V")
            value = v if v is not None else value
            fmatch = re.search(rb"/Ff\s+(\d+)", d)
            if fmatch:  # /Ff is inheritable like /FT and /V
                flags = int(fmatch.group(1))
            kids = kid_refs(d)
            named_kids = []
            for k in kids:
                ko = self._objects.get(k)
                if ko is not None and lit(ko.dict_bytes, rb"/T") is not None:
                    named_kids.append(k)
            qual = (prefix + "." + t if prefix and t else (t or prefix))
            if named_kids:
                for k in kids:
                    walk(k, qual, ftype, value, flags, depth + 1)
            elif t is not None:
                out.append((qual, ftype, value, flags))

        for r in _REF_RE.finditer(arr):
            walk(int(r.group(1)), "", "", "", 0, 0)
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
        if root is None:
            return {}
        m = re.search(rb"/Metadata\s+(\d+)\s+\d+\s+R", root.dict_bytes)
        if m is None:
            return {}
        obj = self._objects.get(int(m.group(1)))
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
        root = self._objects.get(self._root)
        if root is None:
            return []
        try:
            n_pages = len(_page_order(self._objects, self._root))
        except PdfParseError:
            return []
        m = re.search(rb"/PageLabels\s+(\d+)\s+\d+\s+R", root.dict_bytes)
        if m:
            node = self._objects.get(int(m.group(1)))
            node_bytes = node.dict_bytes if node is not None else b""
        else:
            m = re.search(rb"/PageLabels\s*<<", root.dict_bytes)
            if not m:
                return []
            node_bytes, _ = _scan_dict(root.dict_bytes, m.end() - 2)

        nm = re.search(rb"/Nums\s*\[", node_bytes)
        if nm is None:
            return []
        i = nm.end()
        ranges: List[tuple] = []  # (start_index, style, prefix, start_num)
        while i < len(node_bytes):
            i = _skip_ws(node_bytes, i)
            if i >= len(node_bytes) or node_bytes[i : i + 1] == b"]":
                break
            im = re.match(rb"(\d+)", node_bytes[i:])
            if im is None:
                break
            idx = int(im.group(1))
            i += im.end()
            i = _skip_ws(node_bytes, i)
            if node_bytes[i : i + 2] == b"<<":
                d, i = _scan_dict(node_bytes, i)
            else:
                rm = _REF_RE.match(node_bytes[i:])
                if rm is None:
                    break
                i += rm.end()
                o = self._objects.get(int(rm.group(1)))
                d = o.dict_bytes if o is not None else b""
            sm = re.search(rb"/S\s*/(\w+)", d)
            style = sm.group(1).decode("ascii") if sm else ""
            pm = re.search(rb"/P\s*\(", d)
            prefix = ""
            if pm:
                raw, _ = _read_literal_string(d, pm.end() - 1)
                prefix = raw.decode("latin-1")
            stm = re.search(rb"/St\s+(\d+)", d)
            start = int(stm.group(1)) if stm else 1
            ranges.append((idx, style, prefix, start))

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
        for idx, (pnum, _rot, _box, _res) in enumerate(
            _page_order(self._objects, self._root), start=1
        ):
            page = self._objects.get(pnum)
            if page is None:
                continue
            am = _ANNOTS_RE.search(page.dict_bytes)
            if am is None:
                continue
            for rm in _REF_RE.finditer(am.group(1)):
                annot = self._objects.get(int(rm.group(1)))
                if annot is None:
                    continue
                st = re.search(rb"/Subtype\s*/(\w+)", annot.dict_bytes)
                if st is None or st.group(1) != b"Link":
                    continue
                a_bytes = annot.dict_bytes
                aref = _ACTION_REF_RE.search(annot.dict_bytes)
                if aref is not None:
                    aobj = self._objects.get(int(aref.group(1)))
                    if aobj is None:
                        continue
                    a_bytes = aobj.dict_bytes
                if re.search(rb"/S\s*/URI\b", a_bytes) is None:
                    continue
                um = _URI_STR_RE.search(a_bytes)
                if um is None:
                    continue
                raw, _ = _read_literal_string(a_bytes, um.end() - 1)
                out.append((idx, raw.decode("latin-1")))
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
        markup = {b"Text", b"Highlight", b"Underline", b"StrikeOut",
                  b"Squiggly", b"FreeText"}
        if self._encrypt is not None or self._root is None:
            return []
        out: List[Tuple[int, str, str]] = []
        for idx, (pnum, _rot, _box, _res) in enumerate(
            _page_order(self._objects, self._root), start=1
        ):
            page = self._objects.get(pnum)
            if page is None:
                continue
            am = _ANNOTS_RE.search(page.dict_bytes)
            if am is None:
                continue
            for rm in _REF_RE.finditer(am.group(1)):
                annot = self._objects.get(int(rm.group(1)))
                if annot is None:
                    continue
                st = re.search(rb"/Subtype\s*/(\w+)", annot.dict_bytes)
                if st is None or st.group(1) not in markup:
                    continue
                cm = re.search(rb"/Contents\s*\(", annot.dict_bytes)
                if cm is None:
                    continue
                raw, _ = _read_literal_string(annot.dict_bytes, cm.end() - 1)
                out.append((idx, st.group(1).decode("ascii"),
                            raw.decode("latin-1")))
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
        root = self._objects.get(self._root)
        if root is None:
            return []
        m = re.search(rb"/StructTreeRoot\s+(\d+)\s+\d+\s+R", root.dict_bytes)
        if m is None:
            return []
        st = self._objects.get(int(m.group(1)))
        if st is None:
            return []
        rolemap: Dict[bytes, bytes] = {}
        rmd = _resolve_dict(self._objects, st.dict_bytes, "RoleMap")
        if rmd is not None:
            for a, b in re.findall(
                rb"/([^\s/<>\[\]()]+)\s*/([^\s/<>\[\]()]+)", rmd
            ):
                rolemap[a] = b

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

        def k_items(dict_bytes: bytes) -> List[Tuple[str, int]]:
            """Parse /K: ('ref', obj) | ('mcid', n) items in order."""
            km = re.search(
                rb"/K\s*(\[[^\]]*\]|\d+\s+\d+\s+R|\d+)", dict_bytes
            )
            if km is None:
                return []
            body = km.group(1)
            if body.startswith(b"["):
                body = body[1:-1]
            items: List[Tuple[str, int]] = []
            for mm in re.finditer(rb"(\d+)\s+\d+\s+R|(\d+)", body):
                if mm.group(1) is not None:
                    items.append(("ref", int(mm.group(1))))
                else:
                    items.append(("mcid", int(mm.group(2))))
            return items

        out: List[Tuple[int, str, str]] = []
        seen: set = set()

        def walk(num: int) -> None:
            if num in seen or len(seen) > 10_000:  # cyclic/huge tree guard
                return
            seen.add(num)
            obj = self._objects.get(num)
            if obj is None:
                return
            sm = re.search(rb"/S\s*/([^\s/<>\[\]()]+)", obj.dict_bytes)
            role_raw = sm.group(1) if sm is not None else b""
            role = rolemap.get(role_raw, role_raw).decode("latin-1")
            pg = re.search(rb"/Pg\s+(\d+)\s+\d+\s+R", obj.dict_bytes)
            pnum = int(pg.group(1)) if pg is not None else (
                page_nums[0][0] if page_nums else -1
            )
            texts = by_page.get(pnum, {})
            mcids = [n for kind, n in k_items(obj.dict_bytes) if kind == "mcid"]
            if mcids:
                out.append((
                    len(out), role,
                    "".join(texts.get(n, "") for n in mcids),
                ))
            for kind, n in k_items(obj.dict_bytes):
                if kind == "ref":
                    walk(n)

        for kind, n in k_items(st.dict_bytes):
            if kind == "ref":
                walk(n)
        return out
