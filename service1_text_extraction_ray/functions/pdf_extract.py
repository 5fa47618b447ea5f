"""From-scratch PDF text/layout extraction on the Python stdlib.

Replaces the reference's PyMuPDF usage (``core_pdf_processor.py:115-218``
doc loop, ``:356-416`` page dispatcher, ``:418-465`` layout tree) with a
parser for a defined PDF subset — no fitz/pdfminer/pypdf in the environment,
and the north rule demands a from-scratch build. The *semantics* downstream
of parsing (page acceptance gate, layout-tree shape, reading order, output
formats) mirror the reference, cited at each function.

Supported subset (documented per SURVEY.md §7.4 item 2; the fixture writer in
``functions/synth.py`` emits only this subset, and real-world deviations
surface as per-page/per-doc ``parse_failure`` rows, never exceptions):

- PDF 1.x layout: ``N G obj ... endobj`` bodies and dictionaries
  ``<< ... >>``. ``_read_dict`` reads each object's dict once, on the
  content tokenizer's branches, into a value (``_PdfObject.dict``): name
  keys map to numbers, names, strings, ``_Ref`` references, arrays,
  dicts, booleans or null, and the first entry of a repeated key wins.
  Every reader of an entry looks its key up there, so a key inside a
  nested dict or a string is never taken for the object's own. Inside a
  dict only a well-formed hex string is one, so ``<abcd>>>`` closes where
  it should. Streams take a direct ``/Length`` integer (an indirect
  ``/Length N 0 R`` falls back to the ``endstream`` scan). PLUS 1.5+
  object streams: every ``/Type /ObjStm`` is decoded and its contained
  objects unpacked into the object map (``_expand_object_streams``), so
  compressed-catalog documents parse. Trailer fields (/Root, /Encrypt,
  /ID) come from one lookup, ``PdfDocument._trailer_entry``: the dict
  after the last ``trailer`` keyword, read once per document, then the
  ``/Type /XRef`` stream dicts (cross-reference-stream files have no
  ``trailer`` keyword). Incremental updates (§7.5.6) resolve
  last-definition-at-highest-generation wins, so appended replacement
  objects shadow their originals.
- Document structure: ``trailer`` dict (or a ``/Type /Catalog`` object) ->
  ``/Root`` -> ``/Pages`` tree with nested ``/Kids`` -> ``/Type /Page``
  leaves; ``/MediaBox`` inherited or per-page; ``/Contents`` as a single ref
  or an array of refs.
- Content streams: raw, ``/Filter /FlateDecode`` (stdlib zlib),
  ``/LZWDecode`` (TIFF-variant LZW, EarlyChange=1), ``/RunLengthDecode``,
  ``/ASCIIHexDecode``, ``/ASCII85Decode``, or a chain of these in array
  order (any other filter -> counted parse failure, never junk text);
  ``/DecodeParms`` ``/Predictor`` post-filters on the Flate/LZW stages —
  TIFF horizontal differencing (2) and all five PNG row filters (10-15,
  RFC 2083) with Columns/Colors/BitsPerComponent row geometry; text
  operators ``BT ET Tf Td TD Tm T* TL Tj TJ ' "``, all read by one
  tokenizer (``_tokenize``). It also reads an inline image's parameters
  (``BI .. ID``, §8.9.7) with the same branches, ``%`` comments included,
  yielding nothing, then skips the binary to ``EI``, so image bytes that
  spell text operators never inject junk spans; literal ``(...)`` strings
  with standard escapes + octal, hex ``<...>`` strings; single-byte
  (StandardEncoding/WinAnsi ~ latin-1) text, with ``/Encoding
  /Differences`` glyph-name remapping honored per font (uniXXXX names and
  an Adobe-Glyph-List subset; inline or indirect encoding dicts).
  Composite (Type0) fonts decode 2-byte CIDs through their /ToUnicode
  CMap: ``_parse_tounicode`` finds each ``bfchar``/``bfrange`` section
  and reads its body with ``_tokenize``, so its hex codes follow the
  string rules above (§7.3.4.3) and ``%`` comments hide what they hold.
- Page resources: ``_page_resources`` resolves a page's ``/Resources``
  once, one ``_resource_entries`` walk per category dict (``/Font``,
  ``/XObject``, ``/Properties``; see ``_PageResources``), and
  ``PdfDocument._page_spans`` runs the page's content with them.
  ``_resolve_dict`` reads a dict that a key names inline or by reference
  (/Resources and its category dicts, /OCProperties and its /D).
- The xref table is ignored (objects are located by scanning) — tolerant of
  broken/truncated xref sections, which is the common real-world corruption.

Geometry model: spans carry the text-matrix origin; y is flipped to
top-down coordinates (y_down = page_height - y_pdf) so the layout tree and
the layout-recreation formatter use the same orientation as the reference's
fitz-based tree (fitz is y-down). Reading order: lines sorted top-to-bottom
with gap-based two-column detection (left column first), seeded from the
reference's layout-recreation thresholds (``core_pdf_processor.py:709-781``).
"""

from __future__ import annotations

import json
import math
import re
import zlib
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_str
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from .pdf_crypt import (
    authenticate_owner_password,
    authenticate_owner_password_v5,
    authenticate_user_password,
    authenticate_user_password_v5,
    crypt_object_bytes,
    decrypt_object_bytes_aes,
    decrypt_object_bytes_aes256,
    verify_perms_v5,
)
from .page_render import unfilter_png_rows

# Glyph advance approximation for span bboxes (Helvetica-ish average width as a
# fraction of font size). Affects only layout bboxes, not text bytes.
GLYPH_WIDTH_FACTOR = 0.5

# Spans whose baselines differ by <= this many points are the same line.
LINE_Y_TOLERANCE = 2.0

# Consecutive lines with a vertical gap > 1.8x font size start a new block.
BLOCK_GAP_FACTOR = 1.8

# Two-column detection: the x-gap between column clusters must exceed this
# fraction of the page width, and each side must have at least 2 lines.
COLUMN_GAP_FRACTION = 0.20


class PdfParseError(Exception):
    """Raised for payloads outside the supported subset; callers convert this
    into a ``parse_failure`` row (reference failure isolation,
    ``core_pdf_processor.py:202-209``)."""


class PdfPasswordError(PdfParseError):
    """The document is encrypted and no supplied password authenticates —
    the caller's password-attempt loop (reference
    ``core_pdf_processor.py:283-306``) turns this into a
    ``password_required`` failure row."""


# --------------------------------------------------------------------------
# Object scanning
# --------------------------------------------------------------------------

_OBJ_RE = re.compile(rb"(\d+)\s+(\d+)\s+obj\b")
# the PDF white-space characters (ISO 32000-1 §7.2.2, Table 1)
_WS_BYTES = b" \t\r\n\f\x00"


def _skip_ws(data: bytes, i: int) -> int:
    n = len(data)
    while i < n and data[i : i + 1] in _WS_BYTES:
        i += 1
    return i


# Dicts and arrays nest at most this deep. The reader recurses once per
# dict, so hostile input such as ``<<<<<<...`` raises PdfParseError
# instead of exhausting the stack.
_MAX_NESTING = 64


class _Ref(NamedTuple):
    """An indirect reference ``N G R``; objects are looked up by ``num``."""

    num: int


# Bare words a dict value can be; any other word inside a dict reads as null.
_KEYWORDS = {b"true": True, b"false": False, b"null": None}


def _read_dict(data: bytes, i: int, depth: int = 1) -> Tuple[Dict[str, Any], int]:
    """Read the dict that starts with ``<<`` at ``i``; return its value and
    the index after its ``>>``.

    The tokens come from ``_tokenize``. Keys are names without their slash
    (``str``); values are int or float, name (``str``), string (``bytes``),
    ``_Ref``, list, dict, bool or None. The first entry of a repeated key
    wins. A value that is not a name where a key is due is skipped. A
    ``>>`` closes any array still open, as it closes the dict's extent."""
    if depth > _MAX_NESTING:
        raise PdfParseError("dictionary nested too deeply")
    stack: List[list] = [[]]  # the dict's items, then each open array's
    for kind, val in _tokenize(data, i + 2, depth):
        if kind == ">>":
            end = val
            break
        if kind == "[":
            if depth + len(stack) > _MAX_NESTING:
                raise PdfParseError("array nested too deeply")
            stack.append([])
            continue
        if kind == "]":
            if len(stack) > 1:
                stack[-2].append(stack.pop())
            continue
        items = stack[-1]
        if kind == "name":
            items.append(val[1:].decode("latin-1"))
        elif kind == "num":
            items.append(int(val) if val.is_integer() else val)
        elif kind != "op":
            items.append(val)  # a string or a nested dict
        elif (val == b"R" and len(items) >= 2
              and type(items[-1]) is int and type(items[-2]) is int):
            items[-2:] = [_Ref(items[-2])]
        else:
            items.append(_KEYWORDS.get(val))
    while len(stack) > 1:
        stack[-2].append(stack.pop())
    d: Dict[str, Any] = {}
    it = iter(stack[0])
    for key in it:
        if type(key) is str:
            d.setdefault(key, next(it, None))
    return d, end


def _int(d: Dict[str, Any], key: str, default: Optional[int] = None) -> Optional[int]:
    """``d[key]`` when it is an integer (not a bool or a reference)."""
    v = d.get(key)
    return v if type(v) is int else default


@dataclass
class _PdfObject:
    num: int
    dict: Dict[str, Any]  # empty unless the object is a dict or stream
    stream: Optional[bytes]
    gen: int = 0


def _scan_objects(data: bytes) -> Dict[int, _PdfObject]:
    """Locate all indirect objects by scanning (xref ignored — see module doc)."""
    objects: Dict[int, _PdfObject] = {}
    pos = 0
    n = len(data)
    while True:
        m = _OBJ_RE.search(data, pos)
        if m is None:
            break
        num = int(m.group(1))
        gen = int(m.group(2))
        i = _skip_ws(data, m.end())
        d: Dict[str, Any] = {}
        stream: Optional[bytes] = None
        if data[i : i + 2] == b"<<":
            d, i = _read_dict(data, i)
            i = _skip_ws(data, i)
            if data[i : i + 6] == b"stream":
                i += 6
                if data[i : i + 2] == b"\r\n":
                    i += 2
                elif data[i : i + 1] == b"\n":
                    i += 1
                length = _int(d, "Length")
                if length is None or length < 0:
                    # Subset requires direct /Length; fall back to endstream scan.
                    end = data.find(b"endstream", i)
                    if end < 0:
                        raise PdfParseError("stream without Length or endstream")
                    stream = data[i:end].rstrip(b"\r\n")
                    i = end
                else:
                    if i + length > n:
                        raise PdfParseError("truncated stream")
                    stream = data[i : i + length]
                    i = i + length
        end_obj = data.find(b"endobj", i)
        pos = end_obj + 6 if end_obj >= 0 else i + 1
        # Incremental updates (ISO 32000-1 §7.5.6) append replacement
        # objects at the END of the file; with xref ignored, the live
        # version is the LAST definition at the highest generation — the
        # same repair heuristic scanning parsers use. A later definition
        # with a LOWER generation is a stale freed object and never wins.
        prior = objects.get(num)
        if prior is None or gen >= prior.gen:
            objects[num] = _PdfObject(num, d, stream, gen)
    if not objects:
        raise PdfParseError("no PDF objects found")
    return objects


def _ascii_hex_decode(raw: bytes) -> bytes:
    """ASCIIHexDecode (PDF 1.7 §7.4.2): hex digits, whitespace ignored,
    ``>`` is end-of-data, an odd trailing digit is padded with 0."""
    eod = raw.find(b">")
    if eod != -1:
        raw = raw[:eod]
    compact = bytes(c for c in raw if c not in _WS_BYTES)
    if not re.fullmatch(rb"[0-9A-Fa-f]*", compact):
        raise PdfParseError("ASCIIHexDecode: non-hex character")
    if len(compact) % 2:
        compact += b"0"
    return bytes.fromhex(compact.decode("ascii"))


def _ascii85_decode(raw: bytes) -> bytes:
    """ASCII85Decode (PDF 1.7 §7.4.3): base-85 groups of 5 chars -> 4
    bytes, ``z`` shorthand for four zero bytes (only between groups),
    ``~>`` is EOD, whitespace ignored; a trailing partial group of n chars
    (2 <= n <= 4) yields n-1 bytes (pad with 'u', drop the pad bytes)."""
    eod = raw.find(b"~>")
    if eod != -1:
        raw = raw[:eod]
    if raw.startswith(b"<~"):
        raw = raw[2:]
    out = bytearray()
    group: List[int] = []
    for c in raw:
        if c in _WS_BYTES:
            continue
        if c == 0x7A:  # 'z'
            if group:
                raise PdfParseError("ASCII85Decode: z inside group")
            out += b"\x00\x00\x00\x00"
            continue
        if not (0x21 <= c <= 0x75):
            raise PdfParseError("ASCII85Decode: character out of range")
        group.append(c - 0x21)
        if len(group) == 5:
            acc = 0
            for d in group:
                acc = acc * 85 + d
            if acc > 0xFFFFFFFF:
                raise PdfParseError("ASCII85Decode: group overflow")
            out += acc.to_bytes(4, "big")
            group = []
    if group:
        n = len(group)
        if n == 1:
            raise PdfParseError("ASCII85Decode: single trailing character")
        acc = 0
        for d in group + [84] * (5 - n):
            acc = acc * 85 + d
        out += acc.to_bytes(4, "big")[: n - 1]
    return bytes(out)


def _lzw_decode(data: bytes) -> bytes:
    """LZWDecode (PDF 1.7 §7.4.4 / TIFF variant, EarlyChange=1 — the
    default; a /DecodeParms override is not emitted by any mainstream
    producer for content streams). Codes start at 9 bits; 256 clears the
    table, 257 is EOD; the code width grows when the table length reaches
    511/1023/2047 (one entry EARLY, matching encoders that bump the width
    one code before the table is actually full)."""
    out = bytearray()
    table: List[bytes] = []
    prev = b""
    width = 9
    bitbuf = 0
    bitcnt = 0

    def _reset() -> List[bytes]:
        return [bytes([c]) for c in range(256)] + [b"", b""]

    table = _reset()
    for byte in data:
        bitbuf = (bitbuf << 8) | byte
        bitcnt += 8
        while bitcnt >= width:
            code = (bitbuf >> (bitcnt - width)) & ((1 << width) - 1)
            bitcnt -= width
            if code == 256:
                table = _reset()
                width = 9
                prev = b""
                continue
            if code == 257:
                return bytes(out)
            if not prev:
                if code >= len(table):
                    raise PdfParseError("LZWDecode: literal code out of range")
                entry = table[code]
            else:
                if code < len(table):
                    entry = table[code]
                    table.append(prev + entry[:1])
                elif code == len(table):
                    entry = prev + prev[:1]
                    table.append(entry)
                else:
                    raise PdfParseError("LZWDecode: code out of range")
                n = len(table)
                if n == 511:
                    width = 10
                elif n == 1023:
                    width = 11
                elif n == 2047:
                    width = 12
            out += entry
            prev = entry
    # Truncated stream without an EOD marker: tolerate (real-world PDFs
    # sometimes omit it); everything decoded so far is valid output.
    return bytes(out)


def _run_length_decode(data: bytes) -> bytes:
    """RunLengthDecode (PDF 1.7 §7.4.5): length byte L then either L+1
    literal bytes (L < 128) or one byte repeated 257-L times (L > 128);
    L == 128 is EOD."""
    out = bytearray()
    i = 0
    n = len(data)
    while i < n:
        l = data[i]
        if l == 128:
            return bytes(out)
        if l < 128:
            end = i + 1 + l + 1
            if end > n:
                raise PdfParseError("RunLengthDecode: truncated literal run")
            out += data[i + 1:end]
            i = end
        else:
            if i + 1 >= n:
                raise PdfParseError("RunLengthDecode: truncated repeat run")
            out += bytes([data[i + 1]]) * (257 - l)
            i += 2
    raise PdfParseError("RunLengthDecode: missing EOD")


def _decode_parms(d: Dict[str, Any]) -> List[Optional[dict]]:
    """The stream's /DecodeParms (or legacy /DP): a dict, an array of
    dict/null aligned with the /Filter array, or absent. Returns one entry
    per position (None = no parms). An indirect value anywhere in the parms
    is out of subset -> PdfParseError (counted failure, never
    silently-wrong bytes)."""
    parms = d.get("DecodeParms", d.get("DP"))
    out: List[Optional[dict]] = []
    for p in parms if isinstance(parms, list) else [parms]:
        if p is None:
            out.append(None)
        elif not isinstance(p, dict):
            raise PdfParseError("unsupported /DecodeParms value")
        elif _holds_ref(p):
            raise PdfParseError("indirect value inside /DecodeParms")
        else:
            out.append({
                "predictor": _int(p, "Predictor", 1),
                "columns": _int(p, "Columns", 1),
                "colors": _int(p, "Colors", 1),
                "bpc": _int(p, "BitsPerComponent", 8),
            })
    return out


def _holds_ref(v: Any) -> bool:
    """Whether a value is or holds an indirect reference."""
    if isinstance(v, _Ref):
        return True
    if isinstance(v, dict):
        v = list(v.values())
    return isinstance(v, list) and any(_holds_ref(x) for x in v)


def _apply_predictor(data: bytes, parms: dict) -> bytes:
    """Undo a /Predictor post-filter (ISO 32000-1 §7.4.4.4): 2 = TIFF
    horizontal differencing; 10-15 = PNG row filters (RFC 2083 §6) with a
    per-row filter-type byte, undone by the PNG codec's
    ``unfilter_png_rows``. Row geometry from Columns/Colors/BPC."""
    pred = parms["predictor"]
    if pred <= 1:
        return data
    colors, bpc, columns = parms["colors"], parms["bpc"], parms["columns"]
    bpp = max(1, (colors * bpc + 7) // 8)
    rowlen = (columns * colors * bpc + 7) // 8
    if rowlen <= 0:
        raise PdfParseError("predictor with non-positive row length")
    if pred == 2:
        if bpc != 8:
            raise PdfParseError("TIFF predictor supported only at 8 bpc")
        out = bytearray(data)
        for r in range(0, len(out) - rowlen + 1, rowlen):
            for j in range(bpp, rowlen):
                out[r + j] = (out[r + j] + out[r + j - bpp]) & 0xFF
        return bytes(out)
    if pred < 10 or pred > 15:
        raise PdfParseError(f"unsupported /Predictor {pred}")
    try:
        return unfilter_png_rows(data, rowlen, bpp)
    except ValueError as e:
        raise PdfParseError(str(e)) from e


def _decode_stream(
    obj: "_PdfObject", file_key: Optional[bytes] = None, cfm: str = "V2"
) -> bytes:
    """Apply the object's /Filter chain (in array order) to its stream.

    Supported: FlateDecode (stdlib zlib), LZWDecode, RunLengthDecode,
    ASCIIHexDecode, ASCII85Decode, and chains thereof. Any other filter
    raises PdfParseError, which the document dispatcher turns into a
    counted parse-failure row.

    Decryption (``file_key`` set) is OUTERMOST: stored bytes are
    crypt(filtered(content)), so decrypt first, then defilter (ISO 32000-1
    §7.6.2 — see functions/pdf_crypt.py). ``cfm`` selects the crypt
    filter: "V2" (RC4, /V 1-2 and /V 4 /CFM V2), "AESV2" (/V 4) or
    "AESV3" (/V 5, AES-256 with the file key directly).
    """
    raw = obj.stream
    if file_key is not None:
        try:
            if cfm == "AESV3":
                raw = decrypt_object_bytes_aes256(file_key, raw)
            elif cfm == "AESV2":
                raw = decrypt_object_bytes_aes(file_key, obj.num, obj.gen, raw)
            else:
                raw = crypt_object_bytes(file_key, obj.num, obj.gen, raw)
        except ValueError as e:
            raise PdfParseError(f"{cfm} stream: {e}")
    spec = obj.dict.get("Filter")
    if isinstance(spec, _Ref):
        # An indirect /Filter reference means SOME filter applies but we
        # can't resolve which in this subset — fail the page (counted)
        # rather than feed still-encoded bytes to the tokenizer.
        raise PdfParseError("indirect /Filter reference unsupported")
    if isinstance(spec, str):
        spec = [spec]
    elif not isinstance(spec, list):
        return raw
    names = [f for f in spec if isinstance(f, str)]
    if any(isinstance(f, _Ref) for f in spec) or (spec and not names):
        # Same guarantee for arrays: '[ 5 0 R ]' holds a reference and no
        # filter name, and skipping it would return the still-encoded
        # bytes. An EMPTY array ('/Filter []') legally means "no filters".
        raise PdfParseError("unresolvable /Filter array")
    parms_list = _decode_parms(obj.dict)
    for idx, name in enumerate(names):
        parms = parms_list[idx] if idx < len(parms_list) else None
        if name == "FlateDecode":
            try:
                raw = zlib.decompress(raw)
            except zlib.error as e:
                raise PdfParseError(f"FlateDecode failed: {e}") from e
        elif name == "ASCIIHexDecode":
            raw = _ascii_hex_decode(raw)
        elif name == "LZWDecode":
            raw = _lzw_decode(raw)
        elif name == "RunLengthDecode":
            raw = _run_length_decode(raw)
        elif name == "ASCII85Decode":
            raw = _ascii85_decode(raw)
        else:
            raise PdfParseError(f"unsupported stream filter /{name}")
        # /Predictor post-pass applies to the Flate/LZW stages (§7.4.4.4)
        if parms is not None and name in ("FlateDecode", "LZWDecode"):
            raw = _apply_predictor(raw, parms)
    return raw


def _expand_object_streams(
    objects: Dict[int, _PdfObject],
    file_key: Optional[bytes] = None,
    cfm: str = "V2",
) -> None:
    """Unpack PDF 1.5+ object streams (/Type /ObjStm, ISO 32000-1 §7.5.7)
    into the object map, in place.

    Object-stream PDFs keep most non-stream objects (catalog, page tree,
    fonts) compressed INSIDE a stream, so the raw-file scan in
    ``_scan_objects`` cannot see them — this pass decodes each ObjStm and
    parses its ``/N`` header pairs (objnum, offset-from-/First). Contained
    objects never carry streams (§7.5.7 forbids it), so each body is either
    a dictionary, read into ``_PdfObject.dict`` as in the scan, or a bare
    value, which no consumer reads (an empty dict). First definition wins:
    a classic-layout object shadows an ObjStm twin.

    In encrypted documents the ObjStm stream itself is encrypted (strings
    inside it are NOT re-encrypted — the whole stream was), so callers pass
    the armed ``file_key``; PdfDocument defers this pass until the key
    exists. Malformed ObjStm contents raise PdfParseError -> counted
    parse-failure row, never junk objects.
    """
    for num in sorted(objects):
        obj = objects[num]
        if obj.dict.get("Type") != "ObjStm" or obj.stream is None:
            continue
        data = _decode_stream(obj, file_key, cfm)
        n_objs = _int(obj.dict, "N")
        first = _int(obj.dict, "First")
        if n_objs is None or first is None or n_objs < 0 or first < 0:
            raise PdfParseError("ObjStm without direct /N and /First")
        if first > len(data):
            raise PdfParseError("ObjStm /First beyond stream end")
        header = data[:first].split()
        if len(header) < 2 * n_objs:
            raise PdfParseError("ObjStm header truncated")
        try:
            pairs = [
                (int(header[2 * i]), int(header[2 * i + 1])) for i in range(n_objs)
            ]
        except ValueError as e:
            raise PdfParseError(f"ObjStm header not integer pairs: {e}") from e
        for i, (inner_num, off) in enumerate(pairs):
            start = first + off
            end = first + pairs[i + 1][1] if i + 1 < n_objs else len(data)
            if start > len(data) or end > len(data) or start > end:
                raise PdfParseError("ObjStm offset out of range")
            body = data[start:end].strip()
            if inner_num in objects:
                continue
            d = _read_dict(body, 0)[0] if body.startswith(b"<<") else {}
            objects[inner_num] = _PdfObject(inner_num, d, None, 0)


# ---------------------------------------------------------------------------
# Simple-font /Encoding /Differences: glyph-name remapping (ISO 32000-1
# §9.6.6.3). Real generators (TeX, old Office exports) remap byte codes to
# named glyphs; without the table, accented text decodes as the wrong
# latin-1 byte. Glyph name -> char resolution: the uniXXXX convention
# first (covers everything), then an Adobe-Glyph-List subset of the names
# the Latin corpus actually uses.
# ---------------------------------------------------------------------------

_AGL_SUBSET = {
    # ASCII names that differ from the character itself
    "space": " ", "exclam": "!", "quotedbl": '"', "numbersign": "#",
    "dollar": "$", "percent": "%", "ampersand": "&", "quotesingle": "'",
    "parenleft": "(", "parenright": ")", "asterisk": "*", "plus": "+",
    "comma": ",", "hyphen": "-", "period": ".", "slash": "/",
    "zero": "0", "one": "1", "two": "2", "three": "3", "four": "4",
    "five": "5", "six": "6", "seven": "7", "eight": "8", "nine": "9",
    "colon": ":", "semicolon": ";", "less": "<", "equal": "=",
    "greater": ">", "question": "?", "at": "@", "bracketleft": "[",
    "backslash": "\\", "bracketright": "]", "asciicircum": "^",
    "underscore": "_", "grave": "`", "braceleft": "{", "bar": "|",
    "braceright": "}", "asciitilde": "~",
    # Latin-1 supplement + common typography
    "exclamdown": "¡", "cent": "¢", "sterling": "£", "yen": "¥",
    "section": "§", "copyright": "©", "registered": "®", "degree": "°",
    "plusminus": "±", "paragraph": "¶", "questiondown": "¿",
    "multiply": "×", "divide": "÷", "germandbls": "ß",
    "Agrave": "À", "Aacute": "Á", "Acircumflex": "Â", "Atilde": "Ã",
    "Adieresis": "Ä", "Aring": "Å", "AE": "Æ", "Ccedilla": "Ç",
    "Egrave": "È", "Eacute": "É", "Ecircumflex": "Ê", "Edieresis": "Ë",
    "Igrave": "Ì", "Iacute": "Í", "Icircumflex": "Î", "Idieresis": "Ï",
    "Ntilde": "Ñ", "Ograve": "Ò", "Oacute": "Ó", "Ocircumflex": "Ô",
    "Otilde": "Õ", "Odieresis": "Ö", "Oslash": "Ø", "Ugrave": "Ù",
    "Uacute": "Ú", "Ucircumflex": "Û", "Udieresis": "Ü", "Yacute": "Ý",
    "agrave": "à", "aacute": "á", "acircumflex": "â", "atilde": "ã",
    "adieresis": "ä", "aring": "å", "ae": "æ", "ccedilla": "ç",
    "egrave": "è", "eacute": "é", "ecircumflex": "ê", "edieresis": "ë",
    "igrave": "ì", "iacute": "í", "icircumflex": "î", "idieresis": "ï",
    "ntilde": "ñ", "ograve": "ò", "oacute": "ó", "ocircumflex": "ô",
    "otilde": "õ", "odieresis": "ö", "oslash": "ø", "ugrave": "ù",
    "uacute": "ú", "ucircumflex": "û", "udieresis": "ü", "yacute": "ý",
    "ydieresis": "ÿ", "OE": "Œ", "oe": "œ", "Scaron": "Š", "scaron": "š",
    "Zcaron": "Ž", "zcaron": "ž", "florin": "ƒ",
    "bullet": "•", "dagger": "†", "daggerdbl": "‡", "ellipsis": "…",
    "emdash": "—", "endash": "–", "quoteleft": "‘",
    "quoteright": "’", "quotedblleft": "“",
    "quotedblright": "”", "quotesinglbase": "‚", "quotedblbase": "„",
    "guilsinglleft": "‹", "guilsinglright": "›", "guillemotleft": "«",
    "guillemotright": "»", "fi": "ﬁ", "fl": "ﬂ", "fraction": "⁄",
    "perthousand": "‰", "trademark": "™", "Euro": "€", "minus": "−",
}


def _glyph_to_char(name: str) -> Optional[str]:
    """Glyph name -> character: single ASCII letters map to themselves,
    ``uniXXXX``/``uXXXX[XX]`` parse directly, the rest via the AGL subset.
    Unknown names return None (the byte keeps its latin-1 default)."""
    if len(name) == 1:
        return name
    if name.startswith("uni") and len(name) == 7:
        try:
            return chr(int(name[3:], 16))
        except ValueError:
            return None
    if name.startswith("u") and len(name) in (5, 7):
        try:
            return chr(int(name[1:], 16))
        except ValueError:
            return None
    return _AGL_SUBSET.get(name)


def _base_encoding_table(name: Any) -> Dict[int, str]:
    """Byte->char overrides for a named base encoding. latin-1 is the
    decode default, so only the bytes where the named encoding DIFFERS
    need entries: WinAnsi (cp1252) and MacRoman repopulate 0x80-0x9F
    (and beyond, for MacRoman) where latin-1 has control characters —
    curly quotes, the euro sign, em dashes, trademark."""
    codec = {"WinAnsiEncoding": "cp1252", "MacRomanEncoding": "mac_roman"}.get(
        name if isinstance(name, str) else ""
    )
    if codec is None:
        return {}
    table: Dict[int, str] = {}
    for b in range(0x80, 0x100):
        try:
            ch = bytes([b]).decode(codec)
        except UnicodeDecodeError:
            continue  # undefined code point keeps the latin-1 default
        if ch != chr(b):
            table[b] = ch
    return table


def _parse_differences(diffs: Any) -> Dict[int, str]:
    """Read a ``/Differences [ code /name /name code /name ... ]`` array
    into a byte -> char override table (ISO 32000-1 Table 114 semantics:
    an integer sets the next code, each name assigns then increments)."""
    table: Dict[int, str] = {}
    code = 0
    for item in diffs if isinstance(diffs, list) else ():
        if type(item) is int:
            code = item
        elif isinstance(item, str):
            ch = _glyph_to_char(item)
            if ch is not None and 0 <= code <= 255:
                table[code] = ch
            code += 1
    return table


# ---------------------------------------------------------------------------
# Composite (Type0/CID) fonts: /ToUnicode CMap -> cid -> text mapping
# ---------------------------------------------------------------------------

_BFCHAR_RE = re.compile(rb"beginbfchar(.*?)endbfchar", re.S)
_BFRANGE_RE = re.compile(rb"beginbfrange(.*?)endbfrange", re.S)
_TOUNICODE_CAP = 1 << 16  # one code space; caps degenerate bfranges


def _cmap_tokens(body: bytes) -> List[Any]:
    """The strings (bytes) and array brackets (``"["``, ``"]"``) of one
    CMap section's body, read by ``_tokenize``; other tokens and empty
    strings are dropped. An unterminated string or dict ends the body,
    keeping the tokens before it."""
    toks: List[Any] = []
    try:
        for kind, val in _tokenize(body):
            if kind == "str" and val:
                toks.append(val)
            elif kind in ("[", "]"):
                toks.append(kind)
    except PdfParseError:
        pass
    return toks


def _dst_plus(dst: bytes, k: int) -> str:
    """bfrange increment rule (Adobe CMap spec): the LAST 16-bit code unit
    of the destination is incremented; earlier units stay fixed."""
    if len(dst) < 2:
        dst = b"\x00" + dst
    base = int.from_bytes(dst[-2:], "big")
    dst = dst[:-2] + ((base + k) & 0xFFFF).to_bytes(2, "big")
    return dst.decode("utf-16-be", "replace")


def _parse_tounicode(data: bytes) -> Dict[int, str]:
    """Parse a /ToUnicode CMap stream (Adobe CMap syntax, the subset every
    generator emits): ``beginbfchar`` pairs and ``beginbfrange`` triples,
    including the array-destination form. Source codes are big-endian ints
    of any byte width (Identity-H uses 2); destinations are UTF-16BE."""
    out: Dict[int, str] = {}
    for m in _BFCHAR_RE.finditer(data):
        toks = [t for t in _cmap_tokens(m.group(1)) if type(t) is bytes]
        for i in range(0, len(toks) - 1, 2):
            out[int.from_bytes(toks[i], "big")] = toks[i + 1].decode("utf-16-be", "replace")
    for m in _BFRANGE_RE.finditer(data):
        toks = _cmap_tokens(m.group(1))
        i = 0
        while i + 2 < len(toks):
            lo, hi, dst = toks[i : i + 3]
            if type(lo) is not bytes or type(hi) is not bytes:
                i += 1
                continue
            lo = int.from_bytes(lo, "big")
            hi = min(int.from_bytes(hi, "big"), lo + _TOUNICODE_CAP)
            i += 3
            if dst == "[":  # explicit destination per code
                for code in range(lo, hi + 1):
                    if i >= len(toks) or toks[i] == "]":
                        break
                    if type(toks[i]) is bytes:
                        out[code] = toks[i].decode("utf-16-be", "replace")
                    i += 1
                while i < len(toks) and toks[i] != "]":
                    i += 1
                i += 1  # skip ']'
            else:  # a ']' here reads as an empty destination
                for k in range(hi - lo + 1):
                    out[lo + k] = _dst_plus(dst if dst != "]" else b"", k)
    return out


def _resolve_dict(
    objects: Dict[int, _PdfObject], container: Optional[Dict[str, Any]], key: str
) -> Optional[Dict[str, Any]]:
    """The dict that ``key`` names in ``container``: written in place or
    the dict of the ``N 0 R`` target. None when the container or the key
    is absent, the reference dangles or the value is neither."""
    v = container.get(key) if container is not None else None
    if isinstance(v, _Ref):
        ref = objects.get(v.num)
        return ref.dict if ref is not None else None
    return v if isinstance(v, dict) else None


def _doc_off_ocgs(
    objects: Dict[int, _PdfObject], root_num: Optional[int]
) -> set:
    """Object numbers of optional-content groups switched OFF in the
    default configuration (ISO 32000-1 §8.11.4.3: catalog /OCProperties
    -> /D -> /OFF array). Empty set when the document has no optional
    content."""
    if root_num is None:
        return set()
    root = objects.get(root_num)
    if root is None:
        return set()
    ocp = _resolve_dict(objects, root.dict, "OCProperties")
    cfg = _resolve_dict(objects, ocp, "D")
    off = cfg.get("OFF") if cfg is not None else None
    if not isinstance(off, list):
        return set()
    return {r.num for r in off if isinstance(r, _Ref)}


def _resource_entries(
    objects: Dict[int, _PdfObject], resources: Optional[Dict[str, Any]], category: str
) -> List[Tuple[str, int]]:
    """``(name, object number)`` of each reference in the page's
    ``category`` dict (``"Font"``, ``"XObject"`` or ``"Properties"``; ISO
    32000-1 §7.8.3), in dict order. Empty when the page has no resources or
    no such dict, or the dict reference dangles."""
    entries = _resolve_dict(objects, resources, category)
    if entries is None:
        return []
    return [(name, v.num) for name, v in entries.items() if isinstance(v, _Ref)]


@dataclass
class _PageResources:
    """What a page's content stream needs from its /Resources, keyed by
    resource name (the operand of ``Tf``, ``Do`` or ``/OC /name BDC``).

    - ``cid_fonts``: a cid->text table per Type0 font, from its /ToUnicode
      CMap. A Type0 font without one maps to an empty table, so each code
      decodes to U+FFFD (documented subset boundary: the reference's fitz
      reads the embedded font program instead).
    - ``simple_encodings``: a byte->char override table per simple font
      whose /Encoding (inline or indirect) names WinAnsi or MacRoman or
      carries /Differences. Other fonts and bytes keep latin-1.
    - ``forms``: decoded content per /Form XObject (PDF 1.7 §8.10: headers,
      footers and letterheads invoked by ``Do``). Subset boundary: the
      form's own /Resources and /Matrix are ignored, so forms use the
      page's fonts and page coordinates, as the synth fixtures emit them.
    - ``images``: ``{width, height, gray}`` per /Image XObject (§8.9.5),
      the scanned-page path the OCR fallback rasterizes. ``gray`` holds
      row-major pixels for 8-bit /DeviceGray and is None otherwise: the
      rasterizer then draws a flat box and OCR sees no glyphs.
    - ``hidden_ocs``: /Properties names bound to an optional-content group
      that is OFF.
    """

    cid_fonts: Dict[str, Dict[int, str]] = field(default_factory=dict)
    simple_encodings: Dict[str, Dict[int, str]] = field(default_factory=dict)
    forms: Dict[str, bytes] = field(default_factory=dict)
    images: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    hidden_ocs: set = field(default_factory=set)


def _page_resources(
    objects: Dict[int, _PdfObject],
    resources: Optional[Dict[str, Any]],
    file_key: Optional[bytes],
    cfm: str,
    off_ocgs: set,
) -> _PageResources:
    """Resolve a page's resources in one walk per category, reading each
    font's and each XObject's /Subtype once."""
    res = _PageResources()
    for name, num in _resource_entries(objects, resources, "Font"):
        fobj = objects.get(num)
        if fobj is None:
            continue
        font = fobj.dict
        if font.get("Subtype") == "Type0":
            cmap: Dict[int, str] = {}
            tu = font.get("ToUnicode")
            cobj = objects.get(tu.num) if isinstance(tu, _Ref) else None
            if cobj is not None and cobj.stream is not None:
                try:
                    cmap = _parse_tounicode(_decode_stream(cobj, file_key, cfm))
                except PdfParseError:
                    pass
            res.cid_fonts[name] = cmap
            continue
        # A simple font; one without /Subtype counts as one too.
        enc = font.get("Encoding")
        if isinstance(enc, _Ref):
            eobj = objects.get(enc.num)
            if eobj is None:
                continue  # dangling encoding ref: the font keeps latin-1
            enc = eobj.dict
        if isinstance(enc, dict):
            table = _base_encoding_table(enc.get("BaseEncoding"))
            table.update(_parse_differences(enc.get("Differences")))
        else:
            table = _base_encoding_table(enc)
        if table:
            res.simple_encodings[name] = table

    for name, num in _resource_entries(objects, resources, "XObject"):
        xobj = objects.get(num)
        if xobj is None or xobj.stream is None:
            continue
        subtype = xobj.dict.get("Subtype")
        if subtype == "Form":
            try:
                res.forms[name] = _decode_stream(xobj, file_key, cfm)
            except PdfParseError:
                pass
        elif subtype == "Image":
            width, height = _int(xobj.dict, "Width"), _int(xobj.dict, "Height")
            if width is None or height is None or width < 0 or height < 0:
                continue
            gray: Optional[bytes] = None
            if (_int(xobj.dict, "BitsPerComponent") == 8
                    and xobj.dict.get("ColorSpace") == "DeviceGray"):
                try:
                    data = _decode_stream(xobj, file_key, cfm)
                    if len(data) >= width * height:
                        gray = data[: width * height]
                except PdfParseError:
                    gray = None
            res.images[name] = {"width": width, "height": height, "gray": gray}

    if off_ocgs:
        # The OFF set holds reference numbers: the group object is not read.
        res.hidden_ocs = {
            name for name, num in _resource_entries(objects, resources, "Properties")
            if num in off_ocgs
        }
    return res


def _trailer_dict(data: bytes) -> Optional[Dict[str, Any]]:
    """The dict after the last ``trailer`` keyword; None when the file has
    no keyword (cross-reference-stream files) or no dict follows it."""
    at = data.rfind(b"trailer")
    if at < 0:
        return None
    i = _skip_ws(data, at + 7)
    if data[i : i + 2] != b"<<":
        return None
    return _read_dict(data, i)[0]


def _page_order(objects: Dict[int, _PdfObject], root_num: int) -> List[tuple]:
    """Walk Catalog -> Pages -> Kids recursively, yielding
    ``(page_num, rotate, mediabox | None, resources dict | None)`` in
    document order.

    /Rotate, /MediaBox and /Resources are INHERITABLE page attributes (PDF
    1.7 §7.7.3.4): a value on an interior Pages node applies to every leaf
    beneath it unless the leaf overrides it, so the walk threads the
    current values down."""
    root = objects.get(root_num)
    if root is None:
        raise PdfParseError("dangling Root reference")
    top = root.dict.get("Pages")
    if not isinstance(top, _Ref):
        raise PdfParseError("catalog without Pages")

    pages: List[tuple] = []

    def walk(num: int, depth: int = 0, rotate: int = 0, box=None, res=None) -> None:
        if depth > 64:
            raise PdfParseError("page tree too deep")
        obj = objects.get(num)
        if obj is None:
            raise PdfParseError(f"dangling page-tree reference {num}")
        d = obj.dict
        rot = _int(d, "Rotate")
        if rot is not None:
            rotate = rot % 360
        mb = d.get("MediaBox")
        if (isinstance(mb, list) and len(mb) == 4
                and all(type(x) in (int, float) for x in mb)):
            box = tuple(float(x) for x in mb)
        own = _resolve_dict(objects, d, "Resources")
        res = own if own is not None else res
        if d.get("Type") == "Page":
            pages.append((num, rotate, box, res))
            return
        kids = d.get("Kids")
        if not isinstance(kids, list):
            raise PdfParseError("Pages node without Kids")
        for kid in kids:
            if isinstance(kid, _Ref):
                walk(kid.num, depth + 1, rotate, box, res)

    walk(top.num)
    if not pages:
        raise PdfParseError("empty page tree")
    return pages


# --------------------------------------------------------------------------
# Content-stream tokenizer + text-operator interpreter
# --------------------------------------------------------------------------

_NUM_TOKEN_RE = re.compile(rb"[+-]?(?:\d+\.?\d*|\.\d+)")
# an operator is at most three letters; the dict keywords are longer
_OP_TOKEN_RE = re.compile(rb"true|false|null|[A-Za-z'\"*]{1,3}")
_NAME_RE = re.compile(rb"/[^\s()<>\[\]/%]*")
# a comment runs to its line's end: CR, LF or CRLF (ISO 32000-1 §7.2.3)
_COMMENT_RE = re.compile(rb"%[^\r\n]*")
# A hex string inside a dict must be well formed. A stray '<' matches
# nothing and is skipped as one byte, so it cannot swallow the '>>'.
_HEX_STRING_RE = re.compile(rb"<[0-9A-Fa-f\s]*>")
# binary payload terminator: whitespace + EI + token boundary (§8.9.7)
_INLINE_EI_RE = re.compile(rb"[\s\x00]EI(?![0-9A-Za-z])")


_ESCAPES = {
    0x6E: b"\n",  # n
    0x72: b"\r",  # r
    0x74: b"\t",  # t
    0x62: b"\x08",  # b
    0x66: b"\x0c",  # f
    0x28: b"(",
    0x29: b")",
    0x5C: b"\\",
}


def _read_literal_string(data: bytes, i: int) -> Tuple[bytes, int]:
    """Read a ``(...)`` string starting at '('; returns (decoded bytes, next index)."""
    # Fast path: no escape and no nesting before the first ')' — the string
    # is exactly the raw slice (the overwhelmingly common case).
    end = data.find(b")", i + 1)
    if end >= 0:
        seg = data[i + 1 : end]
        if b"\\" not in seg and b"(" not in seg:
            return seg, end + 1
    out = bytearray()
    depth = 1
    j = i + 1
    n = len(data)
    while j < n:
        c = data[j]
        if c == 0x5C:  # backslash
            if j + 1 >= n:
                break
            e = data[j + 1]
            if e in _ESCAPES:
                out += _ESCAPES[e]
                j += 2
            elif 0x30 <= e <= 0x37:  # octal \ddd (1-3 digits)
                k = j + 1
                oct_digits = bytearray()
                while k < n and len(oct_digits) < 3 and 0x30 <= data[k] <= 0x37:
                    oct_digits.append(data[k])
                    k += 1
                out.append(int(oct_digits.decode(), 8) & 0xFF)
                j = k
            elif e in (0x0A, 0x0D):  # line continuation
                j += 2
                if e == 0x0D and j < n and data[j] == 0x0A:
                    j += 1
            else:
                out.append(e)
                j += 2
            continue
        if c == 0x28:
            depth += 1
            out.append(c)
        elif c == 0x29:
            depth -= 1
            if depth == 0:
                return bytes(out), j + 1
            out.append(c)
        else:
            out.append(c)
        j += 1
    raise PdfParseError("unterminated string")


def _read_hex_string(data: bytes, i: int) -> Tuple[bytes, int]:
    end = data.find(b">", i)
    if end < 0:
        raise PdfParseError("unterminated hex string")
    # §7.3.4.3 ignores whitespace; real viewers also skip any other
    # non-hex byte (fuzzed/corrupt streams) rather than failing the page.
    hex_digits = re.sub(rb"[^0-9A-Fa-f]", b"", data[i + 1 : end])
    if len(hex_digits) % 2:
        hex_digits += b"0"
    return bytes.fromhex(hex_digits.decode("ascii")), end + 1


def _tokenize(data: bytes, i: int = 0, depth: int = 0):
    """Yield ('num', float) | ('str', bytes) | ('name', bytes) | ('dict',
    dict) | ('op', bytes) | ('[', None) | (']', None) tokens from
    ``data[i:]``. A ``<<`` is read whole by ``_read_dict``, one level
    deeper, and yielded as its value.

    Inside a dict (``depth`` > 0) the tokens run to the dict's ``>>``,
    yielded as ('>>', index after it); the end of the data before it raises
    PdfParseError. A hex string runs to the next ``>``, and its bytes that
    are not hex digits are dropped; inside a dict, a ``<`` whose string is
    not well formed and would end on the first ``>`` of a ``>>`` (or on
    none) is a stray byte and skipped, so the dict's ``>>`` still ends it.

    An inline image (ISO 32000-1 §8.9.7: ``BI <params> ID <binary> EI``)
    yields nothing. After ``BI`` the same branches read its parameters
    without yielding, so an ``ID`` inside a string, name or ``%`` comment
    cannot end them early; ``ID`` then skips the binary payload to the
    first whitespace-delimited ``EI``. Image bytes that happen to spell
    text operators (``(..) Tj``, ``BT``) thus never inject junk spans."""
    n = len(data)
    image = False  # inside an inline image's parameters
    while i < n:
        c = data[i : i + 1]
        if c in _WS_BYTES:
            i += 1
        elif c == b"(":
            s, i = _read_literal_string(data, i)
            if not image:
                yield ("str", s)
        elif c == b"<":
            if data[i : i + 2] == b"<<":
                d, i = _read_dict(data, i, depth + 1)
                if not image:
                    yield ("dict", d)
            elif depth and _HEX_STRING_RE.match(data, i) is None and (
                    data.find(b">", i) in (-1, data.find(b">>", i))):
                # Its first ``>`` is none or starts a ``>>``: a stray byte.
                i += 1
            else:
                s, i = _read_hex_string(data, i)
                if not image:
                    yield ("str", s)
        elif c == b"[":
            if not image:
                yield ("[", None)
            i += 1
        elif c == b"]":
            if not image:
                yield ("]", None)
            i += 1
        elif c == b"/":
            m = _NAME_RE.match(data, i)
            if not image:
                yield ("name", m.group(0))
            i = m.end()
        elif c == b"%":
            i = _COMMENT_RE.match(data, i).end()
        else:
            m = _NUM_TOKEN_RE.match(data, i)
            if m and m.end() > i:
                if not image:
                    yield ("num", float(m.group(0)))
                i = m.end()
                continue
            m = _OP_TOKEN_RE.match(data, i)
            if m is None:
                if depth and data[i : i + 2] == b">>":
                    yield (">>", i + 2)
                    return
                i += 1  # unknown byte — skip (tolerant)
                continue
            op = m.group(0)
            i = m.end()
            if not image:
                if op == b"BI" and not depth:
                    image = True
                else:
                    yield ("op", op)
            elif op == b"ID":
                if i < n and data[i : i + 1] in _WS_BYTES:
                    i += 1  # exactly one whitespace byte precedes the data
                e = _INLINE_EI_RE.search(data, i)
                i = e.end() if e else n
                image = False
    if depth:
        raise PdfParseError("unterminated dictionary")


@dataclass
class Span:
    """One emitted text run at a device position (y in PDF bottom-up coords)."""

    text: str
    x: float
    y: float
    size: float
    font: str
    mcid: Optional[int] = None  # innermost marked-content id (§14.6), for
                                # the logical-structure walk; None untagged

    @property
    def end(self) -> float:
        """The x where the span's text ends, by the approximate glyph
        advance (bboxes only, never text bytes)."""
        return self.x + GLYPH_WIDTH_FACTOR * self.size * len(self.text)


_MAX_FORM_DEPTH = 8  # Do-recursion bound (cyclic form refs must not hang)


def _interpret_text(
    content: bytes,
    res: Optional[_PageResources] = None,
    image_out: Optional[List[Dict[str, Any]]] = None,
    _depth: int = 0,
) -> List[Span]:
    """Execute the text operators of a content stream, emitting spans.

    Implements ``BT ET Tf Td TD Tm T* TL Tj TJ ' "``. Graphics-state
    operators outside text objects are ignored. TJ numbers adjust x by
    ``-n/1000 * size`` (the PDF kerning rule); strings advance x by an
    approximate glyph width (affects bboxes only, not text bytes).

    ``res`` holds the page's resolved resources (none when omitted).
    While a composite (Type0/Identity-H) font is selected, string bytes
    are 2-byte big-endian CIDs decoded through its cid->text table
    (unmapped cid -> U+FFFD); other fonts keep the single-byte latin-1
    path, through their byte->char override table if they have one.
    ``Do`` interprets a Form in place and appends an Image's placement to
    ``image_out``; text and images inside an OFF optional-content mark
    are dropped.
    """
    if res is None:
        res = _PageResources()
    spans: List[Span] = []
    stack: List[Any] = []
    in_array: Optional[List[Any]] = None
    # marked-content nesting (§14.6): one (hidden, mcid) per open BMC/BDC
    # scope; any hidden=True (an OFF optional-content /OC mark) suppresses
    # span output, and the innermost non-None mcid tags emitted spans for
    # the logical-structure (tagged-PDF) walk
    mc_stack: List[Tuple[bool, Optional[int]]] = []

    # Text state (only the translation components of the matrices matter for
    # the subset: no rotation/skew in fixtures; scale from Tm a/d applied to x/y).
    lx = ly = 0.0  # line matrix origin
    cx = cy = 0.0  # current point
    leading = 0.0
    size = 12.0
    font = "F1"
    in_text = False

    # Graphics state for image placement (§8.9.5: an image XObject draws
    # the unit square through the CTM): full 6-tuple affine so q/Q/cm
    # compose correctly even with rotation/shear in the wild.
    ctm = (1.0, 0.0, 0.0, 1.0, 0.0, 0.0)
    gstack: List[tuple] = []

    def emit(raw: bytes) -> None:
        nonlocal cx
        if not raw or any(h for h, _ in mc_stack):
            return
        cmap = res.cid_fonts.get(font)
        if cmap is not None:
            text = "".join(
                cmap.get(int.from_bytes(raw[i : i + 2], "big"), "�")
                for i in range(0, len(raw) - 1, 2)
            )
        else:
            diff = res.simple_encodings.get(font)
            if diff is not None:
                text = "".join(
                    diff.get(b, chr(b)) for b in raw
                )
            else:
                text = raw.decode("latin-1")
        if not text:
            return
        mcid = next(
            (m for _, m in reversed(mc_stack) if m is not None), None
        )
        span = Span(text=text, x=cx, y=cy, size=size, font=font, mcid=mcid)
        spans.append(span)
        cx = span.end

    def newline() -> None:
        nonlocal lx, ly, cx, cy
        ly -= leading
        cx, cy = lx, ly

    for tok in _tokenize(content):
        kind = tok[0]
        if kind == "[":
            in_array = []
            continue
        if kind == "]":
            stack.append(in_array)
            in_array = None
            continue
        if in_array is not None:
            if kind in ("num", "str"):
                in_array.append(tok[1])
            continue
        if kind in ("num", "str", "name", "dict"):
            stack.append(tok[1])
            continue

        op = tok[1]
        try:
            if op == b"BT":
                in_text = True
                lx = ly = cx = cy = 0.0
            elif op == b"ET":
                in_text = False
            elif op == b"Tf":
                size = float(stack[-1])
                fname = stack[-2]
                font = fname.decode("latin-1").lstrip("/") if isinstance(fname, bytes) else str(fname)
            elif op == b"Td":
                ty, tx = float(stack[-1]), float(stack[-2])
                lx += tx
                ly += ty
                cx, cy = lx, ly
            elif op == b"TD":
                ty, tx = float(stack[-1]), float(stack[-2])
                leading = -ty
                lx += tx
                ly += ty
                cx, cy = lx, ly
            elif op == b"Tm":
                f, e = float(stack[-1]), float(stack[-2])
                lx, ly = e, f
                cx, cy = lx, ly
            elif op == b"TL":
                leading = float(stack[-1])
            elif op == b"T*":
                newline()
            elif op == b"Tj":
                if in_text and isinstance(stack[-1], bytes):
                    emit(stack[-1])
            elif op == b"'":
                newline()
                if in_text and isinstance(stack[-1], bytes):
                    emit(stack[-1])
            elif op == b'"':
                # aw ac string "
                newline()
                if in_text and isinstance(stack[-1], bytes):
                    emit(stack[-1])
            elif op == b"TJ":
                arr = stack[-1]
                if in_text and isinstance(arr, list):
                    for el in arr:
                        if isinstance(el, bytes):
                            emit(el)
                        elif isinstance(el, float):
                            cx += -el / 1000.0 * size
            elif op == b"BMC":
                mc_stack.append((False, None))
            elif op == b"BDC":
                # /OC /name BDC hides the scope when the name resolves to
                # an OFF optional-content group; a <</MCID n>> property
                # dict tags the scope for the structure tree; any other
                # tag stays visible and untagged
                hid = False
                mcid: Optional[int] = None
                if len(stack) >= 2:
                    tag, props = stack[-2], stack[-1]
                    if (
                        isinstance(tag, bytes) and tag == b"/OC"
                        and isinstance(props, bytes)
                        and props.decode("latin-1").lstrip("/") in res.hidden_ocs
                    ):
                        hid = True
                    if isinstance(props, dict):
                        mcid = _int(props, "MCID")
                mc_stack.append((hid, mcid))
            elif op == b"EMC":
                if mc_stack:
                    mc_stack.pop()
            elif op == b"q":
                gstack.append(ctm)
            elif op == b"Q":
                if gstack:
                    ctm = gstack.pop()
            elif op == b"cm":
                a, b_, c, d, e, f = (float(v) for v in stack[-6:])
                A, B, C, D, E, F = ctm
                ctm = (
                    a * A + b_ * C,
                    a * B + b_ * D,
                    c * A + d * C,
                    c * B + d * D,
                    e * A + f * C + E,
                    e * B + f * D + F,
                )
            elif op == b"Do":
                fname = stack[-1]
                if isinstance(fname, bytes):
                    key = fname.decode("latin-1").lstrip("/")
                    img = res.images.get(key)
                    if img is not None:
                        # Image XObject: the unit square through the CTM is
                        # the placement rect (PDF-space, bottom-up).
                        if image_out is not None and not any(
                            h for h, _ in mc_stack
                        ):
                            A, B, C, D, E, F = ctm
                            xs = [E, A + E, C + E, A + C + E]
                            ys = [F, B + F, D + F, B + D + F]
                            image_out.append({
                                "bbox_pdf": (min(xs), min(ys), max(xs), max(ys)),
                                **img,
                            })
                    elif _depth < _MAX_FORM_DEPTH:
                        # Form XObject invocation: interpret the form's
                        # content stream in place (page coordinates, see
                        # _PageResources), emitting into the same list.
                        form = res.forms.get(key)
                        if form is not None and not any(h for h, _ in mc_stack):
                            spans.extend(
                                _interpret_text(form, res, image_out, _depth + 1)
                            )
        except (IndexError, ValueError, TypeError):
            # Malformed operand stack — tolerant skip (per-page failure
            # isolation happens at the caller).
            pass
        if kind == "op":
            stack.clear()

    return spans


# --------------------------------------------------------------------------
# Page assembly: spans -> lines -> columns -> blocks -> text + layout tree
# --------------------------------------------------------------------------


@dataclass
class Line:
    spans: List[Span]
    y_down: float  # top-down baseline

    @property
    def x0(self) -> float:
        return min(s.x for s in self.spans)

    @property
    def text(self) -> str:
        """Spans joined left-to-right; a space is inserted only when the
        horizontal gap between spans exceeds a quarter of the font size
        (TJ kerning adjustments produce sub-threshold gaps and must NOT
        split words)."""
        parts: List[str] = []
        prev_end: Optional[float] = None
        for s in sorted(self.spans, key=lambda s: s.x):
            if (
                parts
                and prev_end is not None
                and s.x - prev_end > 0.25 * s.size
                and not parts[-1].endswith(" ")
                and not s.text.startswith(" ")
            ):
                parts.append(" ")
            parts.append(s.text)
            prev_end = s.end
        return "".join(parts)


# A horizontal gap between same-baseline spans larger than this many font
# sizes starts a new line segment (a column gutter, not a word space).
SEGMENT_GAP_FACTOR = 2.0


def _group_lines(spans: List[Span], page_height: float) -> List[Line]:
    """Group spans into visual lines: same baseline (within tolerance), then
    split each baseline run into segments wherever the x-gap exceeds the
    gutter threshold — so two-column text yields one Line per column."""
    by_y: List[List[Span]] = []
    ys: List[float] = []
    for s in sorted(spans, key=lambda s: (-s.y, s.x)):
        y_down = page_height - s.y
        for i, ly in enumerate(ys):
            if abs(ly - y_down) <= LINE_Y_TOLERANCE:
                by_y[i].append(s)
                break
        else:
            by_y.append([s])
            ys.append(y_down)

    lines: List[Line] = []
    for group, y_down in zip(by_y, ys):
        group.sort(key=lambda s: s.x)
        seg: List[Span] = []
        prev_end: Optional[float] = None
        for s in group:
            if seg and prev_end is not None and s.x - prev_end > SEGMENT_GAP_FACTOR * s.size:
                lines.append(Line(spans=seg, y_down=y_down))
                seg = []
            seg.append(s)
            prev_end = s.end
        if seg:
            lines.append(Line(spans=seg, y_down=y_down))
    return lines


def _order_lines(lines: List[Line], page_width: float) -> List[Line]:
    """Reading order with gap-based two-column detection (left column first)."""
    if len(lines) < 4:
        return sorted(lines, key=lambda l: (l.y_down, l.x0))
    xs = sorted({round(l.x0, 1) for l in lines})
    best_gap = 0.0
    split_at = None
    for a, b in zip(xs, xs[1:]):
        if b - a > best_gap:
            best_gap = b - a
            split_at = (a + b) / 2.0
    if split_at is not None and best_gap >= COLUMN_GAP_FRACTION * page_width:
        left = [l for l in lines if l.x0 < split_at]
        right = [l for l in lines if l.x0 >= split_at]
        if len(left) >= 2 and len(right) >= 2:
            return sorted(left, key=lambda l: (l.y_down, l.x0)) + sorted(
                right, key=lambda l: (l.y_down, l.x0)
            )
    return sorted(lines, key=lambda l: (l.y_down, l.x0))


def _span_bbox(s: Span, page_height: float) -> List[float]:
    y_down = page_height - s.y
    return [
        round(s.x, 2),
        round(y_down - s.size, 2),
        round(s.end, 2),
        round(y_down, 2),
    ]


def _union_bbox(bboxes: List[List[float]]) -> List[float]:
    """The smallest bbox that holds ``bboxes``, each value one of theirs.
    Those are ``_span_bbox`` values (or unions of them), rounded already,
    and ``round(·, 2)`` leaves its own results as they are."""
    x0, y0, x1, y1 = zip(*bboxes)
    return [min(x0), min(y0), max(x1), max(y1)]


@dataclass
class PdfPage:
    text: str
    layout: Dict[str, Any]
    # Image placements (scanned-page path): top-down-bbox dicts
    # {bbox, width, height, gray} consumed by the rasterizer/OCR ladder;
    # NOT serialized into layout_json (the layout tree stays
    # reference-shaped — fitz's get_text("dict") has no image pixels).
    images: List[Dict[str, Any]] = field(default_factory=list)


def _assemble_page(
    spans: List[Span], page_width: float, page_height: float, rotation: int = 0
) -> PdfPage:
    if not spans:
        return PdfPage(
            text="",
            layout={"width": page_width, "height": page_height, "rotation": rotation, "blocks": []},
        )

    lines = _order_lines(_group_lines(spans, page_height), page_width)

    # Blocks: consecutive (reading-order) lines with a small vertical gap.
    blocks: List[List[Line]] = []
    for line in lines:
        if blocks:
            prev = blocks[-1][-1]
            mean_size = max(s.size for s in prev.spans)
            same_col_gap = line.y_down - prev.y_down
            if 0 < same_col_gap <= BLOCK_GAP_FACTOR * mean_size:
                blocks[-1].append(line)
                continue
        blocks.append([line])

    layout_blocks = []
    text_lines: List[str] = []
    for blk in blocks:
        line_infos = []
        for line in blk:
            sorted_spans = sorted(line.spans, key=lambda s: s.x)
            span_infos = [
                {
                    "text": s.text,
                    "bbox": _span_bbox(s, page_height),
                    "font": s.font,
                    "size": round(s.size, 2),
                    "flags": 0,
                }
                for s in sorted_spans
            ]
            line_infos.append(
                {"bbox": _union_bbox([si["bbox"] for si in span_infos]), "spans": span_infos}
            )
            text_lines.append(line.text)
        layout_blocks.append(
            {"bbox": _union_bbox([li["bbox"] for li in line_infos]), "lines": line_infos}
        )

    layout = {
        "width": page_width,
        "height": page_height,
        "rotation": rotation,
        "blocks": layout_blocks,
    }
    return PdfPage(text="\n".join(text_lines), layout=layout)


# --------------------------------------------------------------------------
# Stored layout: a page's layout tree without the text its page holds
# --------------------------------------------------------------------------

def layout_spans(text: str, layout: Dict[str, Any]) -> Optional[str]:
    """A PDF page's ``layout_spans``: its layout tree (``_assemble_page``)
    without the text that ``text`` (the page's stored, stripped text)
    already holds, or None where the page keeps its ``dump_layout`` JSON:
    a span whose text is not in ``text`` (the strip cut it), or a number
    that is not finite (``dump_layout`` writes ``NaN`` and ``Infinity``,
    which no float ``repr`` gives back). ``pdf_layout_json`` rebuilds the
    JSON from it byte for byte (the tests hold the two to that).

    One JSON object of per-span columns, in reading order: ``gap`` (where
    the span's text starts in ``text``, counted from the previous span's
    end) and ``len`` (its length) in place of the text; ``end``, 1 after
    the last span of a line and 2 after the last of a block, else 0, in
    place of the line and block bboxes, which are the unions of their
    spans'; ``bbox`` (four values a span), ``font``, ``size`` and
    ``flags`` as ``dump_layout`` writes them; and the page's ``width``,
    ``height`` and ``rotation``."""
    spans, ends, gaps, lens = [], [], [], []
    for block in layout["blocks"]:
        for line in block["lines"]:
            spans += line["spans"]
            ends += [0] * (len(line["spans"]) - 1) + [1]
        ends[-1] = 2
    end = 0
    for span in spans:
        at = text.find(span["text"], end)
        if at < 0:
            return None
        gaps.append(at - end)
        lens.append(len(span["text"]))
        end = at + len(span["text"])
    bbox = [v for span in spans for v in span["bbox"]]
    size = [span["size"] for span in spans]
    height, width = layout["height"], layout["width"]
    if not all(map(math.isfinite, [*bbox, *size, height, width])):
        return None
    j = ",".join
    return (
        f'{{"bbox":[{j(map(repr, bbox))}],"end":[{j(map(str, ends))}],'
        f'"flags":[{j(repr(span["flags"]) for span in spans)}],'
        f'"font":[{j(_json_str(span["font"]) for span in spans)}],'
        f'"gap":[{j(map(str, gaps))}],"height":{height!r},"len":[{j(map(str, lens))}],'
        f'"rotation":{layout["rotation"]!r},"size":[{j(map(repr, size))}],"width":{width!r}}}'
    )


def _bbox_json(bbox) -> str:
    return f"[{bbox[0]!r},{bbox[1]!r},{bbox[2]!r},{bbox[3]!r}]"


def pdf_layout_json(text: str, spans: str) -> str:
    """A page's ``layout_json`` from its stored text and its
    ``layout_spans``: ``dump_layout`` of the layout tree, written
    directly. Each span's text is its slice of ``text``; each line's bbox
    is the ``_union_bbox`` of its spans', each block's of its lines'.
    Floats are written by ``repr`` and strings by json's escaping, as
    ``json.dumps`` writes them. The part readers rebuild a PDF page's
    layout through here."""
    page = json.loads(spans)
    coords = iter(page["bbox"])
    blocks, lines, line, line_boxes, span_boxes = [], [], [], [], []
    end = 0
    for gap, n, stop, x0, y0, x1, y1, font, size, flags in zip(
            page["gap"], page["len"], page["end"], coords, coords, coords, coords,
            page["font"], page["size"], page["flags"]):
        start = end + gap
        end = start + n
        box = (x0, y0, x1, y1)
        bbox = f"[{x0!r},{y0!r},{x1!r},{y1!r}]"
        line.append(f'{{"bbox":{bbox},"flags":{flags!r},"font":{_json_str(font)},'
                    f'"size":{size!r},"text":{_json_str(text[start:end])}}}')
        span_boxes.append(box)
        if stop:
            if len(span_boxes) > 1:  # a one-span line's bbox is its span's
                box = _union_bbox(span_boxes)
                bbox = _bbox_json(box)
            lines.append(f'{{"bbox":{bbox},"spans":[{",".join(line)}]}}')
            line_boxes.append(box)
            line, span_boxes = [], []
            if stop == 2:
                blocks.append(f'{{"bbox":{_bbox_json(_union_bbox(line_boxes))},'
                              f'"lines":[{",".join(lines)}]}}')
                lines, line_boxes = [], []
    return (f'{{"blocks":[{",".join(blocks)}],"height":{page["height"]!r},'
            f'"rotation":{page["rotation"]!r},"width":{page["width"]!r}}}')


# --------------------------------------------------------------------------
# Encryption (standard security handler, /V 1-2 — see functions/pdf_crypt.py)
# --------------------------------------------------------------------------

@dataclass
class PdfEncryptInfo:
    """Parsed /Encrypt dictionary (standard handler: RC4, AESV2, AESV3)."""

    v: int
    r: int
    key_len: int  # bytes
    o_entry: bytes
    u_entry: bytes
    p: int
    id0: bytes
    cfm: str = "V2"  # "V2" (RC4), "AESV2" (/V 4) or "AESV3" (/V 5)
    ue_entry: bytes = b""  # /V 5 wrapped file key (user path)
    oe_entry: bytes = b""  # /V 5 wrapped file key (owner path)
    perms_entry: bytes = b""  # /V 5 encrypted permissions echo


def _find_encrypt_info(
    objects: Dict[int, _PdfObject], trailer: Optional[Dict[str, Any]]
) -> Optional[PdfEncryptInfo]:
    """Parse the /Encrypt dictionary that ``trailer`` names (the trailer
    dict whose /Encrypt is a reference, ``PdfDocument._trailer_entry``).
    /ID is read from that same dict.

    Returns None for unencrypted documents; raises PdfParseError for
    encryption outside the supported subset (non-Standard handler, unknown
    crypt filters) — counted failure, never junk text. Supported: /V 1-2
    (RC4), /V 4 with a /StmF crypt filter whose /CFM is V2 (RC4) or AESV2
    (AES-128-CBC) and /V 5 with AESV3 (AES-256, functions/pdf_crypt.py).
    """
    if trailer is None:
        return None
    enc_obj = objects.get(trailer["Encrypt"].num)
    if enc_obj is None:
        raise PdfParseError("dangling /Encrypt reference")
    d = enc_obj.dict
    if d.get("Filter") != "Standard":
        raise PdfParseError("unsupported encryption handler")
    v = _int(d, "V", 0)
    if v not in (1, 2, 4, 5):
        raise PdfParseError(f"unsupported encryption /V {v}")
    cfm = "V2"
    if v in (4, 5):
        stmf = d.get("StmF")
        filt = _resolve_dict(objects, _resolve_dict(objects, d, "CF"),
                             stmf if isinstance(stmf, str) else "") or {}
        cfm = filt.get("CFM") if isinstance(filt.get("CFM"), str) else "V2"
        if (v == 4 and cfm not in ("V2", "AESV2")) or (v == 5 and cfm != "AESV3"):
            raise PdfParseError(f"unsupported crypt filter /CFM {cfm}")
        if d.get("EncryptMetadata") is False:
            # would append ffffffff to the key hash; outside the subset
            raise PdfParseError("unsupported /EncryptMetadata false")
    r = _int(d, "R", 2)
    if (v == 5 and r not in (5, 6)) or (v != 5 and r not in (2, 3, 4)):
        raise PdfParseError(f"unsupported encryption /R {r}")
    p = _int(d, "P")
    if p is None:
        raise PdfParseError("encryption dictionary without /P")
    o_entry, u_entry = d.get("O"), d.get("U")
    if not (isinstance(o_entry, bytes) and isinstance(u_entry, bytes)):
        raise PdfParseError("encryption dictionary without /O or /U")
    ids = trailer.get("ID")
    id0 = ids[0] if isinstance(ids, list) and ids and isinstance(ids[0], bytes) else b""
    ue_entry = oe_entry = perms_entry = b""
    if v == 5:
        ue_entry, oe_entry, perms_entry = (
            x if isinstance(x, bytes) else b""
            for x in (d.get("UE"), d.get("OE"), d.get("Perms")))
        if not ue_entry or not oe_entry:
            raise PdfParseError("/V 5 encryption dictionary without /UE or /OE")
    key_len = 32 if v == 5 else max(5, min(16, _int(d, "Length", 40) // 8))
    return PdfEncryptInfo(
        v=v, r=r, key_len=key_len,
        o_entry=o_entry, u_entry=u_entry, p=p, id0=id0,
        cfm=cfm, ue_entry=ue_entry, oe_entry=oe_entry, perms_entry=perms_entry,
    )


# --------------------------------------------------------------------------
# Public API
# --------------------------------------------------------------------------


class PdfDocument:
    """An opened PDF: scanned objects + page tree + (optional) encryption.

    The surface mirrors the fitz API the reference's password loop drives
    (``core_pdf_processor.py:295-306``): ``needs_pass`` is a static property
    of the document (encrypted AND the empty user password does not open
    it — PDFs encrypted with an empty user password open transparently,
    exactly as fitz reports ``needs_pass == False`` for them), and
    ``authenticate(pwd)`` tries the user then the owner password, arming the
    file key on success.
    """

    def __init__(self, payload: bytes) -> None:
        if payload[:5] != b"%PDF-":
            raise PdfParseError("missing %PDF- header")
        self._objects = _scan_objects(payload)
        self._trailer = _trailer_dict(payload)
        self._encrypt = _find_encrypt_info(
            self._objects, self._trailer_entry("Encrypt"))
        self._file_key: Optional[bytes] = None
        if self._encrypt is None:
            _expand_object_streams(self._objects)
        else:
            # Empty-user-password docs open without a prompt. On success,
            # authenticate() expands any (encrypted) object streams and
            # resolves the root with the full object map.
            self.authenticate("")
        self.needs_pass: bool = self._encrypt is not None and self._file_key is None
        if self.needs_pass:
            # The catalog may live inside an encrypted ObjStm — defer root
            # resolution until a later authenticate() arms the key.
            try:
                self._root: Optional[int] = self._find_root()
            except PdfParseError:
                self._root = None
        else:
            self._root = self._find_root()

    def authenticate(self, password: Optional[str]) -> bool:
        """Try ``password`` as user then owner password; arm the key on
        success. Idempotent; returns whether the document is now open."""
        if self._encrypt is None:
            return True
        if self._file_key is not None:
            return True
        e = self._encrypt
        if e.v == 5:
            pw = (password or "").encode("utf-8")
            key = authenticate_user_password_v5(
                pw, e.u_entry, e.ue_entry, e.r
            ) or authenticate_owner_password_v5(
                pw, e.o_entry, e.u_entry, e.oe_entry, e.r
            )
        else:
            pw = (password or "").encode("latin-1", "replace")
            key = authenticate_user_password(
                pw, e.o_entry, e.u_entry, e.p, e.id0, e.key_len, e.r
            ) or authenticate_owner_password(
                pw, e.o_entry, e.u_entry, e.p, e.id0, e.key_len, e.r
            )
        if key is None:
            return False
        if e.v == 5 and e.perms_entry:
            # Algorithm 13: /Perms echoes /P under the file key — a
            # mismatch means the dictionary was tampered after signing.
            if not verify_perms_v5(key, e.perms_entry, e.p):
                raise PdfParseError("/V 5 /Perms does not validate against /P")
        self._file_key = key
        # With the key armed, encrypted object streams become readable:
        # unpack them and resolve a root that was deferred in __init__.
        _expand_object_streams(self._objects, key, cfm=e.cfm)
        if getattr(self, "_root", None) is None:
            self._root = self._find_root()
        return True

    def _trailer_entry(self, key: str) -> Optional[Dict[str, Any]]:
        """The first trailer dict whose ``key`` is an indirect reference:
        the dict after the last ``trailer`` keyword, then each /Type /XRef
        stream dict (cross-reference-stream files, §7.5.8) in object-number
        order. Reads the object map as it is now, so a lookup after
        object-stream expansion also sees the unpacked objects."""
        if self._trailer is not None and isinstance(self._trailer.get(key), _Ref):
            return self._trailer
        for num in sorted(self._objects):
            d = self._objects[num].dict
            if d.get("Type") == "XRef" and isinstance(d.get(key), _Ref):
                return d
        return None

    def _find_root(self) -> int:
        """The catalog's object number: the trailer's /Root, else the first
        /Type /Catalog object in object-number order."""
        found = self._trailer_entry("Root")
        if found is not None:
            return found["Root"].num
        for num in sorted(self._objects):
            if self._objects[num].dict.get("Type") == "Catalog":
                return num
        raise PdfParseError("no document catalog")

    def _page_spans(
        self,
        page_num: int,
        resources: Optional[Dict[str, Any]],
        off_ocgs: set,
        image_out: Optional[List[Dict[str, Any]]] = None,
    ) -> List[Span]:
        """One page's spans: its decoded content streams, run through the
        interpreter with the page's resources. ``resources`` and
        ``off_ocgs`` come from ``_page_order`` and ``_doc_off_ocgs``. A
        missing or undecodable content stream raises ``PdfParseError``."""
        cfm = self._encrypt.cfm if self._encrypt is not None else "V2"
        contents = self._objects[page_num].dict.get("Contents")
        refs = contents if isinstance(contents, list) else [contents]
        content = bytearray()
        for r in (r.num for r in refs if isinstance(r, _Ref)):
            obj = self._objects.get(r)
            if obj is None or obj.stream is None:
                raise PdfParseError(f"missing content stream {r}")
            content += _decode_stream(obj, self._file_key, cfm)
            content += b"\n"
        res = _page_resources(self._objects, resources, self._file_key, cfm, off_ocgs)
        return _interpret_text(bytes(content), res, image_out)

    def extract_pages(self, max_pages: Optional[int] = None) -> List[PdfPage]:
        """Pages in document order (text + layout tree).

        Mirrors the reference doc loop (``core_pdf_processor.py:186-218``):
        ``total = len(doc) if max_pages is None else min(len(doc),
        max_pages)``; a failing page yields an empty PdfPage rather than
        poisoning the doc (per-page failure isolation, :202-209).
        """
        if self._encrypt is not None and self._file_key is None:
            raise PdfPasswordError("document requires a password")
        if self._root is None:  # deferred root never resolved (see __init__)
            raise PdfParseError("no document catalog")
        page_nums = _page_order(self._objects, self._root)
        total = len(page_nums) if max_pages is None else min(len(page_nums), max_pages)

        pages: List[PdfPage] = []
        default_box = (0.0, 0.0, 612.0, 792.0)
        off_ocgs = _doc_off_ocgs(self._objects, self._root)
        for pnum, rotate, box, resources in page_nums[:total]:
            if box is None:
                box = default_box
            width = box[2] - box[0]
            height = box[3] - box[1]
            try:
                placements: List[Dict[str, Any]] = []
                spans = self._page_spans(pnum, resources, off_ocgs, placements)
                page = _assemble_page(spans, width, height, rotate)
                for pl in placements:
                    x0, y0, x1, y1 = pl.pop("bbox_pdf")
                    pl["bbox"] = [x0, height - y1, x1, height - y0]
                    page.images.append(pl)
                pages.append(page)
            except PdfParseError:
                pages.append(_assemble_page([], width, height, rotate))
        return pages


def open_pdf(payload: bytes) -> PdfDocument:
    """Open a PDF for the caller's own password loop (the reference's
    ``fitz.open`` analogue). Document-structure failures raise
    ``PdfParseError`` for conversion into a parse_failure row."""
    return PdfDocument(payload)


def parse_pdf(
    payload: bytes,
    max_pages: Optional[int] = None,
    password: Optional[str] = None,
) -> List[PdfPage]:
    """One-shot convenience: open, authenticate with ``password`` (or none),
    extract. Raises ``PdfPasswordError`` if the document needs a password
    this call cannot supply."""
    doc = PdfDocument(payload)
    if doc.needs_pass:
        if password is None or not doc.authenticate(password):
            raise PdfPasswordError("document requires a password")
    return doc.extract_pages(max_pages)
