"""Deterministic synthetic corpus generator (the FIXTURES.md spec).

Emits the authoritative input shape from BASELINE.json's ``input_hint``:
Parquet columns ``(url: string, warc_ts: timestamp[us], html: binary,
text: string, lang: string)``. Payloads are produced by our own HTML and
minimal-PDF writers so they stay inside the from-scratch parsers' supported
subset. Everything is seeded and wall-clock-free: row ``i`` of a given
``(seed, n_rows)`` is byte-identical across runs, processes, and machines.

Payload mix per FIXTURES.md §2 (category by ``i % 100``):
0-54 clean article HTML, 55-64 link-farm HTML, 65-69 script/style-heavy,
70-74 short/empty (under the 250-char gate), 75-79 garbage-text HTML,
80-94 synthetic PDF (half FlateDecode; some 2-column / out-of-order Tm;
cat 84 ENCRYPTED owner-locked with empty user password, cat 91 ENCRYPTED
with the saved per-site / configured default password, cat 94 ENCRYPTED
with an unknown password -> password_required failure — both RC4-40 /V 1
and RC4-128 /V 2, see functions/pdf_crypt.py), 95-99 malformed payloads.
Rows with ``i % 1000 in (7, 13)`` are giant blobs (~1.5 MiB, >100x median)
to exercise the truncation/skew path.
"""

from __future__ import annotations

import random
import zlib
from typing import List, Tuple

import pyarrow as pa

EPOCH_US = 1735689600000000  # 2025-01-01T00:00:00Z in microseconds

LANGS = ["en", "en", "en", "de", "fr", "es", "hi", "en", "de", "en"]

_VOCAB = (
    "stream data page query batch shard merge sort scan table index key value "
    "column row block arrow vector text parse token filter group join order "
    "window count system worker node cluster shuffle spill cache memory disk "
    "network engine plan stage task actor pool lineage resume commit hash"
).split()

_SENTENCE_ENDINGS = [". ", ". ", ". ", "! ", "? "]

BOILERPLATE_NAV = (
    "Home News Products About Contact Careers Privacy Terms Sitemap Login Register"
)
BOILERPLATE_FOOTER = (
    "Copyright 2025 Example Corp. All rights reserved. Privacy Policy | Terms of Service | Cookies"
)
RELATED_LINKS = [
    "Read more about our premium subscription offers",
    "Top ten lists you cannot miss this week",
    "Subscribe to the newsletter for daily updates",
    "Trending now across the network of sites",
    "Download the app for exclusive mobile content",
    "More stories from around the web today",
]


def _rng(seed: int, i: int) -> random.Random:
    return random.Random(seed * 1_000_003 + i)


def _sentence(rng: random.Random, n_words: int) -> str:
    words = [rng.choice(_VOCAB) for _ in range(n_words)]
    words[0] = words[0].capitalize()
    return " ".join(words) + rng.choice(_SENTENCE_ENDINGS)


def make_paragraphs(rng: random.Random, n_paras: int, words_per_sentence=(6, 14), sentences=(2, 6)) -> List[str]:
    paras = []
    for _ in range(n_paras):
        n_sent = rng.randint(*sentences)
        paras.append(
            "".join(_sentence(rng, rng.randint(*words_per_sentence)) for _ in range(n_sent)).strip()
        )
    return paras


# --------------------------------------------------------------------------
# HTML writer
# --------------------------------------------------------------------------


def make_article_html(title: str, paragraphs: List[str], rng: random.Random,
                      heavy_scripts: bool = False, charset: str = "utf-8",
                      bom: bool = False) -> bytes:
    """A realistic article page: head, nav, header, main content, sidebar,
    related-links box, footer. The extractor's golden output is the title +
    content paragraphs (boilerplate must be stripped).

    ``charset``: declared in ``<meta charset>`` AND used to encode the
    bytes (e.g. "windows-1252" legacy pages). ``bom``: prefix a UTF-8 BOM
    (utf-8 only) — the extractor must strip it."""
    scripts = ""
    if heavy_scripts:
        blob = " ".join(rng.choice(_VOCAB) for _ in range(400))
        scripts = (
            f"<script>var DATA = {{payload: '{blob}'}};\n"
            + "function f(x){return x*2;}\n" * 30
            + "</script><style>"
            + ".cls{margin:0;padding:0;color:#333}\n" * 40
            + "</style>"
        )
    nav_links = " ".join(f'<a href="/{w}">{w.capitalize()}</a>' for w in BOILERPLATE_NAV.split())
    related = "".join(f'<li><a href="/r/{i}">{t}</a></li>' for i, t in enumerate(RELATED_LINKS))
    body_paras = "".join(f"<p>{p}</p>" for p in paragraphs)
    ad = '<div class="ad"><a href="/buy">Buy now</a> <a href="/deal">Hot deal</a></div>'
    html = (
        "<!DOCTYPE html>"
        f'<html><head><title>{title}</title><meta charset="{charset}">{scripts}</head>'
        "<body>"
        f"<header><h1>Example Site</h1><nav>{nav_links}</nav></header>"
        f"<main><article><h1>{title}</h1>{body_paras}</article>"
        f'<aside><h3>Related</h3><ul>{related}</ul>{ad}</aside></main>'
        f"<footer><p>{BOILERPLATE_FOOTER}</p></footer>"
        "</body></html>"
    )
    payload = html.encode(charset)
    if bom:
        assert charset == "utf-8"
        payload = b"\xef\xbb\xbf" + payload
    return payload


def make_linkfarm_html(rng: random.Random, keep_paragraphs: List[str]) -> bytes:
    """Blocks with link density > 0.5 interleaved with a few real paragraphs;
    golden keeps only the low-link-density blocks."""
    farm_blocks = []
    for _ in range(8):
        links = "".join(
            f'<a href="/x/{j}">{" ".join(rng.choice(_VOCAB) for _ in range(3))}</a> '
            for j in range(rng.randint(5, 12))
        )
        farm_blocks.append(f"<div>{links}</div>")
    content = "".join(f"<p>{p}</p>" for p in keep_paragraphs)
    html = (
        "<html><head><title>Directory</title></head><body>"
        + farm_blocks[0]
        + content
        + "".join(farm_blocks[1:])
        + "</body></html>"
    )
    return html.encode("utf-8")


def make_short_html(rng: random.Random) -> bytes:
    txt = _sentence(rng, rng.randint(3, 10)).strip()
    return f"<html><head><title>stub</title></head><body><p>{txt}</p></body></html>".encode("utf-8")


_GARBAGE_MAKERS = [
    # One maker per garbage-predicate clause (core_pdf_processor.py:584-648).
    lambda rng: "@#$% ^&* (()) ~~ || " * 30,                       # special-char ratio > 0.5
    lambda rng: "ababab " * 60,                                     # < 5 distinct chars
    lambda rng: "a b c d e f g h i j " * 30,                        # short-word ratio > 0.7
    lambda rng: ("\x01\x02\x03" + "ab ") * 80,                      # control chars > 30%
    lambda rng: " ".join("~" * rng.randint(1, 2) for _ in range(200)),  # special + short words
]


def make_garbage_html(rng: random.Random, clause: int) -> bytes:
    garbage = _GARBAGE_MAKERS[clause % len(_GARBAGE_MAKERS)](rng)
    # XML-escape so the payload stays well-formed markup.
    garbage = garbage.replace("&", "&amp;").replace("<", "&lt;")
    return f"<html><body><p>{garbage}</p></body></html>".encode("utf-8")


# --------------------------------------------------------------------------
# Minimal-PDF writer (subset matching functions/pdf_extract.py)
# --------------------------------------------------------------------------


def _pdf_escape(s: str) -> str:
    return s.replace("\\", r"\\").replace("(", r"\(").replace(")", r"\)")


def _page_content(lines: List[Tuple[float, float, str]], use_tm: bool, rng: random.Random,
                  cid_map: dict | None = None) -> bytes:
    """Content stream placing each (x, y, text) line. ``use_tm`` emits absolute
    Tm placements in a shuffled order (exercises span reordering); otherwise a
    classic Td/T* relative walk. With ``cid_map`` (char -> CID), strings are
    hex 2-byte-CID strings for a Type0/Identity-H font instead of literals."""

    def enc(s: str) -> str:
        if cid_map is None:
            return f"({_pdf_escape(s)})"
        return "<" + "".join(f"{cid_map[ch]:04x}" for ch in s) + ">"

    ops: List[str] = ["BT", "/F1 12 Tf"]
    if use_tm:
        order = list(range(len(lines)))
        rng.shuffle(order)  # seeded; exercises out-of-order placement
        for idx in order:
            x, y, s = lines[idx]
            ops.append(f"1 0 0 1 {x:g} {y:g} Tm {enc(s)} Tj")
    else:
        ops.append("14 TL")
        prev_x, prev_y = 0.0, 0.0
        for i, (x, y, s) in enumerate(lines):
            if i == 0:
                ops.append(f"{x:g} {y:g} Td")
            else:
                dx, dy = x - prev_x, y - prev_y
                if dx == 0 and dy == -14:
                    ops.append("T*")
                else:
                    ops.append(f"{dx:g} {dy:g} Td")
            if i % 3 == 2:
                # exercise TJ with kerning numbers
                mid = max(1, len(s) // 2)
                ops.append(f"[{enc(s[:mid])} -20 {enc(s[mid:])}] TJ")
            else:
                ops.append(f"{enc(s)} Tj")
            prev_x, prev_y = x, y
    ops.append("ET")
    return "\n".join(ops).encode("latin-1")


def _tounicode_cmap(cid_map: dict) -> bytes:
    """ToUnicode CMap for char->CID ``cid_map``: contiguous codepoint runs
    (CIDs are assigned in sorted-codepoint order, so runs are contiguous in
    both) become ``bfrange`` entries, singletons become ``bfchar``."""
    items = sorted(cid_map.items(), key=lambda kv: kv[1])
    runs: List[Tuple[int, int, int]] = []  # (cid_lo, cid_hi, cp_lo)
    for ch, cid in items:
        cp = ord(ch)
        if runs and runs[-1][1] == cid - 1 and cp == runs[-1][2] + (cid - runs[-1][0]):
            runs[-1] = (runs[-1][0], cid, runs[-1][2])
        else:
            runs.append((cid, cid, cp))
    ranges = [r for r in runs if r[1] - r[0] >= 2]
    chars = [
        (cid, runs_cp + (cid - cid_lo))
        for cid_lo, cid_hi, runs_cp in runs
        if cid_hi - cid_lo < 2
        for cid in range(cid_lo, cid_hi + 1)
    ]
    parts = [
        "/CIDInit /ProcSet findresource begin\n12 dict begin\nbegincmap\n"
        "1 begincodespacerange\n<0000> <FFFF>\nendcodespacerange"
    ]
    if ranges:
        parts.append(f"{len(ranges)} beginbfrange")
        for lo, hi, cp in ranges:
            parts.append(f"<{lo:04x}> <{hi:04x}> <{cp:04x}>")
        parts.append("endbfrange")
    if chars:
        parts.append(f"{len(chars)} beginbfchar")
        for cid, cp in chars:
            parts.append(f"<{cid:04x}> <{cp:04x}>")
        parts.append("endbfchar")
    parts.append("endcmap\nCMapName currentdict /CMap defineresource pop\nend\nend")
    return "\n".join(parts).encode("latin-1")


def _lzw_encode(data: bytes) -> bytes:
    """LZWDecode-compatible encoder (PDF 1.7 §7.4.4, TIFF variant,
    EarlyChange=1). Width bumps mirror the decoder exactly: the decoder's
    table is one entry behind the encoder's, so the encoder widens when its
    next free code reaches 512/1024/2048 (the decoder's 511/1023/2047)."""
    bits: List[Tuple[int, int]] = [(256, 9)]  # clear table first (spec)
    table = {bytes([c]): c for c in range(256)}
    next_code = 258
    width = 9
    w = b""
    for b in data:
        c = bytes([b])
        if w + c in table:
            w += c
            continue
        bits.append((table[w], width))
        table[w + c] = next_code
        next_code += 1
        if next_code - 1 in (511, 1023, 2047):
            width += 1
        if next_code == 4096:
            bits.append((256, width))
            table = {bytes([ch]): ch for ch in range(256)}
            next_code = 258
            width = 9
        w = c
    if w:
        bits.append((table[w], width))
    bits.append((257, width))
    out = bytearray()
    buf = 0
    cnt = 0
    for code, wd in bits:
        buf = (buf << wd) | code
        cnt += wd
        while cnt >= 8:
            out.append((buf >> (cnt - 8)) & 0xFF)
            cnt -= 8
    if cnt:
        out.append((buf << (8 - cnt)) & 0xFF)
    return bytes(out)


def _a85_encode(data: bytes) -> bytes:
    """ASCII85Decode-compatible encoder (PDF 1.7 §7.4.3): 4 bytes -> 5
    base-85 chars, all-zero full groups as ``z``, trailing n bytes as n+1
    chars, ``~>`` EOD."""
    out = bytearray()
    for i in range(0, len(data), 4):
        chunk = data[i:i + 4]
        n = len(chunk)
        acc = int.from_bytes(chunk + b"\x00" * (4 - n), "big")
        if acc == 0 and n == 4:
            out.append(0x7A)  # 'z'
            continue
        grp = bytearray()
        for _ in range(5):
            grp.append(acc % 85 + 0x21)
            acc //= 85
        grp.reverse()
        out += grp[: n + 1]
    out += b"~>"
    return bytes(out)


def _rle_encode(data: bytes) -> bytes:
    """RunLengthDecode-compatible encoder (PDF 1.7 §7.4.5): repeat runs of
    2-128 equal bytes as (257-n, byte); literals in chunks of <= 128."""
    out = bytearray()
    i = 0
    n = len(data)
    lit_start = i
    while i < n:
        run = 1
        while i + run < n and run < 128 and data[i + run] == data[i]:
            run += 1
        if run >= 2:
            j = lit_start
            while j < i:
                k = min(128, i - j)
                out.append(k - 1)
                out += data[j:j + k]
                j += k
            out.append(257 - run)
            out.append(data[i])
            i += run
            lit_start = i
        else:
            i += 1
    j = lit_start
    while j < n:
        k = min(128, n - j)
        out.append(k - 1)
        out += data[j:j + k]
        j += k
    out.append(128)  # EOD
    return bytes(out)


def make_pdf(page_line_texts: List[List[str]], rng: random.Random,
             compress: "bool | str" = False,
             two_column: bool = False, use_tm: bool = False,
             encrypt: dict | None = None, objstm: bool = False,
             cid_font: bool = False, form_header: bool = False,
             info: dict | None = None) -> bytes:
    """Write a minimal PDF 1.4 with the given per-page line texts.

    ``compress``: False = raw content streams; True = FlateDecode; "lzw" /
    "rle" / "a85" = LZWDecode / RunLengthDecode / ASCII85Decode page
    content (auxiliary streams stay Flate) — same text operators, so
    extraction is byte-identical across every encoding.

    ``cid_font``: use a composite Type0 font with /Encoding /Identity-H
    instead of the simple Type1 font — strings in the content streams are
    hex 2-byte CIDs and a /ToUnicode CMap stream (bfrange for contiguous
    codepoint runs, bfchar for singletons) maps them back, so extracted
    text is byte-identical to the simple-font layout. Composable with
    ``compress`` (CMap FlateDecode'd), ``encrypt`` and ``objstm``.

    ``objstm``: emit the PDF 1.5+ compressed-object layout instead — every
    non-stream object (catalog, page tree, page dicts, font) is packed into
    one FlateDecode'd /Type /ObjStm, the trailer fields move into a
    /Type /XRef stream dict, and the file has NO ``trailer`` keyword.
    Content streams (and the /Encrypt dict, which must stay readable before
    the key exists) remain classic objects. Combined with ``encrypt``, the
    ObjStm stream itself is encrypted under its own object number — the
    deferred-root path in PdfDocument. Same text operators either way, so
    extracted text is byte-identical to the classic layout.

    Layout: letter MediaBox (612x792), 12pt lines, 14pt leading starting at
    y=720. ``two_column`` splits lines between x=72 and x=320 columns (the
    golden reading order is left column top-down then right column).

    ``encrypt``: standard-security-handler encryption via pdf_crypt —
    ``{"user_pw": str, "owner_pw": str, "v": 1|2|4}`` (v=1 -> RC4-40 /R 2,
    v=2 -> RC4-128 /R 3, v=4 -> AES-128-CBC /R 4 with /StdCF /CFM /AESV2).
    Stream bytes are stored crypt(filtered(content)): filters apply first,
    encryption is outermost, exactly what the parser inverts. AES IVs are
    derived from (id0, object number), so corpora stay pure functions of
    (seed, i). An empty ``user_pw`` produces a document that opens without
    a prompt (needs_pass False), the common real-world "owner-locked" case.
    """
    objects: List[bytes] = []

    def add(obj_body: bytes) -> int:
        objects.append(obj_body)
        return len(objects)

    n_pages = len(page_line_texts)
    # Object numbering: 1 catalog, 2 pages, then per page (page, content),
    # then font; the /Encrypt dict (if any) goes last.
    catalog_num = 1
    pages_num = 2
    page_nums = [3 + 2 * i for i in range(n_pages)]
    content_nums = [4 + 2 * i for i in range(n_pages)]
    font_num = 3 + 2 * n_pages
    # ``form_header``: each page's first two lines live in a Form XObject
    # (PDF 1.7 §8.10) invoked via ``/FmI Do`` — the reusable-letterhead
    # layout real corpora use. Form stream objects follow the font block.
    form_base = font_num + (2 if cid_font else 1)
    form_nums = [form_base + i for i in range(n_pages)] if form_header else []

    crypt = None
    if encrypt is not None:
        from .pdf_crypt import (
            compute_encryption_key,
            compute_o_entry,
            compute_u_entry,
            crypt_object_bytes,
            crypt_object_bytes_aes,
        )

        user_pw = encrypt["user_pw"].encode("latin-1")
        owner_pw = encrypt.get("owner_pw", "").encode("latin-1")
        v = int(encrypt.get("v", 1))
        r = {1: 2, 2: 3, 4: 4, 5: int(encrypt.get("r", 6))}[v]
        length_bits = {1: 40, 2: 128, 4: 128, 5: 256}[v]
        key_len = length_bits // 8
        p = -44  # print+extract denied; any value works, P feeds the key hash
        import hashlib as _hl

        id0 = _hl.md5(
            b"graft-fixture-id" + user_pw + owner_pw + bytes([v])
        ).digest()
        extra = {}
        if v == 5:
            from .pdf_crypt import crypt_object_bytes_aes256, make_v5_entries

            file_key = _hl.sha256(b"graft-v5-filekey" + id0).digest()
            ents = make_v5_entries(user_pw, owner_pw, file_key, id0, r, p)
            o_entry, u_entry = ents["o"], ents["u"]
            extra = {"ue": ents["ue"], "oe": ents["oe"], "perms": ents["perms"]}

            def _aes256_fn(key: bytes, num: int, gen: int, data: bytes) -> bytes:
                iv = _hl.md5(b"graft-iv" + id0 + bytes([num & 0xFF, gen & 0xFF])).digest()
                return crypt_object_bytes_aes256(key, data, iv)

            fn = _aes256_fn
        else:
            o_entry = compute_o_entry(owner_pw, user_pw, key_len, r)
            file_key = compute_encryption_key(user_pw, o_entry, p, id0, key_len, r)
            u_entry = compute_u_entry(file_key, id0, r)
            if v == 4:
                def _aes_fn(key: bytes, num: int, gen: int, data: bytes) -> bytes:
                    iv = _hl.md5(b"graft-iv" + id0 + bytes([num & 0xFF, gen & 0xFF])).digest()
                    return crypt_object_bytes_aes(key, num, gen, data, iv)

                fn = _aes_fn
            else:
                fn = crypt_object_bytes
        crypt = {
            "file_key": file_key, "o": o_entry, "u": u_entry, "p": p,
            "v": v, "r": r, "length_bits": length_bits, "id0": id0,
            "fn": fn, **extra,
        }

    cid_map = None
    if cid_font:
        charset = sorted({ch for texts in page_line_texts for t in texts for ch in t})
        cid_map = {ch: i + 1 for i, ch in enumerate(charset)}

    add(f"<< /Type /Catalog /Pages {pages_num} 0 R >>".encode())
    kids = " ".join(f"{p} 0 R" for p in page_nums)
    add(f"<< /Type /Pages /Kids [{kids}] /Count {n_pages} >>".encode())

    form_bodies: List[bytes] = []
    for i, texts in enumerate(page_line_texts):
        lines: List[Tuple[float, float, str]] = []
        if two_column:
            half = (len(texts) + 1) // 2
            for j, t in enumerate(texts[:half]):
                lines.append((72.0, 720.0 - 14.0 * j, t))
            for j, t in enumerate(texts[half:]):
                lines.append((330.0, 720.0 - 14.0 * j, t))
        else:
            for j, t in enumerate(texts):
                lines.append((72.0, 720.0 - 14.0 * j, t))
        xobj_clause = ""
        if form_header:
            head, lines = lines[:2], lines[2:]
            form_bodies.append(_page_content(head, use_tm, rng, cid_map))
            xobj_clause = f"/XObject << /Fm{i} {form_nums[i]} 0 R >> "
            content = f"/Fm{i} Do\n".encode() + _page_content(lines, use_tm, rng, cid_map)
        else:
            content = _page_content(lines, use_tm, rng, cid_map)
        filt = ""
        if compress == "lzw":
            content = _lzw_encode(content)
            filt = " /Filter /LZWDecode"
        elif compress == "rle":
            content = _rle_encode(content)
            filt = " /Filter /RunLengthDecode"
        elif compress == "a85":
            content = _a85_encode(content)
            filt = " /Filter /ASCII85Decode"
        elif compress:
            content = zlib.compress(content, 6)
            filt = " /Filter /FlateDecode"
        if crypt is not None:
            content = crypt["fn"](crypt["file_key"], content_nums[i], 0, content)
        add(
            f"<< /Type /Page /Parent {pages_num} 0 R /MediaBox [0 0 612 792] "
            f"/Contents {content_nums[i]} 0 R "
            f"/Resources << /Font << /F1 {font_num} 0 R >> {xobj_clause}>> >>".encode()
        )
        objects.append(
            f"<< /Length {len(content)}{filt} >>\nstream\n".encode() + content + b"\nendstream"
        )
    if cid_map is not None:
        tounicode_num = font_num + 1
        add(
            f"<< /Type /Font /Subtype /Type0 /BaseFont /SynthCID "
            f"/Encoding /Identity-H /ToUnicode {tounicode_num} 0 R >>".encode()
        )
        cmap_data = _tounicode_cmap(cid_map)
        cmap_filt = ""
        if compress:
            cmap_data = zlib.compress(cmap_data, 6)
            cmap_filt = " /Filter /FlateDecode"
        if crypt is not None:
            cmap_data = crypt["fn"](crypt["file_key"], tounicode_num, 0, cmap_data)
        objects.append(
            f"<< /Length {len(cmap_data)}{cmap_filt} >>\nstream\n".encode()
            + cmap_data + b"\nendstream"
        )
    else:
        add(b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>")

    for i, body in enumerate(form_bodies):
        ffilt = ""
        if compress:
            body = zlib.compress(body, 6)
            ffilt = " /Filter /FlateDecode"
        if crypt is not None:
            body = crypt["fn"](crypt["file_key"], form_nums[i], 0, body)
        objects.append(
            (
                f"<< /Type /XObject /Subtype /Form /BBox [0 0 612 792] "
                f"/Length {len(body)}{ffilt} >>\nstream\n"
            ).encode() + body + b"\nendstream"
        )

    info_clause = ""
    if info is not None and crypt is None:
        # /Info document-information dictionary (§14.3.3). Emitted only for
        # non-encrypted docs: strings in encrypted documents are themselves
        # encrypted, which is out of the fixture subset.
        ent = " ".join(
            f"/{k} ({_pdf_escape(str(v))})" for k, v in sorted(info.items())
        )
        info_num = add(f"<< {ent} >>".encode())
        info_clause = f" /Info {info_num} 0 R"

    encrypt_clause = ""
    if crypt is not None:
        if crypt["v"] == 4:
            cf_clause = (
                "/CF << /StdCF << /CFM /AESV2 /AuthEvent /DocOpen /Length 16 >> >> "
                "/StmF /StdCF /StrF /StdCF "
            )
        elif crypt["v"] == 5:
            cf_clause = (
                "/CF << /StdCF << /CFM /AESV3 /AuthEvent /DocOpen /Length 32 >> >> "
                "/StmF /StdCF /StrF /StdCF "
            )
        else:
            cf_clause = ""
        v5_clause = (
            f"/UE <{crypt['ue'].hex()}> /OE <{crypt['oe'].hex()}> "
            f"/Perms <{crypt['perms'].hex()}> "
            if crypt["v"] == 5 else ""
        )
        encrypt_num = add(
            (
                f"<< /Filter /Standard /V {crypt['v']} /R {crypt['r']} "
                f"/Length {crypt['length_bits']} {cf_clause}"
                f"/O <{crypt['o'].hex()}> /U <{crypt['u'].hex()}> {v5_clause}"
                f"/P {crypt['p']} >>"
            ).encode()
        )
        idhex = crypt["id0"].hex()
        encrypt_clause = f" /Encrypt {encrypt_num} 0 R /ID [<{idhex}> <{idhex}>]"

    if objstm:
        classic_nums = set(content_nums) | set(form_nums)
        if crypt is not None:
            classic_nums.add(encrypt_num)
        if cid_map is not None:
            classic_nums.add(font_num + 1)  # the /ToUnicode CMap stream
        packed = [
            (num, body)
            for num, body in enumerate(objects, start=1)
            if num not in classic_nums
        ]
        bodies = [body for _, body in packed]
        offs, pos = [], 0
        for b in bodies:
            offs.append(pos)
            pos += len(b) + 1  # one space between bodies
        header = (
            " ".join(f"{num} {off}" for (num, _), off in zip(packed, offs)) + "\n"
        ).encode()
        first = len(header)
        data = zlib.compress(header + b" ".join(bodies), 6)
        objstm_num = len(objects) + 1
        if crypt is not None:
            data = crypt["fn"](crypt["file_key"], objstm_num, 0, data)
        objstm_body = (
            f"<< /Type /ObjStm /N {len(packed)} /First {first} "
            f"/Length {len(data)} /Filter /FlateDecode >>\nstream\n"
        ).encode() + data + b"\nendstream"
        xref_num = objstm_num + 1
        size = xref_num + 1
        xref_entries = b"\x00" * (4 * size)  # entries unread by the parser
        xref_body = (
            f"<< /Type /XRef /Size {size} /Root {catalog_num} 0 R{encrypt_clause}{info_clause}"
            f" /W [1 2 1] /Index [0 {size}] /Length {len(xref_entries)} >>\nstream\n"
        ).encode() + xref_entries + b"\nendstream"
        out = bytearray(b"%PDF-1.5\n")
        for num, body in enumerate(objects, start=1):
            if num in classic_nums:
                out += f"{num} 0 obj\n".encode() + body + b"\nendobj\n"
        out += f"{objstm_num} 0 obj\n".encode() + objstm_body + b"\nendobj\n"
        xref_pos = len(out)
        out += f"{xref_num} 0 obj\n".encode() + xref_body + b"\nendobj\n"
        out += f"startxref\n{xref_pos}\n%%EOF\n".encode()
        return bytes(out)

    out = bytearray(b"%PDF-1.4\n")
    offsets = [0]
    for num, body in enumerate(objects, start=1):
        offsets.append(len(out))
        out += f"{num} 0 obj\n".encode() + body + b"\nendobj\n"
    xref_pos = len(out)
    out += f"xref\n0 {len(objects) + 1}\n".encode()
    out += b"0000000000 65535 f \n"
    for off in offsets[1:]:
        out += f"{off:010d} 00000 n \n".encode()
    out += (
        f"trailer\n<< /Size {len(objects) + 1} /Root {catalog_num} 0 R{encrypt_clause}{info_clause} >>\n"
        f"startxref\n{xref_pos}\n%%EOF\n".encode()
    )
    return bytes(out)


def append_incremental_update(pdf: bytes, page_index: int,
                              new_lines: List[str], rng: random.Random) -> bytes:
    """Append an incremental update (ISO 32000-1 §7.5.6) replacing one
    page's content stream: a new object with the SAME object number after
    the original ``%%EOF``, plus an update xref section and trailer with
    ``/Prev``. The live document is the appended version — parsers must
    resolve last-definition-wins. Valid for classic non-encrypted
    ``make_pdf`` output (content object numbers are ``4 + 2*page``);
    the replacement content is raw (uncompressed) single-column text."""
    content = _page_content(
        [(72.0, 720.0 - 14.0 * j, t) for j, t in enumerate(new_lines)],
        False, rng, None,
    )
    num = 4 + 2 * page_index
    obj = (
        f"{num} 0 obj\n<< /Length {len(content)} >>\nstream\n".encode()
        + content + b"\nendstream\nendobj\n"
    )
    offset = len(pdf) + 1
    tail = (
        f"xref\n{num} 1\n{offset:010d} 00000 n \n"
        f"trailer\n<< /Prev 0 >>\nstartxref\n{offset}\n%%EOF\n"
    )
    return pdf + b"\n" + obj + tail.encode()


def make_scanned_pdf(page_line_texts: List[List[str]], rng: random.Random,
                     psm_trap: bool = False) -> bytes:
    """Write a PDF whose pages carry their text ONLY as pixels — the
    scanned-document fixture for the OCR fallback ladder (P5/P6).

    Each page is one 8-bit /DeviceGray image XObject (FlateDecode) placed
    over the full MediaBox via ``q 612 0 0 792 0 0 cm /ImN Do Q``; there
    are no text operators and no fonts, so content-stream extraction
    yields "" and the page gate fails — exactly the scanned-page shape the
    reference falls back to tesseract on (core_pdf_processor.py:391-400).
    The image raster is 2 px/pt (1224x1584), matching the OCR ladder's 2x
    zoom (``Matrix(2, 2)``) so the page-raster blit is pixel-identical.

    ``psm_trap``: layout that defeats single-uniform-block segmentation —
    a short ``p. N`` header far above a uniformly spaced body, so a psm-6
    pass returns <10 chars and the enhanced ladder's ``--psm 3`` retry
    (core_pdf_processor.py:986-994) observably fires. The first line of
    ``page_line_texts[i]`` is the header; the rest are the body.
    """
    from .page_render import rasterize_page

    objects: List[bytes] = []

    def add(obj_body: bytes) -> int:
        objects.append(obj_body)
        return len(objects)

    n_pages = len(page_line_texts)
    catalog_num, pages_num = 1, 2
    page_nums = [3 + 3 * i for i in range(n_pages)]
    content_nums = [4 + 3 * i for i in range(n_pages)]
    image_nums = [5 + 3 * i for i in range(n_pages)]

    add(f"<< /Type /Catalog /Pages {pages_num} 0 R >>".encode())
    kids = " ".join(f"{p} 0 R" for p in page_nums)
    add(f"<< /Type /Pages /Kids [{kids}] /Count {n_pages} >>".encode())

    for i, texts in enumerate(page_line_texts):
        if psm_trap and texts:
            head, body = texts[:1], texts[1:]
            lines = [(72.0, 40.0, head[0])] + [
                (72.0, 200.0 + 14.0 * j, t) for j, t in enumerate(body)
            ]
        else:
            lines = [(72.0, 72.0 + 14.0 * j, t) for j, t in enumerate(texts)]
        fake_layout = {
            "width": 612.0,
            "height": 792.0,
            "blocks": [
                {
                    "bbox": [x, y, x + 6.0 * len(t), y + 12.0],
                    "lines": [
                        {
                            "bbox": [x, y, x + 6.0 * len(t), y + 12.0],
                            "spans": [
                                {
                                    "text": t,
                                    "bbox": [x, y, x + 6.0 * len(t), y + 12.0],
                                    "size": 12.0,
                                    "font": "F1",
                                    "flags": 0,
                                }
                            ],
                        }
                    ],
                }
                for (x, y, t) in lines
            ],
        }
        canvas = rasterize_page(fake_layout, scale=2.0)
        img_h, img_w = canvas.shape
        img_data = zlib.compress(canvas.tobytes(), 6)
        content = f"q 612 0 0 792 0 0 cm /Im{i} Do Q\n".encode()
        add(
            f"<< /Type /Page /Parent {pages_num} 0 R /MediaBox [0 0 612 792] "
            f"/Contents {content_nums[i]} 0 R "
            f"/Resources << /XObject << /Im{i} {image_nums[i]} 0 R >> >> >>".encode()
        )
        objects.append(
            f"<< /Length {len(content)} >>\nstream\n".encode()
            + content + b"\nendstream"
        )
        objects.append(
            (
                f"<< /Type /XObject /Subtype /Image /Width {img_w} "
                f"/Height {img_h} /ColorSpace /DeviceGray "
                f"/BitsPerComponent 8 /Filter /FlateDecode "
                f"/Length {len(img_data)} >>\nstream\n"
            ).encode() + img_data + b"\nendstream"
        )

    out = bytearray(b"%PDF-1.4\n")
    offsets = [0]
    for num, body in enumerate(objects, start=1):
        offsets.append(len(out))
        out += f"{num} 0 obj\n".encode() + body + b"\nendobj\n"
    xref_pos = len(out)
    out += f"xref\n0 {len(objects) + 1}\n".encode()
    out += b"0000000000 65535 f \n"
    for off in offsets[1:]:
        out += f"{off:010d} 00000 n \n".encode()
    out += (
        f"trailer\n<< /Size {len(objects) + 1} /Root {catalog_num} 0 R >>\n"
        f"startxref\n{xref_pos}\n%%EOF\n".encode()
    )
    return bytes(out)


def make_malformed(rng: random.Random, variant: int) -> bytes:
    variant = variant % 4
    if variant == 0:
        return b"%PDF"  # truncated header -> sniffed as 'other'
    if variant == 1:
        # valid header, garbage body -> PdfParseError -> parse_failure
        return b"%PDF-1.4\n" + bytes(rng.getrandbits(8) for _ in range(256))
    if variant == 2:
        return bytes(rng.getrandbits(8) for _ in range(128))  # random bytes
    return b"<html><body><p>unclosed paragraph with enough words " + (
        " ".join(rng.choice(_VOCAB) for _ in range(60)).encode()
    )  # unclosed HTML — parser-tolerant


# --------------------------------------------------------------------------
# Row/corpus assembly
# --------------------------------------------------------------------------

GIANT_ROW_MOD = 1000
GIANT_ROW_RESIDUES = (7, 13)


def make_row(i: int, seed: int = 42) -> dict:
    """Build row ``i`` of the corpus (pure function of (seed, i))."""
    rng = _rng(seed, i)
    cat = i % 100
    lang = LANGS[i % len(LANGS)]
    slug = f"doc-{i:08d}"
    site = i % 17
    url = f"https://site{site}.example/{lang}/{slug}"
    ts = EPOCH_US + i * 37_000_000  # +37 s per row

    giant = (i % GIANT_ROW_MOD) in GIANT_ROW_RESIDUES

    if giant:
        # ~1.5 MiB clean article — exceeds the 1 MiB truncation guard.
        paras = make_paragraphs(rng, 2600, words_per_sentence=(8, 14), sentences=(5, 8))
        title = f"Giant document {i}"
        payload = make_article_html(title, paras, rng)
        text = "\n\n".join(paras)
    elif cat < 55:
        n_paras = rng.randint(4, 10)
        paras = make_paragraphs(rng, n_paras)
        # Charset fixtures: i%13==7 -> legacy windows-1252 page with a
        # declared meta charset and non-ASCII content (the decoder must
        # honor the declaration, not mojibake it through latin-1   — the
        # golden text carries the accents); i%13==3 -> UTF-8 BOM page (the
        # decoder must strip the BOM from the extracted text).
        if i % 13 == 7:
            paras = [p + " Café déjà vu — señal única." for p in paras]
            title = f"Article {i}: résumé"
            payload = make_article_html(title, paras, rng, charset="windows-1252")
        elif i % 13 == 3:
            title = f"Article {i}: {' '.join(rng.choice(_VOCAB) for _ in range(3))}"
            payload = make_article_html(title, paras, rng, bom=True)
        else:
            title = f"Article {i}: {' '.join(rng.choice(_VOCAB) for _ in range(3))}"
            payload = make_article_html(title, paras, rng)
        text = "\n\n".join(paras)
    elif cat < 65:
        paras = make_paragraphs(rng, rng.randint(2, 4))
        payload = make_linkfarm_html(rng, paras)
        text = "\n\n".join(paras)
    elif cat < 70:
        paras = make_paragraphs(rng, rng.randint(3, 6))
        title = f"Scripted {i}"
        payload = make_article_html(title, paras, rng, heavy_scripts=True)
        text = "\n\n".join(paras)
    elif cat < 75:
        payload = make_short_html(rng)
        text = ""
    elif cat < 80:
        payload = make_garbage_html(rng, clause=i % 5)
        text = ""
    elif cat < 95:
        n_pages = rng.randint(1, 8) if cat < 90 else rng.randint(1, 3)
        two_column = cat in (86, 87, 92)
        # Two-column lines must be narrower than the gutter distance
        # (x=72 -> x=330 at ~6 pt/char => <= ~40 chars per line).
        words = (3, 5) if two_column else (5, 9)
        pages = []
        for _ in range(n_pages):
            n_lines = rng.randint(24, 40)
            pages.append([_sentence(rng, rng.randint(*words)).strip() for _ in range(n_lines)])
        # Encrypted fixtures (standard security handler — pdf_crypt.py).
        # Passwords come from the engine's test-deployment book
        # (functions/passwords.py) so the default ExtractConfig opens them:
        #   cat 84: owner-locked, EMPTY user password -> opens transparently
        #   cat 91: per-site saved password (attempt 1), or the configured
        #           default password (attempt 2) on every third row
        #   cat 94: unknown password -> password_required failure, text ""
        from .passwords import DEFAULT_PASSWORD

        encrypt = None
        # RC4-40 /R2, RC4-128 /R3, AES-128 /V4 /R4, AES-256 /V5 /R6
        enc_v = (1, 2, 4, 5)[i % 4]
        if cat == 84:
            encrypt = {"user_pw": "", "owner_pw": f"owner-{site}", "v": enc_v}
        elif cat == 91:
            pw = DEFAULT_PASSWORD if i % 3 == 0 else f"pw-{site}"
            encrypt = {"user_pw": pw, "owner_pw": f"owner-{site}", "v": enc_v}
        elif cat == 94:
            encrypt = {"user_pw": f"secret-{i}", "owner_pw": f"hidden-{i}", "v": enc_v}
        payload = make_pdf(
            pages,
            rng,
            # Filter rotation over the compressed half: mostly Flate, with
            # LZWDecode (i%8==0), RunLengthDecode (i%8==4) and
            # ASCII85Decode (i%16==6) slices — extracted text is
            # byte-identical across filters, so goldens and the corpus
            # content hash are unchanged by the re-encoding.
            compress=(
                False if i % 2 else
                ("lzw" if i % 8 == 0 else
                 ("rle" if i % 8 == 4 else
                  ("a85" if i % 16 == 6 else True)))
            ),
            two_column=two_column,
            use_tm=(cat in (88, 89, 93)),
            encrypt=encrypt,
            # ~1 in 5 PDFs (incl. encrypted ones) use the PDF 1.5+
            # compressed-object layout, and ~1 in 7 a composite
            # Type0/Identity-H font with a /ToUnicode CMap; text goldens
            # are unchanged by either re-encoding.
            objstm=(i % 5 == 1),
            cid_font=(i % 7 == 2),
        )
        if encrypt is None and i % 7 != 2 and i % 11 == 5:
            # Incrementally-updated document (§7.5.6): page 0's content is
            # replaced by an appended object with the same number — the
            # golden text is the UPDATED page (last-definition-wins).
            # Excluded: encrypted docs (replacement would need the object
            # crypt) and CID-font docs (replacement uses literal strings).
            new_lines = [
                _sentence(rng, rng.randint(*words)).strip()
                for _ in range(rng.randint(6, 14))
            ]
            payload = append_incremental_update(payload, 0, new_lines, rng)
            pages[0] = new_lines
        text = "" if cat == 94 else "\n\n".join("\n".join(p) for p in pages)
    else:
        payload = make_malformed(rng, variant=i)
        text = ""

    return {"url": url, "warc_ts": ts, "html": payload, "text": text, "lang": lang}


PAGES_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("html", pa.binary()),
        ("text", pa.string()),
        ("lang", pa.string()),
    ]
)


def gen_pages_table(n_rows: int, seed: int = 42, start: int = 0) -> pa.Table:
    """Materialize rows [start, start+n_rows) as an Arrow table."""
    rows = [make_row(i, seed) for i in range(start, start + n_rows)]
    return pa.Table.from_pylist(rows, schema=PAGES_SCHEMA)


def write_pages_parquet(path: str, n_rows: int, seed: int = 42, rows_per_file: int = 10_000) -> None:
    """Write the corpus as a directory of Parquet shards (resumable layout:
    many part files, never one giant file)."""
    import os

    import pyarrow.parquet as pq

    os.makedirs(path, exist_ok=True)
    start = 0
    part = 0
    while start < n_rows:
        n = min(rows_per_file, n_rows - start)
        pq.write_table(
            gen_pages_table(n, seed=seed, start=start),
            os.path.join(path, f"part-{part:05d}.parquet"),
        )
        start += n
        part += 1


def make_scanned_row(i: int, seed: int = 42) -> dict:
    """Row ``i`` of the scanned-document corpus (pure function of
    (seed, i); PAGES_SCHEMA, so the extraction pipeline runs unchanged).

    ``html`` is a make_scanned_pdf payload — text exists only as pixels;
    ``text`` is the planted golden: the exact combined document text the
    OCR ladder should recover, pre-rendered in the combine_pages framing
    (``--- PAGE N ---``) so the eval is a straight string equality against
    the pipeline's doc_text. Every third document is a psm-trap layout
    (short header + distant body: per-page expected text is
    ``header\\n\\nbody`` — the psm-3 two-block segmentation)."""
    from .render import combine_pages

    rng = _rng(seed + 1_000_003, i)  # stream disjoint from make_row's
    lang = LANGS[i % len(LANGS)]
    url = f"https://scan{i % 11}.example/{lang}/scan-{i:08d}"
    ts = EPOCH_US + i * 41_000_000
    trap = i % 3 == 0
    n_pages = 1 + i % 3
    page_lines: List[List[str]] = []
    expected: List[Tuple[int, str]] = []
    for p in range(n_pages):
        n_lines = rng.randint(6, 12)
        lines = [
            " ".join(_sentence(rng, rng.randint(4, 8)).split())
            for _ in range(n_lines)
        ]
        if trap:
            header = f"p. {p + 1}"
            page_lines.append([header] + lines)
            expected.append((p + 1, header + "\n\n" + "\n".join(lines)))
        else:
            page_lines.append(lines)
            expected.append((p + 1, "\n".join(lines)))
    payload = make_scanned_pdf(page_lines, rng, psm_trap=trap)
    return {
        "url": url,
        "warc_ts": ts,
        "html": payload,
        "text": combine_pages(expected),
        "lang": lang,
    }


FEED_EPOCH_BASE = 1_600_000_000  # fixed UTC origin for feed timestamps


def make_feed_page(doc_id: int, source: str, lang: str) -> tuple[bytes, str]:
    """Deterministic RSS/Atom feed document from the document's own columns —
    fixture for functions/feeds.py. Branch coverage:

    - doc_id%2==0 -> RSS 2.0 (RFC 822 pubDates); odd -> Atom (ISO 8601
      ``updated``, namespaced tags, rel="self" decoy link that must lose to
      the rel-less alternate).
    - 1 + doc_id%3 items; item i: title ``Item {doc_id}-{i}``, link
      ``https://{source}.example.com/post/{doc_id}/{i}``, timestamp epoch
      ``FEED_EPOCH_BASE + doc_id*3600 + i*60``.
    - doc_id%11==0 -> truncated XML (no closing root tag): malformed,
      parse_feed returns None, no rows.
    - A commented-out decoy item that ElementTree must drop.
    """
    from datetime import datetime, timezone
    from email.utils import format_datetime

    url = f"https://{source}.example.com/feed/{doc_id}.xml"
    n_items = 1 + doc_id % 3
    stamps = [
        datetime.fromtimestamp(
            FEED_EPOCH_BASE + doc_id * 3600 + i * 60, tz=timezone.utc
        )
        for i in range(n_items)
    ]
    title = f"Feed {source} {doc_id}"
    if doc_id % 2 == 0:
        items = "".join(
            f"<item><title>Item {doc_id}-{i}</title>"
            f"<link>https://{source}.example.com/post/{doc_id}/{i}</link>"
            f"<pubDate>{format_datetime(stamps[i])}</pubDate></item>"
            for i in range(n_items)
        )
        decoy = "<!-- <item><title>NOPE</title></item> -->"
        body = (
            f'<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<rss version="2.0"><channel><title>{title}</title>'
            f"<language>{lang}</language>{decoy}{items}</channel></rss>"
        )
    else:
        entries = "".join(
            f"<entry><title>Item {doc_id}-{i}</title>"
            f'<link rel="self" href="https://{source}.example.com/feed/{doc_id}.xml"/>'
            f'<link href="https://{source}.example.com/post/{doc_id}/{i}"/>'
            f"<updated>{stamps[i].isoformat().replace('+00:00', 'Z')}</updated></entry>"
            for i in range(n_items)
        )
        decoy = "<!-- <entry><title>NOPE</title></entry> -->"
        body = (
            f'<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<feed xmlns="http://www.w3.org/2005/Atom"><title>{title}</title>'
            f"{decoy}{entries}</feed>"
        )
    if doc_id % 11 == 0:
        body = body[: len(body) // 2]  # truncated: malformed XML
    return body.encode("utf-8"), url


def make_pdf_attachment_doc(doc_id: int, source: str) -> tuple[bytes, str]:
    """Deterministic PDF with embedded-file attachments — fixture showing
    that embedded-file streams never leak into page text. 1 + doc_id%2
    attachments named ``att-{doc_id}-{k}.txt`` with content
    ``attachment {doc_id}-{k} from {source}\\n`` x (2+k); attachment 0 is
    Flate-compressed, attachment 1 raw. doc_id%3==0 routes the name tree
    through a /Kids intermediate node."""
    import zlib as _z

    url = f"https://{source}.example.com/att/{doc_id}"
    content = f"BT /F1 12 Tf 72 720 Td (Att {doc_id}) Tj ET".encode()
    n_att = 1 + doc_id % 2

    objs = []
    name_pairs = []
    for k in range(n_att):
        data = (f"attachment {doc_id}-{k} from {source}\n" * (2 + k)).encode()
        snum, fnum = 20 + 2 * k, 21 + 2 * k
        if k == 0:
            enc = _z.compress(data)
            objs.append(
                f"{snum} 0 obj << /Type /EmbeddedFile /Filter /FlateDecode "
                f"/Length {len(enc)} >>\n".encode()
                + b"stream\n" + enc + b"\nendstream endobj\n"
            )
        else:
            objs.append(
                f"{snum} 0 obj << /Type /EmbeddedFile /Length {len(data)} >>\n".encode()
                + b"stream\n" + data + b"\nendstream endobj\n"
            )
        objs.append(
            f"{fnum} 0 obj << /Type /Filespec /F (att-{doc_id}-{k}.txt) "
            f"/EF << /F {snum} 0 R >> >> endobj\n".encode()
        )
        name_pairs.append(f"(att-{doc_id}-{k}.txt) {fnum} 0 R")
    names_arr = " ".join(name_pairs)
    if doc_id % 3 == 0:
        # /Kids level: 10 = tree root -> 11 = leaf with the /Names array
        objs.append(b"10 0 obj << /Kids [11 0 R] >> endobj\n")
        objs.append(f"11 0 obj << /Names [{names_arr}] >> endobj\n".encode())
    else:
        objs.append(f"10 0 obj << /Names [{names_arr}] >> endobj\n".encode())

    pdf = (
        b"%PDF-1.4\n"
        b"1 0 obj << /Type /Catalog /Pages 2 0 R "
        b"/Names << /EmbeddedFiles 10 0 R >> >> endobj\n"
        b"2 0 obj << /Type /Pages /Kids [3 0 R] /Count 1 >> endobj\n"
        b"3 0 obj << /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
        b"/Contents 4 0 R /Resources << /Font << /F1 5 0 R >> >> >> endobj\n"
        b"4 0 obj << /Length " + str(len(content)).encode() + b" >>\n"
        b"stream\n" + content + b"\nendstream endobj\n"
        b"5 0 obj << /Type /Font /Subtype /Type1 /BaseFont /Helvetica >> endobj\n"
        + b"".join(objs)
        + b"trailer << /Root 1 0 R >>\n%%EOF\n"
    )
    return pdf, url


def make_pdf_font_doc(doc_id: int, source: str) -> tuple[bytes, str]:
    """Deterministic PDF with a varied font inventory — fixture showing that
    extra, embedded and dangling font resources leave the text intact.
    Always /F1 Type1 Helvetica (not embedded);
    doc_id%2==0 adds /F2 TrueType ``Body{doc_id%5}`` with a descriptor
    carrying /FontFile2 (embedded); doc_id%3==0 adds /F3 Type0
    ``CJK{doc_id%4}`` whose descriptor lives on the descendant CIDFont
    and has NO font program (not embedded); doc_id%4==1 adds a dangling
    /F9 ref that must be skipped."""
    url = f"https://{source}.example.com/fnt/{doc_id}"
    content = f"BT /F1 12 Tf 72 720 Td (Fonts {doc_id}) Tj ET".encode()

    entries = ["/F1 5 0 R"]
    objs = []
    if doc_id % 2 == 0:
        entries.append("/F2 6 0 R")
        objs.append(
            f"6 0 obj << /Type /Font /Subtype /TrueType "
            f"/BaseFont /Body{doc_id % 5} /FontDescriptor 7 0 R >> endobj\n"
            .encode()
        )
        prog = b"\x00\x01FAKEGLYFPROGRAM!"
        objs.append(
            f"7 0 obj << /Type /FontDescriptor /FontName /Body{doc_id % 5} "
            f"/Flags 4 /FontFile2 12 0 R >> endobj\n".encode()
        )
        objs.append(
            f"12 0 obj << /Length {len(prog)} >>\n".encode()
            + b"stream\n" + prog + b"\nendstream endobj\n"
        )
    if doc_id % 3 == 0:
        entries.append("/F3 8 0 R")
        objs.append(
            f"8 0 obj << /Type /Font /Subtype /Type0 /BaseFont /CJK{doc_id % 4} "
            f"/Encoding /Identity-H /DescendantFonts [9 0 R] >> endobj\n"
            .encode()
        )
        objs.append(
            f"9 0 obj << /Type /Font /Subtype /CIDFontType2 "
            f"/BaseFont /CJK{doc_id % 4} /FontDescriptor 10 0 R >> endobj\n"
            .encode()
        )
        objs.append(
            f"10 0 obj << /Type /FontDescriptor /FontName /CJK{doc_id % 4} "
            f"/Flags 4 >> endobj\n".encode()
        )
    if doc_id % 4 == 1:
        entries.append("/F9 99 0 R")

    pdf = (
        b"%PDF-1.4\n"
        b"1 0 obj << /Type /Catalog /Pages 2 0 R >> endobj\n"
        b"2 0 obj << /Type /Pages /Kids [3 0 R] /Count 1 >> endobj\n"
        b"3 0 obj << /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
        b"/Contents 4 0 R /Resources << /Font << "
        + " ".join(entries).encode() + b" >> >> >> endobj\n"
        b"4 0 obj << /Length " + str(len(content)).encode() + b" >>\n"
        b"stream\n" + content + b"\nendstream endobj\n"
        b"5 0 obj << /Type /Font /Subtype /Type1 /BaseFont /Helvetica >> endobj\n"
        + b"".join(objs)
        + b"trailer << /Root 1 0 R >>\n%%EOF\n"
    )
    return pdf, url


def make_pdf_ocg_doc(doc_id: int, source: str) -> tuple[bytes, str]:
    """Deterministic PDF with optional-content layers — fixture for the
    hidden-layer text drop. Two OCGs:
    (Main) always ON, (Watermark) OFF on even doc_ids (its /OC-marked
    text must vanish from extraction) and ON on odd. An /Artifact BMC
    scope (no /OC) wraps decoration text that stays visible — exercises
    marked-content nesting without optional content."""
    url = f"https://{source}.example.com/ocg/{doc_id}"
    content = (
        f"/OC /MC0 BDC BT /F1 12 Tf 72 720 Td (Body {doc_id}) Tj ET EMC\n"
        f"/Artifact BMC BT /F1 9 Tf 72 700 Td (Deco {doc_id}) Tj ET EMC\n"
        f"/OC /MC1 BDC BT /F1 48 Tf 200 400 Td (WM {doc_id}) Tj ET EMC"
    ).encode()
    off = "/OFF [21 0 R]" if doc_id % 2 == 0 else ""
    pdf = (
        b"%PDF-1.5\n"
        b"1 0 obj << /Type /Catalog /Pages 2 0 R /OCProperties << "
        b"/OCGs [20 0 R 21 0 R] /D << " + off.encode() + b" >> >> >> endobj\n"
        b"2 0 obj << /Type /Pages /Kids [3 0 R] /Count 1 >> endobj\n"
        b"3 0 obj << /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
        b"/Contents 4 0 R /Resources << /Font << /F1 5 0 R >> "
        b"/Properties << /MC0 20 0 R /MC1 21 0 R >> >> >> endobj\n"
        b"4 0 obj << /Length " + str(len(content)).encode() + b" >>\n"
        b"stream\n" + content + b"\nendstream endobj\n"
        b"5 0 obj << /Type /Font /Subtype /Type1 /BaseFont /Helvetica >> endobj\n"
        b"20 0 obj << /Type /OCG /Name (Main) >> endobj\n"
        b"21 0 obj << /Type /OCG /Name (Watermark) >> endobj\n"
        b"trailer << /Root 1 0 R >>\n%%EOF\n"
    )
    return pdf, url


def make_pdf_tagged_doc(doc_id: int, source: str) -> tuple[bytes, str]:
    """Deterministic TAGGED PDF (logical structure, ISO 32000-1 §14.7) —
    fixture showing that plain extraction keeps every span, marked or not.
    2 + doc_id%3 structure elements: an H1 title then paragraphs whose
    roles alternate /Para (mapped to /P via /RoleMap) and /P directly, each
    an inline-dict ``<</MCID n>> BDC`` scope. An /Artifact BMC page-number
    span and a completely unmarked span belong to no structure element."""
    url = f"https://{source}.example.com/tagged/{doc_id}"
    n_para = 1 + (2 + doc_id % 3) - 1  # elements beyond the H1
    parts = [
        f"/H1 <</MCID 0>> BDC BT /F1 16 Tf 72 720 Td (Title {doc_id}) Tj ET EMC"
    ]
    for i in range(1, n_para):
        parts.append(
            f"/P <</MCID {i}>> BDC BT /F1 12 Tf 72 {720 - 24 * i} Td "
            f"(Para {doc_id}-{i}) Tj ET EMC"
        )
    parts.append("/Artifact BMC BT /F1 8 Tf 280 40 Td (Page 1) Tj ET EMC")
    parts.append("BT /F1 8 Tf 400 40 Td (loose) Tj ET")
    content = "\n".join(parts).encode()

    elems = []
    kid_refs = " ".join(f"{20 + i} 0 R" for i in range(n_para))
    for i in range(n_para):
        role = "/H1" if i == 0 else ("/Para" if i % 2 == 1 else "/P")
        elems.append(
            f"{20 + i} 0 obj << /S {role} /K {i} /Pg 3 0 R >> endobj\n".encode()
        )
    pdf = (
        b"%PDF-1.7\n"
        b"1 0 obj << /Type /Catalog /Pages 2 0 R /MarkInfo << /Marked true >> "
        b"/StructTreeRoot 10 0 R >> endobj\n"
        b"2 0 obj << /Type /Pages /Kids [3 0 R] /Count 1 >> endobj\n"
        b"3 0 obj << /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
        b"/Contents 4 0 R /Resources << /Font << /F1 5 0 R >> >> >> endobj\n"
        b"4 0 obj << /Length " + str(len(content)).encode() + b" >>\n"
        b"stream\n" + content + b"\nendstream endobj\n"
        b"5 0 obj << /Type /Font /Subtype /Type1 /BaseFont /Helvetica >> endobj\n"
        b"10 0 obj << /Type /StructTreeRoot /K 11 0 R "
        b"/RoleMap << /Para /P >> >> endobj\n"
        b"11 0 obj << /S /Document /K [" + kid_refs.encode() + b"] >> endobj\n"
        + b"".join(elems) +
        b"trailer << /Root 1 0 R >>\n%%EOF\n"
    )
    return pdf, url
