"""Unit tests for the from-scratch PDF subset parser against our writer."""

import os
import random

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from service1_text_extraction_ray.functions.extract import (
    METHOD_PDF,
    ExtractConfig,
    extract_document,
)
from service1_text_extraction_ray.functions.html_extract import dump_layout
from service1_text_extraction_ray.functions.pdf_extract import (
    PdfParseError,
    Span,
    _assemble_page,
    _interpret_text,
    _read_dict,
    _read_literal_string,
    _tokenize,
    _union_bbox,
    open_pdf,
    parse_pdf,
    layout_spans,
    pdf_layout_json,
)
from service1_text_extraction_ray.functions.synth import gen_pages_table, make_pdf


def rng():
    return random.Random(7)


def test_single_page_roundtrip():
    lines = ["First line of text.", "Second line of text.", "Third line here."]
    pdf = make_pdf([lines], rng())
    pages = parse_pdf(pdf)
    assert len(pages) == 1
    assert pages[0].text == "\n".join(lines)


def test_multi_page_order():
    pdf = make_pdf([["Page one text."], ["Page two text."], ["Page three text."]], rng())
    pages = parse_pdf(pdf)
    assert [p.text for p in pages] == ["Page one text.", "Page two text.", "Page three text."]


def test_flatedecode_roundtrip():
    lines = ["Compressed stream content line %d." % i for i in range(10)]
    pdf = make_pdf([lines], rng(), compress=True)
    pages = parse_pdf(pdf)
    assert pages[0].text == "\n".join(lines)


def test_two_column_reading_order():
    left = ["L one", "L two", "L three"]
    right = ["R one", "R two", "R three"]
    pdf = make_pdf([left + right], rng(), two_column=True)
    pages = parse_pdf(pdf)
    assert pages[0].text.split("\n") == left + right


def test_out_of_order_tm_placements():
    lines = [f"Line number {i} text" for i in range(12)]
    pdf = make_pdf([lines], rng(), use_tm=True)
    pages = parse_pdf(pdf)
    assert pages[0].text.split("\n") == lines


def test_max_pages_limit():
    pdf = make_pdf([["A."], ["B."], ["C."]], rng())
    assert len(parse_pdf(pdf, max_pages=2)) == 2
    assert len(parse_pdf(pdf, max_pages=None)) == 3


def test_layout_tree_shape():
    pdf = make_pdf([["Alpha beta gamma.", "Delta epsilon zeta."]], rng())
    layout = parse_pdf(pdf)[0].layout
    assert layout["width"] == 612.0 and layout["height"] == 792.0
    assert layout["rotation"] == 0
    assert layout["blocks"]
    block = layout["blocks"][0]
    assert set(block) == {"bbox", "lines"}
    line = block["lines"][0]
    span = line["spans"][0]
    assert set(span) == {"text", "bbox", "font", "size", "flags"}
    assert span["font"] == "F1" and span["size"] == 12.0
    # y-down coordinates: first line near top of the page (720 pdf-y -> 72 y-down)
    assert 50 < line["bbox"][1] < 90


def test_escaped_strings():
    content = rb"BT /F1 12 Tf 72 720 Td (paren \( and \) plus \\ back) Tj ET"
    spans = _interpret_text(content)
    assert spans[0].text == "paren ( and ) plus \\ back"


def test_octal_and_hex_strings():
    s, _ = _read_literal_string(rb"(\101\102\103)", 0)
    assert s == b"ABC"
    toks = list(_tokenize(b"<48656C6C6F> Tj"))
    assert toks[0] == ("str", b"Hello")


@pytest.mark.parametrize("eol", [b"\r", b"\n", b"\r\n"])
def test_comment_ends_at_any_end_of_line(eol):
    # ISO 32000-1 §7.2.3: CR, LF and CRLF each end a % comment
    spans = _interpret_text(b"BT /F1 12 Tf 72 720 Td % note" + eol + b"(Kept?) Tj ET")
    assert [s.text for s in spans] == ["Kept?"]


def test_tj_kerning_no_word_split():
    content = rb"BT /F1 12 Tf 72 720 Td [(hel) -20 (lo world)] TJ ET"
    spans = _interpret_text(content)
    pdf = make_pdf([["x"]], rng())  # any page; we test assembly below via parse
    # Direct line-assembly check:
    from service1_text_extraction_ray.functions.pdf_extract import _assemble_page

    page = _assemble_page(spans, 612.0, 792.0)
    assert page.text == "hello world"


def test_garbage_body_raises():
    with pytest.raises(PdfParseError):
        parse_pdf(b"%PDF-1.4\n\x00\x01\x02 not a real pdf")


def test_missing_header_raises():
    with pytest.raises(PdfParseError):
        parse_pdf(b"<html>not a pdf</html>")


def test_truncated_stream_is_contained():
    pdf = make_pdf([["Some content line that is fine."]], rng())
    with pytest.raises(PdfParseError):
        parse_pdf(pdf[: len(pdf) // 3])


def _rewrite_stream_filter(pdf: bytes, transform, filter_name: bytes) -> bytes:
    """Re-encode the first content stream of a synth PDF with a new filter.

    Finds the `<< /Length N >>\\nstream\\n...\\nendstream` of the content
    object, applies `transform` to the body, and rewrites Length + /Filter.
    The synth writer emits uncompressed streams when compress=False.
    """
    import re as _re

    m = _re.search(rb"<< /Length (\d+) >>\nstream\n", pdf)
    assert m, "no raw stream found"
    start = m.end()
    length = int(m.group(1))
    body = pdf[start : start + length]
    new_body = transform(body)
    head = b"<< /Length %d /Filter %s >>\nstream\n" % (len(new_body), filter_name)
    return pdf[: m.start()] + head + new_body + pdf[start + length :]


def test_asciihex_filter_roundtrip():
    import binascii

    lines = ["Hex encoded stream line.", "Another line of text."]
    pdf = make_pdf([lines], rng(), compress=False)
    hexed = _rewrite_stream_filter(
        pdf, lambda b: binascii.hexlify(b) + b">", b"/ASCIIHexDecode"
    )
    pages = parse_pdf(hexed)
    assert pages[0].text == "\n".join(lines)


def test_asciihex_whitespace_and_odd_digit():
    import binascii

    lines = ["Hi"]
    pdf = make_pdf([lines], rng(), compress=False)

    def hex_with_ws(b: bytes) -> bytes:
        h = binascii.hexlify(b)
        spaced = b"\n".join(h[i : i + 16] for i in range(0, len(h), 16))
        return spaced + b">"

    pages = parse_pdf(_rewrite_stream_filter(pdf, hex_with_ws, b"/ASCIIHexDecode"))
    assert pages[0].text == "Hi"


def test_filter_chain_hex_then_flate():
    import binascii
    import zlib as _z

    lines = ["Chained filter content here."]
    pdf = make_pdf([lines], rng(), compress=False)
    chained = _rewrite_stream_filter(
        pdf,
        lambda b: binascii.hexlify(_z.compress(b)) + b">",
        b"[ /ASCIIHexDecode /FlateDecode ]",
    )
    pages = parse_pdf(chained)
    assert pages[0].text == "\n".join(lines)


def test_unsupported_filter_isolates_to_empty_page():
    """An LZW page must become an empty failed page (per-page isolation,
    core_pdf_processor.py:202-209 semantics) — never junk text from raw
    bytes, never a doc-level crash."""
    pdf = make_pdf([["Some text."], ["Good page text."]], rng(), compress=False)
    lzw = _rewrite_stream_filter(pdf, lambda b: b, b"/LZWDecode")
    pages = parse_pdf(lzw)
    assert len(pages) == 2
    assert pages[0].text == ""          # filtered page fails clean
    assert pages[1].text == "Good page text."   # sibling page unaffected


def test_rotate_inherited_and_overridden():
    """/Rotate is an inheritable page attribute: a value on the Pages node
    applies to every leaf; a leaf override wins (PDF 1.7 §7.7.3.4)."""
    pdf = make_pdf([["Page one."], ["Page two."]], rng(), compress=False)
    # Put /Rotate 90 on the Pages node and /Rotate 180 on the second page.
    assert b"/Type /Pages" in pdf
    pdf = pdf.replace(b"/Type /Pages", b"/Type /Pages /Rotate 90", 1)
    # Second /Type /Page occurrence gets the override.
    first = pdf.index(b"/Type /Page ")
    second = pdf.index(b"/Type /Page ", first + 1)
    pdf = pdf[:second] + b"/Type /Page /Rotate 180 " + pdf[second + len(b"/Type /Page "):]
    pages = parse_pdf(pdf)
    assert pages[0].layout["rotation"] == 90    # inherited
    assert pages[1].layout["rotation"] == 180   # leaf override
    assert pages[0].text == "Page one."         # text unchanged by rotation


def test_mediabox_inherited_from_pages_node():
    pdf = make_pdf([["Some text."]], rng(), compress=False)
    # Move the MediaBox from the page to the Pages node: delete it on the
    # page, add a custom one on the Pages node.
    pdf = pdf.replace(b"/MediaBox [0 0 612 792] ", b"", 1)
    pdf = pdf.replace(b"/Type /Pages", b"/Type /Pages /MediaBox [0 0 300 400]", 1)
    pages = parse_pdf(pdf)
    assert pages[0].layout["width"] == 300.0
    assert pages[0].layout["height"] == 400.0


def test_indirect_filter_ref_isolates_to_empty_page():
    """'/Filter 9 0 R' means an unresolvable (in-subset) filter applies:
    the page must fail clean, never tokenize still-encoded bytes."""
    import zlib as _z

    pdf = make_pdf([["Secret text."]], rng(), compress=False)
    filtered = _rewrite_stream_filter(pdf, lambda b: _z.compress(b), b"9 0 R")
    pages = parse_pdf(filtered)
    assert pages[0].text == ""


# --------------------------------------------------------------------------
# PDF 1.5+ object streams (/Type /ObjStm) + cross-reference-stream trailer
# --------------------------------------------------------------------------


def _two_pages():
    return [
        [f"Line number {i} with several words here." for i in range(20)],
        [f"Second page line {i} more words." for i in range(15)],
    ]


def test_objstm_text_matches_classic_layout():
    """The compressed-object layout must extract byte-identically to the
    classic layout of the same document (same content streams)."""
    classic = make_pdf(_two_pages(), rng())
    packed = make_pdf(_two_pages(), rng(), objstm=True)
    assert b"trailer" not in packed          # xref-stream file, no trailer
    assert b"/Type /ObjStm" in packed
    t_classic = [p.text for p in parse_pdf(classic)]
    t_packed = [p.text for p in parse_pdf(packed)]
    assert t_packed == t_classic
    assert len(t_packed) == 2


def test_objstm_with_compressed_contents():
    t1 = [p.text for p in parse_pdf(make_pdf(_two_pages(), rng(), compress=True))]
    t2 = [p.text for p in parse_pdf(make_pdf(_two_pages(), rng(), compress=True, objstm=True))]
    assert t1 == t2


@pytest.mark.parametrize("v", [1, 2, 4])
def test_objstm_encrypted_deferred_root(v):
    """Encrypted ObjStm: the catalog lives inside an encrypted stream, so
    root resolution must defer until authenticate() arms the key."""
    enc = {"user_pw": "sesame", "owner_pw": "own", "v": v}
    pdf = make_pdf(_two_pages(), rng(), objstm=True, encrypt=enc)
    doc = open_pdf(pdf)
    assert doc.needs_pass
    assert not doc.authenticate("wrong")
    assert doc.authenticate("sesame")
    plain = [p.text for p in parse_pdf(make_pdf(_two_pages(), rng()))]
    assert [p.text for p in doc.extract_pages()] == plain


def test_objstm_owner_locked_opens_transparently():
    enc = {"user_pw": "", "owner_pw": "own", "v": 4}
    pdf = make_pdf(_two_pages(), rng(), objstm=True, encrypt=enc)
    doc = open_pdf(pdf)
    assert not doc.needs_pass
    assert [p.text for p in doc.extract_pages()] == [
        p.text for p in parse_pdf(make_pdf(_two_pages(), rng()))
    ]


def test_objstm_truncated_header_raises():
    pdf = make_pdf([["Some text."]], rng(), objstm=True)
    # Corrupt /N upward so the header claims more pairs than exist.
    assert b"/Type /ObjStm /N 4" in pdf
    bad = pdf.replace(b"/Type /ObjStm /N 4", b"/Type /ObjStm /N 40", 1)
    with pytest.raises(PdfParseError):
        parse_pdf(bad)


def test_indirect_length_falls_back_to_endstream_scan():
    """'/Length 12 0 R' must not be misread as a direct length of 12 (nor
    backtrack to 1): the endstream scan resolves the real extent."""
    pdf = make_pdf([["Indirect length page text here."]], rng(), compress=False)
    ref = parse_pdf(pdf)[0].text
    assert ref
    # Rewrite the content stream's direct /Length to an indirect reference.
    import re as _re

    m = _re.search(rb"<< /Length (\d+) /?.*?>>\nstream\n", pdf)
    assert m is not None
    rewritten = pdf[: m.start()] + pdf[m.start():].replace(
        b"/Length " + m.group(1), b"/Length 12 0 R", 1
    )
    assert rewritten != pdf
    assert parse_pdf(rewritten)[0].text == ref


# --------------------------------------------------------------------------
# Composite (Type0/Identity-H) fonts with /ToUnicode CMaps
# --------------------------------------------------------------------------


def test_cid_font_matches_simple_font_text():
    classic = make_pdf(_two_pages(), rng())
    cid = make_pdf(_two_pages(), rng(), cid_font=True)
    assert b"/Identity-H" in cid and b"beginbf" in cid
    assert [p.text for p in parse_pdf(cid)] == [p.text for p in parse_pdf(classic)]


def test_cid_font_composes_with_compress_objstm_encrypt():
    ref = [p.text for p in parse_pdf(make_pdf(_two_pages(), rng()))]
    pdf = make_pdf(_two_pages(), rng(), compress=True, objstm=True, cid_font=True,
                   encrypt={"user_pw": "sesame", "owner_pw": "o", "v": 4})
    doc = open_pdf(pdf)
    assert doc.authenticate("sesame")
    assert [p.text for p in doc.extract_pages()] == ref


def test_cid_font_carries_non_latin_text():
    """Unicode beyond latin-1 is only expressible through the CID path —
    the round-trip must preserve it exactly (incl. the bfrange entries the
    contiguous codepoint runs produce)."""
    lines = ["Wörter — čćž § niño", "Ελληνικά κείμενο εδώ", "日本語 テキスト",
             "abcdefghij klmnopqrs"]  # a long ASCII run -> bfrange
    pdf = make_pdf([list([lines[0], lines[1], lines[2], lines[3]])], rng(), cid_font=True)
    assert parse_pdf(pdf)[0].text == "\n".join(lines)


def test_cid_font_unmapped_cid_yields_replacement_char():
    pdf = make_pdf([["abc"]], rng(), cid_font=True)
    # Point the content at a CID outside the CMap: replace the first hex
    # string with an unmapped CID (abc -> cids 1..3; 0x7fff is unmapped).
    import re as _re
    m = _re.search(rb"<([0-9a-f]{12})>", pdf)
    assert m is not None
    pdf2 = pdf.replace(m.group(0), b"<7fff" + m.group(1)[4:] + b">", 1)
    text = parse_pdf(pdf2)[0].text
    assert text.startswith("�")
    assert text[1:] == parse_pdf(pdf)[0].text[1:]


def test_tounicode_bfrange_array_destination_form():
    from service1_text_extraction_ray.functions.pdf_extract import _parse_tounicode

    cmap = b"""
1 beginbfrange
<0001> <0003> [<0041> <0042> <0043>]
endbfrange
1 beginbfchar
<0010> <00480049>
endbfchar
"""
    m = _parse_tounicode(cmap)
    assert m == {1: "A", 2: "B", 3: "C", 0x10: "HI"}


@pytest.mark.parametrize("body, want", [
    (b"<00 01> <0041>", {1: "A"}),  # white space inside a hex code (§7.3.4.3)
    (b"<0001> <0041>\n% <0005> <0042>\n", {1: "A"}),  # a comment hides its codes
    (b"<123> <0041>", {0x1230: "A"}),  # an odd-length code ends in an implied 0
])
def test_tounicode_reads_codes_by_the_hex_string_rules(body, want):
    from service1_text_extraction_ray.functions.pdf_extract import _parse_tounicode

    assert _parse_tounicode(b"1 beginbfchar\n" + body + b"\nendbfchar") == want


def test_tounicode_unterminated_string_keeps_the_entries_before_it():
    """A ``(`` with no ``)`` ends its section's body: the entries before it
    and every other section still map."""
    from service1_text_extraction_ray.functions.pdf_extract import _parse_tounicode

    cmap = b"""
2 beginbfrange
<0001> <0003> <0041>
<0010> <0011> ( <0061>
endbfrange
1 beginbfrange
<0020> <0021> <0030>
endbfrange
1 beginbfchar
<0005> <0058>
endbfchar
"""
    assert _parse_tounicode(cmap) == {
        1: "A", 2: "B", 3: "C", 0x20: "0", 0x21: "1", 5: "X"}


_BMP_CHARS = st.characters(max_codepoint=0xFFFF, blacklist_categories=("Cs",))
# what may stand between two tokens, and inside a hex code (white space only)
_CMAP_SPACE = [b"", b" ", b"\t", b"\r\n", b"\n", b"\f", b"\x00"]
_CMAP_GAP = _CMAP_SPACE + [b"\n% <0000> <0041> [<0042>]\n", b" %<0001><0043>\r"]


@settings(max_examples=150, deadline=None)
@given(pairs=st.lists(st.tuples(_BMP_CHARS, st.integers(0, 0xFFFF)), max_size=40,
                      unique_by=(lambda p: p[0], lambda p: p[1])),
       data=st.data())
def test_tounicode_round_trips_the_writers_cmap(pairs, data):
    """``synth._tounicode_cmap`` parses back to its map, also with white
    space and comments between tokens and white space inside hex codes."""
    import re

    from service1_text_extraction_ray.functions.pdf_extract import _parse_tounicode
    from service1_text_extraction_ray.functions.synth import _tounicode_cmap

    cmap = _tounicode_cmap(dict(pairs))
    want = {cid: ch for ch, cid in pairs}
    assert _parse_tounicode(cmap) == want

    space, gap = st.sampled_from(_CMAP_SPACE), st.sampled_from(_CMAP_GAP)
    spaced = re.sub(rb"<([0-9a-f]+)>", lambda m: b"<" + b"".join(
        data.draw(space) + bytes([c]) for c in m.group(1)) + data.draw(space) + b">", cmap)
    noisy = re.sub(rb"(?<=>)[ \n](?=<)", lambda m: data.draw(gap), spaced)
    assert _parse_tounicode(noisy) == want


class TestFormXObjects:
    def test_form_header_text_identical_to_inline(self):
        import random

        from service1_text_extraction_ray.functions.pdf_extract import parse_pdf
        from service1_text_extraction_ray.functions.synth import make_pdf

        pages = [["Head A", "Head B", "Body 1", "Body 2"], ["X", "Y", "Z"]]
        inline = parse_pdf(make_pdf(pages, random.Random(1)))
        formed = parse_pdf(make_pdf(pages, random.Random(1), form_header=True))
        assert [p.text for p in formed] == [p.text for p in inline]
        # line positions are identical (the fixture writes the form in page
        # coordinates); span GROUPING and the ~0.24pt TJ-kern width estimate
        # differ because the TJ-split cadence restarts per stream — fixture
        # artifacts, not parser behavior — so compare line origins.
        def line_origins(p):
            return [
                (ln["bbox"][0], ln["bbox"][1], ln["bbox"][3])
                for b in p.layout["blocks"] for ln in b["lines"]
            ]

        assert [line_origins(p) for p in formed] == [line_origins(p) for p in inline]

    def test_form_composes_with_crypt_objstm_cid(self):
        import random

        from service1_text_extraction_ray.functions.pdf_extract import parse_pdf
        from service1_text_extraction_ray.functions.synth import make_pdf

        pages = [["Top secret head", "and second line", "then the body"]]
        pdf = make_pdf(
            pages, random.Random(2), form_header=True, compress=True,
            objstm=True, cid_font=True,
            encrypt={"user_pw": "pw", "owner_pw": "o", "v": 5},
        )
        out = parse_pdf(pdf, password="pw")
        assert out[0].text == "Top secret head\nand second line\nthen the body"

    def test_missing_form_ref_is_tolerant(self):
        import random

        from service1_text_extraction_ray.functions.pdf_extract import parse_pdf
        from service1_text_extraction_ray.functions.synth import make_pdf

        pdf = make_pdf([["H", "H2", "B"]], random.Random(3), form_header=True)
        # corrupt: retarget the XObject ref to a nonexistent object
        broken = pdf.replace(b"/XObject << /Fm0 6 0 R >>", b"/XObject << /Fm0 99 0 R >>")
        out = parse_pdf(broken)
        assert out[0].text == "B"  # body still extracted; missing form skipped


def test_lzw_rle_codec_roundtrip():
    from service1_text_extraction_ray.functions.pdf_extract import (
        _lzw_decode,
        _run_length_decode,
    )
    from service1_text_extraction_ray.functions.synth import (
        _lzw_encode,
        _rle_encode,
    )

    r = random.Random(7)
    cases = [
        b"",
        b"A",
        b"AAAA",
        b"ABABABABAB" * 50,
        bytes(r.randrange(256) for _ in range(5000)),   # crosses 9->10 bits
        bytes(r.randrange(4) for _ in range(40000)),    # crosses 10->11 bits
        b"\x00" * 1000 + b"\xff" * 300 + bytes(range(256)) * 3,
    ]
    for data in cases:
        assert _lzw_decode(_lzw_encode(data)) == data
        assert _run_length_decode(_rle_encode(data)) == data


def test_lzw_spec_example_codes():
    # Hand-derivable stream for "AAAA": Clear(256), 'A'(65), 258, 'A'(65),
    # EOD(257) at 9 bits each -> verifies bit packing + the deferred-entry
    # (code == next_code) branch against the published algorithm, not just
    # self-consistency with our encoder.
    from service1_text_extraction_ray.functions.pdf_extract import _lzw_decode

    bits = ""
    for code in (256, 65, 258, 65, 257):
        bits += format(code, "09b")
    bits += "0" * (-len(bits) % 8)
    raw = bytes(int(bits[i:i + 8], 2) for i in range(0, len(bits), 8))
    assert _lzw_decode(raw) == b"AAAA"


def test_rle_spec_forms():
    from service1_text_extraction_ray.functions.pdf_extract import (
        _run_length_decode,
    )

    # literal run of 3, repeat 'B' x4, EOD
    assert _run_length_decode(b"\x02abc" + bytes([257 - 4]) + b"B\x80") == b"abcBBBB"
    with pytest.raises(Exception):
        _run_length_decode(b"\x05ab")  # truncated literal


def test_lzw_and_rle_pdfs_extract_identically():
    lines = ["Filter parity line %d with repeats aaaa bbbb." % i for i in range(30)]
    base = [p.text for p in parse_pdf(make_pdf([lines], rng(), compress=True))]
    for filt in ("lzw", "rle", False):
        got = [p.text for p in parse_pdf(make_pdf([lines], rng(), compress=filt))]
        assert got == base, filt


def test_incremental_update_replaces_page():
    from service1_text_extraction_ray.functions.synth import (
        append_incremental_update,
    )

    base_lines = [["Original page one line."], ["Untouched page two line."]]
    pdf = make_pdf(base_lines, rng())
    updated = append_incremental_update(pdf, 0, ["Replacement text wins."], rng())
    pages = parse_pdf(updated)
    assert pages[0].text == "Replacement text wins."
    assert pages[1].text == "Untouched page two line."
    # chain: a second update shadows the first
    updated2 = append_incremental_update(updated, 0, ["Second revision."], rng())
    assert parse_pdf(updated2)[0].text == "Second revision."


_PAGE = b"/Parent 2 0 R /MediaBox [0 0 612 792] /Contents 4 0 R"


def _one_page_pdf(content_dict: bytes, content: bytes, tail: bytes,
                  page: bytes = b"/Type /Page " + _PAGE) -> bytes:
    """Classic-layout PDF: catalog 1, pages 2, page 3 with ``page``'s
    entries, whose content stream is object 4 with ``content_dict``'s
    entries; ``tail`` follows the objects (more objects, the trailers)."""
    return (
        b"%PDF-1.4\n"
        b"1 0 obj << /Type /Catalog /Pages 2 0 R >> endobj\n"
        b"2 0 obj << /Type /Pages /Kids [3 0 R] /Count 1 >> endobj\n"
        b"3 0 obj << " + page + b" >> endobj\n"
        b"4 0 obj << /Length " + str(len(content)).encode() + content_dict
        + b">>\nstream\n" + content + b"\nendstream endobj\n" + tail
    )


def test_last_trailer_names_the_root_else_first_catalog():
    text = b"BT /F1 12 Tf 72 720 Td (Live catalog.) Tj ET"
    stale = (b"5 0 obj << /Type /Catalog /Pages 6 0 R >> endobj\n"
             b"6 0 obj << /Type /Pages /Kids [] /Count 0 >> endobj\n")
    # two incremental-update trailers: the last one's /Root wins
    pdf = _one_page_pdf(b" ", text, stale + b"trailer << /Root 5 0 R >>\n"
                        b"trailer << /Root 1 0 R >>\n%%EOF\n")
    assert [p.text for p in parse_pdf(pdf)] == ["Live catalog."]
    # the last trailer has no /Root: the first /Type /Catalog object wins
    pdf = _one_page_pdf(b" ", text, stale + b"trailer << /Root 5 0 R >>\n"
                        b"trailer << /Size 7 >>\n%%EOF\n")
    assert [p.text for p in parse_pdf(pdf)] == ["Live catalog."]
    pdf = _one_page_pdf(b" ", text, stale + b"trailer << /Root 5 0 R >>\n%%EOF\n")
    with pytest.raises(PdfParseError, match="empty page tree"):
        parse_pdf(pdf)


def test_hex_string_closing_a_dict_keeps_the_stream():
    # "<abcd>>>": the hex string's '>' must not pair with the dict's first
    # '>', which would end the dict a byte early and drop the stream
    text = b"BT /F1 12 Tf 72 720 Td (Hex before close.) Tj ET"
    pdf = _one_page_pdf(b" /Foo <abcd>", text, b"trailer << /Root 1 0 R >>\n")
    assert [p.text for p in parse_pdf(pdf)] == ["Hex before close."]
    # a stray '<' is one byte, not a string that swallows the '>>'
    assert _read_dict(b"<< /A < /B 1 >> tail", 0) == ({"A": "B"}, 15)


@pytest.mark.parametrize("v", [1, 5])
def test_malformed_hex_string_in_a_dict_drops_the_byte(v):
    """A byte that is neither a hex digit nor whitespace inside a dict's hex
    string (here the encryption dict's /O) is dropped, as in content: the
    string keeps its value and the document opens. A '<' whose first '>'
    starts the dict's '>>' stays one stray byte."""
    text = "Body behind a damaged /O."
    pdf = make_pdf([[text]], rng(), encrypt={"user_pw": "", "owner_pw": "o", "v": v})
    at = pdf.index(b"/O <") + 10
    damaged = pdf[:at] + b"\xdb" + pdf[at:]
    assert [p.text for p in parse_pdf(damaged)] == [text]
    assert _read_dict(b"<< /O <9\xdb8d> /P -4 >>", 0) == ({"O": b"\x98\xd0", "P": -4}, 21)
    assert _read_dict(b"<< /A <9\xdb /B 1 >> tail", 0) == ({"A": 9, "B": 1}, 17)


def test_stale_lower_generation_never_wins():
    from service1_text_extraction_ray.functions.synth import (
        append_incremental_update,
    )

    pdf = make_pdf([["Live high-generation content."]], rng())
    # bump the original content object (num 4) to generation 1, then append
    # a gen-0 "update": the gen-1 original must stay live
    pdf_gen1 = pdf.replace(b"4 0 obj", b"4 1 obj", 1)
    shadowed = append_incremental_update(pdf_gen1, 0, ["Stale freed object."], rng())
    assert parse_pdf(shadowed)[0].text == "Live high-generation content."


def test_ascii85_roundtrip_and_stdlib_interop():
    import base64

    from service1_text_extraction_ray.functions.pdf_extract import _ascii85_decode
    from service1_text_extraction_ray.functions.synth import _a85_encode

    r = random.Random(3)
    cases = [
        b"",
        b"M",
        b"Man ",
        b"\x00\x00\x00\x00" * 3 + b"tail",
        bytes(r.randrange(256) for _ in range(1031)),
    ]
    for data in cases:
        assert _ascii85_decode(_a85_encode(data)) == data
        # independent reference: stdlib Adobe-framed ascii85
        assert _ascii85_decode(base64.a85encode(data, adobe=True)) == data
    with pytest.raises(Exception):
        _ascii85_decode(b"!!z!!")  # 'z' inside a group
    with pytest.raises(Exception):
        _ascii85_decode(b"!~>")  # single trailing char


def test_a85_pdf_extracts_identically():
    lines = ["Ascii85 page line %d." % i for i in range(12)]
    base = [p.text for p in parse_pdf(make_pdf([lines], rng(), compress=True))]
    got = [p.text for p in parse_pdf(make_pdf([lines], rng(), compress="a85"))]
    assert got == base


def test_info_dictionary_roundtrip():
    from query_suite.functions.pdf_meta import PdfDocument

    info = {"Title": "A (tricky) title", "Author": "a\\b", "Producer": "p"}
    pdf = make_pdf([["Body line."]], rng(), info=info)
    got = PdfDocument(pdf).info()
    assert got["Title"] == "A (tricky) title"
    assert got["Author"] == "a\\b"
    # objstm layout: /Info rides the XRef stream dict
    pdf2 = make_pdf([["Body line."]], rng(), info=info, objstm=True)
    assert PdfDocument(pdf2).info()["Title"] == "A (tricky) title"
    # no info -> empty dict; encrypted -> empty dict (documented subset)
    assert PdfDocument(make_pdf([["x"]], rng())).info() == {}
    enc = make_pdf([["x"]], rng(), info=info,
                   encrypt={"user_pw": "", "owner_pw": "o", "v": 1})
    d = PdfDocument(enc)
    assert d.info() == {}


def _diff_pdf(
    encoding_entry: bytes,
    extra_objs: bytes = b"",
    string: bytes = b"(Caf\x82 na\x8fve r\xc8sum\x82)",
) -> bytes:
    """Minimal classic-layout PDF: one page, one Type1 font with the given
    /Encoding entry, the given literal string as the page text."""
    content = b"BT /F1 12 Tf 72 720 Td " + string + b" Tj ET"
    stream = (
        b"4 0 obj << /Length " + str(len(content)).encode() + b" >>\n"
        b"stream\n" + content + b"\nendstream endobj\n"
    )
    return (
        b"%PDF-1.4\n"
        b"1 0 obj << /Type /Catalog /Pages 2 0 R >> endobj\n"
        b"2 0 obj << /Type /Pages /Kids [3 0 R] /Count 1 >> endobj\n"
        b"3 0 obj << /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
        b"/Contents 4 0 R /Resources << /Font << /F1 5 0 R >> >> >> endobj\n"
        + stream +
        b"5 0 obj << /Type /Font /Subtype /Type1 /BaseFont /Helvetica "
        b"/Encoding " + encoding_entry + b" >> endobj\n"
        + extra_objs +
        b"trailer << /Root 1 0 R >>\n%%EOF\n"
    )


class TestEncodingDifferences:
    def test_inline_differences(self):
        pdf = _diff_pdf(
            b"<< /BaseEncoding /WinAnsiEncoding /Differences "
            b"[ 130 /eacute 143 /idieresis ] >>"
        )
        pages = parse_pdf(pdf)
        # 0x82 -> eacute, 0x8F -> idieresis, 0xC8 keeps latin-1 (È)
        assert pages[0].text == "Café naïve r\xc8sumé"

    def test_indirect_encoding_object_and_uniXXXX(self):
        pdf = _diff_pdf(
            b"6 0 R",
            extra_objs=(
                b"6 0 obj << /Type /Encoding /Differences "
                b"[ 130 /eacute /idieresis 200 /uni0142 ] >> endobj\n"
            ),
        )
        # consecutive names increment the code: 130->eacute, 131->idieresis;
        # 0x8F is NOT remapped here; 200 (0xC8) -> uni0142 (l-stroke)
        pages = parse_pdf(pdf)
        assert pages[0].text == "Café na\x8fve rłsumé"

    def test_unknown_glyph_names_keep_latin1(self):
        pdf = _diff_pdf(
            b"<< /Differences [ 130 /notarealglyphname ] >>"
        )
        pages = parse_pdf(pdf)
        assert pages[0].text == "Caf\x82 na\x8fve r\xc8sum\x82"

    def test_differences_do_not_touch_type0_path(self):
        # composite-font fixtures still decode through the CMap
        from service1_text_extraction_ray.functions.synth import make_pdf

        lines = ["Zażółć gęślą jaźń — unicode line one.",
                 "Druga linia tekstu w teście."]
        pdf = make_pdf([lines], rng(), cid_font=True)
        assert parse_pdf(pdf)[0].text == "\n".join(lines)


class TestBaseEncodings:
    def test_winansi_high_range(self):
        # 0x93/0x94 curly quotes, 0x80 euro, 0x99 trademark, 0x97 em dash
        pdf = _diff_pdf(
            b"/WinAnsiEncoding",
            string=b"(\x93quoted\x94 \x80 price\x99 \x97 dash)",
        )
        assert parse_pdf(pdf)[0].text == "“quoted” € price™ — dash"

    def test_macroman(self):
        pdf = _diff_pdf(b"/MacRomanEncoding", string=b"(caf\x8e \xd0 x)")
        expect = b"caf\x8e \xd0 x".decode("mac_roman")
        assert parse_pdf(pdf)[0].text == expect

    def test_winansi_base_plus_differences_override(self):
        pdf = _diff_pdf(
            b"<< /BaseEncoding /WinAnsiEncoding /Differences [ 147 /bullet ] >>",
            string=b"(\x93 \x94)",
        )
        # 0x93 overridden to bullet by Differences; 0x94 stays WinAnsi
        assert parse_pdf(pdf)[0].text == "• ”"

    def test_no_declared_encoding_keeps_latin1(self):
        pdf = _diff_pdf(b"<< >>")
        assert parse_pdf(pdf)[0].text == "Caf\x82 na\x8fve r\xc8sum\x82"


class TestLinkAnnotations:
    def test_links_indirect_inline_and_decoys(self):
        from query_suite.functions.fixtures import make_pdf_link_doc
        from query_suite.functions.pdf_meta import PdfDocument

        pdf, _ = make_pdf_link_doc(2, "srcA")  # 4 links
        links = PdfDocument(pdf).links()
        assert [u for _, u in links] == [
            f"https://ref{(2 * 5 + i) % 17}.example.net/p/2/{i}"
            for i in range(4)
        ]
        assert all(p == 1 for p, _ in links)
        # decoys excluded: Square annot + internal GoTo link
        assert not any("page2" in u for _, u in links)

    def test_no_annots_page_yields_empty(self):
        pdf = make_pdf([["Some plain page text."]], rng())
        from query_suite.functions.pdf_meta import PdfDocument

        assert PdfDocument(pdf).links() == []

    def test_encrypted_doc_links_out_of_subset(self):
        from query_suite.functions.pdf_meta import PdfDocument

        pdf = make_pdf(
            [["Encrypted doc line."]], rng(),
            encrypt={"user_pw": "x", "owner_pw": "y", "v": 1},
        )
        doc = PdfDocument(pdf)
        assert doc.links() == []  # documented boundary, never junk


class TestOutline:
    def test_reading_order_and_depth(self):
        from query_suite.functions.fixtures import make_pdf_outline_doc
        from query_suite.functions.pdf_meta import PdfDocument

        pdf, _ = make_pdf_outline_doc(2, "s")
        assert PdfDocument(pdf).outline() == [
            (1, "Section 2-0"), (2, "Sub 2-0-0"), (2, "Sub 2-0-1"),
            (1, "Section 2-1"), (1, "Section 2-2"),
        ]

    def test_cyclic_outline_terminates(self):
        from query_suite.functions.fixtures import make_pdf_outline_doc
        from query_suite.functions.pdf_meta import PdfDocument

        pdf, _ = make_pdf_outline_doc(0, "s")
        # point the last sub's /Next back at the first top item -> cycle
        pdf = pdf.replace(
            b"<< /Title (Sub 0-0-1) /Parent 11 0 R >>",
            b"<< /Title (Sub 0-0-1) /Parent 11 0 R /Next 11 0 R >>",
        )
        got = PdfDocument(pdf).outline()
        assert (1, "Section 0-0") in got and len(got) <= 4  # visited guard

    def test_no_outline_is_empty(self):
        from query_suite.functions.pdf_meta import PdfDocument

        pdf = make_pdf([["Plain page text."]], rng())
        assert PdfDocument(pdf).outline() == []


def _rewrite_stream_predictor(pdf: bytes, transform, filter_name: bytes,
                              parms: bytes) -> bytes:
    """Like _rewrite_stream_filter but also writes /DecodeParms."""
    import re as _re

    m = _re.search(rb"<< /Length (\d+) >>\nstream\n", pdf)
    assert m, "no raw stream found"
    start = m.end()
    length = int(m.group(1))
    body = pdf[start : start + length]
    new_body = transform(body)
    head = b"<< /Length %d /Filter %s /DecodeParms %s >>\nstream\n" % (
        len(new_body), filter_name, parms)
    return pdf[: m.start()] + head + new_body + pdf[start + length :]


def _png_encode(body: bytes, columns: int, ftype: int) -> bytes:
    """Apply one PNG row filter (RFC 2083) to every row, bpp=1."""
    rows = [body[i : i + columns] for i in range(0, len(body), columns)]
    if rows and len(rows[-1]) < columns:
        rows[-1] = rows[-1] + b"\x00" * (columns - len(rows[-1]))
    out = bytearray()
    prev = bytes(columns)
    for row in rows:
        out.append(ftype)
        for j, b in enumerate(row):
            if ftype == 0:
                out.append(b)
            elif ftype == 1:
                left = row[j - 1] if j >= 1 else 0
                out.append((b - left) & 0xFF)
            elif ftype == 2:
                out.append((b - prev[j]) & 0xFF)
            elif ftype == 3:
                left = row[j - 1] if j >= 1 else 0
                out.append((b - (left + prev[j]) // 2) & 0xFF)
            elif ftype == 4:
                a = row[j - 1] if j >= 1 else 0
                up = prev[j]
                c = prev[j - 1] if j >= 1 else 0
                p = a + up - c
                pa, pb, pc = abs(p - a), abs(p - up), abs(p - c)
                pred = a if (pa <= pb and pa <= pc) else (up if pb <= pc else c)
                out.append((b - pred) & 0xFF)
        prev = row
    return bytes(out)


def test_png_predictor_up_roundtrip():
    import zlib

    lines = ["Predictor-compressed content stream.", "Second line of text."]
    pdf = make_pdf([lines], rng(), compress=False)
    cols = 17
    enc = lambda b: zlib.compress(_png_encode(b, cols, 2))
    # trailing NULs from row padding are harmless to the tokenizer
    pred = _rewrite_stream_predictor(
        pdf, enc, b"/FlateDecode",
        b"<< /Predictor 12 /Columns %d >>" % cols,
    )
    pages = parse_pdf(pred)
    assert pages[0].text == "\n".join(lines)


def test_png_predictor_all_row_filters():
    import zlib

    lines = ["Every PNG row filter must invert."]
    base = make_pdf([lines], rng(), compress=False)
    for ftype, predictor in [(0, 10), (1, 11), (2, 12), (3, 13), (4, 14)]:
        cols = 13
        pred = _rewrite_stream_predictor(
            base, lambda b, f=ftype: zlib.compress(_png_encode(b, cols, f)),
            b"/FlateDecode", b"<< /Predictor %d /Columns %d >>" % (predictor, cols),
        )
        pages = parse_pdf(pred)
        assert pages[0].text == "\n".join(lines), f"filter {ftype}"


def test_tiff_predictor_roundtrip():
    import zlib

    lines = ["TIFF horizontal differencing."]
    pdf = make_pdf([lines], rng(), compress=False)
    cols = 11

    def tiff_encode(body: bytes) -> bytes:
        rows = [bytearray(body[i : i + cols]) for i in range(0, len(body), cols)]
        if rows and len(rows[-1]) < cols:
            rows[-1].extend(b"\x00" * (cols - len(rows[-1])))
        out = bytearray()
        for row in rows:
            enc = bytearray(row)
            for j in range(len(row) - 1, 0, -1):
                enc[j] = (row[j] - row[j - 1]) & 0xFF
            out += enc
        return zlib.compress(bytes(out))

    pred = _rewrite_stream_predictor(
        pdf, tiff_encode, b"/FlateDecode",
        b"<< /Predictor 2 /Columns %d >>" % cols,
    )
    pages = parse_pdf(pred)
    assert pages[0].text == "\n".join(lines)


def test_predictor_bad_row_count_is_counted_failure():
    import zlib

    pdf = make_pdf([["A page."]], rng(), compress=False)
    # declare PNG predictor but supply un-prefixed data -> row mismatch
    bad = _rewrite_stream_predictor(
        pdf, lambda b: zlib.compress(b + b"x"), b"/FlateDecode",
        b"<< /Predictor 12 /Columns 1000 >>",
    )
    pages = parse_pdf(bad)
    assert pages[0].text == ""


def _png_unfilter_reference(data: bytes, rowlen: int, bpp: int) -> bytes:
    """RFC 2083 §6 read literally: each byte adds its predictor from the
    unfiltered left (a), up (b) and upper-left (c) bytes."""
    out: list = []
    prev = [0] * rowlen
    for r in range(0, len(data), rowlen + 1):
        ft, row = data[r], data[r + 1 : r + 1 + rowlen]
        cur: list = []
        for j, x in enumerate(row):
            a = cur[j - bpp] if j >= bpp else 0
            b = prev[j]
            c = prev[j - bpp] if j >= bpp else 0
            p = a + b - c
            paeth = min((abs(p - a), 0, a), (abs(p - b), 1, b), (abs(p - c), 2, c))[2]
            cur.append((x + (0, a, b, (a + b) // 2, paeth)[ft]) & 0xFF)
        out += cur
        prev = cur
    return bytes(out)


@settings(max_examples=200, deadline=None)
@given(bpp=st.integers(1, 4), columns=st.integers(1, 8), data=st.data())
def test_png_row_unfilter_matches_the_reference(bpp, columns, data):
    """One row unfilter serves the PNG reader and PDF predictors 10-15:
    random rows of all five filter types at 1-4 bytes per pixel."""
    from service1_text_extraction_ray.functions.page_render import unfilter_png_rows
    from service1_text_extraction_ray.functions.pdf_extract import _apply_predictor

    rowlen = bpp * columns
    rows = data.draw(st.lists(st.tuples(st.integers(0, 4), st.binary(
        min_size=rowlen, max_size=rowlen)), max_size=6))
    raw = b"".join(bytes([ft]) + row for ft, row in rows)
    want = _png_unfilter_reference(raw, rowlen, bpp)
    assert unfilter_png_rows(raw, rowlen, bpp) == want
    parms = {"predictor": 15, "colors": bpp, "bpc": 8, "columns": columns}
    assert _apply_predictor(raw, parms) == want
    with pytest.raises(PdfParseError, match="^unknown PNG row filter 5$"):
        _apply_predictor(raw + b"\x05" + bytes(rowlen), parms)
    with pytest.raises(PdfParseError, match="^PNG-predicted stream not a whole number of rows$"):
        _apply_predictor(raw + b"\x00", parms)


class TestPdfAttachments:
    def test_flate_and_raw_roundtrip(self):
        from query_suite.functions.pdf_meta import PdfDocument
        from service1_text_extraction_ray.functions.synth import (
            make_pdf_attachment_doc,
        )

        pdf, _ = make_pdf_attachment_doc(1, "srcx")
        atts = PdfDocument(pdf).attachments()
        assert [n for n, _ in atts] == ["att-1-0.txt", "att-1-1.txt"]
        assert atts[0][1] == b"attachment 1-0 from srcx\n" * 2  # flate
        assert atts[1][1] == b"attachment 1-1 from srcx\n" * 3  # raw

    def test_kids_nested_tree(self):
        from query_suite.functions.pdf_meta import PdfDocument
        from service1_text_extraction_ray.functions.synth import (
            make_pdf_attachment_doc,
        )

        pdf, _ = make_pdf_attachment_doc(3, "s")  # %3==0 -> /Kids level
        assert len(PdfDocument(pdf).attachments()) == 2

    def test_no_attachments_and_text_unaffected(self):
        from query_suite.functions.pdf_meta import PdfDocument
        from service1_text_extraction_ray.functions.pdf_extract import parse_pdf
        from service1_text_extraction_ray.functions.synth import (
            make_pdf,
            make_pdf_attachment_doc,
        )

        plain = make_pdf([["Hello."]], rng(), compress=False)
        assert PdfDocument(plain).attachments() == []
        pdf, _ = make_pdf_attachment_doc(2, "s")
        assert parse_pdf(pdf)[0].text == "Att 2"


class TestPageLabels:
    def test_roman_letters_prefix_and_restart(self):
        from query_suite.functions.pdf_meta import PdfDocument
        from query_suite.functions.fixtures import make_pdf_labeled_doc

        pdf, _ = make_pdf_labeled_doc(2, "s")   # roman front, St=3
        assert PdfDocument(pdf).page_labels() == ["i", "3", "4", "5"]
        pdf, _ = make_pdf_labeled_doc(1, "s")   # 'App-A' prefix+letters
        assert PdfDocument(pdf).page_labels() == ["App-A", "2", "3"]

    def test_roman_and_letter_numerals(self):
        from query_suite.functions.pdf_meta import PdfDocument

        # inline /PageLabels on a 30-page shell exercises numbering depth
        kids, objs = [], []
        for k in range(30):
            pnum = 11 + k
            objs.append(
                f"{pnum} 0 obj << /Type /Page /Parent 2 0 R "
                f"/MediaBox [0 0 612 792] >> endobj\n".encode()
            )
            kids.append(f"{pnum} 0 R")
        pdf = (
            b"%PDF-1.4\n"
            b"1 0 obj << /Type /Catalog /Pages 2 0 R "
            b"/PageLabels << /Nums [0 << /S /r >>] >> >> endobj\n"
            + f"2 0 obj << /Type /Pages /Kids [{' '.join(kids)}] /Count 30 >> endobj\n".encode()
            + b"".join(objs)
            + b"trailer << /Root 1 0 R >>\n%%EOF\n"
        )
        labels = PdfDocument(pdf).page_labels()
        assert labels[0] == "i" and labels[3] == "iv"
        assert labels[8] == "ix" and labels[29] == "xxx"

    def test_no_pagelabels_returns_empty(self):
        from query_suite.functions.pdf_meta import PdfDocument
        from service1_text_extraction_ray.functions.synth import make_pdf

        assert PdfDocument(make_pdf([["x"]], rng(), compress=False)).page_labels() == []


class TestInlineImages:
    def test_operator_lookalikes_in_image_data_are_skipped(self):
        content = (
            b"BT /F1 12 Tf 72 700 Td (Before image.) Tj ET\n"
            b"BI /W 4 /H 2 /BPC 8 /CS /G /F /AHx ID "
            b"\x89(trap) Tj BT 99 0 Td (junk) Tj ET\xff\nEI\n"
            b"BT /F1 12 Tf 72 680 Td (After image.) Tj ET"
        )
        spans = _interpret_text(content)
        assert [s.text for s in spans] == ["Before image.", "After image."]

    def test_id_inside_param_string_does_not_end_dict_scan(self):
        # an (ID) literal inside the parameter dict must not be taken for
        # the ID operator; the real ID follows after /BPC 8
        content = (
            b"BI /Name (ID) /BPC 8 ID \x00\x01 BT (x) Tj ET \nEI\n"
            b"BT /F1 10 Tf 5 5 Td (Real text.) Tj ET"
        )
        spans = _interpret_text(content)
        assert [s.text for s in spans] == ["Real text."]

    def test_comment_in_image_params_does_not_end_them(self):
        # a %-comment runs to the end of its line inside the parameters as
        # it does in content: its "ID  EI" must not end the image, or the
        # binary "(Junk) Tj" after the real ID is read as text
        content = (
            b"BT /F1 10 Tf 5 5 Td (Real text.) Tj\n"
            b"BI /W 1 /H 1 %ID  EI\n/BPC 8 ID \x00\x01 (Junk) Tj EI\nET"
        )
        spans = _interpret_text(content)
        assert [s.text for s in spans] == ["Real text."]

    def test_unterminated_inline_image_consumes_rest(self):
        # missing EI: tolerant skip to end, no junk spans, no exception
        content = (
            b"BT /F1 10 Tf 5 5 Td (Kept.) Tj ET\n"
            b"BI /W 1 /H 1 ID \x01\x02(lost) Tj"
        )
        spans = _interpret_text(content)
        assert [s.text for s in spans] == ["Kept."]


class TestFormFields:
    def test_fixture_fields_exact(self):
        from query_suite.functions.pdf_meta import PdfDocument
        from query_suite.functions.fixtures import make_pdf_form_doc

        pdf, _ = make_pdf_form_doc(7, "src2")
        got = PdfDocument(pdf).form_fields()
        assert got == [
            ("title", "Tx", "Doc 7", 0),
            ("agree", "Btn", "Yes", 0),        # name-token value, slash dropped
            ("color", "Ch", "c3", 131072),     # combo flag
            ("grp", "Btn", "opt1", 32768),     # radio group = terminal (widget kid)
            ("addr.city", "Tx", "City 7", 0),  # /FT inherited from addr
            ("addr.zip", "Tx", "10007", 0),
        ]

    def test_decoy_without_T_is_skipped(self):
        from query_suite.functions.pdf_meta import PdfDocument
        from query_suite.functions.fixtures import make_pdf_form_doc

        pdf, _ = make_pdf_form_doc(0, "src1")
        names = [n for n, *_ in PdfDocument(pdf).form_fields()]
        assert "decoy" not in " ".join(names)
        assert names == ["title", "agree", "color", "grp", "addr.city", "addr.zip"]

    def test_no_acroform_is_empty(self):
        from query_suite.functions.pdf_meta import PdfDocument
        from query_suite.functions.fixtures import make_pdf_outline_doc

        pdf, _ = make_pdf_outline_doc(1, "src1")
        assert PdfDocument(pdf).form_fields() == []


class TestXmp:
    def test_fixture_properties_exact(self):
        from query_suite.functions.pdf_meta import PdfDocument
        from query_suite.functions.fixtures import make_pdf_xmp_doc

        pdf, _ = make_pdf_xmp_doc(14, "src3")
        assert PdfDocument(pdf).xmp() == {
            "dc_title": "Report 14",
            "dc_creator": "author-4",
            "create_date": "2024-03-15T00:00:00Z",
        }

    def test_no_metadata_is_empty(self):
        from query_suite.functions.pdf_meta import PdfDocument
        from query_suite.functions.fixtures import make_pdf_form_doc

        pdf, _ = make_pdf_form_doc(1, "src1")
        assert PdfDocument(pdf).xmp() == {}


class TestPdfAnnotations:
    def test_markup_kinds_and_decoys(self):
        from query_suite.functions.pdf_meta import PdfDocument
        from query_suite.functions.fixtures import make_pdf_annot_doc

        pdf, _ = make_pdf_annot_doc(4, "web", "de")
        assert PdfDocument(pdf).annotations() == [
            (1, "Text", "Note 4-1"),
            (1, "Highlight", "HL 4"),
            (1, "FreeText", "Free de 4"),
        ]
        # odd doc: two Text notes, no Highlight; Link/Square/contents-less
        # decoys never surface
        pdf, _ = make_pdf_annot_doc(7, "web", "en")
        got = PdfDocument(pdf).annotations()
        assert got == [
            (1, "Text", "Note 7-1"),
            (1, "Text", "Note 7-2"),
            (1, "FreeText", "Free en 7"),
        ]

    def test_escaped_contents_string(self):
        from query_suite.functions.pdf_meta import PdfDocument
        from query_suite.functions.fixtures import make_pdf_annot_doc

        pdf, _ = make_pdf_annot_doc(2, "web", "en")
        # splice an annotation with escapes into the object stream
        pdf = pdf.replace(
            b"(Note 2-1)", rb"(Paren \( and \\ slash)"
        )
        got = PdfDocument(pdf).annotations()
        assert got[0] == (1, "Text", "Paren ( and \\ slash")


class TestFonts:
    def test_inventory_variants(self):
        from query_suite.functions.pdf_meta import PdfDocument
        from service1_text_extraction_ray.functions.synth import make_pdf_font_doc

        # doc 6: F1 + F2 (even) + F3 (%3==0), no decoy
        pdf, _ = make_pdf_font_doc(6, "s")
        fonts = PdfDocument(pdf).fonts()
        assert fonts == [
            (0, "F1", "Helvetica", "Type1", 0),
            (0, "F2", "Body1", "TrueType", 1),
            (0, "F3", "CJK2", "Type0", 0),
        ]
        # doc 1: F1 only plus a dangling /F9 decoy that must be skipped
        pdf, _ = make_pdf_font_doc(1, "s")
        assert PdfDocument(pdf).fonts() == [(0, "F1", "Helvetica", "Type1", 0)]
        # doc 3: Type0 with the descriptor on the DESCENDANT CIDFont
        pdf, _ = make_pdf_font_doc(3, "s")
        names = [f[1] for f in PdfDocument(pdf).fonts()]
        assert names == ["F1", "F3"]

    def test_fixture_still_extracts_text(self):
        from service1_text_extraction_ray.functions.pdf_extract import parse_pdf
        from service1_text_extraction_ray.functions.synth import make_pdf_font_doc

        pdf, _ = make_pdf_font_doc(6, "s")
        pages = parse_pdf(pdf)
        assert "Fonts 6" in pages[0].text


class TestLayers:
    def test_inventory_and_off_flag(self):
        from query_suite.functions.pdf_meta import PdfDocument
        from service1_text_extraction_ray.functions.synth import make_pdf_ocg_doc

        pdf, _ = make_pdf_ocg_doc(2, "s")  # even: Watermark OFF
        assert PdfDocument(pdf).layers() == [("Main", 1), ("Watermark", 0)]
        pdf, _ = make_pdf_ocg_doc(3, "s")  # odd: both ON
        assert PdfDocument(pdf).layers() == [("Main", 1), ("Watermark", 1)]

    def test_off_layer_text_suppressed(self):
        from service1_text_extraction_ray.functions.pdf_extract import parse_pdf
        from service1_text_extraction_ray.functions.synth import make_pdf_ocg_doc

        pdf, _ = make_pdf_ocg_doc(2, "s")
        text = parse_pdf(pdf)[0].text
        assert "Body 2" in text
        assert "Deco 2" in text          # /Artifact BMC stays visible
        assert "WM 2" not in text        # OFF /OC scope is dropped
        pdf, _ = make_pdf_ocg_doc(3, "s")
        text = parse_pdf(pdf)[0].text
        assert "WM 3" in text            # ON layer survives

    def test_no_optional_content_is_empty(self):
        from query_suite.functions.pdf_meta import PdfDocument
        from service1_text_extraction_ray.functions.synth import make_pdf_font_doc

        pdf, _ = make_pdf_font_doc(1, "s")
        assert PdfDocument(pdf).layers() == []


class TestStructure:
    def test_reading_order_roles_and_chrome_drop(self):
        from query_suite.functions.pdf_meta import PdfDocument
        from service1_text_extraction_ray.functions.pdf_extract import parse_pdf
        from service1_text_extraction_ray.functions.synth import make_pdf_tagged_doc

        pdf, _ = make_pdf_tagged_doc(1, "s")
        st = PdfDocument(pdf).structure()
        assert st == [
            (0, "H1", "Title 1"), (1, "P", "Para 1-1"), (2, "P", "Para 1-2"),
        ]  # /Para mapped to /P via /RoleMap; /Artifact + unmarked dropped
        text = parse_pdf(pdf)[0].text
        assert "Page 1" in text and "loose" in text  # plain extraction keeps both

    def test_untagged_pdf_is_empty(self):
        from query_suite.functions.pdf_meta import PdfDocument
        from service1_text_extraction_ray.functions.synth import make_pdf_ocg_doc

        pdf, _ = make_pdf_ocg_doc(3, "s")
        assert PdfDocument(pdf).structure() == []

    def test_cyclic_struct_tree_terminates(self):
        from query_suite.functions.pdf_meta import PdfDocument
        from service1_text_extraction_ray.functions.synth import make_pdf_tagged_doc

        pdf, _ = make_pdf_tagged_doc(0, "s")
        # point the Document element's kid list back at itself
        pdf = pdf.replace(b"/S /Document /K [20 0 R 21 0 R]",
                          b"/S /Document /K [11 0 R 20 0 R 21 0 R]")
        st = PdfDocument(pdf).structure()
        assert (0, "H1", "Title 0") in st  # still emits, never hangs


def _stream_obj(num: int, dict_entries: bytes, data: bytes) -> bytes:
    return (
        b"%d 0 obj << " % num + dict_entries
        + b" /Length %d >>\nstream\n" % len(data) + data + b"\nendstream endobj\n"
    )


class TestPageResources:
    def test_one_page_mixing_every_resource_decision(self):
        """One page whose resources hold every case the resource walk
        decides: an inline /Font dict (a Type0 font without /ToUnicode, a
        WinAnsi + /Differences simple font, a dangling ref), a referenced
        /XObject dict (a Form, an Image, an entry that is not a stream)
        and /Properties names bound to an OFF, an ON and a dangling OFF
        optional-content group."""
        content = (
            b"BT /F1 12 Tf 72 720 Td (\x93AB\x94) Tj ET\n"  # WinAnsi + Differences
            b"BT /F0 12 Tf 72 700 Td (\x00\x41) Tj ET\n"  # Type0, no /ToUnicode
            b"BT /F9 12 Tf 72 680 Td (\xe9t\xe9) Tj ET\n"  # dangling: latin-1
            b"/Fm1 Do /Nx Do\n"
            b"q 100 0 0 50 72 300 cm /Im1 Do Q\n"
            b"/OC /oc2 BDC BT /F1 12 Tf 72 560 Td (Shown) Tj ET EMC\n"
            b"/OC /oc1 BDC BT /F1 12 Tf 72 540 Td (Hidden) Tj ET "
            b"q 10 0 0 10 0 0 cm /Im1 Do Q EMC\n"
            b"/OC /oc3 BDC BT /F1 12 Tf 72 520 Td (Gone) Tj ET EMC\n"
        )
        pdf = (
            b"%PDF-1.5\n"
            b"1 0 obj << /Type /Catalog /Pages 2 0 R /OCProperties "
            b"<< /OCGs [9 0 R 10 0 R] /D << /OFF [9 0 R 11 0 R] >> >> >> endobj\n"
            b"2 0 obj << /Type /Pages /Kids [3 0 R] /Count 1 >> endobj\n"
            b"3 0 obj << /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
            b"/Contents 4 0 R /Resources << "
            b"/Font << /F0 5 0 R /F1 6 0 R /F9 99 0 R >> /XObject 7 0 R "
            b"/Properties << /oc1 9 0 R /oc2 10 0 R /oc3 11 0 R >> >> >> endobj\n"
            + _stream_obj(4, b"", content)
            + b"5 0 obj << /Type /Font /Subtype /Type0 /BaseFont /X "
            b"/Encoding /Identity-H >> endobj\n"
            b"6 0 obj << /Type /Font /Subtype /Type1 /BaseFont /Helvetica "
            b"/Encoding << /BaseEncoding /WinAnsiEncoding "
            b"/Differences [ 65 /eacute ] >> >> endobj\n"
            b"7 0 obj << /Fm1 12 0 R /Im1 13 0 R /Nx 14 0 R >> endobj\n"
            b"9 0 obj << /Type /OCG /Name (Off) >> endobj\n"
            b"10 0 obj << /Type /OCG /Name (On) >> endobj\n"
            + _stream_obj(12, b"/Type /XObject /Subtype /Form",
                          b"BT /F1 12 Tf 72 600 Td (Form A) Tj ET")
            + _stream_obj(13, b"/Type /XObject /Subtype /Image /Width 2 "
                          b"/Height 2 /ColorSpace /DeviceGray /BitsPerComponent 8",
                          b"\x00\x40\x80\xff")
            + b"14 0 obj << /Type /XObject /Subtype /Form >> endobj\n"
            b"trailer << /Root 1 0 R >>\n%%EOF\n"
        )
        (page,) = parse_pdf(pdf)
        assert page.text.split("\n") == [
            "“éB”", "�", "été", "Form é", "Shown",
        ]
        # the visible placement only: the one under /oc1 is hidden
        assert page.images == [{
            "bbox": [72.0, 442.0, 172.0, 492.0],
            "width": 2, "height": 2, "gray": b"\x00\x40\x80\xff",
        }]


_HELLO = b"BT /F1 12 Tf 72 720 Td (Hello world) Tj ET"
_TRAILER = b"trailer << /Root 1 0 R >>\n"


class TestDictEntriesAreTheObjectsOwn:
    """A dict entry is read from the object's own dict, never from a
    nested dict or a string that spells the same key."""

    @pytest.mark.parametrize("nested", [
        b"/Group << /Type /Group /S /Transparency >>",
        b"/Resources << /Font << /F1 << /Type /Font /Subtype /Type1 "
        b"/BaseFont /Helvetica >> >> >>",
    ])
    def test_nested_type_before_the_page_type(self, nested):
        pdf = _one_page_pdf(b" ", _HELLO, _TRAILER,
                            page=nested + b" /Type /Page " + _PAGE)
        assert [p.text for p in parse_pdf(pdf)] == ["Hello world"]

    def test_type0_font_after_an_inline_descendant_subtype(self):
        cmap = b"begincmap 2 beginbfchar <0048> <0048> <0069> <0069> endbfchar endcmap"
        pdf = _one_page_pdf(
            b" ", b"BT /F1 12 Tf 72 720 Td <00480069> Tj ET",
            b"5 0 obj << /Type /Font /DescendantFonts [<< /Type /Font "
            b"/Subtype /CIDFontType2 /BaseFont /Synth >>] /Subtype /Type0 "
            b"/BaseFont /Synth /Encoding /Identity-H /ToUnicode 6 0 R >> endobj\n"
            b"6 0 obj << /Length " + str(len(cmap)).encode() + b" >>\nstream\n"
            + cmap + b"\nendstream endobj\n" + _TRAILER,
            page=b"/Type /Page " + _PAGE + b" /Resources << /Font << /F1 5 0 R >> >>",
        )
        assert [p.text for p in parse_pdf(pdf)] == ["Hi"]

    def test_crypt_filter_length_before_the_key_length(self):
        pdf = make_pdf([["Opens without a password."]], rng(),
                       encrypt={"user_pw": "", "owner_pw": "o", "v": 4})
        cf = b"/CF << /StdCF << /CFM /AESV2 /AuthEvent /DocOpen /Length 16 >> >> "
        assert b"/Length 128 " + cf in pdf
        pdf = pdf.replace(b"/Length 128 " + cf, cf + b"/Length 128 ")
        assert [p.text for p in parse_pdf(pdf)] == ["Opens without a password."]

    def test_inline_annotation_rotate_is_not_the_pages(self):
        pdf = _one_page_pdf(b" ", _HELLO, _TRAILER, page=b"/Type /Page " + _PAGE
                            + b" /Annots [<< /Type /Annot /Subtype /Text "
                            b"/Rect [0 0 9 9] /Rotate 90 >>]")
        (page,) = parse_pdf(pdf)
        assert (page.text, page.layout["rotation"]) == ("Hello world", 0)

    def test_contents_spelled_in_a_string_before_the_real_one(self):
        pdf = _one_page_pdf(b" ", _HELLO, _TRAILER,
                            page=b"/Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
                            b"/PieceInfo << /X << /Private (/Contents 9 0 R) >> >> "
                            b"/Contents 4 0 R")
        assert [p.text for p in parse_pdf(pdf)] == ["Hello world"]


def test_comment_inside_a_dict_runs_to_its_line_end():
    # ISO 32000-1 §7.2.3: a '%' comment ends at the end of its line, in a
    # dict as in content, so a '>>' inside it does not close the dict
    pdf = _one_page_pdf(b" ", _HELLO, _TRAILER,
                        page=b"% leaf >> of the tree\r/Type /Page " + _PAGE)
    assert [p.text for p in parse_pdf(pdf)] == ["Hello world"]


def test_byte_that_starts_no_token_is_skipped_inside_a_dict():
    # as in content, so a stray byte between a key and its value keeps both
    pdf = _one_page_pdf(b" ", _HELLO, _TRAILER, page=b"/Type \x89/Page " + _PAGE)
    assert [p.text for p in parse_pdf(pdf)] == ["Hello world"]


@pytest.mark.parametrize("nest", [b"<<" * 100_000, b"[" * 100_000, b"<<[" * 50_000],
                         ids=["dicts", "arrays", "mixed"])
def test_deep_nesting_fails_the_document_not_the_stack(nest):
    """The dict reader recurses once per level; past ``_MAX_NESTING`` it
    raises PdfParseError, in an object body and in a content stream."""
    from service1_text_extraction_ray.functions.extract import (
        ExtractConfig,
        extract_document,
    )

    for pdf in (_one_page_pdf(b" ", _HELLO, b"5 0 obj " + nest + b"\nendobj\n" + _TRAILER),
                _one_page_pdf(b" ", _HELLO,
                              b"5 0 obj << /Deep " + nest + b" >> endobj\n" + _TRAILER),
                _one_page_pdf(b" ", b"BT /F1 12 Tf " + nest + b" Tj ET", _TRAILER)):
        try:
            parse_pdf(pdf)
        except PdfParseError:
            pass
        row = extract_document("u://deep", pdf, ExtractConfig())
        assert row["status"] in ("ok", "parse_failure")


# --------------------------------------------------------------------------
# Stored layout: layout_spans / pdf_layout_json
# --------------------------------------------------------------------------

@settings(max_examples=500, deadline=None)
@given(st.floats())
def test_round_leaves_its_own_results_as_they_are(x):
    once = round(x, 2)
    assert repr(round(once, 2)) == repr(once)


_ROUNDED = st.one_of(st.integers(-10**6, 10**6), st.floats()).map(lambda v: round(v, 2))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_ROUNDED, min_size=4, max_size=4), min_size=1, max_size=8))
def test_union_bbox_of_rounded_bboxes_needs_no_round(bboxes):
    """``_union_bbox`` takes bboxes that ``_span_bbox`` (or itself) rounded:
    its values are the ones ``round`` over the min and max would give."""
    rounded = [round(min(b[0] for b in bboxes), 2), round(min(b[1] for b in bboxes), 2),
               round(max(b[2] for b in bboxes), 2), round(max(b[3] for b in bboxes), 2)]
    assert repr(_union_bbox(bboxes)) == repr(rounded)


def test_layout_spans_round_trip_over_the_goldens(monkeypatch):
    """Every PDF page of the golden corpora (rows 0-163 of seed 42, the PDFs
    among rows 64-163) carries its layout as the span columns that the
    extractor built from its tree, and they rebuild its ``dump_layout``
    JSON byte for byte."""
    import service1_text_extraction_ray.functions.extract as X

    built = []

    def record(text, layout):
        spans = layout_spans(text, layout)
        built.append((text, dump_layout(layout), spans))
        return spans

    monkeypatch.setattr(X, "layout_spans", record)
    pages = [p for r in gen_pages_table(164, seed=42).to_pylist()
             for p in extract_document(r["url"], r["html"], ExtractConfig())["pages"]
             if p["method"] == METHOD_PDF]
    assert len(pages) > 10 and len(built) == len(pages)
    for p, (text, layout, spans) in zip(pages, built):
        assert spans is not None and '"text"' not in spans
        assert (p["text"], p["layout_json"], p["layout_spans"]) == (text, None, spans)
        assert pdf_layout_json(text, spans) == layout


_SPAN_TEXT = st.lists(st.one_of(
    st.text(max_size=4),
    st.sampled_from([" ", "\n", '"', "\\", "\x00", "é", "\U0001f600", "\ud800",
                     '"text":"', "}]}]", '{"bbox":[']),
), max_size=4).map("".join)
_SPANS = st.lists(st.builds(
    Span,
    text=_SPAN_TEXT,
    x=st.one_of(st.integers(0, 600), st.floats(0, 600)),
    y=st.floats(0, 792),
    size=st.sampled_from([6.0, 9.5, 12.0, 13.37, 24]),
    font=st.sampled_from(["F1", "F2", 'Odd"Font\\', "Ünï"]),
), max_size=30)


def _all_spans_in(text, layout):
    """Whether ``text`` holds every span text of ``layout`` in reading
    order, each after the one before."""
    end = 0
    for block in layout["blocks"]:
        for line in block["lines"]:
            for span in line["spans"]:
                at = text.find(span["text"], end)
                if at < 0:
                    return False
                end = at + len(span["text"])
    return True


@settings(max_examples=300, deadline=None)
@given(_SPANS, st.sampled_from([0, 90]))
def test_layout_spans_round_trip(spans, rotation):
    """A page layout built by ``_assemble_page`` is stored without its text
    exactly where its stripped page text holds every span's text, and the
    stored form always rebuilds the ``dump_layout`` JSON."""
    page = _assemble_page(spans, 612.0, 792.0, rotation)
    text = page.text.strip()
    stored = layout_spans(text, page.layout)
    assert (stored is not None) == _all_spans_in(text, page.layout)
    if stored is not None:
        assert pdf_layout_json(text, stored) == dump_layout(page.layout)
    if text == page.text:  # nothing stripped: every span is in the text
        assert stored is not None


_ONE_SPAN = ('{"blocks":[{"bbox":[72.0,60.0,90.0,72.0],"lines":[{"bbox":[72.0,60.0,90.0,72.0],'
             '"spans":[{"bbox":[72.0,60.0,90.0,72.0],"flags":0,"font":"F1","size":12.0,'
             '"text":"abc"}]}]}],"height":792.0,"rotation":0,"width":612.0}')
_TWO_SPANS = _ONE_SPAN.replace(
    '"text":"abc"}', '"text":"ab"},{"bbox":[90.0,60.0,96.0,72.0],"flags":0,'
    '"font":"F1","size":12.0,"text":"c"}').replace("90.0,72.0]", "96.0,72.0]", 2)


@pytest.mark.parametrize("layout_json", [
    "", "not json", "3fa9" * 500, "[1, 2]", "{}", '{"blocks":[]}',
    '{"blocks":[],"height":792.0,"width":612.0}',  # no rotation (an OCR tree)
    '{"blocks":[],"height":NaN,"rotation":0,"width":612.0}',
    _ONE_SPAN.replace("abc", "xyz"),  # a span text that the page text lacks
    _ONE_SPAN.replace('"bbox":[72.0,60.0,90.0,72.0],"lines"',
                      '"bbox":[72.0,60.0,99.0,72.0],"lines"'),  # not the union
    _ONE_SPAN.replace(',"font"', ',"extra":1,"font"'),
    _TWO_SPANS.replace('[90.0,60.0,96.0,72.0]', '["a",60.0,96.0,72.0]'),
    _TWO_SPANS.replace('"flags":0,"font":"F1","size":12.0,"text":"c"',
                       '"flags":' + "[" * 100_000 + ',"font":"F1","size":12.0,"text":"c"'),
], ids=["empty", "text", "hex", "array", "object", "no_tail", "ocr", "nan", "missing",
        "union", "extra_key", "string_coord", "deep"])
def test_layout_spans_refuses_what_it_cannot_rebuild(layout_json, tmp_path):
    """A PDF page that holds its layout as JSON (an older part, another
    extractor, ``read_all`` rows merged back) is stored and read back as it
    is, whatever the string: the part writer reads no layout and builds no
    spans form."""
    from service1_text_extraction_ray.stages.extract_stage import DOC_SCHEMA
    from service1_text_extraction_ray.state import lineage as lin

    row = {"url": "https://p.example/0", "status": "ok", "truncated": False,
           "n_pages": 1, "n_pages_ok": 1, "doc_text": "--- PAGE 1 ---\nabc",
           "doc_chars": 18, "password_required": False, "content_hash": "0" * 64,
           "pages": [{"page": 1, "method": METHOD_PDF, "text": "abc",
                      "page_md": "# Page 1 - PDF_TEXT\n\nabc", "n_chars": 3,
                      "layout_json": layout_json}]}
    docs = pa.Table.from_pylist([row], schema=DOC_SCHEMA)
    out = str(tmp_path)
    rec = lin.write_part(out, 0, docs)
    lin.commit_shard_manifest(out, 0, [rec])
    (raw,) = pq.read_table(os.path.join(lin.shard_data_dir(out, 0), rec["part"]))["pages"][0].as_py()
    assert raw == {"page": 1, "method": METHOD_PDF, "text": "abc", "n_chars": 3,
                   "layout_json": layout_json}
    assert lin.read_shard(out, 0).equals(docs)


@pytest.mark.parametrize("case", ["stripped", "missing", "out_of_order", "nan_bbox",
                                  "inf_size", "inf_width", "nan_height", "huge_number"])
def test_layout_spans_keeps_the_json_it_cannot_store(case):
    """The builder gives None, and the page keeps its ``dump_layout`` JSON,
    where a span text is not in the stripped page text or a number is not
    finite (``dump_layout`` writes ``NaN``/``Infinity``, no float ``repr``
    does)."""
    import json
    import math

    layout = json.loads(_TWO_SPANS)
    text = "abc"
    spans = layout["blocks"][0]["lines"][0]["spans"]
    if case == "stripped":
        spans[0]["text"] = " ab"
    elif case == "missing":
        spans[1]["text"] = "x"
    elif case == "out_of_order":
        text = "cab"
    elif case == "nan_bbox":
        spans[1]["bbox"][2] = math.nan
    elif case == "inf_size":
        spans[0]["size"] = math.inf
    elif case == "inf_width":
        layout["width"] = math.inf
    elif case == "nan_height":
        layout["height"] = math.nan
    else:  # a 400-digit coordinate in a content stream reads as inf
        page = _assemble_page(_interpret_text(
            b"BT /F1 12 Tf " + b"9" * 400 + b".0 720 Td (Some text here) Tj ET"), 612.0, 792.0)
        text, layout = page.text.strip(), page.layout
        assert "Infinity" in dump_layout(layout)
    assert layout_spans(text, layout) is None


def test_layout_spans_keep_one_and_two_span_lines():
    import json

    for layout in (_ONE_SPAN, _TWO_SPANS):
        stored = layout_spans("abc", json.loads(layout))
        assert stored is not None and pdf_layout_json("abc", stored) == layout
