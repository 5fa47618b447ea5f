"""Property-based robustness: the extraction core must never raise, always
emit a schema-conforming result, and be deterministic — for ARBITRARY
payload bytes, not just the fixture mix. (The distributed job relies on
this: a poison document must become a `parse_failure` row, never a dead
task — SURVEY.md §4.1 error-isolation row.)"""

from hypothesis import given, settings, strategies as st

from service1_text_extraction_ray.functions.extract import (
    METHOD_DOM,
    METHOD_FAILED,
    METHOD_FEED,
    METHOD_PDF,
    METHOD_TEXT,
    ExtractConfig,
    extract_document,
)
from service1_text_extraction_ray.functions.sniff import sniff_payload

CFG = ExtractConfig()

VALID_STATUSES = {"ok", "parse_failure"}


def _check_doc_result(res):
    assert res["status"] in VALID_STATUSES
    assert isinstance(res["doc_text"], str)
    assert res["doc_chars"] == len(res["doc_text"])
    assert isinstance(res["n_pages"], int) and res["n_pages"] >= 0
    assert 0 <= res["n_pages_ok"] <= res["n_pages"]
    assert isinstance(res["pages"], list) and len(res["pages"]) == res["n_pages"]
    for p in res["pages"]:
        assert isinstance(p["text"], str)
        assert p["method"] in {METHOD_DOM, METHOD_PDF, METHOD_FEED, METHOD_TEXT, METHOD_FAILED}


@settings(max_examples=200, deadline=None)
@given(payload=st.one_of(st.none(), st.binary(max_size=4096)))
def test_extract_document_total_on_arbitrary_bytes(payload):
    res = extract_document("u://fuzz", payload, CFG)
    _check_doc_result(res)
    # determinism: same input -> identical result
    assert extract_document("u://fuzz", payload, CFG) == res


@settings(max_examples=100, deadline=None)
@given(payload=st.binary(min_size=1, max_size=4096).map(lambda b: b"%PDF-1.4\n" + b))
def test_pdf_parser_total_on_corrupt_pdfs(payload):
    res = extract_document("u://fuzz-pdf", payload, CFG)
    _check_doc_result(res)


@settings(max_examples=100, deadline=None)
@given(text=st.text(max_size=2048))
def test_html_parser_total_on_arbitrary_markup(text):
    payload = ("<html><body>" + text + "</body></html>").encode("utf-8", "surrogatepass")
    res = extract_document("u://fuzz-html", payload, CFG)
    _check_doc_result(res)


@settings(max_examples=200, deadline=None)
@given(payload=st.one_of(st.none(), st.binary(max_size=256)))
def test_sniff_total_and_deterministic(payload):
    kind = sniff_payload(payload)
    assert kind in {"html", "pdf", "feed", "text", "other"}
    assert sniff_payload(payload) == kind


def _encrypted_pdf(v: int = 2) -> bytes:
    import random

    from service1_text_extraction_ray.functions.synth import make_pdf

    lines = [f"A reasonably long pdf line number {i} with words." for i in range(20)]
    return make_pdf([lines], random.Random(3), compress=True,
                    encrypt={"user_pw": "pw-3", "owner_pw": "own", "v": v})


@settings(max_examples=150, deadline=None)
@given(
    pos=st.integers(min_value=0, max_value=4000),
    val=st.integers(min_value=0, max_value=255),
    v=st.sampled_from([1, 2]),
)
def test_mutated_encrypted_pdf_never_raises(pos, val, v):
    """Byte-flipping an encrypted PDF (header, /Encrypt dict, O/U entries,
    ciphertext, xref — wherever the mutation lands) must produce a counted
    result row, never an exception: wrong keys yield failed RC4 output that
    the filter chain / tokenizer rejects per page."""
    base = bytearray(_encrypted_pdf(v))
    base[pos % len(base)] = val
    res = extract_document("https://site3.example/fuzz", bytes(base), CFG)
    assert res["status"] in ("ok", "parse_failure")
    assert isinstance(res["attempts_made"], int)
    # determinism under mutation
    assert extract_document("https://site3.example/fuzz", bytes(base), CFG) == res


@settings(max_examples=60, deadline=None)
@given(cut=st.integers(min_value=1, max_value=4000))
def test_truncated_encrypted_pdf_never_raises(cut):
    base = _encrypted_pdf(1)
    res = extract_document("https://site3.example/fuzz", base[: cut % len(base)], CFG)
    assert res["status"] in ("ok", "parse_failure")


@settings(max_examples=200, deadline=None)
@given(html=st.text(max_size=2048))
def test_outlink_parser_total_on_arbitrary_markup(html):
    from query_suite.functions.links import extract_outlinks

    links, noindex, nofollow = extract_outlinks(html, "https://h.example.com/a/b")
    assert isinstance(links, list)
    for ln in links:
        assert ln.href.startswith(("http://", "https://"))
        assert isinstance(ln.anchor, str) and isinstance(ln.nofollow, bool)
    # determinism
    again = extract_outlinks(html, "https://h.example.com/a/b")
    assert [(l.href, l.anchor, l.nofollow) for l in links] == [
        (l.href, l.anchor, l.nofollow) for l in again[0]
    ] and (noindex, nofollow) == (again[1], again[2])


@settings(max_examples=200, deadline=None)
@given(href=st.text(max_size=200))
def test_resolve_href_total(href):
    from query_suite.functions.links import resolve_href

    out = resolve_href("https://h.example.com/d/1/index.html", href)
    assert out is None or out.startswith(("http://", "https://"))


@settings(max_examples=200, deadline=None)
@given(url=st.text(max_size=200))
def test_parse_urls_total(url):
    import pyarrow as pa

    from query_suite.functions.urls import parse_urls

    t = parse_urls(pa.array([url], pa.string()))
    assert t.num_rows == 1
    row = t.to_pylist()[0]
    if row["scheme"] is None:
        assert row["host"] is None and row["path_depth"] is None


@settings(max_examples=200, deadline=None)
@given(text=st.text(max_size=2048))
def test_robots_parser_total_on_arbitrary_text(text):
    """robots.txt arrives from arbitrary servers: the parser must never
    raise, and every verdict must be deterministic."""
    from query_suite.functions.robots import is_allowed, parse_robots

    rules = parse_robots(text)
    assert isinstance(rules, list)
    for path in ("/", "/a/b", "a", ""):
        v = is_allowed(rules, path)
        assert isinstance(v, bool)
        assert is_allowed(rules, path) == v


@settings(max_examples=200, deadline=None)
@given(xml=st.text(max_size=2048))
def test_sitemap_parser_total_on_arbitrary_text(xml):
    from query_suite.functions.sitemaps import parse_sitemap

    kind, entries = parse_sitemap(xml)
    assert kind in ("index", "urlset")
    for loc, lastmod, prio in entries:
        assert isinstance(loc, str) and loc
        assert lastmod is None or isinstance(lastmod, str)
        assert isinstance(prio, int)
    assert parse_sitemap(xml) == (kind, entries)


@settings(max_examples=150, deadline=None)
@given(payload=st.one_of(
    st.binary(max_size=2048),
    st.binary(max_size=2000).map(lambda b: b"<rss>" + b),
    st.binary(max_size=2000).map(
        lambda b: b'<feed xmlns="http://www.w3.org/2005/Atom">' + b
    ),
))
def test_feed_parser_total_on_arbitrary_bytes(payload):
    from service1_text_extraction_ray.functions.feeds import detect_feed, parse_feed

    kind = detect_feed(payload)
    assert kind in (None, "rss", "atom")
    feed = parse_feed(payload)
    # totality: None or a well-shaped dict, never an exception
    if feed is not None:
        assert feed["kind"] in ("rss", "atom")
        for it in feed["items"]:
            assert set(it) == {"item_title", "link", "pub_epoch"}
    assert parse_feed(payload) == feed  # deterministic


@settings(max_examples=150, deadline=None)
@given(payload=st.one_of(
    st.binary(max_size=2048),
    st.binary(max_size=2000).map(lambda b: b"HTTP/1.1 200 OK\r\n" + b),
    st.binary(max_size=1500).map(
        lambda b: b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" + b
    ),
))
def test_http_response_parser_total(payload):
    """parse_http_response raises ONLY ValueError (the counted-failure
    contract); a successful parse is deterministic."""
    from service1_text_extraction_ray.sources.pages_source import (
        parse_http_response,
    )

    try:
        first = parse_http_response(payload)
    except ValueError:
        return
    assert parse_http_response(payload) == first


@settings(max_examples=150, deadline=None)
@given(text=st.text(max_size=2048))
def test_jsonld_extractor_total_on_arbitrary_markup(text):
    from query_suite.functions.structured import extract_jsonld

    html = (
        '<script type="application/ld+json">' + text + "</script>"
    ).encode("utf-8", "surrogatepass")
    ents = extract_jsonld(html)
    assert isinstance(ents, list)
    for e in ents:
        assert set(e) == {"entity_type", "name", "word_count"}
        assert isinstance(e["entity_type"], str)
    assert extract_jsonld(html) == ents


@settings(max_examples=150, deadline=None)
@given(html=st.text(max_size=2048))
def test_page_status_total_on_arbitrary_markup(html):
    from query_suite.functions.meta import page_status

    s = page_status(html)
    assert set(s) == {"noindex", "nofollow", "soft404", "reason"}
    assert isinstance(s["noindex"], bool) and isinstance(s["soft404"], bool)
    assert s["reason"] in (None, "title", "body")
    assert page_status(html) == s  # deterministic


@settings(max_examples=150, deadline=None)
@given(html=st.binary(max_size=2048))
def test_social_card_total_on_arbitrary_bytes(html):
    from query_suite.functions.meta import extract_social_card

    c = extract_social_card(html, "https://f.example.com/x")
    assert set(c) == {"og_type", "og_image", "twitter_card", "twitter_site"}
    for v in c.values():
        assert v is None or isinstance(v, str)


@settings(max_examples=150, deadline=None)
@given(html=st.text(max_size=2048))
def test_tag_sequence_total(html):
    from query_suite.functions.meta import tag_sequence

    tags = tag_sequence(html)
    assert isinstance(tags, list)
    assert all(isinstance(t, str) for t in tags)
    assert tag_sequence(html) == tags


@settings(max_examples=150, deadline=None)
@given(text=st.text(max_size=1024))
def test_detect_license_total(text):
    from query_suite.functions.text_utils import detect_license

    r = detect_license(text)
    assert r["license"] in {"cc-by", "cc-by-nc", "cc-by-nd", "mit", "unknown"}
    assert isinstance(r["allows_commercial"], bool)


@settings(max_examples=60, deadline=None)
@given(payload=st.binary(min_size=1, max_size=4096).map(lambda b: b"%PDF-1.4\n" + b))
def test_form_fields_total_on_corrupt_pdfs(payload):
    from query_suite.functions.pdf_meta import PdfDocument
    from service1_text_extraction_ray.functions.pdf_extract import PdfParseError

    try:
        doc = PdfDocument(payload)
    except PdfParseError:
        return
    fields = doc.form_fields()
    assert isinstance(fields, list)
    assert doc.form_fields() == fields  # deterministic


@settings(max_examples=40, deadline=None)
@given(pos=st.integers(min_value=0, max_value=400), val=st.integers(0, 255))
def test_form_fields_total_on_mutated_form_doc(pos, val):
    from query_suite.functions.pdf_meta import PdfDocument
    from service1_text_extraction_ray.functions.pdf_extract import PdfParseError
    from query_suite.functions.fixtures import make_pdf_form_doc

    pdf, _ = make_pdf_form_doc(3, "src1")
    pos = min(pos, len(pdf) - 1)
    mutated = pdf[:pos] + bytes([val]) + pdf[pos + 1:]
    try:
        doc = PdfDocument(mutated)
    except PdfParseError:
        return
    assert isinstance(doc.form_fields(), list)


@settings(max_examples=40, deadline=None)
@given(pos=st.integers(min_value=0, max_value=700), val=st.integers(0, 255))
def test_xmp_total_on_mutated_doc(pos, val):
    from query_suite.functions.pdf_meta import PdfDocument
    from service1_text_extraction_ray.functions.pdf_extract import PdfParseError
    from query_suite.functions.fixtures import make_pdf_xmp_doc

    pdf, _ = make_pdf_xmp_doc(2, "src1")
    pos = min(pos, len(pdf) - 1)
    mutated = pdf[:pos] + bytes([val]) + pdf[pos + 1:]
    try:
        doc = PdfDocument(mutated)
    except PdfParseError:
        return
    assert isinstance(doc.xmp(), dict)


@settings(max_examples=40, deadline=None)
@given(pos=st.integers(min_value=0, max_value=800), val=st.integers(0, 255))
def test_layers_total_on_mutated_ocg_doc(pos, val):
    from query_suite.functions.pdf_meta import PdfDocument
    from service1_text_extraction_ray.functions.pdf_extract import PdfParseError
    from service1_text_extraction_ray.functions.synth import make_pdf_ocg_doc

    pdf, _ = make_pdf_ocg_doc(2, "src1")
    pos = min(pos, len(pdf) - 1)
    mutated = pdf[:pos] + bytes([val]) + pdf[pos + 1:]
    try:
        doc = PdfDocument(mutated)
    except PdfParseError:
        return
    layers = doc.layers()
    assert isinstance(layers, list)
    assert doc.layers() == layers  # deterministic
    try:
        doc.extract_pages()  # hidden-OC suppression must not crash outside
    except PdfParseError:
        pass  # ...the counted-failure contract (poison doc -> failure row)


@settings(max_examples=40, deadline=None)
@given(pos=st.integers(min_value=0, max_value=900), val=st.integers(0, 255))
def test_structure_total_on_mutated_tagged_doc(pos, val):
    from query_suite.functions.pdf_meta import PdfDocument
    from service1_text_extraction_ray.functions.pdf_extract import PdfParseError
    from service1_text_extraction_ray.functions.synth import make_pdf_tagged_doc

    pdf, _ = make_pdf_tagged_doc(2, "src1")
    pos = min(pos, len(pdf) - 1)
    mutated = pdf[:pos] + bytes([val]) + pdf[pos + 1:]
    try:
        doc = PdfDocument(mutated)
    except PdfParseError:
        return
    s = doc.structure()
    assert isinstance(s, list)
    assert doc.structure() == s  # deterministic


@settings(max_examples=300, deadline=None)
@given(payload=st.binary(max_size=2048).map(lambda b: b"GIF89a" + b))
def test_gif_reader_total_on_arbitrary_bytes(payload):
    """read_gif must raise ONLY ValueError on corrupt/truncated input —
    a struct.error/IndexError leak would kill the task instead of the
    decode_ok=False isolation row (found by a 3000-example fuzz campaign:
    truncated image-descriptor bytes escaped as struct.error)."""
    from query_suite.functions.gif import read_gif

    try:
        frames, delays = read_gif(payload)
        assert frames and len(frames) == len(delays)
    except ValueError:
        pass


@settings(max_examples=300, deadline=None)
@given(payload=st.binary(max_size=2048))
def test_wav_and_png_readers_total_on_arbitrary_bytes(payload):
    from service1_text_extraction_ray.functions.page_render import read_gray_png
    from query_suite.stages.multimodal import read_wav_pcm8

    try:
        read_wav_pcm8(b"RIFF" + payload)
    except ValueError:
        pass
    try:
        read_gray_png(b"\x89PNG\r\n\x1a\n" + payload)
    except ValueError:
        pass

def test_png_reader_wraps_structural_errors_as_valueerror():
    """ADVICE r4: random fuzz essentially never forms a literal IHDR chunk,
    so pin the two structured corruptions directly — truncated IHDR payload
    (would leak struct.error) and corrupt IDAT (would leak zlib.error)."""
    import struct
    import pytest
    from service1_text_extraction_ray.functions.page_render import (
        _png_chunk, read_gray_png, write_gray_png_array)
    import numpy as np

    sig = b"\x89PNG\r\n\x1a\n"
    # IHDR with a 4-byte payload: struct.unpack('>IIBB') needs 10
    with pytest.raises(ValueError):
        read_gray_png(sig + _png_chunk(b"IHDR", b"\x00\x00\x00\x01"))
    # valid IHDR, garbage IDAT: zlib.decompress fails
    ihdr = struct.pack(">IIBBBBB", 2, 2, 8, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        read_gray_png(
            sig + _png_chunk(b"IHDR", ihdr)
            + _png_chunk(b"IDAT", b"notzlib") + _png_chunk(b"IEND", b""))
    # sanity: the round trip still works after the wrapper
    a = (np.arange(12, dtype=np.uint8).reshape(3, 4) * 17) & 0xFF
    assert (read_gray_png(write_gray_png_array(a)) == a).all()


def test_gif_gce_undersized_block_leaves_delay_zero():
    """ADVICE r4: a Graphic Control Extension whose declared sub-block size
    is < 4 must NOT have its delay read from the following block's bytes."""
    from query_suite.functions.gif import read_gif, write_gif
    import numpy as np

    frame = np.zeros((2, 2), dtype=np.uint8)
    good = write_gif([frame], delay_cs=7)
    frames, delays = read_gif(good)
    assert delays == [7]

    # Locate the GCE (0x21 0xF9 <size=4> flags delay_lo delay_hi trans 0x00)
    i = good.index(b"\x21\xf9")
    assert good[i + 2] == 4
    # Rebuild the GCE as size=1 (flags only) + chain terminator, dropping
    # delay/transparency bytes but keeping the stream block-aligned. The
    # delay must now read as 0, not as bytes of the next block.
    bad = good[: i + 2] + b"\x01" + good[i + 3 : i + 4] + b"\x00" + good[i + 8 :]
    frames2, delays2 = read_gif(bad)
    assert delays2 == [0]
    assert (frames2[0] == frames[0]).all()


# ---------------------------------------------------------------------------
# Round-5 campaign: STRUCTURED tag-soup HTML (VERDICT r4 #6). Random bytes
# almost never exercise the parser's tag/entity/comment state machine;
# these strategies compose real-looking but malformed markup — misnested
# and stray tags, unterminated comments/CDATA, bad numeric/named entities,
# hidden-subtree attributes, truncation mid-tag — and assert totality,
# determinism, block invariants, and batch-vs-sequential equality.
# ---------------------------------------------------------------------------

_SOUP_TAGS = ["div", "p", "span", "a", "li", "ul", "h2", "td", "table",
              "article", "nav", "script", "style", "b", "em", "form",
              "noscript", "pre", "br", "img", "input", "svg", "iframe"]

_soup_words = st.lists(
    st.one_of(
        st.text(alphabet="abcdefghij KLMNOP.,;'!", min_size=1, max_size=12),
        st.sampled_from([
            "&amp;", "&amp", "&lt;", "&nosuchentity;", "&#65;", "&#x41;",
            "&#xZZ;", "&#99999999;", "&#;", "caf\u00e9", "\u2028", "  ",
        ]),
    ),
    min_size=0, max_size=6,
).map(" ".join)

_soup_attr = st.sampled_from([
    "", " class=x", " hidden", ' style="display:none"',
    ' style="color:red"', ' href="/a"', " broken=", ' x="unclosed',
])


@st.composite
def _tag_soup(draw):
    n = draw(st.integers(min_value=1, max_value=14))
    frags = []
    for _ in range(n):
        kind = draw(st.integers(min_value=0, max_value=9))
        tag = draw(st.sampled_from(_SOUP_TAGS))
        if kind <= 2:
            frags.append(f"<{tag}{draw(_soup_attr)}>")
        elif kind == 3:
            frags.append(f"</{tag}>")
        elif kind == 4:
            frags.append(draw(_soup_words))
        elif kind == 5:
            frags.append(f"<{tag}{draw(_soup_attr)}/>")
        elif kind == 6:
            frags.append(draw(st.sampled_from([
                "<!-- ok -->", "<!-- unterminated", "<!--", "<!doctype html>",
                "<![CDATA[x]]>", "<![CDATA[open", "<?php echo ?>", "<?",
                "<! bogus >", "</>", "< notatag>",
            ])))
        elif kind == 7:
            frags.append(f"<{tag}")  # truncated mid-tag
        elif kind == 8:
            frags.append(draw(_soup_words))
        else:
            frags.append(f"</{tag} >")
    body = "".join(frags)
    if draw(st.booleans()):
        body = f"<html><body>{body}</body></html>"
    return body


@settings(max_examples=6000, deadline=None)
@given(soup=_tag_soup())
def test_tag_soup_extraction_total_and_deterministic(soup):
    from service1_text_extraction_ray.functions.html_extract import (
        _WS_RE, parse_blocks)

    payload = soup.encode("utf-8", "surrogatepass")
    res = extract_document("u://soup", payload, CFG)
    _check_doc_result(res)
    assert extract_document("u://soup", payload, CFG) == res
    # block invariants: normalized whitespace, link chars bounded
    for b in parse_blocks(soup):
        assert b.text == _WS_RE.sub(" ", b.text).strip()
        assert 0 <= b.link_chars <= b.text_chars
    assert parse_blocks(soup) == parse_blocks(soup)


@settings(max_examples=2500, deadline=None)
@given(soup=_tag_soup())
def test_tag_soup_batch_stage_equals_sequential(soup):
    """Differential: the Arrow actor-batch path (SniffStage ->
    ExtractDocuments) must produce byte-identical doc_text/content_hash to
    a direct sequential extract_document call — the plumbing (truncation,
    null handling, Arrow round-trip) adds nothing and loses nothing."""
    import pyarrow as _pa

    from service1_text_extraction_ray.functions.extract import doc_content_hash
    from service1_text_extraction_ray.functions.synth import PAGES_SCHEMA
    from service1_text_extraction_ray.stages.extract_stage import (
        ExtractDocuments, SniffStage)

    payload = soup.encode("utf-8", "surrogatepass")
    batch = _pa.Table.from_pylist(
        [{"url": "u://soup", "warc_ts": 0, "html": payload,
          "text": "", "lang": "en"}],
        schema=PAGES_SCHEMA,
    )
    out = ExtractDocuments(CFG)(SniffStage(CFG)(batch)).to_pylist()[0]
    seq = extract_document("u://soup", payload, CFG)
    assert out["doc_text"] == seq["doc_text"]
    assert out["status"] == seq["status"]
    assert out["n_pages"] == seq["n_pages"]
    assert out["content_hash"] == doc_content_hash(seq["doc_text"])


@settings(max_examples=1500, deadline=None)
@given(soup=_tag_soup())
def test_tag_soup_encoding_differential(soup):
    """The same logical markup delivered as utf-8, BOM'd utf-8 and BOM'd
    utf-16 must decode to the same text (WHATWG precedence in
    decode_payload); a mis-declared charset must not crash."""
    from service1_text_extraction_ray.functions.html_extract import (
        decode_payload)

    clean = soup.encode("utf-8", errors="ignore").decode("utf-8")
    u8 = clean.encode("utf-8")
    assert decode_payload(u8) == clean
    assert decode_payload(b"\xef\xbb\xbf" + u8) == clean
    assert decode_payload(b"\xff\xfe" + clean.encode("utf-16-le")) == clean
    assert decode_payload(b"\xfe\xff" + clean.encode("utf-16-be")) == clean
    # declared charset that lies about the bytes: falls through, never raises
    lied = b'<meta charset="shift_jis">' + u8 + b"\xff\xfe\xfd"
    assert isinstance(decode_payload(lied), str)


def test_declared_charset_fixture():
    """Pin the declared-charset branch with real non-UTF-8 bytes: a latin-1
    page whose meta declares iso-8859-1 decodes through the declaration."""
    from service1_text_extraction_ray.functions.html_extract import (
        decode_payload)

    body = "<html><meta charset=iso-8859-1><p>caf\u00e9 touch\u00e9</p>"
    payload = body.encode("latin-1")
    assert decode_payload(payload) == body
    # same bytes without the declaration: invalid utf-8 -> latin-1 fallback,
    # identical result by construction
    no_meta = "<html><p>caf\u00e9</p>".encode("latin-1")
    assert decode_payload(no_meta) == "<html><p>caf\u00e9</p>"


# ---------------------------------------------------------------------------
# Round-5 campaign #2: STRUCTURED PDF soup. The existing PDF fuzz feeds
# random bytes after the magic; these mutations target the parser's actual
# state machine — lying /Length values, truncation inside streams, stale
# xref offsets, dropped endobj/trailer, duplicated objects, corrupted
# ObjStm — the corruption classes a real crawl's PDFs exhibit.
# ---------------------------------------------------------------------------

def _valid_pdf(seed: int) -> bytes:
    import random

    from service1_text_extraction_ray.functions.synth import make_pdf

    rng = random.Random(seed)
    # each page must clear the 250-char acceptance gate to exercise the
    # REAL extraction path, not the short-page fallback ladder
    lines = [
        f"line {i} of seeded text payload {seed} with enough words to carry "
        f"the page past the acceptance gate threshold comfortably"
        for i in range(5)
    ]
    return make_pdf([lines, lines[:4]], rng, compress=seed % 2 == 0)


@st.composite
def _pdf_soup(draw):
    import re as _re

    base = bytearray(_valid_pdf(draw(st.integers(min_value=0, max_value=31))))
    n_mut = draw(st.integers(min_value=1, max_value=3))
    for _ in range(n_mut):
        kind = draw(st.integers(min_value=0, max_value=7))
        if kind == 0:  # lie about a stream /Length
            m = _re.search(rb"/Length (\d+)", bytes(base))
            if m:
                lie = str(draw(st.integers(min_value=0, max_value=99999))).encode()
                base[m.start(1):m.end(1)] = lie
        elif kind == 1:  # truncate inside a stream body
            i = bytes(base).find(b"stream")
            if i >= 0:
                cut = i + draw(st.integers(min_value=1, max_value=40))
                del base[cut:]
        elif kind == 2:  # corrupt the startxref offset
            m = _re.search(rb"startxref\s*(\d+)", bytes(base))
            if m:
                base[m.start(1):m.end(1)] = b"99999999"
        elif kind == 3:  # drop an endobj
            i = bytes(base).find(b"endobj")
            if i >= 0:
                del base[i:i + 6]
        elif kind == 4:  # duplicate an object (conflicting definitions)
            m = _re.search(rb"\d+ 0 obj.*?endobj\n", bytes(base), _re.S)
            if m:
                base[m.end():m.end()] = m.group(0)
        elif kind == 5:  # splice arbitrary bytes mid-file
            pos = draw(st.integers(min_value=9, max_value=max(10, len(base) - 1)))
            junk = draw(st.binary(min_size=1, max_size=32))
            base[pos:pos] = junk
        elif kind == 6:  # delete the trailer
            i = bytes(base).find(b"trailer")
            if i >= 0:
                del base[i:]
        else:  # flip bytes inside the stream payload
            i = bytes(base).find(b"stream")
            if i >= 0 and i + 20 < len(base):
                off = i + 8 + draw(st.integers(min_value=0, max_value=10))
                if off < len(base):
                    base[off] = (base[off] + 0x41) % 256
    return bytes(base)


@settings(max_examples=4000, deadline=None)
@given(payload=_pdf_soup())
def test_pdf_soup_total_and_deterministic(payload):
    res = extract_document("u://pdfsoup", payload, CFG)
    _check_doc_result(res)
    assert extract_document("u://pdfsoup", payload, CFG) == res


@settings(max_examples=1000, deadline=None)
@given(payload=_pdf_soup())
def test_pdf_soup_batch_stage_equals_sequential(payload):
    import pyarrow as _pa

    from service1_text_extraction_ray.functions.extract import doc_content_hash
    from service1_text_extraction_ray.functions.synth import PAGES_SCHEMA
    from service1_text_extraction_ray.stages.extract_stage import (
        ExtractDocuments, SniffStage)

    batch = _pa.Table.from_pylist(
        [{"url": "u://pdfsoup", "warc_ts": 0, "html": payload,
          "text": "", "lang": "en"}],
        schema=PAGES_SCHEMA,
    )
    out = ExtractDocuments(CFG)(SniffStage(CFG)(batch)).to_pylist()[0]
    seq = extract_document("u://pdfsoup", payload, CFG)
    assert out["doc_text"] == seq["doc_text"]
    assert out["status"] == seq["status"]
    assert out["content_hash"] == doc_content_hash(seq["doc_text"])


def test_pdf_soup_untouched_base_extracts():
    # sanity: the generator's base documents DO extract before mutation,
    # so the campaign exercises the parse path, not the reject path
    for seed in range(8):
        res = extract_document("u://pdfok", _valid_pdf(seed), CFG)
        assert res["status"] == "ok" and res["n_pages"] == 2
        assert "line 0 of seeded text" in res["doc_text"]


# ---------------------------------------------------------------------------
# Round-5 campaign #3: WARC salvage-mode totality. Arbitrary byte-level
# damage to a valid multi-member .warc.gz blob must never raise in
# tolerant mode, and the salvaged pages must be a subset of the original
# (prefix-equality of survivors is checked by the unit tests; here the
# property is totality + consistency of the shared pairing generator).
# ---------------------------------------------------------------------------

def _warc_gz_blob() -> tuple:
    import gzip

    from service1_text_extraction_ray.sources.pages_source import (
        _http_envelope, _sha1_b32, _warc_record)

    members = []
    urls = []
    for i in range(6):
        url = f"https://w.example/{i:04d}"
        urls.append(url)
        body = (f"<html><body><p>{'text ' * 30}{i}</p></body></html>").encode()
        wet = f"wet text {i} {'tok ' * 20}".encode()
        date = "2025-01-01T00:00:00.000000Z"
        env = _http_envelope(body, "text/html")
        members.append(_warc_record(
            b"response", url, date, env,
            [b"Content-Type: application/http; msgtype=response\r\n",
             b"WARC-Payload-Digest: " + _sha1_b32(body) + b"\r\n"]))
        members.append(_warc_record(
            b"conversion", url, date, wet,
            [b"Content-Type: text/plain\r\n"]))
    blob = b"".join(gzip.compress(m, mtime=0) for m in members)
    return blob, set(urls)


_WARC_BLOB, _WARC_URLS = _warc_gz_blob()


@settings(max_examples=2000, deadline=None)
@given(
    pos=st.integers(min_value=0, max_value=len(_WARC_BLOB) - 1),
    mode=st.integers(min_value=0, max_value=2),
    junk=st.binary(min_size=1, max_size=24),
)
def test_warc_salvage_total_on_mutations(pos, mode, junk):
    from service1_text_extraction_ray.sources.pages_source import (
        _gunzip_members, _iter_warc_pages)

    b = bytearray(_WARC_BLOB)
    if mode == 0:
        b[pos] ^= 0x5A               # flip
    elif mode == 1:
        del b[pos:pos + len(junk)]   # excise
    else:
        b[pos:pos] = junk            # splice
    payload = bytes(b)

    stats: dict = {}
    plain = _gunzip_members(payload, tolerant=True, stats=stats)
    rows = list(_iter_warc_pages(plain, tolerant=True, stats=stats))
    # totality + salvaged pages are real pages
    assert {r["url"] for r in rows}.issubset(_WARC_URLS)
    # determinism
    plain2 = _gunzip_members(payload, tolerant=True)
    assert plain2 == plain
    assert list(_iter_warc_pages(plain, tolerant=True)) == rows


def _archive_blobs() -> tuple:
    """One tar.gz and one zip blob with 8 members each (built in-process,
    no Ray) for mutation fuzzing of the salvage walkers."""
    import gzip
    import io
    import tarfile
    import zipfile

    texts = {i: f"member text {i} " + "tok " * 25 for i in range(8)}
    tbuf = io.BytesIO()
    with tarfile.open(fileobj=tbuf, mode="w") as tf:
        for i, text in texts.items():
            data = text.encode()
            info = tarfile.TarInfo(f"docs/{i}.txt")
            info.size = len(data)
            tf.addfile(info, io.BytesIO(data))
    targz = gzip.compress(tbuf.getvalue(), mtime=0)
    zbuf = io.BytesIO()
    with zipfile.ZipFile(zbuf, "w", zipfile.ZIP_DEFLATED) as zf:
        for i, text in texts.items():
            zf.writestr(f"docs/{i}.txt", text)
    return targz, zbuf.getvalue(), set(texts.values())


_TARGZ, _ZIP, _MEMBER_TEXTS = _archive_blobs()


@settings(max_examples=1500, deadline=None)
@given(
    pos=st.integers(min_value=0, max_value=max(len(_TARGZ), len(_ZIP)) - 1),
    mode=st.integers(min_value=0, max_value=2),
    junk=st.binary(min_size=1, max_size=16),
    which=st.booleans(),
)
def test_archive_salvage_total_on_mutations(pos, mode, junk, which):
    """The tar/zip salvage walkers are total and deterministic on
    arbitrary byte damage, and only ever yield real member payloads."""
    from query_suite.sources.page_formats import (
        _gunzip_prefix,
        _salvage_tar_members,
        _salvage_zip_members,
    )

    base = _TARGZ if which else _ZIP
    pos = min(pos, len(base) - 1)
    b = bytearray(base)
    if mode == 0:
        b[pos] ^= 0x5A
    elif mode == 1:
        del b[pos:pos + len(junk)]
    else:
        b[pos:pos] = junk
    blob = bytes(b)

    if which:
        members = list(_salvage_tar_members(_gunzip_prefix(blob)))
        again = list(_salvage_tar_members(_gunzip_prefix(blob)))
    else:
        members = list(_salvage_zip_members(blob))
        again = list(_salvage_zip_members(blob))
    assert members == again  # deterministic
    lengths = {len(t.encode()) for t in _MEMBER_TEXTS}
    for name, payload in members:
        if name.startswith("docs/") and name.endswith(".txt"):
            text = payload.decode("utf-8", "replace")
            if which:
                # tar: the header checksum covers only the header, so a
                # mutation INSIDE a payload can survive — but the size
                # field is checksummed, so any salvaged payload must have
                # a genuine member's exact length (and most are exact)
                assert text in _MEMBER_TEXTS or len(payload) in lengths
            else:
                # zip: the walker verifies each member's CRC, so salvage
                # can ONLY ever yield byte-exact original members
                assert text in _MEMBER_TEXTS
