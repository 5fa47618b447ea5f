"""Unit tests for the HTML block segmenter and boilerplate heuristics."""

import contextlib
import os
import re
import tempfile

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings, strategies as st

from service1_text_extraction_ray.functions import extract as X
from service1_text_extraction_ray.functions.html_extract import (
    BLOCK_TAGS,
    HEADING_TAGS,
    MAX_LINK_DENSITY,
    MIN_BLOCK_CHARS,
    Block,
    decode_payload,
    dump_layout,
    extract_html_text,
    html_layout,
    html_layout_json,
    parse_blocks,
    select_content_blocks,
)
from service1_text_extraction_ray.functions.sniff import sniff_table
from service1_text_extraction_ray.stages.extract_stage import ExtractDocuments
from service1_text_extraction_ray.state import lineage as lin


def test_drops_script_style_head():
    html = (
        b"<html><head><title>T</title><style>.x{color:red}</style>"
        b"<script>var x=1;</script></head>"
        b"<body><p>Visible paragraph with enough characters to keep around.</p></body></html>"
    )
    text, kept = extract_html_text(html)
    assert "color:red" not in text
    assert "var x=1" not in text
    assert "T" not in text.split()  # title is in head -> dropped
    assert "Visible paragraph" in text


def test_drops_nav_header_footer_aside():
    html = (
        b"<html><body>"
        b"<nav><a href='/'>Home</a> <a href='/a'>About pages galore</a></nav>"
        b"<header>Site header with some text in it here</header>"
        b"<p>Main content paragraph that is long enough to be kept by rules.</p>"
        b"<aside>Sidebar junk with plenty of characters inside of it</aside>"
        b"<footer>Copyright footer text that is quite long too</footer>"
        b"</body></html>"
    )
    text, _ = extract_html_text(html)
    assert text == "Main content paragraph that is long enough to be kept by rules."


def test_link_density_drops_link_farms():
    farm = "".join(f'<a href="/{i}">link text number {i}</a> ' for i in range(10))
    html = (
        f"<html><body><div>{farm}</div>"
        f"<p>Genuine article prose without any links, long enough to keep.</p>"
        f"</body></html>"
    ).encode()
    text, _ = extract_html_text(html)
    assert "link text number" not in text
    assert "Genuine article prose" in text


def test_inline_link_within_prose_kept():
    # A paragraph with one inline link has low link density -> kept whole.
    html = (
        b"<html><body><p>This paragraph mentions <a href='/x'>a link</a> but "
        b"is mostly prose and should be kept in the extraction output.</p></body></html>"
    )
    text, _ = extract_html_text(html)
    assert "mentions a link but" in text


def test_heading_threshold():
    html = b"<html><body><h1>Big headline</h1><p>Body paragraph long enough to keep here.</p></body></html>"
    text, _ = extract_html_text(html)
    assert text.startswith("Big headline")


def test_short_blocks_dropped():
    html = b"<html><body><p>tiny</p><p>A sufficiently long paragraph to clear the block threshold.</p></body></html>"
    text, _ = extract_html_text(html)
    assert "tiny" not in text


def test_malformed_html_no_exception():
    html = b"<html><body><p>unclosed paragraph with words " + b"x " * 50
    text, _ = extract_html_text(html)
    assert "unclosed paragraph" in text


def test_entities_decoded():
    html = b"<html><body><p>Fish &amp; chips cost &lt;5 pounds at the local shop.</p></body></html>"
    text, _ = extract_html_text(html)
    assert "Fish & chips cost <5 pounds" in text


def test_decode_utf8_then_latin1():
    assert decode_payload("café".encode("utf-8")) == "café"
    assert decode_payload("café".encode("latin-1")) == "café"


def test_block_features():
    blocks = parse_blocks('<div><a href="/x">linky link</a> and some longer prose</div>')
    assert len(blocks) == 1
    b = blocks[0]
    assert b.link_chars == len("linky link")
    assert 0 < b.link_density < 1
    assert b.text_chars >= MIN_BLOCK_CHARS and b.link_density <= MAX_LINK_DENSITY
    assert select_content_blocks(blocks) == blocks
    # the same block with more link text than prose is dropped
    dense = parse_blocks('<div><a href="/x">linky link and some longer</a> prose</div>')
    assert dense[0].link_density > MAX_LINK_DENSITY
    assert select_content_blocks(dense) == []


class TestHtmlTables:
    """functions/html_tables.py — structured <table> extraction semantics."""

    def _tables(self, html: str):
        from query_suite.functions.html_tables import extract_html_tables

        return extract_html_tables(html.encode("utf-8"))

    def test_basic_th_header_and_cells(self):
        from query_suite.functions.html_tables import table_markdown

        t = self._tables(
            "<table><tr><th>a</th><th>b</th></tr>"
            "<tr><td> x  y </td><td>z</td></tr></table>"
        )
        assert len(t) == 1
        assert t[0].header_is_th
        assert t[0].rows == [["a", "b"], ["x y", "z"]]
        assert table_markdown(t[0]) == "| a | b |\n| --- | --- |\n| x y | z |"

    def test_no_th_header_gets_empty_header(self):
        from query_suite.functions.html_tables import table_markdown

        t = self._tables("<table><tr><td>1</td><td>2</td></tr></table>")
        assert not t[0].header_is_th
        assert table_markdown(t[0]) == "|  |  |\n| --- | --- |\n| 1 | 2 |"

    def test_nested_table_folds_into_outer_cell(self):
        t = self._tables(
            "<table><tr><td>outer "
            "<table><tr><td>inner</td></tr></table>"
            " tail</td></tr></table>"
        )
        assert len(t) == 1  # nested table not emitted separately
        assert t[0].rows == [["outer inner tail"]]

    def test_script_decoy_and_ragged_rows(self):
        from query_suite.functions.html_tables import table_markdown

        t = self._tables(
            "<script>'<table><tr><td>NOPE</td></tr></table>'</script>"
            "<table><tr><td>a</td><td>b</td><td>c</td></tr>"
            "<tr><td>only</td></tr></table>"
        )
        assert len(t) == 1
        assert t[0].n_cols == 3
        md = table_markdown(t[0])
        assert "NOPE" not in md
        assert md.splitlines()[-1] == "| only |  |  |"

    def test_truncated_markup_flushes_open_table(self):
        t = self._tables("<table><tr><td>left</td><td>right")
        assert t and t[0].rows == [["left", "right"]]

    def test_pipe_escaped_in_markdown(self):
        from query_suite.functions.html_tables import table_markdown

        t = self._tables("<table><tr><td>a|b</td></tr></table>")
        assert "a\\|b" in table_markdown(t[0])

    def test_fixture_page_round_trip(self):
        """make_table_page -> extractor recovers exactly the planted tables."""
        from query_suite.functions.html_tables import extract_html_tables
        from query_suite.functions.fixtures import make_table_page

        page = make_table_page(10, "en", "src3", 500)  # %4==2 -> 3 data rows; %5==0 -> 2 tables
        tabs = extract_html_tables(page)
        assert len(tabs) == 2
        assert tabs[0].rows[0] == ["k", "v"]
        assert tabs[0].rows[1:] == [["k0", "500"], ["k1", "501"], ["k2", "502"]]
        assert tabs[1].rows == [["lang", "src"], ["en", "src3"]]


class TestCharsetDecoding:
    def test_bom_variants_stripped(self):
        from service1_text_extraction_ray.functions.html_extract import (
            decode_payload,
        )

        assert decode_payload(b"\xef\xbb\xbfhi") == "hi"
        assert decode_payload("hé".encode("utf-16-le").join([b"\xff\xfe", b""])) == "hé"
        assert decode_payload(b"\xfe\xff" + "hé".encode("utf-16-be")) == "hé"

    def test_meta_charset_honored(self):
        from service1_text_extraction_ray.functions.html_extract import (
            decode_payload,
        )

        page = '<html><head><meta charset="windows-1252"></head><body>café</body></html>'
        assert "café" in decode_payload(page.encode("windows-1252"))
        # http-equiv form
        page2 = ('<html><head><meta http-equiv="Content-Type" '
                 'content="text/html; charset=iso-8859-1"></head><body>niño</body></html>')
        assert "niño" in decode_payload(page2.encode("iso-8859-1"))

    def test_misdeclared_charset_falls_back(self):
        from service1_text_extraction_ray.functions.html_extract import (
            decode_payload,
        )

        # declared cp1252 but actually valid UTF-8 that is NOT valid cp1252
        # (0x81 is unmapped in cp1252): must fall through without raising
        body = '<meta charset="windows-1252">' .encode() + b"\xc2\x81tail"
        out = decode_payload(body)
        assert out.endswith("tail")
        # unknown codec name
        out2 = decode_payload(b'<meta charset="no-such-enc">plain ascii')
        assert out2.endswith("plain ascii")

    def test_corpus_charset_fixtures_roundtrip(self):
        from service1_text_extraction_ray.functions.extract import (
            ExtractConfig,
            extract_document,
        )
        from service1_text_extraction_ray.functions.synth import make_row

        # i=20 -> windows-1252 fixture; i=3 -> BOM fixture (seed default)
        r = make_row(20)
        res = extract_document(r["url"], r["html"], ExtractConfig())
        assert "Café déjà vu — señal única." in res["doc_text"]
        assert "﻿" not in res["doc_text"]
        r3 = make_row(3)
        assert r3["html"].startswith(b"\xef\xbb\xbf")
        res3 = extract_document(r3["url"], r3["html"], ExtractConfig())
        assert "﻿" not in res3["doc_text"]
        assert len(res3["doc_text"]) > 250


class TestHiddenContent:
    """CSS-era boilerplate: hidden subtrees must not count as content."""

    def _text(self, html: str) -> str:
        from service1_text_extraction_ray.functions.html_extract import (
            extract_html_text,
        )

        return extract_html_text(html.encode())[0]

    def test_hidden_attribute_drops_subtree(self):
        t = self._text(
            "<html><body><p>" + "visible words here " * 20 + "</p>"
            "<div hidden><p>" + "SECRET " * 30 + "</p></div></body></html>"
        )
        assert "SECRET" not in t and "visible" in t

    def test_display_none_and_visibility_hidden(self):
        t = self._text(
            "<html><body><p>" + "real content text " * 20 + "</p>"
            "<div style='display: none'><p>" + "BANNER " * 30 + "</p></div>"
            '<p style="visibility:hidden">' + "OFF " * 30 + "</p></body></html>"
        )
        assert "BANNER" not in t and "OFF" not in t and "real" in t

    def test_nested_same_tag_inside_hidden(self):
        t = self._text(
            "<html><body><div hidden><div><p>" + "INNER " * 30 + "</p></div>"
            "</div><p>" + "after text words " * 20 + "</p></body></html>"
        )
        assert "INNER" not in t and "after" in t

    def test_sibling_after_hidden_block_is_kept(self):
        t = self._text(
            "<html><body><p style='display:none'>" + "X " * 40 + "</p>"
            "<p>" + "kept sibling paragraph " * 15 + "</p></body></html>"
        )
        assert "kept" in t and "X X" not in t

    def test_visible_style_attr_is_not_dropped(self):
        t = self._text(
            "<html><body><p style='color: red; display:block'>"
            + "styled but visible words " * 15 + "</p></body></html>"
        )
        assert "styled" in t


class TestRelUgcSponsored:
    def test_ugc_and_sponsored_count_as_nofollow(self):
        from query_suite.functions.links import extract_outlinks

        html = (
            '<html><body>'
            '<a href="/a" rel="ugc">comment link</a>'
            '<a href="/b" rel="sponsored">paid link</a>'
            '<a href="/c" rel="nofollow ugc">both</a>'
            '<a href="/d" rel="author">followable</a>'
            '<a href="/e">plain</a>'
            "</body></html>"
        ).encode()
        links, _, _ = extract_outlinks(html, "https://h.example.com/p")
        by_path = {ln.href.rsplit("/", 1)[-1]: ln.nofollow for ln in links}
        assert by_path == {"a": True, "b": True, "c": True,
                           "d": False, "e": False}


class TestExtractHeadings:
    def test_outline_decoys_and_parents(self):
        from query_suite.functions.meta import extract_headings

        html = (
            b"<html><body>"
            b"<nav><h2>menu</h2></nav>"            # chrome: dropped
            b"<h1>Doc <em>5</em></h1>"             # nested inline concatenates
            b"<h2>Section 1 <em>of</em> doc 5</h2>"
            b'<div style="display: none"><h3>hidden</h3></div>'
            b"<h4>   </h4>"                        # empty: dropped
            b"<h3>Part 1.1</h3>"
            b"<h2>Section 2</h2><h3>Part 2.1</h3>"
            b"<footer><h6>foot</h6></footer>"
            b"</body></html>"
        )
        rows = extract_headings(html)
        assert [(r["pos"], r["level"], r["text"], r["parent_pos"]) for r in rows] == [
            (1, 1, "Doc 5", -1),
            (2, 2, "Section 1 of doc 5", 1),
            (3, 3, "Part 1.1", 2),
            (4, 2, "Section 2", 1),
            (5, 3, "Part 2.1", 4),
        ]

    def test_hidden_attr_and_truncation(self):
        from query_suite.functions.meta import extract_headings

        assert extract_headings(b"<div hidden><h1>x</h1></div><h2>ok</h2>") == [
            {"pos": 1, "level": 2, "text": "ok", "parent_pos": -1}
        ]
        # truncated mid-heading: no endtag -> heading never emitted, no crash
        assert extract_headings(b"<h1>dangling") == []


# -- DOM layouts through storage --------------------------------------------
# The built-in HTML extractor gives a DOM page's layout as its block tags,
# which a part stores and the reader rebuilds into the layout JSON; a page
# given with its JSON (another extractor) is stored with it.

_PAGE = b"<html><body><p>" + b"Plenty of plain words in one paragraph here. " * 8 + b"</p></body></html>"


@contextlib.contextmanager
def _html_extractor(fn):
    # A context manager, not the fixture: hypothesis runs many examples
    # per test call.
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setitem(X.EXTRACTORS, X.KIND_HTML, fn)
        yield


def _dom_extractor(text, layout):
    """An HTML extractor emitting one DOM page with this text and layout."""
    return lambda url, payload, cfg: {
        "pages": [X._page_row(1, X.METHOD_DOM, text, dump_layout(layout))]}


def _extract(payloads, cfg=X.ExtractConfig()):
    n = len(payloads)
    src = pa.table({
        "url": [f"https://t.example/{i}" for i in range(n)],
        "warc_ts": pa.array([0] * n, pa.timestamp("us")),
        "html": pa.array(payloads, pa.binary()),
        "lang": ["en"] * n,
        "path": ["pages-00000.parquet"] * n,
    })
    return ExtractDocuments(cfg)(sniff_table(src, cfg.size_bucket_edges))


def _through_storage(docs):
    """(the raw pages of the part ``write_part`` stores, ``read_shard``)."""
    with tempfile.TemporaryDirectory() as out:
        rec = lin.write_part(out, 0, docs)
        lin.commit_shard_manifest(out, 0, [rec])
        raw = pq.read_table(os.path.join(lin.shard_data_dir(out, 0), rec["part"]))
        return raw["pages"].to_pylist(), lin.read_shard(out, 0)


_BLOCK_TEXT = st.lists(
    st.one_of(
        st.text(max_size=12),
        st.sampled_from(['"', "\\", '"font":"html:', '"font":"html:p"',
                         "é", "日本語", "\U0001f600", "}]"]),
    ),
    min_size=1, max_size=6,
).map(lambda parts: re.sub(r"\s+", " ", "".join(parts)).strip()).filter(bool)

_BLOCKS = st.lists(
    st.builds(lambda text, tag: Block(text, 0, tag, tag in HEADING_TAGS),
              _BLOCK_TEXT, st.sampled_from(sorted(BLOCK_TAGS | {"body"}))),
    max_size=8,
)


@settings(max_examples=60, deadline=None)
@given(_BLOCKS.filter(bool))
def test_html_layout_round_trips_through_storage(blocks):
    """The built-in extractor, given these kept blocks, carries their tags
    (no JSON); the part stores them and the reader rebuilds the
    ``dump_layout(html_layout(blocks))`` JSON."""
    text = "\n\n".join(b.text for b in blocks)
    tags = " ".join(b.tag for b in blocks)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(X, "extract_html_text", lambda payload: (text, blocks))
        monkeypatch.setattr(X, "gate_page_text", lambda text, n: True)
        docs = _extract([_PAGE])
    page = docs["pages"].to_pylist()[0][0]
    assert (page["layout_json"], page["layout_tags"], page["layout_spans"]) == (None, tags, None)

    raw, back = _through_storage(docs)
    assert (raw[0][0]["layout_json"], raw[0][0]["layout_tags"]) == (None, tags)
    assert "layout_spans" not in raw[0][0]  # no PDF page: no such field
    assert back["pages"].to_pylist()[0][0]["layout_json"] == dump_layout(html_layout(blocks))
    assert back.equals(lin.doc_view(docs))


# Block texts as html_layout_json's callers split them: no newline (the
# block separator is a blank line), but every other escape json.dumps makes.
_LAYOUT_TEXT = st.text(
    st.one_of(
        st.characters(blacklist_characters="\n"),
        st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u2028",
                         "\U0001f600", "\ud800"]),
    ),
    max_size=16,
)
_LAYOUT_TAG = st.sampled_from(sorted(BLOCK_TAGS | {"body"}))


def _check_layout_json(blocks):
    reference = dump_layout(html_layout([Block(t, 0, tag, False) for t, tag in blocks]))
    text = "\n\n".join(t for t, _ in blocks)
    assert html_layout_json(text, " ".join(tag for _, tag in blocks)) == reference


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_LAYOUT_TEXT, _LAYOUT_TAG), min_size=1, max_size=300))
def test_html_layout_json_writes_the_reference_json(blocks):
    _check_layout_json(blocks)


@pytest.mark.parametrize("n", [1, 4, 257, 600])
def test_html_layout_json_rounds_far_blocks_as_the_reference(n):
    # Block i sits at y = round(i * 30, 2): cover large indices explicitly.
    _check_layout_json([(f"block {i} \"quoted\"", "p") for i in range(n)])


def _override_layout():
    blocks = [Block("A heading", 0, "h1", True), Block("Body text.", 0, "p", False)]
    layout = html_layout(blocks)
    layout["width"] = 600.0  # not what html_layout writes
    return _dom_extractor("A heading\n\nBody text.", layout)


def _blank_line_in_block():
    blocks = [Block("one\n\ntwo", 0, "pre", False), Block("three", 0, "p", False)]
    return _dom_extractor("one\n\ntwo\n\nthree", html_layout(blocks))


@pytest.mark.parametrize("case", ["override", "blank_line_in_block", "no_layout", "failed"])
def test_layouts_stored_verbatim(case):
    cfg = X.ExtractConfig()
    payload = _PAGE
    with contextlib.ExitStack() as stack:
        if case == "override":
            stack.enter_context(_html_extractor(_override_layout()))
        elif case == "blank_line_in_block":
            stack.enter_context(_html_extractor(_blank_line_in_block()))
        elif case == "no_layout":
            cfg = X.ExtractConfig(emit_layout=False)
        else:
            payload = b"<html><body><p>Too short to keep.</p></body></html>"
        docs = _extract([payload], cfg)
    page = docs["pages"].to_pylist()[0][0]
    assert page["method"] == (X.METHOD_FAILED if case == "failed" else X.METHOD_DOM)
    assert (page["layout_json"] == "") == (case in ("no_layout", "failed"))

    raw, back = _through_storage(docs)
    assert raw[0][0]["layout_json"] == page["layout_json"]
    assert "layout_tags" not in raw[0][0]  # no page compacted: no field
    assert back.equals(lin.doc_view(docs))
