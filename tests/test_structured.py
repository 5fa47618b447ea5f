"""JSON-LD structured-data extraction: MIME gating, salvage, @graph
flattening, and the fixture's branch contract."""

import pytest

from query_suite.functions.structured import extract_jsonld
from query_suite.functions.fixtures import make_jsonld_page


class TestExtractJsonld:
    def test_bare_object_and_name_fallback_to_headline(self):
        html = (
            b'<script type="application/ld+json">'
            b'{"@type": "Article", "headline": "H"}</script>'
        )
        assert extract_jsonld(html) == [
            {"entity_type": "Article", "name": "H", "word_count": None}
        ]

    def test_name_wins_over_headline(self):
        html = (
            b'<script type="application/ld+json">'
            b'{"@type": "Article", "name": "N", "headline": "H"}</script>'
        )
        assert extract_jsonld(html)[0]["name"] == "N"

    def test_top_level_array_and_graph_flatten(self):
        html = (
            b'<script type="application/ld+json">'
            b'[{"@type": "A", "name": "a"}, {"@type": "B", "name": "b"}]'
            b"</script>"
            b'<script type="application/ld+json">'
            b'{"@graph": [{"@type": "C", "name": "c"}, 7, {"name": "untyped"}]}'
            b"</script>"
        )
        got = extract_jsonld(html)
        assert [(e["entity_type"], e["name"]) for e in got] == [
            ("A", "a"), ("B", "b"), ("C", "c"),
        ]  # non-dict and untyped @graph nodes skipped

    def test_mime_gate_ignores_other_scripts(self):
        html = (
            b'<script>var x = {"@type": "Movie", "name": "NOPE"};</script>'
            b'<script type="text/javascript">{"@type": "Book"}</script>'
            b'<script type="APPLICATION/LD+JSON; charset=utf-8">'
            b'{"@type": "Event", "name": "E"}</script>'
        )
        got = extract_jsonld(html)
        assert got == [{"entity_type": "Event", "name": "E", "word_count": None}]

    def test_trailing_comma_salvaged_missing_comma_yields_no_entity(self):
        ok = b'<script type="application/ld+json">{"@type": "T", "name": "n",}</script>'
        # the sanitizer's quote-escape repair turns the missing-comma block
        # into a VALID object whose @type key is swallowed into the previous
        # value — an untyped node, skipped (the fixture's %13 branch relies
        # on @context coming first for exactly this reason)
        bad = (
            b'<script type="application/ld+json">'
            b'{"@context": "https://schema.org" "@type": "T", "name": "n"}'
            b"</script>"
        )
        assert extract_jsonld(ok) == [
            {"entity_type": "T", "name": "n", "word_count": None}
        ]
        assert extract_jsonld(bad) == []

    def test_wordcount_must_be_int(self):
        html = (
            b'<script type="application/ld+json">'
            b'{"@type": "A", "name": "x", "wordCount": "12"}</script>'
            b'<script type="application/ld+json">'
            b'{"@type": "B", "name": "y", "wordCount": true}</script>'
        )
        assert [e["word_count"] for e in extract_jsonld(html)] == [None, None]

    @pytest.mark.parametrize("doc_id,n_entities", [
        (1, 1),      # article only
        (5, 3),      # article + 2 graph nodes
        (7, 1),      # trailing comma salvaged
        (13, 0),     # beyond salvage
        (65, 2),     # 13*5: article lost, graph survives
        (91, 0),     # 7*13: unparseable wins over salvageable
    ])
    def test_fixture_branch_contract(self, doc_id, n_entities):
        html, url = make_jsonld_page(doc_id, "src1", "en", 100)
        got = extract_jsonld(html)
        assert len(got) == n_entities
        assert url == f"https://src1.example.com/a/{doc_id}"
        if doc_id % 13 != 0:
            assert got[0] == {
                "entity_type": "Article", "name": f"Doc {doc_id}",
                "word_count": 100,
            }


class TestExtractMicrodata:
    def test_scopes_values_and_drops(self):
        from query_suite.functions.structured import extract_microdata

        html = (
            b'<div itemscope itemtype="https://schema.org/Product">'
            b'<span itemprop="name">Widget  X</span>'
            b'<img itemprop="image" src="/w.jpg">'
            b'<meta itemprop="sku" content="SKU-1">'
            b'<div itemscope itemtype="https://schema.org/Offer">'
            b'<span itemprop="price">9.99</span></div>'
            b'<time itemprop="released" datetime="2020-01-02">Jan 2</time>'
            b"</div>"
            b'<span itemprop="orphan">no scope</span>'
            b'<meta itemprop="empty" content="">'
            b'<script>var x=\'<span itemprop="name">NOPE</span>\';</script>'
        )
        got = extract_microdata(html)
        assert got == [
            {"entity": 1, "itemtype": "https://schema.org/Product",
             "prop": "name", "value": "Widget X"},
            {"entity": 1, "itemtype": "https://schema.org/Product",
             "prop": "image", "value": "/w.jpg"},
            {"entity": 1, "itemtype": "https://schema.org/Product",
             "prop": "sku", "value": "SKU-1"},
            {"entity": 2, "itemtype": "https://schema.org/Offer",
             "prop": "price", "value": "9.99"},
            {"entity": 1, "itemtype": "https://schema.org/Product",
             "prop": "released", "value": "2020-01-02"},
        ]

    def test_truncation_flushes_open_prop(self):
        from query_suite.functions.structured import extract_microdata

        html = (
            b'<div itemscope itemtype="T"><span itemprop="p">dangling text'
        )
        assert extract_microdata(html) == [
            {"entity": 1, "itemtype": "T", "prop": "p", "value": "dangling text"}
        ]


class TestRdfa:
    def test_vocab_expansion_values_and_drops(self):
        from query_suite.functions.structured import extract_rdfa

        html = (
            b'<body vocab="https://schema.org/">'
            b'<div typeof="Article" property="chained">'
            b'<h1 property="name">Hello  World</h1>'
            b'<time property="datePublished" datetime="2024-02-03">Feb</time>'
            b'<img property="image" src="/i/4.jpg">'
            b'<meta property="wordCount" content="123">'
            b'<meta property="empty" content="">'
            b'<div typeof="Person"><span property="name">Ada</span></div>'
            b'<span property="dc:creator">CURIE</span>'
            b"</div>"
            b'<span property="orphan">drop</span>'
            b'<script>var x=\'<span property="name">NO</span>\';</script>'
            b"</body>"
        )
        assert extract_rdfa(html) == [
            {"entity": 1, "rtype": "https://schema.org/Article",
             "prop": "https://schema.org/name", "value": "Hello World"},
            {"entity": 1, "rtype": "https://schema.org/Article",
             "prop": "https://schema.org/datePublished", "value": "2024-02-03"},
            {"entity": 1, "rtype": "https://schema.org/Article",
             "prop": "https://schema.org/image", "value": "/i/4.jpg"},
            {"entity": 1, "rtype": "https://schema.org/Article",
             "prop": "https://schema.org/wordCount", "value": "123"},
            {"entity": 2, "rtype": "https://schema.org/Person",
             "prop": "https://schema.org/name", "value": "Ada"},
            # after the nested scope closes, rows attach to the Article again
            {"entity": 1, "rtype": "https://schema.org/Article",
             "prop": "dc:creator", "value": "CURIE"},
        ]

    def test_content_attr_beats_natural_value_and_text(self):
        from query_suite.functions.structured import extract_rdfa

        html = (
            b'<div typeof="T">'
            b'<a property="p" content="won" href="/lost">text lost</a>'
            b"</div>"
        )
        assert extract_rdfa(html) == [
            {"entity": 1, "rtype": "T", "prop": "p", "value": "won"}
        ]

    def test_vocab_scoping_pops_with_subtree(self):
        from query_suite.functions.structured import extract_rdfa

        html = (
            b'<div vocab="https://a.example/"><div typeof="X">'
            b'<span property="p">1</span></div></div>'
            b'<div typeof="Y"><span property="q">2</span></div>'
        )
        got = extract_rdfa(html)
        assert got[0]["rtype"] == "https://a.example/X"
        # second entity is OUTSIDE the vocab subtree: bare term, no prefix
        assert got[1] == {"entity": 2, "rtype": "Y", "prop": "q", "value": "2"}

    def test_multi_token_typeof_takes_first(self):
        from query_suite.functions.structured import extract_rdfa

        html = b'<div vocab="v/" typeof="A B"><span property="p">x</span></div>'
        # first token 'A' (no colon) expands against the vocab; 'B' dropped
        assert extract_rdfa(html)[0]["rtype"] == "v/A"

    def test_truncation_flushes_open_prop(self):
        from query_suite.functions.structured import extract_rdfa

        html = b'<div typeof="T"><span property="p">dangling'
        assert extract_rdfa(html) == [
            {"entity": 1, "rtype": "T", "prop": "p", "value": "dangling"}
        ]
