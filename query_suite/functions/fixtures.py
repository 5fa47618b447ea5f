"""Seeded page and PDF fixtures for the query suite's extractors.

Each generator derives a document ONLY from the ``documents`` columns, so
the query oracles can rebuild the expected output exactly. The engine's
corpus generator and the fixtures engine tests use stay in
``service1_text_extraction_ray.functions.synth``.
"""

from __future__ import annotations


def make_table_page(doc_id: int, lang: str, source: str, n_chars: int) -> bytes:
    """Deterministic table-bearing page derived ONLY from the document's
    columns — the fixture for the structured-table extractor
    (functions/html_tables.py). Table 0 (every doc): <th> header (k, v) and
    1 + doc_id%4 data rows (k{i}, n_chars+i). Table 1 (doc_id%5==0): header
    (lang, src), one row (lang, source). A decoy table inside <script> must
    be dropped, and the nav boilerplate must not leak into any cell."""
    rows0 = "".join(
        f"<tr><td>k{i}</td><td>{n_chars + i}</td></tr>"
        for i in range(1 + doc_id % 4)
    )
    t0 = f"<table><tr><th>k</th><th>v</th></tr>{rows0}</table>"
    t1 = (
        f"<table><tr><th>lang</th><th>src</th></tr>"
        f"<tr><td>{lang}</td><td>{source}</td></tr></table>"
        if doc_id % 5 == 0
        else ""
    )
    decoy = "<script>var x = '<table><tr><td>NOPE</td></tr></table>';</script>"
    nav = '<nav><a href="/a">Home</a> <a href="/b">About</a></nav>'
    html = (
        f"<html><head><title>doc {doc_id}</title>{decoy}</head>"
        f"<body><header>{nav}</header><main><h1>Doc {doc_id}</h1>{t0}{t1}</main>"
        f"<footer><p>footer boilerplate</p></footer></body></html>"
    )
    return html.encode("utf-8")


def make_link_page(doc_id: int, source: str, lang: str) -> tuple[bytes, str]:
    """Deterministic outlink-bearing page derived ONLY from the document's
    columns — the fixture for the web-graph extractor (functions/links.py).
    Returns (html, base_url). Every resolution branch is exercised:
    absolute cross-site, protocol-relative, root-relative, ``..`` relative,
    a nofollow ad link (even doc_ids), plus hrefs that MUST be dropped
    (javascript:, mailto:, bare fragment) and a <script> decoy link. Meta
    robots is noindex,nofollow for doc_id%7==0 pages."""
    base_url = f"https://{source}.example.com/d/{doc_id}/index.html"
    robots = "noindex,nofollow" if doc_id % 7 == 0 else "index,follow"
    # doc_id%6==3 pages carry a <base href> that re-roots RELATIVE links
    # onto another host (absolute and protocol-relative links unaffected;
    # the page's own host — the graph source — is unchanged per spec).
    base_tag = (
        f'<base href="https://base{doc_id % 4}.example.org/dir/sub/">'
        if doc_id % 6 == 3 else ""
    )
    links = [
        f'<a href="https://src{(doc_id * 7 + 1) % 20}.example.net/x/{doc_id % 9}">ref {doc_id % 9}</a>',
        f'<a href="//cdn.example.org/lib/{doc_id % 4}">cdn <b>{doc_id % 4}</b></a>',
        f'<a href="/local/{doc_id % 5}">local {doc_id % 5}</a>',
        f'<a href="../up/{doc_id % 3}">up {doc_id % 3}</a>',
    ]
    if doc_id % 2 == 0:
        links.append(
            f'<a href="http://ads.example.com/click?id={doc_id % 11}" rel="nofollow">ad</a>'
        )
    dropped = (
        '<a href="javascript:void(0)">js</a>'
        '<a href="mailto:x@example.com">mail</a>'
        '<a href="#top">top</a>'
    )
    decoy = "<script>var s = '<a href=\"https://evil.example/x\">no</a>';</script>"
    html = (
        f'<html><head><title>links {doc_id}</title>{base_tag}'
        f'<meta name="robots" content="{robots}">{decoy}</head>'
        f"<body><p>{lang} page</p>{''.join(links)}{dropped}</body></html>"
    )
    return html.encode("utf-8"), base_url


def make_meta_page(doc_id: int, source: str, lang: str, n_chars: int) -> tuple[bytes, str]:
    """Deterministic metadata-bearing page from the document's own columns —
    fixture for functions/meta.py. Branch coverage: og:title present for
    doc_id%3!=0, description for doc_id%4!=0, canonical <link> (RELATIVE,
    exercising resolution) for doc_id%2==0 with a /5 bucket so ~5 even docs
    share one canonical target (the dedup_canonical fixture); a second
    <title> and a <script> decoy title must be ignored."""
    og = (
        f'<meta property="og:title" content="OG {doc_id}">'
        if doc_id % 3 != 0 else ""
    )
    desc = (
        f'<meta name="description" content="{lang} description {n_chars}">'
        if doc_id % 4 != 0 else ""
    )
    # even docs: RELATIVE canonical (exercises resolution; self-host target,
    # unique per page with the testdata's doc_id%20 source layout); odd
    # docs: ABSOLUTE cross-site canonical shared by the 5 odd ids of each
    # /10 bucket — the dedup_canonical duplicate groups.
    canon = (
        f'<link rel="canonical" href="/canon/{doc_id // 5}">'
        if doc_id % 2 == 0
        else f'<link rel="canonical" href="https://archive.example.org/c/{doc_id // 10}">'
    )
    decoy = "<script>var t = '<title>NOPE</title>';</script>"
    html = (
        f"<html><head><title>Doc {doc_id} · {source}</title>{og}{desc}{canon}"
        f"{decoy}<title>second ignored</title></head>"
        f"<body><p>{lang} body</p></body></html>"
    )
    return html.encode("utf-8"), f"https://{source}.example.com/p/{doc_id}"


def make_jsonld_page(doc_id: int, source: str, lang: str, n_chars: int) -> tuple[bytes, str]:
    """Deterministic JSON-LD-bearing page from the document's own columns —
    fixture for functions/structured.py. Branch coverage:

    - Article block on every doc: headline ``Doc {doc_id}``, wordCount
      ``n_chars`` — with a TRAILING COMMA for doc_id%7==0 (the sanitizer
      must salvage it to the identical values) and a missing-comma
      syntax break for doc_id%13==0 that yields NO Article entity
      (%7 loses to %13 when both divide): the sanitizer's quote-escape
      repair produces a valid object whose ``@type`` key is swallowed
      into the preceding ``@context`` value — an untyped node the
      extractor skips. ``@context`` first is load-bearing for that.
    - @graph block for doc_id%5==0: Organization ``Org {source}`` +
      WebPage ``Page {doc_id}`` (graph flattening).
    - Decoys that must contribute nothing: a text/javascript script and an
      untyped script both carrying JSON-looking source.
    """
    if doc_id % 13 == 0:
        # missing comma between members: json.loads fails; the sanitizer's
        # repair leaves a valid-but-untyped node -> no entity row
        article = (
            f'{{"@context": "https://schema.org" "@type": "Article", '
            f'"headline": "Doc {doc_id}", "wordCount": {n_chars}}}'
        )
    elif doc_id % 7 == 0:
        article = (
            f'{{"@context": "https://schema.org", "@type": "Article", '
            f'"headline": "Doc {doc_id}", "wordCount": {n_chars},}}'
        )
    else:
        article = (
            f'{{"@context": "https://schema.org", "@type": "Article", '
            f'"headline": "Doc {doc_id}", "wordCount": {n_chars}}}'
        )
    graph = (
        f'<script type="application/ld+json">{{"@context": "https://schema.org", '
        f'"@graph": [{{"@type": "Organization", "name": "Org {source}"}}, '
        f'{{"@type": "WebPage", "name": "Page {doc_id}"}}]}}</script>'
        if doc_id % 5 == 0 else ""
    )
    decoys = (
        '<script type="text/javascript">var x = {"@type": "Movie", "name": "NOPE"};</script>'
        '<script>var y = {"@type": "Book", "name": "NOPE"};</script>'
    )
    html = (
        f"<html><head><title>ld {doc_id}</title>"
        f'<script type="application/ld+json">{article}</script>'
        f"{graph}{decoys}</head>"
        f"<body><p>{lang} article body</p></body></html>"
    )
    return html.encode("utf-8"), f"https://{source}.example.com/a/{doc_id}"


def make_pdf_link_doc(doc_id: int, source: str) -> tuple[bytes, str]:
    """Deterministic PDF with URI link annotations — fixture for
    PdfDocument.links() (the PDF twin of the outlink extractor). Branch
    coverage: 2 + doc_id%3 external URI links (the FIRST via an indirect
    /A action object, the rest inline), plus decoys that must contribute
    nothing: a /Square annotation and a /Link whose action is an internal
    /GoTo. One content line keeps the page a valid text page."""
    n_links = 2 + doc_id % 3
    uris = [
        f"https://ref{(doc_id * 5 + i) % 17}.example.net/p/{doc_id % 9}/{i}"
        for i in range(n_links)
    ]
    url = f"https://{source}.example.com/pdf/{doc_id}"
    content = f"BT /F1 12 Tf 72 720 Td (Document {doc_id} with links) Tj ET".encode()

    objs = []
    annot_refs = []
    next_num = 10
    # indirect action for link 0
    objs.append(
        f"{next_num} 0 obj << /Type /Action /S /URI /URI ({uris[0]}) >> endobj\n".encode()
    )
    action_ref = next_num
    next_num += 1
    objs.append(
        f"{next_num} 0 obj << /Type /Annot /Subtype /Link "
        f"/Rect [72 700 200 712] /A {action_ref} 0 R >> endobj\n".encode()
    )
    annot_refs.append(next_num)
    next_num += 1
    for uri in uris[1:]:
        objs.append(
            f"{next_num} 0 obj << /Type /Annot /Subtype /Link "
            f"/Rect [72 680 200 692] /A << /Type /Action /S /URI "
            f"/URI ({uri}) >> >> endobj\n".encode()
        )
        annot_refs.append(next_num)
        next_num += 1
    # decoys
    objs.append(
        f"{next_num} 0 obj << /Type /Annot /Subtype /Square "
        f"/Rect [0 0 10 10] >> endobj\n".encode()
    )
    annot_refs.append(next_num)
    next_num += 1
    objs.append(
        f"{next_num} 0 obj << /Type /Annot /Subtype /Link "
        f"/Rect [0 0 10 10] /A << /Type /Action /S /GoTo /D (page2) >> "
        f">> endobj\n".encode()
    )
    annot_refs.append(next_num)

    annots = " ".join(f"{n} 0 R" for n in annot_refs)
    pdf = (
        b"%PDF-1.4\n"
        b"1 0 obj << /Type /Catalog /Pages 2 0 R >> endobj\n"
        b"2 0 obj << /Type /Pages /Kids [3 0 R] /Count 1 >> endobj\n"
        + (
            f"3 0 obj << /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
            f"/Contents 4 0 R /Annots [ {annots} ] "
            f"/Resources << /Font << /F1 5 0 R >> >> >> endobj\n"
        ).encode()
        + b"4 0 obj << /Length " + str(len(content)).encode() + b" >>\n"
        b"stream\n" + content + b"\nendstream endobj\n"
        b"5 0 obj << /Type /Font /Subtype /Type1 /BaseFont /Helvetica >> endobj\n"
        + b"".join(objs)
        + b"trailer << /Root 1 0 R >>\n%%EOF\n"
    )
    return pdf, url


def make_image_page(doc_id: int, source: str, lang: str) -> tuple[bytes, str]:
    """Deterministic image-bearing page — fixture for the image-alt pair
    extractor (functions/links.extract_image_alts). Branch coverage:
    RELATIVE src resolved through a <base href> for doc_id%6==3, absolute
    cross-host src, root-relative src; drops that must contribute nothing:
    missing alt, empty (decorative) alt, a data: URI, and a <script>
    decoy img."""
    base_url = f"https://{source}.example.com/g/{doc_id}/index.html"
    base_tag = (
        f'<base href="https://img{doc_id % 4}.example.org/cdn/">'
        if doc_id % 6 == 3 else ""
    )
    imgs = [
        f'<img src="pics/{doc_id % 7}.jpg" alt="{lang} photo {doc_id % 7}">',
        f'<img src="https://media.example.net/m/{doc_id % 5}.png" '
        f'alt="Figure {doc_id % 5}">',
        f'<img src="/static/logo{doc_id % 3}.gif" alt="Logo {doc_id % 3}">',
    ]
    drops = (
        '<img src="plain.jpg">'                       # no alt
        '<img src="deco.jpg" alt="">'                  # decorative
        '<img src="data:image/gif;base64,R0lGOD" alt="inline">'  # data URI
    )
    decoy = "<script>var i = '<img src=\"x.jpg\" alt=\"NOPE\">';</script>"
    html = (
        f"<html><head><title>gallery {doc_id}</title>{base_tag}{decoy}</head>"
        f"<body><p>{lang} gallery</p>{''.join(imgs)}{drops}</body></html>"
    )
    return html.encode("utf-8"), base_url


def make_hreflang_page(doc_id: int, source: str, lang: str) -> tuple[bytes, str]:
    """Deterministic hreflang-bearing page — fixture for the alternate-
    language extractor. Cluster structure: docs sharing doc_id//4 form one
    translation set; each page lists all 3 language variants (en/de/fr,
    RELATIVE hrefs — exercising resolution) plus an x-default (absolute).
    Drops: a stylesheet <link>, an alternate WITHOUT hreflang (an RSS
    autodiscovery link), and a <script> decoy."""
    base_url = f"https://{source}.example.com/t/{doc_id}"
    cluster = doc_id // 4
    alts = "".join(
        f'<link rel="alternate" hreflang="{lg}" href="/i18n/{cluster}/{lg}">'
        for lg in ("en", "de", "fr")
    )
    xdef = (
        f'<link rel="alternate" hreflang="x-default" '
        f'href="https://www.example.com/i18n/{cluster}">'
    )
    drops = (
        '<link rel="stylesheet" href="/style.css">'
        '<link rel="alternate" type="application/rss+xml" href="/feed.xml">'
    )
    decoy = ("<script>var l = '<link rel=\"alternate\" hreflang=\"zz\" "
             "href=\"/no\">';</script>")
    html = (
        f"<html><head><title>t {doc_id}</title>{alts}{xdef}{drops}{decoy}</head>"
        f"<body><p>{lang} translated page</p></body></html>"
    )
    return html.encode("utf-8"), base_url


def make_pdf_outline_doc(doc_id: int, source: str) -> tuple[bytes, str]:
    """Deterministic PDF with a bookmark tree — fixture for
    PdfDocument.outline(). Structure: 1 + doc_id%3 top-level sections
    ("Section {doc_id}-{k}"), the FIRST with two children
    ("Sub {doc_id}-0-{j}"); one content line keeps the page valid."""
    n_top = 1 + doc_id % 3
    url = f"https://{source}.example.com/book/{doc_id}"
    content = f"BT /F1 12 Tf 72 720 Td (Book {doc_id}) Tj ET".encode()

    objs = []
    # outline item numbering: 10 = /Outlines root; tops 11..; subs 21, 22
    tops = list(range(11, 11 + n_top))
    header = f"10 0 obj << /Type /Outlines /First {tops[0]} 0 R /Last {tops[-1]} 0 R >> endobj\n"
    objs.append(header.encode())
    for k, num in enumerate(tops):
        parts = [f"/Title (Section {doc_id}-{k})", "/Parent 10 0 R"]
        if k + 1 < n_top:
            parts.append(f"/Next {tops[k + 1]} 0 R")
        if k == 0:
            parts.append("/First 21 0 R /Last 22 0 R /Count 2")
        objs.append(f"{num} 0 obj << {' '.join(parts)} >> endobj\n".encode())
    objs.append(
        f"21 0 obj << /Title (Sub {doc_id}-0-0) /Parent 11 0 R /Next 22 0 R >> endobj\n".encode()
    )
    objs.append(
        f"22 0 obj << /Title (Sub {doc_id}-0-1) /Parent 11 0 R >> endobj\n".encode()
    )
    pdf = (
        b"%PDF-1.4\n"
        b"1 0 obj << /Type /Catalog /Pages 2 0 R /Outlines 10 0 R >> endobj\n"
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


def make_microdata_page(doc_id: int, source: str, lang: str, n_chars: int) -> tuple[bytes, str]:
    """Deterministic microdata-bearing page — fixture for
    structured.extract_microdata. One Product entity per page (name, img
    image, meta sku, time released) with a NESTED Offer entity (price) for
    doc_id%3==0; drops: an itemprop outside any scope, an empty-value
    meta, and a <script> decoy."""
    url = f"https://{source}.example.com/shop/{doc_id}"
    offer = (
        f'<div itemscope itemtype="https://schema.org/Offer">'
        f'<span itemprop="price">{doc_id % 90 + 10}.{doc_id % 100:02d}</span></div>'
        if doc_id % 3 == 0 else ""
    )
    html = (
        f"<html><head><title>shop {doc_id}</title>"
        "<script>var m = '<span itemprop=\"name\">NOPE</span>';</script></head>"
        f"<body>"
        f'<div itemscope itemtype="https://schema.org/Product">'
        f'<span itemprop="name">Product {doc_id} ({lang})</span>'
        f'<img itemprop="image" src="/img/{doc_id % 8}.jpg">'
        f'<meta itemprop="sku" content="SKU-{source}-{doc_id}">'
        f"{offer}"
        f'<time itemprop="released" datetime="2024-01-{1 + doc_id % 28:02d}">x</time>'
        f'<meta itemprop="empty" content="">'
        f"</div>"
        f'<span itemprop="orphan">{n_chars}</span>'
        f"</body></html>"
    )
    return html.encode("utf-8"), url


def make_feed_discovery_page(doc_id: int, source: str, lang: str) -> tuple[bytes, str]:
    """Deterministic page with feed-autodiscovery links — fixture for
    meta.discover_feeds. Every page advertises an RSS feed (relative
    href); doc_id%4==0 pages also an Atom feed (absolute, titled); drops:
    an hreflang alternate, a stylesheet, and a text/html alternate."""
    url = f"https://{source}.example.com/blog/{doc_id}"
    atom = (
        f'<link rel="alternate" type="application/atom+xml" '
        f'href="https://feeds.example.net/{source}/atom.xml" '
        f'title="Atom feed for {source}">'
        if doc_id % 4 == 0 else ""
    )
    drops = (
        f'<link rel="alternate" hreflang="de" href="/de/{doc_id}">'
        '<link rel="stylesheet" href="/s.css">'
        f'<link rel="alternate" type="text/html" href="/m/{doc_id}">'
    )
    html = (
        f"<html><head><title>blog {doc_id}</title>"
        f'<link rel="alternate" type="application/rss+xml" href="/feed/{doc_id % 5}.xml">'
        f"{atom}{drops}</head><body><p>{lang} post</p></body></html>"
    )
    return html.encode("utf-8"), url


def make_rdfa_page(doc_id: int, source: str, lang: str) -> tuple[bytes, str]:
    """Deterministic RDFa-Lite-bearing page — fixture for
    structured.extract_rdfa. One Article entity per page (name text,
    datePublished datetime, image src, wordCount content) under a body
    vocab; doc_id%3==0 pages nest a Person entity (reporter name); a CURIE
    property (dc:subject) follows the nested scope, back on the Article;
    drops: a chained property on the typeof tag, an empty-value meta, an
    out-of-scope property, and a <script> decoy."""
    url = f"https://{source}.example.com/news/{doc_id}"
    person = (
        f'<span typeof="Person"><span property="name">'
        f"Reporter {doc_id % 10}</span></span>"
        if doc_id % 3 == 0 else ""
    )
    html = (
        f"<html><head><title>news {doc_id}</title>"
        "<script>var r = '<span property=\"name\">NOPE</span>';</script></head>"
        f'<body vocab="https://schema.org/">'
        f'<article typeof="Article" property="chained">'
        f'<h1 property="name">Story {doc_id} ({lang})</h1>'
        f'<time property="datePublished" '
        f'datetime="2024-{1 + doc_id % 12:02d}-{1 + doc_id % 28:02d}">d</time>'
        f'<img property="image" src="/img/{doc_id % 8}.jpg">'
        f'<meta property="wordCount" content="{100 + doc_id % 900}">'
        f"{person}"
        f'<span property="dc:subject">beat-{doc_id % 5}</span>'
        f'<meta property="empty" content="">'
        f"</article>"
        f'<span property="orphan">{lang}</span>'
        f"</body></html>"
    )
    return html.encode("utf-8"), url


def make_paginated_page(doc_id: int, source: str, lang: str) -> tuple[bytes, str]:
    """Deterministic paginated-article page — fixture for the rel=next/prev
    extractor. Articles are 4-page series WITHIN one host: docs sharing
    (source, doc_id//80) form one series at position (doc_id%80)//20+1
    (source is periodic in doc_id with period 20, so the four members
    share a host and the chain key is assemblable). The corpus tail
    truncates the last series of each host to fewer pages — exactly the
    incomplete-chain structure a recrawl scheduler queues. Each page links
    rel=next (pos<4) and rel=prev (pos>1) with absolute-path hrefs.
    Drops: a stylesheet link, an empty-href next, and a <script> decoy."""
    series, pos = doc_id // 80, (doc_id % 80) // 20 + 1
    url = f"https://{source}.example.com/art/{series}?page={pos}"
    nxt = (
        f'<link rel="next" href="/art/{series}?page={pos + 1}">'
        if pos < 4 else ""
    )
    prv = (
        f'<link rel="prev" href="/art/{series}?page={pos - 1}">'
        if pos > 1 else ""
    )
    drops = (
        '<link rel="stylesheet" href="/s.css">'
        '<link rel="next" href="">'
        "<script>var p = '<link rel=\"next\" href=\"/no\">';</script>"
    )
    html = (
        f"<html><head><title>art {series} p{pos}</title>{nxt}{prv}{drops}</head>"
        f"<body><p>{lang} page {pos} of series {series}</p></body></html>"
    )
    return html.encode("utf-8"), url


def make_status_page(doc_id: int, source: str, lang: str) -> tuple[bytes, str]:
    """Deterministic indexability/status fixture page — for
    functions/meta.py's page_status. Branch coverage: robots meta on
    doc_id%6 in {1: noindex, 3: nofollow, 5: BOTH via case/space variant
    'NOINDEX,NOFOLLOW'}; soft-404 content on doc_id%9==4 (404 TITLE, thin
    body) and doc_id%9==7 (healthy title, thin body with an error phrase);
    everything else a healthy page whose body is long enough to clear the
    thin-page gate."""
    robots = {
        1: '<meta name="robots" content="noindex, follow">',
        3: '<meta name="robots" content="index, nofollow">',
        5: '<meta name="ROBOTS" content="NOINDEX,NOFOLLOW">',
    }.get(doc_id % 6, "")
    m = doc_id % 9
    if m == 4:
        title = f"404 Not Found - {source}"
        body = "The page you requested could not be found."
    elif m == 7:
        title = f"Doc {doc_id} - {source}"
        body = "Sorry, this page does not exist or has been removed."
    else:
        title = f"Doc {doc_id} - {source}"
        body = f"{lang} content paragraph for document {doc_id}. " * 5
    html = (
        f"<html><head><title>{title}</title>{robots}"
        f"<script>var x = 'page not found decoy';</script></head>"
        f"<body><p>{body}</p></body></html>"
    )
    return html.encode("utf-8"), f"https://{source}.example.com/s/{doc_id}"


def make_license_page(doc_id: int, source: str) -> str:
    """Deterministic page-footer text for license detection
    (functions/quality.py detect_license). doc_id%5 selects: 0 cc-by,
    1 cc-by-nc, 2 cc-by-nd, 3 mit, 4 no declaration."""
    footer = {
        0: "Licensed under the Creative Commons Attribution 4.0 License.",
        1: "Licensed under the Creative Commons Attribution-NonCommercial 4.0 License.",
        2: "Licensed under the Creative Commons Attribution-NoDerivatives 4.0 License.",
        3: "Released under the MIT License.",
    }.get(doc_id % 5, "All rights reserved.")
    return f"Article {doc_id} from {source}.\n\n{footer}\n"


def make_social_page(doc_id: int, source: str, lang: str) -> tuple[bytes, str]:
    """Deterministic social-card fixture page (functions/meta.py
    extract_social_card). Branches: og:image RELATIVE for doc_id%2==0
    (exercises resolution) else absent; og:type article/website by %3
    (absent on %3==2); twitter:card summary vs summary_large_image by %4
    (absent on %4==3); twitter:site for %5!=0; plus a decoy og:image
    inside a script."""
    parts = []
    if doc_id % 2 == 0:
        parts.append(f'<meta property="og:image" content="/img/{doc_id % 9}.jpg">')
    if doc_id % 3 == 0:
        parts.append('<meta property="og:type" content="article">')
    elif doc_id % 3 == 1:
        parts.append('<meta property="og:type" content="website">')
    if doc_id % 4 == 0:
        parts.append('<meta name="twitter:card" content="summary">')
    elif doc_id % 4 in (1, 2):
        parts.append('<meta name="twitter:card" content="summary_large_image">')
    if doc_id % 5 != 0:
        parts.append(f'<meta name="twitter:site" content="@{source}">')
    decoy = "<script>var m = '<meta property=\"og:image\" content=\"NOPE\">';</script>"
    html = (
        f"<html><head><title>S{doc_id}</title>{''.join(parts)}{decoy}</head>"
        f"<body><p>{lang} social body</p></body></html>"
    )
    return html.encode("utf-8"), f"https://{source}.example.com/sp/{doc_id}"


def make_nav_page(doc_id: int, source: str) -> tuple[bytes, str]:
    """Deterministic redirect/form fixture page. Branches: meta refresh on
    doc_id%4==1 (delay doc_id%7, RELATIVE target) and %4==3 (bare reload,
    NO url -> not a redirect); a search form on doc_id%3!=0 (GET, q +
    lang fields) and a POST login form on doc_id%5==0 (user/pass);
    refresh decoy inside a script."""
    parts = []
    if doc_id % 4 == 1:
        parts.append(
            f'<meta http-equiv="refresh" content="{doc_id % 7}; url=/moved/{doc_id // 4}">'
        )
    elif doc_id % 4 == 3:
        parts.append('<meta http-equiv="Refresh" content="5">')
    body = []
    if doc_id % 3 != 0:
        body.append(
            '<form action="/search" method="get">'
            '<input name="q"><select name="lang"></select></form>'
        )
    if doc_id % 5 == 0:
        body.append(
            f'<form action="https://auth.example.org/login" method="POST">'
            '<input name="user"><input name="pass" type="password">'
            '<input type="submit"></form>'
        )
    decoy = "<script>var s='<meta http-equiv=\"refresh\" content=\"0;url=/NO\">';</script>"
    html = (
        f"<html><head><title>N{doc_id}</title>{''.join(parts)}{decoy}</head>"
        f"<body>{''.join(body)}</body></html>"
    )
    return html.encode("utf-8"), f"https://{source}.example.com/n/{doc_id}"


def make_redirect_hop_page(doc_id: int) -> tuple[bytes, str]:
    """Deterministic redirect-CHAIN fixture page (all on one hub host so
    targets are pure doc_id arithmetic). Groups of 8 consecutive doc_ids:
    g = doc_id//8, p = doc_id%8.

    - cycle groups (g%11==0): p in {0,1,2} form a 3-cycle
      0 -> 1 -> 2 -> 0 (instant refresh); p >= 3 plain terminal pages.
    - chain groups (g%11!=0): pages p <= g%6 redirect to doc_id+1
      (chain of L = g%6 + 2 pages, so hops from the head = g%6 + 1 <= 6);
      pages p > g%6 are terminals. The last group of a corpus can
      truncate mid-chain, leaving a DANGLING target (a url with no page)
      — resolution must treat it as the final destination.

    A script decoy refresh exercises the skip parser."""
    g, p = doc_id // 8, doc_id % 8
    url = f"https://hub.example.com/r/{doc_id}"
    nxt = None
    if g % 11 == 0:
        if p < 3:
            nxt = doc_id - 2 if p == 2 else doc_id + 1
    elif p <= g % 6:
        nxt = doc_id + 1
    head = ""
    if nxt is not None:
        head = f'<meta http-equiv="refresh" content="0; url=/r/{nxt}">'
    decoy = "<script>var r='<meta http-equiv=\"refresh\" content=\"0;url=/r/0\">';</script>"
    html = (
        f"<html><head><title>R{doc_id}</title>{head}{decoy}</head>"
        f"<body><p>hop page {doc_id} group {g} pos {p}</p></body></html>"
    )
    return html.encode("utf-8"), url


def make_pdf_labeled_doc(doc_id: int, source: str) -> tuple[bytes, str]:
    """Deterministic PDF with /PageLabels — fixture for
    PdfDocument.page_labels(). 2 + doc_id%3 pages: front matter in
    lowercase roman (doc_id%2==0) or uppercase letters with prefix 'App-'
    (odd), then decimal restarting at 1 + doc_id%5 from page index 1."""
    n_pages = 2 + doc_id % 3
    url = f"https://{source}.example.com/lbl/{doc_id}"
    page_objs = []
    kids = []
    for k in range(n_pages):
        cnum, pnum = 10 + 2 * k, 11 + 2 * k
        content = f"BT /F1 12 Tf 72 720 Td (Pg {doc_id}-{k}) Tj ET".encode()
        page_objs.append(
            f"{cnum} 0 obj << /Length {len(content)} >>\n".encode()
            + b"stream\n" + content + b"\nendstream endobj\n"
        )
        page_objs.append(
            f"{pnum} 0 obj << /Type /Page /Parent 2 0 R "
            f"/MediaBox [0 0 612 792] /Contents {cnum} 0 R "
            f"/Resources << /Font << /F1 5 0 R >> >> >> endobj\n".encode()
        )
        kids.append(f"{pnum} 0 R")
    if doc_id % 2 == 0:
        first = "<< /S /r >>"
    else:
        first = "<< /S /A /P (App-) >>"
    labels = (
        f"/PageLabels << /Nums [0 {first} "
        f"1 << /S /D /St {1 + doc_id % 5} >>] >>"
    )
    pdf = (
        b"%PDF-1.4\n"
        + f"1 0 obj << /Type /Catalog /Pages 2 0 R {labels} >> endobj\n".encode()
        + f"2 0 obj << /Type /Pages /Kids [{' '.join(kids)}] /Count {n_pages} >> endobj\n".encode()
        + b"5 0 obj << /Type /Font /Subtype /Type1 /BaseFont /Helvetica >> endobj\n"
        + b"".join(page_objs)
        + b"trailer << /Root 1 0 R >>\n%%EOF\n"
    )
    return pdf, url


def make_pdf_form_doc(doc_id: int, source: str) -> tuple[bytes, str]:
    """Deterministic PDF with an AcroForm — fixture for
    PdfDocument.form_fields(). Terminal fields in DFS order: a text field
    (title), a checkbox (agree, /V name /Yes|/Off), a combo choice (color,
    /Ff 131072), a radio GROUP whose only kid is a /T-less widget (grp —
    the group itself is the terminal field, /Ff 32768), and a non-terminal
    node (addr) whose kids inherit /FT /Tx from it (addr.city, addr.zip).
    A /T-less decoy field sits in /Fields between agree and color and must
    produce no row."""
    url = f"https://{source}.example.com/form/{doc_id}"
    content = f"BT /F1 12 Tf 72 720 Td (Form {doc_id}) Tj ET".encode()
    agree = "Yes" if doc_id % 2 else "Off"
    objs = [
        f"10 0 obj << /T (title) /FT /Tx /V (Doc {doc_id}) >> endobj\n",
        f"11 0 obj << /T (agree) /FT /Btn /V /{agree} >> endobj\n",
        "18 0 obj << /FT /Tx /V (decoy) >> endobj\n",
        f"12 0 obj << /T (color) /FT /Ch /V (c{doc_id % 4}) /Ff 131072 >> endobj\n",
        f"13 0 obj << /T (grp) /FT /Btn /Ff 32768 /V /opt{doc_id % 3} "
        "/Kids [14 0 R] >> endobj\n",
        "14 0 obj << /Subtype /Widget /Parent 13 0 R >> endobj\n",
        "15 0 obj << /T (addr) /FT /Tx /Kids [16 0 R 17 0 R] >> endobj\n",
        f"16 0 obj << /T (city) /V (City {doc_id % 10}) >> endobj\n",
        f"17 0 obj << /T (zip) /V ({10000 + doc_id}) >> endobj\n",
    ]
    pdf = (
        b"%PDF-1.4\n"
        b"1 0 obj << /Type /Catalog /Pages 2 0 R /AcroForm << /Fields "
        b"[10 0 R 11 0 R 18 0 R 12 0 R 13 0 R 15 0 R] >> >> endobj\n"
        b"2 0 obj << /Type /Pages /Kids [3 0 R] /Count 1 >> endobj\n"
        b"3 0 obj << /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
        b"/Contents 4 0 R /Resources << /Font << /F1 5 0 R >> >> >> endobj\n"
        b"4 0 obj << /Length " + str(len(content)).encode() + b" >>\n"
        b"stream\n" + content + b"\nendstream endobj\n"
        b"5 0 obj << /Type /Font /Subtype /Type1 /BaseFont /Helvetica >> endobj\n"
        + "".join(objs).encode()
        + b"trailer << /Root 1 0 R >>\n%%EOF\n"
    )
    return pdf, url


def make_pdf_xmp_doc(doc_id: int, source: str) -> tuple[bytes, str]:
    """Deterministic PDF with an XMP metadata packet (ISO 32000-1 §14.3.2:
    catalog /Metadata -> /Subtype /XML stream holding RDF/XML) — fixture
    for PdfDocument.xmp(). Carries dc:title, dc:creator (rdf:Seq), and
    xmp:CreateDate; the packet is Flate-free plain XML as most producers
    write it (the spec requires metadata streams be readable without
    filters by plain-text scanners)."""
    url = f"https://{source}.example.com/xmp/{doc_id}"
    content = f"BT /F1 12 Tf 72 720 Td (Xmp {doc_id}) Tj ET".encode()
    xmp = (
        '<?xpacket begin="﻿" id="W5M0MpCehiHzreSzNTczkc9d"?>\n'
        '<x:xmpmeta xmlns:x="adobe:ns:meta/">\n'
        '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#">\n'
        '<rdf:Description xmlns:dc="http://purl.org/dc/elements/1.1/"\n'
        '  xmlns:xmp="http://ns.adobe.com/xap/1.0/">\n'
        f"<dc:title><rdf:Alt><rdf:li xml:lang=\"x-default\">Report {doc_id}"
        "</rdf:li></rdf:Alt></dc:title>\n"
        f"<dc:creator><rdf:Seq><rdf:li>author-{doc_id % 5}</rdf:li>"
        "</rdf:Seq></dc:creator>\n"
        f"<xmp:CreateDate>2024-{1 + doc_id % 12:02d}-"
        f"{1 + doc_id % 28:02d}T00:00:00Z</xmp:CreateDate>\n"
        "</rdf:Description>\n</rdf:RDF>\n</x:xmpmeta>\n"
        '<?xpacket end="w"?>'
    ).encode("utf-8")
    pdf = (
        b"%PDF-1.4\n"
        b"1 0 obj << /Type /Catalog /Pages 2 0 R /Metadata 10 0 R >> endobj\n"
        b"2 0 obj << /Type /Pages /Kids [3 0 R] /Count 1 >> endobj\n"
        b"3 0 obj << /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
        b"/Contents 4 0 R /Resources << /Font << /F1 5 0 R >> >> >> endobj\n"
        b"4 0 obj << /Length " + str(len(content)).encode() + b" >>\n"
        b"stream\n" + content + b"\nendstream endobj\n"
        b"5 0 obj << /Type /Font /Subtype /Type1 /BaseFont /Helvetica >> endobj\n"
        b"10 0 obj << /Type /Metadata /Subtype /XML /Length "
        + str(len(xmp)).encode() + b" >>\n"
        b"stream\n" + xmp + b"\nendstream endobj\n"
        b"trailer << /Root 1 0 R >>\n%%EOF\n"
    )
    return pdf, url


def make_headings_page(doc_id: int, source: str, lang: str) -> tuple[bytes, str]:
    """Deterministic heading-outline page from the document's own columns —
    fixture for functions/meta.extract_headings. Branch coverage:

    - h1 ``Doc {doc_id}`` (odd docs wrap the id in <em> — nested inline
      text must concatenate to the identical string).
    - (doc_id%3)+1 sections: h2 ``Section {k} of doc {doc_id}`` (even k
      uses a nested <em>of</em> variant), each with ((doc_id+k)%2)+1 h3
      ``Part {k}.{j}`` children.
    - Decoys contributing nothing: nav h2, footer h6, a display:none h3,
      and a whitespace-only h4.
    """
    url = f"https://{source}.example.com/h/{doc_id}"
    n_sections = (doc_id % 3) + 1
    h1 = (
        f"<h1>Doc <em>{doc_id}</em></h1>" if doc_id % 2
        else f"<h1>Doc {doc_id}</h1>"
    )
    parts = [
        f"<html><head><title>outline {doc_id}</title></head><body>",
        "<nav><h2>Site menu</h2></nav>",
        h1,
    ]
    for k in range(1, n_sections + 1):
        if k % 2 == 0:
            parts.append(f"<h2>Section {k} <em>of</em> doc {doc_id}</h2>")
        else:
            parts.append(f"<h2>Section {k} of doc {doc_id}</h2>")
        if k == 1:
            parts.append(f'<div style="display:none"><h3>Hidden {doc_id}</h3></div>')
            parts.append("<h4>   </h4>")
        for j in range(1, ((doc_id + k) % 2) + 2):
            parts.append(f"<h3>Part {k}.{j}</h3><p>body text {lang}</p>")
    parts.append("<footer><h6>Footer heading</h6></footer></body></html>")
    return "".join(parts).encode("utf-8"), url


def make_pdf_annot_doc(doc_id: int, source: str, lang: str) -> tuple[bytes, str]:
    """Deterministic annotation-bearing PDF — fixture for
    PdfDocument.annotations(). Branch coverage:

    - (doc_id%2)+1 /Text notes ``Note {doc_id}-{i}``;
    - a /Highlight ``HL {doc_id}`` on even docs;
    - a /FreeText ``Free {lang} {doc_id}`` on every doc;
    - decoys contributing nothing: a /Link URI annotation, a /Square,
      and a /Text WITHOUT /Contents.
    """
    url = f"https://{source}.example.com/pdfa/{doc_id}"
    content = f"BT /F1 12 Tf 72 720 Td (Annotated {doc_id}) Tj ET".encode()

    objs = []
    annot_refs = []
    next_num = 10
    for i in range(1, (doc_id % 2) + 2):
        objs.append(
            f"{next_num} 0 obj << /Type /Annot /Subtype /Text "
            f"/Rect [72 {700 - 14 * i} 90 {712 - 14 * i}] "
            f"/Contents (Note {doc_id}-{i}) >> endobj\n".encode()
        )
        annot_refs.append(next_num)
        next_num += 1
    if doc_id % 2 == 0:
        objs.append(
            f"{next_num} 0 obj << /Type /Annot /Subtype /Highlight "
            f"/Rect [72 600 200 612] /Contents (HL {doc_id}) >> endobj\n".encode()
        )
        annot_refs.append(next_num)
        next_num += 1
    objs.append(
        f"{next_num} 0 obj << /Type /Annot /Subtype /FreeText "
        f"/Rect [72 560 200 572] /Contents (Free {lang} {doc_id}) "
        f">> endobj\n".encode()
    )
    annot_refs.append(next_num)
    next_num += 1
    # decoys
    objs.append(
        f"{next_num} 0 obj << /Type /Annot /Subtype /Link "
        f"/Rect [0 0 10 10] /A << /Type /Action /S /URI "
        f"/URI (https://nope.example.org/{doc_id}) >> >> endobj\n".encode()
    )
    annot_refs.append(next_num)
    next_num += 1
    objs.append(
        f"{next_num} 0 obj << /Type /Annot /Subtype /Square "
        f"/Rect [0 0 10 10] >> endobj\n".encode()
    )
    annot_refs.append(next_num)
    next_num += 1
    objs.append(
        f"{next_num} 0 obj << /Type /Annot /Subtype /Text "
        f"/Rect [0 0 10 10] >> endobj\n".encode()  # no /Contents -> dropped
    )
    annot_refs.append(next_num)

    annots = " ".join(f"{n} 0 R" for n in annot_refs)
    pdf = (
        b"%PDF-1.4\n"
        b"1 0 obj << /Type /Catalog /Pages 2 0 R >> endobj\n"
        b"2 0 obj << /Type /Pages /Kids [3 0 R] /Count 1 >> endobj\n"
        + (
            f"3 0 obj << /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
            f"/Contents 4 0 R /Annots [ {annots} ] "
            f"/Resources << /Font << /F1 5 0 R >> >> >> endobj\n"
        ).encode()
        + b"4 0 obj << /Length " + str(len(content)).encode() + b" >>\n"
        b"stream\n" + content + b"\nendstream endobj\n"
        b"5 0 obj << /Type /Font /Subtype /Type1 /BaseFont /Helvetica >> endobj\n"
        + b"".join(objs)
        + b"trailer << /Root 1 0 R >>\n%%EOF\n"
    )
    return pdf, url
