"""query_suite — the TPC-H/webtext query and operator suite over the
extraction engine.

The engine (``service1_text_extraction_ray``) turns pages into text; this
package holds everything that only analyses its inputs and outputs: the
relational, web-graph, crawl, dedup, retrieval and corpus-curation queries
(``pipelines/``), the media and embedding stages (``stages/``), the HTML and
PDF metadata extractors they call (``functions/``) and the extra page
formats they read and write (``sources/page_formats.py``). Nothing in the
engine imports this package.
"""
