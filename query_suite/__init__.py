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


def _mute_empty_bundle_schema_warnings() -> None:
    """Drop Ray Data's 'different schema' warning ONLY for empty bundles.

    Every UDF the queries run returns typed empties (``out_schema
    .empty_table()``), but Ray's Sort/Aggregate internals emit schema-LESS
    empty bundles for empty shuffle partitions (e.g. an 8-partition
    aggregate with 5 groups) and the streaming executor warns on each one
    (streaming_executor_state.py: ``new schema: .``). Those are noise — the
    values are unaffected — while a REAL divergence (non-empty new schema)
    still surfaces. Installed at import; idempotent (one filter instance)."""
    import logging

    logger = logging.getLogger(
        "ray.data._internal.execution.streaming_executor_state"
    )
    if any(isinstance(f, _EmptyBundleSchemaFilter) for f in logger.filters):
        return
    logger.addFilter(_EmptyBundleSchemaFilter())


class _EmptyBundleSchemaFilter:
    def filter(self, record) -> bool:
        msg = record.getMessage()
        if "different schema" not in msg:
            return True
        tail = msg.split("new schema:", 1)[-1]
        empty = tail.strip().startswith(".") or "names=[], types=[]" in tail
        return not empty


_mute_empty_bundle_schema_warnings()
