"""service1_text_extraction_ray — a Ray-Data-native main-content extraction engine.

A brand-new engine (NOT a port) with the extraction semantics of the
reference `nashrakhan-aithon/service1_text-extraction` service, re-expressed
Ray-Data-first:

- input: Parquet table of Common-Crawl-style pages
  ``(url: string, warc_ts: timestamp[us], html: binary, text: string, lang: string)``
- job shape: ``ray.data.read_parquet`` -> vectorized sniff/bucketing ->
  actor-pool ``map_batches`` extraction (stdlib HTML DOM + from-scratch PDF
  subset parser) -> sharded Parquet writes with per-partition lineage records
  and counters (checkpoint-resume at shard granularity).

The extraction *semantics* (quality gates, fallback ladder, output formats)
mirror the reference's PDF processor — every threshold cited file:line into
/root/reference in the docstrings — while the execution engine is pure
Ray Data streaming.
"""

__version__ = "0.1.0"


def _mute_empty_bundle_schema_warnings() -> None:
    """Drop Ray Data's 'different schema' warning ONLY for empty bundles.

    Every UDF in this engine returns typed empties (``out_schema
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


def ensure_worker_importable() -> None:
    """Make the package's callables usable in Ray workers regardless of the
    driver's cwd / sys.path.

    Ray serializes classes and functions *by reference* (module path), so a
    worker whose interpreter can't import ``service1_text_extraction_ray``
    fails with ModuleNotFoundError even though the driver imported it fine
    (observed when driving the engine from a different working directory).
    Registering the package's modules with cloudpickle's pickle-by-value
    ships the code inside the task spec instead. Idempotent and cheap (the
    package is a few hundred KB of source).
    """
    import sys

    try:
        from ray import cloudpickle
    except Exception:  # pragma: no cover - ray not installed
        return
    for name, mod in list(sys.modules.items()):
        if mod is not None and name.startswith(__name__):
            try:
                cloudpickle.register_pickle_by_value(mod)
            except Exception:
                pass
