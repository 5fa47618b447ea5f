"""service1_text_extraction_ray — a Ray-Data-native main-content extraction engine.

A brand-new engine (NOT a port) with the extraction semantics of the
reference `nashrakhan-aithon/service1_text-extraction` service, re-expressed
Ray-Data-first:

- input: Parquet (or WARC) shards of Common-Crawl-style pages
  ``(url: string, warc_ts: timestamp[us], html: binary, text: string, lang: string)``
- job shape: one plain Ray Data task per input file that reads it ->
  vectorized sniff/bucketing -> extraction (stdlib HTML DOM + from-scratch
  PDF subset parser) -> one content-addressed Parquet part and the shard's
  lineage manifest with its counters (checkpoint-resume at shard
  granularity).

The extraction *semantics* (quality gates, fallback ladder, output formats)
mirror the reference's PDF processor — every threshold cited file:line into
/root/reference in the docstrings — while the execution engine is pure
Ray Data streaming.
"""

__version__ = "0.1.0"


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
