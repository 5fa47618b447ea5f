"""service1_text_extraction_ray — a Ray-native main-content extraction engine.

A brand-new engine (NOT a port) with the extraction semantics of the
reference `nashrakhan-aithon/service1_text-extraction` service, re-expressed
as Ray tasks over Arrow tables:

- input: Parquet (or WARC) shards of Common-Crawl-style pages
  ``(url: string, warc_ts: timestamp[us], html: binary, text: string, lang: string)``
- job shape: one plain Ray task per input file that reads it ->
  vectorized sniff/bucketing -> extraction (stdlib HTML DOM + from-scratch
  PDF subset parser) -> one content-addressed Parquet part and the shard's
  lineage manifest with its counters (checkpoint-resume at shard
  granularity).

The extraction *semantics* (quality gates, fallback ladder, output formats)
mirror the reference's PDF processor — every threshold cited file:line into
the reference in the docstrings — while the execution engine is one Ray
task per input file, and the no-write API is a Ray Data graph.
"""

__version__ = "0.1.0"


def ensure_worker_importable() -> None:
    """Ship the package's code to Ray workers by value, whatever the
    driver's cwd or sys.path.

    Ray serializes classes and functions *by reference* (module path), so a
    worker whose interpreter can't import ``service1_text_extraction_ray``
    fails with ModuleNotFoundError even though the driver imported it fine.
    cloudpickle matches registered module names by prefix, so registering
    the top-level package ships every submodule, loaded now or later. The
    package runs this at import, so the job's file tasks and every Ray Data
    graph over package code ship it; calling it again is a no-op.
    """
    import sys

    try:
        from ray import cloudpickle
    except ImportError:  # pragma: no cover - ray not installed
        return
    cloudpickle.register_pickle_by_value(sys.modules[__name__])


ensure_worker_importable()
