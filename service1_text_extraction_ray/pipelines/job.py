"""CLI entry for the extraction job — the ``ray job submit`` surface.

The reference's equivalent surface is the FastAPI POST endpoint
(``document_text_extraction_router.py:99-173``); here a batch job launched
against a running cluster (or local mode) with explicit input/output and a
``--resume`` flag::

    ray job submit --working-dir . -- \
        python -m service1_text_extraction_ray.pipelines.job \
        --input /data/pages --output /data/extracted --resume

On a single machine run it directly; it initialises a local Ray session
only when none exists, so it also runs inside a caller's session.
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Ray text-extraction job")
    p.add_argument("--input", required=True, help="input pages parquet dir/file")
    p.add_argument("--output", required=True, help="output dir (data/ + lineage/)")
    p.add_argument("--resume", action="store_true", help="skip shards with valid manifests")
    p.add_argument(
        "--recrawl", action="store_true",
        help="incremental refresh: extract ONLY the given (recrawled) shard "
             "files and MERGE by url into the committed output "
             "(run_incremental_recrawl; shard identity = file basename)",
    )
    p.add_argument("--num-cpus", type=int, default=None, help="local-mode CPU count")
    p.add_argument("--max-pages", type=int, default=None)
    p.add_argument("--min-text-length", type=int, default=None)
    p.add_argument("--max-payload-bytes", type=int, default=None)
    p.add_argument("--no-layout", action="store_true", help="skip layout trees (smaller output)")
    p.add_argument(
        "--tolerant-warc", action="store_true",
        help="salvage-mode WARC ingestion: skip damaged gzip members / "
             "records (resync) instead of failing the shard; damage "
             "accounting via sources.pages_source.warc_salvage_report",
    )
    p.add_argument(
        "--snapshot", action="store_true",
        help="pin the committed output as the next table snapshot "
             "(versioned reads / time travel; state/lineage.py)",
    )
    p.add_argument(
        "--ocr-backend", default=None,
        help="OCR fallback backend name (functions/ocr.py registry, e.g. "
             "'fake'); default none = the reference's no-tesseract branch",
    )
    args = p.parse_args(argv)
    if args.recrawl and args.tolerant_warc:
        # recrawl reads parquet only; accepting the flag would silently
        # drop it
        p.error("--tolerant-warc applies to WARC extraction, not --recrawl")
    if args.recrawl and args.resume:
        # a recrawl merges every file it is given; it has no shards to skip
        p.error("--resume applies to extraction, not --recrawl")

    from ..functions.extract import ExtractConfig

    cfg_kwargs = {}
    if args.max_pages is not None:
        cfg_kwargs["max_pages"] = args.max_pages
    if args.min_text_length is not None:
        cfg_kwargs["min_text_length"] = args.min_text_length
    if args.max_payload_bytes is not None:
        cfg_kwargs["max_payload_bytes"] = args.max_payload_bytes
    if args.no_layout:
        cfg_kwargs["emit_layout"] = False
    if args.ocr_backend:
        cfg_kwargs["ocr_backend"] = args.ocr_backend
    # Built before Ray starts, so an out-of-range value costs no session.
    try:
        cfg = ExtractConfig(**cfg_kwargs)
    except ValueError as e:
        p.error(str(e))

    import ray

    owns_session = not ray.is_initialized()
    if owns_session:
        kwargs = dict(address="local", include_dashboard=False, logging_level="ERROR")
        if args.num_cpus:
            kwargs["num_cpus"] = args.num_cpus
        ray.init(**kwargs)

    from .extract_pipeline import run_extraction_job, run_incremental_recrawl

    if args.recrawl:
        summary = run_incremental_recrawl(
            args.input, args.output, cfg, snapshot=args.snapshot,
        )
    else:
        summary = run_extraction_job(
            args.input, args.output, cfg,
            resume=args.resume, snapshot=args.snapshot,
            tolerant_warc=args.tolerant_warc,
        )
    print(json.dumps(summary))

    if owns_session:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
