"""The flagship extraction pipeline as a streaming ray.data graph.

Replaces the reference's FastAPI/Postgres/asyncio plumbing
(``document_text_extraction_service.py:226-360`` fan-out,
``:405-605`` per-doc stage chain) with::

    read_parquet(columns pruned, include_paths,
                 completed input files pruned on resume)
      -> map_batches(SniffStage)                # vectorized kind/size tagging,
                                                #   shard = input file
      -> map_batches(ExtractDocuments,          # parse, Arrow in/out,
                     batch_size=small)          #   small batches
      -> map_batches(PartWriter,                # inline content-addressed part
                     batch_size=None)           #   writes + incremental
                                                #   per-shard manifest commits:
                                                #   NO shuffle anywhere
      -> drain tiny summary stream; driver-side straggler commit sweep

``run_incremental_recrawl`` runs the same chain into a staging table, then
merges each staged shard into the table with one ``lineage.upsert_shard``
task per shard. Both entry points share one write path and one commit
protocol, and no Ray Data shuffle (groupby, repartition, sort) runs in
either.

Design notes (SURVEY.md §4.2):

- **One way to run a batch**: every stage is a plain task, so Ray Data fuses
  sniff -> extract -> write into one operator and each parse task writes and
  commits its own parts. The parse state (frozen config, PasswordBook) ships
  with each task. An actor pool measured slower on every ``extraction_bench``
  workload and deadlocked a one-CPU session (the actor held the only slot).
- **Streaming**: nothing materializes the full dataset; the driver only ever
  collects the per-shard summary rows (one small row per shard).
- **No shuffle**: the shard identity is the *input file* (sniff.
  stable_shard_id), so a shard's rows flow through the same task chain that
  read them and are written where they are; each PartWriter commits a
  shard's manifest once all its rows have landed. Measured: the previous
  url-hash design shuffled the full extraction output (~4x input bytes with
  layout JSON) and the sort dominated the job (24.5s of 28s at 10k docs);
  this design removes it entirely.
- **Skew**: small parse batch_size bounds giant-doc co-travel; the payload
  truncation guard is counted per shard; Ray's dynamic block splitting keeps
  oversized outputs from pinning one task.
- **Resume**: shard ownership is a pure function of the input file name, so a
  resumed run prunes completed files from the READ list — skipped work costs
  zero IO, not just zero parse.
- **No-write mode** (``extract_dataset``): the same graph minus the writers,
  for callers that want the doc-grain Dataset to keep composing.
"""

from __future__ import annotations

import os
import shutil
from typing import Optional

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data as rd

from .. import ensure_worker_importable
from ..functions.extract import ExtractConfig
from ..functions.sniff import stable_shard_id
from ..sources.pages_source import (
    WARC_EXTS,
    count_warc_pages,
    list_input_files,
    read_pages_warc,
)
from ..stages.extract_stage import ExtractDocuments, SniffStage, explode_pages
from ..state import lineage as lin

# Input columns the extraction graph actually needs — never read text/lang
# payload-adjacent columns we don't use (prune at the read).
INPUT_COLUMNS = ["url", "warc_ts", "html", "lang"]

# Parse-stage sizing: per-doc cost variance is huge (1-page HTML vs 8-page
# PDF vs truncated giant), so batches stay small relative to block size
# (SURVEY.md §4.2 item 2) — but not tiny: measured on the 50k-doc probe
# corpus, batch 128 beats 32 by ~15% at both 8 and 32 CPUs (per-batch Arrow
# slice/emit overhead dominates below ~100 docs), while 256 regresses the
# tail (giant-blob co-travel). 128 docs x ~15 KiB payload keeps batches ~2 MiB.
PARSE_BATCH_SIZE = 128


def read_pages(input_path: str | list) -> rd.Dataset:
    """Read the pages table with column pruning + file provenance (the
    ``path`` column becomes the shard identity — see sniff.stable_shard_id)."""
    return rd.read_parquet(input_path, columns=INPUT_COLUMNS, include_paths=True)


def _default_pool_size() -> tuple:
    """Actor-pool bounds for a cluster of this size, ``(min, max)``. The
    engine no longer runs an actor pool (the parse runs as plain tasks fused
    with the part writer); this stays only because
    ``extraction_bench/job.py`` imports it and reports its value."""
    import ray

    ncpu = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    return (max(1, min(3 * ncpu // 4, ncpu - 2)), max(2, ncpu - 1))


def extract_dataset(ds: rd.Dataset, cfg: Optional[ExtractConfig] = None) -> rd.Dataset:
    """Sniff + extraction, both as plain Ray Data tasks.

    Returns the doc-grain Dataset (DOC_SCHEMA) without writing — fully lazy.
    Resume happens upstream, by pruning completed files from the read list
    (run_extraction_job) — cheaper than any row filter.
    """
    cfg = cfg or ExtractConfig()
    # Ship package code by value so workers never need the repo on sys.path.
    ensure_worker_importable()
    ds = ds.map_batches(SniffStage(cfg), batch_format="pyarrow")
    return ds.map_batches(
        ExtractDocuments(cfg),
        batch_format="pyarrow",
        batch_size=PARSE_BATCH_SIZE,
        zero_copy_batch=True,
    )


def extract_pages_dataset(ds: rd.Dataset, cfg: Optional[ExtractConfig] = None) -> rd.Dataset:
    """Page-grain flat view of the extraction (no shuffle)."""
    return extract_dataset(ds, cfg).map_batches(explode_pages, batch_format="pyarrow")


PART_SUMMARY_SCHEMA = pa.schema(
    [
        ("shard_id", pa.int64()),
        ("part", pa.string()),
        ("n_docs", pa.int64()),
        ("n_pages", pa.int64()),
        ("n_pages_ok", pa.int64()),
        ("parse_failures", pa.int64()),
        ("empty_extractions", pa.int64()),
        ("truncations", pa.int64()),
        ("password_required", pa.int64()),
        ("content_hash", pa.string()),
    ]
)


class PartWriter:
    """Inline sink: each extraction output block is split by shard_id and
    written as content-addressed part files — in the SAME task chain as the
    parse (no all-to-all of the heavy rows). Emits tiny per-(block, shard)
    summary rows, and opportunistically commits a shard's manifest the moment
    its last part lands (``expected_rows`` per shard comes from the input
    files' parquet metadata) — so a killed run keeps every shard it finished
    (state/lineage.py module docstring explains the crash/resume story)."""

    def __init__(self, out_dir: str, expected_rows: Optional[dict] = None) -> None:
        self.out_dir = out_dir
        self.expected_rows = expected_rows or {}

    def __call__(self, batch: pa.Table) -> pa.Table:
        # Deterministic within-part order (url unique) -> content-addressed
        # names are stable for a given row-set.
        batch = batch.sort_by("url")
        rows = []
        sids = batch["shard_id"]
        for sid in pc.unique(sids).to_pylist():
            sub = batch.filter(pc.equal(sids, sid))
            rows.append(lin.write_part(self.out_dir, sid, sub))
            expected = self.expected_rows.get(sid)
            if expected is not None:
                lin.try_commit_shard(self.out_dir, sid, expected)
        return pa.Table.from_pylist(rows, schema=PART_SUMMARY_SCHEMA)


def run_extraction_job(
    input_path: str,
    out_dir: str,
    cfg: Optional[ExtractConfig] = None,
    resume: bool = False,
    snapshot: bool = False,
    tolerant_warc: bool = False,
) -> dict:
    """End-to-end job: read (completed input files pruned on resume) -> sniff
    -> extract -> inline part writes with per-shard manifest commits as
    shards complete -> driver straggler sweep. Returns the job summary
    (counters merged across shards, including previously-completed ones on
    resume). ``snapshot=True`` additionally pins the committed state as the
    next table snapshot (lineage.commit_snapshot — Iceberg-style versioned
    reads) and reports ``snapshot_version``."""
    cfg = cfg or ExtractConfig()

    files = list_input_files(input_path)
    skipped = 0
    if resume:
        done = lin.completed_shards(out_dir)
        kept = [f for f in files if stable_shard_id(f) not in done]
        skipped = len(files) - len(kept)
        files = kept
        # Purge incomplete shards' leftovers (parts + pending summaries from
        # a crashed attempt) so stale parts can never pollute this attempt's
        # completeness counts.
        for f in files:
            lin.purge_shard(out_dir, stable_shard_id(f))
    else:
        # Fresh run over an existing out_dir: discard stale manifests +
        # pending state so the final summary reflects only this run (orphan
        # data parts are ignored by manifest-driven readers; same-name
        # re-writes are idempotent).
        ldir = lin.lineage_dir(out_dir)
        if os.path.isdir(ldir):
            shutil.rmtree(ldir)

    if not files:
        summary = lin.summarize(lin.load_lineage(out_dir))
        summary["resumed_shards_skipped"] = skipped
        summary["new_shards_written"] = 0
        if snapshot:
            summary["snapshot_version"] = lin.commit_snapshot(out_dir)["version"]
        return summary

    # Expected rows per shard (footer-only metadata reads) drive incremental
    # manifest commits. Footer reads are IO-bound and independent — a serial
    # loop is an O(shards) driver stall (measured ~50 s for 500 shards on a
    # slow volume; hours at Common-Crawl's ~10^5 shards), so lin.thread_map.
    # WARC shards have no footer: the count is a full record scan (also
    # thread-mapped) — the documented reason parquet stays the production
    # format and WARC ingestion is the interop path.
    if files[0].endswith(WARC_EXTS):
        # ``tolerant_warc=True`` is the crawl-archive salvage mode: damaged
        # members/records cost their pages, not the shard — the tolerant
        # count and reader share one pairing implementation, so the
        # expected-rows accounting stays exact under damage.
        expected = dict(
            lin.thread_map(
                lambda f: (stable_shard_id(f),
                           count_warc_pages(f, tolerant=tolerant_warc)),
                files,
            )
        )
        src = read_pages_warc(
            files, include_paths=True, tolerant=tolerant_warc
        ).map_batches(
            lambda t: t.drop_columns(["text"]), batch_format="pyarrow"
        )
    else:
        expected = dict(
            lin.thread_map(
                lambda f: (stable_shard_id(f), pq.ParquetFile(f).metadata.num_rows),
                files,
            )
        )
        src = read_pages(files)

    docs = extract_dataset(src, cfg)

    # batch_size=None: whole parse output blocks, so the writer fuses into the
    # parse task and commits as the stream goes, not when a big batch fills.
    part_summaries = docs.map_batches(
        PartWriter(out_dir, expected), batch_format="pyarrow", batch_size=None
    )
    # Drain the (tiny) summary stream — this is the consuming sink; manifests
    # commit incrementally inside PartWriter as shards complete. No groupby:
    # even a summaries-only sort barrier costs seconds of fixed overhead that
    # short high-parallelism runs can't amortize.
    for _ in part_summaries.iter_batches(batch_size=4096, batch_format="pyarrow"):
        pass

    # Straggler sweep: commit any shard whose parts all landed but whose
    # writer didn't observe the complete set (cross-task visibility race).
    committed = {r["shard_id"] for r in lin.load_lineage(out_dir)}
    for sid, exp_rows in expected.items():
        if sid not in committed:
            rec = lin.try_commit_shard(out_dir, sid, exp_rows)
            if rec is None:
                raise RuntimeError(
                    f"shard {sid} incomplete after stream drain "
                    f"(expected {exp_rows} rows) — input mutated mid-run?"
                )

    all_records = lin.load_lineage(out_dir)
    summary = lin.summarize(all_records)
    summary["resumed_shards_skipped"] = skipped
    summary["new_shards_written"] = len(expected)
    if snapshot:
        summary["snapshot_version"] = lin.commit_snapshot(out_dir)["version"]
    return summary


def run_incremental_recrawl(
    input_path: str | list,
    out_dir: str,
    cfg: Optional[ExtractConfig] = None,
    snapshot: bool = False,
) -> dict:
    """Incremental recrawl refresh: extract ONLY the recrawled shard files
    and MERGE the resulting doc rows into the already-committed table by
    url — the round-5 lifecycle primitives (lineage.upsert_shard) wired
    into the flagship pipeline. A recrawl wave at Common-Crawl scale
    touches a small fraction of shards; re-running the full job to absorb
    it re-parses everything, while this path re-parses exactly the
    recrawled files and rewrites exactly the affected shards' parts.

    Shard identity is the input file BASENAME (sniff.stable_shard_id), so
    a recrawl file replaces the shard of the original file with the same
    name; brand-new basenames create fresh shards (pure appends).

    Three steps, with no shuffle: (1) ``run_extraction_job`` extracts the
    delta into a staging table at ``out_dir/_recrawl`` — the same read ->
    sniff -> extract -> PartWriter -> commit chain and completeness check
    as a full job, one committed staged shard per delta file; (2) each
    staged shard holding rows is merged with ``lineage.upsert_shard`` in
    its own Ray task, through the shared filesystem (the same assumption
    PartWriter's incremental commits make; see lineage.pending_dir), so
    no table rows pass through the driver; (3) the staging table is
    deleted, also when a step fails. Re-extracted-but-unchanged docs
    replace in place with identical content (idempotent by content
    addressing); the per-shard result is byte-equivalent to a full
    re-extraction of the merged inputs (order-insensitive content_hash
    equality, pinned by tests/test_pipeline_e2e.py::TestIncrementalRecrawl).

    The input must be parquet: a WARC input raises ValueError up front.

    Returns ``{"shards_touched", "n_replaced", "n_appended",
    "n_docs_touched_shards"}`` (+ ``snapshot_version`` when requested);
    ``n_docs_touched_shards`` counts the docs stored in the touched shards
    after the merge."""
    files = list_input_files(input_path)
    if any(f.endswith(WARC_EXTS) for f in files):
        raise ValueError(
            "run_incremental_recrawl reads parquet shards only; "
            f"got WARC input {files[0]!r}"
        )
    if not files:
        return {"shards_touched": 0, "n_replaced": 0, "n_appended": 0,
                "n_docs_touched_shards": 0}

    # The staging table sits beside data/, lineage/ and snapshots/, never
    # inside them, so no reader of the table sees staged rows.
    stage = os.path.join(out_dir, "_recrawl")
    try:
        run_extraction_job(files, stage, cfg)
        # A zero-row delta file commits an empty staged shard; it changes
        # nothing, so its table shard is left as it is.
        sids = [r["shard_id"] for r in lin.load_lineage(stage) if r["n_docs"]]
        results = ray.get(
            [_merge_staged_shard.remote(out_dir, stage, sid) for sid in sids]
        )
    finally:
        shutil.rmtree(stage, ignore_errors=True)

    out = {
        "shards_touched": len(results),
        "n_replaced": sum(r["n_replaced"] for r in results),
        "n_appended": sum(r["n_appended"] for r in results),
        # docs now stored in the touched shards (post-merge totals)
        "n_docs_touched_shards": sum(r["n_docs"] for r in results),
    }
    if snapshot:
        out["snapshot_version"] = lin.commit_snapshot(out_dir)["version"]
    return out


@ray.remote
def _merge_staged_shard(out_dir: str, stage: str, shard_id: int) -> dict:
    """Upsert one committed staged shard into the table, worker-side, in
    the stored layout (no text is rebuilt only to be dropped again); only
    the merge counters travel back to the driver."""
    rec = lin.upsert_shard(out_dir, shard_id, lin.read_stored_shard(stage, shard_id))
    return {k: rec[k] for k in ("n_replaced", "n_appended", "n_docs")}
