"""The flagship extraction pipeline: one plain Ray task per input file.

Replaces the reference's FastAPI/Postgres/asyncio plumbing
(``document_text_extraction_service.py:226-360`` fan-out,
``:405-605`` per-doc stage chain) with::

    input files                             # completed files pruned on
                                            #   resume
      -> one _run_file_task per file        # per file, in ONE task: read
         (ExtractFile | MergeFile)          #   it whole -> sniff_table ->
                                            #   ExtractDocuments in
                                            #   PARSE_BATCH_SIZE slices
                                            #   -> commit: one content-
                                            #   addressed part + the shard
                                            #   manifest, or a merge into
                                            #   the shard: NO shuffle
      -> ray.wait for the tiny summary tables

Both entry points run this one fan-out (``_run_file_tasks``) and differ
only in the task's commit step. ``run_extraction_job`` runs
``ExtractFile``, which writes the file's rows as a new shard.
``run_incremental_recrawl`` runs ``MergeFile``, which merges them into the
file's shard by url (``lineage.upsert_shard``). All of the job's Ray work
starts in ``_run_file_tasks``, and no Ray Data graph or shuffle runs in
either: the job has no read operator to stream and nothing to fuse, so
the file is the task and the driver only waits for it.

Design notes (SURVEY.md §4.2):

- **The input file is the task**: a shard is one input file (sniff.
  stable_shard_id), and one plain Ray task reads, parses, writes and
  commits it. The task holds its part's summary record, so it commits the
  manifest from that (``lineage.try_commit_shard``) — no pre-scan of the
  inputs for their row counts, no pending records to list, no driver-side
  sweep. The parse holds no state: the frozen config ships with each
  task. An actor pool measured slower on every ``extraction_bench``
  workload and deadlocked a one-CPU session (the actor held the only slot).
- **Streaming**: nothing materializes the full dataset; a task holds one
  file's rows and doc output, and the driver only collects the part
  summaries (one small row per shard).
- **No shuffle**: a shard's rows are written by the task that read them.
  Measured: the previous url-hash design shuffled the full extraction
  output (~4x input bytes with layout JSON) and the sort dominated the job
  (24.5s of 28s at 10k docs); this design removes it entirely.
- **Skew**: a file is parsed in ``PARSE_BATCH_SIZE`` slices, the payload
  truncation guard is counted per shard, and a file with giants is one
  long task (the cost of the file being the commit unit).
- **Resume**: shard ownership is a pure function of the input file name, so a
  resumed run prunes completed files from the input list — skipped work
  costs zero IO, not just zero parse.
- **One content-kind decision**: ``sniff_table`` labels each row's
  ``content_kind`` with ``sniff.sniff_payload``, the call the parse
  dispatches on, so a row is stored as the kind it was parsed as.
- **No-write mode** (``extract_dataset`` over ``read_pages`` /
  ``read_pages_warc``): ``sniff_table`` and ``ExtractDocuments`` as a
  doc-grain Dataset, for callers that want to keep composing.
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

from ..functions.extract import ExtractConfig
from ..functions.sniff import sniff_table, stable_shard_id
from ..sources.pages_source import (
    WARC_EXTS,
    list_input_files,
    read_warc_file,
)
from ..stages.extract_stage import ExtractDocuments, explode_pages
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
    engine no longer runs an actor pool (each input file is one plain
    task); this stays only because
    ``extraction_bench/job.py`` imports it and reports its value."""
    ncpu = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    return (max(1, min(3 * ncpu // 4, ncpu - 2)), max(2, ncpu - 1))


def extract_dataset(ds: rd.Dataset, cfg: Optional[ExtractConfig] = None) -> rd.Dataset:
    """``sniff_table`` + ``ExtractDocuments``, both as plain Ray Data tasks.

    Returns the doc-grain Dataset (DOC_SCHEMA) without writing — fully lazy.
    Resume happens upstream, by pruning completed files from the read list
    (run_extraction_job) — cheaper than any row filter.
    """
    cfg = cfg or ExtractConfig()
    ds = ds.map_batches(
        sniff_table,
        batch_format="pyarrow",
        fn_kwargs={"size_bucket_edges": cfg.size_bucket_edges},
    )
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
    """Content-addressed part writer. Each call writes one shard's doc
    table as one part (``lin.write_part``), holding the part records; a
    shard named in ``expected_rows`` commits its manifest from them
    (``lin.try_commit_shard``) as soon as they hold that many rows.
    Returns the part's summary row, or none for an empty table. A table
    holding rows of two shards raises ValueError."""

    def __init__(self, out_dir: str, expected_rows: Optional[dict] = None) -> None:
        self.out_dir = out_dir
        self.expected_rows = expected_rows or {}
        self.part_records: dict = {}

    def __call__(self, batch: pa.Table) -> pa.Table:
        sids = pc.unique(batch["shard_id"]).to_pylist()
        if not sids:
            return PART_SUMMARY_SCHEMA.empty_table()
        if len(sids) > 1:
            raise ValueError(f"a part holds one shard; these rows hold shards {sorted(sids)}")
        sid = sids[0]
        # Deterministic within-part order (url unique) -> content-addressed
        # names are stable for a given row-set.
        rec = lin.write_part(self.out_dir, sid, batch.sort_by("url"))
        self.part_records.setdefault(sid, []).append(rec)
        if sid in self.expected_rows:
            lin.try_commit_shard(self.out_dir, sid, self.expected_rows[sid],
                                 self.part_records[sid])
        return pa.Table.from_pylist([rec], schema=PART_SUMMARY_SCHEMA)


class ExtractFile:
    """The engine's one task kind: read one input file whole (parquet with
    ``INPUT_COLUMNS`` only, or WARC through ``read_warc_file``, whose
    salvage mode ``tolerant_warc`` selects), sniff it, extract it in
    ``PARSE_BATCH_SIZE`` slices and ``commit`` its doc rows: here, one
    part and the shard's manifest. Takes the file's path and returns the
    commit's summary rows (part summaries). Raises, naming the
    file, when the file cannot be read, holds a null url, or its shard does
    not commit."""

    def __init__(self, out_dir: str, cfg: Optional[ExtractConfig],
                 tolerant_warc: bool = False) -> None:
        self.out_dir = out_dir
        self.cfg = cfg or ExtractConfig()
        self.tolerant_warc = tolerant_warc
        self.extract = ExtractDocuments(self.cfg)

    def __call__(self, path: str) -> pa.Table:
        try:
            if path.endswith(WARC_EXTS):
                table = read_warc_file(path, self.tolerant_warc).select(INPUT_COLUMNS)
            else:
                table = pq.read_table(path, columns=INPUT_COLUMNS)
        except (OSError, ValueError, KeyError) as e:
            raise ValueError(f"cannot read input file {path}: {e}") from e
        # url is a row's identity (part names, merges by url): a null one
        # would fail only at the write, after the whole parse.
        n = table["url"].null_count
        if n:
            raise ValueError(f"input file {path} has {n} rows with a null url")
        # The source file is the provenance the sniff stage turns into the
        # shard id.
        table = sniff_table(table.append_column(
            "path", pa.array([path] * table.num_rows, pa.string())),
            self.cfg.size_bucket_edges)
        # An empty file still takes one (empty) slice, for the doc schema.
        docs = pa.concat_tables([
            self.extract(table.slice(start, PARSE_BATCH_SIZE))
            for start in range(0, max(table.num_rows, 1), PARSE_BATCH_SIZE)
        ])
        return self.commit(path, stable_shard_id(path), table.num_rows, docs)

    def commit(self, path: str, sid: int, n_read: int, docs: pa.Table) -> pa.Table:
        """Write ``docs`` as the shard's one part and commit its manifest
        from the part record; a zero-row file commits a shard with no
        parts."""
        writer = PartWriter(self.out_dir)
        summary = writer(docs)
        if lin.try_commit_shard(self.out_dir, sid, n_read,
                                writer.part_records.get(sid, [])) is None:
            raise RuntimeError(
                f"shard {sid} of input file {path} did not commit: "
                f"{n_read} rows read, {docs.num_rows} written"
            )
        return summary


MERGE_SUMMARY_SCHEMA = pa.schema(
    [("n_replaced", pa.int64()), ("n_appended", pa.int64()), ("n_docs", pa.int64())]
)


class MergeFile(ExtractFile):
    """The recrawl's task: ``ExtractFile`` whose commit merges the file's
    doc rows into its shard by url (``lineage.upsert_shard``, which writes
    the merged parts, then re-points the manifest) instead of writing the
    shard anew. Returns one ``MERGE_SUMMARY_SCHEMA`` row; a zero-row file
    changes nothing and returns none. Raises, naming the file and leaving
    its shard as it was, when the rows extracted are not the rows read."""

    def commit(self, path: str, sid: int, n_read: int, docs: pa.Table) -> pa.Table:
        if docs.num_rows != n_read:
            raise RuntimeError(
                f"shard {sid} of input file {path} did not merge: "
                f"{n_read} rows read, {docs.num_rows} extracted"
            )
        if not n_read:
            return MERGE_SUMMARY_SCHEMA.empty_table()
        rec = lin.upsert_shard(self.out_dir, sid, docs)
        return pa.Table.from_pylist(
            [{k: rec[k] for k in MERGE_SUMMARY_SCHEMA.names}],
            schema=MERGE_SUMMARY_SCHEMA,
        )


def _check_distinct_shards(files: list) -> None:
    """Raise ValueError naming any input files that share a shard id (the
    same basename in two directories, or a crc32 collision): each file's
    task commits its shard alone, so two of them would overwrite one
    another's manifest and lose rows."""
    by_sid: dict = {}
    for f in files:
        by_sid.setdefault(stable_shard_id(f), []).append(f)
    clashes = [group for group in by_sid.values() if len(group) > 1]
    if clashes:
        raise ValueError(
            "input files share a shard id (shard identity is the file "
            f"basename): {clashes}"
        )


@ray.remote(max_retries=-1, retry_exceptions=[ray.exceptions.RaySystemError],
            scheduling_strategy="DEFAULT")
def _run_file_task(task: ExtractFile, path: str) -> pa.Table:
    """One input file's task: ``task`` on ``path``."""
    return task(path)


def _run_file_tasks(files: list, task: ExtractFile) -> list:
    """Run ``task`` on every input file, one plain Ray task per file, and
    return the summary tables the tasks returned, in file order (tiny: one
    row per shard at most). Each task committed its own shard.

    The task object is stored once (``ray.put``) and every file's task
    reads it. Retries follow the policy Ray Data gives its tasks: a task
    whose worker dies, or that raises ``RaySystemError``, is retried
    without limit; an error of the task's own code is never retried. On
    the first error, the tasks still pending are cancelled and waited for,
    so none of them writes after this raises, and a task's error is raised
    as the task raised it (a ``ValueError`` naming an unreadable file
    stays one). The cancel kills a running task's worker, as a crash
    would: an interrupt instead can land inside an import, and the worker,
    reused by the next job, then fails to import that module."""
    if not files:
        return []
    task_ref = ray.put(task)
    refs = [_run_file_task.remote(task_ref, f) for f in files]
    pending = refs
    try:
        while pending:
            done, pending = ray.wait(pending, num_returns=1)
            ray.get(done)
    except BaseException as e:
        for ref in pending:
            ray.cancel(ref, force=True)
        if pending:
            ray.wait(pending, num_returns=len(pending))
        if isinstance(e, ray.exceptions.RayTaskError):
            raise e.cause from e
        raise
    return ray.get(refs)


def run_extraction_job(
    input_path: str,
    out_dir: str,
    cfg: Optional[ExtractConfig] = None,
    resume: bool = False,
    snapshot: bool = False,
    tolerant_warc: bool = False,
) -> dict:
    """End-to-end job: one ``ExtractFile`` task per input file (completed
    files pruned on resume), each reading, parsing, writing and committing
    its shard. Returns the job summary (counters merged across shards,
    including previously-completed ones on resume). ``tolerant_warc=True``
    reads WARC inputs in salvage mode (``read_warc_file``): damaged
    members and records cost their pages, not the shard. An empty file
    list, a path that is not an existing shard file
    (``list_input_files``) and input files that share a shard id raise
    ValueError before anything runs or is removed.
    ``snapshot=True`` additionally pins the committed state as the next
    table snapshot (lineage.commit_snapshot — Iceberg-style versioned
    reads) and reports ``snapshot_version``."""
    cfg = cfg or ExtractConfig()

    files = list_input_files(input_path)
    if not files:  # refused before the purge below drops the table's manifests
        raise ValueError("run_extraction_job got an empty input file list")
    _check_distinct_shards(files)
    skipped = 0
    if resume:
        done = lin.completed_shards(out_dir)
        kept = [f for f in files if stable_shard_id(f) not in done]
        skipped = len(files) - len(kept)
        files = kept
        # Purge incomplete shards' leftover parts from a crashed attempt.
        for f in files:
            lin.purge_shard(out_dir, stable_shard_id(f))
    else:
        # Fresh run over an existing out_dir: discard stale manifests so the
        # final summary reflects only this run (orphan data parts are
        # ignored by manifest-driven readers; same-name re-writes are
        # idempotent).
        ldir = lin.lineage_dir(out_dir)
        if os.path.isdir(ldir):
            shutil.rmtree(ldir)

    _run_file_tasks(files, ExtractFile(out_dir, cfg, tolerant_warc))
    summary = lin.summarize(lin.load_lineage(out_dir))
    summary["resumed_shards_skipped"] = skipped
    summary["new_shards_written"] = len(files)
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

    One ``MergeFile`` task per delta file, with no shuffle: it reads,
    sniffs and extracts the file as a full job's task does, then merges
    the rows into the file's shard (``lineage.upsert_shard``) through a
    filesystem the driver and workers share, so no table rows pass through
    the driver. A zero-row delta file leaves its shard untouched.

    Each shard's merge is atomic (new parts first, then the manifest
    re-points), but the recrawl as a whole is not: a failing file raises,
    naming the file, with its own shard as it was and other files' shards
    possibly merged. Re-running the same recrawl converges, since a merge
    is idempotent: unchanged docs replace in place with identical content
    and land on the same content-addressed parts. The per-shard result is
    byte-equivalent to a full re-extraction of the merged inputs
    (order-insensitive content_hash equality, pinned by
    tests/test_pipeline_e2e.py::TestIncrementalRecrawl).

    The input must be parquet: a WARC input raises ValueError up front, as
    do an empty file list and delta files that share a shard id.

    Returns ``{"shards_touched", "n_replaced", "n_appended",
    "n_docs_touched_shards"}`` (+ ``snapshot_version`` when requested);
    ``n_docs_touched_shards`` counts the docs stored in the touched shards
    after the merge."""
    files = list_input_files(input_path)
    if not files:  # refused before a snapshot could record an empty table
        raise ValueError("run_incremental_recrawl got an empty input file list")
    if any(f.endswith(WARC_EXTS) for f in files):
        raise ValueError(
            "run_incremental_recrawl reads parquet shards only; "
            f"got WARC input {files[0]!r}"
        )
    _check_distinct_shards(files)
    results = [r for t in _run_file_tasks(files, MergeFile(out_dir, cfg))
               for r in t.to_pylist()]
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
