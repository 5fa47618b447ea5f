"""Per-shard lineage records + checkpoint-resume substrate.

Replaces the reference's Postgres status bookkeeping (the 6 UPDATE helpers,
``document_text_extraction_service.py:715-846``, and the completed/pending
partial indexes, ``001_doc_text_extraction_queue.sql:76-83``) with
manifest-committed output files — the Ray-native equivalent at *partition*
granularity instead of per-document rows (SURVEY.md §2.1 S10, §4.2 item 3).

Layout under ``out_dir``::

    data/shard={id}/part-{contenthash}.parquet   # extraction rows (appended
                                                 #   by extraction tasks,
                                                 #   NO keyed shuffle)
    lineage/shard_{id:05d}.json                  # manifest: the exact part
                                                 #   list + counters; written
                                                 #   strictly AFTER its parts

Why parts + manifests instead of one file per shard: writing one file per
shard requires an all-to-all shuffle of the (heavy) extraction output to
co-locate each shard's rows. Instead, every extraction task writes the rows
it already holds, split by shard, as content-addressed part files — zero
data movement — and records a tiny part summary under ``pending_dir``.
The writer that sees a shard's summaries reach its expected row count
commits the shard's manifest (``try_commit_shard``); the driver sweeps any
shard left uncommitted once the stream ends. A reader trusts ONLY parts
listed in a committed manifest, so:

- crash before a shard's manifest -> shard incomplete -> fully re-processed
  on resume; any orphan parts from the crashed attempt are simply never
  referenced (and re-writes of identical row-sets are idempotent because
  part names are content hashes);
- resume = validate manifests, then drop the completed shards' input files
  from the read list, *before* the expensive parse stage (no shuffle).

The manifest carries the counters the north star mandates (parse_failures,
empty_extractions, truncations) plus row counts and an order-insensitive
content hash (XOR of per-doc sha256 prefixes).
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Set

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

LINEAGE_VERSION = 1


class LocalAtomicFS:
    """Default storage backend: POSIX directories with tmp-file + atomic
    rename visibility.

    Every lineage I/O routes through this seam so the S5 object-store
    write path (reference ``document_text_extraction_service.py:679-705``,
    the S3 writer) is exercisable: an object store has NO rename — a PUT
    is atomic per object but listings may lag — so the interface exposes
    only whole-object ``put_bytes`` / ``write_table`` (each backend
    supplies its own atomicity) and the commit protocol must survive
    eventual listing (tests/test_object_store_fs.py injects such a
    backend). The protocol's correctness never depends on rename: a part
    or manifest object is either fully visible or absent, and readers
    trust only manifest-listed parts.
    """

    def makedirs(self, path: str) -> None:
        os.makedirs(path, exist_ok=True)

    def isdir(self, path: str) -> bool:
        return os.path.isdir(path)

    def listdir(self, path: str) -> List[str]:
        return sorted(os.listdir(path))

    def read_bytes(self, path: str) -> bytes:
        with open(path, "rb") as f:
            return f.read()

    def put_bytes(self, path: str, data: bytes) -> None:
        tmp = path + f".tmp-{os.getpid()}"
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)

    def write_table(self, table: pa.Table, path: str) -> None:
        tmp = path + f".tmp-{os.getpid()}"
        pq.write_table(table, tmp)
        os.replace(tmp, path)

    def read_table(self, path: str) -> pa.Table:
        return pq.read_table(path)

    def num_rows(self, path: str) -> int:
        return pq.ParquetFile(path).metadata.num_rows

    def remove(self, path: str) -> None:
        try:
            os.remove(path)
        except OSError:
            pass

    def mtime(self, path: str) -> float:
        """Last-modified epoch seconds (object stores expose this per
        object as the PUT timestamp). Used only by vacuum's retention
        window; raises OSError if the object vanished."""
        return os.path.getmtime(path)

    def rmtree(self, path: str) -> None:
        import shutil

        shutil.rmtree(path, ignore_errors=True)


LOCAL_FS = LocalAtomicFS()


def _fs(fs: Optional[Any]) -> Any:
    return fs if fs is not None else LOCAL_FS


def data_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "data")


def lineage_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "lineage")


def shard_data_dir(out_dir: str, shard_id: int) -> str:
    return os.path.join(data_dir(out_dir), f"shard={shard_id}")


def manifest_path(out_dir: str, shard_id: int) -> str:
    return os.path.join(lineage_dir(out_dir), f"shard_{shard_id:05d}.json")


def pending_dir(out_dir: str, shard_id: int) -> str:
    """Per-shard scratch of part-summary JSONs, written after each data part.
    Enables *incremental* manifest commits mid-run: once the summaries'
    row-count total reaches the shard's expected input rows, the shard is
    complete and its manifest can be committed immediately — a kill at T
    preserves every shard finished before T (FIXTURES.md §4 item 4).

    NB: the completeness check scans this directory, so writers of one shard
    and the driver's end-of-stream straggler sweep must share a filesystem
    (local mode, a shared FS or an object store)."""
    return os.path.join(lineage_dir(out_dir), "pending", f"shard_{shard_id}")


def xor_content_hash(hashes: List[str]) -> str:
    """Order-insensitive 64-bit XOR of per-doc sha256 hex prefixes."""
    acc = 0
    for h in hashes:
        if h:
            acc ^= int(h[:16], 16)
    return f"{acc:016x}"


def part_counters(table: pa.Table) -> Dict[str, Any]:
    """Per-part counter summary (vectorized Arrow kernels)."""
    status = table["status"]
    return {
        "n_docs": table.num_rows,
        "n_pages": pc.sum(table["n_pages"]).as_py() or 0,
        "n_pages_ok": pc.sum(table["n_pages_ok"]).as_py() or 0,
        "parse_failures": pc.sum(
            pc.cast(pc.equal(status, "parse_failure"), pa.int64())
        ).as_py() or 0,
        "empty_extractions": pc.sum(
            pc.cast(pc.equal(table["doc_chars"], 0), pa.int64())
        ).as_py() or 0,
        "truncations": pc.sum(pc.cast(table["truncated"], pa.int64())).as_py() or 0,
        "password_required": pc.sum(
            pc.cast(table["password_required"], pa.int64())
        ).as_py() or 0,
        "content_hash": xor_content_hash(table["content_hash"].to_pylist()),
    }


def write_part(out_dir: str, shard_id: int, table: pa.Table,
               fs: Optional[Any] = None) -> Dict[str, Any]:
    """Write one content-addressed part file for a shard.

    The part name is a hash of the row-set's (url, content_hash) pairs, so a
    re-write of the same rows lands on the same name — idempotent by
    construction (and safe on object stores, where a double PUT of the same
    object is a no-op). Returns the part's summary record.
    """
    import hashlib

    fs = _fs(fs)
    h = hashlib.sha256()
    for url, ch in zip(table["url"].to_pylist(), table["content_hash"].to_pylist()):
        h.update(url.encode("utf-8"))
        h.update(ch.encode("ascii"))
    part_name = f"part-{h.hexdigest()[:20]}.parquet"

    ddir = shard_data_dir(out_dir, shard_id)
    fs.makedirs(ddir)
    fs.write_table(table, os.path.join(ddir, part_name))

    rec = part_counters(table)
    rec["shard_id"] = shard_id
    rec["part"] = part_name

    # Record the part summary under pending/ (whole-object put) so
    # completeness is checkable mid-run. Ordering contract: the DATA part
    # is visible before its summary, so a committed count never references
    # a missing part.
    pdir = pending_dir(out_dir, shard_id)
    fs.makedirs(pdir)
    spath = os.path.join(pdir, part_name.replace(".parquet", ".json"))
    fs.put_bytes(spath, json.dumps(rec, sort_keys=True).encode("utf-8"))
    return rec


def load_pending(out_dir: str, shard_id: int, fs: Optional[Any] = None) -> list:
    fs = _fs(fs)
    pdir = pending_dir(out_dir, shard_id)
    if not fs.isdir(pdir):
        return []
    out = []
    for name in fs.listdir(pdir):
        if not name.endswith(".json"):
            continue
        try:
            out.append(json.loads(fs.read_bytes(os.path.join(pdir, name))))
        except (OSError, json.JSONDecodeError):
            continue  # torn write; the data part exists but isn't countable yet
    return out


def try_commit_shard(out_dir: str, shard_id: int, expected_rows: int,
                     fs: Optional[Any] = None) -> Dict[str, Any] | None:
    """Commit the shard's manifest iff all expected rows' parts are visible.

    Safe under concurrent writers: only the writer that observes the complete
    set commits; racing double-commits write identical content (sorted part
    list over the same complete set). Safe under EVENTUAL listing (object
    stores): a lagging list under-counts, so the commit is deferred — never
    taken early — and a later writer (or resume pass) commits once the
    listing catches up."""
    pend = load_pending(out_dir, shard_id, fs)
    if sum(r["n_docs"] for r in pend) != expected_rows:
        return None
    return commit_shard_manifest(out_dir, shard_id, pend, fs)


def purge_shard(out_dir: str, shard_id: int, fs: Optional[Any] = None) -> None:
    """Remove a shard's data parts, pending summaries and manifest — used
    before re-processing an incomplete shard so stale parts from a crashed
    attempt can never mix into the new attempt's completeness count."""
    fs = _fs(fs)
    for path in (shard_data_dir(out_dir, shard_id), pending_dir(out_dir, shard_id)):
        fs.rmtree(path)
    fs.remove(manifest_path(out_dir, shard_id))


def commit_shard_manifest(out_dir: str, shard_id: int, part_records: list,
                          fs: Optional[Any] = None) -> Dict[str, Any]:
    """Write the shard manifest AFTER all its parts exist (the commit point)."""
    fs = _fs(fs)
    parts = sorted({r["part"] for r in part_records})
    acc = 0
    record = {
        "version": LINEAGE_VERSION,
        "shard_id": shard_id,
        "parts": parts,
        "n_docs": 0,
        "n_pages": 0,
        "n_pages_ok": 0,
        "parse_failures": 0,
        "empty_extractions": 0,
        "truncations": 0,
        "password_required": 0,
        "status": "ok",
    }
    for r in part_records:
        record["n_docs"] += r["n_docs"]
        record["n_pages"] += r["n_pages"]
        record["n_pages_ok"] += r["n_pages_ok"]
        record["parse_failures"] += r["parse_failures"]
        record["empty_extractions"] += r["empty_extractions"]
        record["truncations"] += r["truncations"]
        record["password_required"] += r.get("password_required", 0)
        acc ^= int(r["content_hash"], 16)
    record["content_hash"] = f"{acc:016x}"

    lpath = manifest_path(out_dir, shard_id)
    fs.makedirs(os.path.dirname(lpath))
    fs.put_bytes(lpath, json.dumps(record, sort_keys=True).encode("utf-8"))
    return record


def thread_map(fn, items, max_workers: int = 32) -> list:
    """Map an IO-bound fn over items with a bounded thread pool, preserving
    order. Shared by every O(shards) footer/metadata scan (a serial loop is
    a driver stall at crawl-scale shard counts)."""
    from concurrent.futures import ThreadPoolExecutor

    items = list(items)
    if not items:
        return []
    with ThreadPoolExecutor(max_workers=min(max_workers, max(4, len(items)))) as pool:
        return list(pool.map(fn, items))


def load_lineage(out_dir: str, fs: Optional[Any] = None) -> List[Dict[str, Any]]:
    fs = _fs(fs)
    ldir = lineage_dir(out_dir)
    if not fs.isdir(ldir):
        return []
    records = []
    for name in fs.listdir(ldir):
        if not (name.startswith("shard_") and name.endswith(".json")):
            continue
        try:
            rec = json.loads(fs.read_bytes(os.path.join(ldir, name)))
        except (OSError, json.JSONDecodeError):
            continue  # torn write -> treat shard as incomplete
        if rec.get("status") == "ok" and rec.get("version") == LINEAGE_VERSION:
            records.append(rec)
    return records


def completed_shards(out_dir: str, validate_data: bool = True,
                     fs: Optional[Any] = None) -> Set[int]:
    """Shard ids whose manifest is valid AND whose listed parts all exist with
    the recorded total row count (guards against data removed/corrupted after
    the manifest was committed).

    Validation is footer-only IO per part and independent across shards, so
    it runs through thread_map — a serial scan is an O(shards) resume stall
    at crawl-scale shard counts (same fix as the job's expected-rows scan)."""
    fs = _fs(fs)
    records = load_lineage(out_dir, fs)
    if not validate_data:
        return {rec["shard_id"] for rec in records}

    def check(rec: Dict[str, Any]) -> int | None:
        sid = rec["shard_id"]
        ddir = shard_data_dir(out_dir, sid)
        n = 0
        for part in rec.get("parts", []):
            try:
                n += fs.num_rows(os.path.join(ddir, part))
            except (OSError, pa.ArrowInvalid, KeyError):
                return None
        return sid if n == rec["n_docs"] else None

    return {sid for sid in thread_map(check, records) if sid is not None}


def read_shard(out_dir: str, shard_id: int, fs: Optional[Any] = None) -> pa.Table:
    """Read a shard's rows via its manifest (ignores orphan parts)."""
    fs = _fs(fs)
    rec_by_id = {r["shard_id"]: r for r in load_lineage(out_dir, fs)}
    rec = rec_by_id[shard_id]
    ddir = shard_data_dir(out_dir, shard_id)
    tables = [fs.read_table(os.path.join(ddir, p)) for p in rec["parts"]]
    return (
        pa.concat_tables(tables, promote_options="default")
        if tables else pa.table({})
    )


def read_all(out_dir: str, fs: Optional[Any] = None) -> pa.Table:
    """Read every committed shard's rows (manifest-listed parts only).

    Schema EVOLUTION on read: parts written before a column was added
    unify by name with typed nulls (Iceberg add-column semantics) — an
    engine upgrade that widens DOC_SCHEMA must not strand old shards."""
    fs = _fs(fs)
    tables = []
    for rec in load_lineage(out_dir, fs):
        ddir = shard_data_dir(out_dir, rec["shard_id"])
        for p in rec["parts"]:
            tables.append(fs.read_table(os.path.join(ddir, p)))
    return (
        pa.concat_tables(tables, promote_options="default")
        if tables else pa.table({})
    )


def summarize(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge per-shard lineage into the job-level counter summary."""
    out = {
        "n_shards": len(records),
        "n_docs": 0,
        "n_pages": 0,
        "n_pages_ok": 0,
        "parse_failures": 0,
        "empty_extractions": 0,
        "truncations": 0,
        "password_required": 0,
    }
    acc = 0
    for r in records:
        out["n_docs"] += r["n_docs"]
        out["n_pages"] += r["n_pages"]
        out["n_pages_ok"] += r["n_pages_ok"]
        out["parse_failures"] += r["parse_failures"]
        out["empty_extractions"] += r["empty_extractions"]
        out["truncations"] += r["truncations"]
        out["password_required"] += r.get("password_required", 0)
        acc ^= int(r["content_hash"], 16)
    out["content_hash"] = f"{acc:016x}"
    return out


def compact_shard(out_dir: str, shard_id: int, target_rows: int = 100_000,
                  fs: Optional[Any] = None) -> Dict[str, Any]:
    """Small-file compaction for one committed shard — the storage-
    maintenance pass every long-lived 100-TB layout needs (many appends ->
    many tiny parts -> footer-read amplification on every consumer).

    Merges the shard's manifest-listed parts into ``ceil(n_docs /
    target_rows)`` right-sized parts. Crash-safe by the same commit
    discipline as extraction: new content-addressed parts are written
    FIRST, then the manifest atomically re-points to them, and only then
    are the old parts unlinked — a crash at any step leaves either the old
    or the new manifest, each referencing only parts that exist (orphans
    are never read). Counters and the order-insensitive content_hash are
    preserved exactly (asserted here, not assumed); already-compact shards
    are a no-op, and re-running lands on identical content-addressed names.
    Returns the (possibly unchanged) manifest record."""
    fs = _fs(fs)
    rec_by_id = {r["shard_id"]: r for r in load_lineage(out_dir, fs)}
    rec = rec_by_id[shard_id]
    n_new = max(1, -(-rec["n_docs"] // target_rows))
    if len(rec["parts"]) <= n_new:
        return rec  # already compact

    table = read_shard(out_dir, shard_id, fs)
    old_parts = set(rec["parts"])
    new_records = []
    step = -(-table.num_rows // n_new)
    for start in range(0, table.num_rows, step):
        new_records.append(
            write_part(out_dir, shard_id, table.slice(start, step), fs)
        )
    new_rec = commit_shard_manifest(out_dir, shard_id, new_records, fs)
    if new_rec["content_hash"] != rec["content_hash"] or new_rec["n_docs"] != rec["n_docs"]:
        raise RuntimeError(
            f"compaction changed shard {shard_id} content "
            f"({rec['content_hash']}/{rec['n_docs']} -> "
            f"{new_rec['content_hash']}/{new_rec['n_docs']})"
        )
    # old parts are now unreferenced; unlink them and their pending records
    ddir = shard_data_dir(out_dir, shard_id)
    pdir = pending_dir(out_dir, shard_id)
    keep = set(new_rec["parts"])
    for part in old_parts - keep:
        fs.remove(os.path.join(ddir, part))
        fs.remove(os.path.join(pdir, part.replace(".parquet", ".json")))
    return new_rec


def upsert_shard(out_dir: str, shard_id: int, updates: pa.Table,
                 key: str = "url", target_rows: int = 100_000,
                 fs: Optional[Any] = None) -> Dict[str, Any]:
    """MERGE (upsert) one shard: stored rows whose ``key`` matches an
    update row are REPLACED by it; update rows with new keys are APPENDED
    — the recrawl-refresh primitive (Iceberg MERGE INTO at shard
    granularity). ``updates`` must carry the shard's full row schema and
    be unique on ``key`` (asserted).

    Crash-safe by the same discipline as compaction: the merged
    content-addressed parts are written FIRST, then the manifest
    atomically re-points, and only then are replaced parts unlinked — a
    crash at any step leaves a manifest whose parts all exist. The merged
    rows are sorted by ``key`` before the part split, so the same logical
    upsert lands on identical part names at any parallelism. Counters and
    content_hash are recomputed from the merged rows (content genuinely
    changed — unlike compaction there is no preservation invariant).
    Snapshots pinned before the upsert keep reading the OLD rows until a
    replaced part is unlinked, after which they expire (SnapshotExpired)
    exactly like compaction — pin-then-upsert plus vacuum retention is
    the supported time-travel window. A shard with no committed manifest
    is created fresh from the updates. Returns the new manifest record
    plus ``n_replaced`` / ``n_appended``."""
    fs = _fs(fs)
    keys = updates[key].to_pylist()
    if len(set(keys)) != len(keys):
        raise ValueError(f"updates are not unique on {key!r}")

    rec_by_id = {r["shard_id"]: r for r in load_lineage(out_dir, fs)}
    rec = rec_by_id.get(shard_id)
    if rec is None:
        old = updates.schema.empty_table()
        old_parts: set = set()
    else:
        old = read_shard(out_dir, shard_id, fs)
        old_parts = set(rec["parts"])

    # Counters are in KEYS, not raw rows: a base shard may legitimately
    # carry duplicate keys (nothing dedups urls at ingest); an upsert of
    # such a key removes all its old rows and leaves the single update row
    # (documented dedup side effect), counted as ONE replacement.
    old_keys = set(old[key].to_pylist())
    upd_keys = set(keys)
    n_replaced = len(upd_keys & old_keys)
    n_appended = len(upd_keys - old_keys)
    match = pc.is_in(old[key], value_set=pa.array(sorted(upd_keys)))
    kept = old.filter(pc.invert(pc.fill_null(match, False)))
    # Schema EVOLUTION at merge: updates may carry columns the stored
    # shard predates (an engine upgrade widened the row schema) and vice
    # versa — unify by name, absent columns fill with typed nulls. Stored
    # column order is preserved, new columns append in update order, so
    # the merged layout is deterministic.
    # "permissive" also promotes castable type differences (an update
    # stream inferring int32 where the table stores int64 must merge, not
    # raise) — align() below casts each side to the unified type.
    schema = pa.unify_schemas([old.schema, updates.schema],
                              promote_options="permissive")

    def align(t: pa.Table) -> pa.Table:
        cols = []
        for f in schema:
            if f.name in t.column_names:
                c = t[f.name]
                cols.append(c if c.type == f.type else pc.cast(c, f.type))
            else:
                cols.append(pa.nulls(t.num_rows, f.type))
        return pa.Table.from_arrays(cols, schema=schema)

    merged = pa.concat_tables([align(kept), align(updates)]).sort_by(key)

    new_records = []
    step = max(1, -(-merged.num_rows // max(1, -(-merged.num_rows // target_rows))))
    for start in range(0, merged.num_rows, step):
        new_records.append(
            write_part(out_dir, shard_id, merged.slice(start, step), fs)
        )
    new_rec = commit_shard_manifest(out_dir, shard_id, new_records, fs)

    ddir = shard_data_dir(out_dir, shard_id)
    pdir = pending_dir(out_dir, shard_id)
    for part in old_parts - set(new_rec["parts"]):
        fs.remove(os.path.join(ddir, part))
        fs.remove(os.path.join(pdir, part.replace(".parquet", ".json")))
    new_rec = dict(new_rec)
    new_rec["n_replaced"] = n_replaced
    new_rec["n_appended"] = n_appended
    return new_rec


def delete_rows(out_dir: str, shard_id: int, keys: List[str],
                key: str = "url", target_rows: int = 100_000,
                fs: Optional[Any] = None) -> Dict[str, Any]:
    """Hard-delete rows by key from one committed shard (GDPR/takedown
    shape — no tombstones: the surviving rows are rewritten as fresh
    content-addressed parts, the manifest re-points, replaced parts are
    unlinked). Same crash-safety and snapshot-expiry semantics as
    upsert_shard/compaction. Keys absent from the shard are ignored.
    Returns the new manifest record plus ``n_deleted``; deleting the last
    row leaves a valid empty shard (zero parts)."""
    fs = _fs(fs)
    rec = {r["shard_id"]: r for r in load_lineage(out_dir, fs)}[shard_id]
    old = read_shard(out_dir, shard_id, fs)
    match = pc.is_in(old[key], value_set=pa.array(sorted(set(keys))))
    kept = old.filter(pc.invert(pc.fill_null(match, False))).sort_by(key)
    n_deleted = old.num_rows - kept.num_rows
    if n_deleted == 0:
        # No-op delete: keep the existing parts/manifest untouched — a
        # rewrite would change part names (global re-sort), expire pinned
        # snapshots and pay a full shard rewrite for nothing.
        rec = dict(rec)
        rec["n_deleted"] = 0
        return rec

    new_records = []
    if kept.num_rows:
        step = max(
            1, -(-kept.num_rows // max(1, -(-kept.num_rows // target_rows)))
        )
        for start in range(0, kept.num_rows, step):
            new_records.append(
                write_part(out_dir, shard_id, kept.slice(start, step), fs)
            )
    new_rec = commit_shard_manifest(out_dir, shard_id, new_records, fs)

    ddir = shard_data_dir(out_dir, shard_id)
    pdir = pending_dir(out_dir, shard_id)
    for part in set(rec["parts"]) - set(new_rec["parts"]):
        fs.remove(os.path.join(ddir, part))
        fs.remove(os.path.join(pdir, part.replace(".parquet", ".json")))
    new_rec = dict(new_rec)
    new_rec["n_deleted"] = n_deleted
    return new_rec


def upsert_rows(out_dir: str, updates: pa.Table, key: str = "url",
                shard_col: str = "shard_id", target_rows: int = 100_000,
                fs: Optional[Any] = None) -> Dict[str, Any]:
    """Table-level MERGE: split ``updates`` by its ``shard_col`` and upsert
    each affected shard (thread-pooled — per-shard work is IO-bound part
    rewriting; untouched shards are never read). The update stream must
    already carry the table's shard assignment, which every row written by
    this engine does (DOC_SCHEMA ``shard_id``). Returns totals."""
    sids = sorted(set(updates[shard_col].to_pylist()))

    def one(sid):
        sub = updates.filter(pc.equal(updates[shard_col], sid))
        return upsert_shard(out_dir, int(sid), sub, key=key,
                            target_rows=target_rows, fs=fs)

    recs = thread_map(one, sids)
    return {
        "shards_touched": len(recs),
        "n_replaced": sum(r["n_replaced"] for r in recs),
        "n_appended": sum(r["n_appended"] for r in recs),
    }


def compact_output(out_dir: str, target_rows: int = 100_000,
                   fs: Optional[Any] = None) -> Dict[str, Any]:
    """Compact every committed shard (thread-pooled: compaction is IO-bound
    and shards are independent). Returns the job summary over the resulting
    manifests — byte-identical counters/content_hash to pre-compaction."""
    records = load_lineage(out_dir, fs)
    thread_map(
        lambda r: compact_shard(out_dir, r["shard_id"], target_rows, fs), records
    )
    return summarize(load_lineage(out_dir, fs))


# ---------------------------------------------------------------------------
# Snapshots: versioned table reads (Iceberg-style time travel)
# ---------------------------------------------------------------------------
#
# A snapshot pins the CURRENT committed shard manifests (shard_id, parts,
# n_docs, content_hash) into one atomically-PUT object
# ``snapshots/v%06d.json``. Reading a snapshot sees exactly that row set
# regardless of later appends — the versioned-read contract incremental
# corpus builds need (diff v(N) vs v(N-1), reproduce a training run's
# exact input). Compaction REWRITES parts and unlinks the old ones, which
# EXPIRES any snapshot referencing them (Iceberg's vacuum semantics);
# ``read_snapshot`` then raises ``SnapshotExpired`` instead of returning
# partial data. Snapshot numbering is monotonic via the same
# whole-object-PUT + list pattern as manifests (no rename, safe on the
# object-store seam).


class SnapshotExpired(RuntimeError):
    """A snapshot references parts removed by a later compaction/vacuum."""


def snapshots_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "snapshots")


def list_snapshots(out_dir: str, fs: Optional[Any] = None) -> List[int]:
    fs = _fs(fs)
    sdir = snapshots_dir(out_dir)
    if not fs.isdir(sdir):
        return []
    out = []
    for name in fs.listdir(sdir):
        if name.startswith("v") and name.endswith(".json"):
            try:
                out.append(int(name[1:-5]))
            except ValueError:
                continue
    return sorted(out)


def commit_snapshot(out_dir: str, fs: Optional[Any] = None) -> Dict[str, Any]:
    """Pin the current committed state as the next snapshot version.

    Concurrent committers may race to the same version number; the PUT is
    atomic per object and both writers pin a valid (possibly identical)
    state — last-writer-wins on the version object, matching the
    manifest-commit convention (racing doubles write equivalent content
    when the underlying state is the same). Under an object store's
    EVENTUAL listing the snapshot pins the manifests currently *visible
    to LIST* — never partial shards (manifests are whole-object), but a
    just-committed shard may need a listing round trip before it is
    pinnable (tests/test_object_store_fs.py pins this semantics)."""
    fs = _fs(fs)
    records = load_lineage(out_dir, fs)
    version = (list_snapshots(out_dir, fs) or [0])[-1] + 1
    snap = {
        "version": version,
        "lineage_version": LINEAGE_VERSION,
        "shards": sorted(
            (
                {
                    "shard_id": r["shard_id"],
                    "parts": r["parts"],
                    "n_docs": r["n_docs"],
                    "content_hash": r["content_hash"],
                }
                for r in records
            ),
            key=lambda s: s["shard_id"],
        ),
        "summary": summarize(records),
    }
    sdir = snapshots_dir(out_dir)
    fs.makedirs(sdir)
    fs.put_bytes(
        os.path.join(sdir, f"v{version:06d}.json"),
        json.dumps(snap, sort_keys=True).encode("utf-8"),
    )
    return snap


def load_snapshot(out_dir: str, version: int,
                  fs: Optional[Any] = None) -> Dict[str, Any]:
    fs = _fs(fs)
    path = os.path.join(snapshots_dir(out_dir), f"v{version:06d}.json")
    try:
        return json.loads(fs.read_bytes(path))
    except (OSError, json.JSONDecodeError) as e:
        raise KeyError(f"no snapshot v{version} in {out_dir}") from e


def read_snapshot(out_dir: str, version: int,
                  fs: Optional[Any] = None) -> pa.Table:
    """Read exactly the rows pinned by snapshot ``version`` — unaffected by
    shards committed later. Raises SnapshotExpired when a referenced part
    was removed by compaction (partial data is never returned)."""
    fs = _fs(fs)
    snap = load_snapshot(out_dir, version, fs)
    tables = []
    for shard in snap["shards"]:
        ddir = shard_data_dir(out_dir, shard["shard_id"])
        for part in shard["parts"]:
            try:
                tables.append(fs.read_table(os.path.join(ddir, part)))
            except (OSError, pa.ArrowInvalid, KeyError) as e:
                raise SnapshotExpired(
                    f"snapshot v{version} references part {part} of shard "
                    f"{shard['shard_id']} removed by a later compaction/"
                    f"vacuum — expired per Iceberg semantics"
                ) from e
    return (
        pa.concat_tables(tables, promote_options="default")
        if tables else pa.table({})
    )


def table_history(out_dir: str, fs: Optional[Any] = None) -> List[Dict[str, Any]]:
    """(version, n_shards, n_docs) per snapshot — the table's commit log."""
    fs = _fs(fs)
    out = []
    for v in list_snapshots(out_dir, fs):
        snap = load_snapshot(out_dir, v, fs)
        out.append({
            "version": v,
            "n_shards": len(snap["shards"]),
            "n_docs": sum(s["n_docs"] for s in snap["shards"]),
        })
    return out


#: Default orphan-retention window (seconds). Parts younger than this are
#: NEVER garbage-collected: an extraction job writes data parts BEFORE the
#: manifest that references them, so a just-written part of an in-flight
#: shard is indistinguishable from a crash orphan by reference-counting
#: alone. Age is the discriminator (same design as Iceberg's
#: remove-orphan-files, whose default is 3 days).
VACUUM_RETENTION_S = 24 * 3600.0


def vacuum(out_dir: str, keep_snapshots: int = 2,
           fs: Optional[Any] = None,
           min_age_s: float = VACUUM_RETENTION_S) -> Dict[str, Any]:
    """Table maintenance: drop all but the newest ``keep_snapshots``
    snapshot objects, then delete ORPHAN data parts — parts referenced by
    neither a live manifest nor a retained snapshot (compaction leaves
    none behind itself, but crashed attempts and expired snapshots can).

    Safe ordering on the object-store seam: snapshots are pruned FIRST,
    so a part is only deletable once nothing that will be read again can
    reference it; the live manifests are never touched. Orphans younger
    than ``min_age_s`` are retained (default 24 h): a part written by a
    STILL-RUNNING job is an orphan until its shard's manifest commits, so
    an age threshold — not reference-counting — is what makes vacuum safe
    to run concurrently with extraction (Iceberg remove-orphan-files
    semantics). Pass ``min_age_s=0`` only when no job is active on
    ``out_dir``. Returns counts ``{"snapshots_dropped": n,
    "parts_dropped": m}``."""
    import time as _time

    fs = _fs(fs)
    now = _time.time()
    versions = list_snapshots(out_dir, fs)
    drop = versions[:-keep_snapshots] if keep_snapshots > 0 else versions
    for v in drop:
        fs.remove(os.path.join(snapshots_dir(out_dir), f"v{v:06d}.json"))

    referenced: Dict[int, set] = {}
    for rec in load_lineage(out_dir, fs):
        referenced.setdefault(rec["shard_id"], set()).update(rec["parts"])
    for v in list_snapshots(out_dir, fs):
        snap = load_snapshot(out_dir, v, fs)
        for shard in snap["shards"]:
            referenced.setdefault(shard["shard_id"], set()).update(shard["parts"])

    dropped_parts = 0
    ddir_root = data_dir(out_dir)
    if fs.isdir(ddir_root):
        for shard_name in fs.listdir(ddir_root):
            if not shard_name.startswith("shard="):
                continue
            sid = int(shard_name.split("=", 1)[1])
            ddir = os.path.join(ddir_root, shard_name)
            keep = referenced.get(sid, set())
            for part in fs.listdir(ddir):
                if part.endswith(".parquet") and part not in keep:
                    ppath = os.path.join(ddir, part)
                    if min_age_s > 0:
                        try:
                            if now - fs.mtime(ppath) < min_age_s:
                                continue  # possibly an in-flight shard's part
                        except OSError:
                            continue  # vanished under us -> nothing to GC
                    fs.remove(ppath)
                    fs.remove(os.path.join(
                        pending_dir(out_dir, sid),
                        part.replace(".parquet", ".json"),
                    ))
                    dropped_parts += 1
    return {"snapshots_dropped": len(drop), "parts_dropped": dropped_parts}


def snapshot_diff(out_dir: str, v_old: int, v_new: int,
                  fs: Optional[Any] = None) -> Dict[str, Any]:
    """Shard-level diff between two snapshots — the incremental-build
    primitive (recrawl N vs N-1: which shards changed, how many docs
    appeared). Compares per-shard content hashes, so compaction (which
    preserves content) reports NO change while real appends/rewrites do.
    Returns ``{"added_shards": [...], "removed_shards": [...],
    "changed_shards": [...], "docs_delta": int}``."""
    fs = _fs(fs)
    old = {s["shard_id"]: s for s in load_snapshot(out_dir, v_old, fs)["shards"]}
    new = {s["shard_id"]: s for s in load_snapshot(out_dir, v_new, fs)["shards"]}
    return {
        "added_shards": sorted(set(new) - set(old)),
        "removed_shards": sorted(set(old) - set(new)),
        "changed_shards": sorted(
            sid for sid in set(old) & set(new)
            if old[sid]["content_hash"] != new[sid]["content_hash"]
            or old[sid]["n_docs"] != new[sid]["n_docs"]
        ),
        "docs_delta": sum(s["n_docs"] for s in new.values())
        - sum(s["n_docs"] for s in old.values()),
    }
