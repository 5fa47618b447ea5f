"""Per-shard lineage records + checkpoint-resume substrate.

Replaces the reference's Postgres status bookkeeping (the 6 UPDATE helpers,
``document_text_extraction_service.py:715-846``, and the completed/pending
partial indexes, ``001_doc_text_extraction_queue.sql:76-83``) with
manifest-committed output files — the Ray-native equivalent at *partition*
granularity instead of per-document rows (SURVEY.md §2.1 S10, §4.2 item 3).

Layout under ``out_dir``::

    data/shard={id}/part-{contenthash}.parquet   # a shard's rows, written by
                                                 #   its extraction task (one
                                                 #   part) or a merge
    lineage/shard_{id:05d}.json                  # manifest: the exact part
                                                 #   list + counters; written
                                                 #   strictly AFTER its parts

A shard is one input file, and one extraction task reads, parses and
writes it, so the task that writes a shard's parts holds every part's
summary record (``write_part`` returns it). It commits the shard's manifest
from those records once they add up to the file's rows
(``try_commit_shard``), with no listing and no second writer to wait for.
Merges (compaction, upsert, delete) rewrite a shard the same way, through
one path: ``_write_parts`` writes the new parts, then ``_repoint`` commits
the manifest from the records in hand and only then unlinks the parts it
no longer lists. A reader trusts ONLY parts listed in a committed
manifest, so:

- crash before a shard's manifest -> shard incomplete -> fully re-processed
  on resume; any orphan parts from the crashed attempt are simply never
  referenced (and re-writes of identical row-sets are idempotent because
  part names are content hashes);
- resume = validate manifests, then drop the completed shards' input files
  from the read list, *before* the expensive parse stage (no shuffle).

The job calls ``write_part``, ``try_commit_shard``, ``completed_shards``,
``purge_shard``, ``upsert_shard`` and ``commit_snapshot``. Users read the
table (``read_shard``, ``read_all``, ``read_snapshot``) and maintain it
(``compact_shard``, ``delete_rows``, ``vacuum``): README's "Public API".

Tables written before commits came from the writer's records also hold
per-part summaries under ``lineage/pending/``. Nothing reads them; a fresh
(non-resume) run deletes them with the rest of ``lineage/``.

The manifest carries the counters the north star mandates (parse_failures,
empty_extractions, truncations) plus row counts and an order-insensitive
content hash (XOR of per-doc sha256 prefixes).

Page text is stored once. A part holds every DOC_SCHEMA column except
``doc_text`` and the ``page_md`` field of ``pages``: both are pure functions
of each page's ``(page, method, text)`` (``functions/render.py``), so
``write_part`` leaves them out and the public readers (``read_shard``,
``read_all``, ``read_snapshot``) rebuild them, returning DOC_SCHEMA rows.
A page's layout is stored as the extractor gave it
(``extract_stage.STAGE_SCHEMA``). The built-in extractors give a DOM or
PDF page's layout without what its text holds, in one of two ``pages``
fields, with ``layout_json`` null, and the readers rebuild the JSON from
the page text and the field (``doc_view``, through ``STORED_LAYOUTS``):

- ``layout_tags``, for a DOM page: ``html_layout`` repeats each kept
  block's text and derives its bboxes from the block index, so the page
  holds only the block tags, space-joined.
- ``layout_spans``, for a PDF page: a PDF layout repeats each span's text,
  and each line and block bbox is the union of its spans', so the page
  holds per-span columns with each text as its offset and length in the
  page text and no line or block bbox (``pdf_extract.layout_spans``).

Every other page keeps its ``layout_json``: an OCR page, a PDF page whose
span text the stripped page text lost, a page of another extractor, and
every page of DOC_SCHEMA rows (``read_all`` output passed to
``upsert_shard``). The writer converts nothing, and a part where no page
uses a field has no such field, so a part with neither is written exactly
as before the fields existed. Only tables with a ``pages`` column are
stored this way; others are stored as given. A part that still holds
``doc_text`` (written before text was stored once) or lacks either field
is read as it is, so every form mixes freely in one shard and
``LINEAGE_VERSION`` did not change. Merges (``upsert_shard``,
``compact_shard``, ``delete_rows``) keep each page's form and never
rebuild the text or the layouts.

Lineage alone encodes a part file: ``_encode_part`` writes it as Parquet
compressed with zstd at level 3 (``PART_COMPRESSION``), and every part
writer (the extraction task and every merge) goes through ``write_part``,
so a part holds the same bytes on every backend. Backends only store bytes
(``put_bytes``). Readers need no codec setting, since Parquet records it
per column chunk: parts written with snappy by earlier versions read,
merge and compact beside zstd ones, and ``LINEAGE_VERSION`` did not change.
"""

from __future__ import annotations

import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..functions.render import combine_pages, page_markdown
from ..stages.extract_stage import STORED_LAYOUTS

LINEAGE_VERSION = 1


class LocalAtomicFS:
    """Default storage backend: POSIX directories with tmp-file + atomic
    rename visibility.

    Every lineage I/O routes through this seam so the S5 object-store
    write path (reference ``document_text_extraction_service.py:679-705``,
    the S3 writer) is exercisable: an object store has NO rename — a PUT
    is atomic per object but listings may lag — so the interface exposes
    only whole-object ``put_bytes`` (each backend supplies its own
    atomicity; lineage encodes the bytes) and the commit must survive
    eventual listing (tests/test_object_store_fs.py injects such a backend): it
    never lists, since the writer commits from the part records it holds.
    Its correctness never depends on rename either: a part or manifest
    object is either fully visible or absent, and readers trust only
    manifest-listed parts.
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

    @staticmethod
    def _tmp(path: str) -> str:
        # One temp file per writer: two processes, or two threads of one
        # process, writing the same path would otherwise rename each
        # other's temp file away.
        return f"{path}.tmp-{os.getpid()}-{threading.get_ident()}"

    def put_bytes(self, path: str, data: bytes) -> None:
        tmp = self._tmp(path)
        with open(tmp, "wb") as f:
            f.write(data)
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


def _drop_page_field(table: pa.Table, name: str) -> pa.Table:
    """``table`` without the ``name`` field of its ``pages`` structs."""
    item = table.schema.field("pages").type.value_field
    if item.type.get_field_index(name) < 0:
        return table
    kept = pa.struct([f for f in item.type if f.name != name])
    return table.set_column(
        table.schema.get_field_index("pages"), "pages",
        table["pages"].cast(pa.list_(item.with_type(kept))),
    )


def _set_page_fields(table: pa.Table, pages: pa.ListArray,
                     fields: Dict[str, pa.Array]) -> pa.Table:
    """``table`` with its ``pages`` column (``pages``, combined into one
    chunk) rebuilt on structs of ``fields``. A null list becomes empty."""
    structs = pa.StructArray.from_arrays(list(fields.values()), names=list(fields))
    item = table.schema.field("pages").type.value_field
    pages = pa.ListArray.from_arrays(
        pages.offsets, structs, type=pa.list_(item.with_type(structs.type))
    )
    return table.set_column(table.schema.get_field_index("pages"), "pages", pages)


def _stored_text(table: pa.Table) -> pa.Table:
    """``table`` (which has ``pages``) without ``doc_text`` and
    ``pages.page_md``."""
    if "doc_text" in table.column_names:
        table = table.drop_columns(["doc_text"])
    return _drop_page_field(table, "page_md")


def _stored_layout(table: pa.Table) -> pa.Table:
    """``table`` as merges hold it: without ``doc_text`` and
    ``pages.page_md`` when it has ``pages`` to rebuild them from, and with
    every ``STORED_LAYOUTS`` field, last and in that order, null where a
    table lacks it, so tables of any form concatenate. Nothing is
    converted. Any other table unchanged."""
    if "pages" not in table.column_names:
        return table
    table = _stored_text(table)
    pages = table["pages"].combine_chunks()
    structs = pages.values
    fields = {f.name: structs.field(f.name) for f in structs.type}
    for name in STORED_LAYOUTS:
        fields[name] = fields.pop(name, pa.nulls(len(structs), pa.string()))
    return _set_page_fields(table, pages, fields)


def _part_layout(table: pa.Table) -> pa.Table:
    """``table`` as a part file holds it: without ``doc_text``,
    ``pages.page_md`` and each ``STORED_LAYOUTS`` field that no page uses,
    its chunks as given. Nothing is converted, so a table whose pages use
    neither field is stored as it was before the fields existed."""
    if "pages" not in table.column_names:
        return table
    table = _stored_text(table)
    flat = pc.list_flatten(table["pages"])
    for name in STORED_LAYOUTS:
        if (flat.type.get_field_index(name) >= 0
                and pc.struct_field(flat, name).null_count == len(flat)):
            table = _drop_page_field(table, name)
    return table


def doc_view(table: pa.Table) -> pa.Table:
    """DOC_SCHEMA rows of a stored part or of the parse stage's output
    (STAGE_SCHEMA): the ``layout_json`` of each page stored in a
    ``STORED_LAYOUTS`` field rebuilt, and those fields dropped;
    ``page_md`` after each page's ``text`` and ``doc_text`` before
    ``doc_chars`` rebuilt where they are absent. This is the one place a
    stored layout's JSON is built: the readers and ``extract_dataset``
    apply it. A table with nothing to rebuild, or no ``pages``, is
    returned as it is. DOC_SCHEMA rows always hold a pages list (never
    null), so a null list reads back empty."""
    if "pages" not in table.column_names:
        return table
    item = table.schema.field("pages").type.value_type
    if ("doc_text" in table.column_names and item.get_field_index("page_md") >= 0
            and all(item.get_field_index(name) < 0 for name in STORED_LAYOUTS)):
        return table
    pages = table["pages"].combine_chunks()
    structs = pages.values
    stored = {f.name: structs.field(f.name) for f in structs.type}
    page = stored["page"].to_pylist()
    text = stored["text"].to_pylist()
    for name, rebuild in STORED_LAYOUTS.items():
        if name in stored:
            values = stored.pop(name)
            stored["layout_json"] = pc.replace_with_mask(
                stored["layout_json"], values.is_valid(),
                pa.array([rebuild(x, v)
                          for x, v in zip(text, values.to_pylist()) if v is not None],
                         pa.string()),
            )
    fields = {}
    for name, values in stored.items():
        fields[name] = values
        if name == "text" and "page_md" not in stored:
            fields["page_md"] = pa.array(
                [page_markdown(p, m, t)
                 for p, m, t in zip(page, stored["method"].to_pylist(), text)],
                pa.string(),
            )
    table = _set_page_fields(table, pages, fields)
    if "doc_text" in table.column_names:
        return table
    bounds = pages.offsets.to_pylist()
    doc_text = pa.array(
        [combine_pages(zip(page[a:b], text[a:b]))
         for a, b in zip(bounds, bounds[1:])],
        pa.string(),
    )
    at = table.schema.get_field_index("doc_chars")
    return table.add_column(at if at >= 0 else table.num_columns,
                            "doc_text", doc_text)


# A part's codec: measured on the benchmark corpus, level 3 stores 39% fewer
# bytes than snappy for ~1.5x the encode CPU; higher levels up to 7 store no
# fewer, and 12 or more cost over 10x the CPU.
PART_COMPRESSION = "zstd"
PART_COMPRESSION_LEVEL = 3


def _encode_part(table: pa.Table) -> bytes:
    """The bytes of the part file that stores ``table``: ``_part_layout``
    as Parquet, compressed with ``PART_COMPRESSION``."""
    sink = pa.BufferOutputStream()
    pq.write_table(_part_layout(table), sink, compression=PART_COMPRESSION,
                   compression_level=PART_COMPRESSION_LEVEL)
    return sink.getvalue().to_pybytes()


def write_part(out_dir: str, shard_id: int, table: pa.Table,
               fs: Optional[Any] = None) -> Dict[str, Any]:
    """Write one content-addressed part file for a shard.

    The part name is a hash of the row-set's (url, content_hash) pairs, so a
    re-write of the same rows lands on the same name — idempotent by
    construction (and safe on object stores, where a double PUT of the same
    object is a no-op). Returns the part's summary record.

    The part stores ``table`` without ``doc_text`` and ``pages.page_md``
    when it has ``pages``, and each page's layout in the form ``table``
    holds it, with no ``layout_tags`` or ``layout_spans`` field that no
    page uses (``_part_layout``; nothing is converted): readers rebuild
    the text and the JSON of the stored layouts (module docstring), in the
    bytes ``_encode_part`` gives on any backend. The caller keeps the
    returned record and commits the shard from it (``try_commit_shard`` or
    ``commit_shard_manifest``); nothing else records the part.
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
    fs.put_bytes(os.path.join(ddir, part_name), _encode_part(table))

    rec = part_counters(table)
    rec["shard_id"] = shard_id
    rec["part"] = part_name
    return rec


def try_commit_shard(out_dir: str, shard_id: int, expected_rows: int,
                     part_records: list,
                     fs: Optional[Any] = None) -> Dict[str, Any] | None:
    """Commit the shard's manifest from ``part_records`` (the records
    ``write_part`` returned for its parts) iff they hold ``expected_rows``
    rows; otherwise return None and write nothing.

    The count is over distinct part names (``_distinct_parts``). Nothing
    is listed, so the commit is as immediate on an object store whose LIST
    lags as on a POSIX directory."""
    if sum(r["n_docs"] for r in _distinct_parts(part_records)) != expected_rows:
        return None
    return commit_shard_manifest(out_dir, shard_id, part_records, fs)


def purge_shard(out_dir: str, shard_id: int, fs: Optional[Any] = None) -> None:
    """Remove a shard's data parts and manifest — used before re-processing
    an incomplete shard, so a crashed attempt's parts do not linger beside
    the new attempt's."""
    fs = _fs(fs)
    fs.rmtree(shard_data_dir(out_dir, shard_id))
    fs.remove(manifest_path(out_dir, shard_id))


def _distinct_parts(part_records: list) -> List[Dict[str, Any]]:
    """``part_records`` with one record per part name: a retried write of
    the same rows lands on the same content-addressed part, so its second
    record describes rows already counted."""
    return list({r["part"]: r for r in part_records}.values())


def commit_shard_manifest(out_dir: str, shard_id: int, part_records: list,
                          fs: Optional[Any] = None) -> Dict[str, Any]:
    """Write the shard manifest AFTER all its parts exist (the commit point).
    Its counters and content hash are over distinct part names, like its
    part list (``_distinct_parts``)."""
    fs = _fs(fs)
    records = _distinct_parts(part_records)
    record = summarize(records)
    del record["n_shards"]
    record.update(version=LINEAGE_VERSION, shard_id=shard_id, status="ok",
                  parts=sorted(r["part"] for r in records))

    lpath = manifest_path(out_dir, shard_id)
    fs.makedirs(os.path.dirname(lpath))
    fs.put_bytes(lpath, json.dumps(record, sort_keys=True).encode("utf-8"))
    return record


def _read_manifest(path: str, fs: Any) -> Dict[str, Any] | None:
    """The manifest at ``path`` if it is a committed one: status ``ok`` and
    the current version. A missing object or torn JSON counts as absent
    (the shard is incomplete)."""
    try:
        rec = json.loads(fs.read_bytes(path))
    except (OSError, json.JSONDecodeError):
        return None
    if rec.get("status") == "ok" and rec.get("version") == LINEAGE_VERSION:
        return rec
    return None


def load_manifest(out_dir: str, shard_id: int,
                  fs: Optional[Any] = None) -> Dict[str, Any] | None:
    """One shard's committed manifest, read by key (``manifest_path``) with
    no listing, or None. GET-by-key is read-your-writes even on an object
    store whose LIST lags, so a shard committed a moment ago is seen."""
    fs = _fs(fs)
    return _read_manifest(manifest_path(out_dir, shard_id), fs)


def _committed_manifest(out_dir: str, shard_id: int, fs: Any) -> Dict[str, Any]:
    rec = load_manifest(out_dir, shard_id, fs)
    if rec is None:
        raise KeyError(shard_id)
    return rec


def load_lineage(out_dir: str, fs: Optional[Any] = None) -> List[Dict[str, Any]]:
    fs = _fs(fs)
    ldir = lineage_dir(out_dir)
    if not fs.isdir(ldir):
        return []
    records = []
    for name in fs.listdir(ldir):
        if not (name.startswith("shard_") and name.endswith(".json")):
            continue
        rec = _read_manifest(os.path.join(ldir, name), fs)
        if rec is not None:
            records.append(rec)
    return records


def completed_shards(out_dir: str,
                     fs: Optional[Any] = None) -> Dict[int, Dict[str, Any]]:
    """The validated manifests by shard id: each manifest is valid AND its
    listed parts all exist with the recorded total row count (guards
    against data removed/corrupted after the manifest was committed).
    ``in``, iteration and ``sorted`` see the shard ids; a resumed job sums
    the values into its summary without reading them again.

    Validation is footer-only IO per part and independent across shards, so
    it runs on a pool of at most 32 threads — a serial scan is an O(shards)
    resume stall at crawl-scale shard counts.

    Consistency: like ``read_all``, this sees the manifests LIST shows; a
    shard committed a moment ago on a store whose LIST lags counts as
    incomplete, and a resume re-extracts it to the same content-addressed
    parts and manifest."""
    fs = _fs(fs)
    records = load_lineage(out_dir, fs)

    def check(rec: Dict[str, Any]) -> Dict[str, Any] | None:
        ddir = shard_data_dir(out_dir, rec["shard_id"])
        n = 0
        for part in rec.get("parts", []):
            try:
                n += fs.num_rows(os.path.join(ddir, part))
            except (OSError, pa.ArrowInvalid, KeyError):
                return None
        return rec if n == rec["n_docs"] else None

    with ThreadPoolExecutor(max_workers=min(32, max(4, len(records)))) as pool:
        return {rec["shard_id"]: rec
                for rec in pool.map(check, records) if rec is not None}


def _read_parts(out_dir: str, shards: List[Dict[str, Any]], fs: Any,
                layout=doc_view) -> pa.Table:
    """Every part listed by ``shards`` (manifests or a snapshot's shard
    records), each put in ``layout``, concatenated: the one read path.
    The default (``doc_view``) gives DOC_SCHEMA rows, the derived text and
    the stored layouts' JSON rebuilt; merges pass ``_stored_layout``, which
    rebuilds nothing and gives every part both stored layout fields, so
    parts of any form concatenate, each page in the form it was stored."""
    tables = [
        layout(fs.read_table(os.path.join(shard_data_dir(out_dir, s["shard_id"]), p)))
        for s in shards
        for p in s["parts"]
    ]
    return (
        pa.concat_tables(tables, promote_options="default")
        if tables else pa.table({})
    )


def read_shard(out_dir: str, shard_id: int, fs: Optional[Any] = None) -> pa.Table:
    """Read a shard's rows via its manifest (ignores orphan parts), with
    ``doc_text``, ``pages.page_md`` and every stored layout's
    ``layout_json`` rebuilt.
    Raises KeyError when the shard has no committed manifest."""
    fs = _fs(fs)
    return _read_parts(out_dir, [_committed_manifest(out_dir, shard_id, fs)], fs)


def read_all(out_dir: str, fs: Optional[Any] = None) -> pa.Table:
    """Read every committed shard's rows (manifest-listed parts only).

    Derived on read: parts store page text once, and ``doc_text`` and
    ``pages.page_md`` are rebuilt from ``pages``; so is the ``layout_json``
    of each page stored as ``layout_tags`` or ``layout_spans``. A part
    that still holds ``doc_text`` or every ``layout_json`` is read as it
    is (module docstring).

    Consistency: the shards read are the manifests LIST shows
    (``load_lineage``). On a store whose LIST lags (an object store), a
    shard committed a moment ago may be missing from the result until the
    listing catches up; a shard is never read partially, since its
    manifest names its parts. Read one shard by key (``read_shard``) for
    read-your-writes.

    Schema EVOLUTION on read: parts written before a column was added
    unify by name with typed nulls (Iceberg add-column semantics) — an
    engine upgrade that widens DOC_SCHEMA must not strand old shards. The
    derived columns are rebuilt per part first, so parts stored with and
    without them read back as one DOC_SCHEMA table."""
    fs = _fs(fs)
    return _read_parts(out_dir, load_lineage(out_dir, fs), fs)


# The counters a part record, a shard manifest and the job summary carry.
COUNTERS = ("n_docs", "n_pages", "n_pages_ok", "parse_failures",
            "empty_extractions", "truncations", "password_required")


def summarize(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge per-shard lineage (or one shard's part records) into the
    counter summary: each counter summed, the content hashes XORed."""
    out = {"n_shards": len(records), **dict.fromkeys(COUNTERS, 0)}
    acc = 0
    for r in records:
        for k in COUNTERS:
            # manifests older than password tracking lack that counter
            out[k] += r.get(k, 0)
        acc ^= int(r["content_hash"], 16)
    out["content_hash"] = f"{acc:016x}"
    return out


# Rows per part a merge writes at most: ``_write_parts`` cuts a shard into
# ``ceil(n / PART_TARGET_ROWS)`` even parts.
PART_TARGET_ROWS = 100_000


def _write_parts(out_dir: str, shard_id: int, rows: pa.Table,
                 fs: Any) -> List[Dict[str, Any]]:
    """Write ``rows`` as the shard's new content-addressed parts, in
    ``ceil(n / PART_TARGET_ROWS)`` even slices (none for no rows), and
    return their records. The first step of every merge."""
    n = rows.num_rows
    step = max(1, -(-n // max(1, -(-n // PART_TARGET_ROWS))))
    return [write_part(out_dir, shard_id, rows.slice(start, step), fs)
            for start in range(0, n, step)]


def _repoint(out_dir: str, shard_id: int, records: List[Dict[str, Any]],
             old_parts: List[str], fs: Any) -> Dict[str, Any]:
    """Commit the shard's manifest from ``records`` (its new parts, which
    exist), then unlink those of ``old_parts`` it no longer lists. A crash
    at any step leaves either the old or the new manifest, each naming only
    parts that exist. Returns the new manifest record."""
    rec = commit_shard_manifest(out_dir, shard_id, records, fs)
    ddir = shard_data_dir(out_dir, shard_id)
    for part in set(old_parts) - set(rec["parts"]):
        fs.remove(os.path.join(ddir, part))
    return rec


def compact_shard(out_dir: str, shard_id: int,
                  fs: Optional[Any] = None) -> Dict[str, Any]:
    """Small-file compaction for one committed shard — the storage-
    maintenance pass every long-lived 100-TB layout needs (many appends ->
    many tiny parts -> footer-read amplification on every consumer).

    Merges the shard's manifest-listed parts into ``ceil(n_docs /
    PART_TARGET_ROWS)`` right-sized parts. Crash-safe by the same commit
    discipline as extraction: new content-addressed parts are written
    FIRST, then the manifest atomically re-points to them, and only then
    are the old parts unlinked (``_repoint``). Counters and the
    order-insensitive content_hash are preserved exactly: the new parts'
    records are checked against the manifest BEFORE it re-points, so a
    mismatch raises RuntimeError with the shard as it was (the new parts
    are orphans, never read). Already-compact shards are a no-op, and
    re-running lands on identical content-addressed names. Returns the
    (possibly unchanged) manifest record."""
    fs = _fs(fs)
    rec = _committed_manifest(out_dir, shard_id, fs)
    if len(rec["parts"]) <= max(1, -(-rec["n_docs"] // PART_TARGET_ROWS)):
        return rec  # already compact

    table = _read_parts(out_dir, [rec], fs, _stored_layout)
    records = _write_parts(out_dir, shard_id, table, fs)
    new = summarize(records)
    if new["content_hash"] != rec["content_hash"] or new["n_docs"] != rec["n_docs"]:
        raise RuntimeError(
            f"compaction changed shard {shard_id} content "
            f"({rec['content_hash']}/{rec['n_docs']} -> "
            f"{new['content_hash']}/{new['n_docs']})"
        )
    return _repoint(out_dir, shard_id, records, rec["parts"], fs)


def upsert_shard(out_dir: str, shard_id: int, updates: pa.Table,
                 key: str = "url",
                 fs: Optional[Any] = None) -> Dict[str, Any]:
    """MERGE (upsert) one shard: stored rows whose ``key`` matches an
    update row are REPLACED by it; update rows with new keys are APPENDED
    — the recrawl-refresh primitive (Iceberg MERGE INTO at shard
    granularity). ``updates`` must carry the shard's full row schema, with
    or without the derived text, and be unique on ``key`` (asserted): the
    parse stage's output (STAGE_SCHEMA) or DOC_SCHEMA rows. They are merged
    as stored (``_stored_layout``): each page keeps the form it holds, so
    a DOC_SCHEMA row's layouts are stored as JSON.

    Crash-safe by the same discipline as compaction: the merged
    content-addressed parts are written FIRST, then the manifest
    atomically re-points, and only then are replaced parts unlinked
    (``_repoint``) — a crash at any step leaves a manifest whose parts all
    exist. The merged rows are sorted by ``key`` before the part split, so
    the same logical upsert lands on identical part names at any
    parallelism. Counters and content_hash are recomputed from the merged
    rows (content genuinely changed — unlike compaction there is no
    preservation invariant).
    Snapshots pinned before the upsert keep reading the OLD rows until a
    replaced part is unlinked, after which they expire (SnapshotExpired)
    exactly like compaction — pin-then-upsert plus vacuum retention is
    the supported time-travel window.

    The stored shard is found by key: ``load_manifest`` GETs its
    ``manifest_path`` and lists nothing, so the cost is one manifest read
    however many shards the table holds, and a shard committed a moment
    ago is seen even where LIST lags (an object store). Only a shard with
    no committed manifest at that key is created fresh from the updates.
    Returns the new manifest record plus ``n_replaced`` / ``n_appended``."""
    fs = _fs(fs)
    updates = _stored_layout(updates)
    keys = updates[key].to_pylist()
    if len(set(keys)) != len(keys):
        raise ValueError(f"updates are not unique on {key!r}")

    rec = load_manifest(out_dir, shard_id, fs)
    if rec is None:
        old = updates.schema.empty_table()
        old_parts: List[str] = []
    else:
        old = _read_parts(out_dir, [rec], fs, _stored_layout)
        old_parts = rec["parts"]

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
    # the merged layout is deterministic. "permissive" also promotes
    # castable type differences (an update stream inferring int32 where
    # the table stores int64 must merge, not raise).
    merged = pa.concat_tables(
        [kept, updates], promote_options="permissive").sort_by(key)

    records = _write_parts(out_dir, shard_id, merged, fs)
    new_rec = _repoint(out_dir, shard_id, records, old_parts, fs)
    new_rec["n_replaced"] = n_replaced
    new_rec["n_appended"] = n_appended
    return new_rec


def delete_rows(out_dir: str, shard_id: int, keys: List[str],
                key: str = "url",
                fs: Optional[Any] = None) -> Dict[str, Any]:
    """Hard-delete rows by key from one committed shard (GDPR/takedown
    shape — no tombstones: the surviving rows are rewritten as fresh
    content-addressed parts, the manifest re-points, replaced parts are
    unlinked). Same crash-safety and snapshot-expiry semantics as
    upsert_shard/compaction. Keys absent from the shard are ignored.
    Returns the new manifest record plus ``n_deleted``; deleting the last
    row leaves a valid empty shard (zero parts)."""
    fs = _fs(fs)
    rec = _committed_manifest(out_dir, shard_id, fs)
    old = _read_parts(out_dir, [rec], fs, _stored_layout)
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

    records = _write_parts(out_dir, shard_id, kept, fs)
    new_rec = _repoint(out_dir, shard_id, records, rec["parts"], fs)
    new_rec["n_deleted"] = n_deleted
    return new_rec


# ---------------------------------------------------------------------------
# Snapshots: versioned table reads (Iceberg-style time travel)
# ---------------------------------------------------------------------------
#
# A snapshot pins the CURRENT committed shard manifests (shard_id, parts,
# n_docs, content_hash) into one atomically-PUT object
# ``snapshots/v%06d.json``. Reading a snapshot sees exactly that row set
# regardless of later appends — the versioned-read contract incremental
# corpus builds need (reproduce a training run's exact input). Compaction REWRITES parts and unlinks the old ones, which
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
    when the underlying state is the same).

    Consistency: like ``read_all``, the snapshot pins the manifests LIST
    shows. Under an object store's EVENTUAL listing that is never a
    partial shard (manifests are whole-object), but a just-committed
    shard may need a listing round trip before it is pinnable; a caller
    that must pin it retries after the listing shows it
    (tests/test_object_store_fs.py pins this semantics)."""
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
    """Read exactly the rows pinned by snapshot ``version``, derived text
    rebuilt as in ``read_all`` — unaffected by shards committed later.
    Raises SnapshotExpired when a referenced part was removed by
    compaction (partial data is never returned)."""
    fs = _fs(fs)
    snap = load_snapshot(out_dir, version, fs)
    try:
        return _read_parts(out_dir, snap["shards"], fs)
    except (OSError, pa.ArrowInvalid, KeyError) as e:
        raise SnapshotExpired(
            f"snapshot v{version} references a part removed by a later "
            f"compaction/vacuum ({e}) — expired per Iceberg semantics"
        ) from e


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
    "parts_dropped": m}``. A negative ``keep_snapshots`` or ``min_age_s``
    raises ValueError before anything is removed."""
    import time as _time

    # Either would otherwise pick the most destructive setting: every
    # snapshot dropped, or the parts of an in-flight job removed.
    for name, value in (("keep_snapshots", keep_snapshots), ("min_age_s", min_age_s)):
        if value < 0:
            raise ValueError(f"vacuum: {name} must be >= 0, got {value}")
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
                    dropped_parts += 1
    return {"snapshots_dropped": len(drop), "parts_dropped": dropped_parts}
