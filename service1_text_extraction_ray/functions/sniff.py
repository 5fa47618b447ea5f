"""Content-kind dispatch for the raw payload column.

The reference hard-codes ``file_ext DEFAULT 'pdf'`` (the queue schema,
``database/schemas/document_text_extraction/001_doc_text_extraction_queue.sql:23``)
and validates PDFs by opening them (``backend/core/pdf_processing.py:42-86``).
The new engine instead sniffs magic bytes on the ``html: binary`` payload
column so one input table can carry mixed HTML/PDF/other content
(SURVEY.md §4.2 item 5).

``sniff_payload`` is the one content-kind decision: the parse dispatches
on it (``extract.extract_document``), and ``sniff_table``, the per-batch
sniff stage, labels each row's ``content_kind`` with it.
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .feeds import detect_feed

KIND_HTML = "html"
KIND_PDF = "pdf"
KIND_FEED = "feed"
KIND_TEXT = "text"
KIND_OTHER = "other"

# plain-text detection over the first 64 bytes: ASCII printable + common
# whitespace; a NUL or a high/control byte density > 10% means binary
_TEXTY_OK = frozenset(range(0x20, 0x7F)) | {0x09, 0x0A, 0x0D}


def _is_texty(head: bytes) -> bool:
    """True when a non-markup payload head reads as plain text: no NUL,
    >= 90% printable-ASCII/whitespace bytes, and not a truncated %PDF stub
    (which starts printable but is a broken binary, counted as a parse
    failure — reclassifying it would silently change the failure
    counters)."""
    if not head or head.startswith(b"%PDF"):
        return False
    if b"\x00" in head:
        return False
    ok = sum(1 for b in head if b in _TEXTY_OK)
    return ok * 10 >= len(head) * 9


def sniff_payload(payload: bytes | None) -> str:
    """Classify a single payload: %PDF- magic -> pdf; an RSS/Atom ROOT TAG
    -> feed (an ``<?xml``-prefixed XHTML page stays html — the root tag
    decides, see feeds.detect_feed); leading '<' (after whitespace / UTF-8
    BOM) -> html; a printable-ASCII head (no NUL, >= 90% printable in the
    first 64 bytes, not a %PDF stub) -> text; else other."""
    if payload is None or len(payload) == 0:
        return KIND_OTHER
    if payload[:5] == b"%PDF-":
        return KIND_PDF
    head = payload[:64]
    if head[:3] == b"\xef\xbb\xbf":
        head = head[3:]
    stripped = head.lstrip(b" \t\r\n")
    if stripped[:1] == b"<":
        # Feed check only for the three root-ish prefixes (a <!DOCTYPE html>
        # page never pays the root-tag scan; a comment-prefixed feed is
        # classified html — a documented prefilter).
        if stripped[:5] == b"<?xml" or stripped[:4] in (b"<rss", b"<fee"):
            if detect_feed(payload) is not None:
                return KIND_FEED
        return KIND_HTML
    if _is_texty(payload[:64]):
        return KIND_TEXT
    return KIND_OTHER


def stable_shard_id(path: str) -> int:
    """Deterministic shard id for an input file path: crc32 of its basename.

    The shard IS the input file (Common-Crawl-style inputs are many Parquet
    shards already): deterministic, aligned with read-task boundaries (no
    shuffle needed to co-locate a shard's rows), and resume can prune whole
    files from the read list before any IO. crc32 is stable across processes
    and Python versions (unlike ``hash``). Basename (not full path) so the
    mapping survives moving the input directory.
    """
    import os

    return zlib.crc32(os.path.basename(path).encode("utf-8"))


def sniff_table(batch: pa.Table, size_bucket_edges: tuple[int, ...]) -> pa.Table:
    """Sniff stage: content_kind, payload_len, size_bucket, shard_id (from
    the reader's ``path`` column, which is then dropped).

    ``content_kind`` is ``sniff_payload`` of each row, the same call the
    parse dispatches on, so a row's stored kind is the kind it was parsed
    as. Each row passes only its first 512 bytes: ``sniff_payload`` reads
    no further (the ``%PDF-`` check reads 5, ``_is_texty`` 64 and
    ``feeds.detect_feed`` 512). payload_len and size_bucket are pyarrow /
    numpy kernels; shard ids are computed once per distinct path in the
    batch (dictionary-encode, hash the few uniques), not per row.
    """
    payload = batch["html"]
    n = len(batch)

    payload_len = pc.fill_null(pc.binary_length(payload), 0)
    kinds = [sniff_payload(h) for h in pc.binary_slice(payload, 0, 512).to_pylist()]

    # Shard from source file: encode the handful of distinct paths per batch.
    # Datasets with no file provenance (in-memory synthesis, adapters) fall
    # back to a url-hash shard — resume does not apply to them anyway. A
    # null url has no shard: refuse the batch, counting them, as the file
    # task refuses a file.
    if "path" in batch.column_names:
        enc = pc.dictionary_encode(batch["path"].combine_chunks())
        dict_vals = enc.dictionary.to_pylist()
        shard_of = np.array([stable_shard_id(p) for p in dict_vals], dtype=np.int64)
        shard = shard_of[enc.indices.to_numpy(zero_copy_only=False)]
    else:
        n_null = batch["url"].null_count
        if n_null:
            raise ValueError(f"batch has {n_null} rows with a null url")
        urls = batch["url"].to_pylist()
        shard = np.fromiter(
            (zlib.crc32(u.encode("utf-8")) % 256 for u in urls), dtype=np.int64, count=n
        )

    lens_np = payload_len.to_numpy(zero_copy_only=False)
    bucket = np.digitize(lens_np, size_bucket_edges).astype(np.int8)

    out = batch.drop_columns(["path"]) if "path" in batch.column_names else batch
    return (
        out.append_column("content_kind", pa.array(kinds, type=pa.string()))
        .append_column("payload_len", payload_len.cast(pa.int64()))
        .append_column("size_bucket", pa.array(bucket, type=pa.int8()))
        .append_column("shard_id", pa.array(shard, type=pa.int64()))
    )
