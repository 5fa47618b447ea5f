"""Content-kind dispatch for the raw payload column.

The reference hard-codes ``file_ext DEFAULT 'pdf'`` (the queue schema,
``database/schemas/document_text_extraction/001_doc_text_extraction_queue.sql:23``)
and validates PDFs by opening them (``backend/core/pdf_processing.py:42-86``).
The new engine instead sniffs magic bytes on the ``html: binary`` payload
column so one input table can carry mixed HTML/PDF/other content
(SURVEY.md §4.2 item 5).

``sniff_table`` is the vectorized batch version used by the pipeline;
``sniff_payload`` is the scalar version shared with the sequential oracle.
Both MUST agree (unit-tested).
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
        # consistently classified html — documented prefilter, identical in
        # the vectorized path so scalar/table sniffs always agree).
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
    """Vectorized sniff stage: content_kind, payload_len, size_bucket,
    shard_id (from the reader's ``path`` column, which is then dropped).

    payload_len / prefix checks use pyarrow kernels (zero-copy over the binary
    column); shard ids are computed once per distinct path in the batch
    (dictionary-encode, hash the few uniques), not per row.
    """
    payload = batch["html"]
    n = len(batch)

    payload_len = pc.fill_null(pc.binary_length(payload), 0)

    is_pdf = pc.fill_null(pc.starts_with(payload, pattern=b"%PDF-"), False)

    # HTML detection, vectorized for the dominant case: a payload that starts
    # directly with '<' (virtually all real markup). Only rows that start
    # with a BOM or leading whitespace need the scalar lstrip fallback —
    # find those rows with one more kernel and loop over just them.
    is_pdf_np = is_pdf.to_numpy(zero_copy_only=False)
    is_html_np = pc.fill_null(
        pc.starts_with(payload, pattern=b"<"), False
    ).to_numpy(zero_copy_only=False)
    kinds = np.where(
        is_pdf_np, KIND_PDF, np.where(is_html_np, KIND_HTML, KIND_OTHER)
    ).astype(object)

    # Feed refinement: only '<'-prefixed rows whose first element could be
    # an rss/feed root (cheap vectorized prefix prefilter; the scalar
    # root-tag scan runs on just those rows — feeds are rare in a crawl).
    maybe_feed = is_html_np & pc.fill_null(
        pc.or_(
            pc.or_(
                pc.starts_with(payload, pattern=b"<?xml"),
                pc.starts_with(payload, pattern=b"<rss"),
            ),
            pc.starts_with(payload, pattern=b"<feed"),
        ),
        False,
    ).to_numpy(zero_copy_only=False)
    if maybe_feed.any():
        head512 = pc.binary_slice(payload, 0, 512)
        for i in np.nonzero(maybe_feed)[0]:
            if detect_feed(head512[int(i)].as_py()) is not None:
                kinds[i] = KIND_FEED

    lens_np = payload_len.to_numpy(zero_copy_only=False)
    maybe_slow = ~is_pdf_np & ~is_html_np & (lens_np > 0)
    if maybe_slow.any():
        head = pc.binary_slice(payload, 0, 512)
        for i in np.nonzero(maybe_slow)[0]:
            h = head[int(i)].as_py()
            if h:
                if h[:3] == b"\xef\xbb\xbf":
                    h = h[3:]
                hs = h.lstrip(b" \t\r\n")
                if hs[:1] == b"<":
                    # BOM/whitespace-prefixed markup: same feed refinement
                    # (same three-prefix gate as the scalar path)
                    kinds[i] = (
                        KIND_FEED
                        if (hs[:5] == b"<?xml" or hs[:4] in (b"<rss", b"<fee"))
                        and detect_feed(hs) is not None
                        else KIND_HTML
                    )
                elif _is_texty(h[:64]):
                    kinds[i] = KIND_TEXT

    # Shard from source file: encode the handful of distinct paths per batch.
    # Datasets with no file provenance (in-memory synthesis, adapters) fall
    # back to a url-hash shard — resume does not apply to them anyway.
    if "path" in batch.column_names:
        enc = pc.dictionary_encode(batch["path"].combine_chunks())
        dict_vals = enc.dictionary.to_pylist()
        shard_of = np.array([stable_shard_id(p) for p in dict_vals], dtype=np.int64)
        shard = shard_of[enc.indices.to_numpy(zero_copy_only=False)]
    else:
        urls = batch["url"].to_pylist()
        shard = np.fromiter(
            (zlib.crc32(u.encode("utf-8")) % 256 for u in urls), dtype=np.int64, count=n
        )

    bucket = np.digitize(lens_np, size_bucket_edges).astype(np.int8)

    out = batch.drop_columns(["path"]) if "path" in batch.column_names else batch
    return (
        out.append_column("content_kind", pa.array(kinds, type=pa.string()))
        .append_column("payload_len", payload_len.cast(pa.int64()))
        .append_column("size_bucket", pa.array(bucket, type=pa.int8()))
        .append_column("shard_id", pa.array(shard, type=pa.int64()))
    )
