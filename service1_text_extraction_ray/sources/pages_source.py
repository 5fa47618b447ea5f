"""WARC source for the pages table (ISO 28500, the Common Crawl container).

``read_warc_file`` turns one .warc / .warc.gz shard file into a
PAGES_SCHEMA table; ``run_extraction_job``'s file task reads each WARC input
with it, and ``read_pages_warc`` runs it once per file as a Dataset.
``write_pages_warc`` writes the same layout, so a parquet corpus can be
re-encoded as WARC input. Parquet itself is read directly by the pipeline.
"""

from __future__ import annotations

import os

import pyarrow as pa
import ray.data as rd

from ..functions.sniff import sniff_payload
from ..functions.synth import PAGES_SCHEMA

WARC_EXTS = (".warc", ".warc.gz")
SHARD_EXTS = (".parquet",) + WARC_EXTS


def list_input_files(input_path: str | list) -> list:
    """Deterministic (sorted) list of input shard files — parquet (the
    production format) or WARC (plain / .warc.gz, the Common Crawl wire
    format). A directory is listed one level deep: the shard identity is
    the file BASENAME (sniff.stable_shard_id), so files from nested segment
    directories could alias one another's shards. A directory holding no
    shard file at that level raises ValueError naming it, never an empty
    job. Every path listed or given must be an existing file with a shard
    extension; ValueError names any that is not. A directory may contain
    one format, not a mix: the ambiguity would hide a misconfigured
    input."""
    if isinstance(input_path, (list, tuple)):
        files = sorted(str(p) for p in input_path)
    elif not os.path.isdir(input_path):
        files = [input_path]
    else:
        files = sorted(
            os.path.join(input_path, f)
            for f in os.listdir(input_path)
            if f.endswith(SHARD_EXTS)
        )
        if not files:
            raise ValueError(
                f"no .parquet or .warc[.gz] input shard directly in "
                f"{input_path!r} (nested directories are not listed)"
            )
    bad = [f for f in files if not (f.endswith(SHARD_EXTS) and os.path.isfile(f))]
    if bad:
        raise ValueError(f"input paths that are not .parquet or .warc[.gz] files: {bad}")
    pq_files = [f for f in files if f.endswith(".parquet")]
    if pq_files and len(pq_files) != len(files):
        raise ValueError("mixed parquet and WARC inputs in one job")
    return files


# ---------------------------------------------------------------------------
# WARC source (ISO 28500 — the Common Crawl container format)
# ---------------------------------------------------------------------------
#
# Each page writes TWO records, mirroring Common Crawl's real layout: a
# ``response`` record whose payload is the raw fetched bytes (our ``html``
# column; in CC it is the full HTTP response) and a paired ``conversion``
# record holding the extracted plain text (the WET shape) with the
# identified language in the standard ``WARC-Identified-Content-Language``
# field. ``WARC-Date`` keeps microsecond precision so ``warc_ts``
# round-trips exactly. Payloads are length-delimited by ``Content-Length``
# (never scanned for sentinels), so arbitrary binary html and arbitrary
# text round-trip byte-identically (pytest parity vs the parquet path).

_WARC_VERSION = b"WARC/1.0\r\n"


def _sha1_b32(payload: bytes) -> bytes:
    """``sha1:<base32>`` digest label, the Common Crawl convention for
    WARC-Payload-Digest / WARC-Block-Digest values."""
    import base64
    import hashlib

    return b"sha1:" + base64.b32encode(hashlib.sha1(payload).digest())


def _warc_record(rec_type: bytes, uri: str, date_iso: str, payload: bytes,
                 extra: list) -> bytes:
    hdrs = [
        _WARC_VERSION,
        b"WARC-Type: " + rec_type + b"\r\n",
        b"WARC-Target-URI: " + uri.encode("utf-8") + b"\r\n",
        b"WARC-Date: " + date_iso.encode("ascii") + b"\r\n",
    ]
    hdrs += extra
    hdrs.append(b"Content-Length: " + str(len(payload)).encode("ascii") + b"\r\n")
    return b"".join(hdrs) + b"\r\n" + payload + b"\r\n\r\n"


def _encode_page_records(row: dict, gzip_members: bool = False) -> list:
    """The WARC records of one pages row, in shard order: the ``response``
    record, then its ``conversion`` record. With ``gzip_members`` each
    record is its own gzip member (mtime=0, so the bytes are deterministic
    and the content-addressed shard names stable across re-runs — the
    resume contract)."""
    import gzip

    date_iso = row["warc_ts"].isoformat(timespec="microseconds") + "Z"
    body = row["html"] or b""
    # response payloads are FULL HTTP messages (the real CC layout), not
    # bare bodies; content type from the same sniff the extraction
    # dispatch uses
    ctype = {
        "pdf": "application/pdf", "html": "text/html",
    }.get(sniff_payload(body), "application/octet-stream")
    envelope = _http_envelope(body, ctype)
    wet_body = (row["text"] or "").encode("utf-8")
    recs = [
        _warc_record(
            b"response", row["url"], date_iso,
            envelope,
            [b"Content-Type: application/http; msgtype=response\r\n",
             # the CC digest pair (ISO 28500 §5.8/5.9): payload = the HTTP
             # entity body, block = the whole record block
             b"WARC-Payload-Digest: " + _sha1_b32(body) + b"\r\n",
             b"WARC-Block-Digest: " + _sha1_b32(envelope) + b"\r\n"],
        ),
        _warc_record(
            b"conversion", row["url"], date_iso,
            wet_body,
            [b"WARC-Identified-Content-Language: "
             + (row["lang"] or "").encode("utf-8") + b"\r\n",
             b"Content-Type: text/plain\r\n",
             b"WARC-Block-Digest: " + _sha1_b32(wet_body) + b"\r\n"],
        ),
    ]
    if gzip_members:
        recs = [gzip.compress(r, mtime=0) for r in recs]
    return recs


def _write_warc_shard(records: list, out_dir: str,
                      gzip_members: bool = False) -> str:
    """Write encoded records as one shard under a content-addressed name
    (md5 of its bytes), atomically via a temp file; returns the path."""
    import hashlib

    blob = b"".join(records)
    name = hashlib.md5(blob).hexdigest()[:16]
    ext = "warc.gz" if gzip_members else "warc"
    path = os.path.join(out_dir, f"pages-{name}.{ext}")
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(blob)
    os.replace(tmp, path)
    return path


def write_pages_warc(pages: rd.Dataset, out_dir: str,
                     gzip_members: bool = False) -> int:
    """Write the pages Dataset as .warc shard files (one per input block,
    content-addressed names so re-runs are idempotent). Returns the number
    of shards written. Distributed: each task serializes and writes its own
    block; nothing rides through the driver.

    ``gzip_members=True`` writes Common Crawl's canonical ``.warc.gz``
    layout (ISO 28500-2 Annex; the WARC 1.1 guideline): each record is an
    INDEPENDENT gzip member, so a reader can seek to any member boundary
    and decompress one record without touching the rest of the shard —
    that per-record random access is what makes CC index lookups work."""
    os.makedirs(out_dir, exist_ok=True)

    def write_block(t: pa.Table) -> pa.Table:
        recs = [r for row in t.to_pylist()
                for r in _encode_page_records(row, gzip_members)]
        path = _write_warc_shard(recs, out_dir, gzip_members)
        return pa.Table.from_pylist([{"shard": path, "n_rows": t.num_rows}])

    return sum(
        1 for _ in pages.map_batches(write_block, batch_format="pyarrow")
        .iter_rows()
    )


def _parse_warc_records(blob: bytes, tolerant: bool = False,
                        stats: dict | None = None):
    """Sequential WARC record parser: header block to the blank line, then
    exactly Content-Length payload bytes (payload content is never
    scanned). Yields (headers dict lower-cased, payload bytes).

    ``tolerant=True`` is the crawl-archive SALVAGE mode: a malformed
    header, bad Content-Length or torn payload does not raise — the
    parser RESYNCS to the next ``WARC/1.`` version line and continues,
    counting every skip in ``stats["parser_resyncs"]`` (real Common Crawl
    shards contain damaged records; a poison shard must cost its broken
    records, not the task). Strict mode (the default — and the right
    mode for shards THIS engine wrote, where damage means a writer bug)
    raises ValueError on the same damage, a payload shorter than its
    Content-Length included. A last record that lacks only its trailing
    ``\r\n\r\n`` is whole and reads in both modes."""
    pos, n = 0, len(blob)
    while pos < n:
        if blob.startswith(b"\r\n", pos):  # inter-record separators
            pos += 2
            continue
        try:
            end = blob.index(b"\r\n\r\n", pos)
            head = blob[pos:end].decode("utf-8", errors="replace").split("\r\n")
            if not head or not head[0].startswith("WARC/"):
                raise ValueError(f"malformed WARC header at byte {pos}")
            hdrs = {}
            for line in head[1:]:
                k, _, v = line.partition(":")
                hdrs[k.strip().lower()] = v.strip()
            length = int(hdrs["content-length"])
            payload = blob[end + 4 : end + 4 + length]
            if len(payload) < length:
                raise ValueError(f"torn record payload at byte {pos}")
            pos = end + 4 + length
        except (ValueError, KeyError):
            if not tolerant:
                raise ValueError(f"malformed WARC record at byte {pos}")
            if stats is not None:
                stats["parser_resyncs"] = stats.get("parser_resyncs", 0) + 1
            nxt = blob.find(b"WARC/1.", pos + 1)
            if nxt < 0:
                return
            pos = nxt
            continue
        yield hdrs, payload


def _http_envelope(body: bytes, content_type: str) -> bytes:
    """Wrap a payload in a deterministic HTTP/1.1 response message — the
    shape real Common Crawl ``response`` records carry (the WARC payload is
    the full HTTP message, not the bare body)."""
    head = (
        b"HTTP/1.1 200 OK\r\n"
        b"Content-Type: " + content_type.encode("ascii") + b"\r\n"
        b"Content-Length: " + str(len(body)).encode("ascii") + b"\r\n"
        b"\r\n"
    )
    return head + body


def parse_http_response(payload: bytes) -> tuple[int, dict, bytes]:
    """Parse an HTTP response message into (status, headers, body).

    Covers what a crawler actually meets in WARC response records:
    ``Content-Length`` framing (anything past the declared length — e.g. a
    peer's trailing junk — is dropped), ``Transfer-Encoding: chunked``
    de-chunking, and ``Content-Encoding: gzip`` / ``deflate`` body
    decompression (after de-chunking, per RFC 9112 ordering). Header names
    lower-case; duplicate headers keep the first value (the crawl-archive
    convention). Raises ValueError on a non-HTTP prefix or malformed
    framing — callers in batch stages count it as a parse failure."""
    import zlib

    sep = payload.find(b"\r\n\r\n")
    if sep < 0:
        raise ValueError("no header/body separator in HTTP message")
    head_lines = payload[:sep].decode("latin-1").split("\r\n")
    status_line = head_lines[0].split(" ", 2)
    if len(status_line) < 2 or not status_line[0].startswith("HTTP/"):
        raise ValueError(f"not an HTTP status line: {head_lines[0]!r}")
    status = int(status_line[1])
    headers: dict = {}
    for line in head_lines[1:]:
        k, _, v = line.partition(":")
        headers.setdefault(k.strip().lower(), v.strip())
    body = payload[sep + 4 :]
    if headers.get("transfer-encoding", "").lower() == "chunked":
        out, pos = [], 0
        while True:
            eol = body.find(b"\r\n", pos)
            if eol < 0:
                raise ValueError("truncated chunk-size line")
            size = int(body[pos:eol].split(b";")[0], 16)  # ignore extensions
            if size == 0:
                break
            chunk = body[eol + 2 : eol + 2 + size]
            if len(chunk) < size:
                raise ValueError("truncated chunk body")
            out.append(chunk)
            pos = eol + 2 + size + 2  # skip trailing CRLF
        body = b"".join(out)
    elif "content-length" in headers:
        body = body[: int(headers["content-length"])]
    enc = headers.get("content-encoding", "").lower()
    try:
        if enc == "gzip":
            body = zlib.decompress(body, wbits=31)
        elif enc == "deflate":
            try:
                body = zlib.decompress(body)
            except zlib.error:
                body = zlib.decompress(body, wbits=-15)  # raw-deflate servers
    except zlib.error as e:
        # declared encoding, junk body: same counted-failure contract as
        # every other framing violation
        raise ValueError(f"bad {enc} body: {e}") from e
    return status, headers, body


def _gunzip_members(blob: bytes, tolerant: bool = False,
                    stats: dict | None = None) -> bytes:
    """Decompress a multi-member gzip stream (the .warc.gz layout: one
    member per record) into the concatenated plain-WARC bytes. zlib's
    decompressobj stops at each member boundary; loop over unused_data.

    ``tolerant=True``: a corrupt or truncated member is skipped by
    RESYNCING to the next gzip magic (``1f 8b 08``) instead of raising,
    counted in ``stats["torn_gzip_members"]`` — one flipped byte costs
    one record, not the shard."""
    import zlib

    out = []
    rest = blob
    while rest:
        d = zlib.decompressobj(wbits=31)
        try:
            chunk = d.decompress(rest) + d.flush()
            ok = d.eof
        except zlib.error:
            chunk, ok = b"", False
        if not ok:
            if not tolerant:
                raise ValueError("truncated gzip member in .warc.gz shard")
            if stats is not None:
                stats["torn_gzip_members"] = stats.get("torn_gzip_members", 0) + 1
            # resync from offset 1: the failing region's own magic (if any)
            # sits at 0, and an intact member preceded by 1-2 junk bytes
            # must not be skipped (its magic can sit as early as offset 1)
            nxt = rest.find(b"\x1f\x8b\x08", 1)
            if nxt < 0:
                break
            rest = rest[nxt:]
            continue
        out.append(chunk)
        rest = d.unused_data
    return b"".join(out)


def _iter_warc_pages(blob: bytes, tolerant: bool, stats: dict | None = None):
    """Pair (response, conversion) records of one plain-WARC byte blob into
    PAGES_SCHEMA row dicts — the SINGLE implementation behind
    read_warc_file and warc_salvage_report, so the two can never disagree
    about which pages a damaged shard still yields. Tolerant mode skips
    any page whose records are damaged (missing headers, failed HTTP
    unwrap, bad date, broken pairing) and counts the skip ONCE per page in
    ``stats["dropped_pages"]`` (a response failure pre-drops its
    conversion); strict mode raises on the first damage."""
    import datetime as _dt

    pending: dict = {}
    dropped_uris: set = set()

    def _dropped():
        if stats is not None:
            stats["dropped_pages"] = stats.get("dropped_pages", 0) + 1

    for hdrs, payload in _parse_warc_records(blob, tolerant=tolerant,
                                             stats=stats):
        uri = hdrs.get("warc-target-uri")
        rtype = hdrs.get("warc-type")
        try:
            if uri is None or rtype is None:
                raise KeyError("missing warc-target-uri/warc-type")
            if rtype == "response":
                if payload[:5] == b"HTTP/":
                    # full HTTP message (the CC layout; what our writer
                    # emits) -> unwrap. Bare bodies (older shards, WET
                    # mirrors) pass through: no real page starts with the
                    # ASCII bytes "HTTP/".
                    _, _, payload = parse_http_response(payload)
                pending[uri] = (hdrs, payload)
            elif rtype == "conversion":
                if tolerant and uri in dropped_uris:
                    continue  # page already counted at its response failure
                rh, rp = pending.pop(uri)
                date = rh["warc-date"].rstrip("Z")
                ts = _dt.datetime.fromisoformat(date)
                yield {
                    "url": uri,
                    "warc_ts": ts,
                    "html": rp,
                    "text": payload.decode(
                        "utf-8", errors="replace" if tolerant else "strict"
                    ),
                    "lang": hdrs.get("warc-identified-content-language", ""),
                }
        except (KeyError, ValueError, UnicodeDecodeError) as e:
            if not tolerant:
                raise ValueError(f"damaged WARC record: {e}") from e
            if uri is not None and rtype == "response":
                dropped_uris.add(uri)
            _dropped()
    if pending:
        if not tolerant:
            raise ValueError(
                f"unpaired WARC response records: {sorted(pending)[:3]}"
            )
        for _ in pending:
            _dropped()


def warc_salvage_report(path: str) -> dict:
    """Damage accounting for one WARC shard under salvage-mode parsing:
    ``{n_pages_ok, torn_gzip_members, parser_resyncs, dropped_pages}`` —
    the observability half of tolerant ingestion (what did the damage
    cost?). Runs the same generator the tolerant reader uses."""
    with open(path, "rb") as f:
        blob = f.read()
    stats: dict = {}
    if blob[:2] == b"\x1f\x8b":
        blob = _gunzip_members(blob, tolerant=True, stats=stats)
    n = sum(1 for _ in _iter_warc_pages(blob, tolerant=True, stats=stats))
    return {
        "n_pages_ok": n,
        "torn_gzip_members": stats.get("torn_gzip_members", 0),
        "parser_resyncs": stats.get("parser_resyncs", 0),
        "dropped_pages": stats.get("dropped_pages", 0),
    }


def read_warc_file(path: str, tolerant: bool = False) -> pa.Table:
    """One .warc / .warc.gz shard file as a PAGES_SCHEMA table: the raw
    bytes, decompressed member by member when gzip (detected by magic, not
    extension), then (response, conversion) record pairs reassembled into
    rows. ``tolerant=True`` is the crawl-archive SALVAGE mode: torn gzip
    members and malformed records are skipped with resync (see
    _parse_warc_records), per-record field damage (bad utf-8, missing
    headers, unpaired pairs) drops just that page, and the intact pages of
    a damaged shard still come back; ``warc_salvage_report`` counts them
    and the damage. Strict mode (default) raises, which is correct for
    shards THIS engine wrote."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:2] == b"\x1f\x8b":
        blob = _gunzip_members(blob, tolerant=tolerant)
    return pa.Table.from_pylist(list(_iter_warc_pages(blob, tolerant=tolerant)),
                                schema=PAGES_SCHEMA)


def read_pages_warc(input_path: str | list, tolerant: bool = False) -> rd.Dataset:
    """WARC pages source as a Dataset: one ``read_warc_file`` task per
    shard file (shard files ARE the parallelism unit, exactly as Common
    Crawl segments are). Each row carries its file in a ``path`` column,
    as ``read_pages`` does for parquet, so ``extract_dataset`` gives it the
    file's shard id (``sniff.stable_shard_id``). Extracted text, status and
    pages match the parquet path's on the same logical rows
    (pytest-asserted); shard ids differ, since they come from file names.
    ``tolerant`` is ``read_warc_file``'s salvage mode."""

    def parse(t: pa.Table) -> pa.Table:
        (path,) = t["path"].to_pylist()
        pages = read_warc_file(path, tolerant=tolerant)
        return pages.append_column(
            "path", pa.array([path] * pages.num_rows, pa.string()))

    # Path-grain read (one task per file via from_items + the raw bytes
    # opened INSIDE the task): rd.read_binary_files would auto-decompress
    # *.gz by file extension as ONE Arrow stream and raise OSError on any
    # truncation BEFORE the member-wise tolerant path ever saw the bytes —
    # salvage mode needs the raw members. Shard files stay the parallelism
    # unit; magic-sniffed decompression also covers misnamed files.
    files = list_input_files(input_path)
    if files and files[0].endswith(".parquet"):
        raise ValueError(f"{input_path!r} holds parquet shards, not WARC")
    return rd.from_items(
        [{"path": p} for p in files]
    ).map_batches(parse, batch_format="pyarrow", batch_size=1)
