"""Page and document formats the query suite reads and writes.

The engine reads Parquet and WARC (``service1_text_extraction_ray.sources
.pages_source``). This module holds the rest:

- ``documents_to_pages`` / ``documents_to_scanned_pages``: wrap the
  ``documents`` test table (doc_id/text/lang/source/n_chars) into the pages
  shape ``(url, warc_ts, html, text, lang)``, deterministically per doc_id;
- ``synthesize_pages``: distributed deterministic corpus generation straight
  into a Dataset;
- JSONL, CSV and evolved-schema page sources, the WAT metadata sink, the
  CDX-indexing WARC writer with its random-access reader, and WARC digest
  verification;
- tar/zip document archives with their salvage walkers.
"""

from __future__ import annotations

import os
import re

import pyarrow as pa
import ray.data as rd

from service1_text_extraction_ray.functions.synth import (
    EPOCH_US,
    PAGES_SCHEMA,
    gen_pages_table,
)
from service1_text_extraction_ray.sources.pages_source import (
    _encode_page_records,
    _gunzip_members,
    _parse_warc_records,
    _sha1_b32,
    _warc_record,
    _write_warc_shard,
    parse_http_response,
)


def synthesize_pages(n_rows: int, seed: int = 42, rows_per_block: int = 2000) -> rd.Dataset:
    """Generate the corpus as a Dataset: rd.range drives block boundaries and
    each task materializes its row range with the pure generator (no driver
    loop, no full materialization)."""

    def gen(batch: pa.Table) -> pa.Table:
        ids = batch["id"].to_pylist()
        # ids are contiguous within a block; generate exactly those rows.
        return gen_pages_table(len(ids), seed=seed, start=ids[0]) if ids else gen_pages_table(0)

    return (
        rd.range(n_rows, override_num_blocks=max(1, n_rows // rows_per_block))
        .map_batches(gen, batch_format="pyarrow")
    )


def documents_to_pages(sf_dir: str) -> rd.Dataset:
    """Wrap the testdata ``documents`` table into pages rows.

    Deterministic per doc_id: ~70% of docs become clean-article HTML carrying
    the doc's text as paragraphs, ~15% become a synthetic PDF of the text's
    lines, ~10% link-farm pages, ~5% malformed payloads — so every dispatch
    branch of the engine runs under the tests of the queries that read it
    (tests/test_json_utils.py::TestLayoutStatsQuery,
    tests/test_operators.py::TestEmbeddingGeneration).
    """
    import random

    from service1_text_extraction_ray.functions.synth import (
        make_article_html,
        make_linkfarm_html,
        make_malformed,
        make_pdf,
    )

    def to_pages(batch: pa.Table) -> pa.Table:
        doc_ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        langs = batch["lang"].to_pylist()
        rows = []
        for doc_id, text, lang in zip(doc_ids, texts, langs):
            rng = random.Random(977_000_003 + int(doc_id))
            text = text or ""
            paras = [p for p in text.split("\n") if p.strip()] or [text]
            sel = int(doc_id) % 20
            if sel < 14:
                payload = make_article_html(f"Document {doc_id}", paras, rng)
            elif sel < 17:
                lines = []
                for p in paras:
                    words = p.split()
                    lines.extend(
                        " ".join(words[i : i + 8]) for i in range(0, len(words), 8)
                    )
                # sel 16: encrypted with the book's docs.example password, so
                # those tests exercise real decryption.
                encrypt = None
                if sel == 16:
                    encrypt = {
                        "user_pw": "pw-docs",
                        "owner_pw": "owner-docs",
                        "v": 1 + (int(doc_id) % 2),
                    }
                payload = make_pdf(
                    [lines or [""]], rng,
                    compress=(int(doc_id) % 2 == 0), encrypt=encrypt,
                    # sel 15: first lines live in a Form XObject (/Do) —
                    # the reusable-letterhead layout; text is unchanged.
                    form_header=(sel == 15),
                    # non-encrypted PDFs carry a deterministic /Info dict
                    # (document-information metadata, §14.3.3)
                    info=None if encrypt is not None else {
                        "Title": f"Document {doc_id}",
                        "Author": f"crawler-{int(doc_id) % 7}",
                        "Producer": "synthpdf 1.0",
                    },
                )
            elif sel < 19:
                payload = make_linkfarm_html(rng, paras)
            else:
                payload = make_malformed(rng, variant=int(doc_id))
            rows.append(
                {
                    "url": f"https://docs.example/{doc_id:08d}",
                    "warc_ts": EPOCH_US + int(doc_id) * 37_000_000,
                    "html": payload,
                    "text": text,
                    "lang": lang or "en",
                }
            )
        return pa.Table.from_pylist(rows, schema=PAGES_SCHEMA)

    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text", "lang"]
    )
    return docs.map_batches(to_pages, batch_format="pyarrow")


_SCAN_MAX_LINE_CHARS = 70
_SCAN_LINES_PER_PAGE = 4  # median testdata doc ≈ 5 lines -> most docs get 2 pages


def scanned_doc_plan(doc_id: int, text: str) -> tuple:
    """The deterministic page plan of one scanned-corpus document:
    ``(page_lines, expected, trap)``. Factored out of
    documents_to_scanned_pages so ocr_eval can compute the planted GOLDEN
    (needs only ``expected``) without paying make_scanned_pdf's raster."""
    # ASCII-printable sanitize: the raster subset advances blank on
    # other codepoints, so the planted golden must match what the
    # pixels can carry.
    words = [
        "".join(ch for ch in w if 32 <= ord(ch) < 127)
        for w in (text or "").split()
    ]
    words = [w for w in words if w] or ["blank"]
    lines: list = []
    cur = ""
    for w in words:
        if cur and len(cur) + 1 + len(w) > _SCAN_MAX_LINE_CHARS:
            lines.append(cur)
            cur = w
        else:
            cur = f"{cur} {w}".strip()
    if cur:
        lines.append(cur)
    trap = int(doc_id) % 3 == 0
    page_lines, expected = [], []
    for p, start in enumerate(range(0, len(lines), _SCAN_LINES_PER_PAGE), 1):
        body = lines[start : start + _SCAN_LINES_PER_PAGE]
        if trap:
            header = f"p. {p}"
            page_lines.append([header] + body)
            expected.append((p, header + "\n\n" + "\n".join(body)))
        else:
            page_lines.append(body)
            expected.append((p, "\n".join(body)))
    return page_lines, expected, trap


def scanned_url(doc_id: int) -> str:
    return f"https://scans.example/{doc_id:08d}"


def documents_to_scanned_pages(sf_dir: str) -> rd.Dataset:
    """Wrap the testdata ``documents`` table into SCANNED pages rows: each
    doc's text rendered into image-XObject-only PDFs (make_scanned_pdf) —
    the fixture corpus for the OCR fallback ladder (P5/P6). Deterministic
    per doc_id; ``text`` carries the planted golden: the exact combined
    doc text the psm-3 ladder should recover (combine_pages framing), with
    every third doc a psm-trap layout (short ``p. N`` header + distant
    body, per-page expectation ``header\\n\\nbody``)."""
    import random

    from service1_text_extraction_ray.functions.render import combine_pages
    from service1_text_extraction_ray.functions.synth import make_scanned_pdf

    def to_scanned(batch: pa.Table) -> pa.Table:
        rows = []
        for doc_id, text, lang in zip(
            batch["doc_id"].to_pylist(),
            batch["text"].to_pylist(),
            batch["lang"].to_pylist(),
        ):
            rng = random.Random(431_000_011 + int(doc_id))
            page_lines, expected, trap = scanned_doc_plan(int(doc_id), text)
            payload = make_scanned_pdf(page_lines, rng, psm_trap=trap)
            rows.append(
                {
                    "url": scanned_url(int(doc_id)),
                    "warc_ts": EPOCH_US + int(doc_id) * 41_000_000,
                    "html": payload,
                    "text": combine_pages(expected),
                    "lang": lang or "en",
                }
            )
        return pa.Table.from_pylist(rows, schema=PAGES_SCHEMA)

    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text", "lang"],
    )
    return docs.map_batches(to_scanned, batch_format="pyarrow")


def scanned_goldens(sf_dir: str) -> rd.Dataset:
    """(url, golden) of the scanned corpus WITHOUT building any pixels —
    the cheap side of ocr_eval's keyed join (same plan as
    documents_to_scanned_pages, raster skipped)."""
    from service1_text_extraction_ray.functions.render import combine_pages

    schema = pa.schema([("url", pa.string()), ("golden", pa.string())])

    def f(batch: pa.Table) -> pa.Table:
        rows = []
        for doc_id, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            _, expected, _ = scanned_doc_plan(int(doc_id), text)
            rows.append({
                "url": scanned_url(int(doc_id)),
                "golden": combine_pages(expected),
            })
        return pa.Table.from_pylist(rows, schema=schema)

    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return docs.map_batches(f, batch_format="pyarrow")


def read_pages_jsonl(input_path: str) -> rd.Dataset:
    """JSONL pages source: one JSON object per line with the pages columns,
    ``html`` base64-encoded (JSON has no binary type) and ``warc_ts`` in
    ISO-8601 or epoch-microseconds. Normalized per block into the exact
    PAGES_SCHEMA the extraction job consumes, so downstream output is
    byte-identical to the parquet path on the same logical rows
    (pytest-asserted). Use for interop with line-oriented crawl dumps;
    parquet remains the production source (column pruning, row-group
    stats)."""
    import base64

    import pyarrow.compute as pc

    def normalize(t: pa.Table) -> pa.Table:
        html = pa.array(
            [base64.b64decode(x) if x is not None else None
             for x in t["html"].to_pylist()],
            pa.binary(),
        )
        ts = t["warc_ts"]
        if pa.types.is_integer(ts.type):
            ts = pc.cast(ts, pa.timestamp("us"))
        else:
            # ISO-8601 strings (and timestamps) cast directly; Arrow's
            # strptime can't parse %f fractional seconds, cast can.
            ts = pc.cast(ts, pa.timestamp("us"))
        return pa.Table.from_arrays(
            [
                pc.cast(t["url"], pa.string()),
                ts,
                html,
                pc.cast(t["text"], pa.string()),
                pc.cast(t["lang"], pa.string()),
            ],
            schema=PAGES_SCHEMA,
        )

    return rd.read_json(input_path).map_batches(normalize, batch_format="pyarrow")


def write_pages_jsonl(pages: rd.Dataset, out_dir: str) -> None:
    """Inverse of read_pages_jsonl (html base64, warc_ts ISO-8601)."""
    import base64

    def encode(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [
                t["url"],
                pa.array(
                    [x.isoformat(timespec="microseconds") if x is not None else None
                     for x in t["warc_ts"].to_pylist()],
                    pa.string(),
                ),
                pa.array(
                    [base64.b64encode(x).decode("ascii") if x is not None else None
                     for x in t["html"].to_pylist()],
                    pa.string(),
                ),
                t["text"],
                t["lang"],
            ],
            names=["url", "warc_ts", "html", "text", "lang"],
        )

    pages.map_batches(encode, batch_format="pyarrow").write_json(out_dir)


def surt_urlkey(url: str) -> str:
    """SURT-canonicalized CDX ``urlkey``: host labels reversed and
    comma-joined, ``)/`` then the path — ``https://docs.example/x`` ->
    ``example,docs)/x`` (the Common Crawl index sort key; scheme dropped,
    host lower-cased)."""
    rest = url.split("://", 1)[-1]
    host, _, path = rest.partition("/")
    host = host.lower().split(":", 1)[0]
    return ",".join(reversed(host.split("."))) + ")/" + path


def write_pages_warc(pages: rd.Dataset, out_dir: str,
                     gzip_members: bool = False,
                     cdx_dir: str | None = None) -> int:
    """The engine's ``write_pages_warc`` (its record encoder and shard
    writer, so the same shard bytes and names) that can also write one
    CDX-style index parquet per shard.

    ``cdx_dir``: per record (url, urlkey, timestamp, rec_type, shard,
    offset, length, payload digest) — the fourth Common Crawl artifact next
    to WARC/WET/WAT; offset/length address the raw record (plain) or the
    gzip MEMBER (gz), so ``read_warc_record`` can fetch one record with a
    single ranged read. Index fields come from each record's own WARC
    headers. Each task indexes the shard it just wrote: no extra pass, no
    shuffle. Returns the number of shards written."""
    import gzip

    import pyarrow.parquet as pq

    os.makedirs(out_dir, exist_ok=True)
    if cdx_dir:
        os.makedirs(cdx_dir, exist_ok=True)

    def write_block(t: pa.Table) -> pa.Table:
        recs = [r for row in t.to_pylist()
                for r in _encode_page_records(row, gzip_members)]
        path = _write_warc_shard(recs, out_dir, gzip_members)
        if cdx_dir:
            index, off = [], 0
            for r in recs:
                hdrs, _ = next(_parse_warc_records(
                    gzip.decompress(r) if gzip_members else r))
                # CDX11 sort key + 14-digit timestamp from the WARC-Date;
                # the digest is the payload digest where the record has
                # one (response), else the block digest (conversion)
                index.append({
                    "urlkey": surt_urlkey(hdrs["warc-target-uri"]),
                    "timestamp": "".join(
                        ch for ch in hdrs["warc-date"] if ch.isdigit())[:14],
                    "url": hdrs["warc-target-uri"],
                    "rec_type": hdrs["warc-type"],
                    "shard": os.path.basename(path),
                    "offset": off, "length": len(r),
                    "digest": hdrs.get("warc-payload-digest")
                    or hdrs["warc-block-digest"],
                })
                off += len(r)
            cdx_path = os.path.join(
                cdx_dir, os.path.basename(path).split(".warc")[0]
                + ".cdx.parquet")
            pq.write_table(pa.Table.from_pylist(index), cdx_path + ".tmp")
            os.replace(cdx_path + ".tmp", cdx_path)
        return pa.Table.from_pylist([{"shard": path, "n_rows": t.num_rows}])

    return sum(
        1 for _ in pages.map_batches(write_block, batch_format="pyarrow")
        .iter_rows()
    )


# ---------------------------------------------------------------------------
# CSV source/sink — completes the container matrix
# (parquet / JSONL / WARC / hive-partitioned / CSV)
# ---------------------------------------------------------------------------


def write_pages_csv(pages: rd.Dataset, out_dir: str) -> None:
    """CSV pages sink: ``html`` base64-encoded (CSV is text-only; base64
    also sidesteps every quoting/newline hazard raw bytes would pose),
    ``warc_ts`` ISO-8601. One file per block via Ray's csv datasink. CSV is
    the interop floor — no schema, no column pruning, no stats — so parquet
    remains the production container; this exists because crawl tooling
    still exchanges CSV manifests."""
    import base64

    def encode(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [
                t["url"],
                pa.array(
                    [x.isoformat(timespec="microseconds") if x is not None else None
                     for x in t["warc_ts"].to_pylist()],
                    pa.string(),
                ),
                pa.array(
                    [base64.b64encode(x).decode("ascii") if x is not None else None
                     for x in t["html"].to_pylist()],
                    pa.string(),
                ),
                t["text"],
                t["lang"],
            ],
            names=["url", "warc_ts", "html", "text", "lang"],
        )

    pages.map_batches(encode, batch_format="pyarrow").write_csv(out_dir)


def read_pages_csv(input_path: str) -> rd.Dataset:
    """Inverse of write_pages_csv, normalized to the exact PAGES_SCHEMA the
    extraction job consumes (extraction parity vs the parquet source is
    pytest-asserted). ``text`` and ``lang`` are forced to string at the
    reader (a CSV reader will happily infer int64 for an all-numeric text
    column); ``warc_ts`` parses from ISO-8601."""
    import base64

    import pyarrow.compute as pc
    from pyarrow import csv as pacsv

    convert = pacsv.ConvertOptions(
        column_types={"url": pa.string(), "warc_ts": pa.string(),
                      "html": pa.string(), "text": pa.string(),
                      "lang": pa.string()}
    )
    # extracted text carries real newlines; quoted multi-line fields need
    # explicit opt-in in Arrow's CSV parser, and a value may not straddle
    # two parse blocks — size blocks to hold the largest row
    parse = pacsv.ParseOptions(newlines_in_values=True)
    read = pacsv.ReadOptions(block_size=64 << 20)

    def normalize(t: pa.Table) -> pa.Table:
        html = pa.array(
            [base64.b64decode(x) if x is not None else None
             for x in t["html"].to_pylist()],
            pa.binary(),
        )
        return pa.Table.from_arrays(
            [
                pc.cast(t["url"], pa.string()),
                pc.cast(t["warc_ts"], pa.timestamp("us")),
                html,
                pc.cast(t["text"], pa.string()),
                pc.cast(t["lang"], pa.string()),
            ],
            schema=PAGES_SCHEMA,
        )

    return rd.read_csv(
        input_path, convert_options=convert, parse_options=parse,
        read_options=read,
    ).map_batches(normalize, batch_format="pyarrow")


def read_pages_evolved(input_path: str) -> rd.Dataset:
    """Schema-evolution-tolerant pages source: reads a directory whose
    parquet shards were written across SCHEMA VERSIONS — older shards may
    lack newer optional columns (``lang``, ``text``), newer shards may
    carry extra columns — and normalizes every block to PAGES_SCHEMA.

    A decade-long crawl layout never has one uniform schema; rewriting
    100 TB to add a column is exactly the migration this read avoids.
    Mechanics: passing an explicit unified ``schema`` to the parquet
    scanner makes missing columns surface as typed nulls and drops unknown
    extras at the READER (column pruning still applies — this is schema
    unification, not a rescan); the normalize pass then fills the
    documented defaults (``lang`` null -> "und" — unknown, BCP-47; ``text``
    null -> ""). Required columns (url, warc_ts, html) raise per-file if
    absent entirely: a shard without payloads is corruption, not
    evolution."""
    import pyarrow.compute as pc

    def normalize(t: pa.Table) -> pa.Table:
        for col in ("url", "warc_ts", "html"):
            if pc.sum(pc.cast(pc.is_null(t[col]), pa.int64())).as_py() == t.num_rows and t.num_rows:
                raise ValueError(
                    f"required column {col!r} is entirely null in a shard — "
                    "corrupt input, not schema evolution"
                )
        return pa.Table.from_arrays(
            [
                t["url"],
                t["warc_ts"],
                t["html"],
                pc.coalesce(t["text"], pa.scalar("", pa.string())),
                pc.coalesce(t["lang"], pa.scalar("und", pa.string())),
            ],
            schema=PAGES_SCHEMA,
        )

    return rd.read_parquet(input_path, schema=PAGES_SCHEMA).map_batches(
        normalize, batch_format="pyarrow"
    )


# ---------------------------------------------------------------------------
# WAT sink — Common Crawl's derived-metadata artifact
# ---------------------------------------------------------------------------
#
# CC publishes three files per crawl segment: WARC (raw responses), WET
# (extracted text — our ``conversion`` records), and WAT (per-response
# metadata as JSON inside WARC ``metadata`` records). This sink completes
# the triple: one metadata record per page whose payload is a compact JSON
# envelope with the WARC header echo plus HTML head metadata and outlinks —
# derived with the SAME parsers the extraction engine uses (functions/meta,
# functions/links), so the WAT content is consistent-by-construction with
# every other pipeline over the corpus.


def _wat_envelope(url: str, date_iso: str, html: bytes | None) -> bytes:
    import json as _json

    from ..functions.links import extract_outlinks
    from ..functions.meta import extract_meta
    from service1_text_extraction_ray.functions.sniff import KIND_HTML, sniff_payload

    env: dict = {
        "Envelope": {
            "WARC-Header-Metadata": {
                "WARC-Type": "response",
                "WARC-Target-URI": url,
                "WARC-Date": date_iso,
            },
            "Payload-Metadata": {
                "Actual-Content-Length": len(html or b""),
            },
        }
    }
    if html and sniff_payload(html) == KIND_HTML:
        meta = extract_meta(html, url)
        links, noindex, nofollow = extract_outlinks(html, url)
        head: dict = {}
        if meta["title"] is not None:
            head["Title"] = meta["title"]
        metas = []
        if meta["og_title"] is not None:
            metas.append({"property": "og:title", "content": meta["og_title"]})
        if meta["description"] is not None:
            metas.append({"name": "description", "content": meta["description"]})
        if metas:
            head["Metas"] = metas
        if meta["canonical"] is not None:
            head["Link"] = [{"rel": "canonical", "url": meta["canonical"]}]
        html_md: dict = {"Head": head}
        html_md["Links"] = [
            {"url": ln.href, "text": ln.anchor,
             **({"rel": "nofollow"} if ln.nofollow else {})}
            for ln in links
        ]
        if noindex or nofollow:
            html_md["Robots"] = {"noindex": noindex, "nofollow": nofollow}
        env["Envelope"]["Payload-Metadata"]["HTTP-Response-Metadata"] = {
            "HTML-Metadata": html_md
        }
    return _json.dumps(env, sort_keys=True, separators=(",", ":")).encode("utf-8")


def write_pages_wat(pages: rd.Dataset, out_dir: str) -> int:
    """Write .wat shard files (WARC ``metadata`` records, one per page, JSON
    payload per _wat_envelope). Content-addressed names; distributed —
    each task writes its own block. Returns shards written."""
    import hashlib

    os.makedirs(out_dir, exist_ok=True)

    def write_block(t: pa.Table) -> pa.Table:
        buf = []
        for row in t.to_pylist():
            date_iso = row["warc_ts"].isoformat(timespec="microseconds") + "Z"
            payload = _wat_envelope(row["url"], date_iso, row["html"])
            buf.append(_warc_record(
                b"metadata", row["url"], date_iso, payload,
                [b"Content-Type: application/json\r\n"],
            ))
        blob = b"".join(buf)
        name = hashlib.md5(blob).hexdigest()[:16]
        path = os.path.join(out_dir, f"pages-{name}.wat")
        tmp = path + ".tmp"
        with open(tmp, "wb") as f:
            f.write(blob)
        os.replace(tmp, path)
        return pa.Table.from_pylist([{"shard": path, "n_rows": t.num_rows}])

    return sum(
        1 for _ in pages.map_batches(write_block, batch_format="pyarrow")
        .iter_rows()
    )


def read_pages_wat(input_path: str) -> rd.Dataset:
    """Read .wat shards back into a flat metadata Dataset: (url, warc_ts,
    content_length, title, canonical, n_links, noindex, nofollow). The
    JSON envelope is the storage shape; the flat row is the query shape."""
    import json as _json

    out_schema = pa.schema([
        ("url", pa.string()), ("warc_ts", pa.timestamp("us")),
        ("content_length", pa.int64()), ("title", pa.string()),
        ("canonical", pa.string()), ("n_links", pa.int64()),
        ("noindex", pa.bool_()), ("nofollow", pa.bool_()),
    ])

    def parse(t: pa.Table) -> pa.Table:
        import datetime as _dt

        rows = []
        for blob in t["bytes"].to_pylist():
            for hdrs, payload in _parse_warc_records(blob):
                if hdrs["warc-type"] != "metadata":
                    continue
                env = _json.loads(payload)["Envelope"]
                pm = env["Payload-Metadata"]
                hm = pm.get("HTTP-Response-Metadata", {}).get("HTML-Metadata", {})
                head = hm.get("Head", {})
                robots = hm.get("Robots", {})
                link = (head.get("Link") or [{}])[0]
                rows.append({
                    "url": env["WARC-Header-Metadata"]["WARC-Target-URI"],
                    "warc_ts": _dt.datetime.fromisoformat(
                        env["WARC-Header-Metadata"]["WARC-Date"].rstrip("Z")
                    ),
                    "content_length": int(pm["Actual-Content-Length"]),
                    "title": head.get("Title"),
                    "canonical": link.get("url"),
                    "n_links": len(hm.get("Links", [])),
                    "noindex": bool(robots.get("noindex", False)),
                    "nofollow": bool(robots.get("nofollow", False)),
                })
        return pa.Table.from_pylist(rows, schema=out_schema)

    return rd.read_binary_files(input_path).map_batches(
        parse, batch_format="pyarrow"
    )


def verify_warc_digests(path: str) -> tuple:
    """Re-compute and check every digest header in one .warc/.warc.gz shard:
    returns (n_digests_checked, n_mismatched). For response records the
    payload digest re-hashes the HTTP entity body (status line + headers
    stripped); block digests re-hash the record block verbatim. The
    integrity check a CC consumer runs before trusting a mirror copy."""
    with open(path, "rb") as f:
        blob = f.read()
    if path.endswith(".gz"):
        blob = _gunzip_members(blob)
    checked = bad = 0
    for hmap, payload in _parse_warc_records(blob):
        block_d = hmap.get("warc-block-digest")
        if block_d is not None:
            checked += 1
            if _sha1_b32(payload).decode("ascii") != block_d:
                bad += 1
        pay_d = hmap.get("warc-payload-digest")
        if pay_d is not None:
            checked += 1
            body = payload
            if hmap.get("content-type", "").startswith("application/http"):
                _, _, body = parse_http_response(payload)
            if _sha1_b32(body).decode("ascii") != pay_d:
                bad += 1
    return checked, bad


def read_warc_record(shard_path: str, offset: int, length: int):
    """Random-access fetch of ONE record by its CDX (offset, length): a
    single ranged read of the raw record (plain .warc) or the independent
    gzip member (.warc.gz), then one record parse — the Common Crawl index
    access pattern (range request against the public bucket). Returns
    (headers dict, payload bytes)."""
    with open(shard_path, "rb") as f:
        f.seek(offset)
        blob = f.read(length)
    if shard_path.endswith(".gz"):
        import gzip

        blob = gzip.decompress(blob)
    return next(_parse_warc_records(blob))


# ---------------------------------------------------------------------------
# Archive sources (tar.gz / zip — the document-dump ingest containers)
# ---------------------------------------------------------------------------
#
# The reference ingests folders of files (S9, file_management_service.py's
# folder scanner); at corpus scale those folders arrive as archive shards.
# Both containers are handled with real stdlib codecs (tarfile/zipfile),
# one member per document plus gzip/DEFLATE compression — no external
# tools. Shard names are content-addressed (md5 of the member-id set) so a
# re-run at any parallelism lands on the same file set.

ARCHIVE_MEMBER_RE = re.compile(r"^docs/(\d+)\.txt$")


def write_docs_tar(docs: rd.Dataset, out_dir: str) -> int:
    """Archive (doc_id, text) rows into ``shard-<hash>.tar.gz`` files, one
    gzip-compressed tar per input block, member ``docs/<doc_id>.txt`` =
    the utf-8 text bytes. Returns the number of rows archived."""
    import hashlib as _hashlib
    import io
    import tarfile

    os.makedirs(out_dir, exist_ok=True)

    def write_shard(t: pa.Table) -> pa.Table:
        ids = [int(i) for i in t["doc_id"].to_pylist()]
        texts = [(x or "") for x in t["text"].to_pylist()]
        if not ids:
            return pa.table({"n": pa.array([], pa.int64())})
        name = _hashlib.md5(
            ("\n".join(str(i) for i in sorted(ids))).encode()
        ).hexdigest()[:16]
        import gzip as _gzip

        buf = io.BytesIO()
        # member AND gzip-header mtimes pinned -> byte-deterministic archives
        gz = _gzip.GzipFile(fileobj=buf, mode="wb", compresslevel=6, mtime=0)
        with tarfile.open(fileobj=gz, mode="w",
                          format=tarfile.USTAR_FORMAT) as tf:
            for d, text in zip(ids, texts):
                payload = text.encode("utf-8")
                info = tarfile.TarInfo(name=f"docs/{d}.txt")
                info.size = len(payload)
                info.mtime = 0
                tf.addfile(info, io.BytesIO(payload))
        gz.close()
        tmp = os.path.join(out_dir, f".tmp-{name}-{os.getpid()}")
        with open(tmp, "wb") as f:
            f.write(buf.getvalue())
        os.replace(tmp, os.path.join(out_dir, f"shard-{name}.tar.gz"))
        return pa.table({"n": pa.array([len(ids)], pa.int64())})

    parts = docs.map_batches(write_shard, batch_format="pyarrow").take_all()
    return int(sum(r["n"] for r in parts))


def write_docs_zip(docs: rd.Dataset, out_dir: str) -> int:
    """Same layout as write_docs_tar but ZIP/DEFLATE containers
    (``shard-<hash>.zip``) — the other archive format document dumps
    arrive in."""
    import hashlib as _hashlib
    import io
    import zipfile

    os.makedirs(out_dir, exist_ok=True)

    def write_shard(t: pa.Table) -> pa.Table:
        ids = [int(i) for i in t["doc_id"].to_pylist()]
        texts = [(x or "") for x in t["text"].to_pylist()]
        if not ids:
            return pa.table({"n": pa.array([], pa.int64())})
        name = _hashlib.md5(
            ("\n".join(str(i) for i in sorted(ids))).encode()
        ).hexdigest()[:16]
        buf = io.BytesIO()
        with zipfile.ZipFile(buf, "w", zipfile.ZIP_DEFLATED) as zf:
            for d, text in zip(ids, texts):
                zi = zipfile.ZipInfo(f"docs/{d}.txt", date_time=(1980, 1, 1, 0, 0, 0))
                zi.compress_type = zipfile.ZIP_DEFLATED
                zf.writestr(zi, text.encode("utf-8"))
        tmp = os.path.join(out_dir, f".tmp-{name}-{os.getpid()}")
        with open(tmp, "wb") as f:
            f.write(buf.getvalue())
        os.replace(tmp, os.path.join(out_dir, f"shard-{name}.zip"))
        return pa.table({"n": pa.array([len(ids)], pa.int64())})

    parts = docs.map_batches(write_shard, batch_format="pyarrow").take_all()
    return int(sum(r["n"] for r in parts))


def _gunzip_prefix(blob: bytes) -> bytes:
    """Decompress as much of a (possibly truncated/corrupt) single-member
    gzip stream as survives — to the exact byte: zlib discards ALL output
    of a decompress() call that raises, so a failing chunk is bisected
    against decompressobj.copy() snapshots until the salvageable prefix
    of the chunk itself is recovered (O(log chunk) extra calls). The
    tar.gz salvage primitive: a torn or mid-stream-corrupted download
    still yields every leading member before the damage point. NB DEFLATE
    carries no mid-stream integrity check, so output BETWEEN the corrupt
    byte and the first invalid code can be garbage — the downstream tar
    walk's per-header checksums reject those blocks."""
    import zlib

    d = zlib.decompressobj(wbits=31)
    out = []

    def feed(data: bytes) -> bool:
        nonlocal d
        if not data:
            return True
        snap = d.copy()
        try:
            out.append(d.decompress(data))
            return True
        except zlib.error:
            d = snap
            if len(data) == 1:
                return False
            mid = len(data) // 2
            if not feed(data[:mid]):
                return False
            return feed(data[mid:])

    clean = True
    for i in range(0, len(blob), 1 << 16):
        if not feed(blob[i : i + (1 << 16)]):
            clean = False
            break
    if clean:
        try:
            out.append(d.flush())
        except zlib.error:
            pass
    return b"".join(out)


def _salvage_tar_members(tar: bytes):
    """Tolerant POSIX-tar walk over raw (already-decompressed) bytes:
    512-byte header blocks validated by their checksum field; an invalid
    header RESYNCS forward block-by-block, a torn trailing payload stops.
    Yields (name, payload) for every intact regular member."""
    o, n = 0, len(tar)
    while o + 512 <= n:
        block = tar[o : o + 512]
        if block == b"\0" * 512:
            break  # end-of-archive marker
        try:
            stored = int(block[148:156].split(b"\0")[0].strip() or b"0", 8)
            summed = sum(block[:148]) + 8 * 32 + sum(block[156:])
            if stored != summed:
                raise ValueError("bad tar header checksum")
            name = block[:100].split(b"\0")[0].decode("utf-8", "replace")
            size = int(block[124:136].split(b"\0")[0].strip() or b"0", 8)
            typeflag = block[156:157]
        except (ValueError, UnicodeDecodeError):
            o += 512  # resync: scan forward for the next valid header
            continue
        payload = tar[o + 512 : o + 512 + size]
        if len(payload) < size:
            break  # torn tail member
        if typeflag in (b"0", b"\0"):
            yield name, payload
        o += 512 + ((size + 511) // 512) * 512


def _salvage_zip_members(blob: bytes):
    """Tolerant ZIP walk by LOCAL file headers (``PK\\x03\\x04``): a
    truncated/corrupt archive loses its end-of-file central directory, so
    ZipFile sees nothing — but every intact member is still fully
    described by its local header. Members whose sizes live only in a
    data descriptor (streaming writers) or whose payload fails to inflate
    are skipped. Yields (name, payload)."""
    import struct as _struct
    import zlib

    pos = 0
    while True:
        pos = blob.find(b"PK\x03\x04", pos)
        if pos < 0:
            return
        try:
            (flags, method, crc, csize, usize, nlen, elen) = (
                _struct.unpack("<H", blob[pos + 6 : pos + 8])[0],
                _struct.unpack("<H", blob[pos + 8 : pos + 10])[0],
                _struct.unpack("<I", blob[pos + 14 : pos + 18])[0],
                _struct.unpack("<I", blob[pos + 18 : pos + 22])[0],
                _struct.unpack("<I", blob[pos + 22 : pos + 26])[0],
                _struct.unpack("<H", blob[pos + 26 : pos + 28])[0],
                _struct.unpack("<H", blob[pos + 28 : pos + 30])[0],
            )
            name = blob[pos + 30 : pos + 30 + nlen].decode("utf-8", "replace")
            start = pos + 30 + nlen + elen
            data = blob[start : start + csize]
            if flags & 0x08:
                # sizes live in a trailing data descriptor (streaming
                # writer) — the local header can't frame the member
                raise ValueError("data-descriptor member (size unknown)")
            if len(data) < csize:
                raise ValueError("torn member payload")
            if method == 8:
                # bound the inflation: salvage consumes UNTRUSTED archives,
                # and raw DEFLATE would happily expand a bomb to GBs before
                # the size check ran
                payload = zlib.decompressobj(-15).decompress(data, usize + 1)
            elif method == 0:
                payload = data
            else:
                raise ValueError(f"unsupported zip method {method}")
            if len(payload) != usize:
                raise ValueError("inflated size mismatch")
            # local-header CRC: corrupted-but-inflatable payloads (possible
            # with raw DEFLATE, which carries no checksum) must not pass
            if zlib.crc32(payload) & 0xFFFFFFFF != crc:
                raise ValueError("member CRC mismatch")
        except (ValueError, _struct.error, zlib.error):
            pos += 4  # resync to the next local-header magic
            continue
        yield name, payload
        pos = start + csize


def read_docs_archive(input_dir: str, tolerant: bool = False) -> rd.Dataset:
    """Distributed archive reader: one task per shard file (whole shards
    stay together — tar/zip members are not splittable), dispatching on
    magic bytes (gzip vs PK) so mixed tar.gz/zip directories read
    uniformly. Yields (doc_id, text) rows.

    ``tolerant=True`` is the damaged-dump SALVAGE mode (same discipline as
    the WARC reader): truncated/corrupt archives yield every member that
    survives — tar via a checksum-validated block walk with resync
    (_salvage_tar_members) over the decompressable gzip prefix
    (_gunzip_prefix), zip via a local-file-header scan that needs no
    central directory (_salvage_zip_members). Strict mode (default) keeps
    stdlib tarfile/zipfile raise-on-damage semantics — right for shards
    THIS engine wrote. Reads are path-grain with raw bytes opened in-task
    (no extension-triggered whole-stream gunzip that would fail before
    salvage could run)."""
    import glob as _glob

    paths = sorted(
        _glob.glob(os.path.join(input_dir, "shard-*.tar.gz"))
        + _glob.glob(os.path.join(input_dir, "shard-*.zip"))
    )

    def parse(t: pa.Table) -> pa.Table:
        import io
        import tarfile
        import zipfile

        ids, texts = [], []

        def add(name: str, payload: bytes) -> None:
            m = ARCHIVE_MEMBER_RE.match(name)
            if m is None:
                return
            ids.append(int(m.group(1)))
            texts.append(payload.decode(
                "utf-8", errors="replace" if tolerant else "strict"))

        for src_path in t["path"].to_pylist():
            with open(src_path, "rb") as f:
                blob = f.read()
            if tolerant:
                if blob[:2] == b"PK":
                    for name, payload in _salvage_zip_members(blob):
                        add(name, payload)
                else:
                    tar = _gunzip_prefix(blob) if blob[:2] == b"\x1f\x8b" else blob
                    for name, payload in _salvage_tar_members(tar):
                        add(name, payload)
            elif blob[:2] == b"PK":
                with zipfile.ZipFile(io.BytesIO(blob)) as zf:
                    for member in zf.namelist():
                        add(member, zf.read(member))
            else:
                with tarfile.open(fileobj=io.BytesIO(blob), mode="r:*") as tf:
                    for info in tf:
                        if info.isfile():
                            add(info.name, tf.extractfile(info).read())
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "text": pa.array(texts, pa.string()),
        })

    return rd.from_items(
        [{"path": p} for p in paths]
    ).map_batches(parse, batch_format="pyarrow", batch_size=1)
