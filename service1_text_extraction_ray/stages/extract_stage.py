"""Ray Data stages for the extraction pipeline.

The parse stage is a *callable class* used as an actor pool
(``ds.map_batches(ExtractDocuments, concurrency=..., batch_size=...)``):
config, compiled regexes and parser dispatch tables are built once per actor
in ``__init__`` (the reference builds its ``PDFProcessor`` once per service
object for the same reason, ``document_text_extraction_service.py:174-178``),
and each ``__call__`` processes one Arrow batch of documents.

Batches enter as zero-copy Arrow tables; the per-document parse is per-row
Python by nature (it IS the workload — a DOM/content-stream parse per
document, exactly like the reference's per-doc fitz calls), but everything
around it (slicing, column assembly, output table construction) is Arrow.

Skew handling: the pipeline uses a small ``batch_size`` for this stage so a
giant document rides with at most batch_size-1 small ones, and payloads are
truncated at ``cfg.max_payload_bytes`` (counted in lineage) — SURVEY.md §4.2.
"""

from __future__ import annotations

from typing import Optional

import pyarrow as pa

from ..functions.extract import ExtractConfig, doc_content_hash, extract_document
from ..functions.passwords import PasswordBook
from ..functions.sniff import sniff_table

# Arrow schema of the doc-grain extraction output (page rows nested so no
# shuffle is needed to recover either grain).
PAGES_FIELD = pa.field(
    "pages",
    pa.list_(
        pa.struct(
            [
                ("page", pa.int32()),
                ("method", pa.string()),
                ("text", pa.string()),
                ("page_md", pa.string()),
                ("n_chars", pa.int32()),
                ("layout_json", pa.string()),
            ]
        )
    ),
)

DOC_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("lang", pa.string()),
        ("shard_id", pa.int64()),
        ("size_bucket", pa.int8()),
        ("payload_len", pa.int64()),
        ("content_kind", pa.string()),
        ("status", pa.string()),
        ("truncated", pa.bool_()),
        ("n_pages", pa.int32()),
        ("n_pages_ok", pa.int32()),
        ("doc_text", pa.string()),
        ("doc_chars", pa.int64()),
        ("content_hash", pa.string()),
        ("error", pa.string()),
        ("password_required", pa.bool_()),
        ("password_used", pa.string()),   # null when opened without one
        ("attempts_made", pa.int32()),
        PAGES_FIELD,
    ]
)


class SniffStage:
    """Vectorized pre-stage: content kind, payload length, size bucket, shard id.

    Stateless per batch apart from the frozen config — run as plain tasks
    (cheap, elastic); pyarrow kernels on the binary column.
    """

    def __init__(self, cfg: Optional[ExtractConfig] = None) -> None:
        self.cfg = cfg or ExtractConfig()

    def __call__(self, batch: pa.Table) -> pa.Table:
        return sniff_table(batch, self.cfg.size_bucket_edges)


class ExtractDocuments:
    """Actor-pool parse stage: one Arrow batch of sniffed documents in,
    one doc-grain extraction table out (DOC_SCHEMA)."""

    def __init__(self, cfg: Optional[ExtractConfig] = None) -> None:
        # Once per actor: freeze config; importing the parser modules compiled
        # all regexes / dispatch tables at module import time. The password
        # book (A2) is actor state: the broadcast saved map plus a per-actor
        # success cache (functions/passwords.py explains why the cache cannot
        # perturb byte-determinism).
        self.cfg = cfg or ExtractConfig()
        self.book = PasswordBook(
            dict(self.cfg.saved_passwords), self.cfg.default_password
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        urls = batch["url"].to_pylist()
        payloads = batch["html"].to_pylist()

        cols: dict[str, list] = {
            "status": [], "truncated": [], "n_pages": [], "n_pages_ok": [],
            "doc_text": [], "doc_chars": [], "content_hash": [], "error": [],
            "password_required": [], "password_used": [], "attempts_made": [],
            "pages": [],
        }
        for url, payload in zip(urls, payloads):
            res = extract_document(url, payload, cfg, self.book)
            cols["status"].append(res["status"])
            cols["truncated"].append(res["truncated"])
            cols["n_pages"].append(res["n_pages"])
            cols["n_pages_ok"].append(res["n_pages_ok"])
            cols["doc_text"].append(res["doc_text"])
            cols["doc_chars"].append(res["doc_chars"])
            cols["content_hash"].append(doc_content_hash(res["doc_text"]))
            cols["error"].append(res["error"] or "")
            cols["password_required"].append(res["password_required"])
            cols["password_used"].append(res["password_used"])
            cols["attempts_made"].append(res["attempts_made"])
            cols["pages"].append(res["pages"])

        arrays = [
            batch["url"],
            batch["warc_ts"],
            batch["lang"],
            batch["shard_id"],
            batch["size_bucket"],
            batch["payload_len"],
            batch["content_kind"],
            pa.array(cols["status"], type=pa.string()),
            pa.array(cols["truncated"], type=pa.bool_()),
            pa.array(cols["n_pages"], type=pa.int32()),
            pa.array(cols["n_pages_ok"], type=pa.int32()),
            pa.array(cols["doc_text"], type=pa.string()),
            pa.array(cols["doc_chars"], type=pa.int64()),
            pa.array(cols["content_hash"], type=pa.string()),
            pa.array(cols["error"], type=pa.string()),
            pa.array(cols["password_required"], type=pa.bool_()),
            pa.array(cols["password_used"], type=pa.string()),
            pa.array(cols["attempts_made"], type=pa.int32()),
            pa.array(cols["pages"], type=PAGES_FIELD.type),
        ]
        return pa.Table.from_arrays(arrays, schema=DOC_SCHEMA)


def explode_pages(batch: pa.Table) -> pa.Table:
    """Doc-grain -> page-grain flat view (no shuffle; pure batch transform).

    Output row per (url, page): the per-page golden surfaces
    (``extracted_text``, ``page_md``) plus doc metadata.
    """
    import pyarrow.compute as pc

    n_pages = pc.list_value_length(batch["pages"]).fill_null(0)
    # Repeat doc-level columns once per page.
    indices = pa.array(
        [i for i, n in enumerate(n_pages.to_pylist()) for _ in range(n)],
        type=pa.int64(),
    )
    flat = pc.list_flatten(batch["pages"])
    docs = batch.select(["url", "warc_ts", "lang", "shard_id", "content_kind", "status"]).take(indices)
    return pa.Table.from_arrays(
        [
            docs["url"],
            docs["warc_ts"],
            docs["lang"],
            docs["shard_id"],
            docs["content_kind"],
            docs["status"],
            pc.struct_field(flat, "page"),
            pc.struct_field(flat, "method"),
            pc.struct_field(flat, "text"),
            pc.struct_field(flat, "page_md"),
            pc.struct_field(flat, "n_chars"),
            pc.struct_field(flat, "layout_json"),
        ],
        names=[
            "url", "warc_ts", "lang", "shard_id", "content_kind", "status",
            "page", "method", "extracted_text", "page_md", "n_chars", "layout_json",
        ],
    )
