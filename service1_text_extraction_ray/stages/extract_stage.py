"""Parse stages for the extraction pipeline.

The parse stage is a *callable class*. The extraction job calls its
instance on slices of a file inside that file's plain Ray task
(``extract_pipeline.ExtractFile``, which ``_run_file_tasks`` submits);
the no-write Dataset API runs it as Ray Data tasks
(``ds.map_batches(ExtractDocuments(cfg), batch_size=...)``). It
holds only the frozen config, which ships with every task, and keeps no
state between documents; the parser modules compile their regexes and
dispatch tables at import time, once per worker process. Each ``__call__``
maps one Arrow batch of documents to one DOC_SCHEMA table.

Batches enter as zero-copy Arrow tables; the per-document parse is per-row
Python by nature (it IS the workload — a DOM/content-stream parse per
document, exactly like the reference's per-doc fitz calls), but everything
around it (slicing, column assembly, output table construction) is Arrow.

Skew handling: the pipeline feeds this stage small batches so a giant
document rides with at most batch_size-1 small ones, and payloads are
truncated at ``cfg.max_payload_bytes`` (counted in lineage) — SURVEY.md §4.2.
"""

from __future__ import annotations

from typing import Optional

import pyarrow as pa

from ..functions.extract import ExtractConfig, doc_content_hash, extract_document

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


# DOC_SCHEMA's first seven columns (url ... content_kind) pass through from
# the sniffed batch; the parse fills the rest from extract_document's rows.
_PASSTHROUGH = DOC_SCHEMA.names[:7]
_PARSED_SCHEMA = pa.schema([DOC_SCHEMA.field(n) for n in DOC_SCHEMA.names[7:]])


class ExtractDocuments:
    """Parse stage, run as plain tasks: one Arrow batch of sniffed documents
    in, one doc-grain extraction table out (DOC_SCHEMA). A stateless map of
    each row's (url, payload) under the frozen config."""

    def __init__(self, cfg: Optional[ExtractConfig] = None) -> None:
        self.cfg = cfg or ExtractConfig()

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = []
        for url, payload in zip(batch["url"].to_pylist(), batch["html"].to_pylist()):
            res = extract_document(url, payload, self.cfg)
            res["content_hash"] = doc_content_hash(res["doc_text"])
            res["error"] = res["error"] or ""
            rows.append(res)
        parsed = pa.Table.from_pylist(rows, schema=_PARSED_SCHEMA)
        return pa.Table.from_arrays(
            batch.select(_PASSTHROUGH).columns + parsed.columns, schema=DOC_SCHEMA
        )


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
