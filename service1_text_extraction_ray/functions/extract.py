"""Per-document extraction dispatcher — the pure core shared by the
sequential oracle and the distributed Ray stages.

Reproduces the reference's page-acceptance ladder exactly
(``core_pdf_processor.py:356-416`` ``_extract_page_text``):

    primary extraction -> accept iff len(text.strip()) >= min_text_length
    AND not is_garbage_text(text); otherwise fall back to OCR; with no OCR
    backend available, emit method="failed" with empty text
    (the reference's no-tesseract branch, :410-416 — byte-identical here,
    since the sandbox has no tesseract either).

Methods: ``dom`` (HTML main-content extraction), ``pdf_text`` (content-stream
text), ``failed``. Per-page failures isolate (:202-209); document-structure
failures produce a ``parse_failure`` row, never an exception out of the stage.

Everything in this module is a pure function of (payload bytes, config):
no wall clock, no randomness, no iteration-order dependence — the
byte-determinism contract of SURVEY.md §4.2 item 4.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

# html_layout is not called here (html_layout_json writes the same JSON);
# extraction_bench/replay.py still wraps this module's name for its trace.
from .html_extract import (
    decode_payload,
    dump_layout,
    extract_html_text,
    html_layout,
    html_layout_json,
)
from .ocr import OCR_BACKENDS, get_ocr_backend, ocr_page
from .page_render import OCR_SCALE, rasterize_page, write_gray_png_array
from .passwords import (
    DEFAULT_PASSWORD,
    MAX_ATTEMPTS,
    SAVED_PASSWORDS,
    password_candidates,
    url_host,
)
from .pdf_extract import PdfParseError, open_pdf
from .quality import MIN_TEXT_LENGTH, is_garbage_text
from .render import combine_pages, page_markdown
from .feeds import parse_feed
from .sniff import KIND_FEED, KIND_HTML, KIND_PDF, KIND_TEXT, sniff_payload

STATUS_OK = "ok"
STATUS_PARSE_FAILURE = "parse_failure"

METHOD_DOM = "dom"
METHOD_PDF = "pdf_text"
METHOD_FEED = "feed_items"
METHOD_TEXT = "text"
METHOD_TESSERACT = "tesseract"
METHOD_FAILED = "failed"


@dataclass(frozen=True)
class ExtractConfig:
    """Engine configuration (the reference's ctor knobs, SURVEY.md §2.9,
    plus the scale knobs the reference lacks)."""

    # Reference production config (document_text_extraction_service.py:174-178).
    min_text_length: int = MIN_TEXT_LENGTH
    max_pages: Optional[int] = None

    # Scale/skew guards (SURVEY.md §4.2): payloads beyond this are truncated
    # (counted, never crashed on).
    max_payload_bytes: int = 1_048_576

    # Whether to serialize the layout tree per page (JSON string column).
    emit_layout: bool = True

    # Password book for encrypted PDFs (reference A2/J2: the candidate chain
    # of file_management_service.get_all_passwords_for_file): a per-site
    # saved map and a default, fixed for the job. Tuples so the config
    # stays frozen/hashable. Defaults are the test deployment's book
    # (functions/passwords.py — matches the synthetic corpus by
    # construction); Python callers pass their own, the job CLI has none.
    saved_passwords: tuple = SAVED_PASSWORDS
    default_password: Optional[str] = DEFAULT_PASSWORD

    # Size bucketing thresholds for skew stats (shard identity itself is the
    # input file — sniff.stable_shard_id).
    size_bucket_edges: tuple = (4096, 65536, 1_048_576)

    # OCR fallback backend name (functions/ocr.py registry; None = the
    # reference's no-tesseract branch). A string, not an instance, so the
    # config stays frozen/serializable; get_ocr_backend builds the backend
    # for each page that needs it. PDF pages that fail the text gate are
    # rasterized at the reference's 2x zoom and run through the backend
    # (core_pdf_processor.py:391-400 fallback, :467-490 call shape).
    ocr_backend: Optional[str] = None

    def __post_init__(self) -> None:
        # An out-of-range bound fails no parse: it silently changes every row.
        for name, low in (("max_payload_bytes", 1), ("max_pages", 1), ("min_text_length", 0)):
            value = getattr(self, name)
            if value is not None and value < low:
                raise ValueError(f"ExtractConfig.{name} must be >= {low}, got {value}")
        # An unknown backend would fail every gate-failed PDF, good pages too.
        if self.ocr_backend and self.ocr_backend not in OCR_BACKENDS:
            raise ValueError(
                f"ExtractConfig.ocr_backend must be one of {sorted(OCR_BACKENDS)}, "
                f"got {self.ocr_backend!r}"
            )
        # The saved map as a dict, built once per config rather than once
        # per PDF; an attribute, not a field, so the config's fields, eq and
        # hash stay as declared.
        object.__setattr__(self, "_saved", dict(self.saved_passwords))


def gate_page_text(text: str, min_text_length: int) -> bool:
    """The reference acceptance predicate (core_pdf_processor.py:378-386)."""
    return len(text.strip()) >= min_text_length and not is_garbage_text(text)


def _extract_html(url: str, payload: bytes, cfg: ExtractConfig) -> Dict[str, Any]:
    """Built-in HTML extractor (DOM parse + boilerplate strip)."""
    pages: List[Dict[str, Any]] = []
    try:
        text, kept = extract_html_text(payload)
        if gate_page_text(text, cfg.min_text_length):
            layout = (html_layout_json(text, " ".join(b.tag for b in kept))
                      if cfg.emit_layout else "")
            pages.append(_page_row(1, METHOD_DOM, text.strip(), layout))
        else:
            # Gate failed, no OCR backend: reference no-tesseract branch.
            pages.append(_page_row(1, METHOD_FAILED, ""))
        return {"pages": pages}
    except Exception as e:  # defensive: parser bugs become failure rows
        return {"status": STATUS_PARSE_FAILURE, "error": f"html: {e}"}


def _extract_plain_text(url: str, payload: bytes, cfg: ExtractConfig) -> Dict[str, Any]:
    """Built-in plain-text extractor (text/plain crawl payloads: README,
    robots-adjacent .txt, mailing-list archives). Charset handling is the
    HTML path's decode_payload (BOM first, UTF-8 with replacement);
    line endings normalize to \n; the page gate (min length + garbage
    predicate) applies exactly as for DOM text, so thin/garbage text files
    fail to an empty page like every other kind."""
    try:
        text = decode_payload(payload).replace("\r\n", "\n").replace("\r", "\n")
        text = text.strip()
        if gate_page_text(text, cfg.min_text_length):
            return {"pages": [_page_row(1, METHOD_TEXT, text)]}
        return {"pages": [_page_row(1, METHOD_FAILED, "")]}
    except Exception as e:  # defensive
        return {"status": STATUS_PARSE_FAILURE, "error": f"text: {e}"}


def _extract_pdf(url: str, payload: bytes, cfg: ExtractConfig) -> Dict[str, Any]:
    """Built-in PDF extractor: password loop + content-stream parse.

    The reference's <=3-attempt password loop (core_pdf_processor.py:283-343):
    attempts count even for unencrypted docs (attempt 1 trivially succeeds
    and records whatever candidate was tried as password_used — quirk
    mirrored); a falsy candidate is skipped when a password is actually
    needed.
    """
    attempts_made = 0
    try:
        doc = open_pdf(payload)
        candidates = password_candidates(
            url_host(url), cfg._saved, cfg.default_password)[:MAX_ATTEMPTS]
        password_used: Optional[str] = None
        opened = False
        for pwd in candidates:
            attempts_made += 1
            if doc.needs_pass:
                if not pwd:
                    continue
                if not doc.authenticate(pwd):
                    continue
            password_used = pwd
            opened = True
            break
        if not opened:
            return {
                "status": STATUS_PARSE_FAILURE,
                "password_required": True,
                "attempts_made": attempts_made,
                "error": f"pdf: password required (tried {attempts_made} attempts)",
            }
        pages: List[Dict[str, Any]] = []
        parsed = doc.extract_pages(max_pages=cfg.max_pages)
        for idx, page in enumerate(parsed, start=1):
            if gate_page_text(page.text, cfg.min_text_length):
                layout = dump_layout(page.layout) if cfg.emit_layout else ""
                pages.append(_page_row(idx, METHOD_PDF, page.text.strip(), layout))
            else:
                row = _ocr_pdf_page(idx, page, cfg) if cfg.ocr_backend else None
                pages.append(row or _page_row(idx, METHOD_FAILED, ""))
        return {
            "pages": pages,
            "password_used": password_used,
            "attempts_made": attempts_made,
        }
    except Exception as e:
        # A damaged PDF reads as its message; any other exception is a
        # parser bug, so its type is kept. Only the string outlives the
        # handler: a local holding ``e`` would tie this frame (payload
        # included) into a cycle through ``e.__traceback__``.
        detail = str(e) if isinstance(e, PdfParseError) else f"{type(e).__name__}: {e}"
        return {"status": STATUS_PARSE_FAILURE, "error": f"pdf: {detail}",
                "attempts_made": attempts_made}


def _ocr_pdf_page(idx: int, page: Any, cfg: ExtractConfig) -> Optional[Dict[str, Any]]:
    """OCR fallback for one gate-failed PDF page — the reference's
    ``_extract_with_tesseract`` branch (core_pdf_processor.py:391-400):
    rasterize the page at 2x zoom (text layout + image placements, so
    scanned pages whose text exists only as pixels are genuinely read),
    run the configured backend, accept the result unconditionally as
    ``method="tesseract"`` (:394-399 — no re-gate). Backend errors return
    None (caller emits the failed row, the "Both fitz and tesseract
    failed" branch :404-409)."""
    # ExtractConfig has refused an unknown backend NAME; a backend runtime
    # error on one page -> failed row (isolation).
    backend = get_ocr_backend(cfg.ocr_backend)
    try:
        canvas = rasterize_page(
            page.layout, images=getattr(page, "images", None), scale=OCR_SCALE
        )
        png = write_gray_png_array(canvas)
        text, layout = ocr_page(
            backend, png, int(canvas.shape[1]), int(canvas.shape[0])
        )
        return _page_row(
            idx, METHOD_TESSERACT, text.strip(),
            dump_layout(layout) if cfg.emit_layout else "",
        )
    except Exception:
        return None


def _extract_feed(url: str, payload: bytes, cfg: ExtractConfig) -> Dict[str, Any]:
    """Built-in RSS/Atom extractor (functions/feeds.py): one page whose
    text is the feed title plus one ``title <link>`` line per item — the
    text a syndication page contributes to a corpus. Feeds are listings,
    not articles, so the ``min_text_length`` article gate does NOT apply
    (a 3-item feed is legitimately short); the garbage predicate still
    does. Malformed XML is a counted parse failure like any other payload."""
    try:
        feed = parse_feed(payload)
    except Exception as e:  # defensive: parser bugs become failure rows
        return {"status": STATUS_PARSE_FAILURE, "error": f"feed: {e}"}
    if feed is None:
        return {"status": STATUS_PARSE_FAILURE, "error": "feed: malformed XML"}
    lines = [feed["feed_title"] or ""]
    for it in feed["items"]:
        title = it["item_title"] or ""
        link = it["link"] or ""
        lines.append(f"{title} <{link}>".strip())
    text = "\n".join(lines).strip()
    if text and not is_garbage_text(text):
        return {"pages": [_page_row(1, METHOD_FEED, text)]}
    return {"pages": [_page_row(1, METHOD_FAILED, "")]}


# Content kind -> extractor, the table extract_document dispatches on; the
# sniff stage's kind string is the key. An extractor is any callable
# ``(url, payload, cfg) -> partial result dict`` with optional keys
# {pages, status, error, password_required, password_used, attempts_made};
# extract_document fills the defaults and derives the doc-level columns.
EXTRACTORS: Dict[str, Any] = {
    KIND_HTML: _extract_html,
    KIND_PDF: _extract_pdf,
    KIND_FEED: _extract_feed,
    KIND_TEXT: _extract_plain_text,
}


def extract_document(
    url: str, payload: Optional[bytes], cfg: ExtractConfig
) -> Dict[str, Any]:
    """Extract one document. Returns a plain dict (Arrow-friendly):

    ``{status, content_kind, truncated, n_pages, n_pages_ok, doc_text,
    doc_chars, error, password_required, password_used, attempts_made,
    pages: [{page, method, text, page_md, n_chars, layout_json}]}``
    """
    kind = sniff_payload(payload)
    truncated = False
    if payload is not None and len(payload) > cfg.max_payload_bytes:
        payload = payload[: cfg.max_payload_bytes]
        truncated = True

    handler = EXTRACTORS.get(kind)
    if handler is None:
        partial: Dict[str, Any] = {
            "status": STATUS_PARSE_FAILURE,
            "error": "unrecognized content kind",
        }
    else:
        partial = handler(url, payload, cfg)

    pages: List[Dict[str, Any]] = partial.get("pages", [])
    doc_text = combine_pages((p["page"], p["text"]) for p in pages)
    n_pages_ok = sum(1 for p in pages if p["method"] != METHOD_FAILED)

    return {
        "status": partial.get("status", STATUS_OK),
        "content_kind": kind,
        "truncated": truncated,
        "n_pages": len(pages),
        "n_pages_ok": n_pages_ok,
        "doc_text": doc_text,
        "doc_chars": len(doc_text),
        "error": partial.get("error"),
        "password_required": partial.get("password_required", False),
        "password_used": partial.get("password_used"),
        "attempts_made": partial.get("attempts_made", 0),
        "pages": pages,
    }


def _page_row(page: int, method: str, text: str, layout_json: str = "") -> Dict[str, Any]:
    """One page row; ``layout_json`` is the page's serialized layout
    (``dump_layout``, or ``html_layout_json`` for a DOM page)."""
    return {
        "page": page,
        "method": method,
        "text": text,
        "page_md": page_markdown(page, method, text),
        "n_chars": len(text),
        "layout_json": layout_json,
    }


def doc_content_hash(doc_text: str) -> str:
    """Stable per-document content hash (lineage substrate)."""
    return hashlib.sha256(doc_text.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------
# Sequential oracle (golden producer)
# --------------------------------------------------------------------------


def run_oracle(rows, cfg: Optional[ExtractConfig] = None) -> List[Dict[str, Any]]:
    """Single-process, input-order reference run over (url, payload) rows —
    the golden producer of FIXTURES.md §4. Uses the *same pure functions* as
    the Ray job, so golden equality is exactly a determinism check.

    ``rows`` is an iterable of dicts with at least ``url`` and ``html``.
    """
    cfg = cfg or ExtractConfig()
    out: List[Dict[str, Any]] = []
    for row in rows:
        res = extract_document(row["url"], row["html"], cfg)
        res["url"] = row["url"]
        out.append(res)
    return out
