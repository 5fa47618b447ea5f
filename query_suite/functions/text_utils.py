"""Text normalizers and detectors the query suite applies to extracted text.

Semantics follow the reference service's ``backend/core/text_utils.py``:

- ``clean_unicode``    — ``text_utils.py:16-75``.
- ``chunk_text``       — ``text_utils.py:77-117``.
- ``extract_numbers`` / ``extract_dates`` — ``text_utils.py:119-140``.
- ``normalize_whitespace`` — ``text_utils.py:142-147``.
- ``remove_page_headers_footers`` — ``text_utils.py:149-166``.

``detect_license``, ``dehyphenate`` and ``extract_identifiers`` are corpus
curation helpers with no reference counterpart.
"""

from __future__ import annotations

import re
from typing import List
MAX_PAGES: int | None = None


_CURRENCY_REPLACEMENTS = {
    "\ufffd\ufffd\ufffd": "\u20ac",  # common Euro-symbol corruption (replacement chars)
    "\u00e2\u201a\u00ac": "\u20ac",  # mojibake Euro ("\u00e2\u201a\u00ac")
    "\u20ac": "\u20ac",  # Euro symbol
    "\u00a3": "\u00a3",  # Pound symbol
    "\u00a5": "\u00a5",  # Yen symbol
    "\u0024": "$",  # Dollar symbol
}

_UNICODE_REPLACEMENTS = {
    "\u00a0": " ",  # non-breaking space
    "\u2010": "-",  # hyphen
    "\u2011": "-",  # non-breaking hyphen
    "\u2012": "-",  # figure dash
    "\u2013": "-",  # en dash
    "\u2014": "-",  # em dash
    "\u2015": "-",  # horizontal bar
    "\u2018": "'",  # left single quote
    "\u2019": "'",  # right single quote
    "\u201a": "'",  # single low quote
    "\u201c": '"',  # left double quote
    "\u201d": '"',  # right double quote
    "\u201e": '"',  # double low quote
    "\u2026": "...",  # ellipsis
    "\ufeff": "",  # BOM
}

_KEEP_CURRENCY = {
    "\u20ac", "\u00a3", "\u00a5", "\u00a2", "\u20b9",
    "\u20bd", "\u20a9", "\u20aa", "\u20ab",
}

def clean_unicode(text: str) -> str:
    """Clean Unicode/special-character corruption (text_utils.py:16-75 semantics).

    Currency-corruption fixes, smart-quote/dash/ellipsis/NBSP/BOM mapping,
    control chars -> space (keeping \\n\\r\\t), keep listed currency symbols and
    latin-1, replace other non-ASCII with a space.
    """
    for corrupted, correct in _CURRENCY_REPLACEMENTS.items():
        text = text.replace(corrupted, correct)
    for old, new in _UNICODE_REPLACEMENTS.items():
        text = text.replace(old, new)

    out: list[str] = []
    for char in text:
        o = ord(char)
        if o < 32:
            out.append(char if char in ("\n", "\r", "\t") else " ")
        elif o > 127:
            if char in _KEEP_CURRENCY:
                out.append(char)
            elif o < 256:
                out.append(char)
            else:
                out.append(" ")
        else:
            out.append(char)
    return "".join(out)


def chunk_text(text: str, max_chars: int = 8000, overlap: int = 200) -> List[str]:
    """Split text into overlapping chunks (text_utils.py:77-117 semantics).

    Breaks preferentially at ``\\n\\n``, ``\\n``, ``. ``, ``! ``, ``? ``;
    ``overlap`` characters are repeated between adjacent chunks.
    """
    if len(text) <= max_chars:
        return [text]

    chunks: list[str] = []
    start = 0
    while start < len(text):
        end = start + max_chars
        if end >= len(text):
            chunks.append(text[start:])
            break
        break_pos = end
        for break_char in ["\n\n", "\n", ". ", "! ", "? "]:
            pos = text.rfind(break_char, start, end)
            if pos > start:
                break_pos = pos + len(break_char)
                break
        chunks.append(text[start:break_pos])
        start = break_pos - overlap if overlap > 0 else break_pos
    return chunks


_NUMBER_RE = re.compile(r"\b\d{1,3}(?:,\d{3})*(?:\.\d{1,2})?\b")

_DATE_PATTERNS = [
    re.compile(r"\b\d{1,2}\s+(?:Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec)\w*\s+\d{4}\b", re.IGNORECASE),
    re.compile(r"\b(?:Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec)\w*\s+\d{1,2},?\s+\d{4}\b", re.IGNORECASE),
    re.compile(r"\b\d{4}-\d{2}-\d{2}\b"),
    re.compile(r"\b\d{1,2}/\d{1,2}/\d{4}\b"),
    re.compile(r"\b\d{1,2}\.\d{1,2}\.\d{4}\b"),
]


def extract_numbers(text: str) -> List[str]:
    """Extract comma-grouped / decimal numbers (text_utils.py:119-124)."""
    return _NUMBER_RE.findall(text)


def extract_dates(text: str) -> List[str]:
    """Extract date strings via the reference's 5 patterns (text_utils.py:126-140)."""
    dates: list[str] = []
    for pattern in _DATE_PATTERNS:
        dates.extend(pattern.findall(text))
    return dates


_WS_RE = re.compile(r"\s+")


def normalize_whitespace(text: str) -> str:
    """Collapse all whitespace runs to single spaces and strip (text_utils.py:142-147)."""
    return _WS_RE.sub(" ", text).strip()


_PAGE_LINE_RE = re.compile(r"^Page \d+$", re.IGNORECASE)
_NUM_LINE_RE = re.compile(r"^\d+$")
_DASH_LINE_RE = re.compile(r"^-+$")


def remove_page_headers_footers(text: str) -> str:
    """Drop header/footer-looking lines (text_utils.py:149-166 semantics).

    Removes lines matching ``^Page \\d+$``, bare numbers, lines shorter than 3
    chars, and horizontal rules.
    """
    cleaned: list[str] = []
    for line in text.split("\n"):
        line = line.strip()
        if (
            _PAGE_LINE_RE.match(line)
            or _NUM_LINE_RE.match(line)
            or len(line) < 3
            or _DASH_LINE_RE.match(line)
        ):
            continue
        cleaned.append(line)
    return "\n".join(cleaned)


# ---------------------------------------------------------------------------
# License detection (phrase classifier over page text)
# ---------------------------------------------------------------------------

_LICENSE_PATTERNS = (
    # order matters: more specific CC variants before plain cc-by
    ("cc-by-nc", re.compile(r"creative commons attribution[- ]noncommercial", re.I)),
    ("cc-by-nd", re.compile(r"creative commons attribution[- ]noderivatives", re.I)),
    ("cc-by", re.compile(r"creative commons attribution", re.I)),
    ("mit", re.compile(r"\bmit license\b", re.I)),
)

_LICENSE_RIGHTS = {
    "cc-by": (True, True),
    "cc-by-nc": (False, True),
    "cc-by-nd": (True, False),
    "mit": (True, True),
    "unknown": (False, False),
}


def detect_license(text: str) -> dict:
    """Classify a page's declared license by footer phrase (first matching
    pattern wins; specific CC variants outrank plain cc-by). Returns
    {license, allows_commercial, allows_derivatives} — 'unknown' grants
    nothing (the conservative default a training-data pipeline needs)."""
    for name, rx in _LICENSE_PATTERNS:
        if rx.search(text):
            commercial, derivatives = _LICENSE_RIGHTS[name]
            return {
                "license": name,
                "allows_commercial": commercial,
                "allows_derivatives": derivatives,
            }
    return {"license": "unknown", "allows_commercial": False,
            "allows_derivatives": False}


_HYPHEN_BREAK_RX = re.compile(r"(\w)-\n(\w)")


def dehyphenate(text: str) -> str:
    """Rejoin words split by end-of-line hyphenation ("exam-\\nple" ->
    "example") — the PDF/column-text repair every extraction
    post-processor runs (line-wrapped justified text hyphenates words at
    the right margin; the broken halves poison tokenizers and dedup
    shingles). Only letter-hyphen-newline-letter joins; a hyphen before a
    space or at a real compound ("well-known") is untouched."""
    return _HYPHEN_BREAK_RX.sub(r"\1\2", text)


# ---------------------------------------------------------------------------
# Scholarly identifier extraction (DOI / arXiv)
# ---------------------------------------------------------------------------

_DOI_RX = re.compile(r"\b10\.\d{4,9}/[-._;()/:a-z0-9]+", re.I)
_ARXIV_RX = re.compile(r"\barxiv:\s*(\d{4}\.\d{4,5})(v\d+)?", re.I)


def extract_identifiers(text: str) -> list:
    """-> [(kind, identifier)] in document order: DOIs (the Crossref
    display form, trailing punctuation trimmed) and arXiv IDs (new-style
    YYMM.NNNNN, version suffix dropped) — the citation-graph primitive a
    scientific-corpus pipeline runs at ingest."""
    out = []
    for m in _DOI_RX.finditer(text):
        doi = m.group(0).rstrip(".,;)")
        out.append(("doi", doi.lower()))
    for m in _ARXIV_RX.finditer(text):
        out.append(("arxiv", m.group(1)))
    return out
