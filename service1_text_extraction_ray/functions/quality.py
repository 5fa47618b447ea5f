"""Text-quality gate of the extractor.

Pure functions, shared verbatim between the sequential oracle and the
distributed Ray job so that output bytes are independent of parallelism.

Semantics reproduce the reference service exactly:

- ``is_garbage_text``  — ``core_pdf_processor.py:584-648`` (the 7-clause
  garbage predicate that gates the primary-extraction-vs-fallback decision).
- ``MIN_TEXT_LENGTH`` — production quality gate ``min_text_length=250``
  (``document_text_extraction_service.py:174-178``).
"""

from __future__ import annotations

import re

# Production config of the reference service (document_text_extraction_service.py:174-178):
# PDFProcessor(max_pages=None, min_text_length=250).
MIN_TEXT_LENGTH = 250

# Control characters excluding \t \n \r and space — core_pdf_processor.py:607-611.
_CONTROL_SEQ_RE = re.compile(r"[\x00-\x08\x0B\x0C\x0E-\x1F\x7F-\x9F]+")
_ALLOWED_PUNCT = set(".,!?;:()[]{}\"'")


def _is_garbage_text_reference(text: str) -> bool:
    """Literal clause-for-clause port of the reference predicate
    (core_pdf_processor.py:584-648) — kept as the semantic oracle for the
    vectorized implementation below (property-tested equal)."""
    if not text.strip():
        return True

    n = len(text)

    control_char_count = sum(1 for c in text if ord(c) < 32 and c not in "\t\n\r")
    if control_char_count > n * 0.3:
        return True

    if len(_CONTROL_SEQ_RE.findall(text)) > 3:
        return True

    special_char_ratio = (
        sum(1 for c in text if not c.isalnum() and not c.isspace() and c not in _ALLOWED_PUNCT)
        / n
    )
    if special_char_ratio > 0.5:
        return True

    if len(set(text)) < 5:
        return True

    words = text.split()
    if words:
        short_word_ratio = sum(1 for w in words if len(w) < 2) / len(words)
        if short_word_ratio > 0.7:
            return True

    non_printable_count = sum(
        1 for c in text if ord(c) < 32 and c not in "\t\n\r" or ord(c) > 126
    )
    if non_printable_count > n * 0.2:
        return True

    printable_ratio = sum(1 for c in text if c.isprintable() and c not in "\t\n\r") / n
    if printable_ratio < 0.3:
        return True

    return False


def _build_ascii_luts():
    """Boolean lookup tables for code points < 128, derived from Python's own
    str predicates so ASCII semantics are identical by construction."""
    import numpy as np

    special = np.zeros(128, dtype=bool)   # not alnum, not space, not allowed punct
    space = np.zeros(128, dtype=bool)
    printable = np.zeros(128, dtype=bool)
    for i in range(128):
        c = chr(i)
        special[i] = (not c.isalnum()) and (not c.isspace()) and c not in _ALLOWED_PUNCT
        space[i] = c.isspace()
        printable[i] = c.isprintable() and c not in "\t\n\r"
    return special, space, printable


_LUT_SPECIAL, _LUT_SPACE, _LUT_PRINTABLE = _build_ascii_luts()


def is_garbage_text(text: str) -> bool:
    """True if extracted text appears to be garbage.

    Exact thresholds of the reference predicate (core_pdf_processor.py:
    584-648; see ``_is_garbage_text_reference``), vectorized: the per-char
    clauses run as numpy ops over the UTF-32 code points, with ASCII
    lookup tables built from Python's own ``str`` predicates and a
    per-*unique*-codepoint fallback for the (rare) non-ASCII chars — so the
    result is bit-identical to the reference loop on ANY input. This
    predicate runs on every extracted page; the reference loops cost ~1 ms
    per page of Python-level iteration, which dominates nothing alone but
    adds up at 10^12 pages.

    Clauses: 1. empty/whitespace-only; 2. >30% control chars (excl \\t\\n\\r);
    3. >3 control sequences; 4. special-char ratio > 0.5; 5. <5 distinct
    chars; 6. short-word (<2) ratio > 0.7; 7. >20% non-printable;
    8. <30% printable.
    """
    import numpy as np

    if not text.strip():
        return True

    n = len(text)
    cp = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)

    is_ctl = (cp < 32) & (cp != 9) & (cp != 10) & (cp != 13)
    if int(is_ctl.sum()) > n * 0.3:
        return True

    # Control *sequences*: runs of [\x00-\x08\x0B\x0C\x0E-\x1F\x7F-\x9F].
    in_seq = (
        (cp <= 0x08)
        | (cp == 0x0B)
        | (cp == 0x0C)
        | ((cp >= 0x0E) & (cp <= 0x1F))
        | ((cp >= 0x7F) & (cp <= 0x9F))
    )
    n_runs = int(in_seq[0]) + int((in_seq[1:] & ~in_seq[:-1]).sum())
    if n_runs > 3:
        return True

    ascii_mask = cp < 128
    all_ascii = bool(ascii_mask.all())
    non_ascii = cp[~ascii_mask] if not all_ascii else cp[:0]
    uniq_na, counts_na = (np.unique(non_ascii, return_counts=True)
                          if non_ascii.size else (np.array([], dtype=np.uint32), np.array([], dtype=np.int64)))
    uniq_chars = [chr(int(u)) for u in uniq_na]

    ascii_cp = cp if all_ascii else cp[ascii_mask]
    # One O(n) histogram serves both the special-char ratio and the
    # distinct-char count (np.unique's sort was the hottest line here).
    ascii_hist = np.bincount(ascii_cp, minlength=128)[:128]
    special_count = int(ascii_hist[_LUT_SPECIAL].sum()) + int(
        sum(
            cnt
            for u, cnt in zip(uniq_chars, counts_na)
            if (not u.isalnum()) and (not u.isspace()) and u not in _ALLOWED_PUNCT
        )
    )
    if special_count / n > 0.5:
        return True

    distinct = int((ascii_hist > 0).sum()) + len(uniq_chars)
    if distinct < 5:
        return True

    # Short words over str.split() semantics: words are maximal runs of
    # non-whitespace (unicode isspace).
    is_sp = np.empty(n, dtype=bool)
    is_sp[ascii_mask] = _LUT_SPACE[ascii_cp]
    if non_ascii.size:
        na_space = {u: chr(int(u)).isspace() for u in uniq_na}
        is_sp[~ascii_mask] = [na_space[int(c)] for c in non_ascii]
    non_sp = ~is_sp
    starts = non_sp & np.concatenate(([True], is_sp[:-1]))
    n_words = int(starts.sum())
    if n_words > 0:
        # word lengths: distance between run starts and run ends
        ends = non_sp & np.concatenate((is_sp[1:], [True]))
        lengths = np.flatnonzero(ends) - np.flatnonzero(starts) + 1
        if int((lengths < 2).sum()) / n_words > 0.7:
            return True

    non_printable_count = int((is_ctl | (cp > 126)).sum())
    if non_printable_count > n * 0.2:
        return True

    printable_count = int(ascii_hist[_LUT_PRINTABLE].sum()) + int(
        sum(
            cnt
            for u, cnt in zip(uniq_chars, counts_na)
            if u.isprintable()
        )
    )
    if printable_count / n < 0.3:
        return True

    return False
