"""Pluggable OCR backends + the reference's tesseract call shapes (P5/P6).

Reference surface (``core_pdf_processor.py``):

- ``_extract_with_tesseract`` (:467-490): page pixmap at 2x zoom -> PNG ->
  ``pytesseract.image_to_string(image, lang="eng")`` (default config =
  fully automatic segmentation) plus ``_extract_tesseract_layout`` (:492-
  582): ``image_to_data`` word boxes, conf >= 30, grouped into blocks
  (|y - block.y| > 20) and lines (|y - line.y| > 5), spans with
  ``font="tesseract"``, ``size=height``, ``flags=0``.
- ``_extract_page_with_tesseract_enhanced`` (:944-1000): ``--psm 6`` first;
  if the text is shorter than 10 chars or ``_is_garbage_text`` flags it,
  retry with ``--psm 3``.

This sandbox has no tesseract, so the shipped backend is ``FakeOcrBackend``
— a real, deterministic optical recognizer for pages rasterized by
functions/page_render.py: it decodes the PNG, segments ink into line bands
/ glyph cells by projection, infers the integer glyph scale per line,
block-reduces each cell back to the 5x7 base grid and matches it exactly
against functions/bitfont.py's trimmed templates (vertical-anchor
disambiguation for the two trim-collision classes, '-'/'_' and
apostrophe/comma). It reads actual pixels — text that exists only as a
scanned image (an image XObject with no text operators) is genuinely
recovered. A real tesseract backend would register beside it with the same
two methods; everything downstream (the ladder, the layout grouping, the
extraction gate wiring in functions/extract.py) is backend-agnostic.

psm semantics of the fake (documented interpretation, deterministic):

- psm 3 (fully automatic): all line bands, split into paragraph blocks at
  inter-line gaps > 1.5x the median gap, blocks joined with a blank line.
- psm 6 (single uniform block): assumes uniformly spaced lines — returns
  only the FIRST uniformly-spaced block. On pages that really are one
  block this is the whole page; on (small header) + (gap) + (body) pages
  it returns just the header, which is what makes the reference's
  ``--psm 3`` retry ladder observable with a deterministic golden.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .bitfont import GLYPH_H, GLYPH_W, GLYPH_INDEX
from .page_render import read_gray_png
from .quality import is_garbage_text

INK_THRESHOLD = 128  # pixel < threshold counts as ink
MAX_GLYPH_SCALE = 8
WORD_GAP_GLYPHS = 6  # cell gap >= 6k px separates words (intra-word max 5k)
MIN_OCR_CHARS = 10  # reference retry gate (core_pdf_processor.py:986)
MIN_WORD_CONF = 30  # reference layout filter (core_pdf_processor.py:516)
BLOCK_Y_GAP = 20  # reference block grouping (core_pdf_processor.py:527)
LINE_Y_GAP = 5  # reference line grouping (core_pdf_processor.py:543)


@dataclass
class _Word:
    text: str
    left: int
    top: int
    width: int
    height: int
    conf: int


@dataclass
class _OcrLine:
    words: List[_Word]
    band_top: int
    band_bottom: int

    @property
    def text(self) -> str:
        return " ".join(w.text for w in self.words)


def _runs(mask: np.ndarray) -> List[Tuple[int, int]]:
    """Contiguous True runs of a 1-D bool array as [start, end) pairs."""
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return []
    splits = np.flatnonzero(np.diff(idx) > 1)
    starts = np.concatenate(([idx[0]], idx[splits + 1]))
    ends = np.concatenate((idx[splits] + 1, [idx[-1] + 1]))
    return list(zip(starts.tolist(), ends.tolist()))


def _block_reduce_any(arr: np.ndarray, k: int) -> Optional[np.ndarray]:
    """Exact inverse of the renderer's np.kron upsample: OR over kxk blocks.
    None if the dims don't divide by k."""
    h, w = arr.shape
    if h % k or w % k:
        return None
    return arr.reshape(h // k, k, w // k, k).any(axis=(1, 3))


def _match_cell(cell: np.ndarray) -> List[Tuple[int, str, int]]:
    """All (k, char, top_offset_px) interpretations of one trimmed glyph
    cell. top_offset_px = k * (glyph's trimmed-top row within its 5x7
    cell), used for line-anchor disambiguation."""
    h, w = cell.shape
    out: List[Tuple[int, str, int]] = []
    for k in range(1, MAX_GLYPH_SCALE + 1):
        if h > GLYPH_H * k or w > GLYPH_W * k:
            continue
        base = _block_reduce_any(cell, k)
        if base is None:
            continue
        for ch, top, _left in GLYPH_INDEX.lookup(base):
            out.append((k, ch, k * top))
    return out


def _segment_line(
    ink: np.ndarray, band: Tuple[int, int]
) -> Tuple[List[_Word], int]:
    """Segment one line band into words; returns (words, line_k)."""
    y0, y1 = band
    strip = ink[y0:y1]
    col_any = strip.any(axis=0)
    cells = _runs(col_any)
    if not cells:
        return [], 1

    # Trim each cell to its dark bbox and collect interpretations.
    trimmed: List[Tuple[int, int, int, int, List[Tuple[int, str, int]]]] = []
    for x0, x1 in cells:
        sub = strip[:, x0:x1]
        rows = _runs(sub.any(axis=1))
        ty0, ty1 = rows[0][0], rows[-1][1]
        cell = sub[ty0:ty1]
        trimmed.append((x0, x1, y0 + ty0, y0 + ty1, _match_cell(cell)))

    # Line glyph scale: the k most cells agree on (ties -> smaller k).
    votes: Dict[int, int] = {}
    for _x0, _x1, _t, _b, cands in trimmed:
        for k in {k for k, _c, _o in cands}:
            votes[k] = votes.get(k, 0) + 1
    if not votes:
        return [], 1
    line_k = min(k for k, v in votes.items() if v == max(votes.values()))

    # Vertical anchor: majority cell-grid top over unambiguous cells.
    anchors: Dict[int, int] = {}
    for _x0, _x1, top_abs, _b, cands in trimmed:
        at_k = [(c, off) for k, c, off in cands if k == line_k]
        if len(at_k) == 1:
            a = top_abs - at_k[0][1]
            anchors[a] = anchors.get(a, 0) + 1
    anchor = (
        min(a for a, v in anchors.items() if v == max(anchors.values()))
        if anchors
        else None
    )

    # Resolve each cell to a char; group cells into words on big gaps.
    words: List[_Word] = []
    cur_chars: List[str] = []
    cur_box: Optional[List[int]] = None  # [left, top, right, bottom]
    prev_end: Optional[int] = None

    def flush() -> None:
        nonlocal cur_chars, cur_box
        if cur_chars and cur_box is not None:
            words.append(
                _Word(
                    text="".join(cur_chars),
                    left=cur_box[0],
                    top=cur_box[1],
                    width=cur_box[2] - cur_box[0],
                    height=cur_box[3] - cur_box[1],
                    conf=95,
                )
            )
        cur_chars, cur_box = [], None

    for x0, x1, top_abs, bot_abs, cands in trimmed:
        if prev_end is not None and x0 - prev_end >= WORD_GAP_GLYPHS * line_k:
            flush()
        prev_end = x1
        at_k = [(c, off) for k, c, off in cands if k == line_k]
        ch: Optional[str] = None
        if len(at_k) == 1:
            ch = at_k[0][0]
        elif at_k:
            if anchor is not None:
                exact = [c for c, off in at_k if top_abs - off == anchor]
                ch = exact[0] if exact else at_k[0][0]
            else:
                ch = at_k[0][0]  # deterministic codepoint-order fallback
        if ch is None:
            continue  # unrecognized mark: dropped (tesseract-like)
        cur_chars.append(ch)
        if cur_box is None:
            cur_box = [x0, top_abs, x1, bot_abs]
        else:
            cur_box[0] = min(cur_box[0], x0)
            cur_box[1] = min(cur_box[1], top_abs)
            cur_box[2] = max(cur_box[2], x1)
            cur_box[3] = max(cur_box[3], bot_abs)
    flush()
    return words, line_k


def _segment_page(png: bytes) -> List[_OcrLine]:
    """Full-page segmentation: line bands by row projection, words per band."""
    img = read_gray_png(png)
    ink = img < INK_THRESHOLD
    # Row-projection bands, with small-gap merge: a line whose only ink in
    # the dot row comes from i/j (e.g. "join" — nothing at glyph row 1)
    # projects as TWO runs one blank row apart; inter-line whitespace is
    # at least half a glyph height, so merge while 2*gap < band height.
    bands: List[Tuple[int, int]] = []
    for y0, y1 in _runs(ink.any(axis=1)):
        if bands:
            py0, py1 = bands[-1]
            if 2 * (y0 - py1) < max(py1 - py0, y1 - y0):
                bands[-1] = (py0, y1)
                continue
        bands.append((y0, y1))
    lines: List[_OcrLine] = []
    for y0, y1 in bands:
        words, _k = _segment_line(ink, (y0, y1))
        if words:
            lines.append(_OcrLine(words=words, band_top=y0, band_bottom=y1))
    return lines


def _split_blocks(lines: List[_OcrLine]) -> List[List[_OcrLine]]:
    """Paragraph blocks: break where the inter-line whitespace exceeds 2x
    the taller adjacent line band. Within a paragraph the gap is (pitch -
    glyph height) ~= one glyph height; a paragraph/section break is
    several. Band-relative (not median-relative) so the rule works on
    pages with only one or two gaps — a short header far above a short
    body still splits."""
    if not lines:
        return []
    blocks: List[List[_OcrLine]] = [[lines[0]]]
    for prev, line in zip(lines, lines[1:]):
        gap = line.band_top - prev.band_bottom
        h = max(
            prev.band_bottom - prev.band_top, line.band_bottom - line.band_top
        )
        if gap > 2 * h:
            blocks.append([line])
        else:
            blocks[-1].append(line)
    return blocks


class FakeOcrBackend:
    """Deterministic pixel OCR for bitfont-rendered rasters (see module
    docstring). Stateless; safe to construct once per extraction actor."""

    name = "fake"

    def image_to_string(self, png: bytes, psm: int = 3) -> str:
        lines = _segment_page(png)
        blocks = _split_blocks(lines)
        if not blocks:
            return ""
        if psm == 6:
            blocks = blocks[:1]
        return "\n\n".join(
            "\n".join(line.text for line in blk) for blk in blocks
        )

    def image_to_data(self, png: bytes) -> Dict[str, List[Any]]:
        """Word-grain boxes in the shape the reference reads off
        ``pytesseract.image_to_data(..., Output.DICT)``."""
        data: Dict[str, List[Any]] = {
            "text": [],
            "conf": [],
            "left": [],
            "top": [],
            "width": [],
            "height": [],
        }
        for line in _segment_page(png):
            for w in line.words:
                data["text"].append(w.text)
                data["conf"].append(w.conf)
                data["left"].append(w.left)
                data["top"].append(w.top)
                data["width"].append(w.width)
                data["height"].append(w.height)
        return data


# Backend registry (§2.9 extension surface): config names a backend by
# string so ExtractConfig stays frozen/serializable; actors resolve it once
# in __init__. A real pytesseract backend would register here when its
# import succeeds.
OCR_BACKENDS: Dict[str, Any] = {"fake": FakeOcrBackend}


def resolve_ocr_backend(name: Optional[str]) -> Optional[Any]:
    if not name:
        return None
    cls = OCR_BACKENDS.get(name)
    if cls is None:
        raise ValueError(f"unknown OCR backend: {name!r}")
    return cls()


_BACKEND_SINGLETONS: Dict[str, Any] = {}


def get_ocr_backend(name: Optional[str]) -> Optional[Any]:
    """Per-process backend singleton (the reference's A1 parser-per-process
    idiom — a real tesseract/model backend is built once per worker, not
    once per page)."""
    if not name:
        return None
    if name not in _BACKEND_SINGLETONS:
        _BACKEND_SINGLETONS[name] = resolve_ocr_backend(name)
    return _BACKEND_SINGLETONS[name]


def ocr_layout_from_data(
    data: Dict[str, List[Any]], width: int, height: int
) -> Dict[str, Any]:
    """Word boxes -> layout tree, clause-for-clause with the reference's
    ``_extract_tesseract_layout`` (core_pdf_processor.py:492-582) including
    its quirks: block/line bboxes stay the FIRST word's bbox (never widened
    as words accrue) and the helper ``y`` keys remain in the emitted dict."""
    layout: Dict[str, Any] = {"width": width, "height": height, "blocks": []}
    current_block: Optional[Dict[str, Any]] = None
    current_line: Optional[Dict[str, Any]] = None
    for i in range(len(data["text"])):
        text = str(data["text"][i]).strip()
        if not text:
            continue
        conf = int(data["conf"][i])
        if conf < MIN_WORD_CONF:
            continue
        x, y = int(data["left"][i]), int(data["top"][i])
        w, h = int(data["width"][i]), int(data["height"][i])
        if current_block is None or abs(y - current_block["y"]) > BLOCK_Y_GAP:
            current_block = {
                "bbox": [x, y, x + w, y + h],
                "lines": [],
                "y": y,
            }
            layout["blocks"].append(current_block)
            current_line = None
        if current_line is None or abs(y - current_line["y"]) > LINE_Y_GAP:
            current_line = {"bbox": [x, y, x + w, y + h], "spans": [], "y": y}
            current_block["lines"].append(current_line)
        current_line["spans"].append(
            {
                "text": text,
                "bbox": [x, y, x + w, y + h],
                "font": "tesseract",
                "size": h,
                "flags": 0,
            }
        )
    return layout


def ocr_page(backend: Any, png: bytes, width: int, height: int) -> Tuple[str, Dict[str, Any]]:
    """The reference's ``_extract_with_tesseract`` call shape (:467-490):
    default-config string extraction + word-box layout."""
    text = backend.image_to_string(png)
    layout = ocr_layout_from_data(backend.image_to_data(png), width, height)
    return text, layout


def ocr_text_enhanced(backend: Any, png: bytes) -> str:
    """The reference's enhanced ladder (:944-1000): ``--psm 6`` first, retry
    with ``--psm 3`` when the result is short (<10 chars) or garbage."""
    text = backend.image_to_string(png, psm=6).strip()
    if len(text) < MIN_OCR_CHARS or is_garbage_text(text):
        text = backend.image_to_string(png, psm=3).strip()
    return text
