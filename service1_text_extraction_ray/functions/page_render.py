"""Page -> image rasterization for the OCR fallback.

The reference renders a PDF page to a PNG via fitz's rasterizer
(``backend/core/pdf_service.py:126-142``: ``page.get_pixmap(dpi=...)``).
This sandbox has no fitz/font engine, so the raster is built from scratch:

- **Text** (layout tree with blocks): a real monochrome rasterization —
  every span's text drawn with the 5x7 bitmap font (functions/bitfont.py)
  at its bbox position, glyph pixel scale derived from the span's font
  size. At the reference's 2x zoom (``core_pdf_processor.py:944-960``
  ``Matrix(2, 2)``) it feeds the OCR fallback ladder (functions/ocr.py).
- **Image placements** (scanned pages — image XObjects surfaced by
  functions/pdf_extract.py) are blitted nearest-neighbor into their CTM
  rect; undecodable images draw as a flat gray box.

The PNG codec is stdlib-only (zlib + struct): the writer emits filter-0
rows; its row unfilter, ``unfilter_png_rows``, undoes all five ISO
filters, so any well-formed 8-bit grayscale PNG reads back, and PDF
streams' PNG predictors (10-15) are undone by it too.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any, Dict, List, Optional

import numpy as np

from .bitfont import render_text_bitmap

RENDER_SCALE = 1.0  # default raster scale: 1 pt = 1 px
OCR_SCALE = 2.0  # OCR ladder: the reference's Matrix(2, 2) 2x zoom
# Font-size (pt) that maps to glyph pixel scale k=1 at scale 1.0: a 10 pt
# span renders its 7-row glyphs 7 px tall, matching small print.
PT_PER_GLYPH_SCALE = 10.0


def _png_chunk(tag: bytes, payload: bytes) -> bytes:
    crc = zlib.crc32(tag + payload) & 0xFFFFFFFF
    return struct.pack(">I", len(payload)) + tag + payload + struct.pack(">I", crc)


def write_gray_png_array(arr: np.ndarray) -> bytes:
    """8-bit grayscale PNG of a 2-D uint8 array (filter 0 every row)."""
    if arr.ndim != 2:
        raise ValueError("expected a 2-D grayscale array")
    a = np.ascontiguousarray(arr, dtype=np.uint8)
    h, w = a.shape
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 0, 0, 0, 0)
    raw = np.empty((h, w + 1), dtype=np.uint8)
    raw[:, 0] = 0  # filter type 0 per scanline
    raw[:, 1:] = a
    idat = zlib.compress(raw.tobytes(), 6)
    return (
        b"\x89PNG\r\n\x1a\n"
        + _png_chunk(b"IHDR", ihdr)
        + _png_chunk(b"IDAT", idat)
        + _png_chunk(b"IEND", b"")
    )


def read_gray_png(png: bytes) -> np.ndarray:
    """Decode an 8-bit grayscale PNG to a 2-D uint8 array.

    Stdlib-only inverse of ``write_gray_png_array`` that undoes every row
    filter (``unfilter_png_rows``), not just our filter-0 rows.
    Raises ValueError on ANY truncated/corrupt input (the per-row
    failure-isolation contract, same wrapper as ``read_gif``): a truncated
    IHDR would otherwise leak struct.error, corrupt IDAT zlib.error.
    """
    try:
        return _read_gray_png_inner(png)
    except (struct.error, zlib.error, IndexError) as e:
        raise ValueError(f"truncated/corrupt PNG: {e}") from e


def _read_gray_png_inner(png: bytes) -> np.ndarray:
    if png[:8] != b"\x89PNG\r\n\x1a\n":
        raise ValueError("not a PNG")
    i, w, h, idat = 8, None, None, b""
    while i + 8 <= len(png):
        (length,) = struct.unpack(">I", png[i : i + 4])
        tag = png[i + 4 : i + 8]
        payload = png[i + 8 : i + 8 + length]
        if tag == b"IHDR":
            w, h, depth, ctype = struct.unpack(">IIBB", payload[:10])
            if depth != 8 or ctype != 0:
                raise ValueError("only 8-bit grayscale supported")
        elif tag == b"IDAT":
            idat += payload
        elif tag == b"IEND":
            break
        i += 12 + length
    if w is None:
        raise ValueError("missing IHDR")
    raw = zlib.decompress(idat)
    if len(raw) != h * (w + 1):
        raise ValueError("IDAT size mismatch")
    return np.frombuffer(unfilter_png_rows(raw, w, 1), dtype=np.uint8).reshape(h, w)


def unfilter_png_rows(data: bytes, rowlen: int, bpp: int) -> bytes:
    """Undo the ISO/IEC 15948 row filters (None/Sub/Up/Average/Paeth) of
    ``data``: whole rows, each a filter-type byte then ``rowlen`` bytes
    predicted from the unfiltered bytes left (``bpp`` back), above and
    above-left of each. Returns the rows without their type bytes; raises
    ValueError on a partial row or an unknown filter type."""
    if len(data) % (rowlen + 1):
        raise ValueError("PNG-predicted stream not a whole number of rows")
    out, prev = bytearray(), bytes(rowlen)
    for r in range(0, len(data), rowlen + 1):
        ft, row = data[r], bytearray(data[r + 1 : r + 1 + rowlen])
        if ft > 4:
            raise ValueError(f"unknown PNG row filter {ft}")
        for j in range(rowlen if ft else 0):
            a = row[j - bpp] if j >= bpp else 0
            b = prev[j]
            c = prev[j - bpp] if j >= bpp else 0
            if ft == 4:  # Paeth: whichever of a, b, c is nearest a + b - c
                pa, pb, pc = abs(b - c), abs(a - c), abs(a + b - 2 * c)
                pred = a if pa <= pb and pa <= pc else b if pb <= pc else c
            else:  # Sub, Up, Average
                pred = (a, b, (a + b) // 2)[ft - 1]
            row[j] = (row[j] + pred) & 0xFF
        out += row
        prev = row
    return bytes(out)


def glyph_scale(font_size: float, scale: float) -> int:
    """Integer glyph pixel scale for a span's font size at raster scale."""
    return max(1, int(round(font_size * scale / PT_PER_GLYPH_SCALE)))


def rasterize_page(
    layout: Dict[str, Any],
    images: Optional[List[Dict[str, Any]]] = None,
    scale: float = RENDER_SCALE,
) -> np.ndarray:
    """Rasterize a parsed page (layout tree + image placements) to a 2-D
    uint8 canvas, white=255 / ink=0.

    Spans draw with the 5x7 bitmap font top-aligned at their bbox origin;
    glyph pixel scale ``k = round(size*scale/10)`` so the OCR backend's
    block-reduce downsample inverts the np.kron upsample exactly.
    Non-ASCII characters advance blank (documented raster subset). Image
    placements blit nearest-neighbor; images whose pixels could not be
    decoded fill a flat gray 160 box.
    """
    page_w = float(layout.get("width") or 612.0)
    page_h = float(layout.get("height") or 792.0)
    W = max(1, int(round(page_w * scale)))
    H = max(1, int(round(page_h * scale)))
    canvas = np.full((H, W), 255, dtype=np.uint8)

    for img in images or []:
        bbox = img.get("bbox") or [0, 0, 0, 0]
        x0 = max(0, int(round(bbox[0] * scale)))
        y0 = max(0, int(round(bbox[1] * scale)))
        x1 = min(W, int(round(bbox[2] * scale)))
        y1 = min(H, int(round(bbox[3] * scale)))
        if x1 <= x0 or y1 <= y0:
            continue
        gray = img.get("gray")
        iw, ih = int(img.get("width") or 0), int(img.get("height") or 0)
        if gray is None or iw <= 0 or ih <= 0 or len(gray) < iw * ih:
            canvas[y0:y1, x0:x1] = 160
            continue
        src = np.frombuffer(gray, dtype=np.uint8, count=iw * ih).reshape(ih, iw)
        ys = (np.arange(y1 - y0) * ih // (y1 - y0)).clip(0, ih - 1)
        xs = (np.arange(x1 - x0) * iw // (x1 - x0)).clip(0, iw - 1)
        canvas[y0:y1, x0:x1] = src[np.ix_(ys, xs)]

    for block in layout.get("blocks", []):
        for line in block.get("lines", []):
            for span in line.get("spans", []):
                text = span.get("text") or ""
                if not text.strip():
                    continue
                bbox = span.get("bbox") or [0, 0, 0, 0]
                k = glyph_scale(float(span.get("size") or 12.0), scale)
                bmp = render_text_bitmap(text, k)
                y0 = int(round(bbox[1] * scale))
                x0 = int(round(bbox[0] * scale))
                bh, bw = bmp.shape
                cy0, cx0 = max(0, y0), max(0, x0)
                cy1, cx1 = min(H, y0 + bh), min(W, x0 + bw)
                if cy1 <= cy0 or cx1 <= cx0:
                    continue
                sub = bmp[cy0 - y0 : cy1 - y0, cx0 - x0 : cx1 - x0]
                region = canvas[cy0:cy1, cx0:cx1]
                region[sub] = 0
    return canvas
