"""Byte-exact output renderings of the reference service.

Pure functions; these strings are the golden-compared surfaces.

Citations into /root/reference:

- ``page_markdown`` — per-page ``.md`` body
  ``f"# Page {page_num} - {method.upper()}\\n\\n" + text``
  (``document_text_extraction_service.py:651-662``; S3 variant :679-705 writes
  identical bytes).
- ``combine_pages`` — per-document combined text, pages joined as
  ``f"\\n--- PAGE {page_num} ---\\n{text}\\n"`` then ``.strip()``
  (``core_pdf_processor.py:807-811`` batch path and :1045-1055
  ``extract_text_from_pdf_simple``); skips pages whose text strips empty.
- ``recreate_text_with_layout`` — visual-structure recreation
  (``core_pdf_processor.py:709-781``): blocks sorted by y, lines sorted by y,
  indent = two spaces per ``int(x/20)``, blank line on block gap >20 or >10,
  blank line on line gap >15, spans joined with single spaces.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Tuple


def page_markdown(page_num: int, method: str, text: str) -> str:
    """Per-page markdown body, byte-identical to the reference writer."""
    return f"# Page {page_num} - {method.upper()}\n\n{text}"


def combine_pages(pages: Iterable[Tuple[int, str]]) -> str:
    """Combine (page_num, text) pairs into the ``--- PAGE N ---`` document blob.

    Pages must be supplied in ascending page order (the reference iterates its
    1-based ``pages`` dict in insertion order, which is page order).
    """
    combined = ""
    for page_num, text in pages:
        if text.strip():
            combined += f"\n--- PAGE {page_num} ---\n{text}\n"
    return combined.strip()


def recreate_text_with_layout(text: str, layout: Dict[str, Any]) -> str:
    """Recreate text mimicking the visual page structure.

    Threshold-for-threshold reimplementation of
    ``core_pdf_processor.py:709-781`` (``_recreate_text_with_layout``).
    """
    result: List[str] = []

    blocks = layout.get("blocks", [])
    sorted_blocks = sorted(blocks, key=lambda b: b.get("bbox", [0, 0, 0, 0])[1])

    current_y = 0.0
    for block_idx, block in enumerate(sorted_blocks):
        block_bbox = block.get("bbox", [0, 0, 0, 0])
        block_y = block_bbox[1]

        if block_idx > 0:
            spacing = block_y - current_y
            if spacing > 20:
                result.append("")
            elif spacing > 10:
                result.append("")

        lines = block.get("lines", [])
        sorted_lines = sorted(lines, key=lambda l: l.get("bbox", [0, 0, 0, 0])[1])

        for line_idx, line in enumerate(sorted_lines):
            line_bbox = line.get("bbox", [0, 0, 0, 0])
            line_x = line_bbox[0]
            line_y = line_bbox[1]

            indent_level = max(0, int(line_x / 20))
            indent = "  " * indent_level

            line_text = ""
            for span in line.get("spans", []):
                span_text = span.get("text", "").strip()
                if span_text:
                    if line_text and not line_text.endswith(" ") and not span_text.startswith(" "):
                        line_text += " "
                    line_text += span_text

            if line_text.strip():
                result.append(f"{indent}{line_text.strip()}")
                if line_idx < len(sorted_lines) - 1:
                    next_line = sorted_lines[line_idx + 1]
                    next_y = next_line.get("bbox", [0, 0, 0, 0])[1]
                    if next_y - line_y > 15:
                        result.append("")

        current_y = block_bbox[3]

    return "\n".join(result)
