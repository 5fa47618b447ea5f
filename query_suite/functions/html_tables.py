"""From-scratch HTML ``<table>`` extraction on the Python stdlib.

Web tables are a first-class training-data asset (relational facts embedded
in pages); the main-content extractor (html_extract.py) deliberately folds
table cells into plain text blocks, so this module supplies the structured
view: each outermost table becomes rows of whitespace-normalized cells plus
a GitHub-markdown rendering.

Semantics (documented contract, covered by unit tests):

- Only OUTERMOST tables are emitted; a nested ``<table>`` inside a cell
  contributes its text to that cell (the structure of nested tables is not
  preserved — the common case for layout-nested markup).
- A row is a ``<tr>``; cells are ``<td>``/``<th>`` in document order.
- The header row is the FIRST row iff every cell in it is ``<th>``;
  otherwise the table has no header and markdown uses empty header cells.
- Cell text is whitespace-normalized; ``script/style`` subtrees are dropped;
  ``|`` is escaped in markdown cells.
- ``n_cols`` is the maximum cell count over all rows; markdown pads short
  rows with empty cells (colspan/rowspan are NOT expanded — recorded as-is).

Like the rest of the extraction stack this is pure and deterministic:
output bytes derive only from input bytes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from html.parser import HTMLParser
from typing import List, Optional

from service1_text_extraction_ray.functions.html_extract import decode_payload

_WS_RE = re.compile(r"\s+")

_CELL_TAGS = frozenset({"td", "th"})
_DROP_TAGS = frozenset({"script", "style", "noscript", "template", "svg"})


@dataclass
class HtmlTable:
    """One extracted table: rows of normalized cell strings."""

    rows: List[List[str]] = field(default_factory=list)
    header_is_th: bool = False  # first row was all-<th>

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return max((len(r) for r in self.rows), default=0)


class _TableParser(HTMLParser):
    """Streaming table collector (single pass, no DOM)."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.tables: List[HtmlTable] = []
        self._depth = 0           # <table> nesting depth
        self._drop_depth = 0
        self._cur: Optional[HtmlTable] = None
        self._row: Optional[List[str]] = None
        self._row_tags: List[str] = []
        self._cell: Optional[List[str]] = None
        self._cell_open = False

    # -- helpers -------------------------------------------------------------
    def _close_cell(self) -> None:
        if self._cell is not None and self._row is not None:
            self._row.append(_WS_RE.sub(" ", "".join(self._cell)).strip())
        self._cell = None
        self._cell_open = False

    def _close_row(self) -> None:
        self._close_cell()
        if self._row is not None and self._cur is not None:
            if self._row:
                if not self._cur.rows:
                    self._cur.header_is_th = bool(self._row_tags) and all(
                        t == "th" for t in self._row_tags
                    )
                self._cur.rows.append(self._row)
        self._row = None
        self._row_tags = []

    # -- HTMLParser hooks ----------------------------------------------------
    def handle_starttag(self, tag: str, attrs) -> None:
        if tag in _DROP_TAGS:
            self._drop_depth += 1
            return
        if self._drop_depth:
            return
        if tag == "table":
            self._depth += 1
            if self._depth == 1:
                self._cur = HtmlTable()
            return
        if self._depth != 1:
            return  # cells of nested tables fold into the open outer cell
        if tag == "tr":
            self._close_row()
            self._row = []
        elif tag in _CELL_TAGS:
            self._close_cell()
            if self._row is None:  # tolerate <td> without <tr>
                self._row = []
            self._cell = []
            self._cell_open = True
            self._row_tags.append(tag)

    def handle_endtag(self, tag: str) -> None:
        if tag in _DROP_TAGS:
            if self._drop_depth:
                self._drop_depth -= 1
            return
        if self._drop_depth:
            return
        if tag == "table":
            if self._depth == 1:
                self._close_row()
                if self._cur is not None and self._cur.rows:
                    self.tables.append(self._cur)
                self._cur = None
            if self._depth:
                self._depth -= 1
            return
        if self._depth != 1:
            return
        if tag == "tr":
            self._close_row()
        elif tag in _CELL_TAGS:
            self._close_cell()

    def handle_data(self, data: str) -> None:
        if self._drop_depth or not data:
            return
        # depth>=1: nested-table text accumulates into the outer open cell
        if self._depth >= 1 and self._cell_open and self._cell is not None:
            self._cell.append(data)

    def close(self) -> None:  # tolerate truncated markup
        super().close()
        if self._depth >= 1:
            self._depth = 1
            self._close_row()
            if self._cur is not None and self._cur.rows:
                self.tables.append(self._cur)
            self._cur = None


def extract_html_tables(payload: bytes) -> List[HtmlTable]:
    """Payload bytes -> outermost tables with normalized cells."""
    p = _TableParser()
    p.feed(decode_payload(payload))
    p.close()
    return p.tables


def _md_cell(s: str) -> str:
    return s.replace("|", "\\|")


def table_markdown(t: HtmlTable) -> str:
    """GitHub-markdown rendering: header row (empty cells if the table has
    no ``<th>`` header), separator, data rows; short rows padded."""
    n = t.n_cols
    if n == 0:
        return ""

    def render(cells: List[str]) -> str:
        padded = list(cells) + [""] * (n - len(cells))
        return "| " + " | ".join(_md_cell(c) for c in padded) + " |"

    if t.header_is_th:
        header, data = t.rows[0], t.rows[1:]
    else:
        header, data = [""] * n, t.rows
    lines = [render(header), "| " + " | ".join("---" for _ in range(n)) + " |"]
    lines.extend(render(r) for r in data)
    return "\n".join(lines)
