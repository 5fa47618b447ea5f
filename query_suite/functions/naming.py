"""Training-workflow naming helpers (reference P17).

``parse_folder_name`` re-implements the reference's training-folder naming
convention (``ml_document_processor.py:107-128``): folders named
``"LF_AGM_Annual-General-meetings"`` carry ``(class, full_class_name)`` in
underscore segments 1 and 2; anything else falls back to
``(name, name)``. Pure, total (never raises) — the reference's except-arm
collapses to the same fallback.
"""

from __future__ import annotations

from typing import Tuple


def parse_folder_name(folder_name: str) -> Tuple[str, str]:
    """``"LF_AGM_Annual-General-meetings"`` -> ``("AGM",
    "Annual-General-meetings")``; fewer than 3 segments -> ``(name, name)``."""
    parts = folder_name.split("_")
    if len(parts) >= 3:
        return parts[1], parts[2]
    return folder_name, folder_name


def document_name_from_url(url: str) -> str:
    """Last path segment of a URL — the per-document name the wide embedding
    sink records (the reference's ``document_name``)."""
    return url.rstrip("/").rsplit("/", 1)[-1]
