"""Password-candidate chain for protected documents (reference A2/J2 parity).

Re-implements, from scratch, the ordered candidate logic of the reference's
``FileManagementService.get_all_passwords_for_file``
(``backend/services/document_processing/services/file_management_service.py:187-212``):

    1. the password SAVED for this document's site (the reference's
       per-directory CSV; here a plain mapping in the job config, shipped
       with every extraction task),
    2. the configured default password,
    3. ``None`` (try without a password),

deduplicated in first-occurrence order. The PDF extractor then tries at
most ``MAX_ATTEMPTS`` of these (``core_pdf_processor.py:283``).

The reference also puts a caller-provided password first and a per-process
cache of earlier successes (``password_cache``, file_management_service.py:45)
before the default. This engine has neither: no caller passes a password,
and a cached success could only be a password taken from this same list
(the saved one or the default), which the deduplication would drop again.

Actual decryption lives in ``functions/pdf_crypt.py`` (standard security
handler, RC4 /V 1-2) and is driven by the attempt loop in
``functions/extract.py``. Determinism note: the candidate list is a pure
function of (site, config) and the chain holds no state, so outputs
(including ``attempts_made``) are byte-identical at any parallelism /
arrival order, which the goldens assert.
"""

from __future__ import annotations

from typing import List, Mapping, Optional

MAX_ATTEMPTS = 3  # core_pdf_processor.py:283

# Test-deployment password book. The reference keeps working passwords in a
# per-directory CSV next to the documents
# (file_management_service.py:118-170); this engine's equivalent is a small
# per-SITE map shipped as job config (broadcast to every extraction task
# — tuples, not dicts, so ExtractConfig stays frozen/hashable).
# Python callers pass their own book in ExtractConfig; the job CLI has no
# flag for one, so a CLI run always uses this one. These defaults match the
# synthetic corpus (functions/synth.py derives each encrypted fixture's
# password from the same constants, so fixtures and engine agree by
# construction).
DEFAULT_PASSWORD = "graft-default"
SAVED_PASSWORDS: tuple = tuple(
    (f"site{k}.example", f"pw-{k}") for k in range(17)
) + (("docs.example", "pw-docs"),)


def url_host(url: str) -> str:
    """Password-book key for a URL: its host (the per-site analogue of the
    reference's per-directory password scope)."""
    rest = url.split("://", 1)[-1]
    return rest.split("/", 1)[0]


def password_candidates(
    doc_key: str,
    saved: Optional[Mapping[str, str]] = None,
    default: Optional[str] = None,
) -> List[Optional[str]]:
    """Ordered, deduplicated candidate list ending with ``None``."""
    out: List[Optional[str]] = []
    for pw in (saved.get(doc_key) if saved else None, default):
        if pw is not None and pw not in out:
            out.append(pw)
    out.append(None)
    return out
