"""Password-candidate chain for protected documents (reference A2/J2 parity).

Re-implements, from scratch, the ordered candidate logic of the reference's
``FileManagementService.get_all_passwords_for_file``
(``backend/services/document_processing/services/file_management_service.py:187-212``):

    1. the caller-provided password,
    2. the password previously SAVED for this document (the reference's
       per-directory CSV; here a plain mapping — at job scale a broadcast
       dict in the job config, shipped with every extraction task),
    3. the password CACHED from an earlier success in this task
       (``password_cache`` dict, file_management_service.py:45),
    4. the configured default password,
    5. ``None`` (try without a password),

deduplicated in first-occurrence order. The enhanced extractor then tries at
most ``MAX_ATTEMPTS`` of these (``core_pdf_processor.py:283``) and records a
success back into cache + saved map (``:307-308``).

Actual decryption lives in ``functions/pdf_crypt.py`` (standard security
handler, RC4 /V 1-2) and is driven by the attempt loop in
``functions/extract.py`` — this module carries the state/lookup semantics,
which is the part that shapes the distributed design: the saved map is a
broadcast small side, the cache lives for one task, and success updates never
need cross-worker coordination (re-deriving a password costs one extra
attempt, so last-writer-wins is correct). Determinism note: because the
saved map is keyed by site and covers every site the cache could learn, a
cache hit never changes the candidate list the saved map alone would
produce — so outputs (including ``attempts_made``) are byte-identical at
any parallelism / arrival order, which the goldens assert.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

MAX_ATTEMPTS = 3  # core_pdf_processor.py:283

# Test-deployment password book. The reference keeps working passwords in a
# per-directory CSV next to the documents
# (file_management_service.py:118-170); this engine's equivalent is a small
# per-SITE map shipped as job config (broadcast to every extraction task
# — tuples, not dicts, so ExtractConfig stays frozen/hashable).
# Production jobs pass their own book; these defaults match the synthetic
# corpus (functions/synth.py derives each encrypted fixture's password from
# the same constants, so fixtures and engine agree by construction).
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
    provided: Optional[str] = None,
    saved: Optional[Mapping[str, str]] = None,
    cache: Optional[Mapping[str, str]] = None,
    default: Optional[str] = None,
) -> List[Optional[str]]:
    """Ordered, deduplicated candidate list ending with ``None``."""
    out: List[Optional[str]] = []

    def add(pw: Optional[str]) -> None:
        if pw is not None and pw not in out:
            out.append(pw)

    add(provided)
    if saved:
        add(saved.get(doc_key))
    if cache:
        add(cache.get(doc_key))
    add(default)
    out.append(None)
    return out


class PasswordBook:
    """Task-held password state: an immutable broadcast ``saved`` map plus a
    mutable success cache that lives for one task (the A2 pattern,
    Ray-shaped)."""

    def __init__(
        self,
        saved: Optional[Mapping[str, str]] = None,
        default: Optional[str] = None,
    ) -> None:
        self.saved = dict(saved or {})
        self.default = default
        self.cache: Dict[str, str] = {}

    def candidates_for(
        self, doc_key: str, provided: Optional[str] = None
    ) -> List[Optional[str]]:
        return password_candidates(
            doc_key, provided, self.saved, self.cache, self.default
        )[:MAX_ATTEMPTS]

    def record_success(self, doc_key: str, password: Optional[str]) -> None:
        """Cache a working password (file_management_service.py:214-221's
        cache half; the CSV half becomes the next run's broadcast map)."""
        if password is not None:
            self.cache[doc_key] = password
