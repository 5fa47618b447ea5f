"""Robust JSON sanitize/parse utilities (reference P16 parity).

Re-implements, from scratch, the semantics of the reference's JSON
processing suite (``backend/core/json_utils.py``):

- ``sanitize_json_string``  — json_utils.py:28-99: return the input untouched
  if it already parses; otherwise apply, in order, (1) escaping of stray
  quotes inside string values, (2) escaping of raw control characters inside
  string values, (3) trailing-comma removal before ``}``/``]``, and (4) the
  apostrophe "company-name" fixes (fixed list + the generic ``'s Inc/Corp/
  LLC/Ltd`` rule).
- ``safe_json_loads``       — json_utils.py:101-138: parse; on failure
  sanitize and re-parse; the second failure propagates.
- ``parse_relaxed``         — json_utils.py:140-184 (``parse_ai_response``):
  4 extraction strategies (direct, fenced code block, bare braces, ```json
  fence), returning ``(data, ok)`` and never raising.
- ``strip_markdown_fence``  — json_utils.py:186-219 (the ``remove_markdown``
  branch of the file loader; the file IO itself is a non-goal here — columns,
  not files, carry JSON in this engine).
- ``validate_structure``    — json_utils.py:247-264.
- ``merge_objects``         — json_utils.py:266-280.

All functions are pure and deterministic — safe inside ``map_batches``
stages; the compiled patterns are module-level so actor processes pay the
compile once per interpreter.

Deliberate deviation: the reference's quote-repair replacement
(json_utils.py:56-67) emits ``{key}"{escaped}"`` and drops the matched
trailing delimiter (the ``,``/``}``/``]`` captured in its group 3), so a
"repaired" document loses separators — a latent bug that only avoids harm
because callers discard sanitize output that still fails to parse. This
implementation preserves the delimiter (sanitization is monotone: it never
makes parseable input less parseable). Likewise the reference also escapes
apostrophes as ``\\'`` (json_utils.py:62) — an escape sequence JSON does not
define, which turns legal values like ``"Domino's"`` into unparseable ones;
only double quotes are escaped here.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, List, Tuple

# "key": "value" spans used by the two string-value repair passes. The
# reference applies the same shape twice with different replacement logic
# (json_utils.py:65-67 and :86-90).
_KV_SPAN_RE = re.compile(r'("[^"]*":\s*")(.*?)("(?:\s*[,}\]]|$))', re.DOTALL)
_TRAILING_COMMA_RE = re.compile(r",(\s*[}\]])")

# Apostrophe fixes: the reference ships a small fixed list plus one generic
# possessive-before-suffix rule (json_utils.py:19-26).
_APOSTROPHE_FIXES: List[Tuple[re.Pattern, str]] = [
    (re.compile(r"Domino's"), "Dominos"),
    (re.compile(r"McDonald's"), "McDonalds"),
    (re.compile(r"Wendy's"), "Wendys"),
    (re.compile(r"Papa John's"), "Papa Johns"),
    (re.compile(r"Denny's"), "Dennys"),
    (re.compile(r"'s\s+(Inc|Corp|LLC|Ltd)"), r"s \1"),
]

_CONTROL_ESCAPES = {
    "\n": "\\n",
    "\r": "\\r",
    "\t": "\\t",
    "\b": "\\b",
    "\f": "\\f",
}


def _escape_value_quotes(m: re.Match) -> str:
    key, value = m.group(1), m.group(2)
    fixed = value.replace('"', '\\"')
    return f'{key}{fixed}{m.group(3)}'


def _escape_value_controls(m: re.Match) -> str:
    value = m.group(2)
    for raw, esc in _CONTROL_ESCAPES.items():
        value = value.replace(raw, esc)
    return f"{m.group(1)}{value}{m.group(3)}"


def sanitize_json_string(json_str: str) -> str:
    """Best-effort repair of almost-JSON (json_utils.py:28-99 semantics)."""
    try:
        json.loads(json_str)
        return json_str
    except (json.JSONDecodeError, TypeError):
        pass

    out = _KV_SPAN_RE.sub(_escape_value_quotes, json_str)
    out = _KV_SPAN_RE.sub(_escape_value_controls, out)
    out = _TRAILING_COMMA_RE.sub(r"\1", out)
    for pattern, repl in _APOSTROPHE_FIXES:
        out = pattern.sub(repl, out)
    return out


def safe_json_loads(json_str: str, use_sanitization: bool = True) -> Any:
    """Parse JSON, retrying once through the sanitizer
    (json_utils.py:101-138). The post-sanitize failure propagates. Non-str
    input raises JSONDecodeError like any other unparseable input (the
    totality contract callers in map_batches stages rely on)."""
    if not isinstance(json_str, str):
        raise json.JSONDecodeError(
            f"input is {type(json_str).__name__}, not str", "", 0
        )
    try:
        return json.loads(json_str)
    except json.JSONDecodeError:
        if not use_sanitization:
            raise
        return json.loads(sanitize_json_string(json_str))


_FENCED_RE = re.compile(r"```(?:json)?\s*(\{.*?\}|\[.*?\])\s*```", re.DOTALL)
_JSON_FENCE_RE = re.compile(r"```json\n(.*?)\n```", re.DOTALL)

MAX_PARSE_ATTEMPTS = 16  # bound on candidate parse+sanitize tries per call


def _balanced_spans(text: str):
    """Yield candidate JSON substrings with BALANCED braces/brackets (quote-
    aware), in order of appearance. The reference's strategy-3 regex
    ``(\\{.*?\\}|\\[.*?\\])`` truncates nested objects at the first closing
    brace (lazy match) — a third documented reference bug this module fixes;
    a balanced scan extracts ``{"a": {"b": 1}}`` whole.

    After each opener the scan resumes ONE character later (not past the
    span): an unclosed opener therefore cannot swallow the rest of the text,
    and valid JSON nested inside an unparseable outer span is still offered
    as a later candidate. The caller caps total parse attempts."""
    openers = {"{": "}", "[": "]"}
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in openers:
            depth, j, in_str, esc = 0, i, False, False
            while j < n:
                ch = text[j]
                if in_str:
                    if esc:
                        esc = False
                    elif ch == "\\":
                        esc = True
                    elif ch == '"':
                        in_str = False
                elif ch == '"':
                    in_str = True
                elif ch in "{[":
                    depth += 1
                elif ch in "}]":
                    depth -= 1
                    if depth == 0:
                        yield text[i : j + 1]
                        break
                j += 1
        i += 1


def parse_relaxed(text: str) -> Tuple[Any, bool]:
    """Extract + parse JSON from free-form text with the reference's four
    fallback strategies (json_utils.py:140-184). Never raises.

    Two documented deviations from the reference: a strategy that fails to
    PARSE falls through to the next strategy instead of aborting the whole
    cascade (the reference's single try/except returns ({}, False) even
    when a later strategy would succeed), and bare-JSON extraction uses a
    balanced-brace scan (see _balanced_spans) instead of a lazy regex that
    truncates nested objects. Total parse attempts are capped at
    MAX_PARSE_ATTEMPTS so adversarial text (thousands of brace spans) costs
    bounded work inside a map_batches stage."""
    if not text or not text.strip():
        return {}, False
    budget = MAX_PARSE_ATTEMPTS

    def try_parse(candidate: str):
        nonlocal budget
        if budget <= 0:
            return None
        budget -= 1
        try:
            return safe_json_loads(candidate), True
        except json.JSONDecodeError:
            return None

    stripped = text.strip()
    if stripped.startswith("{") or stripped.startswith("["):
        hit = try_parse(text)
        if hit:
            return hit
    for m in _FENCED_RE.finditer(text):
        hit = try_parse(m.group(1))
        if hit:
            return hit
        if budget <= 0:
            return {}, False
    for span in _balanced_spans(text):
        hit = try_parse(span)
        if hit:
            return hit
        if budget <= 0:
            return {}, False
    for m in _JSON_FENCE_RE.finditer(text):
        hit = try_parse(m.group(1))
        if hit:
            return hit
        if budget <= 0:
            return {}, False
    return {}, False


def strip_markdown_fence(content: str) -> str:
    """Remove a leading ````` ```json ````` and trailing ``` fence
    (json_utils.py:196-205 ``remove_markdown`` branch)."""
    content = content.strip()
    if content.startswith("```json"):
        content = content[7:]
    if content.endswith("```"):
        content = content[:-3]
    return content.strip()


def validate_structure(data: Any, required_keys: List[str]) -> Tuple[bool, List[str]]:
    """(is_valid, missing_keys) — json_utils.py:247-264 semantics, including
    the non-dict sentinel message."""
    if not isinstance(data, dict):
        return False, ["Data is not a dictionary"]
    missing = [k for k in required_keys if k not in data]
    return len(missing) == 0, missing


def merge_objects(*objects: Dict[str, Any]) -> Dict[str, Any]:
    """Left-to-right dict merge, later keys win; non-dicts skipped
    (json_utils.py:266-280)."""
    out: Dict[str, Any] = {}
    for obj in objects:
        if isinstance(obj, dict):
            out.update(obj)
    return out
