"""Dispatcher-level tests: acceptance ladder, failure isolation, counters,
and frozen-golden regression for the 64-row unit corpus."""

import hashlib
import json
import os
import random

import pytest

from service1_text_extraction_ray.functions.extract import (
    ExtractConfig,
    extract_document,
    run_oracle,
)
from service1_text_extraction_ray.functions.pdf_extract import PdfParseError
from service1_text_extraction_ray.functions.synth import (
    gen_pages_table,
    make_article_html,
    make_garbage_html,
    make_paragraphs,
    make_pdf,
    make_short_html,
)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
CFG = ExtractConfig()


def rng():
    return random.Random(11)


def test_html_accept_path():
    paras = make_paragraphs(rng(), 8)
    payload = make_article_html("A title here", paras, rng())
    res = extract_document("u", payload, CFG)
    assert res["status"] == "ok"
    assert res["pages"][0]["method"] == "dom"
    assert res["doc_text"].startswith("--- PAGE 1 ---\nA title here")
    for p in paras:
        assert p in res["doc_text"]


def test_short_html_fails_gate():
    # Under the 250-char production gate -> method failed, empty text
    # (reference no-OCR branch, core_pdf_processor.py:410-416).
    res = extract_document("u", make_short_html(rng()), CFG)
    assert res["status"] == "ok"
    assert res["pages"][0]["method"] == "failed"
    assert res["doc_text"] == ""
    assert res["n_pages_ok"] == 0


def test_garbage_html_fails_gate():
    res = extract_document("u", make_garbage_html(rng(), clause=0), CFG)
    assert res["pages"][0]["method"] == "failed"
    assert res["doc_text"] == ""


def test_pdf_accept_path():
    lines = [f"A reasonably long pdf line number {i} with words." for i in range(30)]
    payload = make_pdf([lines, lines], rng())
    res = extract_document("u", payload, CFG)
    assert res["status"] == "ok"
    assert [p["method"] for p in res["pages"]] == ["pdf_text", "pdf_text"]
    assert "--- PAGE 2 ---" in res["doc_text"]


def test_pdf_short_page_isolates():
    long_lines = [f"A reasonably long pdf line number {i} with words." for i in range(30)]
    payload = make_pdf([long_lines, ["tiny"]], rng())
    res = extract_document("u", payload, CFG)
    assert [p["method"] for p in res["pages"]] == ["pdf_text", "failed"]
    assert res["n_pages"] == 2 and res["n_pages_ok"] == 1
    assert "--- PAGE 2 ---" not in res["doc_text"]


def test_malformed_pdf_is_parse_failure_row():
    res = extract_document("u", b"%PDF-1.4\nnot really", CFG)
    assert res["status"] == "parse_failure"
    assert res["pages"] == [] and res["doc_text"] == ""


@pytest.mark.parametrize("exc, error", [
    (PdfParseError("no trailer"), "pdf: no trailer"),
    (KeyError(5), "pdf: KeyError: 5"),
], ids=["damaged_pdf", "parser_bug"])
def test_pdf_error_names_the_type_of_a_parser_bug(monkeypatch, exc, error):
    # A damaged PDF reads as its message; any other exception is a parser
    # bug, and the row's error keeps its type.
    from service1_text_extraction_ray.functions import extract as X

    def open_pdf(payload):
        raise exc

    monkeypatch.setattr(X, "open_pdf", open_pdf)
    res = extract_document("u", make_pdf([["A pdf line."]], rng()), CFG)
    assert res["status"] == "parse_failure"
    assert res["error"] == error


def test_failed_pdf_leaves_no_reference_cycle():
    # A handler that kept the exception in a local would tie the failed
    # frame, and through it the caller's slice of payloads, into a cycle
    # that only the cyclic collector frees (on html_web that raised the
    # job's peak RSS by ~17 MB).
    import gc

    payload = b"%PDF-1.4\nnot really"
    extract_document("u", payload, CFG)
    gc.collect()
    gc.disable()
    try:
        extract_document("u", payload, CFG)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_unknown_kind_is_parse_failure():
    res = extract_document("u", b"\x00\x01\x02", CFG)
    assert res["status"] == "parse_failure"


def test_truncation_guard():
    paras = make_paragraphs(rng(), 3000, words_per_sentence=(8, 14), sentences=(5, 8))
    payload = make_article_html("Giant", paras, rng())
    assert len(payload) > CFG.max_payload_bytes
    res = extract_document("u", payload, CFG)
    assert res["truncated"] is True
    assert res["status"] == "ok"  # truncated HTML still parses


def test_max_pages_config():
    lines = [f"A reasonably long pdf line number {i} with words." for i in range(30)]
    payload = make_pdf([lines] * 4, rng())
    res = extract_document("u", payload, ExtractConfig(max_pages=2))
    assert res["n_pages"] == 2


@pytest.mark.parametrize("field, value", [
    ("max_payload_bytes", -1), ("max_payload_bytes", 0),
    ("max_pages", 0), ("max_pages", -1),
    ("min_text_length", -1),
])
def test_config_refuses_out_of_range_values(field, value):
    """An out-of-range bound would not fail the parse: it would silently
    truncate every payload, or read every PDF as zero pages."""
    with pytest.raises(ValueError, match=field):
        ExtractConfig(**{field: value})


def test_config_accepts_its_edge_values():
    cfg = ExtractConfig(max_payload_bytes=1, max_pages=1, min_text_length=0)
    assert (cfg.max_payload_bytes, cfg.max_pages, cfg.min_text_length) == (1, 1, 0)
    assert ExtractConfig(max_pages=None).max_pages is None


def test_page_md_format():
    lines = [f"A reasonably long pdf line number {i} with words." for i in range(30)]
    res = extract_document("u", make_pdf([lines], rng()), CFG)
    md = res["pages"][0]["page_md"]
    assert md.startswith("# Page 1 - PDF_TEXT\n\n")
    assert md.endswith(res["pages"][0]["text"])


def test_frozen_goldens_sf_unit():
    """Regression gate: the 64-row unit corpus must extract to the frozen
    hashes — catches any semantic drift in the shared pure functions."""
    with open(os.path.join(GOLDEN_DIR, "sf_unit_hashes.json")) as f:
        golden = json.load(f)
    rows = gen_pages_table(64, seed=42).to_pylist()
    results = run_oracle(rows, CFG)
    assert len(results) == len(golden) == 64
    for row, res in zip(rows, results):
        g = golden[row["url"]]
        assert hashlib.sha256(res["doc_text"].encode()).hexdigest() == g["doc_text_sha256"], row["url"]
        assert res["status"] == g["status"]
        assert res["content_kind"] == g["content_kind"]
        assert res["n_pages"] == g["n_pages"]
        assert res["n_pages_ok"] == g["n_pages_ok"]


def test_frozen_golden_samples():
    with open(os.path.join(GOLDEN_DIR, "sf_unit_samples.json")) as f:
        samples = json.load(f)
    rows = {r["url"]: r for r in gen_pages_table(64, seed=42).to_pylist()}
    for url, s in samples.items():
        res = extract_document(url, rows[url]["html"], CFG)
        assert res["doc_text"][:2000] == s["doc_text_head"]
        got_md = res["pages"][0]["page_md"][:500] if res["pages"] else ""
        assert got_md == s["page_md_head"]


def test_frozen_goldens_sf_unit2_encrypted_rows():
    """Rows 64-163 cover the encrypted categories (84 empty-user-pw, 91
    saved/default-pw, 94 unknown-pw) at both /V levels — frozen including
    the password-loop fields (reference parity: password_required /
    password_used / attempts_made, core_pdf_processor.py:283-354)."""
    with open(os.path.join(GOLDEN_DIR, "sf_unit2_hashes.json")) as f:
        golden = json.load(f)
    rows = gen_pages_table(100, seed=42, start=64).to_pylist()
    results = run_oracle(rows, CFG)
    assert len(results) == len(golden) == 100
    cats_seen = set()
    for row, res in zip(rows, results):
        g = golden[row["url"]]
        assert hashlib.sha256(res["doc_text"].encode()).hexdigest() == g["doc_text_sha256"], row["url"]
        for k in ("status", "content_kind", "n_pages", "n_pages_ok",
                  "password_required", "password_used", "attempts_made"):
            assert res[k] == g[k], (row["url"], k)
        cats_seen.add(int(row["url"].rsplit("-", 1)[-1]) % 100)
    assert {84, 91, 94} <= cats_seen


class TestPasswordLoop:
    """Reference password-attempt semantics (core_pdf_processor.py:283-343)
    against real encrypted payloads."""

    def _pdf(self, encrypt=None, n_lines=25):
        from service1_text_extraction_ray.functions.synth import make_pdf

        lines = [f"A reasonably long pdf line number {i} with words." for i in range(n_lines)]
        return make_pdf([lines], rng(), encrypt=encrypt)

    def test_site_password_attempt_1(self):
        payload = self._pdf({"user_pw": "pw-3", "owner_pw": "o", "v": 2})
        res = extract_document("https://site3.example/x", payload, CFG)
        assert res["status"] == "ok"
        assert res["password_used"] == "pw-3"
        assert res["attempts_made"] == 1
        assert not res["password_required"]
        assert res["n_pages_ok"] == 1

    def test_default_password_attempt_2(self):
        from service1_text_extraction_ray.functions.passwords import DEFAULT_PASSWORD

        payload = self._pdf({"user_pw": DEFAULT_PASSWORD, "owner_pw": "o", "v": 1})
        res = extract_document("https://site3.example/x", payload, CFG)
        assert res["status"] == "ok"
        assert res["password_used"] == DEFAULT_PASSWORD
        assert res["attempts_made"] == 2  # saved pw-3 fails first

    def test_unknown_password_three_attempts(self):
        payload = self._pdf({"user_pw": "nobody-knows", "owner_pw": "o", "v": 2})
        res = extract_document("https://site3.example/x", payload, CFG)
        assert res["status"] == "parse_failure"
        assert res["password_required"]
        assert res["attempts_made"] == 3
        assert res["doc_text"] == ""
        assert "password required" in res["error"]

    def test_empty_user_password_opens_transparently(self):
        payload = self._pdf({"user_pw": "", "owner_pw": "owner-x", "v": 1})
        res = extract_document("https://site0.example/x", payload, CFG)
        assert res["status"] == "ok"
        assert not res["password_required"]
        assert res["attempts_made"] == 1
        # reference quirk mirrored: attempt-1 candidate is recorded as
        # password_used even though the doc did not need it
        assert res["password_used"] == "pw-0"

    def test_unencrypted_records_first_candidate(self):
        res = extract_document("https://site5.example/x", self._pdf(), CFG)
        assert res["attempts_made"] == 1
        assert res["password_used"] == "pw-5"

    def test_unknown_host_tries_default_then_none(self):
        from service1_text_extraction_ray.functions.passwords import DEFAULT_PASSWORD

        payload = self._pdf({"user_pw": DEFAULT_PASSWORD, "owner_pw": "o", "v": 2})
        res = extract_document("https://elsewhere.example/x", payload, CFG)
        # candidates for an unknown host: [default, None]
        assert res["status"] == "ok"
        assert res["attempts_made"] == 1
        assert res["password_used"] == DEFAULT_PASSWORD

    def test_cache_never_changes_outputs(self):
        """Two docs on one site processed in either order produce identical
        per-doc results (the byte-determinism contract: no password state
        carries from one document to the next)."""
        from service1_text_extraction_ray.functions.extract import run_oracle
        from service1_text_extraction_ray.functions.passwords import DEFAULT_PASSWORD

        a = {"url": "https://site7.example/a",
             "html": self._pdf({"user_pw": "pw-7", "owner_pw": "o", "v": 1})}
        b = {"url": "https://site7.example/b",
             "html": self._pdf({"user_pw": DEFAULT_PASSWORD, "owner_pw": "o", "v": 2})}

        def key_fields(res):
            return {k: res[k] for k in
                    ("url", "status", "doc_text", "password_used", "attempts_made")}

        fwd = sorted((key_fields(r) for r in run_oracle([a, b], CFG)), key=lambda r: r["url"])
        rev = sorted((key_fields(r) for r in run_oracle([b, a], CFG)), key=lambda r: r["url"])
        assert fwd == rev


class TestExtractorRegistry:
    """The content-kind -> extractor dispatch table."""

    def test_register_custom_kind(self, monkeypatch):
        from service1_text_extraction_ray.functions import extract as X

        def tsv_extractor(url, payload, cfg):
            text = payload.decode("utf-8", "ignore").replace("\t", " ").lstrip("\x00")
            return {"pages": [{"page": 1, "method": "tsv", "text": text,
                               "page_md": text, "n_chars": len(text),
                               "layout_json": ""}]}

        # 'other' normally fails; monkeypatch restores the table
        monkeypatch.setitem(X.EXTRACTORS, "other", tsv_extractor)
        # NUL prefix keeps the payload out of the text kind so the
        # custom 'other' extractor is what fires
        res = X.extract_document("u", b"\x00a\tb\tc", CFG)
        assert res["status"] == "ok"
        assert res["pages"][0]["method"] == "tsv"
        assert res["doc_text"].endswith("a b c")

    def test_unregistered_kind_fails_counted(self):
        res = extract_document("u", b"\x00\x01\x02binary junk", CFG)
        assert res["status"] == "parse_failure"
        assert res["error"] == "unrecognized content kind"


class TestPlainTextExtraction:
    def test_long_text_passes_gate_and_is_deterministic(self):
        from service1_text_extraction_ray.functions.extract import (
            ExtractConfig,
            extract_document,
        )

        body = ("Readable plain text content with many ordinary words. " * 8
                ).encode("utf-8")
        r1 = extract_document("https://h.example.com/a.txt", body, ExtractConfig())
        r2 = extract_document("https://h.example.com/a.txt", body, ExtractConfig())
        assert r1 == r2
        assert r1["content_kind"] == "text" and r1["n_pages_ok"] == 1
        assert r1["pages"][0]["method"] == "text"
        assert "--- PAGE 1 ---" in r1["doc_text"]

    def test_crlf_normalized_and_bom_stripped(self):
        from service1_text_extraction_ray.functions.extract import (
            ExtractConfig,
            extract_document,
        )

        body = ("﻿" + "line one with sufficient padding words here. " * 6
                + "\r\nline two.").encode("utf-8")
        r = extract_document("https://h/x.txt", body, ExtractConfig())
        txt = r["pages"][0]["text"]
        # CRLF normalizes; the LEADING BOM strips (interior ones are content)
        assert "\r" not in txt and not txt.startswith("﻿")

    def test_short_text_fails_gate(self):
        from service1_text_extraction_ray.functions.extract import (
            ExtractConfig,
            extract_document,
        )

        r = extract_document("https://h/s.txt", b"tiny", ExtractConfig())
        assert r["content_kind"] == "text"
        assert r["pages"][0]["method"] == "failed" and r["doc_chars"] == 0
