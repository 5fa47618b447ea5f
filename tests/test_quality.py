"""Unit truth tables for the quality predicates and text utils
(reference semantics: core_pdf_processor.py:584-648, text_utils.py:16-166)."""

from hypothesis import given, settings, strategies as st

from query_suite.functions.text_utils import (
    chunk_text,
    clean_unicode,
    extract_dates,
    extract_numbers,
    normalize_whitespace,
    remove_page_headers_footers,
)
from service1_text_extraction_ray.functions.quality import (
    _is_garbage_text_reference,
    is_garbage_text,
)


class TestGarbagePredicate:
    def test_empty_is_garbage(self):
        assert is_garbage_text("")
        assert is_garbage_text("   \n\t ")

    def test_normal_text_is_not_garbage(self):
        assert not is_garbage_text(
            "This is a perfectly normal paragraph of extracted text, with "
            "punctuation, numbers like 42, and reasonable word lengths."
        )

    def test_control_char_ratio_clause(self):
        # >30% control characters
        assert is_garbage_text("\x01\x02\x03" + "ab")

    def test_control_sequence_clause(self):
        # >3 separate control sequences in otherwise normal text
        base = "normal words here "
        assert is_garbage_text(base + "\x01" + base + "\x02" + base + "\x03" + base + "\x04" + base)

    def test_special_char_ratio_clause(self):
        assert is_garbage_text("@#$% ^&* @#$% ^&* " * 20)

    def test_allowed_punctuation_not_special(self):
        # Common punctuation is excluded from the special-char ratio.
        assert not is_garbage_text('Words, words; more words! (Really?) "Yes": [ok] {fine}. ' * 5)

    def test_distinct_chars_clause(self):
        assert is_garbage_text("ababababab ab abab")

    def test_short_word_clause(self):
        assert is_garbage_text("a b c d e f g h i j " * 10)

    def test_non_printable_clause(self):
        # >20% chars above 126 triggers the non-printable clause
        assert is_garbage_text("héllo wörld çafé naïve " * 10)

    def test_boundary_exactly_20pct_nonprintable_ok(self):
        # 2 control chars in 10 = exactly 0.2 non-printable, NOT > 0.2
        # (and 0.2 control ratio is under the 0.3 clause too).
        text = "abcdefgh" + "\x01\x01"
        assert len(text) == 10
        assert not is_garbage_text(text)

    def test_just_over_20pct_nonprintable_garbage(self):
        # 3 control chars in 10 = 0.3 > 0.2 -> non-printable clause fires
        # (control chars are a subset of non-printables, reference clause 7).
        assert is_garbage_text("abcdefg" + "\x01\x01\x01")


class TestCleanUnicode:
    def test_smart_quotes_and_dashes(self):
        assert clean_unicode("“quoted” — it’s") == '"quoted" - it\'s'

    def test_nbsp_bom_ellipsis(self):
        assert clean_unicode("a b…﻿") == "a b..."

    def test_control_chars_to_space_keeps_newline_tab(self):
        assert clean_unicode("a\x01b\nc\td") == "a b\nc\td"

    def test_currency_kept_cjk_replaced(self):
        assert clean_unicode("€5 and 中文 here") == "€5 and    here"

    def test_latin1_kept(self):
        assert clean_unicode("café") == "café"


class TestChunker:
    def test_short_text_single_chunk(self):
        assert chunk_text("hello", max_chars=100) == ["hello"]

    def test_breaks_at_paragraph(self):
        text = ("x" * 50 + "\n\n") * 5
        chunks = chunk_text(text, max_chars=120, overlap=0)
        assert all(len(c) <= 120 for c in chunks)
        assert "".join(chunks) == text

    def test_overlap(self):
        text = "word. " * 100
        chunks = chunk_text(text, max_chars=100, overlap=20)
        assert len(chunks) > 1
        # consecutive chunks share the overlap region
        assert chunks[1].startswith(chunks[0][-20:])


class TestScalars:
    def test_extract_numbers(self):
        # NB: a bare 4-digit run ("2024") does NOT match the reference's
        # comma-grouped pattern (\b\d{1,3}(,\d{3})*(\.\d{1,2})?\b).
        assert extract_numbers("Revenue was 1,234,567.89 in 2024") == ["1,234,567.89"]
        assert extract_numbers("Cost: 950 units at 12.50 each") == ["950", "12.50"]

    def test_extract_dates(self):
        found = extract_dates("Due 2024-01-15 and also March 3, 2024 and 12/25/2023")
        assert "2024-01-15" in found
        assert "March 3, 2024" in found
        assert "12/25/2023" in found

    def test_normalize_whitespace(self):
        assert normalize_whitespace("  a\t\tb \n c  ") == "a b c"

    def test_remove_headers_footers(self):
        text = "Page 1\nReal content line here\n42\n---\nab\nAnother real line"
        assert remove_page_headers_footers(text) == "Real content line here\nAnother real line"


class TestDetectLicense:
    def test_specific_cc_variants_outrank_plain(self):
        from query_suite.functions.text_utils import detect_license

        r = detect_license("Creative Commons Attribution-NonCommercial 4.0")
        assert r["license"] == "cc-by-nc" and not r["allows_commercial"]
        r = detect_license("creative commons attribution 4.0")
        assert r["license"] == "cc-by" and r["allows_commercial"]
        r = detect_license("under the MIT License terms")
        assert r["license"] == "mit"

    def test_unknown_grants_nothing(self):
        from query_suite.functions.text_utils import detect_license

        r = detect_license("All rights reserved.")
        assert r == {"license": "unknown", "allows_commercial": False,
                     "allows_derivatives": False}


class TestDehyphenate:
    def test_joins_breaks_keeps_compounds(self):
        from query_suite.functions.text_utils import dehyphenate

        assert dehyphenate("exam-\nple text") == "example text"
        assert dehyphenate("well-known term") == "well-known term"
        assert dehyphenate("end-\n") == "end-\n"      # no following letter
        assert dehyphenate("a -\nb stays") == "a -\nb stays"  # space before
        assert dehyphenate("multi-\nline hy-\nphen") == "multiline hyphen"


class TestExtractIdentifiers:
    def test_doi_trim_and_arxiv_version_drop(self):
        from query_suite.functions.text_utils import extract_identifiers

        out = extract_identifiers(
            "as shown (DOI:10.1038/s41586-020-2649-2), and arXiv:2101.00027v3."
        )
        assert ("doi", "10.1038/s41586-020-2649-2") in out
        assert ("arxiv", "2101.00027") in out

    def test_no_false_positives_on_plain_text(self):
        from query_suite.functions.text_utils import extract_identifiers

        assert extract_identifiers("version 10.2 of the spec shipped") == []


@settings(max_examples=500, deadline=None)
@given(text=st.text(max_size=300) | st.text(alphabet="ab .,\x01\x7fé　", max_size=60))
def test_vectorized_predicate_equals_reference_port(text):
    """is_garbage_text is a numpy rewrite of the reference loop; the literal
    port (_is_garbage_text_reference) is its oracle on arbitrary text."""
    assert is_garbage_text(text) == _is_garbage_text_reference(text)
