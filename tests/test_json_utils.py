"""P16 parity: robust JSON sanitize/parse suite (functions/json_utils.py,
re-implementing backend/core/json_utils.py semantics)."""

import json

import pytest

from query_suite.functions.json_utils import (
    merge_objects,
    parse_relaxed,
    safe_json_loads,
    sanitize_json_string,
    strip_markdown_fence,
    validate_structure,
)


class TestSanitize:
    def test_valid_json_untouched(self):
        s = '{"a": 1, "b": "x\\"y"}'
        assert sanitize_json_string(s) == s

    def test_trailing_comma_removed(self):
        assert json.loads(sanitize_json_string('{"a": 1,}')) == {"a": 1}
        assert json.loads(sanitize_json_string('[1, 2, 3,]')) == [1, 2, 3]

    def test_raw_newline_in_value_escaped(self):
        s = '{"a": "line1\nline2"}'
        assert json.loads(sanitize_json_string(s)) == {"a": "line1\nline2"}

    def test_apostrophe_fixes(self):
        out = sanitize_json_string('{"co": "Domino\'s", "x": "Acme\'s  Inc",}')
        parsed = json.loads(out)
        assert parsed["co"].startswith("Domino")
        assert "'" not in parsed["x"]

    def test_sanitize_is_monotone(self):
        # unlike the reference's quote pass (which drops the delimiter after a
        # repaired value — json_utils.py:56-67), repair keeps separators
        s = '{"a": "x", "b": 2,}'
        assert json.loads(sanitize_json_string(s)) == {"a": "x", "b": 2}


class TestSafeLoads:
    def test_plain(self):
        assert safe_json_loads('{"k": [1, 2]}') == {"k": [1, 2]}

    def test_recovers_trailing_comma(self):
        assert safe_json_loads('{"k": 1,}') == {"k": 1}

    def test_unrecoverable_raises(self):
        with pytest.raises(json.JSONDecodeError):
            safe_json_loads("not json at all {{{")

    def test_no_sanitization_flag(self):
        with pytest.raises(json.JSONDecodeError):
            safe_json_loads('{"k": 1,}', use_sanitization=False)


class TestParseRelaxed:
    def test_direct(self):
        assert parse_relaxed('{"a": 1}') == ({"a": 1}, True)

    def test_fenced_block(self):
        text = 'Here you go:\n```json\n{"a": 1}\n```\nthanks'
        assert parse_relaxed(text) == ({"a": 1}, True)

    def test_bare_braces_in_prose(self):
        assert parse_relaxed('result is {"a": 2} ok?') == ({"a": 2}, True)

    def test_nested_object_in_prose(self):
        # balanced-brace scan (the reference's lazy regex truncates at the
        # first closing brace and loses nested objects)
        assert parse_relaxed('The result: {"a": {"b": 1}} done') == ({"a": {"b": 1}}, True)

    def test_bad_candidate_falls_through_to_later_valid_json(self):
        # strategy cascade continues past parse failures (the reference's
        # single try/except aborts the whole cascade)
        text = 'mapping {x: 1} and later {"ok": true}'
        assert parse_relaxed(text) == ({"ok": True}, True)

    def test_empty_and_garbage(self):
        assert parse_relaxed("") == ({}, False)
        assert parse_relaxed("   ") == ({}, False)
        assert parse_relaxed("no json here") == ({}, False)


class TestStructureHelpers:
    def test_strip_markdown_fence(self):
        assert strip_markdown_fence('```json\n{"a": 1}\n```') == '{"a": 1}'
        assert strip_markdown_fence('{"a": 1}') == '{"a": 1}'

    def test_validate(self):
        assert validate_structure({"a": 1, "b": 2}, ["a"]) == (True, [])
        assert validate_structure({"a": 1}, ["a", "z"]) == (False, ["z"])
        assert validate_structure([1], ["a"]) == (False, ["Data is not a dictionary"])

    def test_merge_later_wins_non_dicts_skipped(self):
        assert merge_objects({"a": 1}, {"a": 2, "b": 3}, None, [4]) == {"a": 2, "b": 3}


class TestLayoutStatsQuery:
    def test_counts_match_layout_trees(self, ray_session, tmp_path):
        """layout_stats must agree with a direct parse of the same pages."""
        import json as _json

        import pyarrow.parquet as pq

        from service1_text_extraction_ray.functions.synth import write_pages_parquet
        from query_suite.pipelines.queries import q_layout_stats
        from query_suite.sources.page_formats import documents_to_pages

        # Build a tiny documents.parquet so documents_to_pages can synthesize
        import pyarrow as pa

        rows = [{"doc_id": i, "text": f"doc {i} body text", "lang": "en", "n_chars": 16}
                for i in range(20)]
        d = tmp_path / "sf"
        d.mkdir()
        pq.write_table(pa.Table.from_pylist(rows), str(d / "documents.parquet"))

        out = q_layout_stats(str(d)).to_pandas().set_index(["url", "page"]).sort_index()
        assert len(out) > 0
        assert out["n_blocks"].sum() > 0

        # Direct recomputation from the same pages' layout_json must agree
        # exactly, per (url, page).
        from service1_text_extraction_ray.pipelines.extract_pipeline import (
            extract_pages_dataset,
        )
        from query_suite.sources.page_formats import documents_to_pages

        pages = (
            extract_pages_dataset(documents_to_pages(str(d)))
            .select_columns(["url", "page", "layout_json"])
            .to_pandas()
        )
        for _, row in pages.iterrows():
            layout = _json.loads(row["layout_json"]) if row["layout_json"] else {}
            blocks = layout.get("blocks", [])
            lines = [l for b in blocks for l in b.get("lines", [])]
            got = out.loc[(row["url"], row["page"])]
            assert got["n_blocks"] == len(blocks)
            assert got["n_lines"] == len(lines)
            assert got["n_spans"] == sum(len(l.get("spans", [])) for l in lines)


class TestParseRelaxedRobustness:
    def test_unclosed_brace_does_not_swallow_later_json(self):
        assert parse_relaxed('log { unclosed ... payload {"ok": 1} follows') == ({"ok": 1}, True)

    def test_valid_json_nested_in_unparseable_span(self):
        assert parse_relaxed('x {bad {"ok": 1}} y') == ({"ok": 1}, True)

    def test_adversarial_many_spans_bounded(self):
        import time

        from query_suite.functions.json_utils import MAX_PARSE_ATTEMPTS

        text = "{a}" * 50_000
        t0 = time.monotonic()
        assert parse_relaxed(text) == ({}, False)
        assert time.monotonic() - t0 < 2.0  # attempt cap bounds the work
        assert MAX_PARSE_ATTEMPTS <= 32
