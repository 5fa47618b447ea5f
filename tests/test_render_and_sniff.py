"""Render-format byte checks and sniff-dispatch agreement tests."""

import pyarrow as pa

from service1_text_extraction_ray.functions.render import (
    combine_pages,
    page_markdown,
    recreate_text_with_layout,
)
from service1_text_extraction_ray.functions.sniff import (
    KIND_HTML,
    KIND_OTHER,
    KIND_PDF,
    sniff_payload,
    sniff_table,
    stable_shard_id,
)


class TestRenderFormats:
    def test_page_markdown_bytes(self):
        # document_text_extraction_service.py:655-658 format
        assert page_markdown(3, "dom", "body text") == "# Page 3 - DOM\n\nbody text"
        assert page_markdown(1, "pdf_text", "x") == "# Page 1 - PDF_TEXT\n\nx"

    def test_combine_pages_bytes(self):
        # core_pdf_processor.py:807-811 format, stripped
        out = combine_pages([(1, "first"), (2, ""), (3, "third")])
        assert out == "--- PAGE 1 ---\nfirst\n\n--- PAGE 3 ---\nthird"

    def test_combine_pages_skips_whitespace_only(self):
        assert combine_pages([(1, "  \n ")]) == ""

    def test_recreate_text_with_layout_thresholds(self):
        layout = {
            "blocks": [
                {
                    "bbox": [0, 0, 100, 20],
                    "lines": [
                        {"bbox": [0, 0, 100, 12], "spans": [{"text": "first line"}]},
                        # gap 16 > 15 -> blank line inserted after previous
                        {"bbox": [40, 16, 100, 28], "spans": [{"text": "indented"}]},
                    ],
                },
                # block gap 30 - 20 = 10, NOT > 10 -> no blank line
                {
                    "bbox": [0, 30, 100, 42],
                    "lines": [{"bbox": [0, 30, 100, 42], "spans": [{"text": "second block"}]}],
                },
            ]
        }
        out = recreate_text_with_layout("", layout)
        # x=40 -> indent level 2 -> 4 spaces
        assert out == "first line\n\n    indented\nsecond block"


class TestSniff:
    def test_scalar_kinds(self):
        assert sniff_payload(b"%PDF-1.4 ...") == KIND_PDF
        assert sniff_payload(b"<html>") == KIND_HTML
        assert sniff_payload(b"  \n\t<!DOCTYPE html>") == KIND_HTML
        assert sniff_payload(b"\xef\xbb\xbf<html>") == KIND_HTML
        # printable non-markup now classifies as plain text (the text
        # content kind); binary stays other
        assert sniff_payload(b"random bytes") == "text"
        assert sniff_payload(b"\xe5\x1f\x00junk") == KIND_OTHER
        assert sniff_payload(b"") == KIND_OTHER
        assert sniff_payload(None) == KIND_OTHER
        assert sniff_payload(b"%PDF") == KIND_OTHER  # truncated magic

    def test_vector_scalar_agreement(self):
        payloads = [
            b"%PDF-1.4 x", b"<html>", b"  <div>", b"\xef\xbb\xbf<p>", b"junk",
            b"", None, b"%PDF", b"\x00\x01binary",
            # BOM + text with a few non-ASCII bytes in its first 64: the
            # BOM counts against the printable share, so this is "other"
            b"\xef\xbb\xbf" + "Release notes for the café menu, crème "
            "section. All items are listed below.".encode(),
        ]
        urls = [f"https://e/{i}" for i in range(len(payloads))]
        t = pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "html": pa.array(payloads, pa.binary()),
            }
        )
        paths = ["/in/a.parquet"] * 4 + ["/in/b.parquet"] * 6
        t = t.append_column("path", pa.array(paths, pa.string()))
        out = sniff_table(t, size_bucket_edges=(4, 8))
        got = out["content_kind"].to_pylist()
        want = [sniff_payload(p) for p in payloads]
        assert got == want
        # shard = input file (deterministic per basename); path column dropped
        sids = out["shard_id"].to_pylist()
        assert sids == [stable_shard_id(p) for p in paths]
        assert len(set(sids)) == 2
        assert "path" not in out.column_names
        # payload_len null-safe
        assert out["payload_len"].to_pylist()[6] == 0

    def test_sniff_fallback_without_path(self):
        t = pa.table(
            {
                "url": pa.array(["https://e/1", "https://e/2"], pa.string()),
                "html": pa.array([b"<p>", b"%PDF-1.4"], pa.binary()),
            }
        )
        out = sniff_table(t, size_bucket_edges=(4, 8))
        assert out["content_kind"].to_pylist() == ["html", "pdf"]
        assert all(0 <= s < 256 for s in out["shard_id"].to_pylist())


class TestPageRenderStub:
    def test_png_is_valid_and_deterministic(self):
        import base64
        import zlib

        from query_suite.stages.multimodal import (
            render_page_placeholder,
            write_gray_png,
        )

        png = write_gray_png(10, 7, 128)
        assert png.startswith(b"\x89PNG\r\n\x1a\n")
        assert b"IHDR" in png and b"IDAT" in png and png.endswith(
            b"\x00\x00\x00\x00IEND\xaeB`\x82"
        )
        # decode the IDAT back: 7 scanlines of filter-0 + 10 gray bytes
        idat_start = png.index(b"IDAT") + 4
        idat_len = int.from_bytes(png[png.index(b"IDAT") - 4 : png.index(b"IDAT")], "big")
        raw = zlib.decompress(png[idat_start : idat_start + idat_len])
        assert raw == (b"\x00" + b"\x80" * 10) * 7

        r1 = render_page_placeholder("some page text", '{"width": 612, "height": 792}')
        r2 = render_page_placeholder("some page text", '{"width": 612, "height": 792}')
        assert r1 == r2
        assert r1["render_ok"] is False
        assert r1["height_px"] == 64  # long edge capped
        assert 0 < r1["width_px"] < 64
        base64.b64decode(r1["png_b64"])  # round-trips

    def test_render_batch_shape(self):
        import pyarrow as pa

        from query_suite.stages.multimodal import (
            RENDER_SCHEMA,
            render_pages_batch,
        )

        batch = pa.Table.from_pylist(
            [
                {"url": "u1", "page": 1, "extracted_text": "hello", "layout_json": ""},
                {"url": "u1", "page": 2, "extracted_text": "", "layout_json": None},
            ],
            schema=pa.schema(
                [("url", pa.string()), ("page", pa.int32()),
                 ("extracted_text", pa.string()), ("layout_json", pa.string())]
            ),
        )
        out = render_pages_batch(batch)
        assert out.schema == RENDER_SCHEMA
        assert out.num_rows == 2
        assert out["render_ok"].to_pylist() == [False, False]


class TestPlainTextKind:
    def test_scalar_table_agreement_on_text(self, ray_session):
        import pyarrow as pa

        from service1_text_extraction_ray.functions.sniff import (
            sniff_payload,
            sniff_table,
        )

        payloads = [
            b"Plain readable file with words and lines.\nSecond line.",
            b"%PDF",                    # truncated stub stays other
            b"\xe5\x1f\xb8\x00binary",  # binary stays other
            b"<html><body>x</body></html>",
            b"% a printable but commenty file that reads as text anyway",
            None,
        ]
        t = pa.table({
            "url": pa.array([f"u{i}" for i in range(len(payloads))]),
            "html": pa.array(payloads, pa.binary()),
        })
        out = sniff_table(t, (1024, 65536))
        table_kinds = out["content_kind"].to_pylist()
        scalar_kinds = [sniff_payload(p) for p in payloads]
        assert table_kinds == scalar_kinds
        assert scalar_kinds[0] == "text" and scalar_kinds[4] == "text"
        assert scalar_kinds[1] == "other" and scalar_kinds[2] == "other"

    def test_texty_threshold(self):
        from service1_text_extraction_ray.functions.sniff import _is_texty

        # exactly 90% printable passes; below fails
        head = b"a" * 58 + b"\xff" * 6   # 58/64 = 90.6%
        assert _is_texty(head)
        head = b"a" * 56 + b"\xff" * 8   # 87.5%
        assert not _is_texty(head)
        assert not _is_texty(b"text with\x00nul")
