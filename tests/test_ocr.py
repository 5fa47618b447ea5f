"""OCR fallback ladder (P5/P6) + real page raster (P14).

Covers: the 5x7 bitmap font's template-index invariants, the stdlib PNG
codec, the from-scratch rasterizer, the deterministic pixel-OCR backend
(segmentation, glyph-scale inference, collision disambiguation,
paragraph blocks), the reference-shaped tesseract layout grouping
(core_pdf_processor.py:492-582 quirks), the gate->OCR wiring in
extract_document (:391-416), and exact planted-text recovery over the
scanned synthetic corpora.
"""

import base64
import json

import numpy as np
import pyarrow as pa
import pytest


def _layout(spans_def, width=612.0, height=792.0):
    """spans_def: list of (text, x, y_top, size) -> minimal layout tree."""
    return {
        "width": width,
        "height": height,
        "blocks": [
            {
                "bbox": [x, y, x + 6.0 * len(t), y + s],
                "lines": [
                    {
                        "bbox": [x, y, x + 6.0 * len(t), y + s],
                        "spans": [
                            {
                                "text": t,
                                "bbox": [x, y, x + 6.0 * len(t), y + s],
                                "size": s,
                                "font": "F1",
                                "flags": 0,
                            }
                        ],
                    }
                ],
            }
            for (t, x, y, s) in spans_def
        ],
    }


class TestBitFont:
    def test_all_glyphs_distinct_and_collisions_resolvable(self):
        from service1_text_extraction_ray.functions.bitfont import (
            FONT_5X7,
            GLYPH_INDEX,
            glyph_array,
        )

        # every printable-ASCII glyph present, raw bitmaps unique (space
        # excluded: blank by design)
        assert set(FONT_5X7) == {chr(c) for c in range(0x20, 0x7F)}
        raw = {ch: glyph_array(ch).tobytes() for ch in FONT_5X7 if ch != " "}
        assert len(set(raw.values())) == len(raw)

        # trimmed-template collisions: exactly the two known classes, each
        # disambiguated by in-cell top offset (the line-anchor scheme)
        coll = [v for v in GLYPH_INDEX.by_shape.values() if len(v) > 1]
        classes = sorted(tuple(c for c, _, _ in v) for v in coll)
        assert classes == [("'", ","), ("-", "_")]
        for v in coll:
            tops = [t for _, t, _ in v]
            assert len(set(tops)) == len(tops)

    def test_kron_blockreduce_inverse(self):
        from service1_text_extraction_ray.functions.bitfont import (
            glyph_array,
            render_text_bitmap,
        )
        from service1_text_extraction_ray.functions.ocr import _block_reduce_any

        for k in (1, 2, 3):
            bmp = render_text_bitmap("Q", k)[:, : 5 * k]  # strip advance gap
            assert _block_reduce_any(bmp, k).tobytes() == glyph_array("Q").tobytes()


class TestPngCodec:
    def test_array_round_trip(self):
        from service1_text_extraction_ray.functions.page_render import (
            read_gray_png,
            write_gray_png_array,
        )

        rng = np.random.default_rng(7)
        arr = rng.integers(0, 256, size=(33, 57), dtype=np.uint8)
        assert (read_gray_png(write_gray_png_array(arr)) == arr).all()

    def test_all_five_filters_decode(self):
        import struct
        import zlib

        from service1_text_extraction_ray.functions.page_render import read_gray_png

        def chunk(tag, p):
            crc = zlib.crc32(tag + p) & 0xFFFFFFFF
            return struct.pack(">I", len(p)) + tag + p + struct.pack(">I", crc)

        rng = np.random.default_rng(11)
        arr = rng.integers(0, 256, size=(5, 6), dtype=np.uint8)
        # encode row y with filter type y (0..4), per the ISO definitions
        rows, prev = b"", np.zeros(6, dtype=np.int32)
        for y in range(5):
            cur = arr[y].astype(np.int32)
            ftype = y
            enc = np.zeros(6, dtype=np.int32)
            for x in range(6):
                left = int(cur[x - 1]) if x else 0
                up = int(prev[x])
                ul = int(prev[x - 1]) if x else 0
                if ftype == 0:
                    pred = 0
                elif ftype == 1:
                    pred = left
                elif ftype == 2:
                    pred = up
                elif ftype == 3:
                    pred = (left + up) // 2
                else:
                    p = left + up - ul
                    pa_, pb, pc_ = abs(p - left), abs(p - up), abs(p - ul)
                    pred = left if (pa_ <= pb and pa_ <= pc_) else (up if pb <= pc_ else ul)
                enc[x] = (int(cur[x]) - pred) & 0xFF
            rows += bytes([ftype]) + bytes(enc.astype(np.uint8))
            prev = cur
        png = (
            b"\x89PNG\r\n\x1a\n"
            + chunk(b"IHDR", struct.pack(">IIBBBBB", 6, 5, 8, 0, 0, 0, 0))
            + chunk(b"IDAT", zlib.compress(rows))
            + chunk(b"IEND", b"")
        )
        assert (read_gray_png(png) == arr).all()


class TestRasterizer:
    def test_deterministic_and_scaled(self):
        from service1_text_extraction_ray.functions.page_render import rasterize_page

        lay = _layout([("Hello World", 40, 60, 12)], width=200, height=100)
        a = rasterize_page(lay, scale=2.0)
        b = rasterize_page(lay, scale=2.0)
        assert a.shape == (200, 400) and (a == b).all() and (a == 0).any()

    def test_render_page_paths(self):
        from query_suite.stages.multimodal import render_page

        lay = _layout([("Some text on the page", 40, 60, 12)])
        real = render_page("Some text on the page", json.dumps(lay))
        assert real["render_ok"] is True
        assert (real["width_px"], real["height_px"]) == (612, 792)
        base64.b64decode(real["png_b64"])
        # empty/missing layout keeps the deterministic placeholder
        assert render_page("txt", "")["render_ok"] is False
        assert render_page("txt", '{"width": 612, "height": 792}')["render_ok"] is False

    def test_image_blit_and_unknown_image_box(self):
        from service1_text_extraction_ray.functions.page_render import rasterize_page

        src = np.zeros((4, 4), dtype=np.uint8)  # all-ink source
        imgs = [
            {"bbox": [10, 10, 20, 20], "width": 4, "height": 4,
             "gray": src.tobytes()},
            {"bbox": [30, 30, 40, 40], "width": 9, "height": 9, "gray": None},
        ]
        c = rasterize_page({"width": 50, "height": 50, "blocks": []},
                           images=imgs, scale=1.0)
        assert (c[10:20, 10:20] == 0).all()
        assert (c[30:40, 30:40] == 160).all()
        assert c[0, 0] == 255


class TestFakeOcr:
    def _png(self, spans_def, scale=2.0):
        from service1_text_extraction_ray.functions.page_render import (
            rasterize_page,
            write_gray_png_array,
        )

        return write_gray_png_array(rasterize_page(_layout(spans_def), scale=scale))

    def test_round_trip_pangrams_and_punctuation(self):
        from service1_text_extraction_ray.functions.ocr import FakeOcrBackend

        lines = [
            "The quick brown fox jumps over 13 lazy dogs!",
            "Pack my box with five dozen liquor jugs?",
            "It's a test-case: (all) [of] {the} punctuation, yes; 50% + 2*3 = 56/1.",
            "under_scored and dashed-words disambiguate by anchor",
        ]
        png = self._png([(t, 40, 60 + 16 * i, 12) for i, t in enumerate(lines)])
        out = FakeOcrBackend().image_to_string(png)
        assert out.split("\n") == lines

    def test_round_trip_mixed_glyph_scales(self):
        from service1_text_extraction_ray.functions.ocr import FakeOcrBackend

        png = self._png(
            [("Big Heading", 40, 50, 20),
             ("small body text here", 40, 120, 10),
             ("second body line below", 40, 140, 10)]
        )
        # heading is far above the body -> its own paragraph block
        assert FakeOcrBackend().image_to_string(png) == (
            "Big Heading\n\nsmall body text here\nsecond body line below"
        )

    def test_dotted_words_single_band(self):
        # "join" has no ink at glyph row 1: the band-merge must keep the
        # dots of i/j attached to their bodies (regression: read as ". .")
        from service1_text_extraction_ray.functions.ocr import FakeOcrBackend

        png = self._png([("join in jijn", 40, 60, 12)])
        assert FakeOcrBackend().image_to_string(png) == "join in jijn"

    def test_layout_grouping_reference_quirks(self):
        from service1_text_extraction_ray.functions.ocr import ocr_layout_from_data

        data = {
            "text": ["Hello", "world", "", "low", "next"],
            "conf": [95, 95, -1, 20, 95],
            "left": [10, 60, 0, 90, 12],
            "top": [10, 12, 0, 11, 60],
            "width": [40, 40, 0, 20, 40],
            "height": [10, 10, 0, 10, 10],
        }
        lay = ocr_layout_from_data(data, 200, 100)
        assert (lay["width"], lay["height"]) == (200, 100)
        # empty + conf<30 rows skipped; y-gap 50 opens a second block
        assert len(lay["blocks"]) == 2
        b0 = lay["blocks"][0]
        # quirk: block bbox stays the FIRST word's bbox and "y" keys remain
        assert b0["bbox"] == [10, 10, 50, 20] and b0["y"] == 10
        spans = b0["lines"][0]["spans"]
        assert [s["text"] for s in spans] == ["Hello", "world"]
        assert all(s["font"] == "tesseract" and s["flags"] == 0 for s in spans)
        assert spans[0]["size"] == 10  # size = word height

    def test_unknown_backend_name_raises(self):
        from service1_text_extraction_ray.functions.ocr import get_ocr_backend

        with pytest.raises(ValueError):
            get_ocr_backend("no-such-backend")
        assert get_ocr_backend(None) is None


class TestScannedPdfParsing:
    def test_image_xobject_surfaced_and_text_empty(self):
        import random

        from service1_text_extraction_ray.functions.pdf_extract import parse_pdf
        from service1_text_extraction_ray.functions.synth import make_scanned_pdf

        pdf = make_scanned_pdf([["One line of pixels"]], random.Random(3))
        pages = parse_pdf(pdf)
        assert len(pages) == 1
        assert pages[0].text == "" and pages[0].layout["blocks"] == []
        (img,) = pages[0].images
        assert img["bbox"] == [0.0, 0.0, 612.0, 792.0]
        assert (img["width"], img["height"]) == (1224, 1584)
        assert len(img["gray"]) == 1224 * 1584

    def test_ctm_translation_scale_placement(self):
        # hand-built PDF placing a 2x2 image at [100,500]..[150,560]
        from service1_text_extraction_ray.functions.pdf_extract import parse_pdf

        img_data = bytes([0, 64, 128, 255])
        content = b"q 50 0 0 60 100 500 cm /Im0 Do Q\n"
        objs = [
            b"<< /Type /Catalog /Pages 2 0 R >>",
            b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>",
            b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
            b"/Contents 4 0 R /Resources << /XObject << /Im0 5 0 R >> >> >>",
            b"<< /Length " + str(len(content)).encode() + b" >>\nstream\n"
            + content + b"\nendstream",
            b"<< /Type /XObject /Subtype /Image /Width 2 /Height 2 "
            b"/ColorSpace /DeviceGray /BitsPerComponent 8 /Length 4 >>\nstream\n"
            + img_data + b"\nendstream",
        ]
        out = bytearray(b"%PDF-1.4\n")
        offsets = [0]
        for num, body in enumerate(objs, start=1):
            offsets.append(len(out))
            out += f"{num} 0 obj\n".encode() + body + b"\nendobj\n"
        xref_pos = len(out)
        out += f"xref\n0 {len(objs) + 1}\n".encode() + b"0000000000 65535 f \n"
        for off in offsets[1:]:
            out += f"{off:010d} 00000 n \n".encode()
        out += (
            f"trailer\n<< /Size {len(objs) + 1} /Root 1 0 R >>\n"
            f"startxref\n{xref_pos}\n%%EOF\n".encode()
        )
        (page,) = parse_pdf(bytes(out))
        (img,) = page.images
        # pdf-space rect [100,500]..[150,560] -> top-down y: 792-560=232
        assert img["bbox"] == [100.0, 232.0, 150.0, 292.0]
        assert img["gray"] == img_data


class TestExtractOcrLadder:
    def test_no_backend_parity_failed(self):
        import random

        from service1_text_extraction_ray.functions.extract import (
            ExtractConfig,
            extract_document,
        )
        from service1_text_extraction_ray.functions.synth import make_scanned_pdf

        pdf = make_scanned_pdf([["Pixels only on this page"]], random.Random(5))
        r = extract_document("u", pdf, ExtractConfig())
        assert [p["method"] for p in r["pages"]] == ["failed"]
        assert r["pages"][0]["text"] == ""

    def test_fake_backend_recovers_with_layout(self):
        import random

        from service1_text_extraction_ray.functions.extract import (
            ExtractConfig,
            extract_document,
        )
        from service1_text_extraction_ray.functions.synth import make_scanned_pdf

        lines = ["Alpha beta gamma delta epsilon", "zeta eta theta iota kappa"]
        pdf = make_scanned_pdf([lines], random.Random(5))
        r = extract_document("u", pdf, ExtractConfig(ocr_backend="fake"))
        (pg,) = r["pages"]
        assert pg["method"] == "tesseract"
        assert pg["text"] == "\n".join(lines)
        lay = json.loads(pg["layout_json"])
        # OCR layout dims are the 2x-zoom image dims (reference parity)
        assert (lay["width"], lay["height"]) == (1224, 1584)
        words = [s["text"] for ln in lay["blocks"][0]["lines"] for s in ln["spans"]]
        assert words[:3] == ["Alpha", "beta", "gamma"]
        assert all(
            s["font"] == "tesseract"
            for b in lay["blocks"] for ln in b["lines"] for s in ln["spans"]
        )

    def test_scanned_corpus_exact_recovery(self):
        from service1_text_extraction_ray.functions.extract import (
            ExtractConfig,
            extract_document,
        )
        from service1_text_extraction_ray.functions.synth import make_scanned_row

        cfg = ExtractConfig(ocr_backend="fake")
        for i in range(24):
            row = make_scanned_row(i)
            r = extract_document(row["url"], row["html"], cfg)
            assert r["doc_text"] == row["text"], f"doc {i} mismatch"
            assert all(p["method"] == "tesseract" for p in r["pages"])

    def test_unknown_backend_name_fails_fast(self):
        from service1_text_extraction_ray.functions.extract import ExtractConfig

        # a config bug is refused before any document is read, naming the
        # field, instead of turning every gate-failed PDF into a failure row
        with pytest.raises(ValueError, match="ocr_backend"):
            ExtractConfig(ocr_backend="nope")
        assert ExtractConfig(ocr_backend="fake").ocr_backend == "fake"
        assert ExtractConfig(ocr_backend=None).ocr_backend is None


class TestOcrQueries:
    def test_ocr_eval_exact_rate_is_one(self, ray_session):
        from query_suite.pipelines import queries as Q

        rows = Q.q_ocr_eval("/root/testdata/sf0.001").take_all()
        assert len(rows) == 500
        assert all(r["exact"] for r in rows)
        assert all(r["ocr_pages"] == r["n_pages"] for r in rows)

    def test_extract_ocr_page_grain(self, ray_session):
        from query_suite.pipelines import queries as Q

        rows = Q.q_extract_ocr("/root/testdata/sf0.001").take(50)
        assert rows and all(r["method"] == "tesseract" for r in rows)
        assert all(r["n_chars"] > 0 for r in rows)

    def test_scanned_extraction_cache_keeps_each_sf_dir_of_a_session(self, monkeypatch):
        """One session's extractions of two corpora both stay cached, so
        alternating them runs each OCR pass once; a new session drops the
        old session's entries."""
        import types

        from query_suite.pipelines import queries as Q
        from query_suite.sources import page_formats

        built = []

        class Scanned:
            def __init__(self, sf_dir):
                self.sf_dir = sf_dir

            def map_batches(self, *args, **kwargs):
                return self

            def materialize(self):
                built.append(self.sf_dir)
                return self

        session = ["job-1"]
        context = types.SimpleNamespace(get_job_id=lambda: session[0])
        monkeypatch.setattr(page_formats, "documents_to_scanned_pages", Scanned)
        monkeypatch.setattr(Q.ray, "get_runtime_context", lambda: context)
        monkeypatch.setattr(Q, "_SCANNED_EXTRACTION_CACHE", {})
        for sf_dir in ("a", "b", "a", "b"):
            assert Q._scanned_extraction(sf_dir).sf_dir == sf_dir
        assert built == ["a", "b"]
        assert set(Q._SCANNED_EXTRACTION_CACHE) == {("job-1", "a"), ("job-1", "b")}
        session[0] = "job-2"
        Q._scanned_extraction("a")
        assert built == ["a", "b", "a"]
        assert set(Q._SCANNED_EXTRACTION_CACHE) == {("job-2", "a")}


class TestOcrJobIntegration:
    def test_job_with_ocr_backend_over_scanned_parquet(self, ray_session, tmp_path):
        """Job-level OCR wiring (the --ocr-backend CLI path): a scanned-only
        parquet corpus (image-XObject PDFs, no text operators) runs through
        run_extraction_job with ocr_backend="fake"; every page must come
        back method="tesseract" with the planted text recovered, and the
        same corpus WITHOUT a backend must take the reference's no-tesseract
        failed branch — same rows, zero recovered text."""
        import random

        import pyarrow as pa
        import pyarrow.parquet as pq

        from service1_text_extraction_ray.functions.extract import ExtractConfig
        from service1_text_extraction_ray.functions.synth import (
            EPOCH_US, PAGES_SCHEMA, make_scanned_pdf,
        )
        from service1_text_extraction_ray.pipelines.extract_pipeline import (
            run_extraction_job,
        )
        from service1_text_extraction_ray.state import lineage as L

        rows = []
        for i in range(40):
            rng = random.Random(900 + i)
            payload = make_scanned_pdf(
                [[f"scan doc {i} line one", "the quick brown fox"],
                 [f"page two of doc {i}"]],
                rng,
            )
            rows.append({
                "url": f"https://scans.example/job/{i:04d}",
                "warc_ts": EPOCH_US + i * 1_000_000,
                "html": payload,
                "text": "",
                "lang": "en",
            })
        inp = str(tmp_path / "scans")
        import os

        os.makedirs(inp)
        pq.write_table(
            pa.Table.from_pylist(rows, schema=PAGES_SCHEMA),
            os.path.join(inp, "part-0.parquet"),
        )

        out_ocr = str(tmp_path / "out_ocr")
        s = run_extraction_job(inp, out_ocr, ExtractConfig(ocr_backend="fake"))
        assert s["n_docs"] == 40
        assert s["n_pages"] == 80
        assert s["n_pages_ok"] == 80  # every page recovered via OCR
        t = L.read_all(out_ocr)
        texts = dict(zip(t["url"].to_pylist(), t["doc_text"].to_pylist()))
        assert f"scan doc 7 line one" in texts["https://scans.example/job/0007"]
        assert "page two of doc 7" in texts["https://scans.example/job/0007"]

        out_plain = str(tmp_path / "out_plain")
        s2 = run_extraction_job(inp, out_plain, ExtractConfig())
        assert s2["n_docs"] == 40 and s2["n_pages"] == 80
        assert s2["n_pages_ok"] == 0  # no backend -> failed-branch parity
