"""Source-format interop: the WARC, JSONL and CSV pages sources must produce
the same per-url extraction (content hash, status, pages) as the parquet
source on the same logical rows, salvage damaged shards in tolerant mode, and
list their inputs like the parquet path."""

import pandas as pd
import pyarrow as pa
import pytest


class TestJsonlPagesSource:
    def test_roundtrip_and_extraction_parity(self, ray_session, tmp_path):
        from service1_text_extraction_ray.functions.synth import gen_pages_table
        from service1_text_extraction_ray.pipelines.extract_pipeline import (
            extract_dataset,
        )
        from query_suite.sources.page_formats import (
            read_pages_jsonl,
            write_pages_jsonl,
        )
        import ray.data as rd

        pages = gen_pages_table(60, seed=42)
        jl = tmp_path / "pages_jsonl"
        write_pages_jsonl(rd.from_arrow(pages), str(jl))
        back = read_pages_jsonl(str(jl))

        got = back.take_all()
        exp = {r["url"]: r for r in pages.to_pylist()}
        assert len(got) == 60
        for r in got:
            e = exp[r["url"]]
            assert r["html"] == e["html"]          # binary survives base64
            assert r["warc_ts"] == e["warc_ts"]    # timestamp survives ISO-8601
            assert (r["text"], r["lang"]) == (e["text"], e["lang"])

        def doc_map(ds):
            out = extract_dataset(ds).select_columns(
                ["url", "content_hash", "status", "n_pages"]
            )
            return {r["url"]: (r["content_hash"], r["status"], r["n_pages"])
                    for r in out.take_all()}

        assert doc_map(read_pages_jsonl(str(jl))) == doc_map(rd.from_arrow(pages))

class TestWarcPagesSource:
    def test_roundtrip_and_extraction_parity(self, ray_session, tmp_path):
        from service1_text_extraction_ray.functions.synth import gen_pages_table
        from service1_text_extraction_ray.pipelines.extract_pipeline import (
            extract_dataset,
        )
        from service1_text_extraction_ray.sources.pages_source import (
            read_pages_warc,
            write_pages_warc,
        )
        import ray.data as rd

        pages = gen_pages_table(60, seed=42)
        wd = tmp_path / "pages_warc"
        n_shards = write_pages_warc(rd.from_arrow(pages), str(wd))
        assert n_shards >= 1
        back = read_pages_warc(str(wd))

        got = back.take_all()
        exp = {r["url"]: r for r in pages.to_pylist()}
        assert len(got) == 60
        for r in got:
            e = exp[r["url"]]
            assert r["html"] == e["html"]          # binary length-delimited
            assert r["warc_ts"] == e["warc_ts"]    # microsecond WARC-Date
            assert (r["text"], r["lang"]) == (e["text"], e["lang"])

        def doc_map(ds):
            out = extract_dataset(ds).select_columns(
                ["url", "content_hash", "status", "n_pages"]
            )
            return {r["url"]: (r["content_hash"], r["status"], r["n_pages"])
                    for r in out.take_all()}

        assert doc_map(read_pages_warc(str(wd))) == doc_map(rd.from_arrow(pages))

    def test_idempotent_rewrite(self, ray_session, tmp_path):
        """Content-addressed shard names: re-writing the same rows creates
        no new files (the resumable-output contract)."""
        import os

        from service1_text_extraction_ray.functions.synth import gen_pages_table
        from service1_text_extraction_ray.sources.pages_source import (
            write_pages_warc,
        )
        import ray.data as rd

        pages = gen_pages_table(30, seed=7)
        wd = tmp_path / "warc_idem"
        write_pages_warc(rd.from_arrow(pages), str(wd))
        first = sorted(os.listdir(wd))
        write_pages_warc(rd.from_arrow(pages), str(wd))
        assert sorted(os.listdir(wd)) == first

    def test_gzip_members_roundtrip_and_random_access(
        self, ray_session, tmp_path
    ):
        """Common Crawl .warc.gz layout: every record is an INDEPENDENT
        gzip member. Round-trip parity with the plain path, plus the
        member-boundary property CC index lookups rely on: any single
        member sliced out of the middle of the shard decompresses to one
        complete WARC record on its own."""
        import os

        from service1_text_extraction_ray.functions.synth import gen_pages_table
        from service1_text_extraction_ray.sources.pages_source import (
            read_pages_warc,
            write_pages_warc,
        )
        import ray.data as rd

        pages = gen_pages_table(40, seed=9)
        wd = tmp_path / "pages_warc_gz"
        n = write_pages_warc(rd.from_arrow(pages), str(wd), gzip_members=True)
        assert n >= 1
        names = sorted(os.listdir(wd))
        assert all(nm.endswith(".warc.gz") for nm in names)

        got = {r["url"]: r for r in read_pages_warc(str(wd)).take_all()}
        exp = {r["url"]: r for r in pages.to_pylist()}
        assert len(got) == 40
        for url, e in exp.items():
            r = got[url]
            assert r["html"] == e["html"]
            assert r["warc_ts"] == e["warc_ts"]
            assert (r["text"], r["lang"]) == (e["text"], e["lang"])

        # random access: find the 2nd member boundary by magic scan and
        # decompress ONLY that member
        blob = (wd / names[0]).read_bytes()
        import zlib
        d = zlib.decompressobj(wbits=31)
        d.decompress(blob); d.flush()
        second = d.unused_data
        assert second[:2] == b"\x1f\x8b"
        d2 = zlib.decompressobj(wbits=31)
        rec = d2.decompress(second) + d2.flush()
        assert rec.startswith(b"WARC/1.0\r\n")
        assert rec.endswith(b"\r\n\r\n")

    @staticmethod
    def _warc_file(out_dir):
        """One WARC shard of 20 seeded pages, written without Ray."""
        import os

        from service1_text_extraction_ray.functions.synth import gen_pages_table
        from service1_text_extraction_ray.sources.pages_source import (
            _encode_page_records,
            _write_warc_shard,
        )

        rows = gen_pages_table(20, seed=42).to_pylist()
        os.makedirs(out_dir, exist_ok=True)
        recs = [r for row in rows for r in _encode_page_records(row)]
        return _write_warc_shard(recs, str(out_dir)), sorted(r["url"] for r in rows)

    def test_extracted_rows_carry_the_file_shard_id(self, ray_session, tmp_path):
        """A WARC file's rows get the file's shard id, the id the job
        commits that file under, as parquet rows read by read_pages do."""
        from service1_text_extraction_ray.functions.sniff import stable_shard_id
        from service1_text_extraction_ray.pipelines.extract_pipeline import (
            extract_dataset,
        )
        from service1_text_extraction_ray.sources.pages_source import (
            read_pages_warc,
        )

        path, urls = self._warc_file(tmp_path / "w")
        rows = extract_dataset(read_pages_warc(path)).select_columns(
            ["url", "shard_id"]).take_all()
        assert sorted(r["url"] for r in rows) == urls
        assert {r["shard_id"] for r in rows} == {stable_shard_id(path)}

    def test_reader_and_writer_run_from_foreign_cwd(self, tmp_path):
        """A driver whose cwd is elsewhere and whose sys.path alone holds
        the package must still read and write WARC datasets: each call
        ships the package to the workers itself, with no extraction call
        to do it for them. Each runs in its own driver process."""
        import json
        import os
        import subprocess
        import sys

        from service1_text_extraction_ray.sources.pages_source import (
            read_warc_file,
        )

        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        cwd = tmp_path / "elsewhere"
        cwd.mkdir()
        env = {k: v for k, v in os.environ.items()
               if k not in ("PYTHONPATH", "RAY_ADDRESS")}

        def drive(mode, path):
            res = subprocess.run(
                [sys.executable, "-c", _FOREIGN_WARC_DRIVER, repo, mode, path],
                cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
            )
            assert res.returncode == 0, f"{mode} failed:\n{res.stderr[-4000:]}"
            return json.loads(res.stdout.strip().splitlines()[-1])

        path, urls = self._warc_file(tmp_path / "r")
        assert drive("read", path) == urls
        wdir = str(tmp_path / "w")
        assert drive("write", wdir) == 1
        (name,) = os.listdir(wdir)
        written = read_warc_file(os.path.join(wdir, name))["url"].to_pylist()
        assert sorted(written) == urls


_FOREIGN_WARC_DRIVER = """
import json, sys
sys.path.insert(0, sys.argv[1])  # the package is on the DRIVER's path only
import ray
ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
import ray.data as rd
from service1_text_extraction_ray.functions.synth import gen_pages_table
from service1_text_extraction_ray.sources.pages_source import (
    read_pages_warc, write_pages_warc)
mode, path = sys.argv[2], sys.argv[3]
if mode == "read":
    out = sorted(r["url"] for r in read_pages_warc(path).take_all())
else:
    out = write_pages_warc(rd.from_arrow(gen_pages_table(20, seed=42)), path)
print(json.dumps(out))
ray.shutdown()
"""


class TestCsvPagesSource:
    def test_roundtrip_and_extraction_parity(self, ray_session, tmp_path):
        from service1_text_extraction_ray.functions.synth import gen_pages_table
        from service1_text_extraction_ray.pipelines.extract_pipeline import (
            extract_dataset,
        )
        from query_suite.sources.page_formats import read_pages_csv, write_pages_csv
        import ray.data as rd

        pages = gen_pages_table(60, seed=42)
        cd = tmp_path / "pages_csv"
        write_pages_csv(rd.from_arrow(pages), str(cd))
        back = read_pages_csv(str(cd))

        got = back.take_all()
        exp = {r["url"]: r for r in pages.to_pylist()}
        assert len(got) == 60
        for r in got:
            e = exp[r["url"]]
            assert r["html"] == e["html"]          # binary survives base64
            assert r["warc_ts"] == e["warc_ts"]    # timestamp survives ISO-8601
            assert (r["text"], r["lang"]) == (e["text"], e["lang"])

        def doc_map(ds):
            out = extract_dataset(ds).select_columns(
                ["url", "content_hash", "status", "n_pages"]
            )
            return {r["url"]: (r["content_hash"], r["status"], r["n_pages"])
                    for r in out.take_all()}

        assert doc_map(read_pages_csv(str(cd))) == doc_map(rd.from_arrow(pages))


class TestEvolvedPagesSource:
    def test_mixed_schema_shards_normalize(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        from service1_text_extraction_ray.functions.synth import gen_pages_table
        from service1_text_extraction_ray.pipelines.extract_pipeline import (
            extract_dataset,
        )
        from query_suite.sources.page_formats import read_pages_evolved

        pages = gen_pages_table(30, seed=42)
        d = tmp_path / "mixed"
        d.mkdir()
        # v1 shard: before `lang` and `text` existed
        pq.write_table(
            pages.slice(0, 15).drop_columns(["lang", "text"]),
            str(d / "shard-v1.parquet"),
        )
        # v2 shard: current schema + an extra column a newer writer added
        v2 = pages.slice(15, 15).append_column(
            "fetch_ms", pa.array([1] * 15, pa.int64())
        )
        pq.write_table(v2, str(d / "shard-v2.parquet"))

        back = read_pages_evolved(str(d))
        got = {r["url"]: r for r in back.take_all()}
        assert len(got) == 30
        exp = {r["url"]: r for r in pages.to_pylist()}
        for url, r in got.items():
            assert r["html"] == exp[url]["html"]
            assert "fetch_ms" not in r  # extras dropped at the reader
        v1_urls = set(pages.slice(0, 15)["url"].to_pylist())
        for url in v1_urls:
            assert got[url]["lang"] == "und" and got[url]["text"] == ""
        # and the extraction pipeline consumes the normalized stream whole
        out = extract_dataset(read_pages_evolved(str(d)))
        assert out.count() == 30


class TestHttpEnvelope:
    """WARC response payloads are full HTTP messages (the real Common Crawl
    layout); the parser must handle the framings a crawl archive carries."""

    def test_content_length_framing_drops_trailing_junk(self):
        from service1_text_extraction_ray.sources.pages_source import (
            parse_http_response,
        )

        msg = (
            b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n"
            b"Content-Length: 5\r\n\r\nhelloJUNK"
        )
        status, hdrs, body = parse_http_response(msg)
        assert (status, body) == (200, b"hello")
        assert hdrs["content-type"] == "text/html"

    def test_chunked_transfer_encoding(self):
        from service1_text_extraction_ray.sources.pages_source import (
            parse_http_response,
        )

        msg = (
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"5\r\nhello\r\n6;ext=1\r\n world\r\n0\r\n\r\n"
        )
        assert parse_http_response(msg)[2] == b"hello world"

    def test_gzip_and_deflate_bodies(self):
        import gzip
        import zlib

        from service1_text_extraction_ray.sources.pages_source import (
            parse_http_response,
        )

        gz = gzip.compress(b"<html>x</html>", mtime=0)
        msg = (
            b"HTTP/1.1 200 OK\r\nContent-Encoding: gzip\r\n"
            b"Content-Length: " + str(len(gz)).encode() + b"\r\n\r\n" + gz
        )
        assert parse_http_response(msg)[2] == b"<html>x</html>"

        zl = zlib.compress(b"abc")  # zlib-wrapped deflate
        msg2 = (
            b"HTTP/1.1 200 OK\r\nContent-Encoding: deflate\r\n"
            b"Content-Length: " + str(len(zl)).encode() + b"\r\n\r\n" + zl
        )
        assert parse_http_response(msg2)[2] == b"abc"
        co = zlib.compressobj(wbits=-15)
        rawdef = co.compress(b"abc") + co.flush()
        msg3 = (
            b"HTTP/1.1 200 OK\r\nContent-Encoding: deflate\r\n"
            b"Content-Length: " + str(len(rawdef)).encode() + b"\r\n\r\n" + rawdef
        )
        assert parse_http_response(msg3)[2] == b"abc"

    def test_non_http_raises(self):
        from service1_text_extraction_ray.sources.pages_source import (
            parse_http_response,
        )

        with pytest.raises(ValueError):
            parse_http_response(b"<html>not http</html>\r\n\r\nbody")

    def test_warc_roundtrip_with_envelopes(self, ray_session, tmp_path):
        """The writer wraps response bodies in HTTP messages; the reader
        unwraps them — html column still round-trips byte-identically,
        including PDF payloads (content-type from the sniff)."""
        import ray.data as rd

        from service1_text_extraction_ray.functions.synth import gen_pages_table
        from service1_text_extraction_ray.sources.pages_source import (
            read_pages_warc,
            write_pages_warc,
        )

        pages = gen_pages_table(100, seed=42)  # covers the PDF categories
        wd = tmp_path / "warc_env"
        write_pages_warc(rd.from_arrow(pages), str(wd))
        raw = b"".join(f.read_bytes() for f in sorted(wd.glob("*.warc")))
        assert b"\r\nHTTP/1.1 200 OK\r\n" in raw        # envelopes on disk
        assert b"Content-Type: application/pdf" in raw   # sniffed PDF rows
        got = {r["url"]: r["html"] for r in read_pages_warc(str(wd)).take_all()}
        exp = {r["url"]: r["html"] for r in pages.to_pylist()}
        assert got == exp


class TestWatSink:
    def test_wat_roundtrip_consistent_with_parsers(self, ray_session, tmp_path):
        """The WAT envelope must agree with the engine's own meta/link
        parsers on every page, and the flat read-back exposes exactly the
        envelope's fields."""
        import ray.data as rd

        from query_suite.functions.links import extract_outlinks
        from query_suite.functions.meta import extract_meta
        from service1_text_extraction_ray.functions.sniff import sniff_payload
        from service1_text_extraction_ray.functions.synth import gen_pages_table
        from query_suite.sources.page_formats import read_pages_wat, write_pages_wat

        pages = gen_pages_table(100, seed=42)  # covers html + pdf + garbage
        wd = tmp_path / "pages_wat"
        n = write_pages_wat(rd.from_arrow(pages), str(wd))
        assert n >= 1

        got = {r["url"]: r for r in read_pages_wat(str(wd)).take_all()}
        assert len(got) == 100
        for row in pages.to_pylist():
            r = got[row["url"]]
            assert r["warc_ts"] == row["warc_ts"]
            assert r["content_length"] == len(row["html"] or b"")
            if row["html"] and sniff_payload(row["html"]) == "html":
                meta = extract_meta(row["html"], row["url"])
                links, noindex, nofollow = extract_outlinks(
                    row["html"], row["url"]
                )
                assert r["title"] == meta["title"]
                assert r["canonical"] == meta["canonical"]
                assert r["n_links"] == len(links)
                assert (r["noindex"], r["nofollow"]) == (noindex, nofollow)
            else:
                # non-HTML rows: envelope has no HTML-Metadata section
                assert r["title"] is None and r["n_links"] == 0

    def test_wat_idempotent_rewrite(self, ray_session, tmp_path):
        import os

        import ray.data as rd

        from service1_text_extraction_ray.functions.synth import gen_pages_table
        from query_suite.sources.page_formats import write_pages_wat

        pages = gen_pages_table(30, seed=7)
        wd = tmp_path / "wat_idem"
        write_pages_wat(rd.from_arrow(pages), str(wd))
        first = sorted(os.listdir(wd))
        write_pages_wat(rd.from_arrow(pages), str(wd))
        assert sorted(os.listdir(wd)) == first


class TestWarcIngestionJob:
    def test_flagship_job_over_warc_gz_matches_parquet_run(
        self, ray_session, tmp_path
    ):
        """run_extraction_job consumes .warc.gz shards directly: identical
        counters AND job content hash vs the parquet run over the same
        logical rows (the XOR-combined hash is shard-layout-insensitive),
        and resume skips completed WARC shards."""
        import ray.data as rd

        from service1_text_extraction_ray.functions.extract import ExtractConfig
        from service1_text_extraction_ray.functions.synth import (
            gen_pages_table,
            write_pages_parquet,
        )
        from service1_text_extraction_ray.pipelines.extract_pipeline import (
            run_extraction_job,
        )
        from service1_text_extraction_ray.sources.pages_source import (
            write_pages_warc,
        )

        inp_pq = tmp_path / "in_pq"
        inp_warc = tmp_path / "in_warc"
        write_pages_parquet(str(inp_pq), 400, seed=42, rows_per_file=100)
        write_pages_warc(
            rd.from_arrow(gen_pages_table(400, seed=42)).repartition(4),
            str(inp_warc), gzip_members=True,
        )

        s_pq = run_extraction_job(str(inp_pq), str(tmp_path / "out_pq"),
                                  ExtractConfig())
        s_w = run_extraction_job(str(inp_warc), str(tmp_path / "out_w"),
                                 ExtractConfig())
        keys = ("n_docs", "n_pages", "n_pages_ok", "parse_failures",
                "empty_extractions", "truncations", "password_required",
                "content_hash")
        assert {k: s_pq[k] for k in keys} == {k: s_w[k] for k in keys}

        s_res = run_extraction_job(str(inp_warc), str(tmp_path / "out_w"),
                                   ExtractConfig(), resume=True)
        assert s_res["resumed_shards_skipped"] == s_w["n_shards"]
        assert s_res["new_shards_written"] == 0
        assert s_res["content_hash"] == s_w["content_hash"]

    def test_mixed_format_input_rejected(self, tmp_path):
        from service1_text_extraction_ray.pipelines.extract_pipeline import (
            list_input_files,
        )

        (tmp_path / "a.parquet").write_bytes(b"")
        (tmp_path / "b.warc.gz").write_bytes(b"")
        with pytest.raises(ValueError):
            list_input_files(str(tmp_path))


class TestInputListing:
    """One listing (list_input_files) serves the parquet job, the WARC job
    and read_pages_warc; a directory without shard files at its top level
    fails loudly instead of yielding an empty dataset."""

    def test_nested_segment_dirs_raise_naming_the_path(
        self, ray_session, tmp_path
    ):
        import re

        import ray.data as rd

        from service1_text_extraction_ray.functions.extract import ExtractConfig
        from service1_text_extraction_ray.functions.synth import gen_pages_table
        from service1_text_extraction_ray.pipelines.extract_pipeline import (
            list_input_files,
            run_extraction_job,
        )
        from service1_text_extraction_ray.sources.pages_source import (
            read_pages_warc,
            write_pages_warc,
        )

        # Common Crawl layout: <crawl>/segments/<segment>/warc/*.warc.gz
        seg = tmp_path / "crawl" / "segments" / "1700000000000.42" / "warc"
        write_pages_warc(rd.from_arrow(gen_pages_table(8, seed=42)), str(seg),
                         gzip_members=True)
        top = str(tmp_path / "crawl")
        for read in (list_input_files, read_pages_warc):
            with pytest.raises(ValueError, match=re.escape(top)):
                read(top)
        with pytest.raises(ValueError, match=re.escape(top)):
            run_extraction_job(top, str(tmp_path / "out"), ExtractConfig())
        # the segment's own directory lists and reads as before
        assert len(read_pages_warc(str(seg)).take_all()) == 8

    def test_warc_reader_rejects_parquet_dir(self, tmp_path):
        from service1_text_extraction_ray.functions.synth import write_pages_parquet
        from service1_text_extraction_ray.sources.pages_source import (
            read_pages_warc,
        )

        write_pages_parquet(str(tmp_path), 4, seed=42)
        with pytest.raises(ValueError, match="not WARC"):
            read_pages_warc(str(tmp_path))


class TestWarcDigests:
    def test_digests_verify_and_catch_tampering(self, ray_session, tmp_path):
        import glob

        import ray.data as rd

        from query_suite.sources.page_formats import (
            synthesize_pages,
            verify_warc_digests,
        )
        from service1_text_extraction_ray.sources.pages_source import write_pages_warc

        out = str(tmp_path / "warc")
        write_pages_warc(synthesize_pages(40, seed=7), out)
        shards = sorted(glob.glob(out + "/*.warc"))
        assert shards
        total = badsum = 0
        for sh in shards:
            n, bad = verify_warc_digests(sh)
            total += n
            badsum += bad
        # response: payload + block; conversion: block -> 3 per page
        assert total == 40 * 3
        assert badsum == 0

        # flip one byte inside the largest shard's payload area -> >= 1 bad
        sh = max(shards, key=lambda p: __import__("os").path.getsize(p))
        blob = bytearray(open(sh, "rb").read())
        # find a spot well inside a payload (after the first blank line)
        i = blob.index(b"\r\n\r\n") + 200
        blob[i] ^= 0xFF
        tam = str(tmp_path / "tampered.warc")
        open(tam, "wb").write(bytes(blob))
        _, bad = verify_warc_digests(tam)
        assert bad >= 1

    def test_gz_members_carry_digests(self, ray_session, tmp_path):
        import glob

        from query_suite.sources.page_formats import (
            synthesize_pages,
            verify_warc_digests,
        )
        from service1_text_extraction_ray.sources.pages_source import write_pages_warc

        out = str(tmp_path / "warcgz")
        write_pages_warc(synthesize_pages(12, seed=9), out, gzip_members=True)
        shards = sorted(glob.glob(out + "/*.warc.gz"))
        assert shards
        for sh in shards:
            n, bad = verify_warc_digests(sh)
            assert n > 0 and bad == 0


class TestWarcCdx:
    def _build(self, tmp_path, gz):
        from query_suite.sources.page_formats import (
            synthesize_pages,
            write_pages_warc,
        )

        wdir = str(tmp_path / ("w_gz" if gz else "w"))
        cdir = str(tmp_path / ("c_gz" if gz else "c"))
        write_pages_warc(synthesize_pages(30, seed=5), wdir,
                         gzip_members=gz, cdx_dir=cdir)
        return wdir, cdir

    def _cdx(self, cdir):
        import glob

        import pyarrow.parquet as pq

        tables = [pq.read_table(p) for p in sorted(glob.glob(cdir + "/*.parquet"))]
        import pyarrow as pa

        return pa.concat_tables(tables).to_pylist()

    def test_random_access_matches_full_read(self, ray_session, tmp_path):
        import os

        from service1_text_extraction_ray.sources.pages_source import (
            parse_http_response,
        )
        from query_suite.sources.page_formats import read_warc_record

        for gz in (False, True):
            wdir, cdir = self._build(tmp_path, gz)
            rows = self._cdx(cdir)
            assert len(rows) == 30 * 2  # response + conversion per page
            # fetch every response record by (offset, length) and check the
            # digest of the decoded entity body matches the index
            from service1_text_extraction_ray.sources.pages_source import (
                _sha1_b32,
            )

            for r in rows:
                if r["rec_type"] != "response":
                    continue
                hdrs, payload = read_warc_record(
                    os.path.join(wdir, r["shard"]), r["offset"], r["length"]
                )
                assert hdrs["warc-type"] == "response"
                assert hdrs["warc-target-uri"] == r["url"]
                _, _, body = parse_http_response(payload)
                assert _sha1_b32(body).decode("ascii") == r["digest"]

    def test_offsets_partition_the_shard(self, ray_session, tmp_path):
        import os
        from collections import defaultdict

        _, cdir = self._build(tmp_path, True)
        by_shard = defaultdict(list)
        for r in self._cdx(cdir):
            by_shard[r["shard"]].append((r["offset"], r["length"]))
        for sh, spans in by_shard.items():
            spans.sort()
            pos = 0
            for off, ln in spans:
                assert off == pos  # contiguous, no gaps or overlaps
                pos = off + ln

    def test_shards_equal_engine_writer(self, ray_session, tmp_path):
        """Indexing does not change the shards: same names, same bytes as
        the engine's writer over the same blocks."""
        import os

        from query_suite.sources.page_formats import synthesize_pages
        from service1_text_extraction_ray.sources.pages_source import (
            write_pages_warc,
        )

        for gz in (False, True):
            wdir, _ = self._build(tmp_path, gz)
            edir = str(tmp_path / ("e_gz" if gz else "e"))
            write_pages_warc(synthesize_pages(30, seed=5), edir,
                             gzip_members=gz)
            names = sorted(os.listdir(wdir))
            assert names == sorted(os.listdir(edir))
            for n in names:
                with open(os.path.join(wdir, n), "rb") as a, \
                        open(os.path.join(edir, n), "rb") as b:
                    assert a.read() == b.read()


class TestArchiveSources:
    def _docs(self, ray_session):
        import ray.data as rd

        return rd.from_items([
            {"doc_id": i, "text": f"document {i} body with ünïcode £ {i * 7}"}
            for i in range(37)
        ])

    def test_tar_and_zip_round_trip_byte_exact(self, ray_session, tmp_path):
        from query_suite.sources.page_formats import (
            read_docs_archive,
            write_docs_tar,
            write_docs_zip,
        )

        for fmt, writer in (("tar", write_docs_tar), ("zip", write_docs_zip)):
            out = str(tmp_path / fmt)
            n = writer(self._docs(ray_session), out)
            assert n == 37
            back = {
                r["doc_id"]: r["text"]
                for r in read_docs_archive(out).take_all()
            }
            assert len(back) == 37
            for i in range(37):
                assert back[i] == f"document {i} body with ünïcode £ {i * 7}"

    def test_mixed_directory_reads_uniformly(self, ray_session, tmp_path):
        import ray.data as rd

        from query_suite.sources.page_formats import (
            read_docs_archive,
            write_docs_tar,
            write_docs_zip,
        )

        out = str(tmp_path / "mixed")
        write_docs_tar(
            rd.from_items([{"doc_id": 1, "text": "in the tar"}]), out
        )
        write_docs_zip(
            rd.from_items([{"doc_id": 2, "text": "in the zip"}]), out
        )
        back = {r["doc_id"]: r["text"] for r in read_docs_archive(out).take_all()}
        assert back == {1: "in the tar", 2: "in the zip"}

    def test_shards_are_content_addressed_and_deterministic(
        self, ray_session, tmp_path
    ):
        import os

        from query_suite.sources.page_formats import write_docs_tar

        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        write_docs_tar(self._docs(ray_session), a)
        write_docs_tar(self._docs(ray_session), b)
        la, lb = sorted(os.listdir(a)), sorted(os.listdir(b))
        assert la and la == lb  # same names (content-addressed)
        for name in la:  # same bytes (pinned mtimes)
            with open(os.path.join(a, name), "rb") as fa, \
                 open(os.path.join(b, name), "rb") as fb:
                assert fa.read() == fb.read()


class TestWarcSalvage:
    """Tolerant (salvage-mode) WARC ingestion: real crawl archives contain
    damaged members/records; a poison shard must cost its broken pages,
    not the task — and the salvage report must count exactly the pages the
    tolerant reader yields."""

    def _shard(self, tmp_path, n=12, gz=True):
        import os

        from service1_text_extraction_ray.functions.synth import gen_pages_table
        from service1_text_extraction_ray.sources.pages_source import (
            write_pages_warc)
        import ray.data as rdm

        wdir = str(tmp_path / ("wgz" if gz else "wpl"))
        pages = rdm.from_arrow(gen_pages_table(n, seed=42)).repartition(1)
        write_pages_warc(pages, wdir, gzip_members=gz)
        fn = sorted(os.listdir(wdir))[0]
        return os.path.join(wdir, fn)

    @staticmethod
    def _read(path, tolerant):
        from service1_text_extraction_ray.sources.pages_source import (
            read_pages_warc)

        return read_pages_warc(path, tolerant=tolerant).to_pandas()

    def test_flipped_member_byte_drops_one_page(self, ray_session, tmp_path):
        import pytest

        from service1_text_extraction_ray.sources.pages_source import (
            warc_salvage_report)

        src = self._shard(tmp_path)
        blob = bytearray(open(src, "rb").read())
        # find the THIRD gzip member and flip a byte inside it
        idx, pos = [], 0
        while True:
            pos = bytes(blob).find(b"\x1f\x8b\x08", pos)
            if pos < 0:
                break
            idx.append(pos)
            pos += 3
        blob[idx[2] + 12] ^= 0xFF
        bad = str(tmp_path / "bad.warc.gz")
        open(bad, "wb").write(bytes(blob))

        with pytest.raises(Exception):
            self._read(bad, tolerant=False)
        good = self._read(src, tolerant=False)
        got = self._read(bad, tolerant=True)
        # the intact pages survive; the damaged page's pair is dropped
        assert 0 < len(got) < len(good)
        assert set(got["url"]).issubset(set(good["url"]))
        rep = warc_salvage_report(bad)
        assert rep["n_pages_ok"] == len(got)
        assert rep["torn_gzip_members"] + rep["parser_resyncs"] >= 1
        assert rep["dropped_pages"] >= 1

    def test_truncated_tail_and_spliced_garbage(self, ray_session, tmp_path):
        from service1_text_extraction_ray.sources.pages_source import (
            warc_salvage_report)

        src = self._shard(tmp_path)
        blob = open(src, "rb").read()
        for name, mutated in (
            ("trunc.warc.gz", blob[: int(len(blob) * 0.8)]),
            ("splice.warc.gz", blob[:100] + b"\x00garbage\x01" + blob[100:]),
        ):
            bad = str(tmp_path / name)
            open(bad, "wb").write(mutated)
            got = self._read(bad, tolerant=True)  # never raises
            assert warc_salvage_report(bad)["n_pages_ok"] == len(got)

    def test_plain_warc_header_corruption_resyncs(self, ray_session, tmp_path):
        from service1_text_extraction_ray.sources.pages_source import (
            warc_salvage_report)

        src = self._shard(tmp_path, gz=False)
        blob = bytearray(open(src, "rb").read())
        # corrupt the SECOND record's version line -> parser must resync
        second = bytes(blob).find(b"WARC/1.", 1)
        blob[second:second + 4] = b"JUNK"
        bad = str(tmp_path / "badhdr.warc")
        open(bad, "wb").write(bytes(blob))
        got = self._read(bad, tolerant=True)
        full = self._read(src, tolerant=False)
        assert 0 < len(got) <= len(full)
        assert warc_salvage_report(bad)["n_pages_ok"] == len(got)

    def test_torn_last_payload_raises_in_strict_mode(self, tmp_path):
        import pytest

        from service1_text_extraction_ray.functions.synth import gen_pages_table
        from service1_text_extraction_ray.sources.pages_source import (
            _encode_page_records, read_warc_file, warc_salvage_report)

        rows = gen_pages_table(2, seed=42).to_pylist()
        blob = b"".join(r for row in rows for r in _encode_page_records(row))
        torn = str(tmp_path / "torn.warc")
        open(torn, "wb").write(blob[:-20])  # cuts into the last payload
        with pytest.raises(ValueError, match="malformed WARC record"):
            read_warc_file(torn)
        got = read_warc_file(torn, tolerant=True)
        assert got["url"].to_pylist() == [rows[0]["url"]]
        rep = warc_salvage_report(torn)
        assert (rep["n_pages_ok"], rep["dropped_pages"]) == (1, 1)
        # a file missing only its closing CRLF CRLF is whole
        unclosed = str(tmp_path / "unclosed.warc")
        open(unclosed, "wb").write(blob[:-4])
        assert read_warc_file(unclosed)["url"].to_pylist() == [
            r["url"] for r in rows]

    def test_undamaged_shard_identical_in_both_modes(self, ray_session, tmp_path):
        src = self._shard(tmp_path)
        a = self._read(src, tolerant=False).sort_values("url").reset_index(drop=True)
        b = self._read(src, tolerant=True).sort_values("url").reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b)


class TestTolerantWarcJob:
    def test_job_over_damaged_warc_shard(self, ray_session, tmp_path):
        """End-to-end: an extraction job over a WARC input set containing a
        damaged shard completes in salvage mode (losing only the damaged
        pages, manifests exact) and fails loudly in strict mode, naming the
        damaged file."""
        import os
        import re

        import pytest

        from service1_text_extraction_ray.functions.extract import ExtractConfig
        from service1_text_extraction_ray.functions.synth import gen_pages_table
        from service1_text_extraction_ray.pipelines.extract_pipeline import (
            run_extraction_job)
        from service1_text_extraction_ray.sources.pages_source import (
            warc_salvage_report, write_pages_warc)
        from service1_text_extraction_ray.state import lineage as lin
        import ray.data as rdm

        wdir = str(tmp_path / "warc_in")
        pages = rdm.from_arrow(gen_pages_table(40, seed=42)).repartition(2)
        write_pages_warc(pages, wdir, gzip_members=True)
        shards = sorted(os.listdir(wdir))
        assert len(shards) == 2
        # damage one member of the FIRST shard
        p0 = os.path.join(wdir, shards[0])
        blob = bytearray(open(p0, "rb").read())
        second_member = bytes(blob).find(b"\x1f\x8b\x08", 3)
        blob[second_member + 10] ^= 0xFF
        open(p0, "wb").write(bytes(blob))

        out_strict = str(tmp_path / "strict")
        with pytest.raises(Exception, match=re.escape(shards[0])):
            run_extraction_job(wdir, out_strict, ExtractConfig())

        out = str(tmp_path / "tolerant")
        summary = run_extraction_job(
            wdir, out, ExtractConfig(), tolerant_warc=True)
        assert 0 < summary["n_docs"] < 40       # damaged pages lost, rest kept
        assert len(lin.load_lineage(out)) == 2  # BOTH shards committed
        assert lin.read_all(out).num_rows == summary["n_docs"]
        # each shard holds exactly the pages salvage parsing keeps of it
        assert summary["n_docs"] == sum(
            warc_salvage_report(os.path.join(wdir, s))["n_pages_ok"]
            for s in shards)


class TestArchiveSalvage:
    """Damaged document-dump archives yield their intact members in
    tolerant mode (tar block-walk with checksum resync over the gzip
    prefix; zip local-header scan needing no central directory)."""

    def _dirs(self, ray_session, tmp_path, kind):
        import os

        from service1_text_extraction_ray.functions.synth import gen_pages_table
        from query_suite.sources.page_formats import write_docs_tar, write_docs_zip
        import ray.data as rdm

        adir = str(tmp_path / kind)
        docs = rdm.from_items(
            [{"doc_id": i, "text": f"document body {i} " + "tok " * 40}
             for i in range(20)]
        ).repartition(1)
        n = (write_docs_tar if kind == "tar" else write_docs_zip)(docs, adir)
        assert n == 20
        fn = sorted(os.listdir(adir))[0]
        return adir, os.path.join(adir, fn)

    def test_truncated_targz_salvages_prefix(self, ray_session, tmp_path):
        import pytest

        from query_suite.sources.page_formats import read_docs_archive

        adir, path = self._dirs(ray_session, tmp_path, "tar")
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[: int(len(blob) * 0.6)])  # torn download
        with pytest.raises(Exception):
            read_docs_archive(adir).to_pandas()
        got = read_docs_archive(adir, tolerant=True).to_pandas()
        assert 0 < len(got) < 20
        assert all(t.startswith("document body") for t in got["text"])

    def test_zip_missing_central_directory(self, ray_session, tmp_path):
        import pytest

        from query_suite.sources.page_formats import read_docs_archive

        adir, path = self._dirs(ray_session, tmp_path, "zip")
        blob = open(path, "rb").read()
        # cut at the central directory: every member's local record intact
        cd = blob.rfind(b"PK\x01\x02")
        open(path, "wb").write(blob[:cd])
        with pytest.raises(Exception):
            read_docs_archive(adir).to_pandas()
        got = read_docs_archive(adir, tolerant=True).to_pandas()
        assert len(got) == 20  # ALL members salvageable without the CD
        assert sorted(got["doc_id"]) == list(range(20))

    def test_intact_archives_identical_in_both_modes(self, ray_session, tmp_path):
        from query_suite.sources.page_formats import read_docs_archive

        for kind in ("tar", "zip"):
            adir, _ = self._dirs(ray_session, tmp_path, kind)
            a = read_docs_archive(adir).to_pandas().sort_values(
                "doc_id").reset_index(drop=True)
            b = read_docs_archive(adir, tolerant=True).to_pandas().sort_values(
                "doc_id").reset_index(drop=True)
            pd.testing.assert_frame_equal(a, b)


class TestSalvageReviewPins:
    """Round-5 second self-review findings pinned (all were reproduced)."""

    def test_gzip_resync_keeps_member_after_short_junk(self):
        import gzip

        from service1_text_extraction_ray.sources.pages_source import (
            _gunzip_members)

        m = [gzip.compress(x, mtime=0) for x in (b"AAAA", b"BBBB", b"CCCC")]
        blob = m[0] + b"\x00" + m[1] + m[2]  # ONE junk byte before m2
        out = _gunzip_members(blob, tolerant=True)
        assert out == b"AAAABBBBCCCC"  # the intact m2 must survive

    def test_gunzip_prefix_salvages_to_the_byte(self):
        import gzip

        from query_suite.sources.page_formats import _gunzip_prefix

        plain = bytes(range(256)) * 800  # ~200 KB
        blob = bytearray(gzip.compress(plain, mtime=0))
        blob[len(blob) // 2] ^= 0xFF  # mid-stream corruption
        got = _gunzip_prefix(bytes(blob))
        # a large decompressable PREFIX survives (was 0 bytes pre-fix).
        # DEFLATE may emit garbage between the corrupt byte and the first
        # invalid code — quantify the clean prefix instead of requiring
        # byte equality of everything salvaged (downstream tar checksums
        # reject the garbage tail).
        assert len(got) > len(plain) // 4
        common = 0
        for a, b in zip(got, plain):
            if a != b:
                break
            common += 1
        assert common > len(plain) // 4

    def test_zip_walker_keeps_empty_stored_members(self):
        import io
        import zipfile

        from query_suite.sources.page_formats import _salvage_zip_members

        buf = io.BytesIO()
        with zipfile.ZipFile(buf, "w", zipfile.ZIP_STORED) as zf:
            zf.writestr("docs/1.txt", "payload one")
            zf.writestr("docs/2.txt", "")           # legit EMPTY member
            zf.writestr("docs/3.txt", "payload three")
        got = dict(_salvage_zip_members(buf.getvalue()))
        assert got["docs/2.txt"] == b""
        assert len(got) == 3

    def test_salvage_report_counts_each_page_once(self):
        from service1_text_extraction_ray.sources.pages_source import (
            _http_envelope, _iter_warc_pages, _warc_record)

        date = "2025-01-01T00:00:00.000000Z"
        recs = []
        for i, broken in ((0, True), (1, False)):
            url = f"https://p/{i}"
            env = _http_envelope(b"<html>body</html>", "text/html")
            if broken:  # malformed HTTP envelope -> response unwrap fails
                env = b"HTTP/garbage-without-separator"
            recs.append(_warc_record(b"response", url, date, env,
                                     [b"Content-Type: application/http\r\n"]))
            recs.append(_warc_record(b"conversion", url, date, b"wet",
                                     [b"Content-Type: text/plain\r\n"]))
        blob = b"".join(recs)
        stats: dict = {}
        rows = list(_iter_warc_pages(blob, tolerant=True, stats=stats))
        assert len(rows) == 1                      # the intact page
        assert stats["dropped_pages"] == 1         # ONE drop, not two

    def test_upsert_promotes_castable_update_types(self, tmp_path):
        import pyarrow as pa

        from service1_text_extraction_ray.state import lineage as L2
        from tests.test_object_store_fs import _rows

        out = str(tmp_path / "promote")
        base = _rows(0, 3).append_column(
            "q", pa.array([1, 2, 3], pa.int64()))
        L2.commit_shard_manifest(out, 0, [L2.write_part(out, 0, base)])
        upd = _rows(1, 1).append_column(
            "q", pa.array([99], pa.int32()))  # narrower but castable
        rec = L2.upsert_shard(out, 0, upd)
        assert rec["n_replaced"] == 1
        got = L2.read_shard(out, 0)
        assert got.schema.field("q").type == pa.int64()
        q = dict(zip(got["url"].to_pylist(), got["q"].to_pylist()))
        assert q["https://d/1"] == 99
