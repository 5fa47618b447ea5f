"""End-to-end golden tests: the distributed Ray job must produce
byte-identical extractions to the sequential oracle, at any parallelism,
and must resume correctly from per-shard lineage."""

import glob
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from service1_text_extraction_ray.functions.extract import ExtractConfig, extract_document
from service1_text_extraction_ray.functions.synth import gen_pages_table, write_pages_parquet
from service1_text_extraction_ray.pipelines.extract_pipeline import (
    extract_dataset,
    extract_pages_dataset,
    run_extraction_job,
)
from service1_text_extraction_ray.state import lineage as lin

N_ROWS = 400
CFG = ExtractConfig()


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("corpus"))
    write_pages_parquet(d, N_ROWS, seed=42, rows_per_file=100)
    return d


@pytest.fixture(scope="module")
def oracle_results():
    rows = gen_pages_table(N_ROWS, seed=42).to_pylist()
    return {row["url"]: extract_document(row["url"], row["html"], CFG) for row in rows}


def read_output(out_dir: str) -> pa.Table:
    # Manifest-driven read: only parts listed in committed shard manifests.
    return lin.read_all(out_dir)


def assert_matches_oracle(table: pa.Table, oracle: dict):
    assert table.num_rows == len(oracle)
    for url, doc_text, status, n_pages in zip(
        table["url"].to_pylist(),
        table["doc_text"].to_pylist(),
        table["status"].to_pylist(),
        table["n_pages"].to_pylist(),
    ):
        o = oracle[url]
        assert doc_text == o["doc_text"], f"byte mismatch for {url}"
        assert status == o["status"]
        assert n_pages == o["n_pages"]


def test_job_matches_oracle(ray_session, corpus_dir, oracle_results, tmp_path):
    out = str(tmp_path / "out")
    summary = run_extraction_job(corpus_dir, out, CFG)
    assert summary["n_docs"] == N_ROWS
    assert summary["parse_failures"] > 0      # malformed fixtures present
    assert summary["empty_extractions"] > 0   # short/garbage fixtures present
    assert summary["truncations"] >= 1        # giant-blob fixtures present
    assert_matches_oracle(read_output(out), oracle_results)


def test_parallelism_levels_byte_identical(ray_session, corpus_dir, oracle_results, tmp_path):
    """The per-row invariant from BASELINE.json: byte-identical extracted
    text per url across parallelism levels (here: actor-pool sizes)."""
    out1 = str(tmp_path / "p1")
    out2 = str(tmp_path / "p2")
    # NB: autoscaling (min,max) pools — a fixed int pool can reserve every
    # CPU and starve the read stage (single-node deadlock).
    s1 = run_extraction_job(corpus_dir, out1, CFG, concurrency=(1, 1))
    s2 = run_extraction_job(corpus_dir, out2, CFG, concurrency=(1, 3))
    assert s1["content_hash"] == s2["content_hash"]
    t1, t2 = read_output(out1), read_output(out2)
    assert_matches_oracle(t1, oracle_results)
    assert_matches_oracle(t2, oracle_results)
    # Row-level byte stability across pool sizes (file/part layout may vary
    # with block composition; the manifest-read row set must not).
    assert t1.sort_by("url").equals(t2.sort_by("url"))


def test_resume_skips_completed_shards(ray_session, corpus_dir, oracle_results, tmp_path):
    out_full = str(tmp_path / "full")
    run_extraction_job(corpus_dir, out_full, CFG)

    # Simulate a crash: keep only 2 completed shards (+ one torn shard: data
    # parts without a manifest must be re-processed).
    out_part = str(tmp_path / "partial")
    os.makedirs(os.path.join(out_part, "lineage"))
    done = sorted(lin.completed_shards(out_full))
    n_shards_total = len(done)
    assert n_shards_total == 4  # one shard per input file (400 rows / 100)
    keep = done[:2]
    for sid in keep:
        shutil.copytree(lin.shard_data_dir(out_full, sid), lin.shard_data_dir(out_part, sid))
        shutil.copy(lin.manifest_path(out_full, sid), lin.manifest_path(out_part, sid))
    torn = done[2]
    shutil.copytree(lin.shard_data_dir(out_full, torn), lin.shard_data_dir(out_part, torn))
    # no manifest for `torn` -> incomplete (its orphan parts must be ignored)

    assert lin.completed_shards(out_part) == set(keep)

    summary = run_extraction_job(corpus_dir, out_part, CFG, resume=True)
    assert summary["resumed_shards_skipped"] == 2
    assert summary["new_shards_written"] == n_shards_total - 2
    assert summary["n_docs"] == N_ROWS
    # Final output identical to the uninterrupted run.
    full = read_output(out_full).sort_by("url")
    part = read_output(out_part).sort_by("url")
    assert full.equals(part)


def test_lineage_validation_rejects_row_count_mismatch(ray_session, corpus_dir, tmp_path):
    out = str(tmp_path / "val")
    run_extraction_job(corpus_dir, out, CFG)
    done = sorted(lin.completed_shards(out))
    victim = done[0]
    rec = {r["shard_id"]: r for r in lin.load_lineage(out)}[victim]
    dpath = os.path.join(lin.shard_data_dir(out, victim), rec["parts"][0])
    t = pq.read_table(dpath)
    pq.write_table(t.slice(0, max(0, t.num_rows - 1)), dpath)  # corrupt: drop a row
    assert victim not in lin.completed_shards(out)


def test_rerun_without_resume_is_deterministic(ray_session, corpus_dir, tmp_path):
    out = str(tmp_path / "rerun")
    s1 = run_extraction_job(corpus_dir, out, CFG)
    s2 = run_extraction_job(corpus_dir, out, CFG)  # fresh overwrite
    assert s1["content_hash"] == s2["content_hash"]
    assert s2["n_docs"] == N_ROWS


def test_pages_dataset_explosion(ray_session, corpus_dir, oracle_results):
    import ray.data as rd

    from service1_text_extraction_ray.pipelines.extract_pipeline import read_pages

    pages = extract_pages_dataset(read_pages(corpus_dir), CFG).take_all()
    # One row per (url, page); page_md golden surface carried through.
    by_url = {}
    for r in pages:
        by_url.setdefault(r["url"], []).append(r)
    exp_total = sum(o["n_pages"] for o in oracle_results.values())
    assert len(pages) == exp_total
    for url, rows in by_url.items():
        o = oracle_results[url]
        rows.sort(key=lambda r: r["page"])
        assert [r["method"] for r in rows] == [p["method"] for p in o["pages"]]
        assert [r["page_md"] for r in rows] == [p["page_md"] for p in o["pages"]]


def test_extract_dataset_streaming_no_write(ray_session, corpus_dir):
    from service1_text_extraction_ray.pipelines.extract_pipeline import read_pages

    docs = extract_dataset(read_pages(corpus_dir), CFG)
    # consume via iter_batches (streaming), count rows
    n = 0
    for b in docs.iter_batches(batch_size=128, batch_format="pyarrow"):
        n += b.num_rows
        assert b.schema.field("doc_text").type == pa.string()
    assert n == N_ROWS


def test_kill_and_resume_preserves_completed_shards(corpus_dir, tmp_path):
    """True crash test (FIXTURES.md §4 item 4): SIGKILL the job after the
    first incremental manifest commit; resume must skip the committed shards
    and converge to the same final output. Runs the job CLI in subprocesses
    with their own Ray sessions (slow path, but the only honest kill test)."""
    import json
    import signal
    import subprocess
    import sys
    import time

    out = str(tmp_path / "killed")
    cmd = [
        sys.executable, "-m", "service1_text_extraction_ray.pipelines.job",
        "--input", corpus_dir, "--output", out, "--num-cpus", "2",
    ]
    env = dict(os.environ, RAY_ADDRESS="local")
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    # Generous: under a fully loaded suite run the subprocess's own Ray
    # session can take >60 s just to start (observed flake at 120 s).
    deadline = time.time() + 300
    killed = False
    try:
        while time.time() < deadline:
            if lin.completed_shards(out, validate_data=False):
                proc.send_signal(signal.SIGKILL)
                killed = True
                break
            if proc.poll() is not None:
                break  # finished before we could kill — still a valid run
            time.sleep(0.2)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()

    done_after_kill = lin.completed_shards(out)

    res = subprocess.run(cmd + ["--resume"], env=env, capture_output=True, text=True)
    assert res.returncode == 0, f"resume run failed:\n{res.stderr[-4000:]}"
    summary = json.loads(res.stdout.strip().splitlines()[-1])
    assert summary["n_docs"] == N_ROWS
    if killed and done_after_kill:
        assert summary["resumed_shards_skipped"] == len(done_after_kill)
    # Converged output matches a clean full run, row for row.
    clean = str(tmp_path / "clean")
    res2 = subprocess.run(
        [sys.executable, "-m", "service1_text_extraction_ray.pipelines.job",
         "--input", corpus_dir, "--output", clean, "--num-cpus", "2"],
        env=env, capture_output=True, text=True)
    assert res2.returncode == 0, f"clean run failed:\n{res2.stderr[-4000:]}"
    a = read_output(out).sort_by("url")
    b = read_output(clean).sort_by("url")
    assert a.equals(b)


_FOREIGN_DRIVER = """
import json, sys
sys.path.insert(0, sys.argv[1])  # the package is on the DRIVER's path only
import ray
ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from service1_text_extraction_ray.functions.extract import ExtractConfig
from service1_text_extraction_ray.pipelines.extract_pipeline import (
    run_extraction_job)
print(json.dumps(run_extraction_job(sys.argv[2], sys.argv[3], ExtractConfig())))
ray.shutdown()
"""


def test_job_runs_from_foreign_cwd_without_package_on_worker_path(tmp_path):
    """A driver whose cwd is elsewhere and whose sys.path alone holds the
    package must still run the job: every worker-side import has to come
    with the by-value pickled code (ensure_worker_importable), not from the
    worker's sys.path. The corpus includes RC4 and AES encrypted PDFs, so
    the pdf_crypt path ships too."""
    import json
    import subprocess
    import sys

    from service1_text_extraction_ray.functions.extract import doc_content_hash

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    inp, out = str(tmp_path / "in"), str(tmp_path / "out")
    write_pages_parquet(inp, 100, seed=42, rows_per_file=50)
    cwd = tmp_path / "elsewhere"
    cwd.mkdir()
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "RAY_ADDRESS")}
    res = subprocess.run(
        [sys.executable, "-c", _FOREIGN_DRIVER, repo, inp, out],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
    )
    assert res.returncode == 0, f"job failed:\n{res.stderr[-4000:]}"
    summary = json.loads(res.stdout.strip().splitlines()[-1])
    rows = gen_pages_table(100, seed=42).to_pylist()
    oracle = [extract_document(r["url"], r["html"], CFG) for r in rows]
    assert summary["n_docs"] == 100
    assert summary["content_hash"] == lin.xor_content_hash(
        [doc_content_hash(o["doc_text"]) for o in oracle])


def test_bucketed_variant_matches_default(ray_session, corpus_dir, oracle_results):
    """The size-bucketed + salted-groupby parse path (north_rule's explicit
    skew treatment) must produce byte-identical extractions to the
    no-shuffle default, and must spread rows across (bucket, salt) groups."""
    from service1_text_extraction_ray.pipelines.extract_pipeline import (
        extract_dataset_bucketed,
        read_pages,
    )

    out = (
        extract_dataset_bucketed(read_pages(corpus_dir), CFG, salt_buckets=8)
        .select_columns(["url", "doc_text", "status", "n_pages"])
        .to_pandas()
        .set_index("url")
    )
    assert len(out) == N_ROWS
    for url, o in oracle_results.items():
        assert out.loc[url, "doc_text"] == o["doc_text"], f"byte mismatch for {url}"
        assert out.loc[url, "status"] == o["status"]


class TestCompaction:
    @staticmethod
    def _rows(i0, n):
        import hashlib

        return pa.table({
            "url": pa.array([f"https://d/{i}" for i in range(i0, i0 + n)]),
            "status": pa.array(["ok"] * n),
            "n_pages": pa.array([1] * n, pa.int64()),
            "n_pages_ok": pa.array([1] * n, pa.int64()),
            "doc_chars": pa.array([10 + i for i in range(i0, i0 + n)], pa.int64()),
            "truncated": pa.array([False] * n),
            "password_required": pa.array([False] * n),
            "content_hash": pa.array(
                [hashlib.sha256(str(i).encode()).hexdigest() for i in range(i0, i0 + n)]
            ),
        })

    def test_compact_preserves_content_and_is_idempotent(self, tmp_path):
        from service1_text_extraction_ray.state import lineage as L

        out = str(tmp_path / "job")
        recs = [L.write_part(out, 3, self._rows(i0, 5)) for i0 in (0, 5, 10)]
        before = L.commit_shard_manifest(out, 3, recs)
        assert len(before["parts"]) == 3

        after = L.compact_shard(out, 3, target_rows=100)
        assert len(after["parts"]) == 1
        assert after["content_hash"] == before["content_hash"]
        assert after["n_docs"] == before["n_docs"] == 15
        # old parts unlinked; manifest-listed data still validates + reads
        import os

        ddir = L.shard_data_dir(out, 3)
        assert sorted(os.listdir(ddir)) == sorted(after["parts"])
        assert L.completed_shards(out) == {3}
        t = L.read_shard(out, 3)
        assert t.num_rows == 15
        assert sorted(t["url"].to_pylist()) == sorted(
            f"https://d/{i}" for i in range(15)
        )
        # second pass: no-op (content-addressed names, already compact)
        again = L.compact_shard(out, 3, target_rows=100)
        assert again["parts"] == after["parts"]

    def test_compact_output_summary_unchanged(self, tmp_path):
        from service1_text_extraction_ray.state import lineage as L

        out = str(tmp_path / "job2")
        for sid in (0, 1):
            recs = [
                L.write_part(out, sid, self._rows(100 * sid + i0, 4))
                for i0 in (0, 4, 8)
            ]
            L.commit_shard_manifest(out, sid, recs)
        before = L.summarize(L.load_lineage(out))
        after = L.compact_output(out, target_rows=6)
        assert after == before
        for sid in (0, 1):
            rec = {r["shard_id"]: r for r in L.load_lineage(out)}[sid]
            assert len(rec["parts"]) == 2  # 12 rows / 6 per part


class TestTransientFaultRetry:
    def test_injected_task_failure_retries_to_identical_output(
        self, ray_session, tmp_path
    ):
        """At 100-TB scale transient worker failures are constant background
        noise; the engine contract is at-least-once task execution with
        byte-identical results. Inject a one-shot application failure into
        a pre-parse stage (first attempt trips a filesystem marker and
        raises; the Ray task retry finds the marker and proceeds) and
        assert the extraction output matches the clean run row for row."""
        import ray.data as rd

        from service1_text_extraction_ray.functions.synth import gen_pages_table
        from service1_text_extraction_ray.pipelines.extract_pipeline import (
            extract_dataset,
        )

        pages = gen_pages_table(200, seed=5)
        marker = tmp_path / "boom_once"

        def flaky(batch):
            if not marker.exists():
                marker.write_text("x")
                raise RuntimeError("injected transient failure")
            return batch

        def doc_map(ds):
            out = extract_dataset(ds).select_columns(
                ["url", "content_hash", "status", "n_pages"]
            )
            return {r["url"]: (r["content_hash"], r["status"], r["n_pages"])
                    for r in out.take_all()}

        clean = doc_map(rd.from_arrow(pages))
        flaky_src = rd.from_arrow(pages).map_batches(
            flaky,
            batch_format="pyarrow",
            retry_exceptions=True,
            max_retries=4,
        )
        assert doc_map(flaky_src) == clean
        assert marker.exists()  # the failure really fired


class TestIncrementalRecrawl:
    """run_incremental_recrawl: extract only the recrawled shard files and
    MERGE by url — result must be byte-equivalent to a full re-extraction
    of the merged inputs (round-5 lifecycle wired into the flagship)."""

    def _recrawl_file(self, corpus_dir, tmp_path):
        """Copy one input shard under the SAME basename with ~30% of its
        rows re-synthesized from a different seed (changed payloads)."""
        import os

        import pyarrow.parquet as pq

        from service1_text_extraction_ray.functions.synth import make_row

        src = sorted(
            f for f in os.listdir(corpus_dir) if f.endswith(".parquet")
        )[1]
        t = pq.read_table(os.path.join(corpus_dir, src))
        rows = t.to_pylist()
        for i, r in enumerate(rows):
            if i % 3 == 0:
                # a genuinely different document for the SAME url
                alt = make_row(7000 + i, seed=99)
                r["html"], r["text"] = alt["html"], alt["text"]
        rdir = str(tmp_path / "recrawl")
        os.makedirs(rdir, exist_ok=True)
        out = os.path.join(rdir, src)  # same basename -> same shard_id
        pq.write_table(
            pa.Table.from_pylist(rows, schema=t.schema), out
        )
        return rdir, src, rows

    def test_incremental_equals_full_reextraction(
        self, ray_session, corpus_dir, tmp_path
    ):
        import os
        import shutil

        import pyarrow.parquet as pq

        from service1_text_extraction_ray.pipelines.extract_pipeline import (
            run_incremental_recrawl)

        out_inc = str(tmp_path / "inc")
        base = run_extraction_job(corpus_dir, out_inc, CFG, snapshot=True)
        rdir, fname, _ = self._recrawl_file(corpus_dir, tmp_path)

        res = run_incremental_recrawl(rdir, out_inc, CFG, snapshot=True)
        assert res["shards_touched"] == 1
        assert res["n_replaced"] == 100 and res["n_appended"] == 0

        # ground truth: full re-extraction of the merged inputs
        merged = str(tmp_path / "merged_in")
        shutil.copytree(corpus_dir, merged)
        shutil.copy(os.path.join(rdir, fname), os.path.join(merged, fname))
        out_full = str(tmp_path / "full")
        run_extraction_job(merged, out_full, CFG)

        inc_recs = {r["shard_id"]: r for r in lin.load_lineage(out_inc)}
        full_recs = {r["shard_id"]: r for r in lin.load_lineage(out_full)}
        assert set(inc_recs) == set(full_recs)
        for sid in full_recs:
            assert inc_recs[sid]["content_hash"] == full_recs[sid]["content_hash"], sid
            assert inc_recs[sid]["n_docs"] == full_recs[sid]["n_docs"]

        t_inc = lin.read_all(out_inc).sort_by("url")
        t_full = lin.read_all(out_full).sort_by("url")
        assert t_inc.num_rows == t_full.num_rows == base["n_docs"]
        assert t_inc.select(["url", "content_hash", "doc_text"]).equals(
            t_full.select(["url", "content_hash", "doc_text"]))

        # snapshot v1 (pre-recrawl) expired for the rewritten shard is
        # acceptable; v2 reads the merged state
        assert lin.read_snapshot(
            out_inc, res["snapshot_version"]).num_rows == base["n_docs"]

    def test_new_basename_appends_fresh_shard(self, ray_session, corpus_dir, tmp_path):
        import os

        import pyarrow.parquet as pq

        from service1_text_extraction_ray.functions.synth import gen_pages_table
        from service1_text_extraction_ray.pipelines.extract_pipeline import (
            run_incremental_recrawl)

        out = str(tmp_path / "grow")
        run_extraction_job(corpus_dir, out, CFG)
        n0 = lin.read_all(out).num_rows

        rdir = str(tmp_path / "wave2")
        os.makedirs(rdir, exist_ok=True)
        pq.write_table(
            gen_pages_table(50, seed=42, start=100_000),
            os.path.join(rdir, "pages-wave2.parquet"),
        )
        res = run_incremental_recrawl(rdir, out, CFG)
        assert set(res) == RECRAWL_KEYS
        assert res["shards_touched"] == 1
        assert res["n_replaced"] == 0 and res["n_appended"] == 50
        assert res["n_docs_touched_shards"] == 50
        assert lin.read_all(out).num_rows == n0 + 50

    def test_empty_input_returns_the_same_keys(self, tmp_path):
        from service1_text_extraction_ray.pipelines.extract_pipeline import (
            run_incremental_recrawl)

        res = run_incremental_recrawl([], str(tmp_path / "out"), CFG)
        assert res == dict.fromkeys(RECRAWL_KEYS, 0)

    def test_warc_input_rejected_up_front(self, tmp_path):
        from service1_text_extraction_ray.pipelines.extract_pipeline import (
            run_incremental_recrawl)

        (tmp_path / "pages-a.warc.gz").write_bytes(b"")
        with pytest.raises(ValueError, match="reads parquet shards only"):
            run_incremental_recrawl(str(tmp_path), str(tmp_path / "out"), CFG)

    def test_job_cli_rejects_tolerant_warc_with_recrawl(self, tmp_path, capsys):
        from service1_text_extraction_ray.pipelines import job

        argv = ["--input", str(tmp_path), "--output", str(tmp_path / "out"),
                "--recrawl", "--tolerant-warc"]
        with pytest.raises(SystemExit) as exc:
            job.main(argv)
        assert exc.value.code == 2
        assert "--tolerant-warc" in capsys.readouterr().err


RECRAWL_KEYS = {"shards_touched", "n_replaced", "n_appended",
                "n_docs_touched_shards"}
