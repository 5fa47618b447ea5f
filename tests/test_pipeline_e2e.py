"""End-to-end golden tests: the distributed Ray job must produce
byte-identical extractions to the sequential oracle, at any parallelism,
and must resume correctly from per-shard lineage."""

import glob
import os
import re
import shutil
import signal
import sys

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from service1_text_extraction_ray.functions.extract import ExtractConfig, extract_document
from service1_text_extraction_ray.functions.sniff import sniff_table
from service1_text_extraction_ray.functions.synth import gen_pages_table, write_pages_parquet
from service1_text_extraction_ray.pipelines.extract_pipeline import (
    extract_dataset,
    extract_pages_dataset,
    run_extraction_job,
)
from service1_text_extraction_ray.stages.extract_stage import (
    DOC_SCHEMA,
    ExtractDocuments,
    explode_pages,
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


# Generous: under a fully loaded suite run a job CLI subprocess's own Ray
# session can take >60 s just to start (observed flake at 120 s).
CLI_TIMEOUT_S = 300
# The job CLI starts its own local Ray session, never the test session's.
_JOB_ENV = dict(os.environ, RAY_ADDRESS="local")


def _tree_bytes(root: str) -> dict:
    """Every file under ``root``, by relative path, with its bytes."""
    out = {}
    for d, _, names in os.walk(root):
        for n in names:
            path = os.path.join(d, n)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = f.read()
    return out


def _job_cli(input_dir: str, out_dir: str, num_cpus: int = 2) -> list:
    return [
        sys.executable, "-m", "service1_text_extraction_ray.pipelines.job",
        "--input", input_dir, "--output", out_dir, "--num-cpus", str(num_cpus),
    ]


def _descendants(pid: int) -> list:
    """Pids of every descendant of ``pid`` (the job CLI's Ray GCS, raylet
    and workers), read from the parent links in /proc."""
    children: dict = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(name))
    out, todo = [], [pid]
    while todo:
        kids = children.get(todo.pop(), [])
        out.extend(kids)
        todo.extend(kids)
    return out


def _kill_job(proc) -> None:
    """SIGKILL a job CLI driver together with every process it started, as a
    machine crash would: its in-flight tasks die mid-write instead of going
    on to commit shards."""
    for pid in [proc.pid, *_descendants(proc.pid)]:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    proc.wait()


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


def test_committed_parts_store_page_text_once(ray_session, corpus_dir, oracle_results, tmp_path):
    """A committed part holds page text once, and a DOM page's layout as its
    block tags; the readers rebuild doc_text, every page's page_md and every
    layout_json byte for byte, so the golden surfaces hold through storage."""
    out = str(tmp_path / "out")
    run_extraction_job(corpus_dir, out, CFG)
    n_dom = 0
    for rec in lin.load_lineage(out):
        for part in rec["parts"]:
            raw = pq.read_table(os.path.join(lin.shard_data_dir(out, rec["shard_id"]), part))
            assert "doc_text" not in raw.schema.names
            assert raw.schema.field("pages").type.value_type.get_field_index("page_md") < 0
            for pages in raw["pages"].to_pylist():
                for p in pages:
                    if p["method"] == "dom":
                        n_dom += 1
                        assert p["layout_json"] is None and p["layout_tags"], p
    assert n_dom > 0

    table = lin.read_all(out)
    assert table.schema.names == DOC_SCHEMA.names
    assert [f.name for f in table.schema.field("pages").type.value_type] == [
        f.name for f in DOC_SCHEMA.field("pages").type.value_type]
    assert_matches_oracle(table, oracle_results)
    for url, pages in zip(table["url"].to_pylist(), table["pages"].to_pylist()):
        for key in ("page_md", "layout_json"):
            assert [p[key] for p in pages] == [
                p[key] for p in oracle_results[url]["pages"]], (url, key)

    by_url: dict = {}
    for r in explode_pages(table).to_pylist():
        by_url.setdefault(r["url"], []).append((r["page_md"], r["layout_json"]))
    assert by_url == {
        url: [(p["page_md"], p["layout_json"]) for p in o["pages"]]
        for url, o in oracle_results.items() if o["pages"]
    }


def test_parallelism_levels_byte_identical(ray_session, corpus_dir, oracle_results, tmp_path):
    """The per-row invariant from BASELINE.json: byte-identical extracted
    text per url across parallelism levels (here: a one-CPU job CLI session
    and the four-CPU test session). The one-CPU run also pins that the job
    cannot deadlock when read, parse and write share a single CPU slot."""
    import json
    import subprocess

    out1 = str(tmp_path / "p1")
    out2 = str(tmp_path / "p2")
    proc = subprocess.Popen(
        _job_cli(corpus_dir, out1, num_cpus=1), env=_JOB_ENV,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _kill_job(proc)
        pytest.fail(f"--num-cpus 1 job still running after {CLI_TIMEOUT_S} s")
    assert proc.returncode == 0, f"--num-cpus 1 job failed:\n{stderr[-4000:]}"
    s1 = json.loads(stdout.strip().splitlines()[-1])
    s2 = run_extraction_job(corpus_dir, out2, CFG)
    assert s1["content_hash"] == s2["content_hash"]
    t1, t2 = read_output(out1), read_output(out2)
    assert_matches_oracle(t1, oracle_results)
    assert_matches_oracle(t2, oracle_results)
    # Row-level byte stability across CPU counts, and the same part layout:
    # one task per input file writes each shard as one content-addressed
    # part, whatever the CPU count.
    assert t1.sort_by("url").equals(t2.sort_by("url"))
    parts1 = {r["shard_id"]: r["parts"] for r in lin.load_lineage(out1)}
    parts2 = {r["shard_id"]: r["parts"] for r in lin.load_lineage(out2)}
    assert parts1 == parts2
    assert all(len(p) == 1 for p in parts1.values())


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
    # Tables written before commits came from the writer's own part records
    # also hold per-part summaries under lineage/pending/; no reader looks
    # at them, so resume must work with them left in place.
    for sid in (*keep, torn):
        pdir = os.path.join(out_part, "lineage", "pending", f"shard_{sid}")
        os.makedirs(pdir)
        with open(os.path.join(pdir, "part-0123456789abcdef0123.json"), "w") as f:
            f.write('{"n_docs": 999, "part": "part-0123456789abcdef0123.parquet"}')

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


def test_file_task_raises_naming_a_file_whose_shard_does_not_commit(corpus_dir, tmp_path):
    """The file task commits its shard only when the rows it wrote are the
    rows it read; otherwise it raises, naming the file, and leaves no
    manifest behind."""
    from service1_text_extraction_ray.pipelines.extract_pipeline import ExtractFile
    from service1_text_extraction_ray.sources.pages_source import list_input_files

    path = list_input_files(corpus_dir)[0]
    task = ExtractFile(str(tmp_path / "out"), CFG)
    extract = task.extract
    task.extract = lambda batch: extract(batch).slice(1)  # drops one doc per slice
    with pytest.raises(RuntimeError, match=re.escape(path)):
        task(path)
    assert lin.load_lineage(str(tmp_path / "out")) == []


@pytest.mark.parametrize("task_name", ["ExtractFile", "MergeFile"])
def test_file_task_refuses_a_file_with_null_urls_before_parsing(task_name, tmp_path):
    """A null url fails the file task right after the read, naming the
    file: nothing is parsed and no manifest is written."""
    from service1_text_extraction_ray.pipelines import extract_pipeline

    src = gen_pages_table(5, seed=1)
    urls = src["url"].to_pylist()
    urls[1] = urls[3] = None
    src = src.set_column(src.schema.get_field_index("url"), "url",
                         pa.array(urls, pa.string()))
    path = str(tmp_path / "pages-00000.parquet")
    pq.write_table(src, path)
    out = str(tmp_path / "out")
    task = getattr(extract_pipeline, task_name)(out, CFG)

    def no_parse(batch):
        raise AssertionError("a file with null urls was parsed")

    task.extract = no_parse
    with pytest.raises(ValueError, match=re.escape(f"input file {path} has 2 rows with a null url")):
        task(path)
    assert lin.load_lineage(out) == []


def test_sniff_without_paths_refuses_null_urls():
    """With no ``path`` column (an in-memory dataset through
    ``extract_dataset``) the shard comes from the url: a null url fails the
    batch with a ValueError that counts the rows, as the file task does."""
    src = gen_pages_table(5, seed=1)
    urls = src["url"].to_pylist()
    urls[1] = urls[3] = None
    src = src.set_column(src.schema.get_field_index("url"), "url",
                         pa.array(urls, pa.string()))
    with pytest.raises(ValueError, match="has 2 rows with a null url"):
        sniff_table(src, CFG.size_bucket_edges)


def test_failed_merge_leaves_its_shard_as_it_was(corpus_dir, tmp_path):
    """The recrawl's file task merges only when the rows it extracted are
    the rows it read; otherwise it raises, naming the file, before it
    writes anything, so the shard's manifest and parts stay byte for byte
    as they were."""
    from service1_text_extraction_ray.pipelines.extract_pipeline import (
        ExtractFile,
        MergeFile,
    )
    from service1_text_extraction_ray.sources.pages_source import list_input_files

    path = list_input_files(corpus_dir)[0]
    out = str(tmp_path / "out")
    ExtractFile(out, CFG)(path)
    before = _tree_bytes(out)
    task = MergeFile(out, CFG)
    extract = task.extract
    task.extract = lambda batch: extract(batch).slice(1)  # drops one doc per slice
    with pytest.raises(RuntimeError, match=re.escape(path)):
        task(path)
    assert _tree_bytes(out) == before


def test_job_rejects_input_files_sharing_a_shard_id(corpus_dir, tmp_path):
    """Shard identity is the file basename, and each file's task commits
    its shard alone: two files with one basename (here from two
    directories) would overwrite one another's manifest, so the job and
    the recrawl refuse them up front, naming both, before they write
    anything."""
    from service1_text_extraction_ray.pipelines.extract_pipeline import (
        ExtractFile,
        run_incremental_recrawl,
    )
    from service1_text_extraction_ray.sources.pages_source import list_input_files

    src = list_input_files(corpus_dir)[0]
    files = []
    for d in ("a", "b"):
        os.makedirs(tmp_path / d)
        files.append(shutil.copy(src, tmp_path / d))
    out = str(tmp_path / "out")
    with pytest.raises(ValueError, match="share a shard id") as err:
        run_extraction_job(files, out, CFG)
    assert all(f in str(err.value) for f in files)
    assert not os.path.exists(out)

    # A recrawl of the two files into a table holding their shard.
    ExtractFile(out, CFG)(src)
    before = _tree_bytes(out)
    with pytest.raises(ValueError, match="share a shard id") as err:
        run_incremental_recrawl(files, out, CFG)
    assert all(f in str(err.value) for f in files)
    assert _tree_bytes(out) == before


def _write_bad_parquet(in_dir: str) -> str:
    """Write a ``.parquet`` file that holds no Parquet into ``in_dir``;
    returns its path."""
    bad = os.path.join(in_dir, "bad.parquet")
    with open(bad, "wb") as f:
        f.write(b"these bytes are not a parquet file")
    return bad


def test_job_raises_the_file_tasks_own_error(ray_session, corpus_dir, tmp_path):
    """A file task's error reaches the caller as the task raised it: an
    unreadable input fails the job with ``ExtractFile``'s ValueError naming
    the file, not a Ray wrapper. With the file removed, a resumed run
    converges to a clean run's rows."""
    from service1_text_extraction_ray.sources.pages_source import list_input_files

    inp, out = str(tmp_path / "in"), str(tmp_path / "out")
    os.makedirs(inp)
    for f in list_input_files(corpus_dir)[:2]:
        shutil.copy(f, inp)
    bad = _write_bad_parquet(inp)
    with pytest.raises(ValueError, match=f"cannot read input file {re.escape(bad)}"):
        run_extraction_job(inp, out, CFG)
    os.remove(bad)
    assert run_extraction_job(inp, out, CFG, resume=True)["n_docs"] == 200
    clean = str(tmp_path / "clean")
    run_extraction_job(inp, clean, CFG)
    assert read_output(out).sort_by("url").equals(read_output(clean).sort_by("url"))


@pytest.mark.parametrize("case", ["empty", "missing", "not_a_shard", "missing_file_arg"])
def test_job_refuses_bad_input_before_touching_the_table(corpus_dir, tmp_path, case):
    """An input that names no shard file is refused before the job purges
    or removes anything: the committed table stays byte for byte."""
    from service1_text_extraction_ray.pipelines.extract_pipeline import ExtractFile
    from service1_text_extraction_ray.sources.pages_source import list_input_files

    out = str(tmp_path / "out")
    ExtractFile(out, CFG)(list_input_files(corpus_dir)[0])
    before = _tree_bytes(out)
    (tmp_path / "notes.txt").write_text("not a shard")
    bad = {
        "empty": ([], "empty input file list"),
        "missing": ([str(tmp_path / "gone.parquet")], "gone.parquet"),
        "not_a_shard": ([str(tmp_path / "notes.txt")], "notes.txt"),
        "missing_file_arg": (str(tmp_path / "gone.parquet"), "gone.parquet"),
    }
    input_path, message = bad[case]
    with pytest.raises(ValueError, match=re.escape(message)):
        run_extraction_job(input_path, out, CFG)
    assert _tree_bytes(out) == before


def test_job_cli_refuses_an_out_of_range_config_before_ray_starts(
        corpus_dir, tmp_path, capsys, monkeypatch):
    import ray

    from service1_text_extraction_ray.pipelines import job

    def no_ray():
        raise AssertionError("the CLI touched Ray before checking its config")

    monkeypatch.setattr(ray, "is_initialized", no_ray)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        job.main(["--input", corpus_dir, "--output", str(out),
                  "--max-payload-bytes", "-1"])
    assert exc.value.code == 2
    assert "max_payload_bytes" in capsys.readouterr().err
    assert not out.exists()


def test_job_cli_refuses_an_unknown_ocr_backend_before_ray_starts(
        corpus_dir, tmp_path, capsys, monkeypatch):
    import ray

    from service1_text_extraction_ray.pipelines import job

    def no_ray():
        raise AssertionError("the CLI touched Ray before checking its config")

    monkeypatch.setattr(ray, "is_initialized", no_ray)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        job.main(["--input", corpus_dir, "--output", str(out),
                  "--ocr-backend", "nope"])
    assert exc.value.code == 2
    assert "ocr_backend" in capsys.readouterr().err
    assert not out.exists()


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
    """True crash test (FIXTURES.md §4 item 4): SIGKILL the job, driver and
    Ray workers alike, after the first incremental manifest commit; resume
    must skip the committed shards and converge to the same final output.
    Runs the job CLI in subprocesses with their own Ray sessions (slow path,
    but the only honest kill test)."""
    import json
    import subprocess
    import time

    out = str(tmp_path / "killed")
    cmd = _job_cli(corpus_dir, out)
    proc = subprocess.Popen(cmd, env=_JOB_ENV, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    deadline = time.time() + CLI_TIMEOUT_S
    killed = False
    try:
        while time.time() < deadline:
            if lin.load_lineage(out):
                _kill_job(proc)
                killed = True
                break
            if proc.poll() is not None:
                break  # finished before we could kill — still a valid run
            time.sleep(0.2)
    finally:
        if proc.poll() is None:
            _kill_job(proc)
        proc.wait()

    done_after_kill = lin.completed_shards(out)

    res = subprocess.run(cmd + ["--resume"], env=_JOB_ENV, capture_output=True, text=True)
    assert res.returncode == 0, f"resume run failed:\n{res.stderr[-4000:]}"
    summary = json.loads(res.stdout.strip().splitlines()[-1])
    assert summary["n_docs"] == N_ROWS
    if killed and done_after_kill:
        assert summary["resumed_shards_skipped"] == len(done_after_kill)
    # Converged output matches a clean full run, row for row.
    clean = str(tmp_path / "clean")
    res2 = subprocess.run(_job_cli(corpus_dir, clean), env=_JOB_ENV,
                          capture_output=True, text=True)
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



_FOREIGN_MAP_DRIVER = """
import json, sys
sys.path.insert(0, sys.argv[1])  # the package is on the DRIVER's path only
import ray
ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
import ray.data as rd
from service1_text_extraction_ray.functions.sniff import sniff_table
from service1_text_extraction_ray.functions.synth import gen_pages_table
ds = rd.from_arrow(gen_pages_table(20, seed=42)).map_batches(
    sniff_table, batch_format="pyarrow", fn_args=(tuple(json.loads(sys.argv[2])),))
print(json.dumps(sorted({r["content_kind"] for r in ds.take_all()})))
ray.shutdown()
"""


def test_public_function_maps_from_foreign_cwd_without_an_entry_point(tmp_path):
    """Importing the package ships it to the workers: a public function
    mapped with plain ``ray.data`` from a foreign cwd runs, although no
    engine entry point ran first to register the package."""
    import json
    import subprocess

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cwd = tmp_path / "elsewhere"
    cwd.mkdir()
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "RAY_ADDRESS")}
    res = subprocess.run(
        [sys.executable, "-c", _FOREIGN_MAP_DRIVER, repo,
         json.dumps(list(CFG.size_bucket_edges))],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
    )
    assert res.returncode == 0, f"map failed:\n{res.stderr[-4000:]}"
    kinds = sniff_table(gen_pages_table(20, seed=42), CFG.size_bucket_edges)
    assert json.loads(res.stdout.strip().splitlines()[-1]) == sorted(
        set(kinds["content_kind"].to_pylist()))


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

    def test_compact_preserves_content_and_is_idempotent(self, tmp_path, monkeypatch):
        from service1_text_extraction_ray.state import lineage as L

        monkeypatch.setattr(L, "PART_TARGET_ROWS", 100)
        out = str(tmp_path / "job")
        recs = [L.write_part(out, 3, self._rows(i0, 5)) for i0 in (0, 5, 10)]
        before = L.commit_shard_manifest(out, 3, recs)
        assert len(before["parts"]) == 3

        after = L.compact_shard(out, 3)
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
        again = L.compact_shard(out, 3)
        assert again["parts"] == after["parts"]
        # three parts over a smaller target: 12 rows / 6 -> 2 even parts
        monkeypatch.setattr(L, "PART_TARGET_ROWS", 6)
        recs = [L.write_part(out, 4, self._rows(i0, 4)) for i0 in (20, 24, 28)]
        before = L.commit_shard_manifest(out, 4, recs)
        split = L.compact_shard(out, 4)
        assert len(split["parts"]) == 2
        assert L.summarize([split]) == L.summarize([before])

    def test_compact_checks_content_before_it_commits(self, tmp_path, monkeypatch):
        """A compaction whose rewritten parts do not hold the shard's
        content raises before the manifest re-points: the manifest and the
        old parts stay as they were."""
        from service1_text_extraction_ray.state import lineage as L

        out = str(tmp_path / "job")
        recs = [L.write_part(out, 3, self._rows(i0, 5)) for i0 in (0, 5, 10)]
        L.commit_shard_manifest(out, 3, recs)
        with open(L.manifest_path(out, 3), "rb") as f:
            manifest = f.read()
        read = L._read_parts
        monkeypatch.setattr(L, "_read_parts", lambda *a, **k: read(*a, **k).slice(1))
        monkeypatch.setattr(L, "PART_TARGET_ROWS", 100)
        with pytest.raises(RuntimeError, match="compaction changed shard 3"):
            L.compact_shard(out, 3)
        with open(L.manifest_path(out, 3), "rb") as f:
            assert f.read() == manifest
        assert {r["part"] for r in recs} <= set(os.listdir(L.shard_data_dir(out, 3)))


def _part_form(path: str) -> str:
    """Which writer stored a part: ``doc_text`` (before page text was stored
    once), ``layout_json`` (every layout as JSON) or ``layout_tags``."""
    raw = pq.read_schema(path)
    if "doc_text" in raw.names:
        return "doc_text"
    item = raw.field("pages").type.value_type
    assert item.get_field_index("page_md") < 0
    return "layout_tags" if item.get_field_index("layout_tags") >= 0 else "layout_json"


class TestStoredLayout:
    """A shard may hold parts written with doc_text and pages.page_md (before
    page text was stored once), parts with every layout_json and parts with
    DOM layouts as block tags: reads, upserts and compaction treat them as
    one table, and rewrite them in the newest form."""

    @staticmethod
    def _docs(n, seed=42, start=0):
        src = gen_pages_table(n, seed=seed, start=start)
        src = src.append_column("path", pa.array(["pages-00000.parquet"] * n))
        return ExtractDocuments(CFG)(sniff_table(src, CFG.size_bucket_edges)).sort_by("url")

    @staticmethod
    def _mixed_shard(out, sid, docs, monkeypatch):
        third = docs.num_rows // 3
        with monkeypatch.context() as m:
            m.setattr(lin, "_part_layout", lambda t: t)  # the first writer
            old = lin.write_part(out, sid, docs.slice(0, third))
        with monkeypatch.context() as m:
            m.setattr(lin, "_with_layout_tags", lambda t: t)  # the second
            mid = lin.write_part(out, sid, docs.slice(third, third))
        new = lin.write_part(out, sid, docs.slice(2 * third))
        ddir = lin.shard_data_dir(out, sid)
        assert [_part_form(os.path.join(ddir, r["part"])) for r in (old, mid, new)] == [
            "doc_text", "layout_json", "layout_tags"]
        return lin.commit_shard_manifest(out, sid, [old, mid, new])

    @staticmethod
    def _assert_newest_form(out, sid, parts):
        ddir = lin.shard_data_dir(out, sid)
        for part in parts:
            assert _part_form(os.path.join(ddir, part)) == "layout_tags"
            for pages in pq.read_table(os.path.join(ddir, part))["pages"].to_pylist():
                for p in pages:
                    if p["method"] == "dom":
                        assert p["layout_json"] is None and p["layout_tags"]

    def test_mixed_shard_reads_as_one_doc_table(self, tmp_path, monkeypatch):
        out = str(tmp_path / "t")
        docs = self._docs(60)
        self._mixed_shard(out, 0, docs, monkeypatch)
        got = lin.read_shard(out, 0).sort_by("url")
        assert got.schema.names == DOC_SCHEMA.names
        assert got.equals(docs)
        assert lin.read_all(out).sort_by("url").equals(docs)
        v = lin.commit_snapshot(out)["version"]
        assert lin.read_snapshot(out, v).sort_by("url").equals(docs)

    def test_compact_mixed_shard_preserves_content(self, tmp_path, monkeypatch):
        out = str(tmp_path / "t")
        docs = self._docs(60)
        before = self._mixed_shard(out, 0, docs, monkeypatch)
        monkeypatch.setattr(lin, "PART_TARGET_ROWS", 100)
        after = lin.compact_shard(out, 0)
        assert len(after["parts"]) == 1
        assert dict(after, parts=None) == dict(before, parts=None)
        self._assert_newest_form(out, 0, after["parts"])
        assert lin.read_shard(out, 0).sort_by("url").equals(docs)

    def test_upsert_mixed_shard_recounts_merged_rows(self, tmp_path, monkeypatch):
        out = str(tmp_path / "t")
        docs = self._docs(60)
        self._mixed_shard(out, 0, docs, monkeypatch)
        # urls 20..39 re-extracted from other payloads (urls depend on the
        # row index only), 60..64 new
        updates = pa.concat_tables([self._docs(20, seed=99, start=20),
                                    self._docs(5, start=60)])
        rec = lin.upsert_shard(out, 0, updates)
        assert (rec["n_replaced"], rec["n_appended"]) == (20, 5)
        urls = set(updates["url"].to_pylist())
        expected = pa.concat_tables([
            docs.filter(pa.array([u not in urls for u in docs["url"].to_pylist()])),
            updates,
        ]).sort_by("url")
        counters = lin.part_counters(expected)
        assert {k: rec[k] for k in counters} == counters
        self._assert_newest_form(out, 0, rec["parts"])
        assert lin.read_shard(out, 0).sort_by("url").equals(expected)

    @staticmethod
    def _pdf_rows(n):
        """``n`` DOC_SCHEMA rows of one PDF page each, in 8 chunks. Their
        layout_json strings are distinct and over 1 MB in all, past
        parquet's dictionary page limit, where chunk boundaries can change
        the bytes written."""
        import hashlib
        import random

        rng = random.Random(0)
        rows = [{
            "url": f"https://p.example/{i}", "status": "ok", "truncated": False,
            "n_pages": 1, "n_pages_ok": 1, "doc_text": "--- PAGE 1 ---\nx",
            "doc_chars": 16, "password_required": False,
            "content_hash": hashlib.sha256(str(i).encode()).hexdigest(),
            "pages": [{"page": 1, "method": "pdf_text", "text": "x",
                       "page_md": "# Page 1 - PDF_TEXT\n\nx", "n_chars": 1,
                       "layout_json": rng.randbytes(2000).hex()}],
        } for i in range(n)]
        table = pa.Table.from_pylist(rows, schema=DOC_SCHEMA)
        step = -(-n // 8)
        return pa.concat_tables([table.slice(i, step) for i in range(0, n, step)])

    def test_pdf_part_is_written_as_before(self, tmp_path, monkeypatch):
        """A part with no DOM page gets no layout_tags field: it is written
        byte for byte as before the field existed, also when compaction
        (whose rows carry the field) rewrites it."""
        pdf = self._pdf_rows(400)
        monkeypatch.setattr(lin, "PART_TARGET_ROWS", 1000)

        def read(out, sid, part):
            path = os.path.join(lin.shard_data_dir(out, sid), part)
            with open(path, "rb") as f:
                return path, f.read()

        def run(out):
            recs = [lin.write_part(out, 0, pdf.slice(0, 200)),
                    lin.write_part(out, 0, pdf.slice(200))]
            whole = lin.write_part(out, 1, pdf)
            parts = [read(out, 0, r["part"]) for r in recs] + [read(out, 1, whole["part"])]
            lin.commit_shard_manifest(out, 0, recs)
            compacted = lin.compact_shard(out, 0)
            assert len(compacted["parts"]) == 1
            parts.append(read(out, 0, compacted["parts"][0]))
            return [p for p, _ in parts], [b for _, b in parts]

        with monkeypatch.context() as m:
            m.setattr(lin, "_with_layout_tags", lambda t: t)  # the writer before
            _, before = run(str(tmp_path / "before"))
        paths, now = run(str(tmp_path / "now"))
        assert now == before
        raw = pq.read_schema(paths[-1])
        assert raw.names == [n for n in DOC_SCHEMA.names if n != "doc_text"]
        assert [f.name for f in raw.field("pages").type.value_type] == [
            f.name for f in DOC_SCHEMA.field("pages").type.value_type if f.name != "page_md"]


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

    def test_rerun_of_a_recrawl_converges(self, ray_session, corpus_dir, tmp_path):
        """A recrawl commits shard by shard, so a failed one may leave some
        shards merged; re-running it converges. Here the second run of the
        same recrawl replaces every delta doc with itself and leaves every
        table file byte for byte as the first run left it."""
        from service1_text_extraction_ray.pipelines.extract_pipeline import (
            run_incremental_recrawl)

        out = str(tmp_path / "out")
        run_extraction_job(corpus_dir, out, CFG)
        rdir, _, rows = self._recrawl_file(corpus_dir, tmp_path)
        run_incremental_recrawl(rdir, out, CFG)
        once = _tree_bytes(out)
        res = run_incremental_recrawl(rdir, out, CFG)
        assert _tree_bytes(out) == once
        assert {p.split(os.sep)[0] for p in once} == {"data", "lineage"}
        assert res["n_replaced"] == len(rows) and res["n_appended"] == 0

    def test_bad_delta_file_raises_its_own_error(self, ray_session, corpus_dir, tmp_path):
        """An unreadable delta file fails the recrawl with ``MergeFile``'s
        ValueError naming the file; re-running without it converges to a
        clean recrawl's rows."""
        from service1_text_extraction_ray.pipelines.extract_pipeline import (
            run_incremental_recrawl)

        out, clean = str(tmp_path / "out"), str(tmp_path / "clean")
        run_extraction_job(corpus_dir, out, CFG)
        run_extraction_job(corpus_dir, clean, CFG)
        rdir, _, _ = self._recrawl_file(corpus_dir, tmp_path)
        bad = _write_bad_parquet(rdir)
        with pytest.raises(ValueError, match=f"cannot read input file {re.escape(bad)}"):
            run_incremental_recrawl(rdir, out, CFG)
        os.remove(bad)
        run_incremental_recrawl(rdir, out, CFG)
        run_incremental_recrawl(rdir, clean, CFG)
        assert read_output(out).sort_by("url").equals(read_output(clean).sort_by("url"))

    def test_zero_row_delta_file_leaves_its_shard_untouched(
        self, ray_session, corpus_dir, tmp_path
    ):
        """A delta file with no rows changes nothing: its shard keeps its
        manifest and parts, it is not counted as touched, and the recrawl
        leaves no staging directory behind."""
        from service1_text_extraction_ray.functions.sniff import stable_shard_id
        from service1_text_extraction_ray.pipelines.extract_pipeline import (
            run_incremental_recrawl)

        out = str(tmp_path / "out")
        run_extraction_job(corpus_dir, out, CFG)
        fname = sorted(f for f in os.listdir(corpus_dir) if f.endswith(".parquet"))[0]
        sid = stable_shard_id(fname)
        manifest = {r["shard_id"]: r for r in lin.load_lineage(out)}[sid]
        parts = sorted(os.listdir(lin.shard_data_dir(out, sid)))

        rdir = tmp_path / "empty_delta"
        rdir.mkdir()
        schema = pq.read_schema(os.path.join(corpus_dir, fname))
        pq.write_table(schema.empty_table(), str(rdir / fname))
        res = run_incremental_recrawl(str(rdir), out, CFG)

        assert res == dict.fromkeys(RECRAWL_KEYS, 0)
        assert {r["shard_id"]: r for r in lin.load_lineage(out)}[sid] == manifest
        assert sorted(os.listdir(lin.shard_data_dir(out, sid))) == parts
        assert not os.path.exists(os.path.join(out, "_recrawl"))

    def test_empty_input_is_refused_before_anything_runs(self, tmp_path):
        """An empty file list names no shard to merge: it raises, as
        ``run_extraction_job`` does, and a snapshot is not written into
        an ``out`` that holds no table."""
        from service1_text_extraction_ray.pipelines.extract_pipeline import (
            run_incremental_recrawl)

        out = tmp_path / "out"
        with pytest.raises(ValueError, match="empty input file list"):
            run_incremental_recrawl([], str(out), CFG, snapshot=True)
        assert not out.exists()

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

    def test_job_cli_rejects_resume_with_recrawl(self, tmp_path, capsys):
        """A recrawl merges every file it is given and has no shards to
        skip, so ``--resume`` with ``--recrawl`` is refused, not dropped."""
        from service1_text_extraction_ray.pipelines import job

        argv = ["--input", str(tmp_path), "--output", str(tmp_path / "out"),
                "--recrawl", "--resume"]
        with pytest.raises(SystemExit) as exc:
            job.main(argv)
        assert exc.value.code == 2
        assert "--resume" in capsys.readouterr().err


RECRAWL_KEYS = {"shards_touched", "n_replaced", "n_appended",
                "n_docs_touched_shards"}
