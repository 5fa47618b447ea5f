"""Extraction benchmark: end-to-end metrics of the Ray job, per-layer metrics
of a traced serial replay, and a correctness check against that replay.

    python3 extraction_bench/run.py --workload html_web|pdf_docs|recrawl_upsert
        --seed N --seconds S --trace 0|1 [--size DOCS]

Run from the repository root. One run:

1. materializes the workload's corpus from ``--seed`` (cached, untimed);
2. replays it serially through the layers' public functions (replay.py):
   the replay is the oracle, and with ``--trace 1`` it also records spans;
3. runs the real job (``run_extraction_job`` or ``run_incremental_recrawl``)
   in a fresh process at least ``MIN_REPS`` times and until ``--seconds``
   have passed, one job at a time (a closed loop), untraced;
4. checks every committed output against the oracle: per-url content hash,
   the XOR table hash and the summary counters.

The last stdout line is one JSON object: ``correct``, ``attempted`` (input
docs over all repetitions), ``failed`` (docs missing from the committed
output or whose hash differs from the oracle; a job that raises fails all
its docs) and ``metrics`` — medians over the repetitions of the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. Any
mismatch exits 1 after printing the result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
PACKAGE = "service1_text_extraction_ray"

# Ray session sizing, fixed so runs compare across machines and stay small
# on a shared box. num_cpus=1 deadlocks: the default actor pool takes the
# only CPU slot and the read/write tasks starve. Two logical CPUs leave the
# pool (1, 2) actors and the tasks room to run.
NUM_CPUS = 2
MIN_REPS = 3
JOB_TIMEOUT_S = 120
# A run must finish within 180 s; no repetition starts past this point.
LAST_REP_START_S = 110
# Ray's session sockets live under its temp dir; AF_UNIX paths are limited
# to 107 bytes and the session adds ~64, so a longer temp dir path falls
# back to Ray's default location.
MAX_RAY_DIR_LEN = 43

END_TO_END = {
    "docs_per_s": "1/s",
    "setup_s": "s",
    "first_commit_s": "s",
    "peak_rss_mb": "MB",
    "written_bytes_per_doc": "bytes",
}


def _job_env() -> dict:
    """Workers unpickle package classes by module path; they only find the
    package when it is on their PYTHONPATH (inherited from this env)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, env.get("PYTHONPATH")) if p)
    env["RAY_USAGE_STATS_ENABLED"] = "0"
    env["RAY_DATA_DISABLE_PROGRESS_BARS"] = "1"
    return env


def _ray_dir() -> str | None:
    path = os.path.join(ROOT, ".rt")
    return path if len(path) <= MAX_RAY_DIR_LEN else None


def run_job(mode: str, input_dir: str, out_dir: str) -> dict | None:
    """One job in a fresh process; None when it fails."""
    cmd = [sys.executable, os.path.join(HERE, "job.py"), "--mode", mode,
           "--input", input_dir, "--out", out_dir,
           "--num-cpus", str(NUM_CPUS)]
    ray_dir = _ray_dir()
    if ray_dir:
        cmd += ["--ray-dir", ray_dir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_job_env(), text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"# job timed out after {JOB_TIMEOUT_S}s", file=sys.stderr)
        return None
    finally:
        # Each session leaves its logs behind; drop them so the dir stays small.
        if ray_dir:
            shutil.rmtree(ray_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(proc.stderr[-4000:], file=sys.stderr)
        return None
    return json.loads(lines[-1])


def committed_hashes(out_dir: str) -> list:
    """(url, content_hash) of every row the committed manifests list."""
    import pyarrow.parquet as pq

    from service1_text_extraction_ray.state import lineage

    rows = []
    for rec in lineage.load_lineage(out_dir):
        ddir = lineage.shard_data_dir(out_dir, rec["shard_id"])
        for part in rec["parts"]:
            t = pq.read_table(os.path.join(ddir, part),
                              columns=["url", "content_hash"])
            rows.extend(zip(t["url"].to_pylist(),
                            t["content_hash"].to_pylist()))
    return rows


def count_failures(oracle: dict, committed: list) -> int:
    """Oracle urls missing or with another hash, plus unexpected rows."""
    seen: dict = {}
    extra = 0
    for url, h in committed:
        if url in seen or url not in oracle:
            extra += 1
        seen[url] = h
    bad = sum(1 for url, rec in oracle.items() if seen.get(url) != rec[0])
    return bad + extra


def check_rep(rep: dict | None, out_dir: str, oracle: dict, expect: dict,
              n_docs: int, recrawl: bool) -> tuple:
    """``(failed_docs, problems)`` of one repetition."""
    if rep is None:
        return n_docs, ["job failed"]
    problems = []
    summary = {k: rep["summary"][k] for k in expect}
    if summary != expect:
        problems.append(f"summary {summary} != oracle {expect}")
    if recrawl:
        got = (rep["result"]["n_replaced"], rep["result"]["n_appended"])
        if got != (n_docs, 0):
            problems.append(f"recrawl replaced/appended {got} != ({n_docs}, 0)")
    failed = min(n_docs, count_failures(oracle, committed_hashes(out_dir)))
    if failed:
        problems.append(f"{failed} docs missing or differing from the oracle")
    if rep["first_commit_s"] is None:
        problems.append("no shard manifest committed")
    return failed, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", type=int, default=None,
                    help="documents per job (default: the workload's size)")
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, PACKAGE)):
        print(f"{PACKAGE} not found in {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, ROOT]
    from replay import (
        LAYER_METRICS,
        Tracer,
        layer_metrics,
        oracle_summary,
        replay_full,
        replay_recrawl,
    )
    from workloads import WORKLOADS, materialize

    from service1_text_extraction_ray.functions.extract import ExtractConfig

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    size = args.size or wl.size
    t_run = time.monotonic()
    corpus = materialize(WORK, wl, args.seed, size)
    run_dir = os.path.join(WORK, f"run-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cfg = ExtractConfig()
    tracer = Tracer() if args.trace else None
    try:
        if wl.recrawl:
            base_out = os.path.join(run_dir, "base")
            base = replay_full(corpus.base_dir, base_out, cfg)
            replayed = replay_recrawl(corpus.job_dir, base_out,
                                      os.path.join(run_dir, "replay"),
                                      base.oracle, cfg, tracer)
        else:
            replayed = replay_full(corpus.job_dir,
                                   os.path.join(run_dir, "replay"), cfg,
                                   tracer)
        expect = oracle_summary(replayed.oracle)

        reps, failed, problems = [], 0, []
        t_loop = time.monotonic()
        while len(reps) < MIN_REPS or time.monotonic() - t_loop < args.seconds:
            if time.monotonic() - t_run > LAST_REP_START_S:
                break
            out = os.path.join(run_dir, "out")
            shutil.rmtree(out, ignore_errors=True)
            if wl.recrawl:
                shutil.copytree(base_out, out)
            rep = run_job("recrawl" if wl.recrawl else "full",
                          corpus.job_dir, out)
            f, p = check_rep(rep, out, replayed.oracle, expect,
                             corpus.n_docs, wl.recrawl)
            failed += f
            problems += p
            reps.append(rep)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    ok = [r for r in reps if r is not None]
    print(f"# workload={wl.name} seed={args.seed} docs={corpus.n_docs} "
          f"reps={len(reps)} session: num_cpus={NUM_CPUS} "
          f"cpus_available={len(os.sched_getaffinity(0))} "
          f"actor_pool={ok[0]['pool'] if ok else None} "
          f"PYTHONPATH=<checkout root> ray_temp_dir={_ray_dir() or 'default'}")
    for p in problems:
        print(f"# MISMATCH {p}")
    metrics = {}
    if ok:
        per_rep = {
            "docs_per_s": [corpus.n_docs / r["wall_s"] for r in ok],
            "setup_s": [r["setup_s"] for r in ok],
            "first_commit_s": [r["first_commit_s"] for r in ok
                               if r["first_commit_s"] is not None],
            "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
            "written_bytes_per_doc": [r["written_bytes"] / corpus.n_docs
                                      for r in ok],
        }
        e2e = {k: statistics.median(v) for k, v in per_rep.items() if v}
        for k, unit in END_TO_END.items():
            vals = " ".join(f"{v:.4g}" for v in per_rep[k])
            print(f"# {k} = {e2e.get(k, float('nan')):.6g} {unit}  (reps: {vals})")
        if args.trace:
            wall = statistics.median(r["wall_s"] for r in ok)
            layers = layer_metrics(replayed, wall)
            for k, v in layers.items():
                print(f"# {k} = {v:.6g} {LAYER_METRICS[k]}")
            metrics = {k: {"value": v, "unit": LAYER_METRICS[k]}
                       for k, v in layers.items()}
        else:
            metrics = {k: {"value": e2e[k], "unit": u}
                       for k, u in END_TO_END.items() if k in e2e}
    correct = bool(reps) and not problems and len(ok) == len(reps)
    print(json.dumps({
        "correct": correct,
        "attempted": corpus.n_docs * max(1, len(reps)),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
