"""Tests of the benchmark itself.

    python3 -m pytest extraction_bench -q -p no:cacheprovider

The smoke tests run each workload end to end at a tiny size (a few Ray jobs
each, about half a minute per workload); the others need no Ray.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, ROOT]

from replay import (  # noqa: E402
    Tracer,
    layer_metrics,
    layer_self_times,
    replay_full,
    replay_recrawl,
)
from run import count_failures  # noqa: E402
from workloads import WORKLOADS, materialize  # noqa: E402

from service1_text_extraction_ray.functions.extract import ExtractConfig  # noqa: E402


def _bench_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _run(args, cwd=ROOT, timeout=170):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "extraction_bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("workload,trace", [
    ("html_web", 0), ("pdf_docs", 1), ("recrawl_upsert", 1),
])
def test_smoke(workload, trace):
    size = {"html_web": 60, "pdf_docs": 16, "recrawl_upsert": 16}[workload]
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--size", str(size)])
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= size
    spec = _bench_spec()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["html_web", "recrawl_upsert"])
def test_self_times_add_up_to_busy_time(tmp_path, workload):
    wl = WORKLOADS[workload]
    corpus = materialize(str(tmp_path), wl, seed=5, size=40)
    cfg = ExtractConfig()
    tracer = Tracer()
    if wl.recrawl:
        base_out = str(tmp_path / "base")
        base = replay_full(corpus.base_dir, base_out, cfg)
        result = replay_recrawl(corpus.job_dir, base_out, str(tmp_path / "out"),
                                base.oracle, cfg, tracer)
    else:
        result = replay_full(corpus.job_dir, str(tmp_path / "out"), cfg, tracer)
    selfs = layer_self_times(tracer)
    assert {"sources", "sniff", "stage", "extract", "html", "quality",
            "lineage", "pipeline"} <= set(selfs)
    assert sum(selfs.values()) == pytest.approx(tracer.busy_total(), rel=1e-9)
    assert min(tracer.self_times()) >= 0
    m = layer_metrics(result, job_wall_s=10.0)
    assert m["sources.rows"] == corpus.n_docs
    assert m["stage.batches"] == len({s.batch for s in tracer.spans
                                      if s.batch is not None})
    assert m["lineage.commit_s"] > 0
    if wl.recrawl:
        assert m["lineage.rows_rewritten"] == len(result.oracle)
        assert m["lineage.upsert_s"] > 0
    else:
        assert m["sources.rows"] == len(result.oracle)


def test_count_failures():
    oracle = {"a": ("h1",), "b": ("h2",), "c": ("h3",)}
    assert count_failures(oracle, [("a", "h1"), ("b", "h2"), ("c", "h3")]) == 0
    # one missing, one wrong hash, one duplicate, one unknown url
    assert count_failures(oracle, [("a", "h1"), ("b", "x"), ("a", "h1"),
                                   ("z", "h9")]) == 4


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "extraction_bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "html_web", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=str(tmp_path), timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
