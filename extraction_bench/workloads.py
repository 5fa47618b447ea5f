"""Seeded workload corpora for the extraction benchmark.

Every corpus is a directory of Parquet shard files in the pages schema,
built from ``synth.make_row(i, seed)``. Rows are chosen by their FIXTURES §2
category (``i % 100``), so a workload fixes which branches of the engine run
while the seed varies the content. A corpus is materialized once per
(workload, seed, size) and reused; the cache key also carries a fingerprint
of ``make_row`` output, so a generator change never reuses stale inputs.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from dataclasses import dataclass

import pyarrow as pa
import pyarrow.parquet as pq

from service1_text_extraction_ray.functions.synth import (
    GIANT_ROW_MOD,
    GIANT_ROW_RESIDUES,
    PAGES_SCHEMA,
    make_row,
)

HTML_CATEGORIES = frozenset(range(0, 80)) | frozenset(range(95, 100))
PDF_CATEGORIES = frozenset(range(80, 95))
ALL_CATEGORIES = frozenset(range(100))

# The recrawl delta takes its new content from this seed offset; urls and
# categories depend only on the row index, so the delta replaces rows 1:1.
DELTA_SEED_OFFSET = 1_000_003
CACHE_KEEP = 6


@dataclass(frozen=True)
class Workload:
    """One benchmark input family.

    ``size`` is the number of documents the timed job processes (the delta
    size for ``recrawl``), ``files`` the number of input shard files.
    ``base_size`` is the committed table a recrawl merges into.
    """

    name: str
    categories: frozenset
    size: int
    files: int
    recrawl: bool = False
    base_size: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("html_web", HTML_CATEGORIES, size=1200, files=4),
        Workload("pdf_docs", PDF_CATEGORIES, size=200, files=4),
        Workload("recrawl_upsert", ALL_CATEGORIES, size=120, files=4,
                 recrawl=True, base_size=1200),
    )
}


def is_giant(i: int) -> bool:
    return i % GIANT_ROW_MOD in GIANT_ROW_RESIDUES


def row_indices(categories: frozenset, n: int) -> list:
    """The first ``n`` row indices whose category is in ``categories``."""
    out = []
    i = 0
    while len(out) < n:
        if i % 100 in categories:
            out.append(i)
        i += 1
    return out


def _split(items: list, n_files: int) -> list:
    step = -(-len(items) // n_files)
    return [items[k:k + step] for k in range(0, len(items), step)]


def delta_indices(base: list, files: int, size: int) -> list:
    """Per base shard, an evenly spread ``size // files`` non-giant rows."""
    per_file = max(1, size // files)
    out = []
    for shard in _split(base, files):
        small = [i for i in shard if not is_giant(i)]
        stride = max(1, len(small) // per_file)
        out.append(small[::stride][:per_file])
    return out


def generator_fingerprint() -> str:
    """Hash of ``make_row`` output over one row of every category plus a
    giant row: changes whenever the generator does."""
    h = hashlib.sha256()
    for i in list(range(100)) + [GIANT_ROW_RESIDUES[0]]:
        h.update(make_row(i, seed=0)["html"])
    return h.hexdigest()[:12]


def _write_shards(path: str, shards: list, seed: int) -> None:
    os.makedirs(path)
    for k, idx in enumerate(shards):
        rows = [make_row(i, seed) for i in idx]
        pq.write_table(pa.Table.from_pylist(rows, schema=PAGES_SCHEMA),
                       os.path.join(path, f"part-{k:05d}.parquet"))


@dataclass(frozen=True)
class Corpus:
    """Materialized inputs of one (workload, seed, size): ``job_dir`` is what
    the timed job reads; ``base_dir`` holds the recrawl base inputs."""

    job_dir: str
    base_dir: str | None
    n_docs: int


def materialize(work_dir: str, wl: Workload, seed: int, size: int) -> Corpus:
    """Build (or reuse) the corpus under ``work_dir/corpus``; keeps only the
    ``CACHE_KEEP`` most recently used corpora so repeated seeds stay cheap
    and the cache stays small."""
    cache = os.path.join(work_dir, "corpus")
    base_size = wl.base_size * size // wl.size if wl.recrawl else 0
    key = f"{wl.name}-s{seed}-n{size}-{generator_fingerprint()}"
    root = os.path.join(cache, key)
    job_dir = os.path.join(root, "delta" if wl.recrawl else "pages")
    base_dir = os.path.join(root, "base") if wl.recrawl else None
    marker = os.path.join(root, "_COMPLETE")
    if not os.path.exists(marker):
        shutil.rmtree(root, ignore_errors=True)
        if wl.recrawl:
            base = row_indices(wl.categories, base_size)
            _write_shards(base_dir, _split(base, wl.files), seed)
            _write_shards(job_dir, delta_indices(base, wl.files, size),
                          seed + DELTA_SEED_OFFSET)
        else:
            _write_shards(job_dir, _split(row_indices(wl.categories, size),
                                          wl.files), seed)
        with open(marker, "w") as f:
            f.write(key)
    os.utime(marker)
    entries = sorted(
        (os.path.getmtime(os.path.join(cache, d, "_COMPLETE")), d)
        for d in os.listdir(cache)
        if os.path.exists(os.path.join(cache, d, "_COMPLETE"))
    )
    for _, d in entries[:-CACHE_KEEP]:
        shutil.rmtree(os.path.join(cache, d), ignore_errors=True)
    n_docs = sum(pq.ParquetFile(os.path.join(job_dir, f)).metadata.num_rows
                 for f in os.listdir(job_dir))
    return Corpus(job_dir, base_dir, n_docs)
