"""One untraced job in a fresh process; prints one JSON line.

    python3 extraction_bench/job.py --mode full|recrawl --input DIR --out DIR
        --num-cpus N --ray-dir DIR

``setup_s`` covers importing Ray and the package, ``ray.init`` and package
registration. The job is the package's public entry point:
``run_extraction_job`` (``full``) or ``run_incremental_recrawl``
(``recrawl``, over an already committed table in ``--out``). After it
returns, the lineage directory gives the time of the first manifest commit
and the output directory the bytes the job wrote.

Peak memory: Ray's raylet reaps its workers without accounting them to its
parent, so ``getrusage(RUSAGE_CHILDREN)`` after shutdown never sees the
workers. A thread instead reads the peak resident size (``VmHWM``) of every
descendant process a few times a second; since that value only grows, the
last reading before a worker exits holds its peak.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import threading
import time

SAMPLE_INTERVAL_S = 0.2
OBJECT_STORE_MB = 512


def snapshot_files(root: str) -> dict:
    """``{path: (inode, size, mtime_ns)}`` of every file under ``root``."""
    snap = {}
    for dirpath, _, names in os.walk(root):
        for n in names:
            p = os.path.join(dirpath, n)
            try:
                st = os.stat(p)
            except FileNotFoundError:
                continue
            snap[p] = (st.st_ino, st.st_size, st.st_mtime_ns)
    return snap


def written_since(before: dict, after: dict) -> dict:
    """Files that are new or were replaced between two snapshots."""
    return {p: v for p, v in after.items() if before.get(p) != v}


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _descendants(root: int) -> list:
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
    out, todo = [], [root]
    while todo:
        kids = children.get(todo.pop(), [])
        out.extend(kids)
        todo.extend(kids)
    return out


def _wait_gone(pids: list, timeout_s: float = 10.0) -> None:
    """Wait for processes Ray started to exit; kill any left at the deadline
    (orphaned workers are not our children, so they cannot be reaped here)."""
    deadline = time.monotonic() + timeout_s
    alive = list(pids)
    while alive:
        alive = [p for p in alive if _running(p)]
        if time.monotonic() > deadline:
            for p in alive:
                try:
                    os.kill(p, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = float("inf")
        time.sleep(0.05)


def _running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class PeakRss:
    """Largest peak resident size among this process and its descendants."""

    def __init__(self) -> None:
        self.peak_kb: dict = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        for pid in _descendants(os.getpid()):
            kb = _vm_hwm_kb(pid)
            if kb > self.peak_kb.get(pid, 0):
                self.peak_kb[pid] = kb

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            self._sample()

    def __enter__(self) -> "PeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()

    def peak_mb(self) -> float:
        own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return max([own_kb, *self.peak_kb.values()]) / 1024


def main(argv=None) -> None:
    t0 = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mode", choices=("full", "recrawl"), required=True)
    ap.add_argument("--input", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--num-cpus", type=int, required=True)
    ap.add_argument("--ray-dir", default=None)
    args = ap.parse_args(argv)

    import ray
    from ray.data import DataContext

    import service1_text_extraction_ray as pkg
    from service1_text_extraction_ray.functions.extract import ExtractConfig
    from service1_text_extraction_ray.pipelines.extract_pipeline import (
        _default_pool_size,
        run_extraction_job,
        run_incremental_recrawl,
    )
    from service1_text_extraction_ray.state import lineage

    ray.init(
        address="local",
        num_cpus=args.num_cpus,
        include_dashboard=False,
        logging_level="ERROR",
        object_store_memory=OBJECT_STORE_MB * 2**20,
        _temp_dir=args.ray_dir,
    )
    ray_procs = _descendants(os.getpid())
    try:
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.execution_options.verbose_progress = False
        pkg.ensure_worker_importable()
        setup_s = time.perf_counter() - t0
        pool = _default_pool_size()

        before = snapshot_files(args.out)
        cfg = ExtractConfig()
        with PeakRss() as rss:
            start_ns = time.time_ns()
            t1 = time.perf_counter()
            if args.mode == "full":
                result = run_extraction_job(args.input, args.out, cfg)
            else:
                result = run_incremental_recrawl(args.input, args.out, cfg)
            wall_s = time.perf_counter() - t1
        summary = lineage.summarize(lineage.load_lineage(args.out))
    finally:
        ray_procs += _descendants(os.getpid())
        ray.shutdown()
        _wait_gone(ray_procs)

    written = written_since(before, snapshot_files(args.out))
    manifest_ns = [
        v[2] for p, v in written.items()
        if os.path.dirname(p) == lineage.lineage_dir(args.out)
        and os.path.basename(p).startswith("shard_")
    ]
    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": wall_s,
        "first_commit_s": (min(manifest_ns) - start_ns) / 1e9 if manifest_ns else None,
        "peak_rss_mb": rss.peak_mb(),
        "pool": pool,
        "written_bytes": sum(v[1] for v in written.values()),
        "result": result,
        "summary": summary,
    }))


if __name__ == "__main__":
    main()
