"""Serial replay of a workload through each layer's public functions.

The replay is both the correctness oracle and the traced run. It reads the
same input files the Ray job reads and pushes them, in one process, through
the layers the job composes: source read -> ``sniff_table`` ->
``ExtractDocuments`` (which calls ``extract_document`` and through it the
html / pdf / quality functions) -> ``PartWriter`` (``lineage.write_part`` +
``lineage.try_commit_shard``), or, for a recrawl, ``lineage.upsert_shard``
per shard.

Tracing lives here, not in the package: ``instrument`` swaps the module
attributes the layers call through for wrappers that record spans (name,
start, end, parent, batch id) into an in-memory ``Tracer``, and restores
them on exit. The Ray job runs in other processes and is never
instrumented, so its end-to-end numbers are untraced.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import shutil
import time
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from service1_text_extraction_ray.functions import extract as extract_mod
from service1_text_extraction_ray.functions import pdf_extract
from service1_text_extraction_ray.functions.extract import ExtractConfig
from service1_text_extraction_ray.functions.sniff import (
    KIND_HTML,
    KIND_PDF,
    sniff_table,
    stable_shard_id,
)
from service1_text_extraction_ray.pipelines.extract_pipeline import (
    INPUT_COLUMNS,
    PARSE_BATCH_SIZE,
    PartWriter,
    list_input_files,
)
from service1_text_extraction_ray.stages import extract_stage
from service1_text_extraction_ray.stages.extract_stage import ExtractDocuments
from service1_text_extraction_ray.state import lineage

from job import snapshot_files, written_since


# --------------------------------------------------------------------------
# Spans
# --------------------------------------------------------------------------


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    batch: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one single-threaded replay. Spans nest by
    call order; ``batch`` is inherited from the nearest enclosing span that
    set one, so every span of one stage batch shares its id."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, batch: int | None = None, **attrs):
        parent = self._stack[-1] if self._stack else None
        if batch is None and parent is not None:
            batch = self.spans[parent].batch
        idx = len(self.spans)
        rec = Span(name, time.perf_counter(), parent=parent, batch=batch,
                   attrs=attrs)
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` wrapped in a span; ``on_result(span, args, result)`` may
        record counts at the same boundary."""

        def traced(*args, **kwargs):
            with self.span(name) as sp:
                out = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(sp, args, out)
                return out

        return traced

    def self_times(self) -> list[float]:
        """Per span: its duration minus the part its children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.dur
        return [s.dur - c for s, c in zip(self.spans, child)]

    def busy_total(self) -> float:
        """Summed duration of the root spans (the replay's busy time)."""
        return sum(s.dur for s in self.spans if s.parent is None)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route the layers' calls through span-recording wrappers."""

    def on_extract(sp, args, res):
        sp.attrs.update(kind=res["content_kind"], status=res["status"],
                        truncated=res["truncated"], n_pages=res["n_pages"],
                        n_pages_ok=res["n_pages_ok"])

    def on_html(sp, args, res):
        sp.attrs["bytes_in"] = len(args[0])

    def on_pages(sp, args, res):
        sp.attrs["pages"] = len(res)

    def on_commit(sp, args, rec):
        sp.attrs["committed"] = rec is not None

    def on_upsert(sp, args, rec):
        sp.attrs.update(rows_rewritten=rec["n_docs"],
                        n_replaced=rec["n_replaced"])

    patches = [
        (extract_stage, "extract_document", "extract", on_extract),
        (extract_mod, "extract_html_text", "html.text", on_html),
        (extract_mod, "html_layout", "html.layout", None),
        (extract_mod, "open_pdf", "pdf.open", None),
        (pdf_extract.PdfDocument, "authenticate", "pdf.auth", None),
        (pdf_extract.PdfDocument, "extract_pages", "pdf.pages", on_pages),
        (extract_mod, "is_garbage_text", "quality", None),
        (lineage, "write_part", "lineage.write", None),
        (lineage, "try_commit_shard", "lineage.commit", on_commit),
        (lineage, "commit_shard_manifest", "lineage.manifest", None),
        (lineage, "upsert_shard", "lineage.upsert", on_upsert),
    ]
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _, _ in patches]
    try:
        for obj, attr, name, hook in patches:
            setattr(obj, attr, tracer.wrap(name, getattr(obj, attr), hook))
        yield tracer
    finally:
        for obj, attr, fn in saved:
            setattr(obj, attr, fn)


def _null_span(*_args, **_kwargs):
    return contextlib.nullcontext()


# --------------------------------------------------------------------------
# Oracle
# --------------------------------------------------------------------------

# Per url: (sha256 of doc_text, parse_failure, empty, truncated,
# password_required) — the fields the committed summary counters derive from.
COUNTERS = ("parse_failures", "empty_extractions", "truncations",
            "password_required")


def oracle_rows(doc_table: pa.Table) -> dict:
    """Expected per-url record of a stage output table, hashed here (not by
    the package) so a hashing bug in the engine cannot hide."""
    out = {}
    cols = doc_table.select(["url", "doc_text", "status", "doc_chars",
                             "truncated", "password_required"]).to_pylist()
    for r in cols:
        out[r["url"]] = (
            hashlib.sha256(r["doc_text"].encode("utf-8")).hexdigest(),
            r["status"] == "parse_failure",
            r["doc_chars"] == 0,
            bool(r["truncated"]),
            bool(r["password_required"]),
        )
    return out


def oracle_summary(oracle: dict) -> dict:
    """Job-level counters and the order-insensitive XOR content hash."""
    acc = 0
    sums = [0, 0, 0, 0]
    for h, *flags in oracle.values():
        acc ^= int(h[:16], 16)
        for k, f in enumerate(flags):
            sums[k] += int(f)
    out = dict(zip(COUNTERS, sums))
    out["n_docs"] = len(oracle)
    out["content_hash"] = f"{acc:016x}"
    return out


# --------------------------------------------------------------------------
# Replay
# --------------------------------------------------------------------------


def _read_file(path: str) -> pa.Table:
    """The job's source read for one file: pruned columns plus the file
    provenance column the sniff stage turns into the shard id."""
    t = pq.read_table(path, columns=INPUT_COLUMNS)
    return t.append_column("path", pa.array([path] * t.num_rows, pa.string()))


def _extract_files(files: list, cfg: ExtractConfig, span) -> list:
    """Read, sniff and extract each file; returns ``[(file, doc_table)]``."""
    stage = ExtractDocuments(cfg)
    out = []
    batch_id = 0
    for f in files:
        with span("sources.read", rows=0, bytes=os.path.getsize(f)) as sp:
            table = _read_file(f)
            if sp is not None:
                sp.attrs["rows"] = table.num_rows
        with span("sniff") as sp:
            sniffed = sniff_table(table, cfg.size_bucket_edges)
            if sp is not None:
                kinds = pc.value_counts(sniffed["content_kind"]).to_pylist()
                sp.attrs["kinds"] = {k["values"]: k["counts"] for k in kinds}
        parts = []
        for start in range(0, sniffed.num_rows, PARSE_BATCH_SIZE):
            with span("stage", batch=batch_id) as sp:
                docs = stage(sniffed.slice(start, PARSE_BATCH_SIZE))
                if sp is not None:
                    sp.attrs["out_bytes"] = docs.nbytes
            parts.append(docs)
            batch_id += 1
        out.append((f, pa.concat_tables(parts)))
    return out


@dataclass
class ReplayResult:
    oracle: dict
    tracer: Tracer | None
    bytes_written: int


def replay_full(files_dir: str, out_dir: str, cfg: ExtractConfig,
                tracer: Tracer | None = None) -> ReplayResult:
    """Extraction job replay: every file becomes one committed shard."""
    span = tracer.span if tracer is not None else _null_span
    files = list_input_files(files_dir)
    expected = {stable_shard_id(f): pq.ParquetFile(f).metadata.num_rows
                for f in files}
    shutil.rmtree(out_dir, ignore_errors=True)
    with (instrument(tracer) if tracer is not None else contextlib.nullcontext()):
        writer = PartWriter(out_dir, expected)
        oracle = {}
        for _, docs in _extract_files(files, cfg, span):
            oracle.update(oracle_rows(docs))
            with span("pipeline.write"):
                writer(docs)
    written = sum(v[1] for v in snapshot_files(out_dir).values())
    return ReplayResult(oracle, tracer, written)


def replay_recrawl(delta_dir: str, base_out: str, out_dir: str,
                   base_oracle: dict, cfg: ExtractConfig,
                   tracer: Tracer | None = None) -> ReplayResult:
    """Recrawl replay: copy the committed base table, extract the delta and
    upsert each shard's rows by url, as ``run_incremental_recrawl`` does."""
    span = tracer.span if tracer is not None else _null_span
    shutil.rmtree(out_dir, ignore_errors=True)
    shutil.copytree(base_out, out_dir)
    before = snapshot_files(out_dir)
    oracle = dict(base_oracle)
    with (instrument(tracer) if tracer is not None else contextlib.nullcontext()):
        for f, docs in _extract_files(list_input_files(delta_dir), cfg, span):
            oracle.update(oracle_rows(docs))
            with span("pipeline.merge"):
                sid = stable_shard_id(f)
                lineage.upsert_shard(out_dir, sid, docs, key="url")
    written = written_since(before, snapshot_files(out_dir))
    return ReplayResult(oracle, tracer, sum(v[1] for v in written.values()))


# --------------------------------------------------------------------------
# Per-layer metrics
# --------------------------------------------------------------------------

LAYER_METRICS = {
    # name: unit
    "sources.read_s": "s", "sources.rows": "count", "sources.bytes": "bytes",
    "sniff.busy_s": "s", "sniff.rows_html": "count", "sniff.rows_pdf": "count",
    "sniff.rows_other": "count",
    "html.busy_s": "s", "html.docs": "count", "html.bytes_in": "bytes",
    "html.truncated_s": "s", "html.gate_pass_ratio": "ratio",
    "pdf.busy_s": "s", "pdf.open_s": "s", "pdf.docs": "count",
    "pdf.pages": "count", "pdf.password_attempts": "count",
    "pdf.gate_pass_ratio": "ratio",
    "quality.busy_s": "s", "quality.calls": "count",
    "extract.busy_s": "s", "extract.self_s": "s",
    "extract.parse_failures": "count",
    "stage.busy_s": "s", "stage.self_s": "s", "stage.batches": "count",
    "stage.out_bytes": "bytes",
    "lineage.write_s": "s", "lineage.parts": "count",
    "lineage.bytes_written": "bytes", "lineage.commit_s": "s",
    "lineage.commit_attempts": "count", "lineage.commit_ratio": "ratio",
    "lineage.upsert_s": "s", "lineage.rows_rewritten": "count",
    "lineage.rewrite_amplification": "ratio",
    "pipeline.overhead_s": "s", "pipeline.overhead_share": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_self_times(tracer: Tracer) -> dict:
    """Self time summed per layer (the first dotted part of a span name)."""
    out: dict = {}
    for s, t in zip(tracer.spans, tracer.self_times()):
        out[s.layer] = out.get(s.layer, 0.0) + t
    return out


def layer_metrics(result: ReplayResult, job_wall_s: float) -> dict:
    """The per-layer metrics of one traced replay; ``job_wall_s`` is the
    untraced job's median wall time, for the pipeline overhead."""
    tr = result.tracer
    spans = tr.spans
    selfs = layer_self_times(tr)

    def by(name):
        return [s for s in spans if s.name == name]

    def busy(*names):
        return sum(s.dur for s in spans if s.name in names)

    extracts = by("extract")
    html_docs = [s for s in extracts if s.attrs["kind"] == KIND_HTML]
    pdf_docs = [s for s in extracts if s.attrs["kind"] == KIND_PDF]
    truncated = {i for i, s in enumerate(spans)
                 if s.name == "extract" and s.attrs["truncated"]}
    kinds: dict = {}
    for s in by("sniff"):
        for k, n in s.attrs["kinds"].items():
            kinds[k] = kinds.get(k, 0) + n
    commits = by("lineage.commit")
    # Upserts write their manifest directly, not through try_commit_shard.
    direct_commits = [s for s in by("lineage.manifest")
                      if s.parent is None
                      or spans[s.parent].name != "lineage.commit"]
    upserts = by("lineage.upsert")
    replaced = sum(s.attrs["n_replaced"] for s in upserts)
    rewritten = sum(s.attrs["rows_rewritten"] for s in upserts)
    overhead = job_wall_s - tr.busy_total()

    m = {
        "sources.read_s": busy("sources.read"),
        "sources.rows": sum(s.attrs["rows"] for s in by("sources.read")),
        "sources.bytes": sum(s.attrs["bytes"] for s in by("sources.read")),
        "sniff.busy_s": busy("sniff"),
        "sniff.rows_html": kinds.get(KIND_HTML, 0),
        "sniff.rows_pdf": kinds.get(KIND_PDF, 0),
        "sniff.rows_other": sum(n for k, n in kinds.items()
                                if k not in (KIND_HTML, KIND_PDF)),
        "html.busy_s": busy("html.text", "html.layout"),
        "html.docs": len(by("html.text")),
        "html.bytes_in": sum(s.attrs["bytes_in"] for s in by("html.text")),
        "html.truncated_s": sum(s.dur for s in spans
                                if s.layer == "html" and s.parent in truncated),
        "html.gate_pass_ratio": _ratio(
            sum(1 for s in html_docs if s.attrs["n_pages_ok"] > 0),
            len(html_docs)),
        "pdf.busy_s": busy("pdf.open", "pdf.auth", "pdf.pages"),
        "pdf.open_s": busy("pdf.open", "pdf.auth"),
        "pdf.docs": len(by("pdf.open")),
        "pdf.pages": sum(s.attrs["pages"] for s in by("pdf.pages")),
        "pdf.password_attempts": len(by("pdf.auth")),
        "pdf.gate_pass_ratio": _ratio(
            sum(s.attrs["n_pages_ok"] for s in pdf_docs),
            sum(s.attrs["n_pages"] for s in pdf_docs)),
        "quality.busy_s": busy("quality"),
        "quality.calls": len(by("quality")),
        "extract.busy_s": busy("extract"),
        "extract.self_s": selfs.get("extract", 0.0),
        "extract.parse_failures": sum(
            1 for s in extracts if s.attrs["status"] == "parse_failure"),
        "stage.busy_s": busy("stage"),
        "stage.self_s": selfs.get("stage", 0.0),
        "stage.batches": len(by("stage")),
        "stage.out_bytes": sum(s.attrs["out_bytes"] for s in by("stage")),
        "lineage.write_s": busy("lineage.write"),
        "lineage.parts": len(by("lineage.write")),
        "lineage.bytes_written": result.bytes_written,
        "lineage.commit_s": busy("lineage.commit")
        + sum(s.dur for s in direct_commits),
        "lineage.commit_attempts": len(commits),
        "lineage.commit_ratio": _ratio(
            sum(1 for s in commits if s.attrs["committed"]), len(commits)),
        "lineage.upsert_s": busy("lineage.upsert"),
        "lineage.rows_rewritten": rewritten,
        "lineage.rewrite_amplification": _ratio(rewritten, replaced),
        "pipeline.overhead_s": overhead,
        "pipeline.overhead_share": _ratio(overhead, job_wall_s),
    }
    return m
