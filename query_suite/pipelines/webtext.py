"""Web-corpus curation operators over the ``documents`` table.

Round-3 additions beyond the reference's own surface (SURVEY.md §2 lists no
corpus-level curation ops — the reference stops at per-document extraction):
the operators a 100-TB training-data pipeline runs AFTER extraction —
PII scanning/redaction, TF-IDF rare-term extraction, benchmark-contamination
detection, duplicated-passage (token-span) mining, and corpus vocabulary
statistics. Every operator has an exact DuckDB oracle (integer/string
outputs only — no float accumulation — so the driver's value hash matches
at any parallelism).

Scale notes (the design constraints each operator is built around):

- Tokenization is the whitespace split shared with queries.py's token ops,
  so the SQL oracle (``regexp_split_to_array``) matches byte-for-byte.
- Anything corpus-wide (document frequency, span multiplicity, vocabulary)
  is PRE-AGGREGATED inside ``map_batches`` before its groupby, so the
  shuffle moves (token, partial_count) rows — never text.
- The benchmark n-gram set in ``doc_contamination`` is the one genuinely
  small side (benchmark suites are ~10^5 grams in practice): broadcast once
  via ``ray.put``, read per actor — never re-shipped per batch.
- Document-frequency join-back in ``doc_tfidf_top_terms`` uses the general
  co-partitioned ``hash_join`` (relational.py) keyed on the token string —
  vocabulary is fact-sized at web scale, so no driver collect / broadcast.

Regex-engine semantics (intentional, pinned): the Arrow compute kernels used
for counts/splits here (``count_substring_regex``, ``split_pattern_regex``)
are RE2, where ``\\s``/``\\S`` are ASCII classes — matching the DuckDB/RE2
oracles exactly. Python ``re`` (and the pre-round-4 pandas ``str.count`` /
``str.split`` paths) treats ``\\s`` as Unicode whitespace, which ALSO matches
NBSP/\\v/\\u2028 etc. On a corpus containing such codepoints the two engines
tokenize differently; this module standardizes on the ASCII/RE2 semantics
(see the analogous re-vs-RE2 word-boundary note on ``q_doc_extract_numbers``).
``tests/test_webtext.py::test_unicode_whitespace_semantics`` pins the behavior
with an NBSP/\\u2028 fixture.
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter
from typing import List

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd
from ray.data.aggregate import Count, Sum

from .queries import _pq, _read, _texts
from .relational import hash_exchange, hash_join

# ---------------------------------------------------------------------------
# tokenization shared with the SQL oracles
# ---------------------------------------------------------------------------

_WS_RX = re.compile(r"\s+")


def _tokens(text: str) -> List[str]:
    """Whitespace tokens, empty strings dropped — byte-identical to DuckDB's
    ``list_filter(regexp_split_to_array(text, '\\s+'), x -> x <> '')``."""
    return [t for t in _WS_RX.split(text) if t]


def _uni_tf_partials(t: pa.Table) -> pa.Table:
    """Per-block token term-frequency partials (token, n) — the shared
    pre-aggregation in front of every vocabulary-keyed exchange."""
    c: Counter = Counter()
    for x in _texts(t):
        c.update(_tokens(x))
    return pa.table({
        "token": pa.array(list(c.keys()), pa.string()),
        "n": pa.array(list(c.values()), pa.int64()),
    })


def _bigram_tf_partials(t: pa.Table, joined: bool = True) -> pa.Table:
    """Per-block adjacent-bigram partial counts; ``joined`` emits one
    "a b" string key, else split (t1, t2) columns."""
    c: Counter = Counter()
    for x in _texts(t):
        ts = _tokens(x)
        c.update(zip(ts, ts[1:]))
    if joined:
        return pa.table({
            "bigram": pa.array([f"{a} {b}" for a, b in c.keys()], pa.string()),
            "n_ab": pa.array(list(c.values()), pa.int64()),
        })
    return pa.table({
        "t1": pa.array([a for a, _ in c.keys()], pa.string()),
        "t2": pa.array([b for _, b in c.keys()], pa.string()),
        "n_ab": pa.array(list(c.values()), pa.int64()),
    })


# ---------------------------------------------------------------------------
# PII scan / redaction
# ---------------------------------------------------------------------------

# Patterns restricted to constructs Python `re` and DuckDB's RE2 interpret
# identically (no lookaround, ASCII classes, bounded repeats).
PII_EMAIL = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PII_IPV4 = r"\b[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\b"
PII_PHONE = r"\+?[0-9]{3}[-. ][0-9]{3}[-. ][0-9]{4}"


def q_doc_pii_scan(sf_dir: str) -> rd.Dataset:
    """Per-document PII hit counts + redacted text.

    Counts are taken on the RAW text (patterns evaluated independently);
    redaction applies email -> ipv4 -> phone in that fixed order on both
    sides, so overlap resolution is identical. Pure per-batch map — no
    shuffle; vectorized Arrow ``count_substring_regex`` /
    ``replace_substring_regex`` (RE2, zero-copy batches)."""

    def f(t: pa.Table) -> pa.Table:
        text = pc.fill_null(t["text"], "")

        def _count(pat: str) -> pa.ChunkedArray:
            return pc.cast(pc.count_substring_regex(text, pat), pa.int64())

        red = pc.replace_substring_regex(text, PII_EMAIL, "[EMAIL]")
        red = pc.replace_substring_regex(red, PII_IPV4, "[IP]")
        red = pc.replace_substring_regex(red, PII_PHONE, "[PHONE]")
        return pa.table({
            "doc_id": t["doc_id"],
            "n_emails": _count(PII_EMAIL),
            "n_ipv4": _count(PII_IPV4),
            "n_phones": _count(PII_PHONE),
            "text_redacted": red,
        })

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        f, batch_format="pyarrow"
    )


SQL_DOC_PII_SCAN = f"""
SELECT doc_id,
  CAST(len(regexp_extract_all(text, '{PII_EMAIL}')) AS BIGINT) AS n_emails,
  CAST(len(regexp_extract_all(text, '{PII_IPV4}')) AS BIGINT) AS n_ipv4,
  CAST(len(regexp_extract_all(text, '{PII_PHONE}')) AS BIGINT) AS n_phones,
  regexp_replace(regexp_replace(regexp_replace(text,
      '{PII_EMAIL}', '[EMAIL]', 'g'),
      '{PII_IPV4}', '[IP]', 'g'),
      '{PII_PHONE}', '[PHONE]', 'g') AS text_redacted
FROM documents
"""


# ---------------------------------------------------------------------------
# TF-IDF rare-term extraction (document frequency + co-partitioned join-back)
# ---------------------------------------------------------------------------

TFIDF_TOPK = 3

_PAIR_SCHEMA = pa.schema([("doc_id", pa.int64()), ("token", pa.string())])
_TFIDF_SCHEMA = pa.schema(
    [("doc_id", pa.int64()), ("token", pa.string()), ("df", pa.int64())]
)


def _distinct_token_pairs(t: pa.Table) -> pa.Table:
    """Explode each doc into its DISTINCT tokens: (doc_id, token) rows."""
    ids: List[int] = []
    toks: List[str] = []
    for doc_id, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        for tok in sorted(set(_tokens(text or ""))):
            ids.append(doc_id)
            toks.append(tok)
    return pa.Table.from_arrays(
        [pa.array(ids, pa.int64()), pa.array(toks, pa.string())],
        schema=_PAIR_SCHEMA,
    )


def q_doc_tfidf_top_terms(sf_dir: str) -> rd.Dataset:
    """Top-3 RAREST distinct tokens per document (df asc, token asc) — the
    integer-exact core of TF-IDF keyword extraction (the idf ordering
    without the float log, so the driver hash is parallelism-independent).

    Topology (all fact-sized — vocabulary does NOT fit a driver broadcast at
    web scale): distinct (doc_id, token) pairs -> per-BLOCK partial df
    counts (vectorized pyarrow group_by, no shuffle) -> the df combine is
    FUSED into the join's shard merge (``combine_left_sum``), so aggregate
    + join cost ONE exchange moving (token, partial) + (token, doc_id)
    rows — text never leaves the tokenizing stage, and the standalone
    ``groupby(token)`` sort-shuffle is gone -> per-doc top-k inside
    ``map_groups``."""

    def df_partial(t: pa.Table) -> pa.Table:
        g = t.group_by("token").aggregate([([], "count_all")])
        return pa.Table.from_arrays(
            [g["token"], pc.cast(g["count_all"], pa.int64())],
            names=["token", "df"],
        )

    dfp = (
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(_distinct_token_pairs, batch_format="pyarrow")
        .map_batches(df_partial, batch_format="pyarrow")
    )
    joined = hash_join(
        dfp,
        _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
            _distinct_token_pairs, batch_format="pyarrow"
        ),
        left_on="token",
        right_on="token",
        key_type=pa.string(),
        left_fields=[pa.field("df", pa.int64())],
        right_fields=[pa.field("doc_id", pa.int64())],
        combine_left_sum=True,
    )

    def topk(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _TFIDF_SCHEMA.empty_table()
        order = pc.sort_indices(
            t, sort_keys=[("df", "ascending"), ("token", "ascending")]
        )[:TFIDF_TOPK]
        taken = t.take(order)
        return pa.Table.from_arrays(
            [taken["doc_id"], taken["token"], pc.cast(taken["df"], pa.int64())],
            schema=_TFIDF_SCHEMA,
        )

    return joined.groupby("doc_id").map_groups(topk, batch_format="pyarrow")


SQL_DOC_TFIDF_TOP_TERMS = f"""
WITH t AS (
  SELECT doc_id,
         unnest(list_distinct(list_filter(regexp_split_to_array(text, '\\s+'), x -> x <> ''))) AS token
  FROM documents
),
df AS (SELECT token, count(*) AS df FROM t GROUP BY token),
r AS (
  SELECT t.doc_id, t.token, df.df,
         row_number() OVER (PARTITION BY t.doc_id ORDER BY df.df ASC, t.token ASC) AS rn
  FROM t JOIN df USING (token)
)
SELECT doc_id, token, CAST(df AS BIGINT) AS df FROM r WHERE rn <= {TFIDF_TOPK}
"""


# ---------------------------------------------------------------------------
# Benchmark-contamination detection (broadcast n-gram set)
# ---------------------------------------------------------------------------

CONTAM_NGRAM = 8
CONTAM_BENCH_MOD = 97  # doc_id % MOD == 0 defines the deterministic "benchmark" split


def _doc_grams(text: str) -> set:
    toks = _tokens(text or "")
    return {
        " ".join(toks[i : i + CONTAM_NGRAM])
        for i in range(max(len(toks) - CONTAM_NGRAM + 1, 0))
    }


def q_doc_contamination(sf_dir: str) -> rd.Dataset:
    """Benchmark-contamination scan: count, per document, its distinct
    overlapping word-8-grams that appear in the benchmark split
    (``doc_id % 97 == 0`` — a deterministic stand-in for a real eval suite).

    The benchmark gram set is the textbook BROADCAST small side: built once
    (batch-level modulo filter — pyarrow dataset expressions can't push a
    modulo to the read, so benchmark rows are selected right after the scan,
    before any tokenization), ``ray.put`` once, read by reference in every
    scan task — never a shuffle join against the corpus. At 100 TB the
    corpus side stays a pure streaming map; the broadcast is bounded by the
    benchmark size (real suites are ~10^5 grams)."""

    def bench_grams(t: pa.Table) -> pa.Table:
        mask = pc.equal(
            pc.subtract(
                t["doc_id"],
                pc.multiply(
                    pc.divide(t["doc_id"], CONTAM_BENCH_MOD), CONTAM_BENCH_MOD
                ),
            ),
            0,
        )
        kept = t.filter(mask)
        grams: set = set()
        for x in kept["text"].to_pylist():
            grams |= _doc_grams(x)
        return pa.Table.from_arrays(
            [pa.array(sorted(grams), pa.string())], names=["gram"]
        )

    bench = (
        rd.read_parquet(_pq(sf_dir, "documents"), columns=["doc_id", "text"])
        .map_batches(bench_grams, batch_format="pyarrow")
        .to_pandas()
    )
    gram_set = frozenset(bench["gram"])
    ref = ray.put(gram_set)

    def scan(t: pa.Table) -> pa.Table:
        grams = ray.get(ref)
        return pa.table({
            "doc_id": t["doc_id"],
            "n_benchmark_grams": pa.array(
                [len(_doc_grams(x) & grams) for x in _texts(t)], pa.int64()
            ),
            "is_benchmark": pa.array(
                (pc.cast(t["doc_id"], pa.int64()).to_numpy()
                 % CONTAM_BENCH_MOD == 0),
                pa.bool_(),
            ),
        })

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        scan, batch_format="pyarrow"
    )


SQL_DOC_CONTAMINATION = f"""
WITH t AS (
  SELECT doc_id, list_filter(regexp_split_to_array(text, '\\s+'), x -> x <> '') AS toks
  FROM documents
),
g AS (
  SELECT doc_id,
         list_distinct([array_to_string(toks[i+1:i+{CONTAM_NGRAM}], ' ')
                        for i in range(greatest(len(toks) - {CONTAM_NGRAM - 1}, 0))]) AS grams
  FROM t
),
e AS (SELECT doc_id, unnest(grams) AS gram FROM g),
b AS (SELECT DISTINCT gram FROM e WHERE doc_id % {CONTAM_BENCH_MOD} = 0),
h AS (SELECT e.doc_id, count(*) AS n FROM e JOIN b USING (gram) GROUP BY e.doc_id)
SELECT d.doc_id,
       CAST(coalesce(h.n, 0) AS BIGINT) AS n_benchmark_grams,
       (d.doc_id % {CONTAM_BENCH_MOD} = 0) AS is_benchmark
FROM documents d LEFT JOIN h USING (doc_id)
"""


# ---------------------------------------------------------------------------
# Duplicated-passage mining (non-overlapping token-span multiplicity)
# ---------------------------------------------------------------------------

SPAN_W = 10  # tokens per window, non-overlapping stride

_SPAN_PARTIAL_SCHEMA = pa.schema(
    [("win_hash", pa.string()), ("doc_id", pa.int64()), ("n", pa.int64())]
)
_SPAN_OUT_SCHEMA = pa.schema(
    [
        ("win_hash", pa.string()),
        ("n_occurrences", pa.int64()),
        ("n_docs", pa.int64()),
        ("first_doc", pa.int64()),
    ]
)


def q_dedup_spans(sf_dir: str) -> rd.Dataset:
    """Duplicated-passage mining (Lee et al. 2022 "Deduplicating Training
    Data Makes Language Models Better", coarse-grained variant): hash every
    non-overlapping 10-token window, report windows occurring >= 2 times
    across the corpus with occurrence/doc counts.

    The shuffle moves (win_hash, doc_id, partial_count) — the 32-hex-char
    hash, never the window text (the round-2 MinHash lesson applied from the
    start). Per-batch pre-aggregation collapses within-doc repeats before
    the exchange, and the final group task sees one row per (window, doc,
    block) — bounded even when a boilerplate passage repeats 10^6 times
    inside one shard."""

    def windows(t: pa.Table) -> pa.Table:
        counts: dict = {}
        for doc_id, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            toks = _tokens(text or "")
            for i in range(len(toks) // SPAN_W):
                win = " ".join(toks[i * SPAN_W : (i + 1) * SPAN_W])
                key = (hashlib.md5(win.encode()).hexdigest(), doc_id)
                counts[key] = counts.get(key, 0) + 1
        if not counts:
            return _SPAN_PARTIAL_SCHEMA.empty_table()
        hashes, ids, ns = zip(*((h, d, n) for (h, d), n in counts.items()))
        return pa.Table.from_arrays(
            [
                pa.array(hashes, pa.string()),
                pa.array(ids, pa.int64()),
                pa.array(ns, pa.int64()),
            ],
            schema=_SPAN_PARTIAL_SCHEMA,
        )

    def reduce_group(t: pa.Table) -> pa.Table:
        n_occ = pc.sum(t["n"]).as_py() or 0
        if n_occ < 2:
            return _SPAN_OUT_SCHEMA.empty_table()
        return pa.Table.from_arrays(
            [
                t["win_hash"][:1],
                pa.array([n_occ], pa.int64()),
                pa.array([pc.count_distinct(t["doc_id"]).as_py()], pa.int64()),
                pa.array([pc.min(t["doc_id"]).as_py()], pa.int64()),
            ],
            schema=_SPAN_OUT_SCHEMA,
        )

    return (
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(windows, batch_format="pyarrow")
        .groupby("win_hash")
        .map_groups(reduce_group, batch_format="pyarrow")
    )


SQL_DEDUP_SPANS = f"""
WITH t AS (
  SELECT doc_id, list_filter(regexp_split_to_array(text, '\\s+'), x -> x <> '') AS toks
  FROM documents
),
w AS (
  SELECT doc_id, array_to_string(toks[(i*{SPAN_W}+1):(i*{SPAN_W}+{SPAN_W})], ' ') AS win
  FROM t, unnest(range(len(toks) // {SPAN_W})) AS u(i)
),
g AS (
  SELECT win, count(*) AS n_occurrences, count(DISTINCT doc_id) AS n_docs, min(doc_id) AS first_doc
  FROM w GROUP BY win
)
SELECT md5(win) AS win_hash, CAST(n_occurrences AS BIGINT) AS n_occurrences,
       CAST(n_docs AS BIGINT) AS n_docs, first_doc
FROM g WHERE n_occurrences >= 2
"""


# ---------------------------------------------------------------------------
# Corpus-global exact line dedup (the C4 / RefinedWeb curation pass)
# ---------------------------------------------------------------------------

_LINE_CAND_SCHEMA = pa.schema(
    [("line_hash", pa.string()), ("doc_id", pa.int64()), ("idx", pa.int64())]
)
_LINE_DROP_SCHEMA = pa.schema([("doc_id", pa.int64()), ("idx", pa.int64())])
_LINE_UNION_SCHEMA = pa.schema(
    [("side", pa.int64()), ("doc_id", pa.int64()),
     ("text", pa.string()), ("idx", pa.int64())]
)
_LINE_OUT_SCHEMA = pa.schema(
    [("doc_id", pa.int64()), ("n_lines", pa.int64()),
     ("n_dropped", pa.int64()), ("text_deduped", pa.string())]
)


def q_dedup_lines_global(sf_dir: str) -> rd.Dataset:
    """Corpus-GLOBAL exact line deduplication with document reassembly —
    the C4 "discard duplicated lines across the corpus" pass (Raffel et
    al. 2020 §2.2 lineage; RefinedWeb runs the same line-grain rule):
    every non-empty line instance is dropped iff an EARLIER instance of
    the byte-identical line exists anywhere in the corpus (earlier =
    smaller (doc_id, idx)); empty lines are structural and always kept.
    Output per document: original line count, dropped count, and the
    reassembled text.

    Two keyed exchanges, text moving only once:
    1. explode emits (md5(line), doc_id, idx) — 32-hex keys, never line
       text; a hash_exchange on line_hash sorts each shard and keeps
       everything after the first instance per hash as drop decisions.
    2. drop decisions (doc_id, idx) tag-union with the documents stream
       (the events_asof_orders co-partition topology) and one
       hash_exchange on doc_id reassembles each text next to its drop
       set. No driver-side materialization at any point."""

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def explode(t: pa.Table) -> pa.Table:
        hashes, ids, idxs = [], [], []
        for doc_id, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            for i, ln in enumerate((text or "").split("\n"), 1):
                if ln != "":
                    hashes.append(hashlib.md5(ln.encode()).hexdigest())
                    ids.append(doc_id)
                    idxs.append(i)
        if not ids:
            return _LINE_CAND_SCHEMA.empty_table()
        return pa.Table.from_arrays(
            [pa.array(hashes, pa.string()), pa.array(ids, pa.int64()),
             pa.array(idxs, pa.int64())],
            schema=_LINE_CAND_SCHEMA,
        )

    def find_drops(t: pa.Table) -> pa.Table:
        df = t.to_pandas().sort_values(["line_hash", "doc_id", "idx"])
        dup = df.duplicated("line_hash", keep="first")
        out = df.loc[dup, ["doc_id", "idx"]]
        return pa.Table.from_pandas(out, schema=_LINE_DROP_SCHEMA,
                                    preserve_index=False)

    dropped = hash_exchange(
        docs.map_batches(explode, batch_format="pyarrow"),
        ["line_hash"], find_drops, _LINE_DROP_SCHEMA,
    )

    def tag_docs(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.Table.from_arrays(
            [pa.array([0] * n, pa.int64()), pc.cast(t["doc_id"], pa.int64()),
             pc.cast(pc.fill_null(t["text"], ""), pa.string()),
             pa.nulls(n, pa.int64())],
            schema=_LINE_UNION_SCHEMA,
        )

    def tag_drops(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.Table.from_arrays(
            [pa.array([1] * n, pa.int64()), t["doc_id"],
             pa.nulls(n, pa.string()), t["idx"]],
            schema=_LINE_UNION_SCHEMA,
        )

    both = docs.map_batches(tag_docs, batch_format="pyarrow").union(
        dropped.map_batches(tag_drops, batch_format="pyarrow")
    )

    def reassemble(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        rows = []
        for doc_id, g in df.groupby("doc_id", sort=True):
            texts = g.loc[g["side"] == 0, "text"]
            if texts.empty:
                continue  # drop rows for an unknown doc (impossible by construction)
            lines = str(texts.iloc[0]).split("\n")
            drop = set(int(i) for i in g.loc[g["side"] == 1, "idx"])
            kept = [ln for i, ln in enumerate(lines, 1) if i not in drop]
            rows.append({
                "doc_id": int(doc_id), "n_lines": len(lines),
                "n_dropped": len(drop), "text_deduped": "\n".join(kept),
            })
        if not rows:
            return _LINE_OUT_SCHEMA.empty_table()
        return pa.Table.from_pylist(rows, schema=_LINE_OUT_SCHEMA)

    return hash_exchange(both, ["doc_id"], reassemble, _LINE_OUT_SCHEMA)


SQL_DEDUP_LINES_GLOBAL = """
WITH ls AS (
  SELECT doc_id, string_split(coalesce(text, ''), chr(10)) AS arr
  FROM documents
),
l AS (
  SELECT doc_id, u.i AS idx, arr[u.i] AS ln
  FROM ls, unnest(range(1, len(arr) + 1)) AS u(i)
),
drp AS (
  SELECT doc_id, idx FROM (
    SELECT doc_id, idx,
           row_number() OVER (PARTITION BY ln ORDER BY doc_id, idx) AS rn
    FROM l WHERE ln <> ''
  ) WHERE rn > 1
),
ndrop AS (
  SELECT doc_id, CAST(count(*) AS BIGINT) AS n_dropped FROM drp GROUP BY 1
),
kept AS (
  SELECT l.doc_id, l.idx, l.ln
  FROM l LEFT JOIN drp d ON d.doc_id = l.doc_id AND d.idx = l.idx
  WHERE d.doc_id IS NULL
),
agg AS (
  SELECT doc_id, string_agg(ln, chr(10) ORDER BY idx) AS txt
  FROM kept GROUP BY 1
)
SELECT ls.doc_id,
       CAST(len(ls.arr) AS BIGINT) AS n_lines,
       CAST(coalesce(nd.n_dropped, 0) AS BIGINT) AS n_dropped,
       coalesce(a.txt, '') AS text_deduped
FROM ls
LEFT JOIN ndrop nd ON nd.doc_id = ls.doc_id
LEFT JOIN agg a ON a.doc_id = ls.doc_id
"""


# ---------------------------------------------------------------------------
# Exact substring dedup (Lee et al. 2022, token-grain removal variant)
# ---------------------------------------------------------------------------

_SUB_CAND_SCHEMA = pa.schema(
    [("win_hash", pa.string()), ("doc_id", pa.int64()), ("start", pa.int64())]
)
_SUB_DROP_SCHEMA = pa.schema([("doc_id", pa.int64()), ("start", pa.int64())])
_SUB_UNION_SCHEMA = pa.schema(
    [("side", pa.int64()), ("doc_id", pa.int64()),
     ("text", pa.string()), ("start", pa.int64())]
)
_SUB_OUT_SCHEMA = pa.schema(
    [("doc_id", pa.int64()), ("n_tokens", pa.int64()),
     ("n_removed", pa.int64()), ("text_deduped", pa.string())]
)


def q_dedup_substrings(sf_dir: str) -> rd.Dataset:
    """Exact substring deduplication with REMOVAL (Lee et al. 2022,
    "Deduplicating Training Data Makes Language Models Better" — the
    fine-grained sibling of q_dedup_spans, which only REPORTS duplicated
    non-overlapping windows): hash every OVERLAPPING SPAN_W-token window
    (stride 1); a window instance whose byte-identical window occurred
    earlier in the corpus (earlier = smaller (doc_id, start)) marks its
    SPAN_W token positions for removal; surviving tokens reassemble
    space-joined (token-grain output — original whitespace is spent, as
    in the paper's suffix-array pipeline).

    Same two-exchange shape as q_dedup_lines_global: (1) a hash_exchange
    of (md5(window), doc_id, start) — 32-hex keys, never window text —
    keeps everything after each window's global first instance as
    removal marks; (2) marks tag-union with the documents stream and one
    hash_exchange on doc_id reassembles. The paper's suffix array finds
    maximal repeats; the fixed-W rolling window is the shuffle-friendly
    equivalent (any duplicated run >= W tokens is fully covered by its
    duplicated W-windows, so removal converges to the same repeated-run
    erasure with one corpus pass)."""

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def explode(t: pa.Table) -> pa.Table:
        hashes, ids, starts = [], [], []
        for doc_id, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            toks = _tokens(text or "")
            for s in range(len(toks) - SPAN_W + 1):
                win = " ".join(toks[s : s + SPAN_W])
                hashes.append(hashlib.md5(win.encode()).hexdigest())
                ids.append(doc_id)
                starts.append(s + 1)
        if not ids:
            return _SUB_CAND_SCHEMA.empty_table()
        return pa.Table.from_arrays(
            [pa.array(hashes, pa.string()), pa.array(ids, pa.int64()),
             pa.array(starts, pa.int64())],
            schema=_SUB_CAND_SCHEMA,
        )

    def find_marks(t: pa.Table) -> pa.Table:
        df = t.to_pandas().sort_values(["win_hash", "doc_id", "start"])
        dup = df.duplicated("win_hash", keep="first")
        return pa.Table.from_pandas(
            df.loc[dup, ["doc_id", "start"]], schema=_SUB_DROP_SCHEMA,
            preserve_index=False,
        )

    marks = hash_exchange(
        docs.map_batches(explode, batch_format="pyarrow"),
        ["win_hash"], find_marks, _SUB_DROP_SCHEMA,
    )

    def tag_docs(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.Table.from_arrays(
            [pa.array([0] * n, pa.int64()), pc.cast(t["doc_id"], pa.int64()),
             pc.cast(pc.fill_null(t["text"], ""), pa.string()),
             pa.nulls(n, pa.int64())],
            schema=_SUB_UNION_SCHEMA,
        )

    def tag_marks(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.Table.from_arrays(
            [pa.array([1] * n, pa.int64()), t["doc_id"],
             pa.nulls(n, pa.string()), t["start"]],
            schema=_SUB_UNION_SCHEMA,
        )

    both = docs.map_batches(tag_docs, batch_format="pyarrow").union(
        marks.map_batches(tag_marks, batch_format="pyarrow")
    )

    def reassemble(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        rows = []
        for doc_id, g in df.groupby("doc_id", sort=True):
            texts = g.loc[g["side"] == 0, "text"]
            if texts.empty:
                continue
            toks = _tokens(str(texts.iloc[0]))
            removed = np.zeros(len(toks), dtype=bool)
            for s in g.loc[g["side"] == 1, "start"]:
                removed[int(s) - 1 : int(s) - 1 + SPAN_W] = True
            kept = [tk for tk, r in zip(toks, removed) if not r]
            rows.append({
                "doc_id": int(doc_id), "n_tokens": len(toks),
                "n_removed": int(removed.sum()),
                "text_deduped": " ".join(kept),
            })
        if not rows:
            return _SUB_OUT_SCHEMA.empty_table()
        return pa.Table.from_pylist(rows, schema=_SUB_OUT_SCHEMA)

    return hash_exchange(both, ["doc_id"], reassemble, _SUB_OUT_SCHEMA)


SQL_DEDUP_SUBSTRINGS = f"""
WITH t AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(coalesce(text, ''), '\\s+'),
                     x -> x <> '') AS toks
  FROM documents
),
w AS (
  SELECT doc_id, u.s AS start,
         array_to_string(toks[u.s:(u.s + {SPAN_W} - 1)], ' ') AS win
  FROM t, unnest(range(1, len(toks) - {SPAN_W} + 2)) AS u(s)
  WHERE len(toks) >= {SPAN_W}
),
d AS (
  SELECT doc_id, start FROM (
    SELECT doc_id, start,
           row_number() OVER (PARTITION BY win ORDER BY doc_id, start) AS rn
    FROM w
  ) WHERE rn > 1
),
tok AS (
  SELECT doc_id, u.i AS idx, toks[u.i] AS tk
  FROM t, unnest(range(1, len(toks) + 1)) AS u(i)
),
rem AS (
  SELECT DISTINCT tok.doc_id, tok.idx
  FROM tok JOIN d ON d.doc_id = tok.doc_id
       AND d.start BETWEEN tok.idx - {SPAN_W} + 1 AND tok.idx
),
nrem AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n_removed FROM rem GROUP BY 1),
kept AS (
  SELECT tok.doc_id, tok.idx, tok.tk
  FROM tok LEFT JOIN rem ON rem.doc_id = tok.doc_id AND rem.idx = tok.idx
  WHERE rem.doc_id IS NULL
),
agg AS (
  SELECT doc_id, string_agg(tk, ' ' ORDER BY idx) AS txt
  FROM kept GROUP BY 1
)
SELECT t.doc_id,
       CAST(len(t.toks) AS BIGINT) AS n_tokens,
       CAST(coalesce(nr.n_removed, 0) AS BIGINT) AS n_removed,
       coalesce(a.txt, '') AS text_deduped
FROM t
LEFT JOIN nrem nr ON nr.doc_id = t.doc_id
LEFT JOIN agg a ON a.doc_id = t.doc_id
"""


# ---------------------------------------------------------------------------
# Corpus vocabulary statistics
# ---------------------------------------------------------------------------

_VOCAB_PARTIAL_SCHEMA = pa.schema([("token", pa.string()), ("n", pa.int64())])


def q_corpus_vocab_stats(sf_dir: str) -> pd.DataFrame:
    """One-row corpus vocabulary summary: vocab size, total token count,
    hapax count (tokens occurring exactly once), min/max token.

    Two-level aggregation: per-batch token counts (pandas explode +
    value_counts — the shuffle input is (token, partial) not text), one
    vocabulary-keyed groupby-sum, then per-BLOCK stat partials merged on the
    driver (O(blocks) rows — the partial-top-k pattern applied to scalar
    stats)."""

    def partial_counts(t: pa.Table) -> pa.Table:
        toks = pc.list_flatten(
            pc.split_pattern_regex(pc.fill_null(t["text"], ""), r"\s+")
        )
        toks = toks.filter(pc.not_equal(toks, ""))
        vc = pc.value_counts(toks)
        return pa.table({
            "token": vc.field("values"),
            "n": pc.cast(vc.field("counts"), pa.int64()),
        })

    def block_stats(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "vocab_size": pa.array([], pa.int64()),
                    "total_tokens": pa.array([], pa.int64()),
                    "hapax_count": pa.array([], pa.int64()),
                    "min_token": pa.array([], pa.string()),
                    "max_token": pa.array([], pa.string()),
                }
            )
        return pa.table(
            {
                "vocab_size": pa.array([t.num_rows], pa.int64()),
                "total_tokens": pa.array([pc.sum(t["n"]).as_py()], pa.int64()),
                "hapax_count": pa.array(
                    [pc.sum(pc.cast(pc.equal(t["n"], 1), pa.int64())).as_py()],
                    pa.int64(),
                ),
                "min_token": pa.array([pc.min(t["token"]).as_py()], pa.string()),
                "max_token": pa.array([pc.max(t["token"]).as_py()], pa.string()),
            }
        )

    partials = (
        _read(sf_dir, "documents", ["text"])
        .map_batches(partial_counts, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum("n", alias_name="n"))
        .map_batches(block_stats, batch_format="pyarrow")
        .to_pandas()
    )
    return pd.DataFrame(
        {
            "vocab_size": [int(partials["vocab_size"].sum())],
            "total_tokens": [int(partials["total_tokens"].sum())],
            "hapax_count": [int(partials["hapax_count"].sum())],
            "min_token": [partials["min_token"].min()],
            "max_token": [partials["max_token"].max()],
        }
    )


SQL_CORPUS_VOCAB_STATS = """
WITH tok AS (
  SELECT unnest(list_filter(regexp_split_to_array(text, '\\s+'), x -> x <> '')) AS token
  FROM documents
),
c AS (SELECT token, count(*) AS n FROM tok GROUP BY token)
SELECT CAST(count(*) AS BIGINT) AS vocab_size,
       CAST(sum(n) AS BIGINT) AS total_tokens,
       CAST(count(*) FILTER (n = 1) AS BIGINT) AS hapax_count,
       min(token) AS min_token, max(token) AS max_token
FROM c
"""


# ---------------------------------------------------------------------------
# Deterministic train/valid/test split assignment
# ---------------------------------------------------------------------------

# Permille thresholds over the 16-bit md5(doc_id) key — the same key the
# hash-Bernoulli sampler (queries.q_doc_sample) uses, so split membership is
# reproducible across runs, machines, and parallelism levels, and docs keep
# their split when the corpus grows (new doc_ids hash independently).
SPLIT_TRAIN_PERMILLE = 980
SPLIT_VALID_PERMILLE = 990  # valid = [980, 990), test = [990, 1000)

_TRAIN_CUT = (65536 * SPLIT_TRAIN_PERMILLE) // 1000
_VALID_CUT = (65536 * SPLIT_VALID_PERMILLE) // 1000


def q_doc_split_assign(sf_dir: str) -> rd.Dataset:
    """Assign every document to train/valid/test by hashed doc_id.

    The standard corpus-split op a training pipeline runs last: membership
    must be a pure function of the stable document id (NOT row position or
    RNG state) so that re-runs, resumes and different cluster sizes produce
    the same split. Pure per-batch map — no shuffle, no driver state."""

    def f(t: pa.Table) -> pa.Table:
        keys = np.array(
            [
                int.from_bytes(hashlib.md5(str(d).encode()).digest()[:2], "big")
                for d in t["doc_id"].to_pylist()
            ],
            dtype="int64",
        )
        split = np.where(
            keys < _TRAIN_CUT, "train", np.where(keys < _VALID_CUT, "valid", "test")
        )
        return pa.table({
            "doc_id": t["doc_id"],
            "lang": t["lang"],
            "split": pa.array(split.tolist(), pa.string()),
        })

    return _read(sf_dir, "documents", ["doc_id", "lang"]).map_batches(
        f, batch_format="pyarrow"
    )


_SQL_MD5_KEY16 = """
  (instr('0123456789abcdef', substr(md5(CAST(doc_id AS VARCHAR)), 1, 1)) - 1) * 4096
+ (instr('0123456789abcdef', substr(md5(CAST(doc_id AS VARCHAR)), 2, 1)) - 1) * 256
+ (instr('0123456789abcdef', substr(md5(CAST(doc_id AS VARCHAR)), 3, 1)) - 1) * 16
+ (instr('0123456789abcdef', substr(md5(CAST(doc_id AS VARCHAR)), 4, 1)) - 1)
"""

SQL_DOC_SPLIT_ASSIGN = f"""
SELECT doc_id, lang,
       CASE WHEN ({_SQL_MD5_KEY16}) < {_TRAIN_CUT} THEN 'train'
            WHEN ({_SQL_MD5_KEY16}) < {_VALID_CUT} THEN 'valid'
            ELSE 'test' END AS split
FROM documents
"""


# ---------------------------------------------------------------------------
# Inverted index (token postings)
# ---------------------------------------------------------------------------

POSTINGS_MIN_DF = 5

_POSTINGS_PARTIAL_SCHEMA = pa.schema(
    [("token", pa.string()), ("df", pa.int64()), ("tf", pa.int64())]
)


def q_token_postings(sf_dir: str) -> rd.Dataset:
    """Corpus inverted-index statistics: per token, document frequency and
    total term frequency, for tokens appearing in >= POSTINGS_MIN_DF docs.

    The index-build shape: each batch emits one (token, df_partial,
    tf_partial) row per distinct token IN THAT BATCH (documents never span
    batches, so df partials are exact), then ONE ``hash_exchange`` on the
    token merges partials per shard — the exchange moves (string, int64,
    int64) rows, never text, and sorts int64 shard ids instead of the
    vocabulary's strings. The df filter runs after the merge (a HAVING,
    not a WHERE)."""
    posting_schema = pa.schema(
        [pa.field("token", pa.string()), pa.field("df", pa.int64()),
         pa.field("tf", pa.int64())]
    )

    def partials(t: pa.Table) -> pa.Table:
        tf: dict = {}
        dfreq: dict = {}
        for x in _texts(t):
            ts = _tokens(x)
            for tok in ts:
                tf[tok] = tf.get(tok, 0) + 1
            for tok in set(ts):
                dfreq[tok] = dfreq.get(tok, 0) + 1
        toks = sorted(tf)
        return pa.table({
            "token": pa.array(toks, pa.string()),
            "df": pa.array([dfreq[k] for k in toks], pa.int64()),
            "tf": pa.array([tf[k] for k in toks], pa.int64()),
        })

    def shard_sum_having(t: pa.Table) -> pa.Table:
        g = t.group_by("token").aggregate([("df", "sum"), ("tf", "sum")])
        merged = pa.Table.from_arrays(
            [g["token"], g["df_sum"], g["tf_sum"]], schema=posting_schema
        )
        return merged.filter(pc.greater_equal(merged["df"], POSTINGS_MIN_DF))

    return hash_exchange(
        _read(sf_dir, "documents", ["text"]).map_batches(
            partials, batch_format="pyarrow"
        ),
        ["token"],
        shard_sum_having,
        posting_schema,
    )


SQL_TOKEN_POSTINGS = f"""
WITH tok AS (
  SELECT doc_id,
         unnest(list_filter(regexp_split_to_array(text, '\\s+'), x -> x <> '')) AS token
  FROM documents
)
SELECT token,
       CAST(count(DISTINCT doc_id) AS BIGINT) AS df,
       CAST(count(*) AS BIGINT) AS tf
FROM tok GROUP BY token
HAVING count(DISTINCT doc_id) >= {POSTINGS_MIN_DF}
"""


# ---------------------------------------------------------------------------
# Corpus bigram counts (top-K)
# ---------------------------------------------------------------------------

BIGRAM_TOPK = 50

_BIGRAM_SCHEMA = pa.schema([("bigram", pa.string()), ("n", pa.int64())])


def q_corpus_bigrams(sf_dir: str) -> pd.DataFrame:
    """Top-K corpus bigrams (adjacent whitespace-token pairs) by count.

    N-gram LM / tokenizer-training statistics shape: per-batch bigram
    partial counts (Counter over each doc's adjacent pairs), ONE
    ``hash_exchange`` on the bigram (every bigram's partials land in one
    shard, where a vectorized group_by sums them and a block-local top-K
    prunes — exact, since a shard holds ALL of each bigram's count), then a
    tiny driver merge of ≤ num_shards × K rows. Replaces a ``groupby``
    that sort-shuffled every distinct bigram STRING; the exchange sorts
    int64 shard ids instead. Ties break on the bigram string ascending."""
    from collections import Counter

    def partials(t: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for text in _texts(t):
            ts = _tokens(text)
            c.update(zip(ts, ts[1:]))
        return pa.table({
            "bigram": pa.array([f"{a} {b}" for a, b in c.keys()], pa.string()),
            "n": pa.array(list(c.values()), pa.int64()),
        })

    def shard_topk(t: pa.Table) -> pa.Table:
        g = t.group_by("bigram").aggregate([("n", "sum")])
        summed = pa.Table.from_arrays(
            [g["bigram"], g["n_sum"]], names=["bigram", "n"]
        )
        order = pc.sort_indices(
            summed, sort_keys=[("n", "descending"), ("bigram", "ascending")]
        )[:BIGRAM_TOPK]
        return summed.take(order)

    merged = hash_exchange(
        _read(sf_dir, "documents", ["text"]).map_batches(
            partials, batch_format="pyarrow"
        ),
        ["bigram"],
        shard_topk,
        _BIGRAM_SCHEMA,
    ).to_pandas()
    if merged.empty:
        # zero bigrams corpus-wide: Ray's empty result carries no columns
        return _BIGRAM_SCHEMA.empty_table().to_pandas()
    return (
        merged.sort_values(["n", "bigram"], ascending=[False, True])
        .head(BIGRAM_TOPK)
        .reset_index(drop=True)
    )


SQL_CORPUS_BIGRAMS = f"""
WITH arrs AS (
  SELECT list_filter(regexp_split_to_array(text, '\\s+'), x -> x <> '') AS a
  FROM documents
),
bg AS (
  SELECT unnest(list_transform(range(1, len(a)), i -> a[i] || ' ' || a[i + 1])) AS bigram
  FROM arrs WHERE len(a) >= 2
)
SELECT bigram, CAST(count(*) AS BIGINT) AS n
FROM bg GROUP BY bigram
ORDER BY n DESC, bigram
LIMIT {BIGRAM_TOPK}
"""


# ---------------------------------------------------------------------------
# Heavy hitters: exact top-K tokens by corpus frequency, two passes
# ---------------------------------------------------------------------------

HH_TOPK = 20
HH_CAPACITY = 2048  # candidate capacity C: every token with count >= N/C survives

_HH_SCHEMA = pa.schema([("token", pa.string()), ("n", pa.int64())])


def q_corpus_heavy_hitters(sf_dir: str) -> pd.DataFrame:
    """Exact top-K corpus tokens by count via the two-pass heavy-hitters
    protocol (Misra-Gries-style frequent-items guarantee, exact recount):

    Pass 1 — candidate generation: each block emits its tokens with local
    count >= block_tokens / C (at most C per block by pigeonhole). Any
    token with GLOBAL count >= N/C must clear that bar in at least one
    block (weighted-average argument), so the union of block candidates is
    a guaranteed superset of every global heavy hitter. Candidates are
    deduped on the driver — bounded by C x blocks in theory, tiny in
    practice because hot tokens repeat across blocks (logged).

    Pass 2 — exact recount: the candidate set is broadcast (ray.put once,
    read per task), each block emits exact partial counts for candidates
    only, and a tiny merge sums <= |candidates| rows. Top-K by (n desc,
    token asc) is then provably exact iff the K-th count >= N/C (no
    non-candidate can reach it) — asserted at runtime, so a corpus that
    breaks the guarantee fails loudly instead of silently truncating.

    At 100 TB: pass 1 and pass 2 are pure streaming maps; driver state is
    bounded by the candidate set, never the vocabulary."""

    def candidates(t: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for x in _texts(t):
            c.update(_tokens(x))
        total = sum(c.values())
        keep = [tok for tok, n in c.items() if n * HH_CAPACITY >= total]
        return pa.table({"token": pa.array(sorted(keep), pa.string())})

    ds = _read(sf_dir, "documents", ["text"])
    cand_rows = ds.map_batches(candidates, batch_format="pyarrow").take_all()
    cand = sorted({r["token"] for r in cand_rows})
    cand_ref = ray.put(set(cand))

    def recount(t: pa.Table) -> pa.Table:
        cset = ray.get(cand_ref)
        c: Counter = Counter()
        n_flat = 0
        for x in _texts(t):
            ts = _tokens(x)
            n_flat += len(ts)
            c.update(tok for tok in ts if tok in cset)
        toks = sorted(c)
        # block token total rides on ONE sentinel row (token=None), not on
        # every count row — summing a per-row copy over-counts it
        return pa.table({
            "token": pa.array(toks + [None], pa.string()),
            "n": pa.array([c[k] for k in toks] + [0], pa.int64()),
            "total": pa.array([0] * len(toks) + [n_flat], pa.int64()),
        })

    parts = ds.map_batches(recount, batch_format="pyarrow").to_pandas()
    n_total = int(parts["total"].sum()) if len(parts) else 0
    counts_only = parts.dropna(subset=["token"])
    merged = (
        counts_only.groupby("token", sort=False)["n"].sum().reset_index()
        if len(counts_only)
        else pd.DataFrame({"token": pd.Series([], dtype=str), "n": pd.Series([], dtype="int64")})
    )
    top = merged.sort_values(["n", "token"], ascending=[False, True]).head(HH_TOPK)
    covered = int(merged["n"].sum()) if len(merged) else 0
    if n_total and covered != n_total:
        # non-candidate tokens exist; each has count < N/C. The top-K is
        # exact only if it is full AND its K-th count clears that bound.
        kth = int(top["n"].iloc[-1]) if len(top) == HH_TOPK else 0
        if kth * HH_CAPACITY < n_total:
            raise AssertionError(
                f"heavy-hitter guarantee violated: kth count {kth} < N/C "
                f"= {n_total}/{HH_CAPACITY}; raise HH_CAPACITY"
            )
    return top.reset_index(drop=True).astype({"token": str, "n": "int64"})


SQL_CORPUS_HEAVY_HITTERS = f"""
WITH tok AS (
  SELECT unnest(list_filter(regexp_split_to_array(text, '\\s+'), x -> x <> '')) AS token
  FROM documents
)
SELECT token, CAST(count(*) AS BIGINT) AS n
FROM tok GROUP BY token
ORDER BY n DESC, token
LIMIT {HH_TOPK}
"""


# ---------------------------------------------------------------------------
# Chained curation pipeline: quality filter -> exact dedup -> split assign
# ---------------------------------------------------------------------------


def q_curate_corpus(sf_dir: str) -> rd.Dataset:
    """The end-to-end corpus-curation chain a training pipeline actually
    runs, as ONE streaming Dataset: Gopher quality filter (per-batch, no
    shuffle) -> exact dedup on md5(text) keeping the lowest doc_id (ONE
    hash_exchange of 32-byte keys + ids + lang — the filtered survivors'
    text never rides the shuffle) -> deterministic train/valid/test split
    assignment (pure hash of doc_id, per-batch). Output: one row per
    curated document (doc_id, lang, split).

    Every stage reuses the exact pure core its standalone query uses
    (queries.gopher_row counts, md5 dedup keys, the md5-16-bit split cut),
    so the composed SQL oracle reproduces the chain bit-for-bit —
    composition is verified, not just each piece. The quality gate is the
    Gopher STRUCTURAL clauses (word count, char ratio, symbols, bullets,
    ellipsis, alpha words) — the English-stopword containment clause is a
    language-specific rule that belongs before language routing, not in a
    multilingual chain (and would vacuously drop the whole synthetic
    corpus). At 100 TB the only exchange is the dedup's hash-shard pass;
    filter and split stay embarrassingly parallel.
    """
    from .queries import _md5, gopher_row

    surv_schema = pa.schema(
        [pa.field("text_hash", pa.string()), pa.field("doc_id", pa.int64()),
         pa.field("lang", pa.string())]
    )

    def _structural_keep(counts: tuple) -> bool:
        (n_words, sum_chars, n_symbols, n_lines,
         n_bullets, n_ellipsis, n_alpha, _n_stop, _keep) = counts
        return (
            50 <= n_words <= 100_000
            and 3 * n_words <= sum_chars <= 10 * n_words
            and 10 * n_symbols < n_words
            and 10 * n_bullets < 9 * n_lines
            and 10 * n_ellipsis < 3 * n_lines
            and 5 * n_alpha > 4 * n_words
        )

    def filter_and_hash(t: pa.Table) -> pa.Table:
        texts = pc.fill_null(t["text"], "").to_pylist()
        keep = np.fromiter(
            (_structural_keep(gopher_row(x)) for x in texts),
            dtype=bool, count=len(texts),
        )
        ids = pc.cast(t["doc_id"], pa.int64()).to_numpy(zero_copy_only=False)
        langs = pc.cast(t["lang"], pa.string())
        mask = pa.array(keep)
        return pa.Table.from_arrays(
            [
                pa.array([_md5(x) for x, k in zip(texts, keep) if k]),
                pa.array(ids[keep], pa.int64()),
                langs.filter(mask) if hasattr(langs, "filter") else pc.filter(langs, mask),
            ],
            schema=surv_schema,
        )

    def shard_first(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return surv_schema.empty_table()
        df = (
            t.to_pandas()
            .sort_values(["text_hash", "doc_id"], kind="mergesort")
            .groupby("text_hash", sort=False)
            .head(1)
        )
        return pa.Table.from_pandas(df, schema=surv_schema, preserve_index=False)

    survivors = hash_exchange(
        _read(sf_dir, "documents", ["doc_id", "text", "lang"]).map_batches(
            filter_and_hash, batch_format="pyarrow"
        ),
        ["text_hash"],
        shard_first,
        surv_schema,
    )

    out_schema = pa.schema(
        [pa.field("doc_id", pa.int64()), pa.field("lang", pa.string()),
         pa.field("split", pa.string())]
    )

    def assign_split(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        keys = np.fromiter(
            (int.from_bytes(hashlib.md5(str(d).encode()).digest()[:2], "big")
             for d in ids),
            dtype=np.int64, count=len(ids),
        )
        split = np.where(
            keys < _TRAIN_CUT, "train", np.where(keys < _VALID_CUT, "valid", "test")
        )
        return pa.Table.from_arrays(
            [t["doc_id"], t["lang"], pa.array(split.tolist(), pa.string())],
            schema=out_schema,
        )

    return survivors.map_batches(assign_split, batch_format="pyarrow")


def sql_curate_corpus() -> str:
    """Composed oracle: the gopher-filter SQL as a CTE (structural clauses
    only — see q_curate_corpus), then the dedup and split stages replayed
    with the same md5 keys/cuts as the standalone oracles
    (SQL_DEDUP_EXACT / SQL_DOC_SPLIT_ASSIGN)."""
    from .queries import SQL_DOC_GOPHER_FILTER

    return f"""
WITH gf AS ({SQL_DOC_GOPHER_FILTER}),
kept AS (
  SELECT d.doc_id, d.lang, d.text
  FROM documents d JOIN gf ON d.doc_id = gf.doc_id
  WHERE gf.n_words BETWEEN 50 AND 100000
    AND 3 * gf.n_words <= gf.sum_word_chars
    AND gf.sum_word_chars <= 10 * gf.n_words
    AND 10 * gf.n_symbols < gf.n_words
    AND 10 * gf.n_bullet_lines < 9 * gf.n_lines
    AND 10 * gf.n_ellipsis_lines < 3 * gf.n_lines
    AND 5 * gf.n_alpha_words > 4 * gf.n_words
),
dedup AS (
  SELECT min(doc_id) AS doc_id FROM kept GROUP BY md5(text)
)
SELECT k.doc_id, k.lang,
       CASE WHEN ({_SQL_MD5_KEY16.replace('doc_id', 'k.doc_id')}) < {_TRAIN_CUT} THEN 'train'
            WHEN ({_SQL_MD5_KEY16.replace('doc_id', 'k.doc_id')}) < {_VALID_CUT} THEN 'valid'
            ELSE 'test' END AS split
FROM kept k JOIN dedup u ON k.doc_id = u.doc_id
"""


# ---------------------------------------------------------------------------
# Count-Min Sketch (approximate token counts with a deterministic,
# SQL-replayable build) — completes the sketch family (HLL, t-digest,
# bloom, exact heavy hitters)
# ---------------------------------------------------------------------------

CMS_DEPTH = 3     # hash rows
CMS_WIDTH = 512   # counters per row (power of two -> idx is a bit-slice)


def _cms_token_u64(tok: str) -> int:
    """Little-endian uint64 of the first 8 md5 bytes — the corpus-wide token
    hash every sketch here derives from (same bytes as _sql_md5_u64le)."""
    return int.from_bytes(hashlib.md5(tok.encode()).digest()[:8], "little")


def q_corpus_cms_counts(sf_dir: str) -> rd.Dataset:
    """Count-Min Sketch build over all document tokens: CMS_DEPTH x
    CMS_WIDTH integer counters, row i indexed by bits [16i, 16i+9) of the
    md5-u64 token hash. The sketch is a MERGEABLE integer aggregate — each
    block contributes per-cell partial counts (bounded: <= DEPTH x WIDTH
    rows per block regardless of block size), one tiny groupby sums cells —
    so the build never shuffles tokens, only (cell, count) partials, and
    the result is bit-identical at any parallelism. Point estimates read
    min over the DEPTH cells of a token (pytest checks the one-sided CMS
    guarantee against exact counts); the full-cell table is the query
    output so the oracle can replay every counter exactly."""
    part_schema = pa.schema([
        ("cms_row", pa.int64()), ("cms_idx", pa.int64()), ("cnt", pa.int64()),
    ])

    def partial(t: pa.Table) -> pa.Table:
        cells: dict = {}
        for text in t["text"].to_pylist():
            for tok in _tokens(text or ""):
                h = _cms_token_u64(tok)
                for i in range(CMS_DEPTH):
                    key = (i, (h >> (16 * i)) & (CMS_WIDTH - 1))
                    cells[key] = cells.get(key, 0) + 1
        if not cells:
            return part_schema.empty_table()
        return pa.Table.from_pylist(
            [{"cms_row": r, "cms_idx": x, "cnt": n} for (r, x), n in cells.items()],
            schema=part_schema,
        )

    return (
        _read(sf_dir, "documents", ["text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["cms_row", "cms_idx"])
        .aggregate(Sum("cnt", alias_name="cnt"))
    )


def cms_estimate(cells: pd.DataFrame, tok: str) -> int:
    """Point estimate from a q_corpus_cms_counts result: min over rows of
    the token's cell (absent cell = 0). One-sided: >= the true count."""
    h = _cms_token_u64(tok)
    lut = {(r, x): n for r, x, n in
           zip(cells["cms_row"], cells["cms_idx"], cells["cnt"])}
    return min(
        lut.get((i, (h >> (16 * i)) & (CMS_WIDTH - 1)), 0) for i in range(CMS_DEPTH)
    )


def _sql_cms() -> str:
    from .queries import _sql_md5_u64le

    rows = "\n  UNION ALL\n".join(
        f"  SELECT {i} AS cms_row, CAST((h >> {16 * i}) & {CMS_WIDTH - 1} AS BIGINT)"
        f" AS cms_idx FROM h"
        for i in range(CMS_DEPTH)
    )
    return f"""
WITH tok AS (
  SELECT unnest(list_filter(regexp_split_to_array(coalesce(text, ''), '\\s+'),
                x -> x <> '')) AS t
  FROM documents
),
h AS (SELECT {_sql_md5_u64le('md5(t)')} AS h FROM tok),
cells AS (
{rows}
)
SELECT cms_row, cms_idx, count(*) AS cnt FROM cells GROUP BY 1, 2
"""


SQL_CORPUS_CMS_COUNTS = _sql_cms()


# ---------------------------------------------------------------------------
# Weight-proportional document sampling (quality/length-weighted curation
# draw) — integer-exact, so reproducible at any parallelism
# ---------------------------------------------------------------------------

WEIGHT_MULT = 16  # P(keep) = min(1, n_chars * 16 / 65536) = n_chars/4096


def q_doc_sample_weighted(sf_dir: str) -> rd.Dataset:
    """Weight-proportional Bernoulli sample: keep a doc iff its 16-bit
    md5(doc_id) key < n_chars * WEIGHT_MULT — inclusion probability
    proportional to document length (the quality-weighted curation draw),
    decided by pure INTEGER comparison on a hash of the stable id. No RNG
    state, no floats, no shuffle: membership is a per-batch filter that
    re-runs, resumes and any cluster size reproduce exactly (same contract
    as q_doc_sample's uniform draw; this is its importance-weighted
    sibling)."""

    out_schema = pa.schema([
        ("doc_id", pa.int64()), ("lang", pa.string()), ("n_chars", pa.int64()),
    ])

    def f(t: pa.Table) -> pa.Table:
        keys = np.array(
            [
                int.from_bytes(hashlib.md5(str(d).encode()).digest()[:2], "big")
                for d in t["doc_id"].to_pylist()
            ],
            dtype="int64",
        )
        keep = keys < pc.cast(t["n_chars"], pa.int64()).to_numpy() * WEIGHT_MULT
        # typed Arrow out: an all-filtered block stays schema-stable
        return t.filter(pa.array(keep, pa.bool_())).cast(out_schema)

    return _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"]).map_batches(
        f, batch_format="pyarrow"
    )


SQL_DOC_SAMPLE_WEIGHTED = f"""
SELECT doc_id, lang, n_chars
FROM documents
WHERE ({_SQL_MD5_KEY16}) < n_chars * {WEIGHT_MULT}
"""


# ---------------------------------------------------------------------------
# Unigram-LM quality scoring (the KenLM-filter shape)
# ---------------------------------------------------------------------------


def q_doc_unigram_logprob(sf_dir: str) -> rd.Dataset:
    """Per-document average negative log-likelihood under the corpus's own
    unigram language model — the model-based quality-filter shape (CCNet /
    Gopher run a KenLM here; the plumbing is identical, only the scorer
    swaps). Two passes: (1) corpus token counts via per-batch partials +
    ONE hash_exchange (the LM build — nothing but (token, int64) rows
    cross the wire), collected into a token→count table and broadcast
    ONCE via ``ray.put``; (2) a pure map_batches scores each doc as
    mean(-ln(count/total)) over its tokens, reading the broadcast from the
    object store per task — never re-shipped per batch. Every token is in
    the LM by construction (trained on the same corpus), so there is no
    OOV branch; at web scale the LM truncates to a top-V vocabulary with
    an OOV floor and the broadcast stays bounded (documented scale path).
    Zero-token docs carry no distribution and are excluded (the oracle's
    join does the same)."""
    cnt_schema = pa.schema([pa.field("token", pa.string()), pa.field("tf", pa.int64())])

    def count_partials(t: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for x in _texts(t):
            c.update(_tokens(x))
        toks = sorted(c)
        return pa.table({
            "token": pa.array(toks, pa.string()),
            "tf": pa.array([c[k] for k in toks], pa.int64()),
        })

    def shard_sum(t: pa.Table) -> pa.Table:
        g = t.group_by("token").aggregate([("tf", "sum")])
        return pa.Table.from_arrays([g["token"], g["tf_sum"]], schema=cnt_schema)

    lm: dict = {}
    counts = hash_exchange(
        _read(sf_dir, "documents", ["text"]).map_batches(
            count_partials, batch_format="pyarrow"
        ),
        ["token"],
        shard_sum,
        cnt_schema,
    )
    for b in counts.iter_batches(batch_size=65536, batch_format="pyarrow"):
        for tok, c in zip(b["token"].to_pylist(), b["tf"].to_pylist()):
            lm[tok] = c
    total = float(sum(lm.values()))
    lm_ref = ray.put(lm)

    out_schema = pa.schema([
        pa.field("doc_id", pa.int64()), pa.field("n_tokens", pa.int64()),
        pa.field("avg_nll", pa.float64()),
    ])

    def score(t: pa.Table, _ref=lm_ref) -> pa.Table:
        d = ray.get(_ref)
        ids, ns, nlls = [], [], []
        for doc_id, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            toks = _tokens(text or "")
            if not toks:
                continue
            c = np.array([d[tok] for tok in toks], dtype="float64")
            ids.append(doc_id)
            ns.append(len(toks))
            nlls.append(float(-(np.log(c / total)).sum() / len(toks)))
        return pa.Table.from_arrays(
            [pa.array(ids, pa.int64()), pa.array(ns, pa.int64()),
             pa.array(nlls, pa.float64())],
            schema=out_schema,
        )

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        score, batch_format="pyarrow"
    )


SQL_DOC_UNIGRAM_LOGPROB = """
WITH tok AS (
  SELECT doc_id,
         unnest(list_filter(regexp_split_to_array(text, '\\s+'), x -> x <> '')) AS token
  FROM documents
),
cnt AS (SELECT token, count(*) AS c FROM tok GROUP BY token),
tot AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM tok)
SELECT t.doc_id,
       count(*) AS n_tokens,
       sum(-ln(CAST(c.c AS DOUBLE) / (SELECT n FROM tot))) / count(*) AS avg_nll
FROM tok t JOIN cnt c USING (token)
GROUP BY t.doc_id
"""


# ---------------------------------------------------------------------------
# Per-group heavy hitters: top-K tokens per language
# ---------------------------------------------------------------------------

LANG_TOPK = 5


def q_lang_top_tokens(sf_dir: str) -> pd.DataFrame:
    """Top-K tokens per language by corpus frequency — the GROUPED
    heavy-hitters shape (corpus_bigrams is the global one; doc_tfidf is
    per-doc). Per-batch (lang, token) partial counts, ONE hash_exchange on
    (lang, token) — after it every count for a (lang, token) is whole in
    one shard, so a per-shard per-LANG top-K prune there is exact-safe
    (a shard may hold only part of a language's vocabulary, but it holds
    ALL counts of the tokens it has, so the true per-lang top-K survives
    every shard prune) — then a tiny driver merge of ≤ shards × langs × K
    rows. Ties break (count desc, token asc). Emits rank 1..K per lang."""
    cnt_schema = pa.schema([
        ("lang", pa.string()), ("token", pa.string()), ("n", pa.int64()),
    ])

    def partials(t: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for lang, x in zip(pc.fill_null(t["lang"], "").to_pylist(), _texts(t)):
            for tok in _tokens(x):
                c[(lang, tok)] += 1
        keys = sorted(c)
        return pa.table({
            "lang": pa.array([k[0] for k in keys], pa.string()),
            "token": pa.array([k[1] for k in keys], pa.string()),
            "n": pa.array([c[k] for k in keys], pa.int64()),
        })

    def shard_topk(t: pa.Table) -> pa.Table:
        g = t.group_by(["lang", "token"]).aggregate([("n", "sum")])
        df = pa.Table.from_arrays(
            [g["lang"], g["token"], g["n_sum"]], names=["lang", "token", "n"]
        ).to_pandas()
        df = df.sort_values(["lang", "n", "token"], ascending=[True, False, True])
        pruned = df.groupby("lang", sort=False).head(LANG_TOPK)
        return pa.Table.from_pandas(pruned, preserve_index=False).cast(cnt_schema)

    merged = hash_exchange(
        _read(sf_dir, "documents", ["lang", "text"]).map_batches(
            partials, batch_format="pyarrow"
        ),
        ["lang", "token"],
        shard_topk,
        cnt_schema,
    ).to_pandas()
    if merged.empty:
        return pd.DataFrame({
            "lang": pd.Series([], dtype=str), "token": pd.Series([], dtype=str),
            "n": pd.Series([], dtype="int64"), "rank": pd.Series([], dtype="int64"),
        })
    merged = merged.sort_values(["lang", "n", "token"], ascending=[True, False, True])
    top = merged.groupby("lang", sort=False).head(LANG_TOPK).copy()
    top["rank"] = top.groupby("lang", sort=False).cumcount() + 1
    return top.reset_index(drop=True)


SQL_LANG_TOP_TOKENS = f"""
WITH tok AS (
  SELECT lang,
         unnest(list_filter(regexp_split_to_array(text, '\\s+'), x -> x <> '')) AS token
  FROM documents
),
c AS (SELECT lang, token, count(*) AS n FROM tok GROUP BY lang, token),
r AS (
  SELECT lang, token, n,
         row_number() OVER (PARTITION BY lang ORDER BY n DESC, token ASC) AS rank
  FROM c
)
SELECT lang, token, n, rank FROM r WHERE rank <= {LANG_TOPK}
"""


# ---------------------------------------------------------------------------
# Sequence packing: the distributed ordered prefix-scan
# ---------------------------------------------------------------------------

PACK_SEQ_LEN = 2048   # training block length (tokens)
PACK_BUCKET = 4096    # doc_ids per range bucket; size so n_buckets ~ 1e5 at scale


def q_doc_pack_sequences(sf_dir: str) -> rd.Dataset:
    """Sequence packing for LLM training: concatenate every document's
    tokens (+1 EOS each) in GLOBAL doc_id order and cut the stream into
    fixed ``PACK_SEQ_LEN``-token blocks; emit, per document, its token
    count, its exclusive global token offset, and the first/last/packed
    block span it lands in. This is the engine's distributed ORDERED
    prefix-scan topology (every other keyed op is order-free): docs are
    RANGE-bucketed by ``doc_id // PACK_BUCKET``, per-bucket token totals
    reduce to one tiny row per bucket, the driver prefix-sums that bucket
    histogram (n_buckets rows — size PACK_BUCKET so this stays ~1e5 at
    10^12 docs) and broadcasts the per-bucket base offsets via ``ray.put``;
    a single keyed exchange then co-locates each bucket and computes
    within-bucket cumsums vectorized (C-level groupby cumsum — no Python
    loop). The doc-grain (doc_id, bucket, n_tokens) intermediate is
    int-only (~24 B/doc — 0.02% of corpus bytes) and is materialized once
    so tokenization runs a single pass for both the bucket histogram and
    the packed output."""
    cnt_schema = pa.schema([
        ("doc_id", pa.int64()), ("bucket", pa.int64()), ("n_tokens", pa.int64()),
    ])

    def tok_counts(t: pa.Table) -> pa.Table:
        ids = pc.cast(t["doc_id"], pa.int64())
        return pa.table({
            "doc_id": ids,
            "bucket": pc.divide(ids, pa.scalar(PACK_BUCKET, pa.int64())),
            "n_tokens": pc.add(
                pc.cast(
                    pc.count_substring_regex(
                        pc.fill_null(t["text"], ""), r"\S+"
                    ),
                    pa.int64(),
                ),
                pa.scalar(1, pa.int64()),
            ),
        })

    counts = (
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(tok_counts, batch_format="pyarrow")
        .materialize()
    )

    bt = (
        counts.groupby("bucket")
        .aggregate(Sum("n_tokens", alias_name="total"))
        .to_pandas()
        .sort_values("bucket")
    )
    totals = bt["total"].to_numpy(dtype="int64")
    base = dict(zip(bt["bucket"].tolist(), (np.cumsum(totals) - totals).tolist()))
    base_ref = ray.put(base)

    out_schema = pa.schema([
        ("doc_id", pa.int64()), ("n_tokens", pa.int64()),
        ("tok_offset", pa.int64()), ("first_block", pa.int64()),
        ("last_block", pa.int64()), ("n_blocks", pa.int64()),
    ])

    def pack(t: pa.Table, _ref=base_ref) -> pa.Table:
        df = t.to_pandas().sort_values("doc_id")
        b = ray.get(_ref)
        excl = df.groupby("bucket", sort=False)["n_tokens"].cumsum() - df["n_tokens"]
        off = (df["bucket"].map(b).astype("int64") + excl).to_numpy(dtype="int64")
        n = df["n_tokens"].to_numpy(dtype="int64")
        first = off // PACK_SEQ_LEN
        last = (off + n - 1) // PACK_SEQ_LEN
        return pa.Table.from_arrays(
            [pa.array(df["doc_id"].to_numpy(dtype="int64")), pa.array(n),
             pa.array(off), pa.array(first), pa.array(last),
             pa.array(last - first + 1)],
            schema=out_schema,
        )

    return hash_exchange(counts, ["bucket"], pack, out_schema)


SQL_DOC_PACK_SEQUENCES = f"""
WITH tok AS (
  SELECT doc_id,
         len(list_filter(regexp_split_to_array(coalesce(text, ''), '\\s+'),
                         x -> x <> '')) + 1 AS n_tokens
  FROM documents
),
o AS (
  SELECT doc_id, n_tokens,
         coalesce(sum(n_tokens) OVER (ORDER BY doc_id
             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS tok_offset
  FROM tok
)
SELECT doc_id,
       CAST(n_tokens AS BIGINT) AS n_tokens,
       CAST(tok_offset AS BIGINT) AS tok_offset,
       CAST(tok_offset // {PACK_SEQ_LEN} AS BIGINT) AS first_block,
       CAST((tok_offset + n_tokens - 1) // {PACK_SEQ_LEN} AS BIGINT) AS last_block,
       CAST((tok_offset + n_tokens - 1) // {PACK_SEQ_LEN}
            - tok_offset // {PACK_SEQ_LEN} + 1 AS BIGINT) AS n_blocks
FROM o
"""


# ---------------------------------------------------------------------------
# URL canonicalization dedup
# ---------------------------------------------------------------------------

_URL_SPLIT_RX = r"^([A-Za-z][A-Za-z0-9+.-]*)://([^/?#]*)([^?#]*)\??([^#]*).*$"
_TRACKING_PARAM_RX = re.compile(r"(?:utm_[a-z]+|fbclid|gclid)=[^&]*&?")


def canonicalize_urls(urls: pd.Series) -> pd.Series:
    """Vectorized URL canonicalizer (the crawl-side normalization every
    URL-keyed dedup/frontier op runs first): lowercase scheme+host, strip
    the fragment, drop default ports (``:80`` http / ``:443`` https), drop
    tracking query params (``utm_*``, ``fbclid``, ``gclid`` — and the ``?``
    itself if nothing survives), and strip a trailing slash from non-root
    paths. Pure pandas str kernels — no per-row Python."""
    m = urls.str.extract(_URL_SPLIT_RX)
    scheme = m[0].str.lower()
    hostport = m[1].str.lower()
    path = m[2].fillna("")
    query = m[3].fillna("")

    hostport = pd.Series(
        np.where(
            (scheme == "https") & hostport.str.endswith(":443"),
            hostport.str.replace(r":443$", "", regex=True),
            np.where(
                (scheme == "http") & hostport.str.endswith(":80"),
                hostport.str.replace(r":80$", "", regex=True),
                hostport,
            ),
        ),
        index=urls.index,
    )
    path = pd.Series(
        np.where(
            (path.str.len() > 1) & path.str.endswith("/"),
            path.str.rstrip("/"),
            path,
        ),
        index=urls.index,
    )
    query = (
        query.str.replace(_TRACKING_PARAM_RX, "", regex=True)
        .str.rstrip("&")
    )
    return (
        scheme + "://" + hostport + path
        + np.where(query != "", "?" + query, "")
    )


def _synth_messy_urls(t: pa.Table) -> pd.DataFrame:
    """Deterministic MESSY URL per document: pairs of docs (grp = doc_id//2)
    share one canonical page but each carries its own residue-driven noise —
    scheme/host casing, explicit default port, tracking params (sometimes
    BEFORE the real param), fragments, trailing slashes — so the
    canonicalizer has real work on every clause and the DuckDB oracle can
    rebuild the CLEAN form directly from doc_id (verifying the regex
    canonicalizer against an independent construction)."""
    d = t["doc_id"].to_pandas()
    grp = d // 2
    scheme = pd.Series(np.where(d % 8 == 3, "HTTPS", "https"), index=d.index)
    host = "site" + (grp % 97).astype(str) + ".example.org"
    host = pd.Series(np.where(d % 4 == 1, host.str.upper(), host), index=d.index)
    port = pd.Series(np.where(d % 6 == 0, ":443", ""), index=d.index)
    path = "/p/" + grp.map("{:06d}".format)
    path = path + pd.Series(np.where(d % 7 == 0, "/", ""), index=d.index)
    keep = pd.Series(np.where(grp % 3 == 0, "id=" + (grp % 7).astype(str), ""),
                     index=d.index)
    track = pd.Series(
        np.where(d % 2 == 0,
                 "utm_source=feed&utm_campaign=c" + (d % 4).astype(str), ""),
        index=d.index,
    )
    track_first = (d % 9 == 4) & (track != "") & (keep != "")
    qs = pd.Series(
        np.where(
            track_first,
            track + "&" + keep,
            keep + np.where((keep != "") & (track != ""), "&", "") + track,
        ),
        index=d.index,
    )
    frag = pd.Series(np.where(d % 5 == 0, "#frag" + (d % 9).astype(str), ""),
                     index=d.index)
    url = (
        scheme + "://" + host + port + path
        + np.where(qs != "", "?" + qs, "") + frag
    )
    return pd.DataFrame({"doc_id": d, "url": url})


def q_dedup_url_canonical(sf_dir: str) -> rd.Dataset:
    """URL dedup after canonicalization — the first dedup pass of every
    crawl pipeline (the same page is re-fetched under casing/port/tracking/
    fragment variants far more often than its text mutates): canonicalize
    the whole column vectorized, pre-combine per block to one
    (canon_url, partial_count, partial_min_doc) row per distinct URL, then
    ONE keyed exchange on the canonical string finishes count + keeper
    (min doc_id). The shuffle moves one short row per distinct URL per
    block — never raw variants. Output: (canon_url, n_docs, keeper_doc_id)."""
    agg_schema = pa.schema([
        ("canon_url", pa.string()), ("n_docs", pa.int64()),
        ("keeper_doc_id", pa.int64()),
    ])

    def partial(t: pa.Table) -> pa.Table:
        df = _synth_messy_urls(t)
        df["canon_url"] = canonicalize_urls(df["url"])
        g = df.groupby("canon_url", sort=False)["doc_id"].agg(["size", "min"])
        return pa.Table.from_arrays(
            [pa.array(g.index.to_numpy(dtype=object), pa.string()),
             pa.array(g["size"].to_numpy(dtype="int64")),
             pa.array(g["min"].to_numpy(dtype="int64"))],
            schema=agg_schema,
        )

    def shard_agg(t: pa.Table) -> pa.Table:
        g = t.group_by("canon_url").aggregate(
            [("n_docs", "sum"), ("keeper_doc_id", "min")]
        )
        return pa.Table.from_arrays(
            [g["canon_url"], g["n_docs_sum"], g["keeper_doc_id_min"]],
            schema=agg_schema,
        )

    return hash_exchange(
        _read(sf_dir, "documents", ["doc_id"]).map_batches(
            partial, batch_format="pyarrow"
        ),
        ["canon_url"],
        shard_agg,
        agg_schema,
    )


SQL_DEDUP_URL_CANONICAL = """
WITH c AS (
  SELECT doc_id,
         'https://site' || ((doc_id // 2) % 97) || '.example.org/p/'
           || lpad(CAST(doc_id // 2 AS VARCHAR), 6, '0')
           || CASE WHEN (doc_id // 2) % 3 = 0
                   THEN '?id=' || ((doc_id // 2) % 7) ELSE '' END AS canon_url
  FROM documents
)
SELECT canon_url, count(*) AS n_docs, min(doc_id) AS keeper_doc_id
FROM c GROUP BY canon_url
"""


# ---------------------------------------------------------------------------
# Global length-band filter (exact corpus percentiles from a tiny histogram)
# ---------------------------------------------------------------------------

BAND_LO_DECILE = 1   # keep docs between the exact P10 ...
BAND_HI_DECILE = 9   # ... and the exact P90 of the token-count distribution


def q_doc_length_band(sf_dir: str) -> rd.Dataset:
    """Global length-band filter: keep documents whose token count lies
    between the EXACT corpus P10 and P90 — the two-pass global-threshold
    shape (Gopher's length gates use fixed constants; production corpora
    re-derive them per crawl). Pass 1 collapses per-doc counts to the
    COUNT-OF-COUNTS histogram (one row per distinct length — tiny at any
    corpus size), the driver walks its cumsum for the exact order
    statistics using INTEGER rank math (k = ceil(d*n/10) computed as
    (d*n+9)//10 — no float percentile drift vs the oracle), and pass 2
    re-filters the materialized int-only doc-grain counts against the two
    broadcast scalars. Output: (doc_id, n_tokens) of kept docs."""
    cnt_schema = pa.schema([("doc_id", pa.int64()), ("n_tokens", pa.int64())])

    def tok(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t["doc_id"],
            "n_tokens": pc.cast(
                pc.count_substring_regex(pc.fill_null(t["text"], ""), r"\S+"),
                pa.int64(),
            ),
        })

    counts = (
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(tok, batch_format="pyarrow")
        .materialize()
    )

    def hist(t: pa.Table) -> pa.Table:
        g = t.group_by("n_tokens").aggregate([([], "count_all")])
        return pa.Table.from_arrays(
            [g["n_tokens"], pc.cast(g["count_all"], pa.int64())],
            names=["n_tokens", "m"],
        )

    cc = (
        counts.map_batches(hist, batch_format="pyarrow")
        .groupby("n_tokens")
        .aggregate(Sum("m", alias_name="m"))
        .to_pandas()
        .sort_values("n_tokens")
    )
    m = cc["m"].to_numpy(dtype="int64")
    vals = cc["n_tokens"].to_numpy(dtype="int64")
    cum = np.cumsum(m)
    n = int(cum[-1])
    k_lo = (BAND_LO_DECILE * n + 9) // 10
    k_hi = (BAND_HI_DECILE * n + 9) // 10
    p_lo = int(vals[np.searchsorted(cum, k_lo)])
    p_hi = int(vals[np.searchsorted(cum, k_hi)])

    def band(t: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.greater_equal(t["n_tokens"], p_lo),
            pc.less_equal(t["n_tokens"], p_hi),
        )
        return t.filter(keep)

    return counts.map_batches(band, batch_format="pyarrow")


SQL_DOC_LENGTH_BAND = f"""
WITH tok AS (
  SELECT doc_id,
         len(list_filter(regexp_split_to_array(coalesce(text, ''), '\\s+'),
                         x -> x <> '')) AS n_tokens
  FROM documents
),
r AS (
  SELECT doc_id, n_tokens,
         row_number() OVER (ORDER BY n_tokens, doc_id) AS rn,
         count(*) OVER () AS n
  FROM tok
),
th AS (
  SELECT max(CASE WHEN rn = ({BAND_LO_DECILE} * n + 9) // 10
             THEN n_tokens END) AS p_lo,
         max(CASE WHEN rn = ({BAND_HI_DECILE} * n + 9) // 10
             THEN n_tokens END) AS p_hi
  FROM r
)
SELECT doc_id, CAST(n_tokens AS BIGINT) AS n_tokens
FROM tok, th WHERE n_tokens BETWEEN p_lo AND p_hi
"""


# ---------------------------------------------------------------------------
# Anchor-text aggregation: top terms per target host
# ---------------------------------------------------------------------------

HOST_ANCHOR_TOPK = 3


def q_host_anchor_terms(sf_dir: str) -> pd.DataFrame:
    """Incoming anchor-text terms per TARGET host — the web-search-era
    operator training-data pipelines inherited (anchor terms describe the
    target better than the target's own boilerplate; used for doc priors
    and query-independent quality). Followable links only (no rel=nofollow,
    no page-level robots nofollow). Topology: per-batch (host, token)
    partial counts from the parsed link stream (anchors never ride the
    shuffle raw), ONE keyed exchange on (host, token), per-shard per-host
    top-K prune (exact-safe: a shard holds ALL counts of the tokens it
    has), tiny driver merge. Ties (count desc, token asc); rank 1..K."""
    from ..functions.links import extract_outlinks, split_url
    from ..functions.fixtures import make_link_page

    cnt_schema = pa.schema([
        ("host", pa.string()), ("token", pa.string()), ("n", pa.int64()),
    ])

    def partials(t: pa.Table) -> pa.Table:
        counts: dict = {}
        for d, src, lang in zip(
            t["doc_id"].to_pylist(), t["source"].to_pylist(),
            t["lang"].to_pylist(),
        ):
            html, base = make_link_page(int(d), src, lang or "en")
            links, _, page_nofollow = extract_outlinks(html, base)
            if page_nofollow:
                continue
            for ln in links:
                if ln.nofollow:
                    continue
                host = split_url(ln.href)[1]
                for tok_ in _tokens(ln.anchor):
                    key = (host, tok_)
                    counts[key] = counts.get(key, 0) + 1
        if not counts:
            return cnt_schema.empty_table()
        hosts, toks, ns = zip(*((h, tk, n) for (h, tk), n in counts.items()))
        return pa.Table.from_arrays(
            [pa.array(hosts, pa.string()), pa.array(toks, pa.string()),
             pa.array(ns, pa.int64())],
            schema=cnt_schema,
        )

    def shard_topk(t: pa.Table) -> pa.Table:
        g = t.group_by(["host", "token"]).aggregate([("n", "sum")])
        df = pa.Table.from_arrays(
            [g["host"], g["token"], g["n_sum"]], names=["host", "token", "n"]
        ).to_pandas()
        df = df.sort_values(["host", "n", "token"], ascending=[True, False, True])
        return pa.Table.from_pandas(
            df.groupby("host", sort=False).head(HOST_ANCHOR_TOPK),
            preserve_index=False,
        ).cast(cnt_schema)

    merged = hash_exchange(
        _read(sf_dir, "documents", ["doc_id", "source", "lang"]).map_batches(
            partials, batch_format="pyarrow"
        ),
        ["host", "token"],
        shard_topk,
        cnt_schema,
    ).to_pandas()
    merged = merged.sort_values(["host", "n", "token"],
                                ascending=[True, False, True])
    top = merged.groupby("host", sort=False).head(HOST_ANCHOR_TOPK).copy()
    top["rank"] = (top.groupby("host", sort=False).cumcount() + 1).astype("int64")
    return top.reset_index(drop=True)


SQL_HOST_ANCHOR_TERMS = f"""
WITH base AS (
  SELECT doc_id, source FROM documents WHERE doc_id % 7 <> 0
),
links AS (
  SELECT 'src' || ((doc_id * 7 + 1) % 20) || '.example.net' AS host,
         'ref ' || (doc_id % 9) AS anchor FROM base
  UNION ALL
  SELECT 'cdn.example.org', 'cdn ' || (doc_id % 4) FROM base
  UNION ALL
  SELECT CASE WHEN doc_id % 6 = 3 THEN 'base' || (doc_id % 4) || '.example.org'
              ELSE source || '.example.com' END,
         'local ' || (doc_id % 5) FROM base
  UNION ALL
  SELECT CASE WHEN doc_id % 6 = 3 THEN 'base' || (doc_id % 4) || '.example.org'
              ELSE source || '.example.com' END,
         'up ' || (doc_id % 3) FROM base
),
tok AS (
  SELECT host,
         unnest(list_filter(regexp_split_to_array(anchor, '\\s+'),
                            x -> x <> '')) AS token
  FROM links
),
c AS (SELECT host, token, count(*) AS n FROM tok GROUP BY host, token),
r AS (
  SELECT host, token, n,
         row_number() OVER (PARTITION BY host ORDER BY n DESC, token ASC)
           AS rank
  FROM c
)
SELECT host, token, n, rank FROM r WHERE rank <= {HOST_ANCHOR_TOPK}
"""


# ---------------------------------------------------------------------------
# BM25 ranked retrieval — the search-side consumer of the inverted-index
# stats (q_token_postings builds the index; this ranks against it). Scores
# follow Robertson/Sparck-Jones BM25 (k1=1.2, b=0.75) with the +1 idf
# smoothing (Lucene's variant, always positive).
# ---------------------------------------------------------------------------

BM25_TERMS = ("hash", "join", "stream")  # the fixed benchmark query
BM25_K1 = 1.2
BM25_B = 0.75
BM25_TOPK = 20


def q_search_bm25(sf_dir: str) -> pd.DataFrame:
    """Top-20 documents by BM25 for a fixed term query, exact to the bit.

    Two passes, no row-scale shuffle anywhere:
      1. STATS: each block emits ONE row — doc count, token-length sum, and
         per-term document-frequency partials (docs never span blocks, so
         df partials are exact). The driver sums <= n_blocks tiny rows;
         N / avgdl / per-term idf become broadcast constants.
      2. SCORE: a pure map computes each doc's score as the FIXED
         left-associated sum over the query terms (term order pinned, so
         the float sequence is reproducible in SQL), quantizes to int64
         nano-units, keeps scoring docs only, and takes a per-block partial
         top-k; the driver merges <= k-per-block rows. Never a global sort.

    At 10^12 docs pass 1 is a tree-reduce of constant-size rows and pass 2
    is embarrassingly parallel — this is the standard two-round scatter-
    gather ranked retrieval (per-shard top-k + tiny merge) every search
    engine runs; the "index" here is recomputed inline because the corpus
    IS the input (against a prebuilt postings table the same pass-2 shape
    probes q_token_postings' output instead)."""
    import math

    terms = list(BM25_TERMS)
    stats_schema = pa.schema(
        [pa.field("n", pa.int64()), pa.field("sdl", pa.int64())]
        + [pa.field(f"df{i}", pa.int64()) for i in range(len(terms))]
    )

    def stats_partial(t: pa.Table) -> pa.Table:
        toks = [_tokens(x) for x in _texts(t)]
        row = {"n": t.num_rows, "sdl": sum(len(ts) for ts in toks)}
        for i, term in enumerate(terms):
            row[f"df{i}"] = sum(1 for ts in toks if term in ts)
        return pa.Table.from_pylist([row], schema=stats_schema)

    stats = (
        _read(sf_dir, "documents", ["text"])
        .map_batches(stats_partial, batch_format="pyarrow")
        .to_pandas()
        .sum()
    )
    n, sdl = int(stats["n"]), int(stats["sdl"])
    avgdl = sdl / n
    idf = [
        math.log((n - int(stats[f"df{i}"]) + 0.5) / (int(stats[f"df{i}"]) + 0.5) + 1.0)
        for i in range(len(terms))
    ]

    out_schema = pa.schema(
        [pa.field("doc_id", pa.int64()), pa.field("score_nano", pa.int64())]
    )

    def score_topk(t: pa.Table) -> pa.Table:
        toks = [_tokens(x) for x in _texts(t)]
        dl = np.array([len(ts) for ts in toks], dtype="float64")
        k_doc = BM25_K1 * ((1.0 - BM25_B) + BM25_B * (dl / avgdl))
        score = np.zeros(t.num_rows, dtype="float64")
        for i, term in enumerate(terms):  # fixed order = fixed float sequence
            tf = np.array([ts.count(term) for ts in toks], dtype="float64")
            score = score + idf[i] * ((tf * (BM25_K1 + 1.0)) / (tf + k_doc))
        nano = np.where(score >= 0, np.floor(score * 1e9 + 0.5),
                        np.ceil(score * 1e9 - 0.5)).astype("int64")
        out = pa.table({
            "doc_id": pc.cast(t["doc_id"], pa.int64()),
            "score_nano": pa.array(nano, pa.int64()),
        })
        out = out.filter(pc.greater(out["score_nano"], 0)).sort_by(
            [("score_nano", "descending"), ("doc_id", "ascending")]
        ).slice(0, BM25_TOPK)
        return out.cast(out_schema)

    partials = (
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(score_topk, batch_format="pyarrow")
        .to_pandas()
    )
    if partials.shape[1] == 0:  # zero scoring docs anywhere: Ray's
        # to_pandas drops column names at 0 rows; rebuild the typed empty
        partials = out_schema.empty_table().to_pandas()
    top = partials.sort_values(
        ["score_nano", "doc_id"], ascending=[False, True]
    ).head(BM25_TOPK)
    return top.reset_index(drop=True)


def sql_search_bm25() -> str:
    terms = list(BM25_TERMS)
    tf_cols = ",\n         ".join(
        f"sum(CASE WHEN token = '{t}' THEN 1 ELSE 0 END) AS tf{i}"
        for i, t in enumerate(terms)
    )
    idf = [
        f"ln((CAST(n - df{i} AS DOUBLE) + 0.5) / (CAST(df{i} AS DOUBLE) + 0.5) + 1.0)"
        for i in range(len(terms))
    ]
    df_cols = ",\n         ".join(
        f"sum(CASE WHEN tf{i} > 0 THEN 1 ELSE 0 END) AS df{i}"
        for i in range(len(terms))
    )
    score = " + ".join(
        f"(s.idf{i} * ((CAST(t.tf{i} AS DOUBLE) * {BM25_K1 + 1.0!r})"
        f" / (CAST(t.tf{i} AS DOUBLE) + t.k_doc)))"
        for i in range(len(terms))
    )
    return f"""
WITH tok AS (
  SELECT doc_id,
         unnest(list_filter(regexp_split_to_array(text, '\\s+'), x -> x <> '')) AS token
  FROM documents
),
base AS (
  SELECT doc_id,
         CAST(len(list_filter(regexp_split_to_array(text, '\\s+'), x -> x <> '')) AS BIGINT) AS dl
  FROM documents
),
tf0 AS (
  SELECT doc_id,
         {tf_cols}
  FROM tok GROUP BY doc_id
),
t0 AS (
  SELECT b.doc_id, b.dl,
         {", ".join(f"COALESCE(f.tf{i}, 0) AS tf{i}" for i in range(len(terms)))}
  FROM base b LEFT JOIN tf0 f ON b.doc_id = f.doc_id
),
corpus AS (
  SELECT count(*) AS n, sum(dl) AS sdl,
         {df_cols}
  FROM t0
),
s AS (
  SELECT n, CAST(sdl AS DOUBLE) / n AS avgdl,
         {", ".join(f"{e} AS idf{i}" for i, e in enumerate(idf))}
  FROM corpus
),
scored AS (
  SELECT t.doc_id,
         CAST(round(({score}) * 1000000000.0) AS BIGINT) AS score_nano
  FROM (SELECT *,
          {BM25_K1!r} * ((1.0 - {BM25_B!r}) + {BM25_B!r} * (CAST(dl AS DOUBLE) / (SELECT avgdl FROM s))) AS k_doc
        FROM t0) t, s
)
SELECT doc_id, score_nano FROM scored
WHERE score_nano > 0
ORDER BY score_nano DESC, doc_id ASC
LIMIT {BM25_TOPK}
"""


# ---------------------------------------------------------------------------
# Zipf-law fit — the corpus-statistics capstone: OLS slope of ln(freq) on
# ln(rank) over the full vocabulary (Zipf's law predicts ~ -1). Corpus
# health checks use the fitted exponent to catch boilerplate floods and
# template corpora (slope drifts toward 0) before training ever sees them.
# ---------------------------------------------------------------------------

ZIPF_UNIT = 10**9  # nano-quantization of the log coords: integer-exact sums


def q_corpus_zipf_fit(sf_dir: str) -> pd.DataFrame:
    """One-row corpus fit: vocabulary size, Zipf slope and intercept.

    Determinism contract (what makes a FLOAT regression oracle-exact): rank
    is the (tf DESC, token ASC) row number; each coordinate ln(rank), ln(tf)
    is quantized to int64 nano-units immediately (one libm ln + one round
    per value — reproducible), all five OLS moments are then EXACT integer
    sums (Python ints / HUGEINT, order-free), and slope/intercept are a
    fixed two-step float expression on those integers, nano-quantized for
    the output hash.

    Topology: per-block token partials -> ONE hash_exchange merges tf per
    token (the q_token_postings index shape, no HAVING) -> the vocabulary
    table (orders of magnitude below corpus size) is ranked and reduced on
    the driver. At a 10^9-term vocabulary the rank becomes a distributed
    sort on one int64 column and the moments a tree-reduce of five-int rows
    — same contract, documented rather than built."""
    import math

    posting_schema = pa.schema(
        [pa.field("token", pa.string()), pa.field("tf", pa.int64())]
    )

    def partials(t: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for x in _texts(t):
            c.update(_tokens(x))
        toks = sorted(c)
        return pa.table({
            "token": pa.array(toks, pa.string()),
            "tf": pa.array([c[k] for k in toks], pa.int64()),
        })

    def shard_sum(t: pa.Table) -> pa.Table:
        g = t.group_by("token").aggregate([("tf", "sum")])
        return pa.Table.from_arrays([g["token"], g["tf_sum"]], schema=posting_schema)

    vocab = hash_exchange(
        _read(sf_dir, "documents", ["text"]).map_batches(
            partials, batch_format="pyarrow"
        ),
        ["token"],
        shard_sum,
        posting_schema,
    ).to_pandas()  # bounded by VOCABULARY size, never corpus size

    vocab = vocab.sort_values(["tf", "token"], ascending=[False, True])
    n = len(vocab)
    sx = sy = sxx = sxy = 0  # Python ints: exact at any magnitude
    for rank, tf in enumerate(vocab["tf"].tolist(), start=1):
        xq = int(np.floor(math.log(float(rank)) * ZIPF_UNIT + 0.5))
        yq = int(np.floor(math.log(float(tf)) * ZIPF_UNIT + 0.5))
        sx += xq; sy += yq; sxx += xq * xq; sxy += xq * yq
    slope = float(n * sxy - sx * sy) / float(n * sxx - sx * sx)
    intercept = (float(sy) - slope * float(sx)) / n
    return pd.DataFrame({
        "n_vocab": pd.Series([n], dtype="int64"),
        "zipf_slope_nano": pd.Series(
            [int(np.floor(slope * ZIPF_UNIT + 0.5)) if slope >= 0
             else int(np.ceil(slope * ZIPF_UNIT - 0.5))], dtype="int64"),
        "zipf_intercept_nano": pd.Series(
            [int(np.floor(intercept + 0.5)) if intercept >= 0
             else int(np.ceil(intercept - 0.5))], dtype="int64"),
    })


SQL_CORPUS_ZIPF_FIT = f"""
WITH tok AS (
  SELECT unnest(list_filter(regexp_split_to_array(text, '\\s+'), x -> x <> '')) AS token
  FROM documents
),
tf AS (SELECT token, count(*) AS tf FROM tok GROUP BY token),
r AS (
  SELECT tf, row_number() OVER (ORDER BY tf DESC, token ASC) AS rank FROM tf
),
q AS (
  SELECT CAST(round(ln(CAST(rank AS DOUBLE)) * {ZIPF_UNIT}) AS BIGINT) AS xq,
         CAST(round(ln(CAST(tf AS DOUBLE)) * {ZIPF_UNIT}) AS BIGINT) AS yq
  FROM r
),
s AS (
  SELECT CAST(count(*) AS HUGEINT) AS n,
         sum(CAST(xq AS HUGEINT)) AS sx, sum(CAST(yq AS HUGEINT)) AS sy,
         sum(CAST(xq AS HUGEINT) * xq) AS sxx,
         sum(CAST(xq AS HUGEINT) * yq) AS sxy
  FROM q
),
f AS (
  SELECT n, sx, sy,
         CAST(n * sxy - sx * sy AS DOUBLE) / CAST(n * sxx - sx * sx AS DOUBLE) AS slope
  FROM s
)
SELECT CAST(n AS BIGINT) AS n_vocab,
       CAST(round(slope * {ZIPF_UNIT}) AS BIGINT) AS zipf_slope_nano,
       CAST(round((CAST(sy AS DOUBLE) - slope * CAST(sx AS DOUBLE)) / CAST(n AS DOUBLE)) AS BIGINT) AS zipf_intercept_nano
FROM f
"""


# ---------------------------------------------------------------------------
# CC-Net-style per-host boilerplate line removal
# ---------------------------------------------------------------------------

BOILER_MIN_HOST_DOCS = 10   # hosts with fewer docs give no frequency signal
BOILER_DOC_FRACTION = 2     # line is boilerplate if n_docs_with * 2 >= host_docs


def _doc_lines(doc_id: int, source: str, lang: str, text: str) -> List[str]:
    """The deterministic per-document line set (the 'extracted page' a line-
    frequency pass sees): every host page carries the nav line, 2/3 carry
    the copyright footer, 1/2 the newsletter plug, plus the unique content
    line and a tag line. Shared verbatim by both boilerplate queries and
    replayed arithmetically by their SQL oracles."""
    lines = [f"{source} home | about | contact"]
    if doc_id % 3 != 0:
        lines.append(f"(c) 2024 {source}.example.com all rights reserved")
    if doc_id % 2 == 0:
        lines.append(f"subscribe to the {source} newsletter")
    lines.append(text or "")
    lines.append(f"tags: {lang} topic-{doc_id % 7}")
    return lines


_SQL_DOC_LINES = """
doc_lines AS (
  SELECT doc_id, source AS host, source || ' home | about | contact' AS line FROM documents
  UNION ALL
  SELECT doc_id, source, '(c) 2024 ' || source || '.example.com all rights reserved'
  FROM documents WHERE doc_id % 3 <> 0
  UNION ALL
  SELECT doc_id, source, 'subscribe to the ' || source || ' newsletter'
  FROM documents WHERE doc_id % 2 = 0
  UNION ALL
  SELECT doc_id, source, coalesce(text, '') FROM documents
  UNION ALL
  SELECT doc_id, source, 'tags: ' || lang || ' topic-' || (doc_id % 7) FROM documents
),
counts AS (
  SELECT host, line, CAST(count(*) AS BIGINT) AS n_docs_with
  FROM doc_lines GROUP BY 1, 2
),
totals AS (
  SELECT source AS host, CAST(count(*) AS BIGINT) AS host_docs
  FROM documents GROUP BY 1
),
boiler AS (
  SELECT c.host, c.line, c.n_docs_with, t.host_docs
  FROM counts c JOIN totals t USING (host)
  WHERE t.host_docs >= 10 AND c.n_docs_with * 2 >= t.host_docs
)"""


def q_host_boilerplate_lines(sf_dir: str) -> rd.Dataset:
    """Per-host boilerplate line detection (CC-Net, Wenzek 2020 §4.1 /
    RefinedWeb line-wise filtering): a line that recurs across most
    documents of one HOST is chrome (nav, footer, cookie banner), not
    content — the line-frequency pass every web-corpus pipeline runs after
    extraction. Rule: host has >= BOILER_MIN_HOST_DOCS docs AND the line
    appears in >= half of them.

    Topology: per-block partial (host, line-hash->count) dicts — the
    shuffle moves (host, line, partial_count) rows, never document text
    beyond the candidate lines themselves; one groupby-sum finishes
    document frequency; host totals (host-grain, tiny) attach via the
    co-partitioned hash_join. At 100 TB the line-frequency table is
    bounded by (hosts x distinct lines per host): the unique content
    lines long-tail is pruned where it is born by a per-block min-count
    floor... NOT applied here because exactness is the oracle contract —
    the documented production knob is dropping block-local singletons,
    which only misses lines scattered 1-per-block."""
    pair_schema = pa.schema([
        ("host", pa.string()), ("line", pa.string()), ("n_docs_with", pa.int64()),
    ])

    def pairs(t: pa.Table) -> pa.Table:
        acc: dict[tuple, int] = {}
        for d, src, lang, text in zip(
            t["doc_id"].to_pylist(), t["source"].to_pylist(),
            t["lang"].to_pylist(), t["text"].to_pylist(),
        ):
            for ln in set(_doc_lines(int(d), src, lang or "", text or "")):
                k = (src, ln)
                acc[k] = acc.get(k, 0) + 1
        if not acc:
            return pair_schema.empty_table()
        return pa.Table.from_pylist(
            [{"host": h, "line": l, "n_docs_with": n} for (h, l), n in acc.items()],
            schema=pair_schema,
        )

    counts = (
        _read(sf_dir, "documents", ["doc_id", "source", "lang", "text"])
        .map_batches(pairs, batch_format="pyarrow")
        .groupby(["host", "line"])
        .aggregate(Sum("n_docs_with", alias_name="n_docs_with"))
    )

    def totals_part(t: pa.Table) -> pa.Table:
        g = t.group_by("source").aggregate([([], "count_all")])
        return pa.Table.from_arrays(
            [g["source"], pc.cast(g["count_all"], pa.int64())],
            names=["host", "host_docs"],
        )

    totals = (
        _read(sf_dir, "documents", ["source"])
        .map_batches(totals_part, batch_format="pyarrow")
        .groupby("host")
        .aggregate(Sum("host_docs", alias_name="host_docs"))
    )

    joined = hash_join(
        counts,
        totals,
        left_on="host",
        right_on="host",
        key_type=pa.string(),
        left_fields=[pa.field("line", pa.string()), pa.field("n_docs_with", pa.int64())],
        right_fields=[pa.field("host_docs", pa.int64())],
    )

    def keep_boiler(t: pa.Table) -> pa.Table:
        ok = pc.and_(
            pc.greater_equal(t["host_docs"], pa.scalar(BOILER_MIN_HOST_DOCS, pa.int64())),
            pc.greater_equal(
                pc.multiply(t["n_docs_with"], pa.scalar(BOILER_DOC_FRACTION, pa.int64())),
                t["host_docs"],
            ),
        )
        return t.filter(ok).select(["host", "line", "n_docs_with", "host_docs"])

    return joined.map_batches(keep_boiler, batch_format="pyarrow")


SQL_HOST_BOILERPLATE_LINES = (
    "WITH " + _SQL_DOC_LINES
    + "\nSELECT host, line, n_docs_with, host_docs FROM boiler"
)


def q_doc_strip_boilerplate(sf_dir: str) -> rd.Dataset:
    """Apply the host-boilerplate table to every document: drop the chrome
    lines, keep the content (CC-Net's removal step). The boilerplate table
    is host-grain SMALL (hosts x few recurring lines — independent of
    corpus size), so it is collected once and broadcast via ray.put into a
    single map over the corpus: the canonical broadcast-small-side join.
    Per doc: total lines, lines removed, and the character count of the
    kept lines (sum of line lengths — separator-free so the SQL replay is
    exact)."""
    boiler: dict[str, set] = {}
    for b in q_host_boilerplate_lines(sf_dir).iter_batches(
        batch_size=65536, batch_format="pyarrow"
    ):
        for h, l in zip(b["host"].to_pylist(), b["line"].to_pylist()):
            boiler.setdefault(h, set()).add(l)
    ref = ray.put(boiler)

    out_schema = pa.schema([
        ("doc_id", pa.int64()), ("n_lines", pa.int64()),
        ("n_removed", pa.int64()), ("clean_chars", pa.int64()),
    ])

    def strip(t: pa.Table, _ref=ref) -> pa.Table:
        bl = ray.get(_ref)
        rows = []
        for d, src, lang, text in zip(
            t["doc_id"].to_pylist(), t["source"].to_pylist(),
            t["lang"].to_pylist(), t["text"].to_pylist(),
        ):
            lines = _doc_lines(int(d), src, lang or "", text or "")
            host_bl = bl.get(src, ())
            kept = [ln for ln in lines if ln not in host_bl]
            rows.append({
                "doc_id": int(d),
                "n_lines": len(lines),
                "n_removed": len(lines) - len(kept),
                "clean_chars": sum(len(ln) for ln in kept),
            })
        return pa.Table.from_pylist(rows, schema=out_schema)

    return _read(sf_dir, "documents", ["doc_id", "source", "lang", "text"]).map_batches(
        strip, batch_format="pyarrow"
    )


SQL_DOC_STRIP_BOILERPLATE = (
    "WITH " + _SQL_DOC_LINES
    + """
SELECT dl.doc_id,
       CAST(count(*) AS BIGINT) AS n_lines,
       CAST(sum(CASE WHEN b.line IS NOT NULL THEN 1 ELSE 0 END) AS BIGINT)
         AS n_removed,
       CAST(sum(CASE WHEN b.line IS NULL THEN length(dl.line) ELSE 0 END) AS BIGINT)
         AS clean_chars
FROM doc_lines dl
LEFT JOIN boiler b ON b.host = dl.host AND b.line = dl.line
GROUP BY dl.doc_id"""
)


# ---------------------------------------------------------------------------
# PMI collocations: which adjacent token pairs co-occur far above chance
# ---------------------------------------------------------------------------

PMI_TOPK = 20
PMI_MIN_COUNT = 5  # pairs below this have too little support for a PMI score
PMI_UNIT = 1_000_000_000  # PMI quantized to nano-nats (the zipf convention)

_PMI_SCHEMA = pa.schema([
    ("bigram", pa.string()), ("n_ab", pa.int64()), ("pmi_nano", pa.int64()),
])


def q_corpus_pmi(sf_dir: str) -> pd.DataFrame:
    """Top-K collocations by pointwise mutual information (Church & Hanks
    1990): pmi(a,b) = ln( (n_ab/B) / ((n_a/T)·(n_b/T)) ) with B total
    bigrams, T total tokens — the statistic tokenizer/phrase-mining
    pipelines use to find multi-word units. Pairs with n_ab <
    PMI_MIN_COUNT are dropped (PMI is noise at low support). PMI is
    quantized to integer nano-nats with the float expression evaluated in
    the exact association order the SQL oracle uses, so the driver hash
    matches bit-for-bit.

    Scale topology (vocabulary is FACT-sized on the web, so no driver
    collects): unigram and bigram counts each finish in ONE
    ``hash_exchange`` keyed on the token/pair (partials pre-aggregated per
    block — the shuffle moves (token, count), never text); n_a and n_b
    attach to each pair via TWO co-partitioned ``hash_join``s on the first
    then second token; T and B are driver scalars (two Dataset sums);
    per-block partial top-K then a ≤ blocks×K driver merge."""
    import math

    from collections import Counter

    uni_schema = pa.schema([("token", pa.string()), ("n", pa.int64())])
    big_schema = pa.schema([
        ("t1", pa.string()), ("t2", pa.string()), ("n_ab", pa.int64()),
    ])

    uni_partials, big_partials = _uni_tf_partials, (
        lambda t: _bigram_tf_partials(t, joined=False)
    )

    def sum_by(cols, ncol):
        def f(t: pa.Table) -> pa.Table:
            g = t.group_by(cols).aggregate([(ncol, "sum")])
            return pa.Table.from_arrays(
                [g[c] for c in cols] + [pc.cast(g[f"{ncol}_sum"], pa.int64())],
                names=cols + [ncol],
            )

        return f

    docs = _read(sf_dir, "documents", ["text"])
    uni = hash_exchange(
        docs.map_batches(uni_partials, batch_format="pyarrow"),
        ["token"], sum_by(["token"], "n"), uni_schema,
    ).materialize()
    big = hash_exchange(
        docs.map_batches(big_partials, batch_format="pyarrow"),
        ["t1", "t2"], sum_by(["t1", "t2"], "n_ab"), big_schema,
    )

    T = int(uni.sum("n") or 0)
    if T == 0:
        return _PMI_SCHEMA.empty_table().to_pandas()

    big = big.map_batches(
        lambda t: t.filter(
            pc.greater_equal(t["n_ab"], pa.scalar(PMI_MIN_COUNT, pa.int64()))
        ),
        batch_format="pyarrow",
    ).materialize()
    # B is one global scalar: per-block partials + Dataset.sum — a keyed
    # exchange here was pure overhead (a sort-shuffle to merge one key)
    B = int(
        docs.map_batches(
            lambda t: pa.table({
                "b": pa.array(
                    [sum(max(0, len(_tokens(x)) - 1) for x in _texts(t))],
                    pa.int64(),
                ),
            }),
            batch_format="pyarrow",
        ).sum("b")
        or 0
    )

    # BROADCAST regime (size-gated, as q_doc_bigram_logprob): vocabulary
    # fits memory -> ship the unigram table via ray.put and score the
    # filtered pairs in one pass, skipping both joins. Same float
    # expression in the same association order -> bit-equal to the join
    # regime (pytest crosses them).
    if uni.count() <= LM_BROADCAST_BIGRAMS:
        n_map: dict = {}
        for bt in uni.iter_batches(batch_format="pyarrow"):
            for tk, nn in zip(bt["token"].to_pylist(), bt["n"].to_pylist()):
                n_map[tk] = int(nn)
        uref = ray.put(n_map)

        def score_topk_bcast(t: pa.Table, _T=T, _B=B) -> pa.Table:
            nm = ray.get(uref)
            rows = []
            for t1, t2, n_ab in zip(
                t["t1"].to_pylist(), t["t2"].to_pylist(), t["n_ab"].to_pylist()
            ):
                n1, n2 = nm[t1], nm[t2]
                # association order mirrors the SQL: ((n_ab*T)*T) / ((B*n1)*n2)
                val = math.log(float(n_ab) * _T * _T / (float(_B) * n1 * n2))
                rows.append({
                    "bigram": f"{t1} {t2}", "n_ab": int(n_ab),
                    "pmi_nano": int(round(val * PMI_UNIT)),
                })
            rows.sort(key=lambda r: (-r["pmi_nano"], r["bigram"]))
            rows = rows[:PMI_TOPK]
            if not rows:
                return _PMI_SCHEMA.empty_table()
            return pa.Table.from_pylist(rows, schema=_PMI_SCHEMA)

        parts = big.map_batches(score_topk_bcast, batch_format="pyarrow").to_pandas()
        out = parts.sort_values(
            ["pmi_nano", "bigram"], ascending=[False, True]
        ).head(PMI_TOPK)
        return out.reset_index(drop=True)

    j1 = hash_join(
        big, uni,
        left_on="t1", right_on="token", key_type=pa.string(),
        left_fields=[pa.field("t2", pa.string()), pa.field("n_ab", pa.int64())],
        right_fields=[pa.field("n", pa.int64())],
    ).map_batches(
        lambda t: pa.Table.from_arrays(
            [t["t1"], t["t2"], t["n_ab"], t["n"]], names=["t1", "t2", "n_ab", "n1"]
        ),
        batch_format="pyarrow",
    )
    j2 = hash_join(
        j1, uni,
        left_on="t2", right_on="token", key_type=pa.string(),
        left_fields=[pa.field("t1", pa.string()), pa.field("n_ab", pa.int64()),
                     pa.field("n1", pa.int64())],
        right_fields=[pa.field("n", pa.int64())],
    )

    def score_topk(t: pa.Table, _T=T, _B=B) -> pa.Table:
        rows = []
        for t1, t2, n_ab, n1, n2 in zip(
            t["t1"].to_pylist(), t["t2"].to_pylist(), t["n_ab"].to_pylist(),
            t["n1"].to_pylist(), t["n"].to_pylist(),
        ):
            # association order mirrors the SQL: ((n_ab*T)*T) / ((B*n1)*n2)
            val = math.log(float(n_ab) * _T * _T / (float(_B) * n1 * n2))
            rows.append({
                "bigram": f"{t1} {t2}", "n_ab": int(n_ab),
                "pmi_nano": int(round(val * PMI_UNIT)),
            })
        if not rows:
            return _PMI_SCHEMA.empty_table()
        out = pa.Table.from_pylist(rows, schema=_PMI_SCHEMA)
        order = pc.sort_indices(
            out, sort_keys=[("pmi_nano", "descending"), ("bigram", "ascending")]
        )[:PMI_TOPK]
        return out.take(order)

    merged = j2.map_batches(score_topk, batch_format="pyarrow").to_pandas()
    if merged.empty:
        return _PMI_SCHEMA.empty_table().to_pandas()
    return (
        merged.sort_values(["pmi_nano", "bigram"], ascending=[False, True])
        .head(PMI_TOPK)
        .reset_index(drop=True)
    )


SQL_CORPUS_PMI = f"""
WITH arrs AS (
  SELECT list_filter(regexp_split_to_array(text, '\\s+'), x -> x <> '') AS a
  FROM documents
),
toks AS (SELECT unnest(a) AS t FROM arrs),
uni AS (SELECT t AS token, CAST(count(*) AS BIGINT) AS n FROM toks GROUP BY 1),
tot AS (SELECT CAST(count(*) AS BIGINT) AS T FROM toks),
bg AS (
  SELECT unnest(list_transform(range(1, len(a)), i -> a[i] || ' ' || a[i + 1])) AS bigram
  FROM arrs WHERE len(a) >= 2
),
btot AS (SELECT CAST(count(*) AS BIGINT) AS B FROM bg),
cnt AS (
  SELECT split_part(bigram, ' ', 1) AS t1, split_part(bigram, ' ', 2) AS t2,
         CAST(count(*) AS BIGINT) AS n_ab
  FROM bg GROUP BY 1, 2
  HAVING count(*) >= {PMI_MIN_COUNT}
)
SELECT c.t1 || ' ' || c.t2 AS bigram, c.n_ab,
       CAST(round(ln(CAST(c.n_ab AS DOUBLE) * tot.T * tot.T
                     / (CAST(btot.B AS DOUBLE) * u1.n * u2.n)) * {PMI_UNIT})
            AS BIGINT) AS pmi_nano
FROM cnt c
JOIN uni u1 ON u1.token = c.t1
JOIN uni u2 ON u2.token = c.t2
CROSS JOIN tot CROSS JOIN btot
ORDER BY pmi_nano DESC, bigram ASC
LIMIT {PMI_TOPK}
"""


# ---------------------------------------------------------------------------
# Recrawl snapshot diff: what changed between two crawls of the same page
# ---------------------------------------------------------------------------

JACCARD_UNIT = 1_000_000  # token-set similarity in integer micro-units


def q_recrawl_diff(sf_dir: str) -> rd.Dataset:
    """Change detection between two crawl snapshots of the same logical
    page — the operator an incremental crawler runs to decide refresh
    budgets (unchanged pages crawl less often; heavily-churning pages
    more). Snapshot framing mirrors dedup_incremental: EVEN doc_ids are
    crawl A, ODD are crawl B, logical page_id = doc_id // 2. Per page:
    status (unchanged = byte-equal, changed, orphan = no B version),
    char-length delta, and distinct-token Jaccard similarity in integer
    micro-units (floor division, so the SQL replay is exact).

    Topology: both snapshot streams key themselves by page_id and meet in
    ONE co-partitioned left-outer hash_join — text rides exactly one
    exchange, the minimum for a diff that must co-locate both versions;
    the token-set comparison runs inside the join output's map, never on
    the driver."""
    side_schema = pa.schema([("page_id", pa.int64()), ("text", pa.string())])

    def side(parity: int):
        def f(t: pa.Table) -> pa.Table:
            keep = pc.equal(
                pc.bit_wise_and(t["doc_id"], pa.scalar(1, pa.int64())),
                pa.scalar(parity, pa.int64()),
            )
            s = t.filter(keep)
            return pa.Table.from_arrays(
                [pc.divide(s["doc_id"], pa.scalar(2, pa.int64())),
                 s["text"].combine_chunks() if isinstance(s["text"], pa.ChunkedArray)
                 else s["text"]],
                schema=side_schema,
            )

        return f

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    a = docs.map_batches(side(0), batch_format="pyarrow")
    b = docs.map_batches(side(1), batch_format="pyarrow").map_batches(
        lambda t: pa.Table.from_arrays([t["page_id"], t["text"]],
                                       names=["page_id", "text_b"]),
        batch_format="pyarrow",
    )

    joined = hash_join(
        a, b,
        left_on="page_id", right_on="page_id", key_type=pa.int64(),
        left_fields=[pa.field("text", pa.string())],
        right_fields=[pa.field("text_b", pa.string())],
        how="left",
    )

    out_schema = pa.schema([
        ("page_id", pa.int64()), ("status", pa.string()),
        ("delta_chars", pa.int64()), ("jaccard_micro", pa.int64()),
    ])

    def diff(t: pa.Table) -> pa.Table:
        rows = []
        for pid, ta, tb in zip(
            t["page_id"].to_pylist(), t["text"].to_pylist(), t["text_b"].to_pylist()
        ):
            ta = ta or ""
            if tb is None:
                rows.append({"page_id": int(pid), "status": "orphan",
                             "delta_chars": None, "jaccard_micro": None})
                continue
            sa, sb = set(_tokens(ta)), set(_tokens(tb))
            uni = len(sa | sb)
            jac = JACCARD_UNIT if uni == 0 else (len(sa & sb) * JACCARD_UNIT) // uni
            rows.append({
                "page_id": int(pid),
                "status": "unchanged" if ta == tb else "changed",
                "delta_chars": len(tb) - len(ta),
                "jaccard_micro": jac,
            })
        if not rows:
            return out_schema.empty_table()
        return pa.Table.from_pylist(rows, schema=out_schema)

    return joined.map_batches(diff, batch_format="pyarrow")


SQL_RECRAWL_DIFF = f"""
WITH a AS (
  SELECT doc_id // 2 AS page_id, coalesce(text, '') AS ta
  FROM documents WHERE doc_id % 2 = 0
),
b AS (
  SELECT doc_id // 2 AS page_id, coalesce(text, '') AS tb
  FROM documents WHERE doc_id % 2 = 1
),
j AS (SELECT a.page_id, a.ta, b.tb FROM a LEFT JOIN b USING (page_id)),
tok AS (
  SELECT page_id, ta, tb,
         list_distinct(list_filter(regexp_split_to_array(ta, '\\s+'), x -> x <> '')) AS la,
         CASE WHEN tb IS NULL THEN NULL
              ELSE list_distinct(list_filter(regexp_split_to_array(tb, '\\s+'), x -> x <> ''))
         END AS lb
  FROM j
)
SELECT page_id,
       CASE WHEN tb IS NULL THEN 'orphan'
            WHEN ta = tb THEN 'unchanged' ELSE 'changed' END AS status,
       CASE WHEN tb IS NULL THEN NULL
            ELSE CAST(length(tb) - length(ta) AS BIGINT) END AS delta_chars,
       CASE WHEN tb IS NULL THEN NULL
            WHEN len(list_distinct(la || lb)) = 0 THEN {JACCARD_UNIT}
            ELSE CAST(len(list_intersect(la, lb)) AS BIGINT) * {JACCARD_UNIT}
                 // len(list_distinct(la || lb))
       END AS jaccard_micro
FROM tok
"""


# ---------------------------------------------------------------------------
# Bigram language-model scoring: per-doc conditional log-probability
# ---------------------------------------------------------------------------

LM_UNIT = 1_000_000_000  # per-bigram log-prob quantized to nano-nats


LM_BROADCAST_BIGRAMS = 200_000  # model-size gate for the broadcast regime


def _bigram_logprob_broadcast(docs, uni, big) -> rd.Dataset:
    """Broadcast-regime LM scoring (see q_doc_bigram_logprob): the fitted
    (bigram -> nano-nat weight) table rides ray.put into one scoring pass;
    every doc emits exactly one row, so no re-aggregation or zero-row
    union is needed."""
    import math

    from collections import Counter

    n_a: dict = {}
    for b in uni.iter_batches(batch_format="pyarrow"):
        for t_, n_ in zip(b["token"].to_pylist(), b["n"].to_pylist()):
            n_a[t_] = int(n_)
    model: dict = {}
    for b in big.iter_batches(batch_format="pyarrow"):
        for bg, nab in zip(b["bigram"].to_pylist(), b["n_ab"].to_pylist()):
            a = bg.split(" ", 1)[0]
            # same float expression as the join regime's fold -> bit-equal
            model[bg] = int(round(math.log(int(nab) / n_a[a]) * LM_UNIT))
    ref = ray.put(model)

    part_schema = pa.schema([
        ("doc_id", pa.int64()), ("n_bigrams", pa.int64()),
        ("logprob_nano_sum", pa.int64()),
    ])

    def score(t: pa.Table) -> pa.Table:
        mod = ray.get(ref)
        rows = []
        for doc_id, text in zip(t["doc_id"].to_pylist(), _texts(t)):
            ts = _tokens(text)
            c = Counter(zip(ts, ts[1:]))
            nb = s = 0
            for (a, b2), k in c.items():
                nb += k
                s += mod[f"{a} {b2}"] * k
            rows.append({"doc_id": int(doc_id), "n_bigrams": nb,
                         "logprob_nano_sum": s})
        if not rows:
            return part_schema.empty_table()
        return pa.Table.from_pylist(rows, schema=part_schema)

    return docs.map_batches(score, batch_format="pyarrow")


def q_doc_bigram_logprob(sf_dir: str) -> rd.Dataset:
    """Per-document average bigram log-probability under the corpus's own
    MLE bigram model — the KenLM-style fluency score corpus pipelines use
    to rank documents (CC-Net buckets its corpus by exactly this kind of
    LM score). logp(b|a) = ln(n_ab / n_a); each bigram occurrence
    quantizes to integer nano-nats BEFORE summation, so per-doc totals
    are order-independent and the SQL replay is exact. No smoothing
    needed: the model is fit on the scored corpus itself, so every doc
    bigram has support.

    Scale topology (vocabulary and bigram tables are FACT-sized): corpus
    unigram/bigram counts finish in one keyed exchange each (the PMI
    machinery); each doc's bigram multiset — (doc_id, bigram, k) partials,
    never text — attaches n_ab then n_a via TWO co-partitioned hash_joins,
    and a final groupby-sum per doc_id folds the quantized terms. Output:
    (doc_id, n_bigrams, logprob_nano_sum)."""
    import math

    from collections import Counter

    uni_schema = pa.schema([("token", pa.string()), ("n", pa.int64())])
    big_schema = pa.schema([
        ("bigram", pa.string()), ("n_ab", pa.int64()),
    ])
    docbg_schema = pa.schema([
        ("doc_id", pa.int64()), ("bigram", pa.string()), ("k", pa.int64()),
    ])

    def sum_by(cols, ncol):
        def f(t: pa.Table) -> pa.Table:
            g = t.group_by(cols).aggregate([(ncol, "sum")])
            return pa.Table.from_arrays(
                [g[c] for c in cols] + [pc.cast(g[f"{ncol}_sum"], pa.int64())],
                names=cols + [ncol],
            )

        return f

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    uni = hash_exchange(
        docs.map_batches(_uni_tf_partials, batch_format="pyarrow"),
        ["token"], sum_by(["token"], "n"), uni_schema,
    )
    big = hash_exchange(
        docs.map_batches(_bigram_tf_partials, batch_format="pyarrow"),
        ["bigram"], sum_by(["bigram"], "n_ab"), big_schema,
    )

    # BROADCAST regime (the PageRank size-gated plan choice): when the
    # fitted model fits memory, ship (bigram -> quantized weight) via
    # ray.put and score every doc in ONE map_batches — zero joins. The
    # join topology below is the scale path for web-sized vocabularies.
    # Weights quantize identically in both regimes (same float expression),
    # so they are bit-equal (pytest crosses them). Measured at sf0.1/32cpu:
    # 18.2 s (5 chained exchanges) -> broadcast cuts the three post-count
    # exchanges and both joins.
    if big.count() <= LM_BROADCAST_BIGRAMS:
        return _bigram_logprob_broadcast(docs, uni, big)

    def doc_bigrams(t: pa.Table) -> pa.Table:
        rows = []
        for doc_id, text in zip(t["doc_id"].to_pylist(), _texts(t)):
            ts = _tokens(text)
            c = Counter(zip(ts, ts[1:]))
            for (a, b), k in c.items():
                rows.append((int(doc_id), f"{a} {b}", int(k)))
        return pa.table({
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "bigram": pa.array([r[1] for r in rows], pa.string()),
            "k": pa.array([r[2] for r in rows], pa.int64()),
        })

    with_nab = hash_join(
        docs.map_batches(doc_bigrams, batch_format="pyarrow"),
        big,
        left_on="bigram", right_on="bigram", key_type=pa.string(),
        left_fields=[pa.field("doc_id", pa.int64()), pa.field("k", pa.int64())],
        right_fields=[pa.field("n_ab", pa.int64())],
    ).map_batches(
        lambda t: pa.Table.from_arrays(
            [t["doc_id"], t["k"], t["n_ab"],
             pa.array([bg.split(" ", 1)[0] for bg in t["bigram"].to_pylist()],
                      pa.string())],
            names=["doc_id", "k", "n_ab", "t1"],
        ),
        batch_format="pyarrow",
    )
    scored = hash_join(
        with_nab, uni,
        left_on="t1", right_on="token", key_type=pa.string(),
        left_fields=[pa.field("doc_id", pa.int64()), pa.field("k", pa.int64()),
                     pa.field("n_ab", pa.int64())],
        right_fields=[pa.field("n", pa.int64())],
    )

    part_schema = pa.schema([
        ("doc_id", pa.int64()), ("n_bigrams", pa.int64()),
        ("logprob_nano_sum", pa.int64()),
    ])

    def fold(t: pa.Table) -> pa.Table:
        acc: dict[int, list] = {}
        for d, k, n_ab, n_a in zip(
            t["doc_id"].to_pylist(), t["k"].to_pylist(),
            t["n_ab"].to_pylist(), t["n"].to_pylist(),
        ):
            q = int(round(math.log(n_ab / n_a) * LM_UNIT))
            e = acc.setdefault(int(d), [0, 0])
            e[0] += int(k)
            e[1] += q * int(k)
        if not acc:
            return part_schema.empty_table()
        return pa.Table.from_pylist(
            [{"doc_id": d, "n_bigrams": v[0], "logprob_nano_sum": v[1]}
             for d, v in acc.items()],
            schema=part_schema,
        )

    merged = (
        scored.map_batches(fold, batch_format="pyarrow")
        .groupby("doc_id")
        .aggregate(
            Sum("n_bigrams", alias_name="n_bigrams"),
            Sum("logprob_nano_sum", alias_name="logprob_nano_sum"),
        )
    )

    # docs with < 2 tokens have no bigrams: re-attach as zero rows so the
    # output stays doc-grain (LEFT join shape, oracle mirrors with coalesce)
    zeros = docs.map_batches(
        lambda t: pa.Table.from_arrays(
            [t["doc_id"], pa.nulls(t.num_rows, pa.int64()).fill_null(0),
             pa.nulls(t.num_rows, pa.int64()).fill_null(0)],
            schema=part_schema,
        ),
        batch_format="pyarrow",
    )
    return (
        merged.union(zeros)
        .groupby("doc_id")
        .aggregate(
            Sum("n_bigrams", alias_name="n_bigrams"),
            Sum("logprob_nano_sum", alias_name="logprob_nano_sum"),
        )
    )


SQL_DOC_BIGRAM_LOGPROB = f"""
WITH arrs AS (
  SELECT doc_id, list_filter(regexp_split_to_array(coalesce(text, ''), '\\s+'), x -> x <> '') AS a
  FROM documents
),
toks AS (SELECT unnest(a) AS t FROM arrs),
uni AS (SELECT t AS token, CAST(count(*) AS BIGINT) AS n FROM toks GROUP BY 1),
dbg AS (
  SELECT doc_id,
         unnest(list_transform(range(1, len(a)), i -> a[i] || ' ' || a[i + 1])) AS bigram
  FROM arrs WHERE len(a) >= 2
),
cnt AS (SELECT bigram, CAST(count(*) AS BIGINT) AS n_ab FROM dbg GROUP BY 1),
terms AS (
  SELECT d.doc_id,
         CAST(round(ln(CAST(c.n_ab AS DOUBLE) / u.n) * {LM_UNIT}) AS BIGINT) AS q
  FROM dbg d
  JOIN cnt c ON c.bigram = d.bigram
  JOIN uni u ON u.token = split_part(d.bigram, ' ', 1)
),
agg AS (
  SELECT doc_id, CAST(count(*) AS BIGINT) AS n_bigrams,
         CAST(sum(q) AS BIGINT) AS logprob_nano_sum
  FROM terms GROUP BY doc_id
)
SELECT d.doc_id, coalesce(a.n_bigrams, 0) AS n_bigrams,
       coalesce(a.logprob_nano_sum, 0) AS logprob_nano_sum
FROM documents d LEFT JOIN agg a USING (doc_id)
"""


# ---------------------------------------------------------------------------
# Host-level quality rollup: the domain keep/drop decision
# ---------------------------------------------------------------------------


def q_host_quality(sf_dir: str) -> rd.Dataset:
    """Host-level curation verdict (FineWeb/C4-style domain filtering):
    aggregate each host's per-document Gopher quality outcomes into one
    keep/drop decision — corpora drop whole LOW-QUALITY DOMAINS, not just
    documents, because chrome-heavy or spammy hosts poison even their
    'passing' pages. Per host: doc count, Gopher-pass count, total chars,
    total words, floor-divided mean chars, and verdict keep iff at least
    half the docs pass. Per-block partials reuse the exact gopher_row
    counts; one host-grain groupby finishes."""
    from .queries import gopher_row

    part_schema = pa.schema([
        ("host", pa.string()), ("n_docs", pa.int64()), ("n_keep", pa.int64()),
        ("total_chars", pa.int64()), ("total_words", pa.int64()),
    ])

    def partials(t: pa.Table) -> pa.Table:
        acc: dict[str, list] = {}
        for src, text in zip(t["source"].to_pylist(), t["text"].to_pylist()):
            text = text or ""
            row = gopher_row(text)
            keep = bool(row[-1])
            e = acc.setdefault(src, [0, 0, 0, 0])
            e[0] += 1
            e[1] += 1 if keep else 0
            e[2] += len(text)
            e[3] += int(row[0])
        if not acc:
            return part_schema.empty_table()
        return pa.Table.from_pylist(
            [{"host": h, "n_docs": v[0], "n_keep": v[1],
              "total_chars": v[2], "total_words": v[3]} for h, v in acc.items()],
            schema=part_schema,
        )

    merged = (
        _read(sf_dir, "documents", ["source", "text"])
        .map_batches(partials, batch_format="pyarrow")
        .groupby("host")
        .aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Sum("n_keep", alias_name="n_keep"),
            Sum("total_chars", alias_name="total_chars"),
            Sum("total_words", alias_name="total_words"),
        )
    )

    def finish(t: pa.Table) -> pa.Table:
        nd = t["n_docs"].to_numpy(zero_copy_only=False)
        nk = t["n_keep"].to_numpy(zero_copy_only=False)
        tc = t["total_chars"].to_numpy(zero_copy_only=False)
        return pa.Table.from_arrays(
            [t["host"], t["n_docs"], t["n_keep"], t["total_chars"],
             t["total_words"],
             pa.array(tc // np.maximum(nd, 1), pa.int64()),
             pa.array(2 * nk >= nd)],
            names=["host", "n_docs", "n_keep", "total_chars", "total_words",
                   "mean_chars", "keep_host"],
        )

    return merged.map_batches(finish, batch_format="pyarrow")


def _sql_host_quality() -> str:
    from .queries import GOPHER_STOPWORDS

    stops = ", ".join(f"'{w}'" for w in GOPHER_STOPWORDS)
    return f"""
WITH base AS (
  SELECT source, coalesce(text, '') AS t,
         list_filter(regexp_split_to_array(coalesce(text, ''), '\\s+'), x -> x <> '') AS w,
         str_split(coalesce(text, ''), chr(10)) AS lines
  FROM documents
),
counts AS (
  SELECT source, length(t) AS n_chars,
         CAST(len(w) AS BIGINT) AS n_words,
         CAST(coalesce(list_aggregate(list_transform(w, x -> length(x)), 'sum'), 0) AS BIGINT) AS sum_word_chars,
         CAST((length(t) - length(replace(t, '#', '')))
              + (length(t) - length(replace(t, '...', ''))) // 3 AS BIGINT) AS n_symbols,
         CAST(len(lines) AS BIGINT) AS n_lines,
         CAST(len(list_filter(lines, l -> regexp_matches(l, '^[ \t]*[-*] '))) AS BIGINT) AS n_bullet_lines,
         CAST(len(list_filter(lines, l -> regexp_matches(l, '\\.\\.\\.[ \t]*$'))) AS BIGINT) AS n_ellipsis_lines,
         CAST(len(list_filter(w, x -> regexp_matches(x, '[A-Za-z]'))) AS BIGINT) AS n_alpha_words,
         CAST(len(list_distinct(list_filter(
             list_filter(regexp_split_to_array(lower(t), '\\s+'), x -> x <> ''),
             x -> x IN ({stops})))) AS BIGINT) AS n_stopwords_present
  FROM base
),
verdicts AS (
  SELECT source, n_chars, n_words,
         CASE WHEN n_words BETWEEN 50 AND 100000
               AND 3 * n_words <= sum_word_chars AND sum_word_chars <= 10 * n_words
               AND 10 * n_symbols < n_words
               AND 10 * n_bullet_lines < 9 * n_lines
               AND 10 * n_ellipsis_lines < 3 * n_lines
               AND 5 * n_alpha_words > 4 * n_words
               AND n_stopwords_present >= 2
              THEN 1 ELSE 0 END AS keep
  FROM counts
),
hosts AS (
  SELECT source AS host,
         CAST(count(*) AS BIGINT) AS n_docs,
         CAST(sum(keep) AS BIGINT) AS n_keep,
         CAST(sum(n_chars) AS BIGINT) AS total_chars,
         CAST(sum(n_words) AS BIGINT) AS total_words
  FROM verdicts GROUP BY 1
)
SELECT host, n_docs, n_keep, total_chars, total_words,
       total_chars // greatest(n_docs, 1) AS mean_chars,
       2 * n_keep >= n_docs AS keep_host
FROM hosts
"""


SQL_HOST_QUALITY = _sql_host_quality()


# ---------------------------------------------------------------------------
# Exact phrase search: adjacent-token runs, the positional-index query
# ---------------------------------------------------------------------------

SEARCH_PHRASES = ("batch table", "window merge", "spark data vector")


def q_search_phrase(sf_dir: str) -> rd.Dataset:
    """Exact multi-token phrase search (the positional-index query shape,
    complementing search_bm25's bag-of-words ranking): for each query
    phrase, every document containing the tokens ADJACENT and in order,
    with the match count and the first match's token offset. The scan is
    a pure per-batch map over token arrays — at index-serving scale the
    same intersection runs over positional postings, but over a corpus
    the one-pass scan IS the distributed shape (no shuffle at all;
    output is match-grain tiny)."""
    phrases = [p.split() for p in SEARCH_PHRASES]
    out_schema = pa.schema([
        ("phrase", pa.string()), ("doc_id", pa.int64()),
        ("n_matches", pa.int64()), ("first_pos", pa.int64()),
    ])

    def scan(t: pa.Table) -> pa.Table:
        rows = []
        for doc_id, text in zip(t["doc_id"].to_pylist(), _texts(t)):
            ts = _tokens(text)
            for ptoks, pstr in zip(phrases, SEARCH_PHRASES):
                n, first = 0, -1
                for i in range(len(ts) - len(ptoks) + 1):
                    if ts[i : i + len(ptoks)] == ptoks:
                        n += 1
                        if first < 0:
                            first = i
                if n:
                    rows.append((pstr, int(doc_id), n, first))
        return pa.Table.from_pylist(
            [dict(zip(("phrase", "doc_id", "n_matches", "first_pos"), r))
             for r in rows],
            schema=out_schema,
        )

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        scan, batch_format="pyarrow"
    )


def _sql_search_phrase() -> str:
    parts = []
    for pstr in SEARCH_PHRASES:
        toks = pstr.split()
        cond = " AND ".join(
            f"a[i + {j}] = '{t}'" for j, t in enumerate(toks)
        )
        parts.append(f"""
SELECT '{pstr}' AS phrase, doc_id,
       CAST(len(hits) AS BIGINT) AS n_matches,
       CAST(hits[1] - 1 AS BIGINT) AS first_pos
FROM (
  SELECT doc_id,
         list_filter(range(1, len(a) - {len(toks)} + 2), i -> {cond}) AS hits
  FROM arrs WHERE len(a) >= {len(toks)}
) WHERE len(hits) > 0""")
    return (
        """
WITH arrs AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(coalesce(text, ''), '\\s+'), x -> x <> '') AS a
  FROM documents
)"""
        + "\nUNION ALL".join(parts)
    )


SQL_SEARCH_PHRASE = _sql_search_phrase()


# ---------------------------------------------------------------------------
# CC-Net perplexity bucketing: head / middle / tail thirds by LM score
# ---------------------------------------------------------------------------


def _trunc_div(a: int, b: int) -> int:
    """Truncating integer division (DuckDB's // truncates toward zero on
    negatives; Python's floors — logprob sums are negative, so the
    convention must be pinned)."""
    if b == 0:
        return 0
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def q_doc_ppl_buckets(sf_dir: str) -> rd.Dataset:
    """CC-Net's corpus partitioning (Wenzek 2020 §4.3): score every
    document with the LM, split the corpus into head / middle / tail
    THIRDS by score — training pipelines then sample head-heavy. Score =
    per-doc average bigram log-prob in nano-nats (truncating integer
    division, the DuckDB convention); tercile boundaries use the
    quantile_disc convention via one single-group sort (exact while the
    score column fits a task — the documented scale path is the t-digest
    partial sketch, order_price_tdigest). Docs without bigrams carry no
    score and are excluded, as in the oracle's WHERE.

    Topology: the bigram-LM pipeline (two hash_joins + groupby) produces
    doc-grain scores; the EXACT boundaries need the full score multiset,
    so the int64 score column streams to the driver for one sort (8 bytes
    x n_docs — the same exact-path bound as order_price_quantiles'
    per-group sort; past driver memory the documented swap is mergeable
    t-digest partials, order_price_tdigest's topology, trading exactness
    for O(1) driver state); the 2-int boundary pair then broadcasts into
    the final assign map."""
    import math

    scores = q_doc_bigram_logprob(sf_dir).map_batches(
        lambda t: pa.Table.from_arrays(
            [t["doc_id"],
             pa.array([_trunc_div(int(s), int(n)) for s, n in
                       zip(t["logprob_nano_sum"].to_pylist(),
                           t["n_bigrams"].to_pylist())], pa.int64())],
            names=["doc_id", "avg_nano"],
        ).filter(pc.not_equal(
            pa.chunked_array([pa.array(
                [int(n) for n in t["n_bigrams"].to_pylist()], pa.int64())]),
            pa.scalar(0, pa.int64()),
        )),
        batch_format="pyarrow",
    ).materialize()

    vals = []
    for b in scores.iter_batches(batch_size=65536, batch_format="pyarrow"):
        vals.extend(b["avg_nano"].to_pylist())
    vals.sort()
    n = len(vals)
    if n == 0:
        return rd.from_arrow(pa.schema([
            ("doc_id", pa.int64()), ("avg_nano", pa.int64()),
            ("bucket", pa.string()),
        ]).empty_table())
    b1 = vals[max(0, math.ceil(n / 3) - 1)]
    b2 = vals[max(0, math.ceil(2 * n / 3) - 1)]

    def assign(t: pa.Table, _b1=b1, _b2=b2) -> pa.Table:
        a = t["avg_nano"].to_numpy(zero_copy_only=False)
        bucket = np.where(a <= _b1, "tail", np.where(a <= _b2, "middle", "head"))
        return pa.Table.from_arrays(
            [t["doc_id"], t["avg_nano"], pa.array(bucket, pa.string())],
            names=["doc_id", "avg_nano", "bucket"],
        )

    return scores.map_batches(assign, batch_format="pyarrow")


SQL_DOC_PPL_BUCKETS = f"""
WITH lp AS ({SQL_DOC_BIGRAM_LOGPROB}),
nb AS (
  SELECT doc_id, logprob_nano_sum // n_bigrams AS avg_nano
  FROM lp WHERE n_bigrams > 0
),
b AS (
  SELECT quantile_disc(avg_nano, 1.0 / 3) AS b1,
         quantile_disc(avg_nano, 2.0 / 3) AS b2
  FROM nb
)
SELECT doc_id, avg_nano,
       CASE WHEN avg_nano <= b.b1 THEN 'tail'
            WHEN avg_nano <= b.b2 THEN 'middle'
            ELSE 'head' END AS bucket
FROM nb CROSS JOIN b
"""


# ---------------------------------------------------------------------------
# RAKE keyword extraction: per-doc phrase scores from degree/frequency
# ---------------------------------------------------------------------------

RAKE_TOPK = 3
RAKE_UNIT = 1_000_000  # word score = degree * UNIT // freq, integer


def q_doc_keywords_rake(sf_dir: str) -> rd.Dataset:
    """RAKE keyword extraction (Rose et al. 2010): candidate phrases are
    maximal stopword-free token runs (the Gopher stopword list); per doc,
    word frequency and word degree (sum of containing-phrase lengths over
    occurrences) give score(w) = degree*UNIT // freq; a phrase scores the
    sum of its tokens' scores; top-RAKE_TOPK distinct phrases per doc,
    ties broken phrase-ascending. All integer, per-document state only —
    an embarrassingly parallel map (keyword extraction is the metadata
    enrichment step corpus pipelines run after quality filtering)."""
    from .queries import GOPHER_STOPWORDS

    stops = set(GOPHER_STOPWORDS)
    out_schema = pa.schema([
        ("doc_id", pa.int64()), ("phrase", pa.string()), ("score", pa.int64()),
    ])

    def rake(t: pa.Table) -> pa.Table:
        rows = []
        for doc_id, text in zip(t["doc_id"].to_pylist(), _texts(t)):
            toks = _tokens(text)
            phrases: list[list[str]] = []
            cur: list[str] = []
            for t in toks:
                if t in stops:
                    if cur:
                        phrases.append(cur)
                    cur = []
                else:
                    cur.append(t)
            if cur:
                phrases.append(cur)
            if not phrases:
                continue
            freq: dict[str, int] = {}
            degree: dict[str, int] = {}
            for ph in phrases:
                for w in ph:
                    freq[w] = freq.get(w, 0) + 1
                    degree[w] = degree.get(w, 0) + len(ph)
            scored: dict[str, int] = {}
            for ph in phrases:
                pstr = " ".join(ph)
                if pstr not in scored:
                    scored[pstr] = sum(
                        degree[w] * RAKE_UNIT // freq[w] for w in ph
                    )
            top = sorted(scored.items(), key=lambda kv: (-kv[1], kv[0]))[:RAKE_TOPK]
            for pstr, sc in top:
                rows.append((int(doc_id), pstr, sc))
        return pa.table({
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "phrase": pa.array([r[1] for r in rows], pa.string()),
            "score": pa.array([r[2] for r in rows], pa.int64()),
        })

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        rake, batch_format="pyarrow"
    )


def _sql_doc_keywords_rake() -> str:
    from .queries import GOPHER_STOPWORDS

    stops = ", ".join(f"'{w}'" for w in GOPHER_STOPWORDS)
    return f"""
WITH toks AS (
  SELECT doc_id, u.tok, u.i
  FROM (
    SELECT doc_id,
           unnest(list_filter(regexp_split_to_array(coalesce(text, ''), '\\s+'),
                              x -> x <> '')) AS tok,
           unnest(range(1, len(list_filter(regexp_split_to_array(coalesce(text, ''), '\\s+'),
                                           x -> x <> '')) + 1)) AS i
    FROM documents
  ) u
),
marked AS (
  SELECT doc_id, tok, i,
         CASE WHEN tok IN ({stops}) THEN 1 ELSE 0 END AS is_stop,
         sum(CASE WHEN tok IN ({stops}) THEN 1 ELSE 0 END)
           OVER (PARTITION BY doc_id ORDER BY i) AS pid
  FROM toks
),
words AS (SELECT doc_id, tok, i, pid FROM marked WHERE is_stop = 0),
plens AS (
  SELECT doc_id, pid, CAST(count(*) AS BIGINT) AS plen
  FROM words GROUP BY 1, 2
),
wstats AS (
  SELECT w.doc_id, w.tok,
         CAST(count(*) AS BIGINT) AS freq,
         CAST(sum(p.plen) AS BIGINT) AS degree
  FROM words w JOIN plens p ON p.doc_id = w.doc_id AND p.pid = w.pid
  GROUP BY 1, 2
),
phrases AS (
  SELECT doc_id, pid, string_agg(tok, ' ' ORDER BY i) AS phrase
  FROM words GROUP BY 1, 2
),
pscores AS (
  SELECT DISTINCT ph.doc_id, ph.phrase, sc.score
  FROM phrases ph
  JOIN (
    SELECT w.doc_id, w.pid,
           CAST(sum(s.degree * {RAKE_UNIT} // s.freq) AS BIGINT) AS score
    FROM words w JOIN wstats s ON s.doc_id = w.doc_id AND s.tok = w.tok
    GROUP BY 1, 2
  ) sc ON sc.doc_id = ph.doc_id AND sc.pid = ph.pid
),
ranked AS (
  SELECT doc_id, phrase, score,
         row_number() OVER (PARTITION BY doc_id
                            ORDER BY score DESC, phrase ASC) AS rn
  FROM (SELECT DISTINCT doc_id, phrase, score FROM pscores)
)
SELECT doc_id, phrase, score FROM ranked WHERE rn <= {RAKE_TOPK}
"""


SQL_DOC_KEYWORDS_RAKE = _sql_doc_keywords_rake()


# ---------------------------------------------------------------------------
# Character-entropy profile: the information-density curation signal
# ---------------------------------------------------------------------------

ENTROPY_UNIT = 1_000_000  # per-term quantization: micro-nats


def q_doc_char_entropy(sf_dir: str) -> rd.Dataset:
    """Per-document character-distribution profile — the information-
    density signal next to doc_compression_ratio (low-entropy docs are
    repetitive chrome/filler; abnormally high-entropy docs are binary
    mojibake): n_chars, distinct chars, and the entropy numerator
    sum(c_i * ln(c_i)) with EACH TERM quantized to integer micro-nats
    before summation — quantize-then-sum keeps the total independent of
    summation order, so the SQL replay is exact (H = ln n - S/(n*U)
    derives downstream in float, outside the hash). Pure per-batch map."""
    import math

    from collections import Counter

    out_schema = pa.schema([
        ("doc_id", pa.int64()), ("n_chars", pa.int64()),
        ("n_distinct", pa.int64()), ("entropy_terms_micro", pa.int64()),
    ])

    def f(t: pa.Table) -> pa.Table:
        rows = []
        for doc_id, text in zip(t["doc_id"].to_pylist(), _texts(t)):
            c = Counter(text)
            s = sum(
                int(round(k * math.log(k) * ENTROPY_UNIT)) for k in c.values()
            )
            rows.append((int(doc_id), len(text), len(c), s))
        return pa.table({
            name: pa.array([r[i] for r in rows], pa.int64())
            for i, name in enumerate(
                ["doc_id", "n_chars", "n_distinct", "entropy_terms_micro"]
            )
        })

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        f, batch_format="pyarrow"
    )


SQL_DOC_CHAR_ENTROPY = f"""
WITH chars AS (
  SELECT doc_id, unnest(string_split(coalesce(text, ''), '')) AS ch
  FROM documents
),
cnt AS (SELECT doc_id, ch, CAST(count(*) AS BIGINT) AS c FROM chars GROUP BY 1, 2),
agg AS (
  SELECT doc_id,
         CAST(sum(c) AS BIGINT) AS n_chars,
         CAST(count(*) AS BIGINT) AS n_distinct,
         CAST(sum(CAST(round(c * ln(c) * {ENTROPY_UNIT}) AS BIGINT)) AS BIGINT)
           AS entropy_terms_micro
  FROM cnt GROUP BY doc_id
)
SELECT d.doc_id,
       coalesce(a.n_chars, 0) AS n_chars,
       coalesce(a.n_distinct, 0) AS n_distinct,
       coalesce(a.entropy_terms_micro, 0) AS entropy_terms_micro
FROM documents d LEFT JOIN agg a USING (doc_id)
"""


# ---------------------------------------------------------------------------
# License detection: the usage-rights curation gate
# ---------------------------------------------------------------------------


def q_doc_license(sf_dir: str) -> rd.Dataset:
    """License detection over page footers (synth.make_license_page) — the
    usage-rights gate responsible corpora run before training (keep
    permissive, drop NC/ND, flag unknown): the REAL phrase classifier
    (functions/quality.py detect_license) runs inside the value-hash-
    checked loop; the oracle rebuilds the expected class from doc_id
    arithmetic. Output: (doc_id, license, allows_commercial,
    allows_derivatives)."""
    from ..functions.text_utils import detect_license
    from ..functions.fixtures import make_license_page

    out_schema = pa.schema([
        ("doc_id", pa.int64()), ("license", pa.string()),
        ("allows_commercial", pa.bool_()), ("allows_derivatives", pa.bool_()),
    ])

    def f(t: pa.Table) -> pa.Table:
        rows = []
        for d, src in zip(t["doc_id"].to_pylist(), t["source"].to_pylist()):
            page = make_license_page(int(d), src)
            rows.append({"doc_id": int(d), **detect_license(page)})
        return pa.Table.from_pylist(rows, schema=out_schema)

    return _read(sf_dir, "documents", ["doc_id", "source"]).map_batches(
        f, batch_format="pyarrow"
    )


SQL_DOC_LICENSE = """
SELECT doc_id,
       CASE doc_id % 5 WHEN 0 THEN 'cc-by' WHEN 1 THEN 'cc-by-nc'
            WHEN 2 THEN 'cc-by-nd' WHEN 3 THEN 'mit' ELSE 'unknown' END
         AS license,
       doc_id % 5 IN (0, 2, 3) AS allows_commercial,
       doc_id % 5 IN (0, 1, 3) AS allows_derivatives
FROM documents
"""


# ---------------------------------------------------------------------------
# De-hyphenation repair: self-verifying round-trip over planted breaks
# ---------------------------------------------------------------------------


def q_doc_dehyphenate(sf_dir: str) -> rd.Dataset:
    """Hyphenation repair (functions/quality.py dehyphenate) proved by
    round-trip: every 5th word of length >= 4 gets a mid-word "-\\n" break
    planted (the justified-margin artifact), the repair runs, and
    ``restored`` asserts byte equality with the original — per doc:
    (doc_id, n_breaks, restored). A compound hyphen planted WITHOUT a
    newline must survive (pytest). Pure per-batch map; the oracle counts
    the plant sites arithmetically and pins restored TRUE."""
    from ..functions.text_utils import dehyphenate

    out_schema = pa.schema([
        ("doc_id", pa.int64()), ("n_breaks", pa.int64()),
        ("restored", pa.bool_()),
    ])

    def f(t: pa.Table) -> pa.Table:
        rows = []
        for doc_id, text in zip(t["doc_id"].to_pylist(), _texts(t)):
            toks = text.split(" ") if text else []
            broken = []
            n_breaks = 0
            for i, w in enumerate(toks):
                if i % 5 == 4 and len(w) >= 4:
                    mid = len(w) // 2
                    broken.append(w[:mid] + "-\n" + w[mid:])
                    n_breaks += 1
                else:
                    broken.append(w)
            repaired = dehyphenate(" ".join(broken))
            rows.append((int(doc_id), n_breaks, repaired == text))
        return pa.table({
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "n_breaks": pa.array([r[1] for r in rows], pa.int64()),
            "restored": pa.array([r[2] for r in rows], pa.bool_()),
        })

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        f, batch_format="pyarrow"
    )


SQL_DOC_DEHYPHENATE = """
WITH arrs AS (
  SELECT doc_id,
         CASE WHEN coalesce(text, '') = '' THEN []
              ELSE string_split(text, ' ') END AS a
  FROM documents
)
SELECT doc_id,
       CAST(len(list_filter(range(1, len(a) + 1),
                            i -> i % 5 = 0 AND length(a[i]) >= 4))
            AS BIGINT) AS n_breaks,
       true AS restored
FROM arrs
"""


# ---------------------------------------------------------------------------
# Host language divergence: JS components vs the corpus unigram model
# ---------------------------------------------------------------------------

JSD_UNIT = 1_000_000_000  # per-token terms in nano-nats


def q_host_lang_divergence(sf_dir: str) -> rd.Dataset:
    """Domain-anomaly scoring: how far each host's unigram distribution
    sits from the corpus's (Jensen-Shannon framing) — hosts whose
    language diverges hard are boilerplate farms, spam, or other-language
    pockets. Emitted per host are the EXACT integer JS components:
    A (host tokens), b_cov (corpus count mass of the host's tokens), and
    the two KL numerators with every per-token term quantized to
    nano-nats before summation — KL(P||M) = kl_p_num/(A*U);
    KL(Q||M) = (kl_q_cov_num + (B - b_cov)*round(ln 2 * U))/(B*U), B from
    corpus totals (absent-token terms fold to ln 2 exactly, so the
    host x vocab matrix is never materialized). ln arguments are integer
    ratios (2aB/(aB+bA)) evaluated in the oracle's association order.

    Topology: host-token and corpus-token counts each finish in one keyed
    exchange; b attaches to (host, token) rows via ONE co-partitioned
    hash_join on the token (vocabulary is fact-sized — no driver
    collect); per-host numerators fold in a host-grain groupby."""
    import math

    ht_schema = pa.schema([
        ("host", pa.string()), ("token", pa.string()), ("a", pa.int64()),
    ])
    tok_schema = pa.schema([("token", pa.string()), ("b", pa.int64())])

    from collections import Counter

    def ht_partials(t: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for src, text in zip(t["source"].to_pylist(), _texts(t)):
            for tok in _tokens(text):
                c[(src, tok)] += 1
        return pa.table({
            "host": pa.array([h for h, _ in c.keys()], pa.string()),
            "token": pa.array([tok for _, tok in c.keys()], pa.string()),
            "a": pa.array(list(c.values()), pa.int64()),
        })

    def tok_partials(t: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for text in _texts(t):
            c.update(_tokens(text))
        return pa.table({
            "token": pa.array(list(c.keys()), pa.string()),
            "b": pa.array(list(c.values()), pa.int64()),
        })

    def sum_by(cols, ncol):
        def f(t: pa.Table) -> pa.Table:
            g = t.group_by(cols).aggregate([(ncol, "sum")])
            return pa.Table.from_arrays(
                [g[c] for c in cols] + [pc.cast(g[f"{ncol}_sum"], pa.int64())],
                names=cols + [ncol],
            )

        return f

    docs = _read(sf_dir, "documents", ["source", "text"])
    ht = hash_exchange(
        docs.map_batches(ht_partials, batch_format="pyarrow"),
        ["host", "token"], sum_by(["host", "token"], "a"), ht_schema,
    )
    tok = hash_exchange(
        docs.map_batches(tok_partials, batch_format="pyarrow"),
        ["token"], sum_by(["token"], "b"), tok_schema,
    ).materialize()

    B = int(tok.sum("b") or 0)

    joined = hash_join(
        ht, tok,
        left_on="token", right_on="token", key_type=pa.string(),
        left_fields=[pa.field("host", pa.string()), pa.field("a", pa.int64())],
        right_fields=[pa.field("b", pa.int64())],
    )

    part_schema = pa.schema([
        ("host", pa.string()), ("A", pa.int64()), ("b_cov", pa.int64()),
        ("kl_p_num_nano", pa.int64()), ("kl_q_cov_num_nano", pa.int64()),
    ])

    def fold(t: pa.Table, _B=B) -> pa.Table:
        # two passes per host inside the shard: A (the host's token total)
        # enters every ln argument, so terms can only be computed once the
        # host's rows are complete — which the host-keyed exchange
        # guarantees. Ratio association order mirrors the SQL exactly.
        rows = []
        by_host: dict[str, list] = {}
        for h, a, b in zip(t["host"].to_pylist(), t["a"].to_pylist(),
                           t["b"].to_pylist()):
            by_host.setdefault(h, []).append((int(a), int(b)))
        for h, pairs in by_host.items():
            A = sum(a for a, _ in pairs)
            b_cov = sum(b for _, b in pairs)
            klp = klq = 0
            for a, b in pairs:
                num = 2 * a * _B
                den = a * _B + b * A
                klp += int(round(a * math.log(num / den) * JSD_UNIT))
                numq = 2 * b * A
                klq += int(round(b * math.log(numq / den) * JSD_UNIT))
            rows.append({"host": h, "A": A, "b_cov": b_cov,
                         "kl_p_num_nano": klp, "kl_q_cov_num_nano": klq})
        if not rows:
            return part_schema.empty_table()
        return pa.Table.from_pylist(rows, schema=part_schema)

    # the fold needs ALL of a host's tokens in one task: re-key by host
    return hash_exchange(
        joined.map_batches(
            lambda t: t.select(["host", "a", "b"]), batch_format="pyarrow"
        ),
        ["host"],
        fold,
        part_schema,
    )


SQL_HOST_LANG_DIVERGENCE = f"""
WITH toks AS (
  SELECT source AS host,
         unnest(list_filter(regexp_split_to_array(coalesce(text, ''), '\\s+'),
                            x -> x <> '')) AS token
  FROM documents
),
ht AS (SELECT host, token, CAST(count(*) AS BIGINT) AS a FROM toks GROUP BY 1, 2),
tok AS (SELECT token, CAST(count(*) AS BIGINT) AS b FROM toks GROUP BY 1),
tot AS (SELECT CAST(sum(b) AS BIGINT) AS B FROM tok),
hosts AS (SELECT host, CAST(sum(a) AS BIGINT) AS A FROM ht GROUP BY 1)
SELECT h.host, hs.A,
       CAST(sum(k.b) AS BIGINT) AS b_cov,
       CAST(sum(CAST(round(h.a * ln(CAST(2 * h.a * tot.B AS DOUBLE)
                                    / CAST(h.a * tot.B + k.b * hs.A AS DOUBLE))
                           * {JSD_UNIT}) AS BIGINT)) AS BIGINT) AS kl_p_num_nano,
       CAST(sum(CAST(round(k.b * ln(CAST(2 * k.b * hs.A AS DOUBLE)
                                    / CAST(h.a * tot.B + k.b * hs.A AS DOUBLE))
                           * {JSD_UNIT}) AS BIGINT)) AS BIGINT) AS kl_q_cov_num_nano
FROM ht h
JOIN tok k USING (token)
JOIN hosts hs ON hs.host = h.host
CROSS JOIN tot
GROUP BY h.host, hs.A
"""


# ---------------------------------------------------------------------------
# Citation extraction: DOI / arXiv identifiers
# ---------------------------------------------------------------------------


def q_doc_citations(sf_dir: str) -> rd.Dataset:
    """Scholarly-identifier extraction — the ingest step that turns a text
    corpus into a citation graph: deterministic reference sentences are
    appended to each doc (a DOI for doc_id%2==0 with trailing-punctuation
    noise, an arXiv id with a version suffix for doc_id%3==0), the REAL
    regex extractors run, and one row per identifier comes back. The
    oracle rebuilds identifiers from doc_id arithmetic (punctuation
    trimmed, version dropped, DOI lowercased)."""
    from ..functions.text_utils import extract_identifiers

    out_schema = pa.schema([
        ("doc_id", pa.int64()), ("kind", pa.string()), ("ident", pa.string()),
    ])

    def f(t: pa.Table) -> pa.Table:
        rows = []
        for doc_id, text in zip(t["doc_id"].to_pylist(), _texts(t)):
            d = int(doc_id)
            refs = []
            if d % 2 == 0:
                refs.append(f"See DOI:10.{1000 + d % 9000}/Jx.{d}.report.")
            if d % 3 == 0:
                refs.append(f"(arXiv:2{d % 4:02d}1.{d % 10000:05d}v{1 + d % 3})")
            full = text + " " + " ".join(refs)
            for kind, ident in extract_identifiers(full):
                rows.append((d, kind, ident))
        return pa.Table.from_pylist(
            [dict(zip(("doc_id", "kind", "ident"), r)) for r in rows],
            schema=out_schema,
        )

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        f, batch_format="pyarrow"
    )


SQL_DOC_CITATIONS = """
SELECT doc_id, 'doi' AS kind,
       '10.' || (1000 + doc_id % 9000) || '/jx.' || doc_id || '.report' AS ident
FROM documents WHERE doc_id % 2 = 0
UNION ALL
SELECT doc_id, 'arxiv' AS kind,
       '2' || lpad(CAST(doc_id % 4 AS VARCHAR), 2, '0') || '1.'
           || lpad(CAST(doc_id % 10000 AS VARCHAR), 5, '0') AS ident
FROM documents WHERE doc_id % 3 = 0
"""


# ---------------------------------------------------------------------------
# Trending terms between crawl snapshots
# ---------------------------------------------------------------------------

TREND_TOPK = 20
TREND_MIN_COUNT = 5
TREND_UNIT = 1_000_000_000

_TREND_SCHEMA = pa.schema([
    ("token", pa.string()), ("n_a", pa.int64()), ("n_b", pa.int64()),
    ("trend_nano", pa.int64()),
])


def q_trending_terms(sf_dir: str) -> pd.DataFrame:
    """Rising vocabulary between two crawl snapshots (the recrawl_diff
    framing: even doc_ids = crawl A, odd = crawl B): per token the
    add-one-smoothed log-ratio of normalized frequencies,
    ln( ((nB+1)(NA+1)) / ((nA+1)(NB+1)) ) in integer nano-nats (integer
    ratio, pinned association order), support floor nB >= TREND_MIN_COUNT,
    top-K by trend then token. The monitoring query a crawl operator runs
    per wave to catch emerging topics/spam campaigns. One keyed exchange
    of (token, nA, nB) partials; totals are two Dataset sums; per-block
    partial top-K then a tiny driver merge."""
    import math

    from collections import Counter

    pair_schema = pa.schema([
        ("token", pa.string()), ("n_a", pa.int64()), ("n_b", pa.int64()),
    ])

    def partials(t: pa.Table) -> pa.Table:
        ca: Counter = Counter()
        cb: Counter = Counter()
        for doc_id, text in zip(t["doc_id"].to_pylist(), _texts(t)):
            c = cb if int(doc_id) % 2 else ca
            c.update(_tokens(text))
        toks = sorted(set(ca) | set(cb))
        return pa.table({
            "token": pa.array(toks, pa.string()),
            "n_a": pa.array([ca.get(k, 0) for k in toks], pa.int64()),
            "n_b": pa.array([cb.get(k, 0) for k in toks], pa.int64()),
        })

    def shard_sum(t: pa.Table) -> pa.Table:
        g = t.group_by("token").aggregate([("n_a", "sum"), ("n_b", "sum")])
        return pa.Table.from_arrays(
            [g["token"], pc.cast(g["n_a_sum"], pa.int64()),
             pc.cast(g["n_b_sum"], pa.int64())],
            schema=pair_schema,
        )

    counts = hash_exchange(
        _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
            partials, batch_format="pyarrow"
        ),
        ["token"], shard_sum, pair_schema,
    ).materialize()

    NA = int(counts.sum("n_a") or 0)
    NB = int(counts.sum("n_b") or 0)

    def score_topk(t: pa.Table, _NA=NA, _NB=NB) -> pa.Table:
        rows = []
        for tok, na, nb in zip(t["token"].to_pylist(), t["n_a"].to_pylist(),
                               t["n_b"].to_pylist()):
            na, nb = int(na), int(nb)
            if nb < TREND_MIN_COUNT:
                continue
            val = math.log(
                float((nb + 1) * (_NA + 1)) / float((na + 1) * (_NB + 1))
            )
            rows.append({"token": tok, "n_a": na, "n_b": nb,
                         "trend_nano": int(round(val * TREND_UNIT))})
        if not rows:
            return _TREND_SCHEMA.empty_table()
        out = pa.Table.from_pylist(rows, schema=_TREND_SCHEMA)
        order = pc.sort_indices(
            out, sort_keys=[("trend_nano", "descending"), ("token", "ascending")]
        )[:TREND_TOPK]
        return out.take(order)

    merged = counts.map_batches(score_topk, batch_format="pyarrow").to_pandas()
    if merged.empty:
        return _TREND_SCHEMA.empty_table().to_pandas()
    return (
        merged.sort_values(["trend_nano", "token"], ascending=[False, True])
        .head(TREND_TOPK)
        .reset_index(drop=True)
    )


SQL_TRENDING_TERMS = f"""
WITH toks AS (
  SELECT doc_id % 2 AS snap,
         unnest(list_filter(regexp_split_to_array(coalesce(text, ''), '\\s+'),
                            x -> x <> '')) AS token
  FROM documents
),
cnt AS (
  SELECT token,
         CAST(sum(CASE WHEN snap = 0 THEN 1 ELSE 0 END) AS BIGINT) AS n_a,
         CAST(sum(CASE WHEN snap = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_b
  FROM toks GROUP BY token
),
tot AS (
  SELECT CAST(sum(n_a) AS BIGINT) AS NA, CAST(sum(n_b) AS BIGINT) AS NB
  FROM cnt
)
SELECT token, n_a, n_b,
       CAST(round(ln(CAST((n_b + 1) * (tot.NA + 1) AS DOUBLE)
                     / CAST((n_a + 1) * (tot.NB + 1) AS DOUBLE))
                  * {TREND_UNIT}) AS BIGINT) AS trend_nano
FROM cnt CROSS JOIN tot
WHERE n_b >= {TREND_MIN_COUNT}
ORDER BY trend_nano DESC, token ASC
LIMIT {TREND_TOPK}
"""


# ---------------------------------------------------------------------------
# Multinomial Naive Bayes language classifier: distributed train + predict
# ---------------------------------------------------------------------------

NB_UNIT = 1_000_000_000  # log-probs quantized to integer nano-nats


def q_lang_nb_classify(sf_dir: str) -> rd.Dataset:
    """Train a multinomial Naive Bayes classifier (Laplace-smoothed token
    likelihoods, document-frequency priors) on the corpus's ``lang`` labels
    and re-classify every document — the supervised counterpart of the
    heuristic ``language_id``, and the canonical "train distributed, score
    distributed" ML pipeline shape.

    Exactness (the MI/OLS quantize-then-sum discipline): every model weight
    —  ln prior(lang) and ln P(token|lang) = ln((c+1)/(tot_lang+V)) — is
    quantized ONCE to integer nano-nats with the float expression written
    identically here and in the oracle (same libm ln, same association
    order), so per-doc scores are pure int64 dot products: order-
    independent, bit-stable at any parallelism. Argmax tiebreak: lang asc.

    Topology: training = per-block (lang, token) partial counts + per-block
    prior partials, ONE groupby each (the model is #langs x V rows — tiny
    next to the corpus); the fitted weight table broadcasts via ray.put
    into a single scoring map_batches (at 10^6-term vocabularies the
    broadcast becomes a hash join of doc-token counts against the weight
    table on token — same math, one more exchange)."""
    import math

    from ray.data.aggregate import Sum as RSum

    ltc_schema = pa.schema([
        ("lang", pa.string()), ("token", pa.string()), ("n", pa.int64()),
    ])
    prior_schema = pa.schema([("lang", pa.string()), ("n_docs", pa.int64())])

    def ltc_partial(t: pa.Table) -> pa.Table:
        acc: dict = {}
        for lang, text in zip(t["lang"].to_pylist(), t["text"].to_pylist()):
            for tok in _tokens(text or ""):
                k = (lang, tok)
                acc[k] = acc.get(k, 0) + 1
        if not acc:
            return ltc_schema.empty_table()
        return pa.Table.from_pylist(
            [{"lang": l, "token": tk, "n": n} for (l, tk), n in acc.items()],
            schema=ltc_schema,
        )

    def prior_partial(t: pa.Table) -> pa.Table:
        g = t.group_by("lang").aggregate([([], "count_all")])
        return pa.Table.from_arrays(
            [g["lang"], pc.cast(g["count_all"], pa.int64())],
            schema=prior_schema,
        )

    docs = _read(sf_dir, "documents", ["doc_id", "text", "lang"])
    ltc = (
        docs.map_batches(ltc_partial, batch_format="pyarrow")
        .groupby(["lang", "token"])
        .aggregate(RSum("n", alias_name="n"))
        .to_pandas()
    )
    priors = (
        docs.map_batches(prior_partial, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(RSum("n_docs", alias_name="n_docs"))
        .to_pandas()
    )

    vocab = sorted(ltc["token"].unique())
    V = len(vocab)
    tot = ltc.groupby("lang")["n"].sum().to_dict()
    N = int(priors["n_docs"].sum())
    langs = sorted(priors["lang"])
    nd = priors.set_index("lang")["n_docs"].to_dict()

    cond: dict = {}
    counts = {(r.lang, r.token): int(r.n) for r in ltc.itertuples(index=False)}
    for lang in langs:
        denom = float(int(tot.get(lang, 0)) + V)
        for tok in vocab:
            c = counts.get((lang, tok), 0)
            cond[(lang, tok)] = int(round(NB_UNIT * math.log((c + 1.0) / denom)))
    prior_lp = {
        lang: int(round(NB_UNIT * math.log(float(int(nd[lang])) / N)))
        for lang in langs
    }

    model_ref = ray.put((langs, cond, prior_lp))

    out_schema = pa.schema([
        ("doc_id", pa.int64()), ("pred_lang", pa.string()),
        ("is_correct", pa.int64()),
    ])

    def score(t: pa.Table, _ref=model_ref) -> pa.Table:
        langs_, cond_, prior_ = ray.get(_ref)
        rows = []
        for d, text, true_lang in zip(
            t["doc_id"].to_pylist(), t["text"].to_pylist(), t["lang"].to_pylist()
        ):
            cnt: dict = {}
            for tok in _tokens(text or ""):
                cnt[tok] = cnt.get(tok, 0) + 1
            best, best_score = None, None
            for lang in langs_:  # asc order -> '>' keeps the first max
                s = prior_[lang]
                for tok, ct in cnt.items():
                    s += ct * cond_[(lang, tok)]
                if best_score is None or s > best_score:
                    best, best_score = lang, s
            rows.append({
                "doc_id": int(d), "pred_lang": best,
                "is_correct": int(best == true_lang),
            })
        if not rows:
            return out_schema.empty_table()
        return pa.Table.from_pylist(rows, schema=out_schema)

    return docs.map_batches(score, batch_format="pyarrow")


SQL_LANG_NB_CLASSIFY = f"""
WITH tok AS MATERIALIZED (
  SELECT doc_id, lang,
         unnest(list_filter(regexp_split_to_array(text, '\\s+'), x -> x <> '')) AS token
  FROM documents
),
ltc AS (SELECT lang, token, CAST(count(*) AS BIGINT) AS c FROM tok GROUP BY 1, 2),
ltot AS (SELECT lang, CAST(sum(c) AS BIGINT) AS tot FROM ltc GROUP BY 1),
vocab AS (SELECT DISTINCT token FROM tok),
vn AS (SELECT count(*) AS v FROM vocab),
prior AS (
  SELECT lang, CAST(round({NB_UNIT} * ln(CAST(count(*) AS DOUBLE)
                  / (SELECT count(*) FROM documents))) AS BIGINT) AS lp
  FROM documents GROUP BY lang
),
model AS MATERIALIZED (
  SELECT lt.lang, vo.token,
         CAST(round({NB_UNIT} * ln((coalesce(c.c, 0) + 1.0) / (lt.tot + vn.v)))
              AS BIGINT) AS lp
  FROM ltot lt CROSS JOIN vocab vo CROSS JOIN vn
  LEFT JOIN ltc c ON c.lang = lt.lang AND c.token = vo.token
),
dtc AS (SELECT doc_id, token, CAST(count(*) AS BIGINT) AS ct FROM tok GROUP BY 1, 2),
tscore AS (
  SELECT d.doc_id, m.lang, CAST(sum(d.ct * m.lp) AS BIGINT) AS tsum
  FROM dtc d JOIN model m USING (token)
  GROUP BY 1, 2
),
scores AS (
  SELECT doc.doc_id, doc.lang AS true_lang, p.lang,
         p.lp + coalesce(t.tsum, 0) AS score
  FROM documents doc
  CROSS JOIN prior p
  LEFT JOIN tscore t ON t.doc_id = doc.doc_id AND t.lang = p.lang
),
ranked AS (
  SELECT doc_id, true_lang, lang,
         row_number() OVER (PARTITION BY doc_id ORDER BY score DESC, lang ASC) AS rn
  FROM scores
)
SELECT doc_id, lang AS pred_lang,
       CAST(CASE WHEN lang = true_lang THEN 1 ELSE 0 END AS BIGINT) AS is_correct
FROM ranked WHERE rn = 1
"""


# ---------------------------------------------------------------------------
# Readability scoring: Flesch-Kincaid grade per document
# ---------------------------------------------------------------------------

FK_UNIT = 1_000_000  # grade in integer micro-units
_SENT_SPLIT_RX = re.compile(r"[.!?]+\s+")
_SYL_RX = re.compile(r"[aeiouyAEIOUY]+")


def q_doc_readability(sf_dir: str) -> rd.Dataset:
    """Flesch-Kincaid grade level per document — the classic readability
    curation signal (Kincaid et al. 1975): grade = 0.39 * words/sentences +
    11.8 * syllables/words - 15.59, with syllables approximated by VOWEL
    GROUPS (the standard regex surrogate; exactly replayable). Documents
    with no words score 0. The grade is quantized to integer micro-units
    with the float expression written identically in the oracle (same
    division order), so results are bit-stable at any parallelism.

    Sentence rule shared with doc_sentences ([.!?]+ + whitespace);
    word rule is the corpus-wide whitespace tokenizer. Pure per-doc map —
    no shuffle; at 10^12 docs this is an embarrassingly parallel batch
    pass like the other text-analysis signals."""
    out_schema = pa.schema([
        ("doc_id", pa.int64()), ("n_words", pa.int64()),
        ("n_sentences", pa.int64()), ("n_syllables", pa.int64()),
        ("fk_grade_micro", pa.int64()),
    ])

    def score(t: pa.Table) -> pa.Table:
        rows = []
        for d, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            text = text or ""
            words = _tokens(text)
            nw = len(words)
            ns = len([s for s in _SENT_SPLIT_RX.split(text) if s])
            nsyl = len(_SYL_RX.findall(text))
            if nw == 0 or ns == 0:
                grade = 0
            else:
                grade = int(round(
                    FK_UNIT * (0.39 * (nw / ns) + 11.8 * (nsyl / nw) - 15.59)
                ))
            rows.append({
                "doc_id": int(d), "n_words": nw, "n_sentences": ns,
                "n_syllables": nsyl, "fk_grade_micro": grade,
            })
        if not rows:
            return out_schema.empty_table()
        return pa.Table.from_pylist(rows, schema=out_schema)

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        score, batch_format="pyarrow"
    )


SQL_DOC_READABILITY = rf"""
WITH s AS (
  SELECT doc_id,
         CAST(len(list_filter(regexp_split_to_array(coalesce(text, ''), '\s+'),
                              x -> x <> '')) AS BIGINT) AS nw,
         CAST(len(list_filter(regexp_split_to_array(coalesce(text, ''), '[.!?]+\s+'),
                              x -> x <> '')) AS BIGINT) AS ns,
         CAST(len(regexp_extract_all(coalesce(text, ''), '[aeiouyAEIOUY]+'))
              AS BIGINT) AS nsyl
  FROM documents
)
SELECT doc_id, nw AS n_words, ns AS n_sentences, nsyl AS n_syllables,
       CAST(CASE WHEN nw = 0 OR ns = 0 THEN 0
                 ELSE round({FK_UNIT} * (0.39 * (CAST(nw AS DOUBLE) / ns)
                            + 11.8 * (CAST(nsyl AS DOUBLE) / nw) - 15.59))
            END AS BIGINT) AS fk_grade_micro
FROM s
"""


# ---------------------------------------------------------------------------
# DSIR importance weights (data selection via importance resampling)
# ---------------------------------------------------------------------------

DSIR_BUCKETS = 64  # hashed-bigram feature dimension (10k in the paper)
DSIR_TARGET_LANG = "en"  # the "target domain" label the weights steer toward
DSIR_UNIT = 1_000_000_000  # log-ratios quantize to integer nano-nats


def q_corpus_dsir_weights(sf_dir: str) -> rd.Dataset:
    """DSIR importance weights per document (Xie et al. 2023, "Data
    Selection for Language Models via Importance Resampling"): fit two
    hashed-bigram unigram models — target = the ``lang='en'`` slice, raw =
    the whole corpus — and score every document with
    ``log w(x) = sum_b c_x[b] * (ln p_tgt[b] - ln p_raw[b])`` over
    DSIR_BUCKETS hashed word-bigram features. Production pipelines resample
    the corpus proportional to these weights to steer the training mixture
    toward a target domain; the weight computation is the distributed part
    and is what this operator implements.

    Exactness (the NB/MI quantize-then-sum discipline): each bucket's two
    add-one-smoothed log-likelihoods quantize ONCE to integer nano-nats
    with float expressions written identically here and in the oracle, so
    per-doc scores are pure int64 dot products — order-independent and
    bit-stable at any parallelism.

    Topology: pass 1 collapses each block's bigrams to <= DSIR_BUCKETS
    (bucket, n_raw, n_tgt) partial rows (counts never ride the exchange at
    token grain), one tiny groupby sums buckets, the driver quantizes the
    2 x 64 model and broadcasts it via ray.put; pass 2 is a single scoring
    map_batches. Output: (doc_id, n_bigrams, dsir_logw_nano)."""
    import math

    part_schema = pa.schema([
        ("b", pa.int64()), ("n_raw", pa.int64()), ("n_tgt", pa.int64()),
    ])

    def _doc_buckets(text: str) -> dict[int, int]:
        ts = _tokens(text or "")
        acc: dict[int, int] = {}
        for i in range(len(ts) - 1):
            b = _cms_token_u64(ts[i] + " " + ts[i + 1]) % DSIR_BUCKETS
            acc[b] = acc.get(b, 0) + 1
        return acc

    def bucket_partials(t: pa.Table) -> pa.Table:
        raw = np.zeros(DSIR_BUCKETS, dtype=np.int64)
        tgt = np.zeros(DSIR_BUCKETS, dtype=np.int64)
        for text, lang in zip(_texts(t), t["lang"].to_pylist()):
            for b, k in _doc_buckets(text).items():
                raw[b] += k
                if lang == DSIR_TARGET_LANG:
                    tgt[b] += k
        nz = np.flatnonzero(raw)
        if nz.size == 0:
            return part_schema.empty_table()
        return pa.Table.from_arrays(
            [pa.array(nz, pa.int64()), pa.array(raw[nz]), pa.array(tgt[nz])],
            schema=part_schema,
        )

    docs = _read(sf_dir, "documents", ["doc_id", "text", "lang"])
    bk = (
        docs.map_batches(bucket_partials, batch_format="pyarrow")
        .groupby("b")
        .aggregate(Sum("n_raw", alias_name="n_raw"),
                   Sum("n_tgt", alias_name="n_tgt"))
        .to_pandas()
    )
    t_raw = int(bk["n_raw"].sum())
    t_tgt = int(bk["n_tgt"].sum())
    qv = {
        int(r.b): (
            int(round(DSIR_UNIT * math.log((int(r.n_tgt) + 1.0)
                                           / (t_tgt + DSIR_BUCKETS))))
            - int(round(DSIR_UNIT * math.log((int(r.n_raw) + 1.0)
                                             / (t_raw + DSIR_BUCKETS))))
        )
        for r in bk.itertuples(index=False)
    }
    model_ref = ray.put(qv)

    out_schema = pa.schema([
        ("doc_id", pa.int64()), ("n_bigrams", pa.int64()),
        ("dsir_logw_nano", pa.int64()),
    ])

    def score(t: pa.Table, _ref=model_ref) -> pa.Table:
        qv_ = ray.get(_ref)
        ids, nbs, ws = [], [], []
        for d, text in zip(t["doc_id"].to_pylist(), _texts(t)):
            cb = _doc_buckets(text)
            ids.append(int(d))
            nbs.append(sum(cb.values()))
            ws.append(sum(k * qv_[b] for b, k in cb.items()))
        return pa.Table.from_arrays(
            [pa.array(ids, pa.int64()), pa.array(nbs, pa.int64()),
             pa.array(ws, pa.int64())],
            schema=out_schema,
        )

    return docs.map_batches(score, batch_format="pyarrow")


def _sql_dsir() -> str:
    from .queries import _sql_md5_u64le

    return f"""
WITH arrs AS (
  SELECT doc_id, lang,
         list_filter(regexp_split_to_array(coalesce(text, ''), '\\s+'),
                     x -> x <> '') AS a
  FROM documents
),
dbg AS (
  SELECT doc_id, lang,
         unnest(list_transform(range(1, len(a)), i -> a[i] || ' ' || a[i + 1]))
           AS bigram
  FROM arrs WHERE len(a) >= 2
),
hb AS (
  SELECT doc_id, lang,
         CAST(({_sql_md5_u64le("md5(bigram)")}) % {DSIR_BUCKETS} AS BIGINT) AS b
  FROM dbg
),
bk AS (
  SELECT b, CAST(count(*) AS BIGINT) AS n_raw,
         CAST(sum(CASE WHEN lang = '{DSIR_TARGET_LANG}' THEN 1 ELSE 0 END)
              AS BIGINT) AS n_tgt
  FROM hb GROUP BY b
),
tot AS (SELECT sum(n_raw) AS t_raw, sum(n_tgt) AS t_tgt FROM bk),
q AS (
  SELECT b,
         CAST(round({DSIR_UNIT} * ln((n_tgt + 1.0) / (t_tgt + {DSIR_BUCKETS})))
              AS BIGINT)
         - CAST(round({DSIR_UNIT} * ln((n_raw + 1.0) / (t_raw + {DSIR_BUCKETS})))
                AS BIGINT) AS qv
  FROM bk, tot
),
terms AS (SELECT doc_id, b, CAST(count(*) AS BIGINT) AS k FROM hb GROUP BY 1, 2),
agg AS (
  SELECT t.doc_id, CAST(sum(t.k) AS BIGINT) AS n_bigrams,
         CAST(sum(t.k * q.qv) AS BIGINT) AS dsir_logw_nano
  FROM terms t JOIN q USING (b) GROUP BY 1
)
SELECT d.doc_id, coalesce(a.n_bigrams, 0) AS n_bigrams,
       coalesce(a.dsir_logw_nano, 0) AS dsir_logw_nano
FROM documents d LEFT JOIN agg a USING (doc_id)
"""


SQL_CORPUS_DSIR_WEIGHTS = _sql_dsir()


# ---------------------------------------------------------------------------
# BPE merge learning (tokenizer training over the corpus)
# ---------------------------------------------------------------------------

BPE_MERGES = 6  # rounds to learn; the oracle unrolls this many CTE chains


def _bpe_apply(word: str, merges: list[tuple[str, str]]) -> list[str]:
    """Segment ``word`` under a learned merge list: start from characters +
    the '</w>' end marker, apply each merge IN LEARNED ORDER with one
    left-to-right non-overlapping pass (after a merge at i the scan resumes
    at i+2 — the merged symbol cannot merge again within the same pass;
    identical to SQL replace() semantics on the oracle's double-space
    symbol encoding)."""
    syms = list(word) + ["</w>"]
    for a, b in merges:
        i, out = 0, []
        while i < len(syms):
            if i + 1 < len(syms) and syms[i] == a and syms[i + 1] == b:
                out.append(a + b)
                i += 2
            else:
                out.append(syms[i])
                i += 1
        syms = out
    return syms


def q_corpus_bpe_merges(sf_dir: str) -> pd.DataFrame:
    """Byte-pair-encoding merge learning over the corpus (Sennrich et al.
    2016, "Neural Machine Translation of Rare Words with Subword Units") —
    the tokenizer-training step of a training-data pipeline: learn the
    first BPE_MERGES merges from corpus word frequencies. Each round counts
    adjacent symbol pairs over the WORD-TYPE table (weighted by word
    frequency) and merges the most frequent pair everywhere; ties break on
    the pair's space-joined string ascending (space sorts below every
    printable ASCII char, so the string order equals the (a, b) tuple
    order — the oracle sorts the same key).

    Topology: word counts reduce the corpus to its vocabulary in ONE keyed
    exchange (per-block Counter partials, groupby-sum); the K-round loop
    then never touches the corpus again — each round is a map_batches of
    <= distinct-pairs-per-block partial counts over the vocab-scale word
    table, one tiny pair groupby, a per-block argmax, and a driver-side
    final argmax over #blocks rows; the learned merge list (<= K entries)
    broadcasts by closure. Counts are integers and every tie is total, so
    the result is bit-identical at any parallelism. Output: one row per
    round (rnd, sym_a, sym_b, pair_count)."""
    _, _, out_rows = _bpe_learn(sf_dir)
    return pd.DataFrame(
        out_rows, columns=["rnd", "sym_a", "sym_b", "pair_count"]
    ).astype({"rnd": "int64", "pair_count": "int64"})


def _bpe_learn(sf_dir: str):
    """Shared BPE trainer (see q_corpus_bpe_merges for the topology):
    returns (vocab-scale word-count Dataset, learned merge list, per-round
    rows). q_doc_bpe_encode reuses the merges to segment documents."""
    cnt_schema = pa.schema([("token", pa.string()), ("n", pa.int64())])

    def tok_partials(t: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for text in _texts(t):
            c.update(_tokens(text))
        if not c:
            return cnt_schema.empty_table()
        return pa.Table.from_pylist(
            [{"token": k, "n": n} for k, n in c.items()], schema=cnt_schema
        )

    words = (
        _read(sf_dir, "documents", ["text"])
        .map_batches(tok_partials, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum("n", alias_name="n"))
        .materialize()
    )

    pair_schema = pa.schema([("pair", pa.string()), ("n", pa.int64())])
    merges: list[tuple[str, str]] = []
    out_rows = []
    for rnd in range(1, BPE_MERGES + 1):
        cur = list(merges)

        def pair_partials(t: pa.Table, _m=cur) -> pa.Table:
            acc: dict[str, int] = {}
            for w, n in zip(t["token"].to_pylist(), t["n"].to_pylist()):
                syms = _bpe_apply(w, _m)
                for i in range(len(syms) - 1):
                    k = syms[i] + " " + syms[i + 1]
                    acc[k] = acc.get(k, 0) + int(n)
            if not acc:
                return pair_schema.empty_table()
            return pa.Table.from_pylist(
                [{"pair": p, "n": n} for p, n in acc.items()],
                schema=pair_schema,
            )

        def block_argmax(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return pair_schema.empty_table()
            df = t.to_pandas().sort_values(
                ["n", "pair"], ascending=[False, True]
            )
            return pa.Table.from_pandas(
                df.iloc[:1], schema=pair_schema, preserve_index=False
            )

        best = (
            words.map_batches(pair_partials, batch_format="pyarrow")
            .groupby("pair")
            .aggregate(Sum("n", alias_name="n"))
            .map_batches(block_argmax, batch_format="pyarrow")
            .to_pandas()
        )
        if best.empty:
            break
        best = best.sort_values(["n", "pair"], ascending=[False, True]).iloc[0]
        a, b = str(best["pair"]).split(" ", 1)
        merges.append((a, b))
        out_rows.append({
            "rnd": rnd, "sym_a": a, "sym_b": b, "pair_count": int(best["n"]),
        })
    return words, merges, out_rows


def q_doc_bpe_encode(sf_dir: str) -> rd.Dataset:
    """Apply the learned BPE tokenizer to every document — the encode pass
    that follows q_corpus_bpe_merges' train pass in a real tokenizer
    build: learn the BPE_MERGES merges from corpus word frequencies, then
    segment each document's words under that merge list and report
    per-doc whitespace-token and BPE-symbol counts (the compression the
    tokenizer achieves).

    The merge list (<= BPE_MERGES entries) broadcasts by closure; encoding
    is a pure per-batch map with a per-batch word->symbol-count memo, so
    each distinct word in a block is segmented once. The oracle replays
    train AND encode: the same unrolled double-space replace() chain as
    SQL_CORPUS_BPE_MERGES, carrying the token string through every round
    so each word type's final segmentation joins back to the per-doc
    token stream."""
    _, merges, _ = _bpe_learn(sf_dir)

    out_schema = pa.schema([
        ("doc_id", pa.int64()), ("n_tokens", pa.int64()),
        ("n_bpe_tokens", pa.int64()),
    ])

    def encode(t: pa.Table) -> pa.Table:
        memo: dict[str, int] = {}
        ids, n_tok, n_bpe = [], [], []
        for doc_id, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            toks = _tokens(text or "")
            total = 0
            for w in toks:
                k = memo.get(w)
                if k is None:
                    k = memo[w] = len(_bpe_apply(w, merges))
                total += k
            ids.append(doc_id)
            n_tok.append(len(toks))
            n_bpe.append(total)
        return pa.Table.from_arrays(
            [pa.array(ids, pa.int64()), pa.array(n_tok, pa.int64()),
             pa.array(n_bpe, pa.int64())],
            schema=out_schema,
        )

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        encode, batch_format="pyarrow"
    )


def _sql_bpe_encode() -> str:
    """Train replay (token-carrying variant of _sql_bpe_merges' chain) +
    encode: the final round's state splits back into symbols, giving each
    word type's segment count, joined to the per-doc token stream."""
    parts = [
        """dt AS (
  SELECT doc_id,
         unnest(list_filter(regexp_split_to_array(coalesce(text, ''), '\\s+'),
                x -> x <> '')) AS token
  FROM documents
),
wc AS (SELECT token, CAST(count(*) AS BIGINT) AS n FROM dt GROUP BY 1),
w0 AS (
  SELECT token,
         ' ' || array_to_string(
           list_append(regexp_extract_all(token, '.'), '</w>'), '  ') || ' '
           AS state,
         n
  FROM wc
)"""
    ]
    for r in range(1, BPE_MERGES + 1):
        parts.append(f"""p{r} AS (
  SELECT s[i] || ' ' || s[i + 1] AS pair, CAST(sum(n) AS BIGINT) AS cnt
  FROM (SELECT string_split(trim(state, ' '), '  ') AS s, n FROM w{r - 1}),
       UNNEST(range(1, len(s))) AS u(i)
  GROUP BY 1
),
m{r} AS (
  SELECT split_part(pair, ' ', 1) AS a,
         substr(pair, len(split_part(pair, ' ', 1)) + 2) AS b,
         cnt
  FROM p{r} ORDER BY cnt DESC, pair ASC LIMIT 1
),
w{r} AS (
  SELECT w.token,
         replace(w.state, ' ' || m.a || '  ' || m.b || ' ',
                 ' ' || m.a || m.b || ' ') AS state,
         w.n
  FROM w{r - 1} w CROSS JOIN m{r} m
)""")
    return ("WITH " + ",\n".join(parts) + f""",
wlen AS (
  SELECT token,
         CAST(len(string_split(trim(state, ' '), '  ')) AS BIGINT) AS n_syms
  FROM w{BPE_MERGES}
),
per_doc AS (
  SELECT dt.doc_id, CAST(count(*) AS BIGINT) AS n_tokens,
         CAST(sum(wl.n_syms) AS BIGINT) AS n_bpe_tokens
  FROM dt JOIN wlen wl USING (token)
  GROUP BY dt.doc_id
)
SELECT d.doc_id,
       CAST(coalesce(p.n_tokens, 0) AS BIGINT) AS n_tokens,
       CAST(coalesce(p.n_bpe_tokens, 0) AS BIGINT) AS n_bpe_tokens
FROM documents d LEFT JOIN per_doc p ON p.doc_id = d.doc_id""")


SQL_DOC_BPE_ENCODE = _sql_bpe_encode()


def _sql_bpe_merges() -> str:
    """Unrolled-K replay: word state is the symbol list joined with DOUBLE
    spaces (outer single spaces), so ``replace(state, ' a  b ', ' ab ')``
    is exactly one left-to-right non-overlapping merge pass — the
    replacement's trailing space plus the separator's surviving space
    restore the double-space invariant, and consecutive occurrences chain
    because the scan resumes inside the next separator."""
    parts = [
        """tok0 AS (
  SELECT unnest(list_filter(regexp_split_to_array(coalesce(text, ''), '\\s+'),
                x -> x <> '')) AS token
  FROM documents
),
wc AS (SELECT token, CAST(count(*) AS BIGINT) AS n FROM tok0 GROUP BY 1),
w0 AS (
  SELECT ' ' || array_to_string(
           list_append(regexp_extract_all(token, '.'), '</w>'), '  ') || ' '
           AS state,
         n
  FROM wc
)"""
    ]
    for r in range(1, BPE_MERGES + 1):
        parts.append(f"""p{r} AS (
  SELECT s[i] || ' ' || s[i + 1] AS pair, CAST(sum(n) AS BIGINT) AS cnt
  FROM (SELECT string_split(trim(state, ' '), '  ') AS s, n FROM w{r - 1}),
       UNNEST(range(1, len(s))) AS u(i)
  GROUP BY 1
),
m{r} AS (
  SELECT split_part(pair, ' ', 1) AS a,
         substr(pair, len(split_part(pair, ' ', 1)) + 2) AS b,
         cnt
  FROM p{r} ORDER BY cnt DESC, pair ASC LIMIT 1
),
w{r} AS (
  SELECT replace(w.state, ' ' || m.a || '  ' || m.b || ' ',
                 ' ' || m.a || m.b || ' ') AS state,
         w.n
  FROM w{r - 1} w CROSS JOIN m{r} m
)""")
    sel = "\nUNION ALL\n".join(
        f"SELECT {r} AS rnd, a AS sym_a, b AS sym_b, cnt AS pair_count FROM m{r}"
        for r in range(1, BPE_MERGES + 1)
    )
    return ("WITH " + ",\n".join(parts)
            + f"\nSELECT * FROM (\n{sel}\n) ORDER BY rnd")


SQL_CORPUS_BPE_MERGES = _sql_bpe_merges()


# ---------------------------------------------------------------------------
# Blocklist (bad-words) filter — the C4 curation gate
# ---------------------------------------------------------------------------

# C4 dropped any page containing a token from the "List of Dirty, Naughty,
# Obscene..." blocklist; the mechanism (token-exact membership against a
# fixed list, doc dropped on ANY hit) is what this operator implements,
# with a corpus-appropriate stand-in list.
BLOCKLIST = ("dup", "slow", "spark")


def q_doc_blocklist_filter(sf_dir: str) -> rd.Dataset:
    """C4-style blocklist gate per document: count whitespace tokens that
    exactly match the BLOCKLIST and keep the doc iff the count is zero
    (Raffel et al. 2020 §2.2 dropped the whole page on any hit). Pure
    per-batch map, integer outputs. Output: (doc_id, n_blocked, kept)."""
    bset = set(BLOCKLIST)

    def f(t: pa.Table) -> pa.Table:
        n_blocked = [
            sum(1 for w in x.split() if w in bset) for x in _texts(t)
        ]
        return pa.table({
            "doc_id": t["doc_id"],
            "n_blocked": pa.array(n_blocked, pa.int64()),
            "kept": pa.array([int(n == 0) for n in n_blocked], pa.int64()),
        })

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        f, batch_format="pyarrow"
    )


SQL_DOC_BLOCKLIST_FILTER = f"""
SELECT doc_id,
       CAST(len(list_filter(regexp_split_to_array(coalesce(text, ''), '\\s+'),
                x -> x IN ({", ".join("'" + w + "'" for w in BLOCKLIST)})))
            AS BIGINT) AS n_blocked,
       CAST(CASE WHEN len(list_filter(
                regexp_split_to_array(coalesce(text, ''), '\\s+'),
                x -> x IN ({", ".join("'" + w + "'" for w in BLOCKLIST)}))) = 0
            THEN 1 ELSE 0 END AS BIGINT) AS kept
FROM documents
"""


# ---------------------------------------------------------------------------
# Weighted sampling WITHOUT replacement (Efraimidis-Spirakis)
# ---------------------------------------------------------------------------

SAMPLE_WOR_K = 50
_TWO64 = 18446744073709551616.0  # 2^64 as float, shared with the oracle
SAMPLE_WOR_UNIT = 1e15  # key quantization (keys live in [-44, 0])


def q_doc_sample_wor(sf_dir: str) -> rd.Dataset:
    """Weighted sample of SAMPLE_WOR_K docs WITHOUT replacement
    (Efraimidis & Spirakis 2006): each doc draws u = (h+1)/2^64 from its
    md5 hash and the K largest keys ln(u)/w win, w = n_chars — one pass,
    no coordination, and inclusion is exactly the sequential weighted
    draw-without-replacement process. This is the missing sibling of the
    Bernoulli samplers (q_doc_sample / q_doc_sample_weighted): those
    cannot hit an exact K.

    RNG-free and replayable: u comes from the same md5-u64 every sketch
    here uses, and the key quantizes ONCE to integer femto-units with the
    float expression written identically in the oracle, so the top-K set,
    its order, and the hash all reproduce at any parallelism. Topology:
    per-block vectorized partial top-K (numpy argpartition), driver merge
    of <= K x #blocks candidate rows. Output: (rank, doc_id, n_chars,
    key_femto) by rank."""
    import math

    part_schema = pa.schema([
        ("doc_id", pa.int64()), ("n_chars", pa.int64()), ("key_femto", pa.int64()),
    ])

    def partial_topk(t: pa.Table) -> pa.Table:
        w = pc.cast(t["n_chars"], pa.int64()).to_numpy()
        ok = w > 0  # ES keys are undefined at zero weight
        ids = pc.cast(t["doc_id"], pa.int64()).to_numpy()[ok]
        w = w[ok]
        if ids.size == 0:
            return part_schema.empty_table()
        keys = np.array([
            int(round(SAMPLE_WOR_UNIT
                      * math.log((_cms_token_u64(str(d)) + 1.0) / _TWO64) / wi))
            for d, wi in zip(ids, w)
        ], dtype=np.int64)
        k = min(SAMPLE_WOR_K, keys.size)
        top = np.argpartition(-keys, k - 1)[:k]
        return pa.Table.from_arrays(
            [pa.array(ids[top]), pa.array(w[top]), pa.array(keys[top])],
            schema=part_schema,
        )

    cands = (
        _read(sf_dir, "documents", ["doc_id", "n_chars"])
        .map_batches(partial_topk, batch_format="pyarrow")
        .to_pandas()
    )
    cands = cands.sort_values(
        ["key_femto", "doc_id"], ascending=[False, True]
    ).head(SAMPLE_WOR_K).reset_index(drop=True)
    cands.insert(0, "rank", (cands.index + 1).astype("int64"))
    return cands


def _sql_sample_wor() -> str:
    from .queries import _sql_md5_u64le

    h = _sql_md5_u64le("md5(CAST(doc_id AS VARCHAR))")
    return f"""
WITH keyed AS (
  SELECT doc_id, n_chars,
         CAST(round({SAMPLE_WOR_UNIT} * ln((({h}) + 1.0) / {_TWO64})
                    / n_chars) AS BIGINT) AS key_femto
  FROM documents WHERE n_chars > 0
)
SELECT CAST(row_number() OVER (ORDER BY key_femto DESC, doc_id ASC) AS BIGINT)
         AS rank,
       doc_id, n_chars, key_femto
FROM keyed
ORDER BY key_femto DESC, doc_id ASC
LIMIT {SAMPLE_WOR_K}
"""


SQL_DOC_SAMPLE_WOR = _sql_sample_wor()


# ---------------------------------------------------------------------------
# Reproducible global corpus shuffle (the before-each-epoch step)
# ---------------------------------------------------------------------------

SHUFFLE_BUCKET_BITS = 12  # 4096 key-range buckets for the distributed rank


def q_doc_shuffle_rank(sf_dir: str) -> rd.Dataset:
    """Deterministic global shuffle of the corpus: every doc's position in
    the shuffled order is its rank under the md5-u64 key of doc_id — the
    "shuffle the training set before the epoch" step, made reproducible
    (same permutation on every run, cluster size, or resume) by deriving
    the permutation from a hash instead of RNG state.

    Distributed rank WITHOUT a global Sort operator: the key's top 12 bits
    give 4096 range buckets that are uniform by construction (md5), so
    (1) per-block partial bucket counts -> one tiny groupby -> driver
    cumsum gives each bucket's global starting offset (4096 ints, never
    rows); (2) ONE keyed exchange on bucket id co-locates whole buckets,
    each shard sorts its few buckets locally and adds the broadcast
    offsets. rank = offset[bucket] + local position; ties are impossible
    (doc_id breaks 64-bit collisions). Output: (shuffle_rank, doc_id) —
    a writer streams it straight into numbered epoch shards."""
    from .relational import hash_exchange

    key_schema = pa.schema([
        ("bucket", pa.int64()), ("k", pa.uint64()), ("doc_id", pa.int64()),
    ])

    def key_it(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        ks = np.array([_cms_token_u64(str(d)) for d in ids], dtype=np.uint64)
        buckets = (ks >> np.uint64(64 - SHUFFLE_BUCKET_BITS)).astype(np.int64)
        return pa.Table.from_arrays(
            [pa.array(buckets), pa.array(ks), pa.array(ids, pa.int64())],
            schema=key_schema,
        )

    keyed = (
        _read(sf_dir, "documents", ["doc_id"])
        .map_batches(key_it, batch_format="pyarrow")
        .materialize()
    )

    cnt_schema = pa.schema([("bucket", pa.int64()), ("n", pa.int64())])

    def bucket_partial(t: pa.Table) -> pa.Table:
        g = t.group_by("bucket").aggregate([([], "count_all")])
        return pa.Table.from_arrays(
            [g["bucket"], pc.cast(g["count_all"], pa.int64())], schema=cnt_schema
        )

    bc = (
        keyed.map_batches(bucket_partial, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
        .sort_values("bucket")
    )
    offsets = dict(zip(
        bc["bucket"].astype(int),
        np.concatenate([[0], np.cumsum(bc["n"].to_numpy())[:-1]]).astype(int),
    ))
    off_ref = ray.put(offsets)

    out_schema = pa.schema([("shuffle_rank", pa.int64()), ("doc_id", pa.int64())])

    def shard_rank(t: pa.Table) -> pa.Table:
        offs = ray.get(off_ref)
        df = t.to_pandas().sort_values(["bucket", "k", "doc_id"],
                                       kind="mergesort")
        local = df.groupby("bucket", sort=False).cumcount().to_numpy()
        base = df["bucket"].map(offs).to_numpy(dtype="int64")
        return pa.Table.from_arrays(
            [pa.array(base + local + 1, pa.int64()),
             pa.array(df["doc_id"].to_numpy(dtype="int64"))],
            schema=out_schema,
        )

    return hash_exchange(keyed, ["bucket"], shard_rank, out_schema)


def _sql_shuffle_rank() -> str:
    from .queries import _sql_md5_u64le

    h = _sql_md5_u64le("md5(CAST(doc_id AS VARCHAR))")
    return f"""
SELECT CAST(row_number() OVER (ORDER BY ({h}), doc_id) AS BIGINT)
         AS shuffle_rank,
       doc_id
FROM documents
"""


SQL_DOC_SHUFFLE_RANK = _sql_shuffle_rank()


# ---------------------------------------------------------------------------
# Kneser-Ney smoothed bigram LM scoring — exact integer nano-prob units
# ---------------------------------------------------------------------------

KN_UNIT = 1_000_000_000  # per-bigram KN probability quantized to nano-probs
KN_D_NUM, KN_D_DEN = 3, 4  # absolute discount D = 3/4


def q_corpus_kn_bigram(sf_dir: str) -> rd.Dataset:
    """Per-document Kneser-Ney bigram score — the smoothing real LM-based
    corpus filters (KenLM / CC-Net) actually use: interpolated KN with
    absolute discount D=0.75, where the backoff mass goes to the
    CONTINUATION probability (how many distinct left-contexts a word
    follows), not the raw unigram. For bigram (a,b) with count c_ab:

        P_KN(b|a) = (c_ab - D)/c_a + D * N1p(a)/c_a * N1m(b)/T

    with c_a = sum_b c_ab (context count), N1p(a) = #distinct b after a,
    N1m(b) = #distinct a before b, T = #distinct bigram types. Every
    factor is an integer off the bigram-count table, so with D = 3/4 the
    probability is the exact rational ((4*c_ab-3)*T + 3*N1p*N1m) /
    (4*c_a*T); each occurrence quantizes to floor(num*1e9/den) nano-probs
    (arbitrary-precision host ints; the oracle replays in HUGEINT) and
    per-doc sums are order-independent. Scored on the fitting corpus, so
    c_ab >= 1 > D and the max(.,0) clamp never binds.

    Topology: ONE corpus exchange builds the distinct-bigram count table
    (the q_corpus_bigrams shape); c_a / N1p / N1m / T all derive from
    that table — the distinct-continuation counts are FREE off the count
    rows (a count per distinct key IS the continuation count), no second
    corpus pass. The fitted (bigram -> nano-prob) map rides ray.put into
    one scoring pass (size-asserted broadcast regime); past the gate the
    scale path is q_doc_bigram_logprob's join topology with one extra
    hash_join to attach N1m(b). Output (doc_id, n_bigrams, kn_nano_sum)."""
    from collections import Counter

    big_schema = pa.schema([("bigram", pa.string()), ("n_ab", pa.int64())])

    def sum_big(t: pa.Table) -> pa.Table:
        g = t.group_by("bigram").aggregate([("n_ab", "sum")])
        return pa.Table.from_arrays(
            [g["bigram"], pc.cast(g["n_ab_sum"], pa.int64())],
            names=["bigram", "n_ab"],
        )

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    big = hash_exchange(
        docs.map_batches(_bigram_tf_partials, batch_format="pyarrow"),
        ["bigram"], sum_big, big_schema,
    )

    # fit on the driver (gated broadcast regime; counts above are distributed)
    pairs: list = []
    for b in big.iter_batches(batch_format="pyarrow"):
        pairs.extend(zip(b["bigram"].to_pylist(), b["n_ab"].to_pylist()))
    assert len(pairs) <= LM_BROADCAST_BIGRAMS, (
        "bigram table exceeds the broadcast gate — use the join topology "
        "(q_doc_bigram_logprob) with an extra N1m(b) hash_join"
    )
    c_a: dict = {}
    n1p: dict = {}
    n1m: dict = {}
    for bg, nab in pairs:
        a, b2 = bg.split(" ", 1)
        c_a[a] = c_a.get(a, 0) + int(nab)
        n1p[a] = n1p.get(a, 0) + 1
        n1m[b2] = n1m.get(b2, 0) + 1
    T = len(pairs)
    model = {}
    for bg, nab in pairs:
        a, b2 = bg.split(" ", 1)
        num = (KN_D_DEN * int(nab) - KN_D_NUM) * T + KN_D_NUM * n1p[a] * n1m[b2]
        den = KN_D_DEN * c_a[a] * T
        model[bg] = num * KN_UNIT // den
    ref = ray.put(model)

    part_schema = pa.schema([
        ("doc_id", pa.int64()), ("n_bigrams", pa.int64()),
        ("kn_nano_sum", pa.int64()),
    ])

    def score(t: pa.Table) -> pa.Table:
        mod = ray.get(ref)
        rows = []
        for doc_id, text in zip(t["doc_id"].to_pylist(), _texts(t)):
            ts = _tokens(text)
            c = Counter(zip(ts, ts[1:]))
            nb = s = 0
            for (a, b2), k in c.items():
                nb += k
                s += mod[f"{a} {b2}"] * k
            rows.append({"doc_id": int(doc_id), "n_bigrams": nb,
                         "kn_nano_sum": s})
        if not rows:
            return part_schema.empty_table()
        return pa.Table.from_pylist(rows, schema=part_schema)

    return docs.map_batches(score, batch_format="pyarrow")


SQL_CORPUS_KN_BIGRAM = f"""
WITH arrs AS (
  SELECT doc_id, list_filter(regexp_split_to_array(coalesce(text, ''), '\\s+'), x -> x <> '') AS a
  FROM documents
),
dbg AS (
  SELECT doc_id,
         unnest(list_transform(range(1, len(a)), i -> a[i] || ' ' || a[i + 1])) AS bigram
  FROM arrs WHERE len(a) >= 2
),
cnt AS (SELECT bigram, CAST(count(*) AS BIGINT) AS n_ab FROM dbg GROUP BY 1),
ctx AS (
  SELECT split_part(bigram, ' ', 1) AS tok_a,
         CAST(sum(n_ab) AS BIGINT) AS c_a,
         CAST(count(*) AS BIGINT) AS n1p
  FROM cnt GROUP BY 1
),
cont AS (
  SELECT split_part(bigram, ' ', 2) AS tok_b,
         CAST(count(*) AS BIGINT) AS n1m
  FROM cnt GROUP BY 1
),
tt AS (SELECT CAST(count(*) AS HUGEINT) AS t FROM cnt),
w AS (
  SELECT c.bigram,
         CAST((( {KN_D_DEN} * CAST(c.n_ab AS HUGEINT) - {KN_D_NUM}) * tt.t
               + {KN_D_NUM} * CAST(x.n1p AS HUGEINT) * m.n1m) * {KN_UNIT}
              // ({KN_D_DEN} * CAST(x.c_a AS HUGEINT) * tt.t) AS BIGINT) AS qv
  FROM cnt c
  JOIN ctx x ON x.tok_a = split_part(c.bigram, ' ', 1)
  JOIN cont m ON m.tok_b = split_part(c.bigram, ' ', 2), tt
),
terms AS (SELECT d.doc_id, w.qv FROM dbg d JOIN w USING (bigram)),
agg AS (
  SELECT doc_id, CAST(count(*) AS BIGINT) AS n_bigrams,
         CAST(sum(qv) AS BIGINT) AS kn_nano_sum
  FROM terms GROUP BY doc_id
)
SELECT d.doc_id, coalesce(a.n_bigrams, 0) AS n_bigrams,
       coalesce(a.kn_nano_sum, 0) AS kn_nano_sum
FROM documents d LEFT JOIN agg a USING (doc_id)
"""


# ---------------------------------------------------------------------------
# Hybrid retrieval: Reciprocal Rank Fusion of the lexical and dense rankers
# ---------------------------------------------------------------------------

RRF_K = 60          # standard RRF dampening constant (Cormack et al. 2009)
RRF_TOPK = 10
RRF_UNIT = 10**12   # 1/(K+rank) quantized as UNIT // (K+rank): exact integers


def q_retrieval_rrf(sf_dir: str) -> pd.DataFrame:
    """Hybrid search — Reciprocal Rank Fusion of the two rankers this
    engine already runs: lexical BM25 (q_search_bm25, top-20 for the
    fixed term query) and dense int8-quantized cosine (q_knn_int8,
    top-10 for the fixed query vector; vec_id is the document's
    embedding id). RRF is THE standard hybrid-retrieval combiner because
    it needs no score calibration between rankers:
    score(d) = sum_r 1/(K + rank_r(d)), K=60. Each reciprocal quantizes
    to UNIT // (K + rank) — exact integers, so the fused ranking is
    bit-stable and SQL-replayable.

    Cost shape: both input rankings are already scatter-gather top-k
    passes (per-block partial top-k, tiny driver merge, no global sort);
    the fusion itself touches <= 30 driver rows. Output: top-10
    (rnk, doc_id, rrf_units)."""
    from .queries import q_knn_int8

    bm = q_search_bm25(sf_dir)
    kn = q_knn_int8(sf_dir)

    scores: dict[int, int] = {}
    for r, d in enumerate(bm["doc_id"].astype("int64"), 1):
        scores[int(d)] = scores.get(int(d), 0) + RRF_UNIT // (RRF_K + r)
    for r, v in enumerate(kn["vec_id"].astype("int64"), 1):
        scores[int(v)] = scores.get(int(v), 0) + RRF_UNIT // (RRF_K + r)

    fused = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:RRF_TOPK]
    return pd.DataFrame({
        "rnk": pd.Series(range(1, len(fused) + 1), dtype="int64"),
        "doc_id": pd.Series([d for d, _ in fused], dtype="int64"),
        "rrf_units": pd.Series([s for _, s in fused], dtype="int64"),
    })


def sql_retrieval_rrf() -> str:
    from .queries import KNN_K, _int8_codes, _query_vector

    qq = _int8_codes(_query_vector()[None, :])[0]
    lit = "[" + ", ".join(str(int(x)) for x in qq) + "]"
    nq = int((qq * qq).sum())
    return f"""
WITH bm_raw AS (SELECT * FROM ({sql_search_bm25()})),
bm AS (
  SELECT doc_id,
         row_number() OVER (ORDER BY score_nano DESC, doc_id) AS r
  FROM bm_raw
),
codes AS (
  SELECT vec_id,
         list_transform(
           CAST(embedding AS DOUBLE[]),
           x -> CASE WHEN s.mx = 0 THEN 0.0 ELSE round(x / (s.mx / 127.0)) END
         ) AS q
  FROM embeddings,
       LATERAL (SELECT list_max(list_transform(CAST(embedding AS DOUBLE[]),
                                               x -> abs(x))) AS mx) s
),
kn_raw AS (
  SELECT vec_id,
         CASE WHEN sqrt(list_dot_product(q, q) * {nq}.0) > 0
              THEN list_dot_product(q, CAST({lit} AS DOUBLE[]))
                   / sqrt(list_dot_product(q, q) * {nq}.0)
              ELSE 0.0 END AS sim
  FROM codes
  ORDER BY sim DESC, vec_id ASC LIMIT {KNN_K}
),
kn AS (
  SELECT vec_id, row_number() OVER (ORDER BY sim DESC, vec_id) AS r
  FROM kn_raw
),
u AS (
  SELECT doc_id, {RRF_UNIT} // ({RRF_K} + r) AS pts FROM bm
  UNION ALL
  SELECT vec_id AS doc_id, {RRF_UNIT} // ({RRF_K} + r) AS pts FROM kn
),
f AS (
  SELECT doc_id, CAST(sum(pts) AS BIGINT) AS rrf_units FROM u GROUP BY doc_id
)
SELECT CAST(row_number() OVER (ORDER BY rrf_units DESC, doc_id) AS BIGINT)
         AS rnk,
       doc_id, rrf_units
FROM f ORDER BY rrf_units DESC, doc_id LIMIT {RRF_TOPK}
"""


# ---------------------------------------------------------------------------
# Classifier evaluation: exact ROC-AUC by score-histogram reduction
# ---------------------------------------------------------------------------

def q_quality_auc(sf_dir: str) -> pd.DataFrame:
    """Exact ROC-AUC of the alpha-ratio quality score predicting lang='en',
    with the standard average-rank tie treatment — the quality-classifier
    calibration gate a curation pipeline runs before trusting a score as a
    filter (FastText-quality / DCLM-style: pick the threshold AFTER reading
    the AUC).

    The trick that makes the exact statistic distributed-cheap: AUC needs a
    GLOBAL rank of every document's score, but the score here is integer
    per-mille (0..1000), so ranking collapses to a HISTOGRAM — each block
    emits (score, n_pos, n_neg) partials via one pyarrow group_by (<= 1001
    rows per block), the driver sums histograms and walks the 1001 buckets
    with arbitrary-precision ints:

        num2 = sum_s pos(s) * (2 * neg_below(s) + neg(s))
        AUC  = num2 / (2 * P * N)   -> floor micro-units

    No sort, no shuffle, O(1001) driver state at ANY corpus size — the same
    mergeable-sketch shape as search_bm25's stats pass. Quantized-score AUC
    is exactly what production eval does anyway (sklearn on float scores is
    this with distinct-value buckets). P*N overflows int64 near 10^10 docs;
    the driver math is Python bigint and the oracle HUGEINT, so the
    micro-unit output stays exact."""
    hist_schema = pa.schema([
        ("score", pa.int64()), ("pos", pa.int64()), ("neg", pa.int64()),
    ])

    def hist_partial(t: pa.Table) -> pa.Table:
        # Null-guard both inputs (same discipline as search_ndcg /
        # corpus_simpson): a NULL text would NaN the score array and fail
        # the int64 cast; a NULL lang must count as negative like the
        # oracle's CASE ... ELSE 0.
        text = pc.fill_null(t["text"], "")
        lang = pc.fill_null(t["lang"], "")
        ln = pc.cast(pc.utf8_length(text), pa.int64())
        alpha = pc.cast(pc.utf8_length(
            pc.replace_substring_regex(text, "[^A-Za-z]", "")
        ), pa.int64())
        ln_np = ln.to_numpy(zero_copy_only=False)
        al_np = alpha.to_numpy(zero_copy_only=False)
        score = np.where(ln_np > 0, (al_np * 1000) // np.maximum(ln_np, 1), 0)
        y = (pc.equal(lang, pa.scalar("en"))).to_numpy(zero_copy_only=False)
        tmp = pa.table({
            "score": pa.array(score, pa.int64()),
            "pos": pa.array(y.astype(np.int64)),
            "neg": pa.array((~y).astype(np.int64)),
        })
        g = tmp.group_by("score").aggregate([("pos", "sum"), ("neg", "sum")])
        return pa.table({
            "score": g["score"], "pos": g["pos_sum"], "neg": g["neg_sum"],
        }).cast(hist_schema)

    parts = (
        _read(sf_dir, "documents", ["text", "lang"])
        .map_batches(hist_partial, batch_format="pyarrow")
        .to_pandas()
    )
    h = parts.groupby("score", as_index=False).sum().sort_values("score")
    pos = [int(v) for v in h["pos"]]
    neg = [int(v) for v in h["neg"]]
    P, N = sum(pos), sum(neg)
    num2, below = 0, 0
    for p, n in zip(pos, neg):
        num2 += p * (2 * below + n)
        below += n
    auc_micro = 0 if P * N == 0 else (num2 * 1_000_000) // (2 * P * N)
    return pd.DataFrame({
        "n_pos": pd.array([P], dtype="int64"),
        "n_neg": pd.array([N], dtype="int64"),
        "auc_micro": pd.array([auc_micro], dtype="int64"),
    })


SQL_QUALITY_AUC = """
WITH scored AS (
  SELECT CASE WHEN length(coalesce(text, '')) = 0 THEN 0
              ELSE CAST(length(regexp_replace(coalesce(text, ''), '[^A-Za-z]', '', 'g')) AS BIGINT)
                   * 1000 // CAST(length(coalesce(text, '')) AS BIGINT) END AS score,
         CASE WHEN coalesce(lang, '') = 'en' THEN 1 ELSE 0 END AS y
  FROM documents
),
h AS (
  SELECT score, CAST(sum(y) AS BIGINT) AS pos,
         CAST(count(*) - sum(y) AS BIGINT) AS neg
  FROM scored GROUP BY score
),
c AS (
  SELECT pos, neg,
         CAST(COALESCE(sum(neg) OVER (ORDER BY score
              ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT)
           AS neg_below
  FROM h
),
t AS (
  SELECT CAST(sum(pos) AS HUGEINT) AS p, CAST(sum(neg) AS HUGEINT) AS n,
         CAST(sum(CAST(pos AS HUGEINT) * (2 * neg_below + neg)) AS HUGEINT) AS num2
  FROM c
)
SELECT CAST(p AS BIGINT) AS n_pos, CAST(n AS BIGINT) AS n_neg,
       CAST(CASE WHEN p * n = 0 THEN 0
                 ELSE num2 * 1000000 // (2 * p * n) END AS BIGINT) AS auc_micro
FROM t
"""


# ---------------------------------------------------------------------------
# Data-mixture planning: per-language sampling rates against target weights
# ---------------------------------------------------------------------------

# Target mixture (ppm of the token budget) — the Pile/DoReMi-style recipe a
# training run fixes up front. Inlined in the SQL oracle via CASE.
MIX_WEIGHTS_PPM = {"en": 500_000, "zh": 200_000, "de": 100_000,
                   "es": 100_000, "fr": 100_000}
MIX_TOKEN_BUDGET = 10_000_000  # tokens the training run will consume


def q_corpus_mix_plan(sf_dir: str) -> pd.DataFrame:
    """Data-mixture sampling plan per language: given the corpus's actual
    token mass per stratum and a target mixture (MIX_WEIGHTS_PPM over a
    MIX_TOKEN_BUDGET), emit each stratum's token allocation, the sampling
    rate to hit it (ppm, capped at 1e6 — you can't sample more than once
    without repeating), and the epoch count in milli-epochs when the
    allocation EXCEEDS the stratum (the upsampling/repetition regime the
    data-constrained-scaling literature prices separately). This is the
    planning step between curation and training: its output feeds
    doc_sample_weighted / doc_sample as per-stratum rates.

    All integer floor arithmetic -> bit-stable at any parallelism. Shape:
    per-block (lang, docs, tokens) partials from one pyarrow group_by, a
    tiny groupby-sum over <= n_langs x n_blocks rows, driver walks
    n_langs rows. Token counting is the whitespace split shared with
    doc_token_counts, so the oracle replays it verbatim."""
    part_schema = pa.schema([
        ("lang", pa.string()), ("docs", pa.int64()), ("tokens", pa.int64()),
    ])

    def partial(t: pa.Table) -> pa.Table:
        toks = pc.cast(pc.list_value_length(
            pc.split_pattern_regex(pc.utf8_trim_whitespace(t["text"]), r"\s+")
        ), pa.int64())
        # trim-then-split counts one empty token for empty docs; zero it
        ln = pc.utf8_length(pc.utf8_trim_whitespace(t["text"]))
        toks = pc.if_else(pc.equal(ln, 0), pa.scalar(0, pa.int64()), toks)
        tmp = pa.table({"lang": t["lang"], "docs": pa.array(np.ones(t.num_rows, np.int64)),
                        "tokens": toks})
        g = tmp.group_by("lang").aggregate([("docs", "sum"), ("tokens", "sum")])
        return pa.table({
            "lang": g["lang"], "docs": g["docs_sum"], "tokens": g["tokens_sum"],
        }).cast(part_schema)

    parts = (
        _read(sf_dir, "documents", ["lang", "text"])
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()
    )
    h = parts.groupby("lang", as_index=False).sum().sort_values("lang")
    rows = []
    for lang, docs, tokens in zip(h["lang"], h["docs"], h["tokens"]):
        w = MIX_WEIGHTS_PPM.get(str(lang), 0)
        alloc = (w * MIX_TOKEN_BUDGET) // 1_000_000
        tokens = int(tokens)
        rate = 0 if tokens == 0 else min(1_000_000, (alloc * 1_000_000) // tokens)
        epochs = 0 if tokens == 0 else (alloc * 1000) // tokens
        rows.append({"lang": str(lang), "n_docs": int(docs), "n_tokens": tokens,
                     "alloc_tokens": int(alloc), "rate_ppm": int(rate),
                     "epochs_milli": int(epochs)})
    return pd.DataFrame(rows).astype({
        "n_docs": "int64", "n_tokens": "int64", "alloc_tokens": "int64",
        "rate_ppm": "int64", "epochs_milli": "int64",
    })


def sql_corpus_mix_plan() -> str:
    w_case = " ".join(
        f"WHEN '{k}' THEN {v}" for k, v in sorted(MIX_WEIGHTS_PPM.items())
    )
    return f"""
WITH tok AS (
  SELECT lang,
         CAST(len(list_filter(regexp_split_to_array(text, '\\s+'), x -> x <> '')) AS BIGINT)
           AS n_tokens
  FROM documents
),
h AS (
  SELECT lang, count(*) AS n_docs, CAST(sum(n_tokens) AS BIGINT) AS n_tokens
  FROM tok GROUP BY lang
),
p AS (
  SELECT lang, n_docs, n_tokens,
         CAST(CASE lang {w_case} ELSE 0 END AS BIGINT) * {MIX_TOKEN_BUDGET} // 1000000
           AS alloc_tokens
  FROM h
)
SELECT lang, n_docs, n_tokens, CAST(alloc_tokens AS BIGINT) AS alloc_tokens,
       CAST(CASE WHEN n_tokens = 0 THEN 0
                 ELSE least(1000000, alloc_tokens * 1000000 // n_tokens) END AS BIGINT)
         AS rate_ppm,
       CAST(CASE WHEN n_tokens = 0 THEN 0
                 ELSE alloc_tokens * 1000 // n_tokens END AS BIGINT) AS epochs_milli
FROM p
"""


# ---------------------------------------------------------------------------
# Ranking evaluation: exact NDCG@10 of the BM25 ranking
# ---------------------------------------------------------------------------

NDCG_K = 10
# round(1e6 / log2(rank+1)) for rank 1..10 — the standard DCG discount,
# pre-quantized to micro-units so engine and oracle sum identical integers
# (the only float in NDCG is this table; freezing it makes the whole
# statistic bit-stable at any parallelism).
NDCG_DISC = (1000000, 630930, 500000, 430677, 386853,
             356207, 333333, 315465, 301030, 289065)


def q_search_ndcg(sf_dir: str) -> pd.DataFrame:
    """NDCG@10 of the BM25 ranking for the fixed benchmark query, graded
    against term-coverage relevance (rel(doc) = number of DISTINCT query
    terms present, 0..3) — the retrieval-eval closer of the search family
    (bm25 -> phrase -> rrf/mmr -> this). Exact in micro-units.

    Two stages, both already scale-shaped: (1) the BM25 two-round
    scatter-gather (q_search_bm25) yields the top-10 doc ids; (2) ONE more
    corpus map computes each doc's relevance grade and pre-aggregates a
    4-bucket rel histogram per block — the ideal DCG needs only "how many
    rel-3/2/1 docs exist anywhere", never a global sort (equal grades
    contribute equally in any order, so the histogram IS the ideal
    ranking). The 10 ranked ids ride into the map as a closure constant;
    the driver folds <= 4 x n_blocks + 10 tiny rows. NDCG = DCG * 1e6 //
    IDCG, floor micro-units, 0 when no relevant doc exists."""
    terms = list(BM25_TERMS)
    top = q_search_bm25(sf_dir).head(NDCG_K)
    top_ids = {int(d): r for r, d in enumerate(top["doc_id"])}  # rank 0-based

    part_schema = pa.schema([
        ("kind", pa.int64()), ("key", pa.int64()), ("cnt", pa.int64()),
    ])

    def rel_partial(t: pa.Table) -> pa.Table:
        rel = [
            sum(1 for w in terms if w in set(_tokens(x))) for x in _texts(t)
        ]
        rows = []
        hist = Counter(rel)
        for r, n in hist.items():  # histogram partial: kind 0, key = grade
            rows.append({"kind": 0, "key": int(r), "cnt": int(n)})
        for d, r in zip(t["doc_id"].to_pylist(), rel):  # ranked grades
            if int(d) in top_ids:
                rows.append({"kind": 1, "key": int(d), "cnt": int(r)})
        return pa.Table.from_pylist(rows, schema=part_schema)

    parts = (
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(rel_partial, batch_format="pyarrow")
        .to_pandas()
    )
    hist = (
        parts[parts["kind"] == 0].groupby("key")["cnt"].sum().to_dict()
    )
    doc_rel = dict(
        zip(parts.loc[parts["kind"] == 1, "key"],
            parts.loc[parts["kind"] == 1, "cnt"])
    )
    dcg = sum(
        int(doc_rel.get(d, 0)) * NDCG_DISC[r] for d, r in top_ids.items()
    )
    idcg, slot = 0, 0
    for grade in (3, 2, 1):
        n = int(hist.get(grade, 0))
        while n > 0 and slot < NDCG_K:
            idcg += grade * NDCG_DISC[slot]
            slot += 1
            n -= 1
    ndcg = 0 if idcg == 0 else (dcg * 1_000_000) // idcg
    return pd.DataFrame({
        "dcg_micro": pd.array([dcg], dtype="int64"),
        "idcg_micro": pd.array([idcg], dtype="int64"),
        "ndcg_micro": pd.array([ndcg], dtype="int64"),
    })


def sql_search_ndcg() -> str:
    terms = list(BM25_TERMS)
    rel_expr = " + ".join(
        f"CASE WHEN len(list_filter(regexp_split_to_array(text, '\\s+'),"
        f" x -> x = '{t}')) > 0 THEN 1 ELSE 0 END"
        for t in terms
    )
    disc_rows = ", ".join(
        f"({r + 1}, {d})" for r, d in enumerate(NDCG_DISC)
    )
    return f"""
WITH bm AS (
  SELECT doc_id,
         row_number() OVER (ORDER BY score_nano DESC, doc_id) AS r
  FROM ({sql_search_bm25()})
),
rel AS (
  SELECT doc_id, CAST({rel_expr} AS BIGINT) AS rel FROM documents
),
discs(r, disc) AS (VALUES {disc_rows}),
d AS (
  SELECT COALESCE(CAST(sum(rel.rel * discs.disc) AS BIGINT), 0) AS dcg_micro
  FROM bm JOIN rel USING (doc_id) JOIN discs ON bm.r = discs.r
  WHERE bm.r <= {NDCG_K}
),
ideal AS (
  SELECT rel, row_number() OVER (ORDER BY rel DESC) AS r
  FROM rel WHERE rel > 0
),
i AS (
  SELECT COALESCE(CAST(sum(ideal.rel * discs.disc) AS BIGINT), 0) AS idcg_micro
  FROM ideal JOIN discs ON ideal.r = discs.r
  WHERE ideal.r <= {NDCG_K}
)
SELECT d.dcg_micro, i.idcg_micro,
       CAST(CASE WHEN i.idcg_micro = 0 THEN 0
                 ELSE CAST(d.dcg_micro AS HUGEINT) * 1000000 // i.idcg_micro
            END AS BIGINT) AS ndcg_micro
FROM d, i
"""


# ---------------------------------------------------------------------------
# Lexical diversity: exact Simpson concentration of the vocabulary per lang
# ---------------------------------------------------------------------------

def q_corpus_simpson(sf_dir: str) -> pd.DataFrame:
    """Exact Simpson concentration of each language's token distribution —
    sum over vocabulary of c(c-1) / (N(N-1)), the collision probability of
    two random tokens — plus its inverse view (effective vocabulary size).
    The repetition/diversity health metric a corpus report pairs with
    Zipf fit: rising Simpson = the corpus is collapsing onto few types
    (template spam, boilerplate floods) even while raw token counts look
    fine. Exact integers end to end: c(c-1) partials are int64, the final
    ratio is bigint floor parts-per-billion.

    Shape: per-block (lang, token, count) pyarrow partials, ONE
    hash_exchange on (lang, token) — every token's global count assembles
    in exactly one shard, which then emits ONE row per lang (N partial,
    distinct partial, sum c(c-1) partial); the driver folds #shards x
    #langs tiny rows. Vocabulary-scale data crosses the wire once; text
    never does."""
    from .relational import hash_exchange

    tok_schema = pa.schema([
        ("lang", pa.string()), ("token", pa.string()), ("n", pa.int64()),
    ])

    def tok_partial(t: pa.Table) -> pa.Table:
        rows: dict = {}
        for lang, text in zip(t["lang"].to_pylist(), _texts(t)):
            for tok in _tokens(text):
                k = (lang, tok)
                rows[k] = rows.get(k, 0) + 1
        if not rows:
            return tok_schema.empty_table()
        return pa.Table.from_pylist(
            [{"lang": k[0], "token": k[1], "n": v} for k, v in rows.items()],
            schema=tok_schema,
        )

    part_schema = pa.schema([
        ("lang", pa.string()), ("n_tokens", pa.int64()),
        ("n_distinct", pa.int64()), ("sum_c2", pa.int64()),
    ])

    def shard_fold(t: pa.Table) -> pa.Table:
        g = t.group_by(["lang", "token"]).aggregate([("n", "sum")])
        df = pa.table({
            "lang": g["lang"],
            "c": g["n_sum"],
        }).to_pandas()
        out = []
        for lang, gg in df.groupby("lang", sort=False):
            c = gg["c"].to_numpy(dtype="int64")
            out.append({"lang": str(lang), "n_tokens": int(c.sum()),
                        "n_distinct": len(c),
                        "sum_c2": int((c * (c - 1)).sum())})
        return pa.Table.from_pylist(out, schema=part_schema)

    parts = hash_exchange(
        _read(sf_dir, "documents", ["lang", "text"]).map_batches(
            tok_partial, batch_format="pyarrow"
        ),
        ["lang", "token"],
        shard_fold,
        part_schema,
        num_shards=16,
    ).to_pandas()
    h = parts.groupby("lang", as_index=False).sum().sort_values("lang")
    rows = []
    for lang, n, v, s2 in zip(h["lang"], h["n_tokens"], h["n_distinct"], h["sum_c2"]):
        n, s2 = int(n), int(s2)
        ppb = 0 if n < 2 else (s2 * 1_000_000_000) // (n * (n - 1))
        rows.append({"lang": str(lang), "n_tokens": n, "n_distinct": int(v),
                     "sum_c2": s2, "simpson_ppb": ppb})
    return pd.DataFrame(rows).astype({
        "n_tokens": "int64", "n_distinct": "int64",
        "sum_c2": "int64", "simpson_ppb": "int64",
    })


SQL_CORPUS_SIMPSON = """
WITH tok AS (
  SELECT lang,
         unnest(list_filter(regexp_split_to_array(text, '\\s+'), x -> x <> ''))
           AS token
  FROM documents
),
c AS (SELECT lang, token, CAST(count(*) AS BIGINT) AS n FROM tok GROUP BY 1, 2),
a AS (
  SELECT lang, CAST(sum(n) AS BIGINT) AS n_tokens,
         CAST(count(*) AS BIGINT) AS n_distinct,
         CAST(sum(n * (n - 1)) AS BIGINT) AS sum_c2
  FROM c GROUP BY 1
)
SELECT lang, n_tokens, n_distinct, sum_c2,
       CAST(CASE WHEN n_tokens < 2 THEN 0
                 ELSE CAST(sum_c2 AS HUGEINT) * 1000000000
                      // (CAST(n_tokens AS HUGEINT) * (n_tokens - 1)) END
            AS BIGINT) AS simpson_ppb
FROM a
"""
