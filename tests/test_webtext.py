"""Web-corpus curation operators (pipelines/webtext.py): PII scan/redaction,
TF-IDF rare terms, benchmark contamination, duplicated-passage mining,
corpus vocabulary stats. Semantics on constructed inputs; the DuckDB oracles
cover the sf-scale hash parity."""

import pyarrow as pa
import pytest


def _docs(tmp_path, texts, ids=None):
    import pyarrow.parquet as pq

    ids = ids if ids is not None else list(range(len(texts)))
    t = pa.Table.from_pylist(
        [{"doc_id": i, "text": s, "lang": "en"} for i, s in zip(ids, texts)]
    )
    d = tmp_path / "sf"
    d.mkdir(exist_ok=True)
    pq.write_table(t, str(d / "documents.parquet"))
    return str(d)


class TestPiiScan:
    def test_counts_and_redaction(self, ray_session, tmp_path):
        from query_suite.pipelines.webtext import q_doc_pii_scan

        texts = [
            "mail a@b.co and c.d@e.org now",
            "host 10.0.0.1 dials 555-123-4567",
            "clean text with nothing sensitive",
        ]
        out = q_doc_pii_scan(_docs(tmp_path, texts)).to_pandas().sort_values("doc_id")
        assert out["n_emails"].tolist() == [2, 0, 0]
        assert out["n_ipv4"].tolist() == [0, 1, 0]
        assert out["n_phones"].tolist() == [0, 1, 0]
        assert out["text_redacted"].iloc[0] == "mail [EMAIL] and [EMAIL] now"
        assert out["text_redacted"].iloc[1] == "host [IP] dials [PHONE]"
        assert out["text_redacted"].iloc[2] == texts[2]


class TestTfidfTopTerms:
    def test_rarest_terms_win(self, ray_session, tmp_path):
        from query_suite.pipelines.webtext import TFIDF_TOPK, q_doc_tfidf_top_terms

        # "common" in every doc (df=3); each doc also has unique tokens (df=1)
        texts = [
            "common alpha beta gamma",
            "common delta epsilon",
            "common zeta",
        ]
        out = (
            q_doc_tfidf_top_terms(_docs(tmp_path, texts))
            .to_pandas()
            .sort_values(["doc_id", "df", "token"])
        )
        d0 = out[out["doc_id"] == 0]
        assert len(d0) == TFIDF_TOPK
        # top-3 rarest for doc 0 are its df=1 tokens, token-asc
        assert d0["token"].tolist() == ["alpha", "beta", "gamma"]
        assert d0["df"].tolist() == [1, 1, 1]
        d2 = out[out["doc_id"] == 2]
        # doc 2 only has 2 distinct tokens -> both returned, rarest first
        assert d2["token"].tolist() == ["zeta", "common"]
        assert d2["df"].tolist() == [1, 3]


class TestContamination:
    def test_benchmark_overlap_counted(self, ray_session, tmp_path):
        from query_suite.pipelines.webtext import (
            CONTAM_BENCH_MOD,
            CONTAM_NGRAM,
            q_doc_contamination,
        )

        bench_text = " ".join(f"w{i}" for i in range(CONTAM_NGRAM + 1))  # 2 grams
        contaminated = bench_text  # shares both grams
        clean = " ".join(f"z{i}" for i in range(CONTAM_NGRAM + 1))
        sf = _docs(
            tmp_path,
            [bench_text, contaminated, clean],
            ids=[0, 1, 2],  # doc 0 is benchmark (0 % MOD == 0)
        )
        assert 1 % CONTAM_BENCH_MOD != 0 and 2 % CONTAM_BENCH_MOD != 0
        out = q_doc_contamination(sf).to_pandas().sort_values("doc_id")
        assert out["is_benchmark"].tolist() == [True, False, False]
        assert out["n_benchmark_grams"].tolist() == [2, 2, 0]


class TestDedupSpans:
    def test_cross_doc_and_within_doc_multiplicity(self, ray_session, tmp_path):
        from query_suite.pipelines.webtext import SPAN_W, q_dedup_spans

        passage = " ".join(f"p{i}" for i in range(SPAN_W))
        uniq_a = " ".join(f"a{i}" for i in range(SPAN_W))
        uniq_b = " ".join(f"b{i}" for i in range(SPAN_W))
        texts = [
            passage + " " + uniq_a,            # passage once
            passage + " " + passage,           # passage twice within one doc
            uniq_b,                            # no duplicated window
        ]
        out = q_dedup_spans(_docs(tmp_path, texts)).to_pandas()
        assert len(out) == 1  # only the shared passage crosses the >=2 bar
        row = out.iloc[0]
        assert row["n_occurrences"] == 3
        assert row["n_docs"] == 2
        assert row["first_doc"] == 0

    def test_partial_windows_dropped(self, ray_session, tmp_path):
        from query_suite.pipelines.webtext import SPAN_W, q_dedup_spans

        short = " ".join(f"s{i}" for i in range(SPAN_W - 1))  # < one window
        out = q_dedup_spans(_docs(tmp_path, [short, short])).to_pandas()
        assert len(out) == 0


class TestCorpusVocabStats:
    def test_counts(self, ray_session, tmp_path):
        from query_suite.pipelines.webtext import q_corpus_vocab_stats

        out = q_corpus_vocab_stats(
            _docs(tmp_path, ["a b b", "b c", ""])
        )
        assert out["vocab_size"].tolist() == [3]
        assert out["total_tokens"].tolist() == [5]
        assert out["hapax_count"].tolist() == [2]  # a, c
        assert out["min_token"].tolist() == ["a"]
        assert out["max_token"].tolist() == ["c"]


class TestSplitAssign:
    def test_deterministic_and_proportional(self, ray_session, tmp_path):
        import hashlib

        from query_suite.pipelines.webtext import (
            _TRAIN_CUT,
            _VALID_CUT,
            q_doc_split_assign,
        )

        n = 400
        sf = _docs(tmp_path, [f"doc {i}" for i in range(n)])
        out = q_doc_split_assign(sf).to_pandas().set_index("doc_id")["split"]
        # membership is a pure function of md5(doc_id)
        for d in range(n):
            key = int.from_bytes(hashlib.md5(str(d).encode()).digest()[:2], "big")
            want = "train" if key < _TRAIN_CUT else ("valid" if key < _VALID_CUT else "test")
            assert out[d] == want
        # ~98/1/1 proportions at n=400: train dominates, all splits nonempty-ish
        counts = out.value_counts()
        assert counts.get("train", 0) > 0.9 * n
        assert set(counts.index) <= {"train", "valid", "test"}

    def test_rerun_identical(self, ray_session, tmp_path):
        from query_suite.pipelines.webtext import q_doc_split_assign

        sf = _docs(tmp_path, [f"doc {i}" for i in range(50)])
        a = q_doc_split_assign(sf).to_pandas().sort_values("doc_id").reset_index(drop=True)
        b = q_doc_split_assign(sf).to_pandas().sort_values("doc_id").reset_index(drop=True)
        assert a.equals(b)


class TestTokenPostings:
    def test_df_tf_and_min_df_filter(self, ray_session, tmp_path):
        import query_suite.pipelines.webtext as W

        old = W.POSTINGS_MIN_DF
        W.POSTINGS_MIN_DF = 2
        try:
            # 'b' appears in 2 docs (3 times total); 'a'/'c' in 1 doc each
            sf = _docs(tmp_path, ["a b b", "b c", ""])
            out = W.q_token_postings(sf).to_pandas().set_index("token")
            assert list(out.index) == ["b"]
            assert out.loc["b", "df"] == 2
            assert out.loc["b", "tf"] == 3
        finally:
            W.POSTINGS_MIN_DF = old

    def test_doc_repeats_count_once_for_df(self, ray_session, tmp_path):
        import query_suite.pipelines.webtext as W

        old = W.POSTINGS_MIN_DF
        W.POSTINGS_MIN_DF = 1
        try:
            sf = _docs(tmp_path, ["x x x x"])
            out = W.q_token_postings(sf).to_pandas().set_index("token")
            assert out.loc["x", "df"] == 1
            assert out.loc["x", "tf"] == 4
        finally:
            W.POSTINGS_MIN_DF = old


class TestCorpusBigrams:
    def test_counts_and_tiebreak(self, ray_session, tmp_path):
        from query_suite.pipelines.webtext import q_corpus_bigrams

        # "a b" x2 (one per doc), "b a" x1, "b c" x1 -> tie broken by string
        sf = _docs(tmp_path, ["a b a b", "b c"])
        out = q_corpus_bigrams(sf)
        assert out["bigram"].tolist() == ["a b", "b a", "b c"]
        assert out["n"].tolist() == [2, 1, 1]

    def test_no_cross_doc_bigrams(self, ray_session, tmp_path):
        from query_suite.pipelines.webtext import q_corpus_bigrams

        sf = _docs(tmp_path, ["a", "b"])  # single-token docs -> no bigrams
        out = q_corpus_bigrams(sf)
        assert len(out) == 0


class TestCorpusHeavyHitters:
    def test_exact_topk_with_tiebreak(self, ray_session, tmp_path):
        from query_suite.pipelines.webtext import q_corpus_heavy_hitters

        sf = _docs(tmp_path, ["x x x y y z", "y x z a"])
        out = q_corpus_heavy_hitters(sf)
        # x:4 y:3 z:2 a:1; ties broken by token ascending
        assert out["token"].tolist() == ["x", "y", "z", "a"]
        assert out["n"].tolist() == [4, 3, 2, 1]

    def test_guarantee_violation_raises(self, ray_session, tmp_path):
        """A corpus whose K-th count falls below N/C must fail loudly, not
        silently return a possibly-wrong top-K."""
        from query_suite.pipelines import webtext
        from query_suite.pipelines.webtext import q_corpus_heavy_hitters

        # one dominant token + a long tail of singletons: the 20th-ranked
        # count is 1, and N > C * 1, so exactness can't be certified
        tail = " ".join(f"t{i:05d}" for i in range(5000))
        sf = _docs(tmp_path, ["hot " * 2500, tail])
        with pytest.raises(AssertionError, match="heavy-hitter guarantee"):
            q_corpus_heavy_hitters(sf)


class TestCurateCorpus:
    def test_filter_dedup_split_chain(self, ray_session, tmp_path):
        """Low-quality docs dropped, exact dups keep the lowest doc_id, and
        split assignment is the same pure hash the standalone query uses."""
        import hashlib

        from query_suite.pipelines.webtext import (
            _TRAIN_CUT,
            _VALID_CUT,
            q_curate_corpus,
        )

        good = " ".join(f"alpha{i % 23} beta{i % 7}" for i in range(60))
        texts = [
            good,                      # doc 0: kept (min id of the dup pair)
            good,                      # doc 1: exact dup of 0 -> dropped
            "too short",               # doc 2: fails word-count bound
            good + " gamma tail",      # doc 3: kept (distinct)
        ]
        out = q_curate_corpus(_docs(tmp_path, texts)).to_pandas()
        assert sorted(out["doc_id"].tolist()) == [0, 3]

        def expect_split(d):
            k = int.from_bytes(hashlib.md5(str(d).encode()).digest()[:2], "big")
            return "train" if k < _TRAIN_CUT else ("valid" if k < _VALID_CUT else "test")

        got = dict(zip(out["doc_id"], out["split"]))
        assert got == {0: expect_split(0), 3: expect_split(3)}

    def test_rerun_identical(self, ray_session, tmp_path):
        from query_suite.pipelines.webtext import q_curate_corpus

        texts = [" ".join(f"w{i}x{j}" for j in range(80)) for i in range(20)]
        d = _docs(tmp_path, texts)
        a = q_curate_corpus(d).to_pandas().sort_values("doc_id").reset_index(drop=True)
        b = q_curate_corpus(d).to_pandas().sort_values("doc_id").reset_index(drop=True)
        assert a.equals(b)


class TestParseUrls:
    def test_components(self):
        from query_suite.functions.urls import parse_urls

        urls = pa.array(
            [
                "https://Site.Example.COM:8443/a/b/c?x=1#frag",
                "http://example.org/",
                "https://dotless/path/only",
                "ftp://files.example.net",
                "not a url",
                None,
            ]
        )
        p = parse_urls(urls).to_pylist()
        assert p[0] == {
            "scheme": "https", "host": "site.example.com", "port": 8443,
            "path": "/a/b/c", "query": "x=1", "tld": "com", "path_depth": 3,
        }
        assert p[1]["path_depth"] == 0 and p[1]["port"] is None
        assert p[1]["query"] is None
        assert p[2]["tld"] is None  # dotless host
        assert p[3]["path"] == "" and p[3]["path_depth"] == 0
        assert all(v is None for v in p[4].values())  # malformed -> all null
        assert all(v is None for v in p[5].values())

    def test_trailing_slash_depth(self):
        from query_suite.functions.urls import parse_urls

        p = parse_urls(pa.array(["https://h.io/a/b/", "https://h.io/a//b"]))
        # trailing slash doesn't add a segment; '//' counts the empty segment
        assert p["path_depth"].to_pylist() == [2, 3]


class TestEventsFunnel:
    def test_strict_order_semantics(self, ray_session, tmp_path):
        import pandas as pd
        import pyarrow.parquet as pq

        from query_suite.pipelines.relational import q_events_funnel

        rows = []

        def ev(uid, sec, typ):
            rows.append(
                {"user_id": uid, "ts": pd.Timestamp("2024-01-01") + pd.Timedelta(seconds=sec),
                 "event_type": typ}
            )

        # u1: full funnel in order -> 3
        ev(1, 0, "view"); ev(1, 1, "click"); ev(1, 2, "purchase")
        # u2: purchase BEFORE click -> stops at 2
        ev(2, 0, "view"); ev(2, 1, "purchase"); ev(2, 2, "click")
        # u3: click equal-ts with view (strict > required) -> stops at 1
        ev(3, 0, "view"); ev(3, 0, "click")
        # u4: events but never views -> 0
        ev(4, 0, "signup"); ev(4, 1, "purchase")
        # u5: late first view; earlier clicks don't count, later one does
        ev(5, 0, "click"); ev(5, 1, "view"); ev(5, 2, "click"); ev(5, 3, "purchase")
        t = pa.Table.from_pylist(rows)
        d = tmp_path / "sf"
        d.mkdir(exist_ok=True)
        pq.write_table(t, str(d / "events.parquet"))

        out = q_events_funnel(str(d)).to_pandas().set_index("user_id")["funnel_stage"]
        assert out.to_dict() == {1: 3, 2: 2, 3: 1, 4: 0, 5: 3}


class TestEditDistanceDedup:
    def test_vectorized_dp_matches_scalar(self):
        import random

        import numpy as np

        from query_suite.pipelines.queries import _levenshtein_pairs

        def ref(a, b):
            la, lb = len(a), len(b)
            dp = list(range(lb + 1))
            for i in range(1, la + 1):
                prev, dp = dp, [i] + [0] * lb
                for j in range(1, lb + 1):
                    dp[j] = min(prev[j - 1] + (a[i - 1] != b[j - 1]),
                                prev[j] + 1, dp[j - 1] + 1)
            return dp[lb]

        rng = random.Random(7)
        pairs = []
        for _ in range(200):
            n1, n2 = rng.randint(0, 24), rng.randint(0, 24)
            a = bytes(rng.choice(b"abc\xe4\xb8\xad") for _ in range(n1))
            b = bytes(rng.choice(b"abc\xe4\xb8\xad") for _ in range(n2))
            pairs.append((a, b))
        got = _levenshtein_pairs([p[0] for p in pairs], [p[1] for p in pairs])
        exp = np.array([ref(a, b) for a, b in pairs])
        assert (got == exp).all()

    def test_planted_near_duplicates(self, ray_session, tmp_path):
        from query_suite.pipelines.queries import q_dedup_edit_distance

        base = "the quick brown fox jumps over the lazy dog " * 4
        texts = [
            base,                                   # 0
            base.replace("quick", "quack", 1),      # 1: 1 substitution in prefix
            base + " tail beyond the prefix window",  # 2: identical prefix
            "completely different content about databases and engines " * 3,  # 3
        ]
        d = _docs(tmp_path, texts)
        out = q_dedup_edit_distance(d)
        pairs = {(a, b): e for a, b, e in
                 zip(out["doc_id_a"], out["doc_id_b"], out["edit_dist"])}
        assert pairs[(0, 1)] == 1
        assert pairs[(0, 2)] == 0  # same 96-char prefix
        assert all(3 not in p for p in pairs)


class TestOutlinks:
    def test_resolution_rules(self):
        from query_suite.functions.links import resolve_href

        base = "https://h.example.com/a/b/page.html?q=1"
        assert resolve_href(base, "https://x.io/p?k=2#f") == "https://x.io/p?k=2"
        assert resolve_href(base, "//cdn.io/x") == "https://cdn.io/x"
        assert resolve_href(base, "/root") == "https://h.example.com/root"
        assert resolve_href(base, "sib.html") == "https://h.example.com/a/b/sib.html"
        assert resolve_href(base, "../up") == "https://h.example.com/a/up"
        assert resolve_href(base, "../../../over") == "https://h.example.com/over"
        assert resolve_href(base, "./here") == "https://h.example.com/a/b/here"
        for dead in ("#frag", "javascript:void(0)", "mailto:a@b.c", "tel:+1", ""):
            assert resolve_href(base, dead) is None
        assert resolve_href(base, "ftp://files.io/x") is None  # non-http scheme

    def test_parse_decoys_robots_truncation(self):
        from query_suite.functions.links import extract_outlinks

        html = (
            '<html><head><meta name="robots" content="noindex">'
            "<script>var a='<a href=\"https://evil.example/\">x</a>';</script></head>"
            '<body><a href="/one">first <i>link</i></a>'
            '<a href="/two">trunca'  # unclosed <a> at EOF
        )
        links, noindex, nofollow = extract_outlinks(html, "https://h.io/d/p")
        assert noindex and not nofollow
        assert [(l.href, l.anchor) for l in links] == [
            ("https://h.io/one", "first link"),
            ("https://h.io/two", "trunca"),
        ]

    def test_nofollow_and_nested_anchor(self):
        from query_suite.functions.links import extract_outlinks

        html = '<a href="/x" rel="sponsored nofollow">a  b\n c</a>'
        links, _, _ = extract_outlinks(html, "https://h.io/")
        assert links[0].nofollow and links[0].anchor == "a b c"


class TestHostPagerank:
    def test_matches_scalar_replay(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        from query_suite.functions.links import extract_outlinks, split_url
        from query_suite.functions.fixtures import make_link_page
        from query_suite.pipelines.queries import (
            PAGERANK_ITERS,
            PR_BASE,
            PR_DAMP,
            PR_UNIT,
            q_host_pagerank,
        )

        rows = [
            {"doc_id": i, "text": "x", "lang": "en", "source": f"s{i % 4}"}
            for i in range(40)
        ]
        d = tmp_path / "sf"
        d.mkdir(exist_ok=True)
        pq.write_table(pa.Table.from_pylist(rows), str(d / "documents.parquet"))

        # scalar replay of the integer-quantized iteration
        edges: dict[tuple, int] = {}
        for r in rows:
            html, base = make_link_page(r["doc_id"], r["source"], r["lang"])
            links, _, page_nofollow = extract_outlinks(html, base)
            if page_nofollow:
                continue
            src = split_url(base)[1]
            for ln in links:
                if not ln.nofollow:
                    k = (src, split_url(ln.href)[1])
                    edges[k] = edges.get(k, 0) + 1
        hosts = {h for e in edges for h in e}
        out = {}
        for (s, _), n in edges.items():
            out[s] = out.get(s, 0) + n
        pr = {h: PR_UNIT for h in hosts}
        for _ in range(PAGERANK_ITERS):
            contrib = {h: 0 for h in hosts}
            for (s, t), n in edges.items():
                contrib[t] += (pr[s] * n) // out[s]
            pr = {h: PR_BASE + (PR_DAMP * contrib[h]) // PR_UNIT for h in hosts}

        got = q_host_pagerank(str(d)).to_pandas().set_index("host")["pr"].to_dict()
        assert got == pr
        # sink hosts (no out-links) should still accumulate rank above base
        sinks = hosts - set(out)
        assert sinks and all(got[h] > PR_BASE for h in sinks)


class TestPagerankRegimes:
    def test_broadcast_and_join_regimes_bit_equal(self, ray_session, tmp_path, monkeypatch):
        import pyarrow.parquet as pq

        import query_suite.pipelines.queries as Q

        rows = [
            {"doc_id": i, "text": "x", "lang": "en", "source": f"s{i % 3}"}
            for i in range(30)
        ]
        d = tmp_path / "sf"
        d.mkdir(exist_ok=True)
        pq.write_table(pa.Table.from_pylist(rows), str(d / "documents.parquet"))

        broadcast = (
            Q.q_host_pagerank(str(d)).to_pandas().set_index("host")["pr"].to_dict()
        )
        monkeypatch.setattr(Q, "PAGERANK_BROADCAST_HOSTS", 0)
        joined = (
            Q.q_host_pagerank(str(d)).to_pandas().set_index("host")["pr"].to_dict()
        )
        assert broadcast == joined and len(broadcast) > 0


class TestExtractMeta:
    def test_first_wins_decoys_relative_canonical(self):
        from query_suite.functions.meta import extract_meta

        html = (
            "<html><head>"
            "<script>var t='<title>NOPE</title>';</script>"
            "<title>Real  Title </title><title>second</title>"
            '<meta property="og:title" content="OG one">'
            '<meta property="og:title" content="OG two">'
            '<meta name="description" content="d1">'
            '<link rel="canonical" href="../c/7">'
            '<link rel="canonical" href="/other">'
            "</head><body></body></html>"
        )
        m = extract_meta(html, "https://h.io/a/b/page")
        assert m == {
            "title": "Real Title",
            "og_title": "OG one",
            "description": "d1",
            "canonical": "https://h.io/a/c/7",
        }

    def test_absent_fields_and_truncation(self):
        from query_suite.functions.meta import extract_meta

        m = extract_meta("<html><head><title>only ti", "https://h.io/")
        assert m["og_title"] is None and m["canonical"] is None
        # unclosed <title> at EOF still yields the collected text
        assert m["title"] == "only ti"


class TestDedupNormalized:
    def test_planted_reformatted_duplicates(self, ray_session, tmp_path):
        from query_suite.pipelines.queries import (
            normalize_for_dedup,
            q_dedup_normalized,
        )

        texts = [
            "Hello, World! This is a test.",
            "hello   world this is a TEST",   # same after normalization
            "HELLO WORLD:  this is a test",   # same after normalization
            "something else entirely",
        ]
        assert (
            normalize_for_dedup(texts[0])
            == normalize_for_dedup(texts[1])
            == normalize_for_dedup(texts[2])
        )
        d = _docs(tmp_path, texts)
        out = q_dedup_normalized(d).to_pandas()
        grp = out[out["n_docs"] >= 2]
        assert len(grp) == 1
        assert grp.iloc[0]["rep_doc_id"] == 0 and grp.iloc[0]["n_docs"] == 3
        assert len(out) == 2  # the dup group + the singleton


class TestCompressionRatio:
    def test_repetitive_vs_diverse(self, ray_session, tmp_path):
        from query_suite.pipelines.queries import q_doc_compression_ratio

        import hashlib

        chain, h = [], b"seed"
        for _ in range(60):
            h = hashlib.md5(h).digest()
            chain.append(h.hex())
        texts = [
            "spam " * 400,      # highly repetitive
            "".join(chain),     # hash-chain hex: high entropy
            "",                 # empty edge
        ]
        d = _docs(tmp_path, texts)
        out = (
            q_doc_compression_ratio(d).to_pandas().set_index("doc_id").sort_index()
        )
        assert out.loc[0, "ratio_pct"] < 5
        assert out.loc[1, "ratio_pct"] > 40
        assert out.loc[2, "ratio_pct"] == 100 and out.loc[2, "raw_bytes"] == 0
        # determinism across a second run
        again = q_doc_compression_ratio(d).to_pandas().set_index("doc_id").sort_index()
        assert (again == out).all().all()


class TestCmsAndWeightedSample:
    def test_cms_estimate_one_sided_and_tight_for_heavy_tokens(
        self, ray_session, tmp_path
    ):
        import collections

        import pyarrow.parquet as pq

        from query_suite.pipelines.webtext import (
            _tokens,
            cms_estimate,
            q_corpus_cms_counts,
        )

        d = tmp_path / "sf"
        d.mkdir()
        texts = ["alpha beta gamma"] * 40 + ["beta delta"] * 25 + ["rare one"]
        pq.write_table(pa.table({"text": pa.array(texts)}), str(d / "documents.parquet"))
        cells = q_corpus_cms_counts(str(d)).to_pandas()

        truth = collections.Counter()
        for t in texts:
            truth.update(_tokens(t))
        for tok, n in truth.items():
            est = cms_estimate(cells, tok)
            assert est >= n, tok  # CMS never underestimates
        # total mass per row equals the token stream length exactly
        per_row = cells.groupby("cms_row")["cnt"].sum()
        assert set(per_row) == {sum(truth.values())}

    def test_weighted_sample_rate_tracks_weight(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        from query_suite.pipelines.webtext import WEIGHT_MULT, q_doc_sample_weighted

        d = tmp_path / "sf"
        d.mkdir()
        n = 4000
        # half short (512 chars -> p=1/8), half long (2048 -> p=1/2)
        chars = [512] * (n // 2) + [2048] * (n // 2)
        pq.write_table(pa.table({
            "doc_id": pa.array(range(n), pa.int64()),
            "lang": pa.array(["en"] * n),
            "n_chars": pa.array(chars, pa.int64()),
        }), str(d / "documents.parquet"))
        out = q_doc_sample_weighted(str(d)).to_pandas()
        short = (out["n_chars"] == 512).sum() / (n / 2)
        long = (out["n_chars"] == 2048).sum() / (n / 2)
        assert abs(short - 512 * WEIGHT_MULT / 65536) < 0.03
        assert abs(long - 2048 * WEIGHT_MULT / 65536) < 0.03
        # deterministic: second run identical
        again = q_doc_sample_weighted(str(d)).to_pandas()
        assert sorted(out["doc_id"]) == sorted(again["doc_id"])


class TestBaseHref:
    def test_base_rebases_relative_links_only(self):
        from query_suite.functions.links import extract_outlinks

        html = (b'<html><head><base href="https://cdn.example.net/a/b/"></head>'
                b'<body>'
                b'<a href="/root">r</a>'
                b'<a href="rel/x">q</a>'
                b'<a href="../up">u</a>'
                b'<a href="https://abs.example.com/z">a</a>'
                b'</body></html>')
        links, _, _ = extract_outlinks(html, "https://page.example.com/d/1/i.html")
        hrefs = [l.href for l in links]
        assert hrefs == [
            "https://cdn.example.net/root",
            "https://cdn.example.net/a/b/rel/x",
            "https://cdn.example.net/a/up",
            "https://abs.example.com/z",
        ]

    def test_only_first_base_wins_and_relative_base_resolves(self):
        from query_suite.functions.links import extract_outlinks

        html = (b'<html><head>'
                b'<base href="/newdir/">'
                b'<base href="https://second.example.org/">'
                b'</head><body><a href="x">x</a></body></html>')
        links, _, _ = extract_outlinks(html, "https://page.example.com/d/1/i.html")
        # first base ('/newdir/') resolves against the page URL; second ignored
        assert links[0].href == "https://page.example.com/newdir/x"


class TestPackSequences:
    def test_offsets_and_block_spans(self, ray_session, tmp_path):
        from query_suite.pipelines.webtext import PACK_SEQ_LEN, q_doc_pack_sequences

        # doc0: 1500 tokens (+EOS 1501), doc1: 600 (+1), doc2: 10 (+1)
        texts = ["w " * 1500, "x " * 600, "y " * 10]
        out = (
            q_doc_pack_sequences(_docs(tmp_path, texts))
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        assert out["n_tokens"].tolist() == [1501, 601, 11]
        assert out["tok_offset"].tolist() == [0, 1501, 2102]
        # doc0 fits block 0; doc1 spans the 2048 boundary; doc2 in block 1
        assert out["first_block"].tolist() == [0, 0, 1]
        assert out["last_block"].tolist() == [0, 1, 1]
        assert out["n_blocks"].tolist() == [1, 2, 1]
        assert PACK_SEQ_LEN == 2048

    def test_empty_text_counts_one_eos(self, ray_session, tmp_path):
        from query_suite.pipelines.webtext import q_doc_pack_sequences

        out = (
            q_doc_pack_sequences(_docs(tmp_path, ["", "a b c"]))
            .to_pandas()
            .sort_values("doc_id")
        )
        assert out["n_tokens"].tolist() == [1, 4]
        assert out["tok_offset"].tolist() == [0, 1]


class TestCanonicalizeUrls:
    def test_each_clause(self):
        import pandas as pd

        from query_suite.pipelines.webtext import canonicalize_urls

        cases = {
            # scheme + host lowercase
            "HTTPS://WWW.Example.COM/A": "https://www.example.com/A",
            # default ports stripped only for the matching scheme
            "https://h.org:443/x": "https://h.org/x",
            "http://h.org:80/x": "http://h.org/x",
            "http://h.org:443/x": "http://h.org:443/x",
            "https://h.org:8443/x": "https://h.org:8443/x",
            # fragment stripped
            "https://h.org/x#frag": "https://h.org/x",
            # tracking params dropped, real params kept in order
            "https://h.org/x?utm_source=a&id=3": "https://h.org/x?id=3",
            "https://h.org/x?id=3&utm_campaign=b&q=1": "https://h.org/x?id=3&q=1",
            "https://h.org/x?fbclid=zz": "https://h.org/x",
            # trailing slash stripped on non-root paths only
            "https://h.org/a/b/": "https://h.org/a/b",
            "https://h.org/": "https://h.org/",
        }
        got = canonicalize_urls(pd.Series(list(cases))).tolist()
        assert got == list(cases.values())


class TestLengthBand:
    def test_exact_decile_thresholds(self, ray_session, tmp_path):
        from query_suite.pipelines.webtext import q_doc_length_band

        # 10 docs with 1..10 tokens: P10 = value at rank ceil(10/10)=1 -> 1,
        # P90 = value at rank ceil(90/10)... rank 9 -> 9: keep lengths 1..9
        texts = [("t " * n).strip() for n in range(1, 11)]
        out = q_doc_length_band(_docs(tmp_path, texts)).to_pandas()
        assert sorted(out["n_tokens"].tolist()) == list(range(1, 10))


class TestHostAnchorTerms:
    def test_rank_and_follow_filters(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        from query_suite.pipelines.webtext import HOST_ANCHOR_TOPK, q_host_anchor_terms

        # doc_ids chosen so none hit the page-nofollow residue (doc_id%7==0
        # is robots-nofollow); source column feeds make_link_page
        t = pa.Table.from_pylist(
            [{"doc_id": i, "source": "s", "lang": "en"} for i in (1, 2, 3)]
        )
        d = tmp_path / "sf"
        d.mkdir(exist_ok=True)
        pq.write_table(t, str(d / "documents.parquet"))
        out = q_host_anchor_terms(str(d))
        # ad links are nofollow: the ads host never appears
        assert not out["host"].str.contains("ads").any()
        # every host emits at most K ranked rows, rank starts at 1
        per = out.groupby("host")["rank"].agg(["min", "max", "size"])
        assert (per["min"] == 1).all()
        assert (per["size"] <= HOST_ANCHOR_TOPK).all()
        # 'cdn.example.org' receives anchors 'cdn <k>' from all three docs:
        # token 'cdn' has count 3 and must rank first there
        cdn = out[out["host"] == "cdn.example.org"].iloc[0]
        assert (cdn["token"], cdn["n"], cdn["rank"]) == ("cdn", 3, 1)


class TestRobots:
    def test_group_selection_specific_beats_star(self):
        from query_suite.functions.robots import is_allowed, parse_robots

        txt = (
            "User-agent: graftbot\nDisallow: /private/\n\n"
            "User-agent: *\nDisallow: /\n"
        )
        rules = parse_robots(txt, "graftbot")
        assert not is_allowed(rules, "/private/x")
        assert is_allowed(rules, "/public")  # star's deny-all not inherited
        other = parse_robots(txt, "otherbot")
        assert not is_allowed(other, "/public")  # falls back to * group

    def test_shared_agent_lines_and_group_break(self):
        from query_suite.functions.robots import parse_robots

        txt = (
            "User-agent: a\nUser-agent: graftbot\nDisallow: /x\n"
            "User-agent: b\nDisallow: /y\n"
        )
        rules = parse_robots(txt, "graftbot")
        assert [(al, p) for al, p, _ in rules] == [(False, "/x")]

    def test_longest_match_and_allow_tie(self):
        from query_suite.functions.robots import is_allowed, parse_robots

        rules = parse_robots(
            "User-agent: *\nDisallow: /a/\nAllow: /a/b/\nDisallow: /c\nAllow: /c\n"
        )
        assert not is_allowed(rules, "/a/x")
        assert is_allowed(rules, "/a/b/x")  # longer Allow wins
        assert is_allowed(rules, "/c/d")  # equal length -> Allow wins
        assert is_allowed(rules, "/elsewhere")  # default allow

    def test_wildcard_and_anchor(self):
        from query_suite.functions.robots import is_allowed, parse_robots

        rules = parse_robots("User-agent: *\nDisallow: /*.pdf$\nDisallow: /t*mp/\n")
        assert not is_allowed(rules, "/docs/a.pdf")
        assert is_allowed(rules, "/docs/a.pdf.html")  # $ anchors the end
        assert not is_allowed(rules, "/tmp/x")
        assert not is_allowed(rules, "/temp/x")
        assert is_allowed(rules, "/top/x")

    def test_empty_disallow_and_comments(self):
        from query_suite.functions.robots import is_allowed, parse_robots

        rules = parse_robots(
            "User-agent: *  # our bot\nDisallow:  # empty = match nothing\n"
        )
        assert is_allowed(rules, "/anything")

    def test_synthetic_rules_match_oracle_table(self):
        """make_robots_txt -> parse -> is_allowed reproduces the k-table the
        SQL oracle replays, for every k branch."""
        from query_suite.functions.robots import (
            is_allowed,
            make_robots_txt,
            parse_robots,
        )

        def verdict(host, path):
            return is_allowed(parse_robots(make_robots_txt(host)), path)

        by_k = {}
        for host in (
            "cdn.example.org", "src0.example.net", "src10.example.net",
            "base1.example.org", "web3.example.com", "a.example.com",
            "bb.example.com", "xyz0.example.net",
        ):
            by_k.setdefault((len(host) + ord(host[0])) % 5, host)
        assert len(by_k) >= 4
        for k, host in by_k.items():
            if k == 0:
                assert verdict(host, "/x/1") and verdict(host, "/local/3")
            elif k == 1:
                assert not verdict(host, "/x/1")
                assert verdict(host, "/local/3")
            elif k == 2:
                assert not verdict(host, "/local/3")
                assert verdict(host, "/local/2")
                assert verdict(host, "/x/1")
            elif k == 3:
                assert verdict(host, "/d/up/1")
                assert not verdict(host, "/dir/up/1")
                assert not verdict(host, "/local/2")
            else:
                assert not verdict(host, "/d/up/1")
                assert not verdict(host, "/dir/up/1")
                assert verdict(host, "/x/1")


class TestSitemaps:
    def test_parse_urlset_full_semantics(self):
        from query_suite.functions.sitemaps import parse_sitemap

        xml = """<?xml version="1.0"?>
        <sm:urlset xmlns:sm="http://www.sitemaps.org/schemas/sitemap/0.9">
          <sm:url><sm:loc> https://h/a?x=1&amp;y=2 </sm:loc>
            <sm:lastmod>2023-05-01</sm:lastmod><sm:priority>0.8</sm:priority></sm:url>
          <sm:url><sm:loc><![CDATA[https://h/b]]></sm:loc></sm:url>
          <sm:url><lastmod>2023-01-01</lastmod></sm:url>
          <sm:url><sm:loc>https://h/&#99;</sm:loc><sm:priority>bogus</sm:priority></sm:url>
        </sm:urlset>"""
        kind, entries = parse_sitemap(xml)
        assert kind == "urlset"
        # entry without <loc> dropped; whitespace stripped; entities decoded
        assert entries == [
            ("https://h/a?x=1&y=2", "2023-05-01", 800000),
            ("https://h/b", None, 500000),
            ("https://h/c", None, 500000),
        ]

    def test_parse_index(self):
        from query_suite.functions.sitemaps import parse_sitemap

        kind, entries = parse_sitemap(
            "<sitemapindex><sitemap><loc>https://h/s1.xml</loc></sitemap>"
            "<sitemap><loc>https://h/s2.xml</loc></sitemap></sitemapindex>"
        )
        assert kind == "index"
        assert [e[0] for e in entries] == ["https://h/s1.xml", "https://h/s2.xml"]

    def test_synthetic_tree_round_trip(self):
        from query_suite.functions.sitemaps import (
            make_sitemap,
            make_sitemap_index,
            n_urls_in_child,
            parse_sitemap,
        )

        host = "src3.example.com"
        kind, children = parse_sitemap(make_sitemap_index(host))
        assert kind == "index" and len(children) == 2
        for k in range(2):
            ckind, entries = parse_sitemap(make_sitemap(host, k))
            assert ckind == "urlset"
            assert len(entries) == n_urls_in_child(host, k)
            # i=0 entry carries the entity-escaped query, decoded
            assert entries[0][0] == f"https://{host}/p/{k}/0?x=1&ref=home"
            # i=1 omits priority -> spec default 0.5
            assert entries[1][2] == 500000
            # i=2 is CDATA-wrapped, still a clean loc
            assert entries[2][0] == f"https://{host}/p/{k}/2"


class TestImageAlts:
    def test_drops_and_resolution(self):
        from query_suite.functions.links import extract_image_alts

        html = (
            b'<base href="https://cdn.example.org/a/">'
            b'<img src="x.jpg" alt="  spaced   alt ">'
            b'<img src="/root.png" alt="rooted">'
            b'<img src="no-alt.jpg">'
            b'<img src="deco.jpg" alt="">'
            b'<img src="data:image/gif;base64,AA" alt="inline">'
            b'<script>var s = \'<img src="d.jpg" alt="NOPE">\';</script>'
        )
        got = extract_image_alts(html, "https://h.example.com/p/1")
        assert [(i.src, i.alt) for i in got] == [
            ("https://cdn.example.org/a/x.jpg", "spaced alt"),
            ("https://cdn.example.org/root.png", "rooted"),
        ]

    def test_truncation_tolerant(self):
        from query_suite.functions.links import extract_image_alts

        html = b'<img src="a.jpg" alt="ok"><img src="b.jp'
        got = extract_image_alts(html, "https://h.example.com/")
        assert [(i.src, i.alt) for i in got] == [
            ("https://h.example.com/a.jpg", "ok")
        ]


class TestHreflang:
    def test_extraction_drops_and_resolution(self):
        from query_suite.functions.meta import extract_hreflang

        html = (
            b'<link rel="alternate" hreflang="EN" href="/en">'
            b'<link rel="alternate stylesheet" hreflang="de" href="//other.example/de">'
            b'<link rel="alternate" href="/feed.xml">'
            b'<link rel="stylesheet" href="/s.css">'
            b'<link rel="alternate" hreflang="x-default" href="https://w.example/x">'
            b'<script>var l=\'<link rel="alternate" hreflang="zz" href="/no">\';</script>'
        )
        got = extract_hreflang(html, "https://h.example.com/p/1")
        assert got == [
            ("en", "https://h.example.com/en"),           # lang lower-cased
            ("de", "https://other.example/de"),           # rel token match
            ("x-default", "https://w.example/x"),
        ]


class TestFeedDiscovery:
    def test_kinds_resolution_and_drops(self):
        from query_suite.functions.meta import discover_feeds

        html = (
            b'<link rel="alternate" type="application/rss+xml" href="/f.xml">'
            b'<link rel="alternate" type="application/atom+xml; charset=utf-8"'
            b' href="//feeds.example.net/a.xml" title=" My   Feed ">'
            b'<link rel="alternate" type="text/html" href="/mobile">'
            b'<link rel="alternate" hreflang="de" href="/de">'
            b'<link rel="stylesheet" href="/s.css">'
            b'<script>var f=\'<link rel="alternate" type="application/rss+xml"'
            b' href="/no.xml">\';</script>'
        )
        got = discover_feeds(html, "https://h.example.com/p/1")
        assert got == [
            ("rss", "https://h.example.com/f.xml", ""),
            ("atom", "https://feeds.example.net/a.xml", "My Feed"),
        ]


class TestCrawlDelay:
    def test_group_selection_and_parsing(self):
        from query_suite.functions.robots import make_robots_txt, parse_crawl_delay

        txt = make_robots_txt("acme.example.com")
        # k-rule: 1 + (len + ord('a')) % 4; decoy evilbot group carries 99
        assert parse_crawl_delay(txt) == 1 + (len("acme.example.com") + 97) % 4
        assert parse_crawl_delay(txt, "evilbot") == 99

    def test_own_group_beats_star_and_default_zero(self):
        from query_suite.functions.robots import parse_crawl_delay

        txt = (
            "User-agent: graftbot\nCrawl-delay: 7\n\n"
            "User-agent: *\nCrawl-delay: 3\n"
        )
        assert parse_crawl_delay(txt) == 7
        assert parse_crawl_delay(txt, "otherbot") == 3
        assert parse_crawl_delay("User-agent: *\nDisallow: /x/\n") == 0

    def test_fractional_and_garbage_values(self):
        from query_suite.functions.robots import parse_crawl_delay

        assert parse_crawl_delay("User-agent: *\nCrawl-delay: 2.9\n") == 2
        assert parse_crawl_delay("User-agent: *\nCrawl-delay: soon\n") == 0

    def test_crawl_delay_terminates_group(self):
        from query_suite.functions.robots import parse_crawl_delay

        # the second User-agent after a crawl-delay rule starts a NEW group:
        # the * group's delay must not leak into graftbot's dedicated group
        txt = (
            "User-agent: *\nCrawl-delay: 5\n\n"
            "User-agent: graftbot\nDisallow: /private/\n"
        )
        assert parse_crawl_delay(txt) == 0


class TestRelLinks:
    def test_rel_token_set_resolution_and_drops(self):
        from query_suite.functions.meta import extract_rel_links

        html = (
            b'<link rel="next" href="/a/7?page=3">'
            b'<link rel="prev" href="//other.example/a/7?page=1">'
            b'<link rel="NEXT PREFETCH" href="/both">'  # rel is a token SET
            b'<link rel="stylesheet" href="/s.css">'
            b'<link rel="next" href="">'
            b'<script>var x=\'<link rel="next" href="/no">\';</script>'
        )
        got = extract_rel_links(html, "https://h.example.com/a/7?page=2")
        assert got == [
            ("next", "https://h.example.com/a/7?page=3"),
            ("prev", "https://other.example/a/7?page=1"),
            ("next", "https://h.example.com/both"),
        ]

    def test_custom_rel_filter(self):
        from query_suite.functions.meta import extract_rel_links

        html = b'<link rel="amphtml" href="/amp"><link rel="next" href="/n">'
        assert extract_rel_links(html, "https://h.example/x", rels=("amphtml",)) == [
            ("amphtml", "https://h.example/amp")
        ]


class TestPaginationChains:
    def test_chain_assembly_complete_and_fragment(self):
        import pyarrow as pa

        from query_suite.pipelines.queries import _pagination_rows

        # doc_ids 0,20,40,60 share source src0 -> one complete 4-page chain
        t = pa.table({
            "doc_id": [0, 20, 40, 60, 480],
            "source": ["src0"] * 4 + ["src0"],
            "lang": ["en"] * 5,
        })
        rows = _pagination_rows(t)
        chain0 = [r for r in rows if r["chain_url"].endswith("/art/0")]
        assert [r["pos"] for r in chain0] == [1, 2, 3, 4]
        assert [r["has_next"] for r in chain0] == [1, 1, 1, 0]
        assert [r["has_prev"] for r in chain0] == [0, 1, 1, 1]
        # doc 480 is series 6 position 1: a head-only fragment (no tail)
        frag = [r for r in rows if r["chain_url"].endswith("/art/6")]
        assert frag[0]["pos"] == 1 and frag[0]["has_next"] == 1


class TestHostBoilerplate:
    def _docs(self, tmp_path, n_a=12, n_b=3):
        import pyarrow.parquet as pq

        rows = []
        for i in range(n_a):
            rows.append({"doc_id": i, "text": f"content {i}", "lang": "en",
                         "source": "hosta"})
        for i in range(n_b):
            rows.append({"doc_id": 100 + i, "text": f"other {i}", "lang": "en",
                         "source": "hostb"})
        d = tmp_path / "sf"
        d.mkdir(exist_ok=True)
        pq.write_table(pa.Table.from_pylist(rows), str(d / "documents.parquet"))
        return str(d)

    def test_threshold_and_small_host_exemption(self, ray_session, tmp_path):
        from query_suite.pipelines.webtext import q_host_boilerplate_lines

        out = q_host_boilerplate_lines(self._docs(tmp_path)).to_pandas()
        # hostb has 3 docs < BOILER_MIN_HOST_DOCS -> contributes nothing
        assert set(out["host"]) == {"hosta"}
        lines = set(out["line"])
        # nav (12/12), copyright (8/12 >= 6), newsletter (6/12 == half)
        assert "hosta home | about | contact" in lines
        assert "(c) 2024 hosta.example.com all rights reserved" in lines
        assert "subscribe to the hosta newsletter" in lines
        # unique content lines never reach half
        assert not any(l.startswith("content ") for l in lines)

    def test_strip_counts(self, ray_session, tmp_path):
        from query_suite.pipelines.webtext import _doc_lines, q_doc_strip_boilerplate

        out = (
            q_doc_strip_boilerplate(self._docs(tmp_path))
            .to_pandas().set_index("doc_id")
        )
        # doc 1 (hosta, id%3!=0, id%2!=0): lines = nav, copyright, text, tags
        assert out.loc[1, "n_lines"] == 4
        # nav + copyright removed; the tags line 'tags: en topic-1' appears in
        # ceil(12/7) < 6 docs -> kept
        assert out.loc[1, "n_removed"] == 2
        kept = [l for l in _doc_lines(1, "hosta", "en", "content 1")
                if l in ("content 1", "tags: en topic-1")]
        assert out.loc[1, "clean_chars"] == sum(len(l) for l in kept)
        # hostb docs: small host, nothing removed
        assert (out.loc[100:, "n_removed"] == 0).all()


class TestPageStatus:
    def _status(self, html):
        from query_suite.functions.meta import page_status

        return page_status(html)

    def test_robots_none_alias_and_case(self):
        s = self._status('<meta name="ROBOTS" content="NONE"><title>t</title>')
        assert s["noindex"] and s["nofollow"]
        s = self._status('<meta name="robots" content=" NoIndex , Follow ">')
        assert s["noindex"] and not s["nofollow"]

    def test_bare_404_in_healthy_title_does_not_flag(self):
        body = "x" * 300
        s = self._status(f"<title>Doc 404 - src</title><body>{body}</body>")
        assert not s["soft404"]
        s = self._status(f"<title>404 Not Found</title><body>{body}</body>")
        assert s["soft404"] and s["reason"] == "title"

    def test_body_phrase_needs_thin_page(self):
        thin = "<title>ok</title><body>Sorry, this page does not exist.</body>"
        s = self._status(thin)
        assert s["soft404"] and s["reason"] == "body"
        long = ("<title>ok</title><body>page does not exist "
                + "filler words " * 30 + "</body>")
        assert not self._status(long)["soft404"]

    def test_script_decoy_ignored(self):
        s = self._status(
            "<title>ok</title><script>var t='page not found';</script>"
            "<body>" + "y" * 300 + "</body>"
        )
        assert not s["soft404"]


class TestCorpusPmi:
    def test_planted_collocation_ranks_first(self, ray_session, tmp_path):
        from query_suite.pipelines.webtext import q_corpus_pmi

        # "hong kong" always adjacent and exclusive -> max PMI; "the cat"
        # pair exists but both tokens are frequent elsewhere -> lower PMI
        texts = (
            ["hong kong"] * 6
            + ["the cat sat on the mat the cat"] * 3
            + ["the dog and the bird saw the mat"] * 3
        )
        out = q_corpus_pmi(_docs(tmp_path, texts))
        assert out.iloc[0]["bigram"] == "hong kong"
        assert out.iloc[0]["n_ab"] == 6
        got = dict(zip(out["bigram"], out["pmi_nano"]))
        assert "the cat" in got
        assert got["the cat"] < got["hong kong"]

    def test_min_support_filters_rare_pairs(self, ray_session, tmp_path):
        from query_suite.pipelines.webtext import PMI_MIN_COUNT, q_corpus_pmi

        texts = ["rare pair"] * (PMI_MIN_COUNT - 1) + ["hong kong"] * PMI_MIN_COUNT
        out = q_corpus_pmi(_docs(tmp_path, texts))
        assert "rare pair" not in set(out["bigram"])
        assert "hong kong" in set(out["bigram"])


class TestRecrawlDiff:
    def test_statuses_and_jaccard(self, ray_session, tmp_path):
        from query_suite.pipelines.webtext import JACCARD_UNIT, q_recrawl_diff

        # page 0: identical; page 1: half-overlapping tokens; page 2: orphan
        texts = ["same words here", "same words here",
                 "alpha beta gamma delta", "alpha beta x y",
                 "lonely old version"]
        out = (
            q_recrawl_diff(_docs(tmp_path, texts))
            .to_pandas().set_index("page_id").sort_index()
        )
        assert out.loc[0, "status"] == "unchanged"
        assert out.loc[0, "jaccard_micro"] == JACCARD_UNIT
        assert out.loc[1, "status"] == "changed"
        # |{alpha,beta}| / |{alpha,beta,gamma,delta,x,y}| = 2/6
        assert out.loc[1, "jaccard_micro"] == 2 * JACCARD_UNIT // 6
        assert out.loc[1, "delta_chars"] == len("alpha beta x y") - len("alpha beta gamma delta")
        assert out.loc[2, "status"] == "orphan"
        import pandas as pd
        assert pd.isna(out.loc[2, "jaccard_micro"])


class TestBigramLogprob:
    def test_mle_conditional_probabilities(self, ray_session, tmp_path):
        import math

        from query_suite.pipelines.webtext import LM_UNIT, q_doc_bigram_logprob

        # corpus: "a b" x2 and "a c" -> p(b|a)=2/3, p(c|a)=1/3
        texts = ["a b", "a b", "a c", "x"]
        out = (
            q_doc_bigram_logprob(_docs(tmp_path, texts))
            .to_pandas().set_index("doc_id").sort_index()
        )
        q_ab = int(round(math.log(2 / 3) * LM_UNIT))
        q_ac = int(round(math.log(1 / 3) * LM_UNIT))
        assert out.loc[0, "n_bigrams"] == 1 and out.loc[0, "logprob_nano_sum"] == q_ab
        assert out.loc[2, "logprob_nano_sum"] == q_ac
        # single-token doc: zero bigrams, zero sum, still present
        assert out.loc[3, "n_bigrams"] == 0 and out.loc[3, "logprob_nano_sum"] == 0


class TestHostQuality:
    def test_verdict_majority(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        from query_suite.pipelines.webtext import q_host_quality

        good = ("the quick brown fox jumps over the lazy dog and runs far away "
                * 10)  # passes gopher (>=50 words, stopwords, alpha)
        bad = "x"  # fails word-count bound
        rows = (
            [{"doc_id": i, "text": good, "lang": "en", "source": "goodhost"}
             for i in range(3)]
            + [{"doc_id": 10 + i, "text": bad, "lang": "en", "source": "badhost"}
               for i in range(3)]
        )
        d = tmp_path / "sf"
        d.mkdir(exist_ok=True)
        pq.write_table(pa.Table.from_pylist(rows), str(d / "documents.parquet"))
        out = q_host_quality(str(d)).to_pandas().set_index("host")
        assert bool(out.loc["goodhost", "keep_host"]) is True
        assert out.loc["goodhost", "n_keep"] == 3
        assert bool(out.loc["badhost", "keep_host"]) is False
        assert out.loc["badhost", "mean_chars"] == 1


class TestHostTemplates:
    def test_two_templates_per_host(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        from query_suite.pipelines.queries import q_host_templates

        # doc_ids 0..5 on one host: ids 1,3,5 carry the robots meta -> one
        # template; 0,2,4 the other
        rows = [{"doc_id": i, "lang": "en", "source": "h"} for i in range(6)]
        d = tmp_path / "sf"
        d.mkdir(exist_ok=True)
        pq.write_table(pa.Table.from_pylist(rows), str(d / "documents.parquet"))
        out = q_host_templates(str(d)).to_pandas()
        assert len(out) == 2
        assert sorted(out["n_pages"].tolist()) == [3, 3]


class TestHostMirrorOverlap:
    def test_mirrored_hosts_dominate(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        from query_suite.pipelines.queries import (
            q_host_mirror_overlap,
            winnow_fingerprints,
        )

        copied = "this exact article text is mirrored verbatim across two hosts"
        rows = [
            {"doc_id": 0, "text": copied, "lang": "en", "source": "origin"},
            {"doc_id": 1, "text": copied, "lang": "en", "source": "mirror"},
            {"doc_id": 2, "text": "zq9 xv7 unrelated kj2 wp5 mn8 bd4 gh6",
             "lang": "en", "source": "other"},
        ]
        d = tmp_path / "sf"
        d.mkdir(exist_ok=True)
        pq.write_table(pa.Table.from_pylist(rows), str(d / "documents.parquet"))
        out = (
            q_host_mirror_overlap(str(d)).to_pandas()
            .set_index(["host_a", "host_b"])["n_shared"]
        )
        # the verbatim mirror shares the FULL fingerprint set
        assert out[("mirror", "origin")] == len(winnow_fingerprints(copied))
        # unrelated host shares nothing with either
        for pair in [("origin", "other"), ("mirror", "other"), ("other", "origin")]:
            assert out.get(pair, 0) == 0


class TestSitemapCoverage:
    def test_missing_and_unlisted(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        from query_suite.pipelines.queries import q_sitemap_coverage

        # one host, docs 0 and 5: crawled /p/0/0?x=1&ref=home and /p/1/5;
        # /p/1/5 is beyond the sitemap's url count -> unlisted; most of the
        # declared tree is never crawled -> missing
        # host 'hh.example.com' (len 14): child 1 declares only i<4, so
        # /p/1/5 is out of the declared range
        rows = [{"doc_id": 0, "source": "hh"}, {"doc_id": 5, "source": "hh"}]
        d = tmp_path / "sf"
        d.mkdir(exist_ok=True)
        pq.write_table(pa.Table.from_pylist(rows), str(d / "documents.parquet"))
        out = q_sitemap_coverage(str(d)).to_pandas()
        unlisted = set(out[out["status"] == "unlisted"]["url"])
        missing = set(out[out["status"] == "missing"]["url"])
        assert unlisted == {"https://hh.example.com/p/1/5"}
        assert "https://hh.example.com/p/0/0?x=1&ref=home" not in missing
        assert "https://hh.example.com/p/0/1" in missing
        # a declared url never appears in both buckets
        assert not (unlisted & missing)


class TestSearchPhrase:
    def test_adjacency_and_positions(self, ray_session, tmp_path, monkeypatch):
        import query_suite.pipelines.webtext as W

        monkeypatch.setattr(W, "SEARCH_PHRASES", ("big cat",))
        texts = [
            "the big cat sat big cat again",   # 2 matches, first at pos 1
            "big dog cat",                      # tokens present, not adjacent
            "cat big",                          # wrong order
        ]
        out = W.q_search_phrase(_docs(tmp_path, texts)).to_pandas()
        assert len(out) == 1
        row = out.iloc[0]
        assert row["doc_id"] == 0 and row["n_matches"] == 2 and row["first_pos"] == 1


class TestPplBuckets:
    def test_thirds_and_ordering(self, ray_session, tmp_path):
        from query_suite.pipelines.webtext import q_doc_ppl_buckets

        # doc 0: all mass on one bigram (p=1 each step -> logprob 0, best);
        # docs with rarer continuations score lower; single-token doc excluded
        texts = [
            "a b a b a b",      # p(b|a)=1 within its own stats? corpus-wide below
            "a b a b",
            "a c",
            "a d",
            "a e",
            "x",
        ]
        out = q_doc_ppl_buckets(_docs(tmp_path, texts)).to_pandas()
        assert 5 not in set(out["doc_id"])  # no bigrams -> excluded
        assert set(out["bucket"]) <= {"head", "middle", "tail"}
        by = out.set_index("doc_id")
        # "a b" dominates (5 of 8 'a'-continuations) -> docs 0,1 score best
        assert by.loc[0, "avg_nano"] > by.loc[2, "avg_nano"]
        # buckets are monotone in score
        order = {"tail": 0, "middle": 1, "head": 2}
        s = out.sort_values("avg_nano")
        ranks = [order[b] for b in s["bucket"]]
        assert ranks == sorted(ranks)


class TestRakeKeywords:
    def test_textbook_example(self, ray_session, tmp_path):
        from query_suite.pipelines.webtext import RAKE_UNIT, q_doc_keywords_rake

        # stopwords ('the', 'of', 'and') split phrases; 'deep learning'
        # appears twice -> its words get degree 4, freq 2 -> score 2*U each
        texts = ["deep learning the deep learning of robotics and vision"]
        out = q_doc_keywords_rake(_docs(tmp_path, texts)).to_pandas()
        by = out.set_index("phrase")["score"]
        assert by["deep learning"] == 2 * (2 * 2 * RAKE_UNIT // 2)
        assert by["robotics"] == RAKE_UNIT
        # top-3 only, distinct phrases
        assert len(out) == 3

    def test_all_stopword_doc_emits_nothing(self, ray_session, tmp_path):
        from query_suite.pipelines.webtext import q_doc_keywords_rake

        out = q_doc_keywords_rake(
            _docs(tmp_path, ["the of and that", "alpha"])
        ).to_pandas()
        assert set(out["doc_id"]) == {1}


class TestCharEntropy:
    def test_terms_match_hand_computation(self, ray_session, tmp_path):
        import math

        from query_suite.pipelines.webtext import ENTROPY_UNIT, q_doc_char_entropy

        out = (
            q_doc_char_entropy(_docs(tmp_path, ["aab", ""]))
            .to_pandas().set_index("doc_id")
        )
        # 'aab': counts {a:2, b:1} -> terms round(2 ln2 * U) + round(1 ln1 * U)
        expect = int(round(2 * math.log(2) * ENTROPY_UNIT)) + 0
        assert out.loc[0, "n_chars"] == 3 and out.loc[0, "n_distinct"] == 2
        assert out.loc[0, "entropy_terms_micro"] == expect
        assert out.loc[1, "n_chars"] == 0 and out.loc[1, "entropy_terms_micro"] == 0


class TestExtractEval:
    def test_micro_precision_recall_floors(self, ray_session):
        from query_suite.pipelines.queries import q_extract_eval

        df = q_extract_eval("/root/testdata/sf0.001").to_pandas()
        P = df["n_common"].sum() / max(1, df["n_extracted"].sum())
        R = df["n_common"].sum() / max(1, df["n_gold"].sum())
        # measured 1.000 / 0.9865 at sf0.01: chrome fully stripped; the
        # min-block gate costs a little recall on short tail paragraphs
        assert P >= 0.99
        assert R >= 0.95

    def test_leaked_chrome_would_lower_precision(self, ray_session, tmp_path):
        # sanity that the metric moves: extracting with NO filtering
        # (simulated by comparing gold against gold+chrome tokens) < 1.0
        import random as _random

        from collections import Counter

        from service1_text_extraction_ray.functions.html_extract import (
            decode_payload,
        )
        from service1_text_extraction_ray.functions.synth import (
            make_article_html,
        )

        paragraphs = ["alpha beta gamma delta epsilon zeta eta theta"]
        html = make_article_html("T", paragraphs, _random.Random(0))
        import re

        raw_tokens = Counter(
            re.sub(r"<[^>]+>", " ", decode_payload(html)).split()
        )
        gold = Counter("T".split())
        for p in paragraphs:
            gold.update(p.split())
        common = sum(min(c, raw_tokens.get(t, 0)) for t, c in gold.items())
        naive_p = common / sum(raw_tokens.values())
        assert naive_p < 0.8  # chrome dominates an unfiltered extraction


class TestSocialCard:
    def test_relative_image_resolves_and_decoy_ignored(self):
        from query_suite.functions.meta import extract_social_card

        html = (b'<meta property="og:image" content="/pic.png">'
                b'<script>var x=\'<meta property="og:image" content="NO">\';</script>'
                b'<meta name="twitter:card" content="summary">')
        card = extract_social_card(html, "https://ex.org/a/b")
        assert card["og_image"] == "https://ex.org/pic.png"
        assert card["twitter_card"] == "summary"
        assert card["og_type"] is None

    def test_first_value_wins(self):
        from query_suite.functions.meta import extract_social_card

        html = (b'<meta property="og:type" content="article">'
                b'<meta property="og:type" content="website">')
        assert extract_social_card(html, "https://e/")["og_type"] == "article"


class TestMetaRefreshAndForms:
    def test_refresh_variants(self):
        from query_suite.functions.meta import parse_meta_refresh

        assert parse_meta_refresh(
            b'<meta http-equiv="REFRESH" content="0;URL=\'/x\'">',
            "https://e.org/a/b",
        ) == (0, "https://e.org/x")
        # bare reload (no url=) is not a redirect
        assert parse_meta_refresh(
            b'<meta http-equiv="refresh" content="30">', "https://e.org/"
        ) is None
        # script decoy ignored
        assert parse_meta_refresh(
            b"<script>'<meta http-equiv=\"refresh\" content=\"0;url=/n\">'</script>",
            "https://e.org/",
        ) is None

    def test_forms_fields_and_unclosed_form(self):
        from query_suite.functions.meta import extract_forms

        html = (b'<form action="/s"><input name="q"><input type="submit">'
                b'<textarea name="msg"></textarea>')  # never closed
        forms = extract_forms(html, "https://e.org/p")
        assert len(forms) == 1
        assert forms[0]["action"] == "https://e.org/s"
        assert forms[0]["method"] == "get"
        assert forms[0]["fields"] == ["q", "msg"]


class TestHostLangDivergence:
    def test_identical_host_has_zero_divergence(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        from query_suite.pipelines.webtext import q_host_lang_divergence

        # one host IS the corpus -> P == Q -> both KL numerators are 0
        rows = [{"doc_id": i, "text": "alpha beta gamma", "lang": "en",
                 "source": "only"} for i in range(4)]
        d = tmp_path / "sf"
        d.mkdir(exist_ok=True)
        pq.write_table(pa.Table.from_pylist(rows), str(d / "documents.parquet"))
        out = q_host_lang_divergence(str(d)).to_pandas().iloc[0]
        assert out["kl_p_num_nano"] == 0 and out["kl_q_cov_num_nano"] == 0
        assert out["A"] == 12 and out["b_cov"] == 12

    def test_divergent_host_scores_positive(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        from query_suite.pipelines.webtext import JSD_UNIT, q_host_lang_divergence

        rows = (
            [{"doc_id": i, "text": "normal common words here", "lang": "en",
              "source": "plain"} for i in range(8)]
            + [{"doc_id": 100, "text": "zzz qqq xxx www", "lang": "en",
                "source": "weird"}]
        )
        d = tmp_path / "sf"
        d.mkdir(exist_ok=True)
        pq.write_table(pa.Table.from_pylist(rows), str(d / "documents.parquet"))
        out = q_host_lang_divergence(str(d)).to_pandas().set_index("host")
        # KL(P||M) per token of the weird host: its tokens are exclusive,
        # so p/m approaches 2 -> strongly positive numerator
        assert out.loc["weird", "kl_p_num_nano"] > 0
        # the big host barely moves: its numerator per token is small
        jsd_weird = out.loc["weird", "kl_p_num_nano"] / (out.loc["weird", "A"] * JSD_UNIT)
        jsd_plain = out.loc["plain", "kl_p_num_nano"] / (out.loc["plain", "A"] * JSD_UNIT)
        assert jsd_weird > jsd_plain


class TestTrendingTerms:
    def test_emerging_term_ranks_first(self, ray_session, tmp_path):
        from query_suite.pipelines.webtext import q_trending_terms

        # 'viral' appears only in crawl B (odd ids), >= support floor;
        # 'stable' is everywhere; 'fading' only in A (filtered: n_b=0)
        texts = []
        for i in range(20):
            if i % 2:
                texts.append("stable words viral viral here")
            else:
                texts.append("stable words fading fading here")
        out = q_trending_terms(_docs(tmp_path, texts))
        assert out.iloc[0]["token"] == "viral"
        assert out.iloc[0]["n_a"] == 0
        assert "fading" not in set(out["token"])


class TestLangNbClassify:
    def test_separable_corpus_and_smoothing(self, ray_session, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        import query_suite.pipelines.webtext as W

        d = tmp_path / "sf"
        d.mkdir(exist_ok=True)
        rows = [
            # two clearly separable vocabularies
            {"doc_id": 0, "lang": "en", "text": "the cat sat"},
            {"doc_id": 1, "lang": "en", "text": "the dog sat"},
            {"doc_id": 2, "lang": "de", "text": "der hund sass"},
            {"doc_id": 3, "lang": "de", "text": "der katze sass"},
            # a doc whose tokens were never seen in training for 'de':
            # Laplace smoothing must still score it finitely
            {"doc_id": 4, "lang": "en", "text": "the the the"},
        ]
        pq.write_table(pa.Table.from_pylist(rows), str(d / "documents.parquet"))
        out = (
            W.q_lang_nb_classify(str(d))
            .to_pandas().set_index("doc_id")
        )
        assert out.loc[0, "pred_lang"] == "en"
        assert out.loc[2, "pred_lang"] == "de"
        assert out.loc[4, "pred_lang"] == "en"
        assert out["is_correct"].sum() == 5


class TestDocReadability:
    def test_formula_and_degenerate_docs(self, ray_session, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        import query_suite.pipelines.webtext as W

        d = tmp_path / "sf"
        d.mkdir(exist_ok=True)
        rows = [
            {"doc_id": 0, "text": "The cat sat. The dog ran away fast!"},
            {"doc_id": 1, "text": ""},            # no words -> grade 0
            {"doc_id": 2, "text": "xyz"},         # words but no vowels/sentence end
        ]
        pq.write_table(pa.Table.from_pylist(rows), str(d / "documents.parquet"))
        out = (
            W.q_doc_readability(str(d))
            .to_pandas().set_index("doc_id")
        )
        # doc 0: 8 words, 2 sentences ("The cat sat." / rest), syllables =
        # vowel groups: e,a,a,e,o,a,a,a,a -> count them via the same rule
        import re
        nsyl = len(re.findall(r"[aeiouyAEIOUY]+", rows[0]["text"]))
        nw, ns = 8, 2
        expect = int(round(W.FK_UNIT * (0.39 * nw / ns + 11.8 * nsyl / nw - 15.59)))
        assert out.loc[0, "fk_grade_micro"] == expect
        assert out.loc[0, "n_sentences"] == 2 and out.loc[0, "n_words"] == 8
        assert out.loc[1, "fk_grade_micro"] == 0
        # doc 2: one word, one "sentence" (no terminator still counts the
        # trailing fragment), zero syllables
        assert out.loc[2, "n_syllables"] == 1 or out.loc[2, "n_syllables"] == 0


class TestBigramLogprobRegimes:
    def test_join_regime_bit_equal_to_broadcast(self, ray_session, monkeypatch):
        import query_suite.pipelines.webtext as W

        sf = "/root/testdata/sf0.001"
        base = (
            W.q_doc_bigram_logprob(sf).to_pandas()
            .sort_values("doc_id").reset_index(drop=True)
        )
        monkeypatch.setattr(W, "LM_BROADCAST_BIGRAMS", -1)
        joined = (
            W.q_doc_bigram_logprob(sf).to_pandas()
            .sort_values("doc_id").reset_index(drop=True)
        )
        assert joined.equals(base)


class TestCorpusPmiRegimes:
    def test_join_regime_bit_equal_to_broadcast(self, ray_session, monkeypatch):
        import query_suite.pipelines.webtext as W

        sf = "/root/testdata/sf0.001"
        base = W.q_corpus_pmi(sf).reset_index(drop=True)
        monkeypatch.setattr(W, "LM_BROADCAST_BIGRAMS", -1)
        joined = W.q_corpus_pmi(sf).reset_index(drop=True)
        assert joined.equals(base)


class TestCorpusKnBigram:
    def test_hand_computed_kn(self, ray_session, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        import query_suite.pipelines.webtext as W

        d = tmp_path / "sf"
        d.mkdir()
        pq.write_table(
            pa.table({
                "doc_id": pa.array([0, 1, 2], pa.int64()),
                "text": pa.array(["a b a b c", "a b", "solo"], pa.string()),
            }),
            str(d / "documents.parquet"),
        )
        out = (
            W.q_corpus_kn_bigram(str(d))
            .to_pandas().set_index("doc_id").sort_index()
        )
        # counts: ab=3 ba=1 bc=1, T=3; c_a: a=3 b=2; N1p: a=1 b=2;
        # N1m: a=1 b=1 c=1
        # q(ab) = ((4*3-3)*3 + 3*1*1)*1e9 // (4*3*3) = 833_333_333
        # q(ba) = q(bc) = ((4-3)*3 + 3*2*1)*1e9 // (4*2*3) = 375_000_000
        assert out.loc[0, "n_bigrams"] == 4
        assert out.loc[0, "kn_nano_sum"] == 2 * 833_333_333 + 2 * 375_000_000
        assert out.loc[1, "n_bigrams"] == 1
        assert out.loc[1, "kn_nano_sum"] == 833_333_333
        # single-token doc scores zero but stays in the output
        assert out.loc[2, "n_bigrams"] == 0
        assert out.loc[2, "kn_nano_sum"] == 0


class TestRetrievalRrf:
    def test_fusion_boosts_doc_in_both_lists(self, ray_session, tmp_path):
        import numpy as np
        import pyarrow as pa
        import pyarrow.parquet as pq

        import query_suite.pipelines.queries as Q
        import query_suite.pipelines.webtext as W

        d = tmp_path / "sf"
        d.mkdir()
        # doc 0: weak lexical + strong dense; doc 1: strongest lexical,
        # no embedding; doc 2: dense only; docs 3+: filler
        texts = {
            0: "hash join pad pad pad pad",
            1: "hash join stream hash join stream",
            2: "nothing relevant here",
            3: "pad pad pad",
            4: "stream once pad pad pad pad pad pad",
        }
        pq.write_table(
            pa.table({
                "doc_id": pa.array(sorted(texts), pa.int64()),
                "text": pa.array([texts[i] for i in sorted(texts)],
                                 pa.string()),
            }),
            str(d / "documents.parquet"),
        )
        qv = Q._query_vector()
        qn = qv / np.linalg.norm(qv)
        rs = np.random.RandomState(11)
        vecs = {0: qn, 2: qn * 0.9, 3: rs.standard_normal(64) * 0.1,
                4: -qn}
        ids = sorted(vecs)
        pq.write_table(
            pa.table({"vec_id": pa.array(ids, pa.int64()),
                      "embedding": pa.array(
                          [vecs[i].tolist() for i in ids],
                          pa.list_(pa.float64()))}),
            str(d / "embeddings.parquet"),
        )
        out = W.q_retrieval_rrf(str(d)).set_index("doc_id")
        # doc 0 appears high in BOTH rankers -> fused rank 1
        assert out.loc[0, "rnk"] == 1
        # exact unit check: bm25 rank2 + dense rank1
        assert out.loc[0, "rrf_units"] == (
            W.RRF_UNIT // (W.RRF_K + 2) + W.RRF_UNIT // (W.RRF_K + 1)
        )
        # single-list docs fuse below the double-list doc
        assert out.loc[1, "rnk"] > 1
        assert 2 in out.index  # dense-only doc still surfaces


def _docs_lang(tmp_path, rows):
    """rows: list of (text, lang)."""
    import pyarrow.parquet as pq

    t = pa.Table.from_pylist(
        [{"doc_id": i, "text": s, "lang": lg} for i, (s, lg) in enumerate(rows)]
    )
    d = tmp_path / "sf"
    d.mkdir(exist_ok=True)
    pq.write_table(t, str(d / "documents.parquet"))
    return str(d)


class TestQualityAuc:
    def test_perfect_separation(self, ray_session, tmp_path):
        from query_suite.pipelines.webtext import q_quality_auc

        # en docs all-alpha (score 1000), others half digits (score < 1000)
        rows = [("abcd", "en"), ("wxyz", "en"), ("ab12", "de"), ("cd34 56", "fr")]
        out = q_quality_auc(_docs_lang(tmp_path, rows))
        assert out["n_pos"].iloc[0] == 2 and out["n_neg"].iloc[0] == 2
        assert out["auc_micro"].iloc[0] == 1_000_000

    def test_all_tied_is_half(self, ray_session, tmp_path):
        from query_suite.pipelines.webtext import q_quality_auc

        rows = [("abc", "en"), ("xyz", "de"), ("qrs", "en"), ("tuv", "fr")]
        out = q_quality_auc(_docs_lang(tmp_path, rows))
        assert out["auc_micro"].iloc[0] == 500_000

    def test_inverted_is_zero(self, ray_session, tmp_path):
        from query_suite.pipelines.webtext import q_quality_auc

        rows = [("1234", "en"), ("abcd", "de")]
        out = q_quality_auc(_docs_lang(tmp_path, rows))
        assert out["auc_micro"].iloc[0] == 0

    def test_degenerate_single_class(self, ray_session, tmp_path):
        from query_suite.pipelines.webtext import q_quality_auc

        rows = [("abcd", "en"), ("efgh", "en")]
        out = q_quality_auc(_docs_lang(tmp_path, rows))
        assert out["n_neg"].iloc[0] == 0 and out["auc_micro"].iloc[0] == 0


class TestCorpusMixPlan:
    def test_rates_and_epochs(self, ray_session, tmp_path):
        from query_suite.pipelines.webtext import (
            MIX_TOKEN_BUDGET,
            MIX_WEIGHTS_PPM,
            q_corpus_mix_plan,
        )

        # en: 8 tokens, zh: 2 tokens, xx: unknown lang (weight 0)
        rows = [("a b c d", "en"), ("e f g h", "en"), ("i j", "zh"), ("k", "xx")]
        out = q_corpus_mix_plan(_docs_lang(tmp_path, rows)).set_index("lang")
        en_alloc = MIX_WEIGHTS_PPM["en"] * MIX_TOKEN_BUDGET // 1_000_000
        assert out.loc["en", "n_tokens"] == 8
        assert out.loc["en", "alloc_tokens"] == en_alloc
        # tiny corpus -> massive upsampling: rate capped, epochs huge
        assert out.loc["en", "rate_ppm"] == 1_000_000
        assert out.loc["en", "epochs_milli"] == en_alloc * 1000 // 8
        assert out.loc["xx", "alloc_tokens"] == 0
        assert out.loc["xx", "rate_ppm"] == 0

    def test_downsampling_rate(self, ray_session, tmp_path):
        from query_suite.pipelines.webtext import q_corpus_mix_plan
        import query_suite.pipelines.webtext as W

        rows = [("a " * 100, "en"), ("b " * 100, "en")]
        orig_budget, orig_w = W.MIX_TOKEN_BUDGET, dict(W.MIX_WEIGHTS_PPM)
        try:
            W.MIX_TOKEN_BUDGET = 100  # alloc_en = 50 < 200 tokens on hand
            out = q_corpus_mix_plan(_docs_lang(tmp_path, rows)).set_index("lang")
            assert out.loc["en", "n_tokens"] == 200
            assert out.loc["en", "rate_ppm"] == 50 * 1_000_000 // 200
            assert out.loc["en", "epochs_milli"] == 250  # 0.25 epochs: downsampling
        finally:
            W.MIX_TOKEN_BUDGET, W.MIX_WEIGHTS_PPM = orig_budget, orig_w


class TestSearchNdcg:
    def test_perfect_ranking_is_one(self, ray_session, tmp_path):
        from query_suite.pipelines.webtext import q_search_ndcg

        # one doc covers all 3 query terms, rest are irrelevant -> the BM25
        # top-1 IS the ideal ranking -> NDCG exactly 1.0
        texts = ["hash join stream pipeline", "nothing here", "plain words"]
        out = q_search_ndcg(_docs(tmp_path, texts))
        assert out["ndcg_micro"].iloc[0] == 1_000_000
        assert out["dcg_micro"].iloc[0] == out["idcg_micro"].iloc[0] == 3_000_000

    def test_no_relevant_docs_is_zero(self, ray_session, tmp_path):
        from query_suite.pipelines.webtext import q_search_ndcg

        out = q_search_ndcg(_docs(tmp_path, ["alpha beta", "gamma delta"]))
        assert out["dcg_micro"].iloc[0] == 0
        assert out["idcg_micro"].iloc[0] == 0
        assert out["ndcg_micro"].iloc[0] == 0

    def test_graded_gains_follow_term_coverage(self, ray_session, tmp_path):
        from query_suite.pipelines.webtext import NDCG_DISC, q_search_ndcg

        # rel grades: doc0=3 terms, doc1=2, doc2=1; BM25 ranks them in that
        # order (more matching terms -> higher score on equal-length docs)
        texts = ["hash join stream", "hash join filler", "hash other filler"]
        out = q_search_ndcg(_docs(tmp_path, texts))
        want = 3 * NDCG_DISC[0] + 2 * NDCG_DISC[1] + 1 * NDCG_DISC[2]
        assert out["dcg_micro"].iloc[0] == want
        assert out["idcg_micro"].iloc[0] == want
        assert out["ndcg_micro"].iloc[0] == 1_000_000


class TestCorpusSimpson:
    def test_uniform_vs_collapsed(self, ray_session, tmp_path):
        from query_suite.pipelines.webtext import q_corpus_simpson

        # en: 4 distinct tokens once each -> sum_c2 = 0 -> Simpson 0
        # de: one token repeated 4 times -> collision prob 1.0
        rows = [("a b c d", "en"), ("x x x x", "de")]
        out = q_corpus_simpson(_docs_lang(tmp_path, rows)).set_index("lang")
        assert out.loc["en", "sum_c2"] == 0
        assert out.loc["en", "simpson_ppb"] == 0
        assert out.loc["de", "n_distinct"] == 1
        assert out.loc["de", "simpson_ppb"] == 1_000_000_000

    def test_cross_block_token_counts_merge(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        from query_suite.pipelines.webtext import q_corpus_simpson

        # the same token split across two parquet FILES (hence blocks):
        # global count must assemble to 4 (sum_c2 = 12), not 2+2 (2+2=4)
        d = tmp_path / "sf"
        d.mkdir(exist_ok=True)
        for i in range(2):
            t = pa.Table.from_pylist(
                [{"doc_id": i, "text": "tok tok", "lang": "en"}]
            )
            pq.write_table(t, str(d / f"documents_{i}.parquet"))
        import os
        os.rename(str(d / "documents_0.parquet"), str(d / "documents.parquet"))
        # ray read_parquet of the dir file: _read targets documents.parquet
        # only, so append the second file's rows into one file with 2 row
        # groups instead
        t = pa.Table.from_pylist(
            [{"doc_id": 0, "text": "tok tok", "lang": "en"},
             {"doc_id": 1, "text": "tok tok", "lang": "en"}]
        )
        pq.write_table(t, str(d / "documents.parquet"), row_group_size=1)
        out = q_corpus_simpson(str(d)).set_index("lang")
        assert out.loc["en", "n_tokens"] == 4
        assert out.loc["en", "sum_c2"] == 4 * 3  # one type, c=4


class TestRegexEngineSemantics:
    """Pin the intentional RE2 (ASCII \\s) semantics of the Arrow kernels
    used by webtext counts/splits on a corpus containing Unicode
    whitespace — the behavior note in the module docstring (the
    pandas-era Python-re path would have split on NBSP/\\u2028)."""

    def test_unicode_whitespace_semantics(self):
        import pyarrow.compute as pc
        import re

        s = "a b c d"  # NBSP between a,b; LINE SEP between c,d
        arr = pa.array([s])
        # RE2 \s is ASCII: only the plain space splits.
        arrow_toks = pc.split_pattern_regex(arr, r"\s+").to_pylist()[0]
        assert arrow_toks == ["a b", "c d"]
        # \S+ run count under RE2: 2 runs (NBSP/LINE SEP are \S).
        assert pc.count_substring_regex(arr, r"\S+").to_pylist() == [2]
        # Contrast: Python re (Unicode \s) splits all three gaps — the
        # behavior this module deliberately does NOT use for these ops.
        assert re.split(r"\s+", s) == ["a", "b", "c", "d"]

    def test_duckdb_oracle_agrees_with_arrow(self):
        import duckdb
        import pyarrow.compute as pc

        s = "a b c d"
        got = duckdb.sql(
            "SELECT len(list_filter(regexp_split_to_array(?, '\\s+'),"
            " x -> x <> ''))", params=[s]
        ).fetchone()[0]
        arrow_n = len(pc.split_pattern_regex(pa.array([s]), r"\s+").to_pylist()[0])
        assert got == arrow_n == 2
