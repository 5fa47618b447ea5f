"""Operator-level tests: dedup (constructed near-duplicates), similarity
search recall, multimodal plumbing, and query determinism."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from query_suite.pipelines.queries import (
    _minhash_sig,
    _query_vector,
    _shingles,
    _simhash64,
)
from query_suite.stages.multimodal import (
    FEATURE_DIM,
    DecoderStub,
    MediaFeatureExtractor,
    RealDecoderUnavailable,
)


class TestMinHash:
    def test_identical_texts_identical_signatures(self):
        t = "the quick brown fox jumps over the lazy dog again and again"
        assert np.array_equal(_minhash_sig(_shingles(t)), _minhash_sig(_shingles(t)))

    def test_near_duplicates_share_most_of_signature(self):
        a = " ".join(f"word{i}" for i in range(200))
        b = a + " tail extra"  # tiny edit
        sa, sb = _minhash_sig(_shingles(a)), _minhash_sig(_shingles(b))
        agreement = (sa == sb).mean()
        assert agreement > 0.85  # est. Jaccard of near-dups

    def test_unrelated_texts_low_agreement(self):
        a = " ".join(f"alpha{i}" for i in range(100))
        b = " ".join(f"beta{i}" for i in range(100))
        sa, sb = _minhash_sig(_shingles(a)), _minhash_sig(_shingles(b))
        assert (sa == sb).mean() < 0.2

    def test_lsh_pipeline_finds_planted_duplicates(self, ray_session, tmp_path):
        """Plant near-duplicate docs in a documents.parquet and check the
        full MinHash+LSH query surfaces exactly the planted pairs."""
        import pyarrow.parquet as pq

        from query_suite.pipelines.queries import q_dedup_minhash_lsh

        base = " ".join(f"token{i % 37} filler{i % 11}" for i in range(300))
        rows = []
        for i in range(30):
            rows.append({"doc_id": i, "text": f"unique doc {i} " + " ".join(f"w{i}x{j}" for j in range(150)), "lang": "en"})
        rows.append({"doc_id": 100, "text": base, "lang": "en"})
        rows.append({"doc_id": 101, "text": base + " tiny tail", "lang": "en"})
        rows.append({"doc_id": 102, "text": base, "lang": "en"})  # exact dup of 100
        d = tmp_path / "sf"
        d.mkdir()
        pq.write_table(pa.Table.from_pylist(rows), str(d / "documents.parquet"))

        pairs = q_dedup_minhash_lsh(str(d))
        got = {tuple(p) for p in pairs[["doc_id_a", "doc_id_b"]].itertuples(index=False)}
        assert (100, 101) in got
        assert (100, 102) in got
        assert (101, 102) in got
        # no false positives among the unique docs
        assert all(a >= 100 and b >= 100 for a, b in got)

        # Branch equality: forcing the over-cap hash-join text attachment
        # must produce the identical verified pairs as the broadcast path
        # (which the small fixture takes by default).
        from query_suite.pipelines import queries as Q

        old_cap = Q.MINHASH_BROADCAST_TEXT_BYTES
        Q.MINHASH_BROADCAST_TEXT_BYTES = 0
        try:
            pairs_join = q_dedup_minhash_lsh(str(d))
        finally:
            Q.MINHASH_BROADCAST_TEXT_BYTES = old_cap
        lhs = pairs.sort_values(["doc_id_a", "doc_id_b"]).reset_index(drop=True)
        rhs = pairs_join.sort_values(["doc_id_a", "doc_id_b"]).reset_index(drop=True)
        assert lhs.equals(rhs)


class TestSimHash:
    def test_deterministic(self):
        t = "some stable text for hashing purposes"
        assert _simhash64(t) == _simhash64(t)

    def test_near_duplicates_small_hamming_distance(self):
        a = " ".join(f"word{i}" for i in range(100))
        b = a + " extra"
        d = bin(_simhash64(a) ^ _simhash64(b)).count("1")
        assert d <= 6

    def test_unrelated_large_hamming_distance(self):
        a = " ".join(f"alpha{i}" for i in range(100))
        b = " ".join(f"beta{i}" for i in range(100))
        d = bin(_simhash64(a) ^ _simhash64(b)).count("1")
        assert d >= 20


class TestSimilaritySearch:
    def test_ann_recall_vs_brute_force(self, ray_session, tmp_path):
        """LSH-bucketed ANN must recover a decent fraction of the true top-k
        on a corpus with planted near-query vectors."""
        import pyarrow.parquet as pq

        from query_suite.pipelines.queries import q_ann_lsh, q_knn_cosine

        rs = np.random.RandomState(7)
        q = _query_vector()
        vecs = rs.standard_normal((400, 64)).astype(np.float32)
        # plant 10 vectors very close to the query
        for i in range(10):
            vecs[i] = (q + rs.standard_normal(64) * 0.05).astype(np.float32)
        t = pa.table(
            {
                "vec_id": pa.array(range(400), pa.int64()),
                "embedding": pa.array([v.tolist() for v in vecs], pa.list_(pa.float32())),
                "label": pa.array([0] * 400, pa.int32()),
            }
        )
        d = tmp_path / "sf"
        d.mkdir()
        pq.write_table(t, str(d / "embeddings.parquet"))

        exact = set(q_knn_cosine(str(d))["vec_id"])
        approx = set(q_ann_lsh(str(d))["vec_id"])
        assert exact == set(range(10))  # brute force finds the planted ones
        recall = len(exact & approx) / len(exact)
        assert recall >= 0.5  # hyperplane LSH with 1-bit probing


class TestMultimodal:
    def _batch(self):
        return pa.Table.from_pylist(
            [
                {"media_id": 1, "media_type": "image", "media": b"\x89PNG fake bytes"},
                {"media_id": 2, "media_type": "audio", "media": b"RIFF fake wav"},
                {"media_id": 3, "media_type": "video", "media": None},
            ],
            schema=pa.schema(
                [("media_id", pa.int64()), ("media_type", pa.string()), ("media", pa.binary())]
            ),
        )

    def test_stub_decoder_deterministic(self):
        ex = MediaFeatureExtractor()
        out1, out2 = ex(self._batch()), ex(self._batch())
        assert out1.equals(out2)
        assert out1["sha256"].to_pylist()[0] == out1["sha256"].to_pylist()[0]
        feats = out1["features"].to_pylist()[0]
        assert len(feats) == FEATURE_DIM
        assert all(0.0 <= f <= 1.0 for f in feats)

    def test_audio_gets_duration_image_does_not(self):
        out = MediaFeatureExtractor()(self._batch())
        rows = out.to_pylist()
        assert rows[0]["duration_ms"] == 0      # image
        assert rows[1]["duration_ms"] > 0        # audio

    def test_real_decoder_unavailable_raises(self):
        ex = MediaFeatureExtractor(decoder=RealDecoderUnavailable())
        with pytest.raises(NotImplementedError):
            ex(self._batch())

    def test_decode_failure_isolates(self):
        class Flaky:
            def decode(self, payload, media_type):
                if not payload:
                    raise ValueError("empty")
                return DecoderStub().decode(payload, media_type)

        out = MediaFeatureExtractor(decoder=Flaky())(self._batch())
        rows = out.to_pylist()
        assert rows[0]["decode_ok"] is True
        assert rows[2]["decode_ok"] is False  # None payload -> isolated failure


def _write_embeddings(tmp_path, vecs):
    import pyarrow.parquet as pq

    t = pa.table(
        {
            "vec_id": pa.array(range(len(vecs)), pa.int64()),
            "embedding": pa.array([v.tolist() for v in vecs], pa.list_(pa.float32())),
            "label": pa.array([0] * len(vecs), pa.int32()),
        }
    )
    d = tmp_path / "sf"
    d.mkdir(exist_ok=True)
    pq.write_table(t, str(d / "embeddings.parquet"))
    return str(d)


class TestIvfAnn:
    def test_ivf_recall_on_planted_cluster(self, ray_session, tmp_path):
        """The planted near-query vectors form a tight cluster the coarse
        quantizer isolates, so probing IVF_NPROBE lists recovers them."""
        from query_suite.pipelines.queries import q_ann_ivf, q_knn_cosine

        rs = np.random.RandomState(11)
        q = _query_vector()
        vecs = rs.standard_normal((400, 64)).astype(np.float32)
        for i in range(10):
            vecs[i] = (q + rs.standard_normal(64) * 0.05).astype(np.float32)
        d = _write_embeddings(tmp_path, vecs)

        exact = set(q_knn_cosine(d)["vec_id"])
        approx = set(q_ann_ivf(d)["vec_id"])
        assert exact == set(range(10))
        assert len(exact & approx) / len(exact) >= 0.8

    def test_ivf_deterministic(self, ray_session, tmp_path):
        from query_suite.pipelines.queries import q_ann_ivf

        rs = np.random.RandomState(12)
        d = _write_embeddings(tmp_path, rs.standard_normal((300, 64)).astype(np.float32))
        a = q_ann_ivf(d)["vec_id"].tolist()
        b = q_ann_ivf(d)["vec_id"].tolist()
        assert a == b


class TestEmbeddingNearDup:
    def test_planted_near_dups_found(self, ray_session, tmp_path):
        from query_suite.pipelines.queries import q_dedup_embedding

        rs = np.random.RandomState(13)
        vecs = rs.standard_normal((200, 64)).astype(np.float32)
        # make 1 a near-copy of 0, and 3 an exact copy of 2
        vecs[1] = vecs[0] + rs.standard_normal(64).astype(np.float32) * 0.01
        vecs[3] = vecs[2]
        d = _write_embeddings(tmp_path, vecs)

        pairs = q_dedup_embedding(d).to_pandas()
        got = {tuple(p) for p in pairs[["vec_id_a", "vec_id_b"]].itertuples(index=False)}
        assert (0, 1) in got
        assert (2, 3) in got
        # unrelated gaussian pairs sit far below the 0.4 threshold in 64-dim
        assert all(a < b for a, b in got)


class TestScalarExtractorQueries:
    def _docs(self, tmp_path, texts):
        import pyarrow.parquet as pq

        t = pa.Table.from_pylist(
            [{"doc_id": i, "text": s, "lang": "en"} for i, s in enumerate(texts)]
        )
        d = tmp_path / "sf"
        d.mkdir(exist_ok=True)
        pq.write_table(t, str(d / "documents.parquet"))
        return str(d)

    def test_extract_numbers_and_dates_counts(self, ray_session, tmp_path):
        from query_suite.pipelines.queries import q_doc_extract_numbers

        d = self._docs(
            tmp_path,
            ["Paid 1,234.56 on 2021-03-04 and 5 Jan 2022.", "no digits here", ""],
        )
        out = q_doc_extract_numbers(d).to_pandas().sort_values("doc_id")
        # "1,234.56", "5", plus digit runs inside the two date strings
        assert out["n_dates"].tolist() == [2, 0, 0]
        assert out["n_numbers"].tolist()[1:] == [0, 0]
        assert out["n_numbers"].tolist()[0] >= 2

    def test_strip_headers_matches_pure_fn(self, ray_session, tmp_path):
        from query_suite.functions.text_utils import remove_page_headers_footers
        from query_suite.pipelines.queries import q_doc_strip_headers

        texts = ["Page 1\nreal content line\n42\n---\nab\nmore text here"]
        d = self._docs(tmp_path, texts)
        out = q_doc_strip_headers(d).to_pandas()
        assert out["stripped_text"].tolist() == [remove_page_headers_footers(texts[0])]
        assert out["stripped_text"].iloc[0] == "real content line\nmore text here"

    def test_shingle_stats(self, ray_session, tmp_path):
        from query_suite.pipelines.queries import q_doc_shingle_stats

        d = self._docs(tmp_path, ["a b c d", "a b", "", "x x x x x"])
        out = q_doc_shingle_stats(d).to_pandas().sort_values("doc_id")
        # "a b c d" -> {"a b c","b c d"}; "a b" -> 1 (short); "" -> 0; repeated -> 1 distinct
        assert out["n_shingles"].tolist() == [2, 1, 0, 1]


class TestHashJoin:
    """The general co-partitioned shuffle hash join (relational.hash_join) and
    the two fact-sized-dimension queries that round 2 flagged for using a
    driver-collected customer broadcast."""

    def test_inner_many_to_many_matches_pandas_merge(self, ray_session):
        import ray.data as rd

        from query_suite.pipelines.relational import hash_join

        left = pd.DataFrame({
            "k": [1, 1, 2, 3, 5],          # key 5 unmatched on the right
            "lv": [10, 11, 20, 30, 50],
        })
        right = pd.DataFrame({
            "rk": [1, 2, 2, 4],            # key 4 unmatched on the left
            "rv": ["a", "b", "c", "d"],
        })
        out = hash_join(
            rd.from_pandas(left).repartition(3),
            rd.from_pandas(right).repartition(2),
            left_on="k", right_on="rk", key_type=pa.int64(),
            left_fields=[pa.field("lv", pa.int64())],
            right_fields=[pa.field("rv", pa.string())],
        ).to_pandas()
        expect = left.merge(right, left_on="k", right_on="rk")[["k", "lv", "rv"]]
        key = lambda df: sorted(map(tuple, df[["k", "lv", "rv"]].to_numpy()))
        assert key(out) == key(expect)
        assert list(out.columns) == ["k", "lv", "rv"]

    def test_dedup_left_drops_duplicate_left_rows(self, ray_session):
        """dedup_left=True joins each DISTINCT left row once (the fused
        candidate-pair dedup shape), and the flag rejects the combinations
        it cannot keep exact."""
        import ray.data as rd

        from query_suite.pipelines.relational import hash_join

        left = pd.DataFrame({
            "k": [1, 1, 1, 2, 2],
            "lv": [10, 10, 11, 20, 20],   # (1,10) x2 and (2,20) x2
        })
        right = pd.DataFrame({"rk": [1, 2], "rv": ["a", "b"]})
        out = hash_join(
            rd.from_pandas(left).repartition(3),
            rd.from_pandas(right).repartition(2),
            left_on="k", right_on="rk", key_type=pa.int64(),
            left_fields=[pa.field("lv", pa.int64())],
            right_fields=[pa.field("rv", pa.string())],
            dedup_left=True,
        ).to_pandas()
        got = sorted(map(tuple, out[["k", "lv", "rv"]].to_numpy()))
        assert got == [(1, 10, "a"), (1, 11, "a"), (2, 20, "b")]

        for bad in (dict(salt=2), dict(combine_left_sum=True)):
            with pytest.raises(ValueError):
                hash_join(
                    rd.from_pandas(left), rd.from_pandas(right),
                    left_on="k", right_on="rk", key_type=pa.int64(),
                    left_fields=[pa.field("lv", pa.int64())],
                    right_fields=[pa.field("rv", pa.string())],
                    dedup_left=True, **bad,
                )

    def test_left_semi_anti_flavors_match_pandas(self, ray_session):
        """how='left'/'semi'/'anti' vs pandas merge semantics, including
        unmatched-left null padding and empty-right-side shards."""
        import ray.data as rd

        from query_suite.pipelines.relational import hash_join

        left = pd.DataFrame({"k": [1, 1, 2, 3, 5], "lv": [10, 11, 20, 30, 50]})
        right = pd.DataFrame({"rk": [1, 2, 2, 4], "rv": ["a", "b", "c", "d"]})
        args = dict(
            left_on="k", right_on="rk", key_type=pa.int64(),
            left_fields=[pa.field("lv", pa.int64())],
            right_fields=[pa.field("rv", pa.string())],
        )

        def run(how):
            return hash_join(
                rd.from_pandas(left).repartition(3),
                rd.from_pandas(right).repartition(2),
                how=how, **args,
            ).to_pandas()

        out = run("left")
        expect = left.merge(right, left_on="k", right_on="rk", how="left")
        assert sorted(map(tuple, out[["k", "lv"]].to_numpy())) == sorted(
            map(tuple, expect[["k", "lv"]].to_numpy())
        )
        # unmatched keys (3, 5) carry nulls in the right field
        assert out.loc[out["k"].isin([3, 5]), "rv"].isna().all()

        semi = run("semi")
        assert sorted(map(tuple, semi.to_numpy())) == [(1, 10), (1, 11), (2, 20)]
        assert list(semi.columns) == ["k", "lv"]

        anti = run("anti")
        assert sorted(map(tuple, anti.to_numpy())) == [(3, 30), (5, 50)]
        assert list(anti.columns) == ["k", "lv"]

    def test_combine_right_sum_fuses_right_aggregate(self, ray_session):
        """Per-block right partials are reduced per key inside the shard
        merge — counts must match a plain groupby regardless of how the
        right side is blocked."""
        import ray.data as rd

        from query_suite.pipelines.relational import hash_join

        left = pd.DataFrame({"k": [1, 2, 3], "lv": [10, 20, 30]})
        right = pd.DataFrame({"rk": [1, 1, 1, 2], "n": [1, 1, 1, 1]})
        out = hash_join(
            rd.from_pandas(left).repartition(2),
            rd.from_pandas(right).repartition(3),  # key 1 spans blocks
            left_on="k", right_on="rk", key_type=pa.int64(),
            left_fields=[pa.field("lv", pa.int64())],
            right_fields=[pa.field("n", pa.int64())],
            combine_right_sum=True, how="left",
        ).to_pandas().sort_values("k")
        assert out["n"].fillna(0).astype(int).tolist() == [3, 1, 0]

    def test_join_queries_never_broadcast_the_fact_side(self):
        """q_segment_order_stats / q_top_orders_per_segment must use the
        shuffle hash join — no ray.put broadcast of the customer table and no
        Dataset-level to_pandas (per-batch t.to_pandas() inside UDFs is fine)."""
        import inspect

        from query_suite.pipelines.relational import (
            q_segment_order_stats,
            q_top_orders_per_segment,
        )

        for fn in (q_segment_order_stats, q_top_orders_per_segment):
            src = inspect.getsource(fn)
            assert "ray.put" not in src
            assert "hash_join(" in src
            # every to_pandas is a per-batch Arrow-table conversion
            assert src.count(".to_pandas()") == src.count("t.to_pandas()")

    def test_chained_joins_match_duckdb(self, ray_session, tmp_path):
        """q_top_unshipped_orders: two hash_joins chained (semi then
        fused-combine inner) must reproduce the 3-table SQL exactly,
        including both read-side date filters and the revenue tiebreak."""
        import duckdb
        import pyarrow.parquet as pq

        from query_suite.pipelines.relational import (
            SQL_TOP_UNSHIPPED_ORDERS,
            q_top_unshipped_orders,
        )

        rng = np.random.default_rng(7)
        d = tmp_path / "sf"
        d.mkdir()
        n_cust, n_ord, n_li = 40, 200, 600
        cust = pa.table({
            "c_custkey": pa.array(range(n_cust), pa.int64()),
            "c_mktsegment": pa.array(
                [["BUILDING", "AUTO", "HOUSE"][i % 3] for i in range(n_cust)]
            ),
        })
        odate = pd.Timestamp("1995-06-01") + pd.to_timedelta(
            rng.integers(0, 700, n_ord), unit="D"
        )
        orders = pa.table({
            "o_orderkey": pa.array(range(n_ord), pa.int64()),
            "o_custkey": pa.array(rng.integers(0, n_cust, n_ord), pa.int64()),
            "o_orderdate": pa.array(odate, pa.timestamp("us")),
        })
        sdate = pd.Timestamp("1995-06-01") + pd.to_timedelta(
            rng.integers(0, 800, n_li), unit="D"
        )
        li = pa.table({
            "l_orderkey": pa.array(rng.integers(0, n_ord, n_li), pa.int64()),
            "l_extendedprice": pa.array(
                np.round(rng.uniform(100, 9000, n_li), 2)
            ),
            "l_discount": pa.array(np.round(rng.uniform(0, 0.1, n_li), 2)),
            "l_shipdate": pa.array(sdate, pa.timestamp("us")),
        })
        pq.write_table(cust, str(d / "customer.parquet"))
        pq.write_table(orders, str(d / "orders.parquet"))
        pq.write_table(li, str(d / "lineitem.parquet"))

        got = q_top_unshipped_orders(str(d))
        con = duckdb.connect()
        for name in ("customer", "orders", "lineitem"):
            con.execute(
                f"CREATE VIEW {name} AS SELECT * FROM '{d / (name + '.parquet')}'"
            )
        want = con.execute(SQL_TOP_UNSHIPPED_ORDERS).fetchdf()
        assert got["l_orderkey"].tolist() == want["l_orderkey"].tolist()
        assert got["revenue_cents"].tolist() == want["revenue_cents"].tolist()
        assert got["o_orderdate"].tolist() == want["o_orderdate"].tolist()


class TestAsofJoin:
    def test_asof_matches_reference_semantics(self, ray_session, tmp_path):
        """Distributed as-of join vs a straightforward per-row computation."""
        import pyarrow.parquet as pq

        from query_suite.pipelines.relational import q_events_asof_orders

        d = tmp_path / "sf"
        d.mkdir()
        ev = pa.table({
            "user_id": pa.array([1, 1, 2, 3], pa.int32()),
            "ts": pa.array(
                pd.to_datetime(["2020-06-01", "2020-01-15", "2020-06-01", "2020-06-01"]),
                pa.timestamp("us"),
            ),
            "event_type": pa.array(["a"] * 4),
            "value": pa.array([1.0] * 4),
        })
        orders = pa.table({
            "o_orderkey": pa.array([10, 11, 12, 13], pa.int64()),
            "o_custkey": pa.array([1, 1, 2, 2], pa.int32()),
            "o_orderdate": pa.array(
                pd.to_datetime(["2020-01-01", "2020-05-01", "2020-07-01", "2019-12-31"]),
                pa.timestamp("us"),
            ),
            "o_totalprice": pa.array([1.0] * 4),
        })
        pq.write_table(ev, str(d / "events.parquet"))
        pq.write_table(orders, str(d / "orders.parquet"))

        out = q_events_asof_orders(str(d)).to_pandas()
        got = {
            (int(r.user_id), str(pd.Timestamp(r.ts).date()), str(pd.Timestamp(r.last_order_date).date()))
            for r in out.itertuples(index=False)
        }
        assert got == {
            (1, "2020-06-01", "2020-05-01"),   # latest of user 1's two orders
            (1, "2020-01-15", "2020-01-01"),   # earlier event -> earlier order
            (2, "2020-06-01", "2019-12-31"),   # 2020-07-01 is in the future
            # user 3 has no orders -> dropped (inner as-of)
        }


class TestWindowedRelationalOps:
    def _write(self, tmp_path, name, table):
        import pyarrow.parquet as pq

        d = tmp_path / "sf"
        d.mkdir(exist_ok=True)
        pq.write_table(table, str(d / f"{name}.parquet"))
        return str(d)

    def test_sliding_window_counts_gaps_as_zero(self, ray_session, tmp_path):
        """An hour gap must NOT leak counts into the 3-hour frame."""
        from query_suite.pipelines.relational import q_events_sliding_window

        ts = pd.to_datetime([
            "2024-01-01 00:10", "2024-01-01 00:20",   # hour 0: 2 events
            "2024-01-01 01:10",                        # hour 1: 1 event
            "2024-01-01 04:10",                        # hour 4 (gap at 2,3)
        ])
        d = self._write(tmp_path, "events", pa.table({
            "ts": pa.array(ts, pa.timestamp("us")),
            "event_type": pa.array(["x"] * 4),
            "user_id": pa.array([1] * 4, pa.int32()),
            "value": pa.array([0.0] * 4),
        }))
        out = q_events_sliding_window(d).to_pandas().sort_values("hour")
        got = dict(zip(out["hour"].dt.hour, out["n_3h"]))
        # hour 0 -> 2; hour 1 -> 2+1; hour 4 -> only itself (hours 2,3 empty)
        assert got == {0: 2, 1: 3, 4: 1}

    def test_topn_rank_ties_break_by_orderkey(self, ray_session, tmp_path):
        from query_suite.pipelines.relational import (
            TOPN_PER_SEGMENT,
            q_top_orders_per_segment,
        )

        d = self._write(tmp_path, "customer", pa.table({
            "c_custkey": pa.array([1, 2], pa.int32()),
            "c_mktsegment": pa.array(["A", "A"]),
        }))
        self._write(tmp_path, "orders", pa.table({
            "o_orderkey": pa.array([30, 10, 20, 40], pa.int64()),
            "o_custkey": pa.array([1, 1, 2, 2], pa.int32()),
            "o_totalprice": pa.array([5.0, 5.0, 5.0, 1.0]),
        }))
        out = (
            q_top_orders_per_segment(d)
            .to_pandas()
            .sort_values("rank")
        )
        # three-way price tie -> orderkey ascending wins; rank 3 of 3 kept
        assert out["o_orderkey"].tolist() == [10, 20, 30][:TOPN_PER_SEGMENT]
        assert out["rank"].tolist() == [1, 2, 3]

    def test_anti_join_excludes_only_big_order_customers(self, ray_session, tmp_path):
        from query_suite.pipelines.relational import (
            HIGH_VALUE_CUT,
            q_customers_without_big_orders,
        )

        d = self._write(tmp_path, "customer", pa.table({
            "c_custkey": pa.array([1, 2, 3], pa.int32()),
            "c_mktsegment": pa.array(["A", "B", "C"]),
        }))
        self._write(tmp_path, "orders", pa.table({
            "o_orderkey": pa.array([10, 11], pa.int64()),
            "o_custkey": pa.array([1, 2], pa.int32()),
            "o_totalprice": pa.array([HIGH_VALUE_CUT + 1, HIGH_VALUE_CUT - 1]),
        }))
        out = q_customers_without_big_orders(d).to_pandas()
        # 1 has a big order (excluded); 2 only a small one; 3 none at all
        assert sorted(out["c_custkey"].tolist()) == [2, 3]


class TestSimHashPairs:
    def test_banding_finds_planted_near_dups(self, ray_session, tmp_path):
        """Hamming<=3 pairs must survive the 4x16-bit banding (pigeonhole)."""
        import pyarrow.parquet as pq

        from query_suite.pipelines.queries import q_dedup_simhash_pairs

        base = " ".join(f"tok{i % 53} w{i % 17}" for i in range(400))
        rows = [
            {"doc_id": i, "text": f"doc {i} " + " ".join(f"u{i}v{j}" for j in range(120)), "lang": "en"}
            for i in range(25)
        ]
        rows.append({"doc_id": 100, "text": base, "lang": "en"})
        rows.append({"doc_id": 101, "text": base, "lang": "en"})          # exact dup
        rows.append({"doc_id": 102, "text": base + " tail", "lang": "en"})  # near dup
        d = tmp_path / "sf"
        d.mkdir()
        pq.write_table(pa.Table.from_pylist(rows), str(d / "documents.parquet"))

        pairs = q_dedup_simhash_pairs(str(d))
        got = {tuple(p) for p in pairs[["doc_id_a", "doc_id_b"]].itertuples(index=False)}
        assert (100, 101) in got  # exact dup: hamming 0
        assert all(h <= 3 for h in pairs["hamming"])
        # no pair between two unrelated docs
        assert not any(a < 100 and b < 100 for a, b in got)

    def test_bpe_token_counts_basic(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        from query_suite.pipelines.queries import _BPE_RX, q_doc_bpe_token_counts

        texts = ["It's a test, with 42 numbers!", ""]
        d = tmp_path / "sf"
        d.mkdir()
        pq.write_table(
            pa.Table.from_pylist(
                [{"doc_id": i, "text": t, "lang": "en"} for i, t in enumerate(texts)]
            ),
            str(d / "documents.parquet"),
        )
        out = q_doc_bpe_token_counts(d.as_posix()).to_pandas().sort_values("doc_id")
        assert out["n_bpe_tokens"].tolist() == [len(_BPE_RX.findall(texts[0])), 0]
        # "It" "'s" " a" " test" "," " with" " 42" " numbers" "!"
        assert out["n_bpe_tokens"].iloc[0] == 9


class TestSketchesAndQuantiles:
    def test_hll_accuracy_and_merge(self):
        """HLL estimate within 4% at several cardinalities, and merging two
        half-sketches equals sketching the union (mergeability)."""
        from query_suite.pipelines.relational import _hll_estimate, _hll_registers

        for true_n in (150, 1500, 20000):
            est = _hll_estimate(_hll_registers(range(true_n)))
            assert abs(est - true_n) / true_n < 0.04

        a = _hll_registers(range(0, 5000))
        b = _hll_registers(range(2500, 7500))
        merged = np.maximum(a, b)
        assert np.array_equal(merged, _hll_registers(range(0, 7500)))

    def test_hll_query_end_to_end(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        from query_suite.pipelines.relational import q_distinct_users_hll

        n_users = 137
        rows = [{"user_id": i % n_users, "ts": pd.Timestamp("2024-01-01"),
                 "event_type": "x", "value": 0.0} for i in range(3000)]
        d = tmp_path / "sf"
        d.mkdir()
        pq.write_table(pa.Table.from_pylist(rows), str(d / "events.parquet"))
        est = int(q_distinct_users_hll(str(d))["n_distinct_users_est"].iloc[0])
        assert abs(est - n_users) / n_users < 0.04

    def test_quantile_disc_convention(self, ray_session, tmp_path):
        """Pin the ceil(q*n)-1 sorted-index convention on a tiny group."""
        import pyarrow.parquet as pq

        from query_suite.pipelines.relational import q_order_price_quantiles

        prices = [10.0, 20.0, 30.0, 40.0]
        rows = [{"o_orderkey": i, "o_custkey": 1, "o_orderpriority": "1-URGENT",
                 "o_totalprice": p, "o_orderdate": pd.Timestamp("1995-01-01")}
                for i, p in enumerate(prices)]
        d = tmp_path / "sf"
        d.mkdir()
        pq.write_table(pa.Table.from_pylist(rows), str(d / "orders.parquet"))
        out = q_order_price_quantiles(str(d)).to_pandas()
        row = out.iloc[0]
        assert row["n_orders"] == 4
        assert row["p50"] == 20.0   # ceil(0.5*4)-1 = idx 1
        assert row["p90"] == 40.0   # ceil(3.6)-1 = idx 3
        assert row["p99"] == 40.0

    def test_tdigest_quantiles_within_error_bound(self, ray_session, tmp_path):
        """Mergeable t-digest partials vs exact quantiles: rank error must
        stay within ~1/delta at the median and tighter at the tails."""
        import pyarrow.parquet as pq

        from query_suite.pipelines.relational import q_order_price_tdigest

        rs = np.random.RandomState(5)
        n = 20_000
        prices = np.concatenate([
            rs.lognormal(10, 0.6, n // 2),        # skewed body
            rs.uniform(1.0, 100.0, n // 2),       # flat tail filler
        ])
        rows = [{"o_orderkey": i, "o_custkey": 1, "o_orderpriority": "1-URGENT",
                 "o_totalprice": float(p), "o_orderdate": pd.Timestamp("1995-01-01")}
                for i, p in enumerate(prices)]
        d = tmp_path / "sf"
        d.mkdir()
        pq.write_table(pa.Table.from_pylist(rows), str(d / "orders.parquet"))

        out = q_order_price_tdigest(str(d)).to_pandas().iloc[0]
        assert out["n_orders"] == n  # exact integer weight sum
        srt = np.sort(prices)
        for q, col in ((0.5, "p50_est"), (0.9, "p90_est"), (0.99, "p99_est")):
            est = out[col]
            # rank of the estimate must sit within 1.5% of the target rank
            rank = np.searchsorted(srt, est) / n
            assert abs(rank - q) < 0.015, (col, est, rank)

    def test_bloom_anti_join_exact_vs_plain(self, ray_session):
        """The bloom + recheck variant must return EXACTLY the plain
        anti-join's rows (bloom false positives rechecked, negatives kept)."""
        from query_suite.pipelines.relational import (
            q_customers_without_big_orders,
            q_customers_without_big_orders_bloom,
        )

        sf = "/root/testdata/sf0.001"
        key = lambda df: sorted(map(tuple, df[["c_custkey", "c_mktsegment"]].to_numpy()))
        plain = q_customers_without_big_orders(sf).to_pandas()
        bloom = q_customers_without_big_orders_bloom(sf).to_pandas()
        assert key(bloom) == key(plain)
        assert len(bloom) > 0


class TestDedupSkew:
    """Degenerate-bucket behavior: a mass of identical docs must not emit
    O(k^2) pairs (the bucket cap) and must finish quickly."""

    def _identical_corpus(self, tmp_path, n_dups: int, n_unique: int = 20):
        import pyarrow.parquet as pq

        base = " ".join(f"boiler{i % 29} plate{i % 13}" for i in range(200))
        rows = [{"doc_id": i, "text": base, "lang": "en"} for i in range(n_dups)]
        rows += [
            {"doc_id": 10_000 + i,
             "text": f"unique {i} " + " ".join(f"q{i}r{j}" for j in range(120)),
             "lang": "en"}
            for i in range(n_unique)
        ]
        d = tmp_path / "sf"
        d.mkdir()
        pq.write_table(pa.Table.from_pylist(rows), str(d / "documents.parquet"))
        return str(d)

    def test_minhash_bucket_cap_bounds_pairs(self, ray_session, tmp_path):
        from query_suite.pipelines.queries import (
            MINHASH_BUCKET_CAP,
            q_dedup_minhash_lsh,
        )

        n_dups = 1000
        d = self._identical_corpus(tmp_path, n_dups)
        pairs = q_dedup_minhash_lsh(d)
        max_pairs = MINHASH_BUCKET_CAP * (MINHASH_BUCKET_CAP - 1) // 2
        # capped: far fewer than the uncapped 1000*999/2 = 499500
        assert 0 < len(pairs) <= max_pairs
        # the kept ids are the lowest doc_ids (deterministic cap policy)
        assert pairs["doc_id_a"].max() < MINHASH_BUCKET_CAP
        assert (pairs["jaccard_pct"] == 100).all()

    def test_minhash_cap_eval_prices_the_drop(self, ray_session, tmp_path):
        """dedup_minhash_cap reports the exact pair count the cap forfeits
        on a degenerate mass-identical corpus — and zero on a natural one."""
        from query_suite.pipelines.queries import (
            MINHASH_BUCKET_CAP,
            q_dedup_minhash_cap,
        )

        n_dups = 1000
        d = self._identical_corpus(tmp_path, n_dups)
        out = q_dedup_minhash_cap(d).iloc[0]
        # all 16 bands hash the identical docs into one 1000-id bucket each
        cap_pairs = MINHASH_BUCKET_CAP * (MINHASH_BUCKET_CAP - 1) // 2
        full_pairs = n_dups * (n_dups - 1) // 2
        assert out["n_buckets_capped"] == 16
        assert out["pairs_before_cap"] == 16 * full_pairs
        assert out["pairs_kept"] == 16 * cap_pairs
        assert out["pairs_dropped_by_cap"] == 16 * (full_pairs - cap_pairs)

        # natural corpus: nothing capped
        nat = q_dedup_minhash_cap("/root/testdata/sf0.001").iloc[0]
        assert nat["n_buckets_capped"] == 0
        assert nat["pairs_dropped_by_cap"] == 0

    def test_simhash_full_pairs_within_cap(self, ray_session, tmp_path):
        """Below the cap, a mass-identical bucket yields the complete
        (correct) pair set via the tiled verify kernel — no silent drops."""
        from query_suite.pipelines.queries import q_dedup_simhash_pairs

        n_dups = 600  # > one verify tile (512): exercises cross-tile pairs
        d = self._identical_corpus(tmp_path, n_dups)
        pairs = q_dedup_simhash_pairs(d)
        assert len(pairs) == n_dups * (n_dups - 1) // 2
        assert (pairs["hamming"] == 0).all()

    def test_simhash_bucket_cap_bounds_pairs(self, ray_session, tmp_path, monkeypatch):
        from query_suite.pipelines import queries as Q

        monkeypatch.setattr(Q, "SIMHASH_BUCKET_CAP", 64)
        n_dups = 500
        d = self._identical_corpus(tmp_path, n_dups)
        pairs = Q.q_dedup_simhash_pairs(d)
        max_pairs = 64 * 63 // 2
        assert 0 < len(pairs) <= max_pairs
        # the kept ids are the lowest doc_ids (deterministic cap policy)
        assert pairs["doc_id_a"].max() < 64
        assert (pairs["hamming"] == 0).all()

    def test_simhash_vectorized_hamming_matches_scalar(self):
        import numpy as np

        rs = np.random.RandomState(5)
        h = rs.randint(0, 2**63, size=32, dtype=np.int64).astype(np.uint64)
        xor = h[:, None] ^ h[None, :]
        pop = np.unpackbits(
            np.ascontiguousarray(xor).view(np.uint8).reshape(32, 32, 8), axis=2
        ).sum(axis=2)
        for i in range(32):
            for j in range(32):
                assert pop[i, j] == bin(int(h[i]) ^ int(h[j])).count("1")


class TestEmbeddingDedupDistributed:
    def test_no_driver_side_materialization(self):
        """The exact near-dup join must never collect the full table to the
        driver or broadcast the whole matrix (the round-1 anti-pattern)."""
        import ast
        import inspect
        import textwrap

        from query_suite.pipelines.queries import q_dedup_embedding

        tree = ast.parse(textwrap.dedent(inspect.getsource(q_dedup_embedding)))
        fn = tree.body[0]
        fn.body = [  # drop the docstring; inspect CODE only
            n for n in fn.body
            if not (isinstance(n, ast.Expr) and isinstance(n.value, ast.Constant))
        ]
        src = ast.unparse(fn)
        # per-batch Arrow-column conversion is fine; a Dataset-level
        # .to_pandas() (full-table collect) or ray.put broadcast is not
        assert ".to_pandas()" not in src.replace("'embedding'].to_pandas()", "")
        assert "ray.put" not in src

    def test_lsh_variant_finds_planted_dups_no_false_positives(
        self, ray_session, tmp_path
    ):
        from query_suite.pipelines.queries import NEAR_DUP_SIM, q_dedup_embedding_lsh

        rs = np.random.RandomState(21)
        vecs = rs.standard_normal((200, 64)).astype(np.float32)
        # scaled copies: same direction -> identical hyperplane signature by
        # construction (a noisy copy could straddle a plane passing near it)
        vecs[1] = vecs[0] * np.float32(1.01)
        vecs[3] = vecs[2]
        d = _write_embeddings(tmp_path, vecs)

        pairs = q_dedup_embedding_lsh(d).to_pandas()
        got = {tuple(p) for p in pairs[["vec_id_a", "vec_id_b"]].itertuples(index=False)}
        # same-direction vectors share every hyperplane side -> same bucket
        assert (0, 1) in got
        assert (2, 3) in got
        # every emitted pair is truly above threshold (exact verify in-bucket)
        mat = vecs.astype(np.float64)
        mat /= np.linalg.norm(mat, axis=1)[:, None]
        for a, b in got:
            assert mat[a] @ mat[b] >= NEAR_DUP_SIM

    def test_exact_join_matches_bruteforce(self, ray_session, tmp_path):
        from query_suite.pipelines.queries import NEAR_DUP_SIM, q_dedup_embedding

        rs = np.random.RandomState(22)
        vecs = rs.standard_normal((150, 64)).astype(np.float32)
        for src_i, dst in ((0, 1), (2, 3), (4, 5), (6, 7)):
            vecs[dst] = vecs[src_i] + rs.standard_normal(64).astype(np.float32) * 0.02
        d = _write_embeddings(tmp_path, vecs)

        got = {
            tuple(p)
            for p in q_dedup_embedding(d)
            .to_pandas()[["vec_id_a", "vec_id_b"]]
            .itertuples(index=False)
        }
        mat = vecs.astype(np.float64)
        mat /= np.linalg.norm(mat, axis=1)[:, None]
        sims = mat @ mat.T
        want = {
            (a, b)
            for a in range(len(vecs))
            for b in range(a + 1, len(vecs))
            if sims[a, b] >= NEAR_DUP_SIM
        }
        assert got == want


class TestEmbeddingGeneration:
    def _docs(self, tmp_path, texts):
        import pyarrow.parquet as pq

        rows = [
            {"doc_id": i, "text": t, "lang": "en"} for i, t in enumerate(texts)
        ]
        d = tmp_path / "sf"
        d.mkdir()
        pq.write_table(pa.Table.from_pylist(rows), str(d / "documents.parquet"))
        return str(d)

    def test_feature_hash_embedder_deterministic_and_normalized(self):
        from query_suite.stages.embed_stage import EMBED_DIM, FeatureHashEmbedder

        e1, e2 = FeatureHashEmbedder(), FeatureHashEmbedder()
        t = "stream data engine query batch shard merge sort"
        v1, n1 = e1._embed_text(t)
        v2, n2 = e2._embed_text(t)
        assert n1 == n2 == 8
        assert np.array_equal(v1, v2)
        assert v1.dtype == np.float32 and len(v1) == EMBED_DIM
        assert abs(float(np.linalg.norm(v1.astype(np.float64))) - 1.0) < 1e-6
        # empty text -> zero vector, zero tokens
        v0, n0 = e1._embed_text("")
        assert n0 == 0 and not v0.any()

    def test_doc_embeddings_deterministic_across_runs(self, ray_session, tmp_path):
        from query_suite.pipelines.queries import q_doc_embeddings

        base = " ".join(f"tok{i % 31} word{i % 7}" for i in range(120))
        d = self._docs(tmp_path, [f"doc {i} {base}" for i in range(40)])

        a = q_doc_embeddings(d).to_pandas().sort_values("url").reset_index(drop=True)
        b = q_doc_embeddings(d).to_pandas().sort_values("url").reset_index(drop=True)
        assert (a["url"] == b["url"]).all()
        assert (a["n_tokens"] == b["n_tokens"]).all()
        for va, vb in zip(a["embedding"], b["embedding"]):
            assert np.array_equal(np.asarray(va), np.asarray(vb))

    def test_extract_dedup_near_finds_identical_docs(self, ray_session, tmp_path):
        from query_suite.pipelines.queries import q_extract_dedup_near

        base = " ".join(f"alpha{i % 23} beta{i % 11} gamma{i % 5}" for i in range(150))
        texts = [f"unique {i} " + " ".join(f"u{i}w{j}" for j in range(100)) for i in range(20)]
        texts += [base, base]  # doc_ids 20 and 21: identical -> sim 1.0
        d = self._docs(tmp_path, texts)

        pairs = q_extract_dedup_near(d).to_pandas()
        got = {tuple(p) for p in pairs[["url_a", "url_b"]].itertuples(index=False)}
        # doc 20/21 urls (documents_to_pages url scheme), both HTML branch
        want = ("https://docs.example/00000020", "https://docs.example/00000021")
        assert want in got

    def test_extract_knn_deterministic(self, ray_session, tmp_path):
        from query_suite.pipelines.queries import q_extract_knn

        rs = np.random.RandomState(9)
        vocab = [f"v{i}" for i in range(50)]
        texts = [
            " ".join(rs.choice(vocab) for _ in range(150)) for _ in range(60)
        ]
        d = self._docs(tmp_path, texts)
        a = q_extract_knn(d)
        b = q_extract_knn(d)
        assert a["url"].tolist() == b["url"].tolist()
        assert len(a) == 10
        assert (a["sim"].to_numpy() == b["sim"].to_numpy()).all()


class TestGopherFilter:
    def _docs(self, tmp_path, texts):
        import pyarrow.parquet as pq

        rows = [{"doc_id": i, "text": t, "lang": "en"} for i, t in enumerate(texts)]
        d = tmp_path / "sf"
        d.mkdir()
        pq.write_table(pa.Table.from_pylist(rows), str(d / "documents.parquet"))
        return str(d)

    def test_rules_trigger_individually(self, ray_session, tmp_path):
        from query_suite.pipelines.queries import q_doc_gopher_filter

        good = ("the data with all of that have to be " * 10).strip()  # 80 words
        texts = [
            good,                                   # 0: passes every rule
            "too short of the text",                # 1: < 50 words
            ("# " * 40 + good),                     # 2: symbol ratio
            "\n".join(["- bullet point here"] * 30) + "\nthe of",  # 3: bullets
            ("zz1! @@2? " * 30 + "the of and"),     # 4: alpha-word fraction
            ("xyzzy abcde fghij " * 30).strip(),    # 5: no stopwords
        ]
        d = self._docs(tmp_path, texts)
        out = q_doc_gopher_filter(d).to_pandas().set_index("doc_id")
        assert bool(out.loc[0, "keep"]) is True
        for i in range(1, 6):
            assert bool(out.loc[i, "keep"]) is False, i

    def test_repetition_counts(self, ray_session, tmp_path):
        from query_suite.pipelines.queries import q_doc_repetition

        texts = ["a\nb\na\nc", "unique\nlines\nonly", ""]
        d = self._docs(tmp_path, texts)
        out = q_doc_repetition(d).to_pandas().set_index("doc_id")
        assert out.loc[0, "n_lines"] == 4
        assert out.loc[0, "n_distinct_lines"] == 3
        assert out.loc[0, "dup_line_chars"] == 2  # both 'a' occurrences
        assert out.loc[1, "dup_line_chars"] == 0
        assert out.loc[2, "n_lines"] == 1  # ''.split('\n') == ['']


class TestMediaResizeAndFrames:
    def _media_batch(self):
        return pa.Table.from_pylist(
            [
                {"media_id": 1, "media_type": "image", "media": b"img payload bytes"},
                {"media_id": 2, "media_type": "video", "media": b"video payload bytes"},
                {"media_id": 3, "media_type": "audio", "media": b"audio payload"},
            ],
            schema=pa.schema(
                [("media_id", pa.int64()), ("media_type", pa.string()),
                 ("media", pa.binary())]
            ),
        )

    def test_resize_geometry_and_determinism(self):
        from query_suite.stages.multimodal import DecoderStub, MediaResize

        rz = MediaResize(target=64)
        out1, out2 = rz(self._media_batch()), rz(self._media_batch())
        assert out1.equals(out2)
        for row in out1.to_pylist():
            assert max(row["target_w"], row["target_h"]) == 64
            assert row["resize_ok"] is False
            assert row["resized_png"].startswith(b"\x89PNG")
        # aspect preserved vs the stub decoder's pseudo-dims (media_id 1)
        d = DecoderStub().decode(b"img payload bytes", "image")
        row = out1.to_pylist()[0]
        scale = 64 / max(d["width"], d["height"])
        assert row["target_w"] == max(1, round(d["width"] * scale))
        assert row["target_h"] == max(1, round(d["height"] * scale))

    def test_frame_sampler_only_video_and_interval(self):
        from query_suite.stages.multimodal import (
            FRAME_INTERVAL_MS,
            MAX_FRAMES,
            DecoderStub,
            FrameSampler,
        )

        out = FrameSampler()(self._media_batch())
        rows = out.to_pylist()
        assert all(r["media_id"] == 2 for r in rows)  # only the video row
        d = DecoderStub().decode(b"video payload bytes", "video")
        want_n = min(MAX_FRAMES, max(1, d["duration_ms"] // FRAME_INTERVAL_MS))
        assert len(rows) == want_n
        assert [r["frame_idx"] for r in rows] == list(range(want_n))
        assert all(r["ts_ms"] == r["frame_idx"] * FRAME_INTERVAL_MS for r in rows)
        assert all(not r["decode_ok"] for r in rows)


class TestDedupClusters:
    def test_transitive_chain_clusters_together(self, ray_session, tmp_path):
        """a~b and b~c must land in one cluster even when (a,c) is below
        the pair threshold — the transitivity the pair list alone lacks."""
        import pyarrow.parquet as pq

        from query_suite.pipelines.queries import q_dedup_clusters

        base = [f"tok{i % 41} fil{i % 13} w{i % 7}" for i in range(300)]
        extra1 = [f"ex1 word{i} more" for i in range(60)]
        extra2 = [f"ex2 word{i} other" for i in range(60)]
        rows = [
            {"doc_id": 1, "text": " ".join(base), "lang": "en"},
            {"doc_id": 2, "text": " ".join(base + extra1), "lang": "en"},
            {"doc_id": 3, "text": " ".join(base + extra1 + extra2), "lang": "en"},
        ]
        for i in range(10, 40):
            rows.append({"doc_id": i, "text": f"unique {i} " + " ".join(f"u{i}v{j}" for j in range(120)), "lang": "en"})
        d = tmp_path / "sf"
        d.mkdir()
        pq.write_table(pa.Table.from_pylist(rows), str(d / "documents.parquet"))

        out = q_dedup_clusters(str(d))
        by_doc = out.set_index("doc_id")
        assert set(by_doc.index) >= {1, 2, 3}
        assert by_doc.loc[2, "cluster_id"] == 1 and by_doc.loc[3, "cluster_id"] == 1
        assert by_doc.loc[1, "cluster_size"] == 3
        assert by_doc.loc[1, "is_canonical"] == 1
        assert by_doc.loc[2, "is_canonical"] == 0
        # unique docs never appear
        assert set(by_doc.index).isdisjoint(range(10, 40))


class TestOrdersLatestPerCustomer:
    def test_latest_with_date_tie(self, ray_session, tmp_path):
        import pandas as pd
        import pyarrow.parquet as pq

        from query_suite.pipelines.relational import q_orders_latest_per_customer

        d = tmp_path / "sf"
        d.mkdir()
        orders = pa.table({
            "o_orderkey": pa.array([10, 11, 12, 13, 14], pa.int64()),
            "o_custkey": pa.array([1, 1, 2, 2, 3], pa.int64()),
            "o_orderdate": pa.array(
                pd.to_datetime([
                    "2020-01-01", "2020-05-01",  # cust 1: 11 is latest
                    "2020-07-01", "2020-07-01",  # cust 2: date tie -> key 13
                    "2019-01-01",                 # cust 3: single order
                ]),
                pa.timestamp("us"),
            ),
            "o_totalprice": pa.array([1.0, 2.0, 3.0, 4.0, 5.0]),
        })
        pq.write_table(orders, str(d / "orders.parquet"))

        out = (
            q_orders_latest_per_customer(str(d))
            .to_pandas()
            .sort_values("o_custkey")
            .reset_index(drop=True)
        )
        assert out["o_custkey"].tolist() == [1, 2, 3]
        assert out["o_orderkey"].tolist() == [11, 13, 14]
        assert out["o_totalprice"].tolist() == [2.0, 4.0, 5.0]


class TestRangeJoinAndRunningWindow:
    def test_followup_counts_window_boundaries(self, ray_session, tmp_path):
        """Strictly-later lower bound, inclusive 30-day upper bound, no
        cross-customer counting."""
        import pyarrow.parquet as pq

        from query_suite.pipelines.relational import q_orders_followup_counts

        d = tmp_path / "sf"
        d.mkdir()
        orders = pa.table({
            "o_orderkey": pa.array([1, 2, 3, 4, 5], pa.int64()),
            "o_custkey": pa.array([7, 7, 7, 7, 9], pa.int64()),
            "o_orderdate": pa.array(
                pd.to_datetime([
                    "2020-01-01",  # counts Jan 31 (+30, inclusive); NOT its
                                   # same-day twin (not later) or Feb 1 (+31)
                    "2020-01-01",  # same-day twin of order 1
                    "2020-01-31",  # counts Feb 1 (+1)
                    "2020-02-01",  # nothing after it
                    "2020-01-02",  # other customer, inside the window
                ]),
                pa.timestamp("us"),
            ),
        })
        pq.write_table(orders, str(d / "orders.parquet"))
        out = (
            q_orders_followup_counts(str(d))
            .to_pandas()
            .sort_values("o_orderkey")
        )
        assert out["n_followups"].tolist() == [1, 1, 1, 0, 0]

    def test_running_value_per_user(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        from query_suite.pipelines.relational import q_user_running_value

        d = tmp_path / "sf"
        d.mkdir()
        ev = pa.table({
            "event_id": pa.array([3, 1, 2, 4], pa.int64()),
            "user_id": pa.array([1, 1, 2, 2], pa.int64()),
            "value": pa.array([0.5, 1.0, 2.0, 3.0]),
        })
        pq.write_table(ev, str(d / "events.parquet"))
        out = q_user_running_value(str(d)).to_pandas().sort_values("event_id")
        # user 1: id1=100, id3=100+50; user 2: id2=200, id4=200+300
        assert out["running_value_cents"].tolist() == [100, 200, 150, 500]


class TestAggregateExtensions:
    def _write(self, tmp_path, name, table):
        import pyarrow.parquet as pq

        d = tmp_path / "sf"
        d.mkdir(exist_ok=True)
        pq.write_table(table, str(d / f"{name}.parquet"))
        return str(d)

    def test_pivot_counts_and_closed_vocab(self, ray_session, tmp_path):
        from query_suite.pipelines.relational import q_user_event_pivot

        d = self._write(tmp_path, "events", pa.table({
            "user_id": pa.array([1, 1, 1, 2], pa.int32()),
            "event_type": pa.array(["click", "click", "view", "error"]),
        }))
        out = q_user_event_pivot(d).to_pandas().sort_values("user_id")
        assert out["n_click"].tolist() == [2, 0]
        assert out["n_view"].tolist() == [1, 0]
        assert out["n_error"].tolist() == [0, 1]

        (tmp_path / "b").mkdir()
        bad = self._write(tmp_path / "b", "events", pa.table({
            "user_id": pa.array([1], pa.int32()),
            "event_type": pa.array(["unknown_kind"]),
        }))
        with pytest.raises(Exception, match="out-of-vocabulary"):
            q_user_event_pivot(bad).to_pandas()

    def test_mode_tiebreak_smallest_size(self, ray_session, tmp_path):
        from query_suite.pipelines.relational import q_part_size_mode

        d = self._write(tmp_path, "part", pa.table({
            "p_type": pa.array(["a", "a", "a", "a", "b"]),
            "p_size": pa.array([7, 7, 3, 3, 9], pa.int32()),
        }))
        out = q_part_size_mode(d).to_pandas().sort_values("p_type")
        # type a: sizes 3 and 7 tie at 2 -> smallest (3) wins
        assert out["mode_size"].tolist() == [3, 9]
        assert out["n_mode"].tolist() == [2, 1]

    def test_corr_matches_numpy_and_is_parallelism_stable(self, ray_session, tmp_path):
        from query_suite.pipelines.relational import q_lineitem_corr

        rng = np.random.default_rng(3)
        n = 5000
        qty = rng.integers(1, 51, n).astype(float)
        price = qty * 1000 + rng.normal(0, 5000, n)
        d = self._write(tmp_path, "lineitem", pa.table({
            "l_returnflag": pa.array(["R"] * n),
            "l_quantity": pa.array(qty),
            "l_extendedprice": pa.array(np.abs(price)),
        }))
        out = q_lineitem_corr(d)
        x = np.round(qty).astype(np.int64)
        y = np.asarray(
            [float(np.floor(v + 0.5)) for v in np.abs(price)], dtype=np.int64
        )
        want = np.corrcoef(x, y)[0, 1]
        assert abs(out["corr_qty_price"].iloc[0] - want) < 1e-9
        # bit-stable across runs (integer partials -> same totals)
        again = q_lineitem_corr(d)
        assert out["corr_qty_price"].iloc[0] == again["corr_qty_price"].iloc[0]


class TestEventsPropsFallback:
    def test_dirty_json_tail_salvaged(self, ray_session, tmp_path):
        import pandas as pd
        import pyarrow as pa
        import pyarrow.parquet as pq

        from query_suite.pipelines.relational import q_events_props_stats

        rows = [
            {"event_type": "click", "props": '{"k": 10}'},      # fast path
            {"event_type": "click", "props": '{ "k" : 5 }'},    # regex miss -> salvage
            {"event_type": "click", "props": "{'k': 7}"},       # unsalvageable (P16
            #   parity: the suite doesn't repair single-quoted keys) -> 0
            {"event_type": "click", "props": "not json at all"},  # -> 0
            {"event_type": "view", "props": '{"k": 3}'},
        ]
        t = pa.Table.from_pylist(rows)
        d = tmp_path / "sf"
        d.mkdir(exist_ok=True)
        pq.write_table(t, str(d / "events.parquet"))
        out = (
            q_events_props_stats(str(d))
            .to_pandas()
            .set_index("event_type")
            .sort_index()
        )
        assert out.loc["click", "sum_k"] == 15 and out.loc["click", "n_events"] == 4
        assert out.loc["view", "sum_k"] == 3


class TestOrdersProfileNulls:
    def test_null_and_distinct_counts(self, ray_session, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from query_suite.pipelines.relational import q_orders_profile

        t = pa.Table.from_pylist(
            [
                {"o_orderkey": 1, "o_custkey": 1, "o_orderstatus": "O",
                 "o_totalprice": 1.5, "o_orderdate": None, "o_orderpriority": "1-URGENT"},
                {"o_orderkey": 2, "o_custkey": 1, "o_orderstatus": None,
                 "o_totalprice": 1.5, "o_orderdate": None, "o_orderpriority": "1-URGENT"},
                {"o_orderkey": 3, "o_custkey": 2, "o_orderstatus": "F",
                 "o_totalprice": 2.5, "o_orderdate": None, "o_orderpriority": "2-HIGH"},
            ],
            schema=pa.schema([
                ("o_orderkey", pa.int64()), ("o_custkey", pa.int64()),
                ("o_orderstatus", pa.string()), ("o_totalprice", pa.float64()),
                ("o_orderdate", pa.timestamp("us")), ("o_orderpriority", pa.string()),
            ]),
        )
        d = tmp_path / "sf"
        d.mkdir(exist_ok=True)
        pq.write_table(t, str(d / "orders.parquet"))
        out = q_orders_profile(str(d)).set_index("col")
        assert out.loc["o_orderstatus", "n_nulls"] == 1
        assert out.loc["o_orderdate", "n_nulls"] == 3
        assert out.loc["o_custkey", "n_distinct"] == 2
        assert out.loc["o_totalprice", "n_distinct"] == 2
        assert (out["n_rows"] == 3).all()


class TestHashJoinFullOuter:
    def test_full_outer_keeps_both_unmatched_sides(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from query_suite.pipelines.relational import hash_join

        left = rd.from_arrow(pa.table({"k": [1, 2, 2], "a": [10, 20, 21]}))
        right = rd.from_arrow(pa.table({"k": [2, 3], "b": [200, 300]}))
        out = hash_join(
            left, right, left_on="k", right_on="k", key_type=pa.int64(),
            left_fields=[pa.field("a", pa.int64())],
            right_fields=[pa.field("b", pa.int64())],
            how="full",
        ).to_pandas().sort_values(["k", "a"]).reset_index(drop=True)
        rows = [tuple(None if pd_isna(v) else int(v) for v in r)
                for r in out.itertuples(index=False)]
        assert rows == [
            (1, 10, None),        # left-only
            (2, 20, 200),         # matched (many-to-one)
            (2, 21, 200),
            (3, None, 300),       # right-only
        ]


def pd_isna(v):
    import pandas as pd

    return pd.isna(v)


class TestExchangeShardInvariance:
    """Results of hash_exchange-based operators must be independent of the
    shard count (the knob that changes with cluster size) — the single-node
    stand-in for parallelism invariance."""

    def test_funnel_and_transitions_invariant(self, ray_session, monkeypatch):
        import functools

        import query_suite.pipelines.relational as R

        sf = "/root/testdata/sf0.001"
        orig = R.hash_exchange

        def run_all():
            funnel = (
                R.q_events_funnel(sf).to_pandas()
                .sort_values("user_id").reset_index(drop=True)
            )
            trans = (
                R.q_events_transitions(sf).to_pandas()
                .sort_values(["prev_type", "next_type"]).reset_index(drop=True)
            )
            gaps = (
                R.q_user_event_gaps(sf).to_pandas()
                .sort_values("event_id").reset_index(drop=True)
            )
            above = (
                R.q_orders_above_cust_avg(sf).to_pandas()
                .sort_values("o_orderkey").reset_index(drop=True)
            )
            outl = (
                R.q_events_outliers(sf).to_pandas()
                .sort_values("event_id").reset_index(drop=True)
            )
            return funnel, trans, gaps, above, outl

        base = run_all()
        for shards in (3, 17):
            monkeypatch.setattr(
                R, "hash_exchange", functools.partial(orig, num_shards=shards)
            )
            got = run_all()
            for gi, bi in zip(got, base):
                assert gi.equals(bi), shards
            monkeypatch.setattr(R, "hash_exchange", orig)


class TestOffsetWindowsAndIntersect:
    def _write(self, tmp_path, tables):
        import pyarrow.parquet as pq

        d = tmp_path / "sf"
        d.mkdir(exist_ok=True)
        for name, t in tables.items():
            pq.write_table(t, str(d / f"{name}.parquet"))
        return str(d)

    def test_lag_lead_gaps_and_edges(self, ray_session, tmp_path):
        from query_suite.pipelines.relational import q_user_event_gaps

        ts = pa.array([1_000_000, 4_000_000, 9_000_000, 2_000_000],
                      pa.timestamp("us"))
        d = self._write(tmp_path, {"events": pa.table({
            "event_id": pa.array([1, 2, 3, 4], pa.int64()),
            "user_id": pa.array([7, 7, 7, 8], pa.int64()),
            "ts": ts,
        })})
        out = q_user_event_gaps(d).to_pandas().sort_values("event_id")
        # user 7: gaps 3s then 5s; first prev and last next are -1
        assert out["prev_gap_us"].tolist() == [-1, 3_000_000, 5_000_000, -1]
        assert out["next_gap_us"].tolist() == [3_000_000, 5_000_000, -1, -1]

    def test_lag_ties_broken_by_event_id(self, ray_session, tmp_path):
        from query_suite.pipelines.relational import q_user_event_gaps

        ts = pa.array([5_000_000, 5_000_000], pa.timestamp("us"))
        d = self._write(tmp_path, {"events": pa.table({
            "event_id": pa.array([2, 1], pa.int64()),
            "user_id": pa.array([1, 1], pa.int64()),
            "ts": ts,
        })})
        out = q_user_event_gaps(d).to_pandas().sort_values("event_id")
        # identical ts -> event_id order pins: 1 first (prev=-1), 2 second (gap 0)
        assert out["prev_gap_us"].tolist() == [-1, 0]

    def test_intersect_requires_both_nations(self, ray_session, tmp_path):
        import query_suite.pipelines.relational as R

        d = self._write(tmp_path, {
            "nation": pa.table({
                "n_nationkey": pa.array([1, 2, 3], pa.int64()),
                "n_name": pa.array([
                    R.INTERSECT_NATION_A, R.INTERSECT_NATION_B, "NATION_OTHER",
                ]),
            }),
            "supplier": pa.table({
                "s_suppkey": pa.array([10, 20, 30], pa.int64()),
                "s_nationkey": pa.array([1, 2, 3], pa.int64()),
            }),
            # part 100 ships from both A and B; 200 only A; 300 only other
            "lineitem": pa.table({
                "l_partkey": pa.array([100, 100, 200, 300], pa.int64()),
                "l_suppkey": pa.array([10, 20, 10, 30], pa.int64()),
            }),
        })
        out = R.q_parts_both_nations(d).to_pandas()
        assert out["partkey"].tolist() == [100]


class TestHostComponents:
    def _edges(self, pairs):
        import ray.data as rd

        return rd.from_arrow(pa.table({
            "src": pa.array([a for a, _ in pairs]),
            "dst": pa.array([b for _, b in pairs]),
            "n_links": pa.array([1] * len(pairs), pa.int64()),
        }))

    def test_chain_converges_to_single_min_label(self, ray_session):
        from query_suite.pipelines.queries import _components_broadcast

        # diameter-stress chain e-d-c-b-a: min label 'a' must walk 4 hops
        out = (
            _components_broadcast(self._edges(
                [("e", "d"), ("d", "c"), ("c", "b"), ("b", "a")]
            ))
            .to_pandas().sort_values("host")
        )
        assert out["component"].tolist() == ["a"] * 5

    def test_two_components_stay_separate(self, ray_session):
        from query_suite.pipelines.queries import _components_broadcast

        out = (
            _components_broadcast(self._edges([("b", "a"), ("x", "y")]))
            .to_pandas().set_index("host")["component"]
        )
        assert out["a"] == "a" and out["b"] == "a"
        assert out["x"] == "x" and out["y"] == "x"

    def test_join_regime_bit_equal_to_broadcast(self, ray_session, monkeypatch):
        import query_suite.pipelines.queries as Q

        sf = "/root/testdata/sf0.001"
        base = (
            Q.q_host_components(sf).to_pandas()
            .sort_values("host").reset_index(drop=True)
        )
        monkeypatch.setattr(Q, "PAGERANK_BROADCAST_HOSTS", -1)
        joined = (
            Q.q_host_components(sf).to_pandas()
            .sort_values("host").reset_index(drop=True)
        )
        assert joined.equals(base)


class TestHostHits:
    def _edges(self, pairs):
        import ray.data as rd

        return rd.from_arrow(pa.table({
            "src": pa.array([a for a, _ in pairs]),
            "dst": pa.array([b for _, b in pairs]),
            "n_links": pa.array([1] * len(pairs), pa.int64()),
        }))

    def test_pure_hub_and_authority(self, ray_session):
        from query_suite.pipelines.queries import HITS_UNIT, _hits_broadcast

        # a and b each point only at c: c is the sole (max) authority; a and
        # b are symmetric max hubs; c originates nothing so its hub is 0.
        out = (
            _hits_broadcast(self._edges([("a", "c"), ("b", "c")]))
            .to_pandas().set_index("host")
        )
        assert out.loc["c", "auth"] == HITS_UNIT
        assert out.loc["a", "hub"] == HITS_UNIT
        assert out.loc["b", "hub"] == HITS_UNIT
        assert out.loc["c", "hub"] == 0
        assert out.loc["a", "auth"] == 0 and out.loc["b", "auth"] == 0

    def test_multiplicity_weights_the_sums(self, ray_session):
        import ray.data as rd

        from query_suite.pipelines.queries import HITS_UNIT, _hits_broadcast

        # a->c carries 3 links, b->c carries 1: a's hub outweighs b's 3:1
        edges = rd.from_arrow(pa.table({
            "src": pa.array(["a", "b"]),
            "dst": pa.array(["c", "c"]),
            "n_links": pa.array([3, 1], pa.int64()),
        }))
        out = _hits_broadcast(edges).to_pandas().set_index("host")
        assert out.loc["a", "hub"] == HITS_UNIT
        assert out.loc["b", "hub"] == HITS_UNIT // 3

    def test_join_regime_bit_equal_to_broadcast(self, ray_session, monkeypatch):
        import query_suite.pipelines.queries as Q

        sf = "/root/testdata/sf0.001"
        base = (
            Q.q_host_hits(sf).to_pandas()
            .sort_values("host").reset_index(drop=True)
        )
        monkeypatch.setattr(Q, "PAGERANK_BROADCAST_HOSTS", -1)
        joined = (
            Q.q_host_hits(sf).to_pandas()
            .sort_values("host").reset_index(drop=True)
        )
        assert joined.equals(base)


class TestHostSeedDistance:
    def _edges(self, pairs):
        import ray.data as rd

        return rd.from_arrow(pa.table({
            "src": pa.array([a for a, _ in pairs]),
            "dst": pa.array([b for _, b in pairs]),
            "n_links": pa.array([1] * len(pairs), pa.int64()),
        }))

    def test_chain_distances_and_unreachable(self, ray_session):
        from query_suite.pipelines.queries import _seed_distance_broadcast

        # seed -> a -> b chain (undirected hops 0,1,2); x-y unreachable -> -1
        out = (
            _seed_distance_broadcast(self._edges(
                [("s.example.org", "a"), ("a", "b"), ("x", "y")]
            ))
            .to_pandas().set_index("host")["dist"]
        )
        assert out["s.example.org"] == 0
        assert out["a"] == 1 and out["b"] == 2
        assert out["x"] == -1 and out["y"] == -1

    def test_min_over_two_seeds(self, ray_session):
        from query_suite.pipelines.queries import _seed_distance_broadcast

        # m sits between two seeds: dist is the MIN (1), not the first found
        out = (
            _seed_distance_broadcast(self._edges(
                [("p.example.org", "m"), ("q.example.org", "m")]
            ))
            .to_pandas().set_index("host")["dist"]
        )
        assert out["m"] == 1

    def test_join_regime_bit_equal_to_broadcast(self, ray_session, monkeypatch):
        import query_suite.pipelines.queries as Q

        sf = "/root/testdata/sf0.001"
        base = (
            Q.q_host_seed_distance(sf).to_pandas()
            .sort_values("host").reset_index(drop=True)
        )
        monkeypatch.setattr(Q, "PAGERANK_BROADCAST_HOSTS", -1)
        joined = (
            Q.q_host_seed_distance(sf).to_pandas()
            .sort_values("host").reset_index(drop=True)
        )
        assert joined.equals(base)


class TestEventsOutliers:
    def test_two_sigma_rule_exact(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        from query_suite.pipelines.relational import q_events_outliers

        d = tmp_path / "sf"
        d.mkdir()
        # user 1: nine 10.00s and one 100.00 -> spike is >2 sigma above mean.
        # user 2: uniform values -> nothing flagged.
        vals = [10.0] * 9 + [100.0] + [5.0, 5.0, 5.0]
        users = [1] * 10 + [2] * 3
        pq.write_table(pa.table({
            "event_id": pa.array(range(13), pa.int64()),
            "user_id": pa.array(users, pa.int64()),
            "value": pa.array(vals),
        }), str(d / "events.parquet"))
        out = q_events_outliers(str(d)).to_pandas()
        assert out["event_id"].tolist() == [9]
        assert out["cents"].tolist() == [10000]

    def test_below_mean_never_flagged(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        from query_suite.pipelines.relational import q_events_outliers

        d = tmp_path / "sf"
        d.mkdir()
        # a deep NEGATIVE spike is >2 sigma in magnitude but below the mean
        pq.write_table(pa.table({
            "event_id": pa.array(range(10), pa.int64()),
            "user_id": pa.array([1] * 10, pa.int64()),
            "value": pa.array([50.0] * 9 + [0.0]),
        }), str(d / "events.parquet"))
        assert q_events_outliers(str(d)).count() == 0


class TestPrefixJaccardJoin:
    def test_matches_allpairs_truth_with_planted_dups(self, ray_session, tmp_path):
        import random

        import pyarrow.parquet as pq

        from query_suite.pipelines.queries import (
            q_dedup_jaccard,
            q_dedup_jaccard_prefix,
        )

        r = random.Random(5)
        vocab = [f"w{i}" for i in range(60)]
        texts = []
        for i in range(40):
            words = [r.choice(vocab) for _ in range(r.randint(10, 24))]
            texts.append(" ".join(words))
            if i % 7 == 0:
                # planted near-dup: same words with one changed at the tail
                near = words[:-1] + [r.choice(vocab)]
                texts.append(" ".join(near))
        d = tmp_path / "sf"
        d.mkdir()
        pq.write_table(pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts),
        }), str(d / "documents.parquet"))

        key = ["doc_id_a", "doc_id_b"]
        truth = (
            q_dedup_jaccard(str(d)).to_pandas()
            .sort_values(key).reset_index(drop=True)
        )
        fast = (
            q_dedup_jaccard_prefix(str(d)).to_pandas()
            .sort_values(key).reset_index(drop=True)
        )
        assert fast.equals(truth)
        assert len(truth) > 0  # the planted dups must actually appear

    def test_empty_set_convention_and_cap(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        from query_suite.pipelines.queries import q_dedup_jaccard_prefix

        d = tmp_path / "sf"
        d.mkdir()
        pq.write_table(pa.table({
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(["", "", "alpha beta gamma delta"]),
        }), str(d / "documents.parquet"))
        out = q_dedup_jaccard_prefix(str(d)).to_pandas()
        assert out[["doc_id_a", "doc_id_b", "jaccard_pct"]].values.tolist() == [
            [1, 2, 100]
        ]


class TestGroupedSketchAndSequences:
    def _write_events(self, tmp_path, tbl):
        import pyarrow.parquet as pq

        d = tmp_path / "sf"
        d.mkdir(exist_ok=True)
        pq.write_table(tbl, str(d / "events.parquet"))
        return str(d)

    def test_grouped_hll_accuracy_per_key(self, ray_session, tmp_path):
        from query_suite.pipelines.relational import q_distinct_users_hll_by_type

        n_a, n_b = 3000, 50
        d = self._write_events(tmp_path, pa.table({
            "user_id": pa.array(
                list(range(n_a)) * 2 + list(range(100000, 100000 + n_b)),
                pa.int64(),
            ),
            "event_type": pa.array(["a"] * (2 * n_a) + ["b"] * n_b),
        }))
        out = q_distinct_users_hll_by_type(d).set_index("event_type")
        est_a = out.loc["a", "n_distinct_users_est"]
        est_b = out.loc["b", "n_distinct_users_est"]
        assert abs(est_a - n_a) / n_a < 0.05
        assert abs(est_b - n_b) / n_b < 0.05  # linear-counting branch

    def test_percent_rank_edges(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        from query_suite.pipelines.relational import q_orders_percent_rank

        d = tmp_path / "sf"
        d.mkdir()
        pq.write_table(pa.table({
            "o_orderkey": pa.array([1, 2, 3, 9], pa.int64()),
            "o_orderpriority": pa.array(["P1", "P1", "P1", "P2"]),
            "o_totalprice": pa.array([10.0, 20.0, 30.0, 5.0]),
        }), str(d / "orders.parquet"))
        out = (
            q_orders_percent_rank(str(d)).to_pandas()
            .sort_values("o_orderkey")
        )
        # three-row group: 0, 500000, 1000000; singleton group: 0
        assert out["pct_rank_ppm"].tolist() == [0, 500000, 1000000, 0]

    def test_event_paths_time_ordered(self, ray_session, tmp_path):
        from query_suite.pipelines.relational import q_user_event_paths

        d = self._write_events(tmp_path, pa.table({
            "event_id": pa.array([4, 1, 2], pa.int64()),
            "user_id": pa.array([1, 1, 1], pa.int64()),
            "ts": pa.array([3_000_000, 1_000_000, 2_000_000], pa.timestamp("us")),
            "event_type": pa.array(["purchase", "view", "click"]),
        }))
        out = q_user_event_paths(d).to_pandas()
        assert out["path"].tolist() == ["view>click>purchase"]
        assert out["n_events"].tolist() == [3]


class TestNearDupClusters:
    def test_transitive_chain_consolidates(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        from query_suite.pipelines.queries import q_dedup_near_clusters

        # A-B and B-C are near-dups (one word changed at the tail); A-C may
        # or may not qualify pairwise — the component must still consolidate
        # all three. D is unrelated.
        base = ["w%d" % i for i in range(30)]
        a = " ".join(base)
        b = " ".join(base[:-1] + ["x0"])
        c = " ".join(base[:-2] + ["x1", "x0"])
        d = " ".join("z%d" % i for i in range(30))
        dd = tmp_path / "sf"
        dd.mkdir()
        pq.write_table(pa.table({
            "doc_id": pa.array([10, 11, 12, 13], pa.int64()),
            "text": pa.array([a, b, c, d]),
        }), str(dd / "documents.parquet"))
        out = (
            q_dedup_near_clusters(str(dd)).to_pandas()
            .sort_values("doc_id").reset_index(drop=True)
        )
        assert out["doc_id"].tolist() == [10, 11, 12]
        assert out["cluster_id"].tolist() == [10, 10, 10]


class TestEquiDepthHistogram:
    def test_depths_equal_and_ties_to_lowest_bucket(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        from query_suite.pipelines.relational import (
            EQD_BUCKETS,
            q_order_price_histogram_eqd,
        )

        d = tmp_path / "sf"
        d.mkdir()
        # 80 distinct ascending prices -> every bucket holds exactly 10
        pq.write_table(pa.table({
            "o_totalprice": pa.array([float(i + 1) for i in range(80)]),
        }), str(d / "orders.parquet"))
        out = (
            q_order_price_histogram_eqd(str(d)).to_pandas()
            .sort_values("bucket")
        )
        assert out["n_orders"].tolist() == [10] * EQD_BUCKETS
        assert out["hi_cents"].tolist() == [1000 * k for k in range(1, 9)]

        # all-equal values: every row lands in bucket 1 (c <= b1), other
        # buckets are empty and therefore absent
        (tmp_path / "b").mkdir()
        d2 = tmp_path / "b" / "sf"
        d2.mkdir()
        pq.write_table(pa.table({
            "o_totalprice": pa.array([5.0] * 40),
        }), str(d2 / "orders.parquet"))
        out2 = q_order_price_histogram_eqd(str(d2)).to_pandas()
        assert out2["bucket"].tolist() == [1]
        assert out2["n_orders"].tolist() == [40]


class TestKnnSelf1nn:
    def test_identical_twin_is_nearest_and_ties_pick_smaller_id(
        self, ray_session, tmp_path
    ):
        import numpy as np
        import pyarrow.parquet as pq

        from query_suite.pipelines.queries import q_knn_self_1nn

        rs = np.random.RandomState(3)
        base = rs.standard_normal((6, 8)).astype("float32")
        # vec 10 and 11 are identical twins; 12 is also identical (3-way tie
        # group: each must pick the SMALLEST other id)
        vecs = [base[0], base[0], base[0], base[1], base[2], base[3]]
        ids = [10, 11, 12, 20, 21, 22]
        d = tmp_path / "sf"
        d.mkdir()
        pq.write_table(pa.table({
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in vecs],
                                  pa.list_(pa.float32())),
        }), str(d / "embeddings.parquet"))
        out = (
            q_knn_self_1nn(str(d)).to_pandas()
            .set_index("vec_id")["nn_id"].to_dict()
        )
        assert out[10] == 11  # tie among {11, 12} -> smaller
        assert out[11] == 10
        assert out[12] == 10
        assert len(out) == 6  # every vector has a neighbor


class TestKmeansEmbeddings:
    def test_separated_blobs_recovered_and_deterministic(
        self, ray_session, tmp_path
    ):
        import numpy as np
        import pyarrow.parquet as pq

        from query_suite.pipelines.queries import KMEANS_K, q_kmeans_embeddings

        rs = np.random.RandomState(11)
        # K well-separated blobs, 8 points each; the first point of blob k
        # has vec_id k (so init picks one seed per blob)
        centers = rs.standard_normal((KMEANS_K, 64)) * 50
        ids, vecs = [], []
        nxt = KMEANS_K
        for k in range(KMEANS_K):
            for j in range(8):
                if j == 0:
                    ids.append(k)
                else:
                    ids.append(nxt)
                    nxt += 1
                vecs.append(centers[k] + rs.standard_normal(64) * 0.01)
        d = tmp_path / "sf"
        d.mkdir()
        pq.write_table(pa.table({
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in vecs],
                                  pa.list_(pa.float32())),
        }), str(d / "embeddings.parquet"))
        out = q_kmeans_embeddings(str(d)).to_pandas()
        lookup = out.set_index("vec_id")["cluster"]
        # every blob's members share the seed's cluster
        idx = 0
        for k in range(KMEANS_K):
            members = ids[idx:idx + 8]
            assert len({lookup[m] for m in members}) == 1, k
            idx += 8
        # bit-identical rerun
        again = q_kmeans_embeddings(str(d)).to_pandas()
        assert out.sort_values("vec_id").reset_index(drop=True).equals(
            again.sort_values("vec_id").reset_index(drop=True)
        )


def _write_tbl(tmp_path, name, table):
    import pyarrow.parquet as pq

    d = tmp_path / "sf"
    d.mkdir(parents=True, exist_ok=True)
    pq.write_table(table, str(d / f"{name}.parquet"))
    return str(d)


class TestSkyline:
    def test_planted_frontier_and_ties(self, ray_session, tmp_path):
        from query_suite.pipelines.relational import q_part_skyline

        # frontier: (10, 5), (20, 8), (30, 9); dominated: (20, 5), (30, 8);
        # tie at (20, 8) twice -> both kept (mutually non-dominating)
        d = _write_tbl(tmp_path, "part", pa.table({
            "p_partkey": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
            "p_size": pa.array([5, 8, 9, 5, 8, 8], pa.int32()),
            "p_retailprice": pa.array([10.0, 20.0, 30.0, 20.0, 30.0, 20.0]),
        }))
        out = q_part_skyline(d).to_pandas().sort_values("p_partkey")
        assert out["p_partkey"].tolist() == [1, 2, 3, 6]

    def test_matches_bruteforce_on_random(self, ray_session, tmp_path):
        from query_suite.pipelines.relational import q_part_skyline

        rng = np.random.default_rng(7)
        n = 2000
        size = rng.integers(1, 50, n)
        price = rng.uniform(900, 2000, n).round(2)
        d = _write_tbl(tmp_path, "part", pa.table({
            "p_partkey": pa.array(range(n), pa.int64()),
            "p_size": pa.array(size, pa.int32()),
            "p_retailprice": pa.array(price),
        }))
        out = set(q_part_skyline(d).to_pandas()["p_partkey"])
        want = set()
        for i in range(n):
            dominated = np.any(
                (price <= price[i]) & (size >= size[i])
                & ((price < price[i]) | (size > size[i]))
            )
            if not dominated:
                want.add(i)
        assert out == want


class TestRegressionTrend:
    def test_matches_numpy_lstsq(self, ray_session, tmp_path):
        from query_suite.pipelines.relational import q_priority_price_trend

        rng = np.random.default_rng(11)
        n = 4000
        days = rng.integers(8000, 11000, n)
        price = 1500.0 + 0.25 * days + rng.normal(0, 40, n)
        d = _write_tbl(tmp_path, "orders", pa.table({
            "o_orderpriority": pa.array(["1-URGENT"] * n),
            "o_orderdate": pa.array(
                (days * 86_400_000_000).astype("int64"), pa.timestamp("us")
            ),
            "o_totalprice": pa.array(price),
        }))
        out = q_priority_price_trend(d)
        x = days.astype(np.float64)
        y = np.floor(np.abs(price) * 100 + 0.5) * np.sign(price)
        slope, intercept = np.polyfit(x, y, 1)
        assert abs(out["slope_cents_per_day"].iloc[0] - slope) < 1e-6 * abs(slope)
        assert abs(out["intercept_cents"].iloc[0] - intercept) < 1e-3 * abs(intercept)


class TestEntropy:
    def test_uniform_and_degenerate(self, ray_session, tmp_path):
        from query_suite.pipelines.relational import q_event_type_entropy

        # 'flat': one event in each of 16 hours -> exactly 4 bits
        # 'spike': all events at hour 3 -> exactly 0 bits
        ts_flat = [pd.Timestamp(2024, 1, 1, h) for h in range(16)]
        ts_spike = [pd.Timestamp(2024, 1, 2, 3)] * 10
        d = _write_tbl(tmp_path, "events", pa.table({
            "event_type": pa.array(["flat"] * 16 + ["spike"] * 10),
            "ts": pa.array(ts_flat + ts_spike, pa.timestamp("us")),
        }))
        out = q_event_type_entropy(d).set_index("event_type")
        assert abs(out.loc["flat", "entropy_bits"] - 4.0) < 1e-12
        assert abs(out.loc["spike", "entropy_bits"]) < 1e-12


class TestMoments:
    def test_matches_numpy_moments(self, ray_session, tmp_path):
        from query_suite.pipelines.relational import q_segment_acctbal_moments

        rng = np.random.default_rng(13)
        bal = rng.gamma(2.0, 1500.0, 3000) - 900.0  # skewed, spans negatives
        d = _write_tbl(tmp_path, "customer", pa.table({
            "c_mktsegment": pa.array(["S"] * len(bal)),
            "c_acctbal": pa.array(bal),
        }))
        out = q_segment_acctbal_moments(d)
        x = np.floor(np.abs(bal) + 0.5) * np.sign(bal)  # round half away
        m2 = ((x - x.mean()) ** 2).mean()
        m3 = ((x - x.mean()) ** 3).mean()
        m4 = ((x - x.mean()) ** 4).mean()
        assert abs(out["skewness"].iloc[0] - m3 / m2 ** 1.5) < 1e-9
        assert abs(out["kurtosis_excess"].iloc[0] - (m4 / m2**2 - 3)) < 1e-9


class TestPartReach:
    def test_chain_graph_hops(self, ray_session, tmp_path):
        from query_suite.pipelines.relational import q_part_reach

        # Orders forming a chain 1-2, 2-3, 3-4 (each pair twice to pass the
        # support filter) plus an isolated pair 8-9 (unreachable from seed 1).
        rows_ok, rows_pk = [], []
        orderkey = 0
        for a, b in [(1, 2), (1, 2), (2, 3), (2, 3), (3, 4), (3, 4),
                     (8, 9), (8, 9)]:
            orderkey += 1
            rows_ok += [orderkey, orderkey]
            rows_pk += [a, b]
        d = _write_tbl(tmp_path, "lineitem", pa.table({
            "l_orderkey": pa.array(rows_ok, pa.int64()),
            "l_partkey": pa.array(rows_pk, pa.int64()),
        }))
        out = q_part_reach(d).set_index("part")["hops"].to_dict()
        assert out == {1: 0, 2: 1, 3: 2, 4: 3}


class TestUnigramLogprob:
    def test_hand_computed_scores(self, ray_session, tmp_path):
        from query_suite.pipelines.webtext import q_doc_unigram_logprob

        # corpus: "a a a b" + "b c" -> counts a=3 b=2 c=1, total 6
        d = _write_tbl(tmp_path, "documents", pa.table({
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array(["a a a b", "b c", ""]),
        }))
        out = q_doc_unigram_logprob(d).to_pandas().set_index("doc_id")
        import math

        want0 = -(3 * math.log(3 / 6) + math.log(2 / 6)) / 4
        want1 = -(math.log(2 / 6) + math.log(1 / 6)) / 2
        assert abs(out.loc[0, "avg_nll"] - want0) < 1e-12
        assert abs(out.loc[1, "avg_nll"] - want1) < 1e-12
        assert 2 not in out.index  # zero-token doc excluded


class TestSpearman:
    def test_monotone_transform_gives_rho_one(self, ray_session, tmp_path):
        from query_suite.pipelines.relational import q_lineitem_spearman

        rng = np.random.default_rng(17)
        qty = rng.integers(1, 51, 2000).astype(float)
        price = np.exp(qty / 10.0) * 100  # monotone in qty -> rho == 1 (up to ties)
        d = _write_tbl(tmp_path, "lineitem", pa.table({
            "l_returnflag": pa.array(["A"] * 2000),
            "l_quantity": pa.array(qty),
            "l_extendedprice": pa.array(price),
        }))
        out = q_lineitem_spearman(d)
        # ties in qty map to tied prices -> tie-averaged ranks still align
        assert out["spearman_qty_price"].iloc[0] > 0.999

    def test_matches_scipy_free_reference(self, ray_session, tmp_path):
        from query_suite.pipelines.relational import q_lineitem_spearman

        rng = np.random.default_rng(19)
        n = 3000
        qty = rng.integers(1, 51, n).astype(float)
        price = rng.uniform(1000, 2000, n) + qty * 5
        d = _write_tbl(tmp_path, "lineitem", pa.table({
            "l_returnflag": pa.array(["A"] * n),
            "l_quantity": pa.array(qty),
            "l_extendedprice": pa.array(price),
        }))
        out = q_lineitem_spearman(d)
        # reference: Pearson corr of tie-averaged ranks via pandas
        x = pd.Series(np.round(qty)).rank(method="average")
        y = pd.Series([np.floor(v + 0.5) for v in price]).rank(method="average")
        want = np.corrcoef(x, y)[0, 1]
        assert abs(out["spearman_qty_price"].iloc[0] - want) < 1e-9


class TestStreaks:
    def test_islands_and_longest_streak(self, ray_session, tmp_path):
        from query_suite.pipelines.relational import q_customer_order_streaks

        def day(n):
            return pd.Timestamp("2024-01-01") + pd.Timedelta(days=n)

        # cust 1: days 0,1,2 | 5 | 7,8   -> 3 islands, max 3
        # cust 2: day 4 twice (dedup)    -> 1 island, max 1
        ts = [day(0), day(1), day(2), day(5), day(7), day(8), day(4), day(4)]
        ck = [1, 1, 1, 1, 1, 1, 2, 2]
        d = _write_tbl(tmp_path, "orders", pa.table({
            "o_custkey": pa.array(ck, pa.int64()),
            "o_orderdate": pa.array(ts, pa.timestamp("us")),
        }))
        out = q_customer_order_streaks(d).to_pandas().set_index("o_custkey")
        assert out.loc[1, "n_islands"] == 3 and out.loc[1, "max_streak_days"] == 3
        assert out.loc[2, "n_islands"] == 1 and out.loc[2, "max_streak_days"] == 1


class TestLangTopTokens:
    def test_topk_and_tiebreak(self, ray_session, tmp_path):
        from query_suite.pipelines.webtext import LANG_TOPK, q_lang_top_tokens

        d = _write_tbl(tmp_path, "documents", pa.table({
            "doc_id": pa.array([0, 1], pa.int64()),
            "lang": pa.array(["en", "de"]),
            "text": pa.array([
                "a a a b b c d e f g h",   # en: a=3, b=2, then ties at 1 -> c d e
                "x y x",                    # de: x=2, y=1
            ]),
        }))
        out = q_lang_top_tokens(d)
        en = out[out["lang"] == "en"]
        assert en["token"].tolist() == ["a", "b", "c", "d", "e"]
        assert en["rank"].tolist() == [1, 2, 3, 4, 5]
        de = out[out["lang"] == "de"]
        assert de["token"].tolist() == ["x", "y"]
        assert len(en) == LANG_TOPK


class TestChecksums:
    def test_detects_single_value_change(self, ray_session, tmp_path):
        from query_suite.pipelines.relational import (
            CHECKSUM_SHARDS,
            q_orders_checksums,
        )

        n = 500
        base = pa.table({
            "o_orderkey": pa.array(range(n), pa.int64()),
            "o_custkey": pa.array([i % 37 for i in range(n)], pa.int64()),
            "o_totalprice": pa.array([100.0 + i for i in range(n)]),
        })
        d1 = _write_tbl(tmp_path / "a", "orders", base)
        a = q_orders_checksums(d1).set_index("shard")

        # flip one row's price -> exactly one shard's checksum moves
        prices = base["o_totalprice"].to_pylist()
        prices[123] += 0.01
        mut = base.set_column(2, "o_totalprice", pa.array(prices))
        d2 = _write_tbl(tmp_path / "b", "orders", mut)
        b = q_orders_checksums(d2).set_index("shard")

        diff = [s for s in a.index if a.loc[s, "checksum"] != b.loc[s, "checksum"]]
        assert diff == [123 % CHECKSUM_SHARDS]
        assert (a["n_rows"] == b["n_rows"]).all()

    def test_order_and_parallelism_invariant(self, ray_session, tmp_path):
        from query_suite.pipelines.relational import q_orders_checksums
        import pyarrow.parquet as pq

        n = 400
        rng = np.random.default_rng(23)
        perm = rng.permutation(n)
        t = pa.table({
            "o_orderkey": pa.array(range(n), pa.int64()),
            "o_custkey": pa.array([i % 11 for i in range(n)], pa.int64()),
            "o_totalprice": pa.array([50.0 + (i % 97) for i in range(n)]),
        })
        d1 = _write_tbl(tmp_path / "fwd", "orders", t)
        d2d = tmp_path / "shuf" / "sf"
        d2d.mkdir(parents=True)
        # same rows, shuffled order, split across two row groups
        shuf = t.take(pa.array(perm))
        pq.write_table(shuf, str(d2d / "orders.parquet"), row_group_size=100)
        a = q_orders_checksums(d1)
        b = q_orders_checksums(str(d2d.parent / "sf"))
        pd.testing.assert_frame_equal(a, b)


class TestRobustAggregates:
    def test_winsorized_mean_hand_case(self, ray_session, tmp_path):
        from query_suite.pipelines.relational import q_orders_winsorized_mean

        # 100 values 1..99 + one huge outlier; p05 = 5, p95 = 95 (disc, 1-idx ceil)
        vals = [float(i) for i in range(1, 100)] + [10_000.0]
        d = _write_tbl(tmp_path, "orders", pa.table({
            "o_orderpriority": pa.array(["P"] * 100),
            "o_totalprice": pa.array(vals),
        }))
        out = q_orders_winsorized_mean(d).to_pandas()
        cents = np.array(sorted(int(round(v * 100)) for v in vals))
        import math
        lo = cents[math.ceil(0.05 * 100) - 1]
        hi = cents[math.ceil(0.95 * 100) - 1]
        want = np.clip(cents, lo, hi).sum() / 100
        assert abs(out["winsorized_mean_cents"].iloc[0] - want) < 1e-9
        # outlier influence is bounded by the clip
        assert out["winsorized_mean_cents"].iloc[0] < 10_000

    def test_mad_known_distribution(self, ray_session, tmp_path):
        from query_suite.pipelines.relational import q_segment_balance_mad

        # symmetric around 50 with spread 10: median 50.00, MAD 10.00 cents-exact
        bal = [40.0, 45.0, 50.0, 55.0, 60.0]
        d = _write_tbl(tmp_path, "customer", pa.table({
            "c_mktsegment": pa.array(["S"] * 5),
            "c_acctbal": pa.array(bal),
        }))
        out = q_segment_balance_mad(d).to_pandas()
        assert out["median_cents"].iloc[0] == 5000
        assert out["mad_cents"].iloc[0] == 500


class TestTriangles:
    def test_known_graph_census(self, ray_session, tmp_path):
        from query_suite.pipelines.relational import q_part_triangles

        # co-occurrence graph (each pair in 2 orders to pass support):
        # triangle 1-2-3 plus pendant edge 3-4 -> 1 triangle.
        # Forward wedges (edges stored a<b): out[1]={2,3} -> (2,3);
        # out[2]={3} and out[3]={4} have <2 forward neighbors -> 1 wedge.
        pairs = [(1, 2), (1, 3), (2, 3), (3, 4)]
        ok_, pk_ = [], []
        okey = 0
        for a, b in pairs:
            for _ in range(2):
                okey += 1
                ok_ += [okey, okey]
                pk_ += [a, b]
        d = _write_tbl(tmp_path, "lineitem", pa.table({
            "l_orderkey": pa.array(ok_, pa.int64()),
            "l_partkey": pa.array(pk_, pa.int64()),
        }))
        out = q_part_triangles(d)
        assert out["n_edges"].iloc[0] == 4
        assert out["n_wedges"].iloc[0] == 1
        assert out["n_triangles"].iloc[0] == 1


class TestUserSkew:
    def test_uniform_gini_zero_and_hot_key(self, ray_session, tmp_path):
        from query_suite.pipelines.relational import q_events_user_skew

        # 10 users x 5 events each -> gini 0
        users = [u for u in range(10) for _ in range(5)]
        d = _write_tbl(tmp_path / "u", "events", pa.table({
            "user_id": pa.array(users, pa.int64()),
        }))
        out = q_events_user_skew(d)
        assert out["n_users"].iloc[0] == 10
        assert abs(out["gini"].iloc[0]) < 1e-12

        # one hot user: 91 events of 100 -> high gini, share 910000 ppm
        users2 = [0] * 91 + list(range(1, 10))
        d2 = _write_tbl(tmp_path / "h", "events", pa.table({
            "user_id": pa.array(users2, pa.int64()),
        }))
        out2 = q_events_user_skew(d2)
        assert out2["top_share_ppm"].iloc[0] == 910000
        assert out2["gini"].iloc[0] > 0.8


class TestStateIntervals:
    def test_runs_collapse_per_user(self, ray_session, tmp_path):
        from query_suite.pipelines.relational import q_user_state_intervals

        # user 1: A A B A ; user 2: B B
        d = _write_tbl(tmp_path, "events", pa.table({
            "event_id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
            "user_id": pa.array([1, 1, 1, 1, 2, 2], pa.int64()),
            "event_type": pa.array(["A", "A", "B", "A", "B", "B"]),
        }))
        out = (
            q_user_state_intervals(d).to_pandas()
            .sort_values(["user_id", "run_seq"]).reset_index(drop=True)
        )
        assert out["state"].tolist() == ["A", "B", "A", "B"]
        assert out["run_seq"].tolist() == [1, 2, 3, 1]
        assert out["from_event_id"].tolist() == [1, 3, 4, 5]
        assert out["to_event_id"].tolist() == [2, 3, 4, 6]
        assert out["n_events"].tolist() == [2, 1, 1, 2]


class TestTrailingRange:
    def test_interval_bounds_and_ts_ties(self, ray_session, tmp_path):
        import pandas as pd

        from query_suite.pipelines.relational import q_user_value_trailing_1h

        t0 = pd.Timestamp("2024-01-01 00:00:00")
        h = pd.Timedelta(hours=1)
        # events: t0 (1.00), t0+30m (2.00), t0+30m TIE (4.00), t0+90m (8.00),
        # t0+191m (16.00 -- isolated, outside every earlier frame)
        ts = [t0, t0 + h / 2, t0 + h / 2, t0 + h + h / 2, t0 + 3 * h + pd.Timedelta(minutes=11)]
        d = _write_tbl(tmp_path, "events", pa.table({
            "event_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
            "user_id": pa.array([7] * 5, pa.int64()),
            "ts": pa.array(ts, pa.timestamp("us")),
            "value": pa.array([1.0, 2.0, 4.0, 8.0, 16.0], pa.float64()),
        }))
        out = (
            q_user_value_trailing_1h(d).to_pandas()
            .sort_values("event_id").reset_index(drop=True)
        )
        # RANGE semantics: both ts-tied rows (2,3) see each other's value;
        # row 4's frame [t0+30m, t0+90m] includes the ties but NOT t0
        # (boundary inclusive: t0+90m-1h == t0+30m); row 5 stands alone
        assert out["trailing_cents"].tolist() == [100, 700, 700, 1400, 1600]


class TestLateArrivals:
    def test_watermark_lateness(self, ray_session, tmp_path):
        import pandas as pd

        from query_suite.pipelines.relational import q_events_late_arrivals

        t0 = pd.Timestamp("2024-06-01 12:00:00")
        m = pd.Timedelta(minutes=1)
        # arrival order 1..4: wm after 1,2 is t0+120m; event 3 arrives 61min
        # behind it (late); event 4 exactly 60min behind (NOT late, strict <)
        d = _write_tbl(tmp_path, "events", pa.table({
            "event_id": pa.array([1, 2, 3, 4], pa.int64()),
            "ts": pa.array([t0, t0 + 120 * m, t0 + 59 * m, t0 + 60 * m],
                           pa.timestamp("us")),
            "event_type": pa.array(["x", "x", "x", "x"]),
        }))
        out = q_events_late_arrivals(d).to_pandas()
        assert out["n_events"].iloc[0] == 4
        assert out["n_late"].iloc[0] == 1


class TestEmbeddingGram:
    def test_known_vectors_exact(self, ray_session, tmp_path):
        from query_suite.pipelines.queries import CENTROID_UNIT, q_embedding_gram

        # v1=(1, 0.5), v2=(-0.5, 0.25): quantized q1=(U, U/2), q2=(-U/2, U/4)
        d = _write_tbl(tmp_path, "embeddings", pa.table({
            "vec_id": pa.array([1, 2], pa.int64()),
            "embedding": pa.array([[1.0, 0.5], [-0.5, 0.25]],
                                  pa.list_(pa.float32())),
        }))
        out = (
            q_embedding_gram(d).to_pandas()
            .sort_values(["dim_i", "dim_j"]).reset_index(drop=True)
        )
        U = CENTROID_UNIT
        # (1,1): U*U + U/2*U/2 ; (1,2): U*U/2 + (-U/2)*(U/4) ; (2,2): U^2/4 + U^2/16
        assert out["dim_i"].tolist() == [1, 1, 2]
        assert out["dim_j"].tolist() == [1, 2, 2]
        assert out["sum_qq"].tolist() == [
            U * U + (U // 2) ** 2,
            U * (U // 2) + (-U // 2) * (U // 4),
            (U // 2) ** 2 + (U // 4) ** 2,
        ]
        assert (out["n_vecs"] == 2).all()


class TestEmbeddingQuantizeInt8:
    def test_codes_bounded_and_zero_vector(self, ray_session, tmp_path):
        """Codes stay in [-127,127] (checksum bound |sum_dim_q| <= 127*D*(D+1)/2),
        a zero vector gets scale 0 with all-zero checksums, and the
        reconstruction error per dim stays under scale/2 + 1 nano-unit."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        from query_suite.pipelines.queries import ERR_UNIT, q_embedding_quantize_int8

        d = 8
        vecs = [
            [0.5, -1.25, 3.0, 0.0, -0.001, 2.75, -3.0, 1.0],
            [0.0] * d,                      # zero vector: scale 0, codes 0
            [1e-6] * d,                     # tiny but nonzero absmax
            [-2.0] * d,                     # constant negative
        ]
        t = pa.table({
            "vec_id": pa.array(range(len(vecs)), pa.int64()),
            "embedding": pa.array(vecs, pa.list_(pa.float32())),
            "label": pa.array([0] * len(vecs), pa.int32()),
        })
        pq.write_table(t, tmp_path / "embeddings.parquet")
        out = (
            q_embedding_quantize_int8(str(tmp_path))
            .to_pandas()
            .set_index("vec_id")
            .sort_index()
        )
        assert len(out) == len(vecs)
        zero = out.loc[1]
        assert zero["scale"] == 0.0
        assert (zero[["sum_q", "sum_abs_q", "sum_dim_q", "err_nano"]] == 0).all()
        bound = 127 * d * (d + 1) // 2
        assert (out["sum_dim_q"].abs() <= bound).all()
        assert (out["sum_abs_q"] <= 127 * d).all()
        # absmax scaling: max |err| per element is scale/2 -> err_nano bounded
        nonzero = out[out["scale"] > 0]
        assert (
            nonzero["err_nano"]
            <= (nonzero["scale"] / 2 * ERR_UNIT + 1) * d
        ).all()
        # constant vector quantizes exactly: every element is +-absmax -> code +-127
        assert out.loc[3, "err_nano"] == 0
        assert out.loc[3, "sum_abs_q"] == 127 * d


class TestDocShingleNovelty:
    def test_first_occurrence_semantics(self, ray_session, tmp_path):
        """Doc 1 owns all its shingles (first), an exact copy at doc 2 has
        zero novel shingles, a half-overlap doc gets exactly the new ones,
        and short/<3-word docs fall back to the whole-words shingle."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        from query_suite.pipelines.queries import q_doc_shingle_novelty

        docs = [
            (1, "a b c d e"),          # shingles: abc bcd cde (3, all novel)
            (2, "a b c d e"),          # exact copy: 0 novel
            (3, "c d e f g"),          # cde def efg -> cde seen, 2 novel
            (4, "x y"),                # <3 words: one shingle "x y", novel
            (5, ""),                   # empty: excluded from output
        ]
        t = pa.table({
            "doc_id": pa.array([d for d, _ in docs], pa.int64()),
            "text": pa.array([s for _, s in docs], pa.string()),
            "lang": pa.array(["en"] * len(docs), pa.string()),
            "source": pa.array(["t"] * len(docs), pa.string()),
            "n_chars": pa.array([len(s) for _, s in docs], pa.int64()),
        })
        pq.write_table(t, tmp_path / "documents.parquet")
        out = (
            q_doc_shingle_novelty(str(tmp_path))
            .to_pandas()
            .set_index("doc_id")
            .sort_index()
        )
        assert list(out.index) == [1, 2, 3, 4]
        assert tuple(out.loc[1]) == (3, 3)
        assert tuple(out.loc[2]) == (3, 0)
        assert tuple(out.loc[3]) == (3, 2)
        assert tuple(out.loc[4]) == (1, 1)


class TestSearchBM25:
    def test_ranking_semantics(self, ray_session, tmp_path):
        """A doc matching all three query terms outranks single-term docs;
        rarer terms weigh more (idf); term-free docs never appear; repeated
        terms saturate (tf part bounded by k1+1)."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        from query_suite.pipelines.webtext import q_search_bm25

        docs = [
            (1, "hash join stream pipeline"),        # all three terms
            (2, "hash table lookup code"),           # common term only
            (3, "stream stream stream stream"),      # repeated rare term
            (4, "sort merge shuffle"),               # no query terms
            (5, "hash hash hash hash hash hash"),    # tf saturation
            (6, "join the hash stream"),             # all three again
        ] + [(10 + i, "hash plus filler words") for i in range(10)]
        t = pa.table({
            "doc_id": pa.array([d for d, _ in docs], pa.int64()),
            "text": pa.array([s for _, s in docs], pa.string()),
            "lang": pa.array(["en"] * len(docs), pa.string()),
            "source": pa.array(["t"] * len(docs), pa.string()),
            "n_chars": pa.array([len(s) for _, s in docs], pa.int64()),
        })
        pq.write_table(t, tmp_path / "documents.parquet")
        out = q_search_bm25(str(tmp_path))
        ranked = list(out["doc_id"])
        assert 4 not in ranked                     # no-term doc absent
        scores = dict(zip(out["doc_id"], out["score_nano"]))
        assert scores[1] > scores[2]               # 3 terms beat 1 common term
        assert scores[6] > scores[2]
        # 'stream'/'join' are rarer than 'hash' -> higher idf: doc 3 beats
        # every hash-only doc despite equal-ish lengths
        assert scores[3] > scores[2]
        # tf saturation: six repeats of the common term can't beat the
        # single occurrence of the rare term
        assert scores[3] > scores[5]
        assert (out["score_nano"] > 0).all()


class TestHostCrawlBudget:
    def test_hamilton_invariants(self, ray_session):
        """Σbudget == CRAWL_BUDGET exactly (no slot lost or invented), every
        budget within 1 of the exact proportional share, monotone in mass."""
        from query_suite.pipelines.queries import CRAWL_BUDGET, q_host_crawl_budget

        out = q_host_crawl_budget("/root/testdata/sf0.001")
        assert int(out["budget"].sum()) == CRAWL_BUDGET
        total = int(out["n_docs"].sum())
        exact = CRAWL_BUDGET * out["n_docs"] / total
        assert ((out["budget"] - exact).abs() < 1.0).all()  # quota rule
        by_mass = out.sort_values(["n_docs", "host"])
        assert by_mass["budget"].is_monotonic_increasing or (
            # equal masses may swap by remainder tiebreak; allow +-1 jitter
            (by_mass["budget"].diff().dropna() >= -1).all()
        )


class TestCorpusZipfFit:
    def test_slope_on_constructed_powerlaw(self, ray_session, tmp_path):
        """A corpus whose token frequencies follow freq = C/rank exactly
        fits slope ~ -1; a flat (uniform-frequency) corpus fits slope ~ 0."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        from query_suite.pipelines.webtext import ZIPF_UNIT, q_corpus_zipf_fit

        def write_docs(path, texts):
            t = pa.table({
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array(["en"] * len(texts), pa.string()),
                "source": pa.array(["t"] * len(texts), pa.string()),
                "n_chars": pa.array([len(s) for s in texts], pa.int64()),
            })
            path.mkdir()
            pq.write_table(t, path / "documents.parquet")

        # power law: token t_r appears floor(120/r) times, r = 1..30
        toks = []
        for r in range(1, 31):
            toks.extend([f"t{r:02d}"] * (120 // r))
        powerlaw = tmp_path / "pl"
        write_docs(powerlaw, [" ".join(toks)])
        out = q_corpus_zipf_fit(str(powerlaw))
        slope = out["zipf_slope_nano"][0] / ZIPF_UNIT
        assert out["n_vocab"][0] == 30
        assert -1.15 < slope < -0.85

        flat = tmp_path / "flat"
        write_docs(flat, [" ".join([f"u{r}" for r in range(50)] * 4)])
        out2 = q_corpus_zipf_fit(str(flat))
        assert abs(out2["zipf_slope_nano"][0] / ZIPF_UNIT) < 1e-6


class TestIntervalOverlaps:
    def test_sweep_matches_hand_case(self, ray_session, tmp_path):
        """Closed-interval overlap (touching endpoints count), per-user
        isolation, and peak concurrency at a three-deep stack."""
        import pyarrow.parquet as pq

        from query_suite.pipelines.relational import q_user_interval_overlaps

        d = tmp_path / "sf"
        d.mkdir()
        # user 7: [00:00,00:10], [00:05,00:15], [00:10,00:30], [01:00,01:00]
        #   pairs: (1,2) (1,3 touch at 00:10) (2,3) = 3; peak 3 at 00:10
        #   (events 1,2,3 all open: starts<=00:10, ends>=00:10)
        # user 9: [00:00,00:05], [00:06,00:10] -> 0 pairs, peak 1
        events = pa.table({
            "event_id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
            "user_id": pa.array([7, 7, 7, 7, 9, 9], pa.int64()),
            "ts": pa.array(
                pd.to_datetime([
                    "2024-01-01 00:00:00", "2024-01-01 00:05:00",
                    "2024-01-01 00:10:00", "2024-01-01 01:00:00",
                    "2024-01-01 00:00:00", "2024-01-01 00:06:00",
                ]),
                pa.timestamp("us"),
            ),
            "value": pa.array([10.0, 10.0, 20.0, 0.2, 5.0, 4.0], pa.float64()),
        })
        pq.write_table(events, str(d / "events.parquet"))
        out = (
            q_user_interval_overlaps(str(d))
            .to_pandas()
            .sort_values("user_id")
            .reset_index(drop=True)
        )
        assert out["user_id"].tolist() == [7, 9]
        assert out["n_overlap_pairs"].tolist() == [3, 0]
        assert out["peak_concurrency"].tolist() == [3, 1]


class TestCustomer360:
    def test_three_way_cogroup_full_outer(self, ray_session, tmp_path):
        """Keys on ANY side survive: customer with no activity keeps zero
        counts; event user with no customer row keeps a null segment."""
        import pyarrow.parquet as pq

        from query_suite.pipelines.relational import q_customer_360

        d = tmp_path / "sf"
        d.mkdir()
        pq.write_table(pa.table({
            "c_custkey": pa.array([1, 2], pa.int64()),
            "c_mktsegment": pa.array(["AUTO", "HOUSE"], pa.string()),
        }), str(d / "customer.parquet"))
        pq.write_table(pa.table({
            "o_custkey": pa.array([1, 1], pa.int64()),
            "o_totalprice": pa.array([10.0, 2.5], pa.float64()),
        }), str(d / "orders.parquet"))
        pq.write_table(pa.table({
            "user_id": pa.array([1, 99], pa.int64()),
            "value": pa.array([1.0, 3.0], pa.float64()),
        }), str(d / "events.parquet"))
        out = (
            q_customer_360(str(d))
            .to_pandas()
            .sort_values("custkey")
            .reset_index(drop=True)
        )
        assert out["custkey"].tolist() == [1, 2, 99]
        assert out["segment"].tolist()[:2] == ["AUTO", "HOUSE"]
        assert out["segment"].isna().tolist() == [False, False, True]
        assert out["n_orders"].tolist() == [2, 0, 0]
        assert out["order_cents"].tolist() == [1250, 0, 0]
        assert out["n_events"].tolist() == [1, 0, 1]
        assert out["event_cents"].tolist() == [100, 0, 300]


class TestDebounce:
    def test_greedy_chain_not_pairwise(self, ray_session, tmp_path):
        """Debounce is measured from the last KEPT event: 0,4,8,12 min with a
        5-min window keeps 0 and 8 (4 is within 0+5, 8 is past it, 12 is
        within 8+5) — a pairwise-gap rule would wrongly drop everything
        after 0 or keep pairs."""
        import pyarrow.parquet as pq

        from query_suite.pipelines.relational import q_events_dedup_window

        d = tmp_path / "sf"
        d.mkdir()
        pq.write_table(pa.table({
            "event_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
            "user_id": pa.array([7, 7, 7, 7, 8], pa.int64()),
            "event_type": pa.array(["a", "a", "a", "a", "a"], pa.string()),
            "ts": pa.array(
                pd.to_datetime([
                    "2024-01-01 00:00:00", "2024-01-01 00:04:00",
                    "2024-01-01 00:08:00", "2024-01-01 00:12:00",
                    "2024-01-01 00:00:00",
                ]),
                pa.timestamp("us"),
            ),
        }), str(d / "events.parquet"))
        out = (
            q_events_dedup_window(str(d))
            .to_pandas()
            .sort_values("user_id")
            .reset_index(drop=True)
        )
        assert out["n_events"].tolist() == [4, 1]
        assert out["n_kept"].tolist() == [2, 1]


class TestSaltedHashJoin:
    def _sides(self, skew_rows=400):
        """Left: heavily skewed fact (70% of rows on key 1). Right: dim."""
        left = pa.table({
            "k": pa.array(
                [1] * int(skew_rows * 0.7)
                + [i % 50 + 2 for i in range(skew_rows - int(skew_rows * 0.7))],
                pa.int64(),
            ),
            "v": pa.array(list(range(skew_rows)), pa.int64()),
        })
        right = pa.table({
            "k": pa.array(list(range(1, 40)), pa.int64()),
            "name": pa.array([f"n{i}" for i in range(1, 40)], pa.string()),
        })
        return left, right

    def _run(self, how, salt, ray_session):
        import ray.data as rd

        from query_suite.pipelines.relational import hash_join

        left, right = self._sides()
        out = hash_join(
            rd.from_arrow(left),
            rd.from_arrow(right),
            left_on="k",
            right_on="k",
            key_type=pa.int64(),
            left_fields=[pa.field("v", pa.int64())],
            right_fields=[pa.field("name", pa.string())],
            how=how,
            salt=salt,
        ).to_pandas()
        cols = list(out.columns)
        return out.sort_values(cols).reset_index(drop=True)

    @pytest.mark.parametrize("how", ["inner", "left", "semi", "anti"])
    def test_salted_equals_unsalted(self, ray_session, how):
        a = self._run(how, 1, ray_session)
        b = self._run(how, 4, ray_session)
        pd.testing.assert_frame_equal(a, b)

    def test_full_outer_rejects_salt(self, ray_session):
        import ray.data as rd

        from query_suite.pipelines.relational import hash_join

        left, right = self._sides(10)
        with pytest.raises(ValueError, match="full-outer"):
            hash_join(
                rd.from_arrow(left), rd.from_arrow(right),
                left_on="k", right_on="k", key_type=pa.int64(),
                left_fields=[pa.field("v", pa.int64())],
                right_fields=[pa.field("name", pa.string())],
                how="full", salt=4,
            )

    def test_salted_combine_partials_reaggregate_exact(self, ray_session):
        """With combine_left_sum + salt, up to `salt` partial rows per key
        leave the join; re-aggregating them reproduces the unsalted sums."""
        import ray.data as rd

        from query_suite.pipelines.relational import hash_join

        left, right = self._sides()

        def go(salt):
            out = hash_join(
                rd.from_arrow(left), rd.from_arrow(right),
                left_on="k", right_on="k", key_type=pa.int64(),
                left_fields=[pa.field("v", pa.int64())],
                right_fields=[pa.field("name", pa.string())],
                how="inner", salt=salt, combine_left_sum=True,
            ).to_pandas()
            return out.groupby("k")["v"].sum().sort_index()

        pd.testing.assert_series_equal(go(1), go(4))


class TestTpchShapes:
    def _write(self, tmp_path, tables):
        import pyarrow.parquet as pq

        d = tmp_path / "sf"
        d.mkdir(exist_ok=True)
        for name, t in tables.items():
            pq.write_table(t, str(d / f"{name}.parquet"))
        return str(d)

    def test_promo_share_exact(self, ray_session, tmp_path):
        import query_suite.pipelines.relational as R

        ts = pa.array(
            [pd.Timestamp("1996-03-01")] * 3, pa.timestamp("us")
        )
        d = self._write(tmp_path, {
            "lineitem": pa.table({
                "l_partkey": pa.array([1, 1, 2], pa.int64()),
                "l_shipdate": ts,
                "l_extendedprice": pa.array([100.0, 50.0, 50.0]),
                "l_discount": pa.array([0.0, 0.0, 0.0]),
            }),
            "part": pa.table({
                "p_partkey": pa.array([1, 2], pa.int64()),
                "p_type": pa.array([R.PROMO_TYPE, "STANDARD"]),
            }),
        })
        out = R.q_promo_revenue_share(d).to_pandas()
        assert len(out) == 1
        row = out.iloc[0]
        assert row["month"] == "1996-03"
        assert row["promo_cents"] == 15000 and row["total_cents"] == 20000
        assert row["share_micro"] == 15000 * R.SHARE_UNIT // 20000

    def test_nation_pair_excludes_domestic(self, ray_session, tmp_path):
        import query_suite.pipelines.relational as R

        ts = pa.array([pd.Timestamp("1996-06-01")] * 2, pa.timestamp("us"))
        d = self._write(tmp_path, {
            "nation": pa.table({
                "n_nationkey": pa.array([1, 2], pa.int64()),
                "n_name": pa.array(["FR", "DE"]),
            }),
            "supplier": pa.table({
                "s_suppkey": pa.array([10, 20], pa.int64()),
                "s_nationkey": pa.array([1, 2], pa.int64()),
            }),
            "customer": pa.table({
                "c_custkey": pa.array([100], pa.int64()),
                "c_nationkey": pa.array([1], pa.int64()),
            }),
            "orders": pa.table({
                "o_orderkey": pa.array([1000], pa.int64()),
                "o_custkey": pa.array([100], pa.int64()),
            }),
            # supplier 10 (FR) ships to FR customer -> domestic, excluded;
            # supplier 20 (DE) ships to FR customer -> DE->FR pair kept
            "lineitem": pa.table({
                "l_orderkey": pa.array([1000, 1000], pa.int64()),
                "l_suppkey": pa.array([10, 20], pa.int64()),
                "l_shipdate": ts,
                "l_extendedprice": pa.array([100.0, 40.0]),
                "l_discount": pa.array([0.0, 0.5]),
            }),
        })
        out = R.q_nation_pair_volume(d).to_pandas()
        assert len(out) == 1
        row = out.iloc[0]
        assert (row["supp_nation"], row["cust_nation"]) == ("DE", "FR")
        assert row["revenue_cents"] == 2000


class TestAnnPq:
    def test_recall_with_rerank(self, ray_session):
        import numpy as np
        import pyarrow.parquet as papq

        from query_suite.pipelines.queries import KNN_K, _query_vector, q_ann_pq

        sf = "/root/testdata/sf0.001"
        got = set(q_ann_pq(sf)["vec_id"])
        t = papq.read_table(f"{sf}/embeddings.parquet")
        mat = np.stack(t["embedding"].to_pandas().to_numpy()).astype(np.float64)
        ids = t["vec_id"].to_numpy()
        sims = mat @ _query_vector()
        exact = set(ids[np.lexsort((ids, -sims))[:KNN_K]].tolist())
        # unclustered gaussians are PQ's hard case; measured 0.6 with the
        # exact-dot rerank (0.3 without) — 0.4 is the regression floor
        assert len(got & exact) / KNN_K >= 0.4

    def test_codebooks_deterministic_and_quantized(self):
        import numpy as np

        from query_suite.pipelines.queries import PQ_K, PQ_M, _pq_codebooks

        sf = "/root/testdata/sf0.001"
        b1 = _pq_codebooks(sf)
        b2 = _pq_codebooks(sf)
        assert b1.dtype == np.int64 and b1.shape == (PQ_M, PQ_K, 64 // PQ_M)
        assert (b1 == b2).all()


class TestCustomerRfm:
    def test_quintile_boundary_rule(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        from query_suite.pipelines.relational import q_customer_rfm

        # 5 customers, one order each on the same date, prices 10..50:
        # monetary scores must be exactly 1..5 (boundary-counting rule);
        # recency/frequency identical -> all score 1
        ts = pa.array([pd.Timestamp("1998-01-01")] * 5, pa.timestamp("us"))
        d = tmp_path / "sf"
        d.mkdir(exist_ok=True)
        pq.write_table(pa.table({
            "o_custkey": pa.array([1, 2, 3, 4, 5], pa.int64()),
            "o_orderdate": ts,
            "o_totalprice": pa.array([10.0, 20.0, 30.0, 40.0, 50.0]),
        }), str(d / "orders.parquet"))
        out = q_customer_rfm(str(d)).to_pandas().set_index("custkey").sort_index()
        assert out["m_score"].tolist() == [1, 2, 3, 4, 5]
        assert set(out["r_score"]) == {1} and set(out["f_score"]) == {1}
        assert out.loc[5, "segment"] == "115"
        assert out.loc[5, "recency_days"] == (pd.Timestamp("1998-12-31")
                                              - pd.Timestamp("1998-01-01")).days


class TestHostCommunities:
    def _edges(self, rows):
        import ray.data as rd

        return rd.from_arrow(pa.table({
            "src": pa.array([a for a, _, _ in rows]),
            "dst": pa.array([b for _, b, _ in rows]),
            "n_links": pa.array([w for _, _, w in rows], pa.int64()),
        }))

    def test_two_cliques_converge_separately(self, ray_session):
        from query_suite.pipelines.queries import _communities_broadcast

        # triangle a-b-c and triangle x-y-z, no cross edges
        out = (
            _communities_broadcast(self._edges([
                ("a", "b", 1), ("b", "c", 1), ("c", "a", 1),
                ("x", "y", 1), ("y", "z", 1), ("z", "x", 1),
            ]))
            .to_pandas().set_index("host")["community"]
        )
        assert len(set(out[["a", "b", "c"]])) == 1
        assert len(set(out[["x", "y", "z"]])) == 1
        assert out["a"] != out["x"]

    def test_weight_beats_count(self, ray_session):
        from query_suite.pipelines.queries import _communities_broadcast

        # m's heavy edge into the a-b-c triangle outweighs its two light
        # edges to x/y: m joins the triangle's community ('a'); the x-y
        # pendant pair label-swaps each synchronous round, and the even
        # round count restores their own labels (the documented
        # fixed-round-synchronous semantics)
        out = (
            _communities_broadcast(self._edges([
                ("a", "b", 10), ("b", "c", 10), ("c", "a", 10),
                ("m", "a", 10), ("m", "x", 1), ("m", "y", 1),
                ("x", "y", 5),
            ]))
            .to_pandas().set_index("host")["community"]
        )
        assert out["m"] == "a"
        assert (out[["a", "b", "c"]] == "a").all()
        assert out["x"] == "x" and out["y"] == "y"

    def test_join_regime_bit_equal_to_broadcast(self, ray_session, monkeypatch):
        import query_suite.pipelines.queries as Q

        sf = "/root/testdata/sf0.001"
        base = (
            Q.q_host_communities(sf).to_pandas()
            .sort_values("host").reset_index(drop=True)
        )
        monkeypatch.setattr(Q, "PAGERANK_BROADCAST_HOSTS", -1)
        joined = (
            Q.q_host_communities(sf).to_pandas()
            .sort_values("host").reset_index(drop=True)
        )
        assert joined.equals(base)


class TestOrdersZorder:
    def test_interleave_and_partition(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        import query_suite.pipelines.relational as R

        # custkey=3 (bits 11), cents=2000 -> k2=2 (bits 10):
        # z = interleave(k1=3, k2=2) = 1*1 + 1*2? bit-by-bit:
        # b0: k1 bit 1 -> z bit0; k2 bit 0 -> z bit1
        # b1: k1 bit 1 -> z bit2; k2 bit 1 -> z bit3  => z = 0b1101 = 13
        d = tmp_path / "sf"
        d.mkdir(exist_ok=True)
        pq.write_table(pa.table({
            "o_custkey": pa.array([3], pa.int64()),
            "o_totalprice": pa.array([20.0]),  # 2000 cents -> bucket 2
        }), str(d / "orders.parquet"))
        out = R.q_orders_zorder(str(d)).to_pandas()
        assert out.iloc[0]["zmin"] == 13 and out.iloc[0]["zmax"] == 13
        assert out.iloc[0]["zpart"] == 13 >> (2 * R.ZORDER_BITS - R.ZORDER_PART_BITS)

    def test_box_matches_concentrate(self, ray_session):
        import query_suite.pipelines.relational as R

        df = R.q_orders_zorder("/root/testdata/sf0.01").to_pandas()
        touched = (df["n_match"] > 0).sum()
        # z-ordering keeps the 2-D box inside a small fraction of partitions
        assert df["n_match"].sum() > 0
        assert touched <= max(1, len(df) // 4)


class TestLineitemOls2:
    def test_matches_numpy_lstsq(self, ray_session, tmp_path):
        import numpy as np
        import pyarrow.parquet as pq

        import query_suite.pipelines.relational as R

        rng = np.random.RandomState(7)
        n = 200
        qty = rng.randint(1, 50, n).astype(float)
        disc = rng.randint(0, 10, n) / 100.0
        price = 500.0 + 12.0 * qty - 2000.0 * disc + rng.randn(n)
        d = tmp_path / "sf"
        d.mkdir(exist_ok=True)
        pq.write_table(pa.table({
            "l_quantity": pa.array(qty),
            "l_discount": pa.array(disc),
            "l_extendedprice": pa.array(price),
        }), str(d / "lineitem.parquet"))
        out = R.q_lineitem_ols2(str(d)).to_pandas().iloc[0]

        x1 = np.round(qty)
        x2 = np.round(disc * 10000)
        y = np.round(price * 100)
        X = np.column_stack([np.ones(n), x1, x2])
        beta = np.linalg.lstsq(X, y, rcond=None)[0]
        got = np.array([out["b0_nano"], out["b1_nano"], out["b2_nano"]]) / R.OLS_UNIT
        assert np.allclose(got, beta, rtol=1e-6, atol=1e-6)


class TestUsersCdcState:
    def _events(self, tmp_path, rows):
        import pyarrow.parquet as pq

        d = tmp_path / "sf"
        d.mkdir(exist_ok=True)
        pq.write_table(pa.table({
            "event_id": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array([pd.Timestamp(r[1]) for r in rows], pa.timestamp("us")),
            "user_id": pa.array([r[2] for r in rows], pa.int64()),
            "event_type": pa.array([r[3] for r in rows]),
            "value": pa.array([r[4] for r in rows]),
        }), str(d / "events.parquet"))
        return str(d)

    def test_replay_semantics(self, ray_session, tmp_path):
        from query_suite.pipelines.relational import q_users_cdc_state

        d = self._events(tmp_path, [
            # user 1: signup(10) -> click(5) -> error -> signup(7) -> view(2)
            (1, "2024-01-01", 1, "signup", 10.0),
            (2, "2024-01-02", 1, "click", 5.0),
            (3, "2024-01-03", 1, "error", 0.0),
            (4, "2024-01-04", 1, "signup", 7.0),
            (5, "2024-01-05", 1, "view", 2.0),
            # user 2: deleted at the end -> absent
            (6, "2024-01-01", 2, "signup", 1.0),
            (7, "2024-01-02", 2, "error", 0.0),
            # user 3: update without signup -> dropped, user absent
            (8, "2024-01-01", 3, "click", 9.0),
        ])
        out = q_users_cdc_state(d).to_pandas().set_index("user_id")
        assert set(out.index) == {1}
        assert out.loc[1, "n_applied"] == 2  # signup + view
        assert out.loc[1, "value_cents"] == 700 + 200

    def test_same_ts_ordered_by_event_id(self, ray_session, tmp_path):
        from query_suite.pipelines.relational import q_users_cdc_state

        # identical ts: event_id order pins -> signup(2) after error(1): live
        d = self._events(tmp_path, [
            (1, "2024-01-01", 7, "error", 0.0),
            (2, "2024-01-01", 7, "signup", 3.0),
        ])
        out = q_users_cdc_state(d).to_pandas()
        assert out["user_id"].tolist() == [7]
        assert out["value_cents"].tolist() == [300]


class TestEventsPatternMatches:
    def test_funnel_semantics(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        from query_suite.pipelines.relational import q_events_pattern_matches

        def ev(i, u, t):
            return {"event_id": i, "ts": pd.Timestamp("2024-01-01")
                    + pd.Timedelta(seconds=i), "user_id": u, "event_type": t}

        rows = [
            # user 1: signup, click, purchase -> match; then purchase again
            # (still engaged since signup, overlapping allowed) -> match 2
            ev(1, 1, "signup"), ev(2, 1, "click"), ev(3, 1, "purchase"),
            ev(4, 1, "purchase"),
            # user 2: signup, purchase with NO engagement -> no match
            ev(5, 2, "signup"), ev(6, 2, "purchase"),
            # user 3: signup, view, error, purchase -> error blocks
            ev(7, 3, "signup"), ev(8, 3, "view"), ev(9, 3, "error"),
            ev(10, 3, "purchase"),
            # user 4: purchase without signup -> no match
            ev(11, 4, "click"), ev(12, 4, "purchase"),
        ]
        d = tmp_path / "sf"
        d.mkdir(exist_ok=True)
        t = pa.Table.from_pylist(rows)
        t = t.set_column(t.schema.get_field_index("ts"),
                         "ts", t["ts"].cast(pa.timestamp("us")))
        pq.write_table(t, str(d / "events.parquet"))
        out = q_events_pattern_matches(str(d)).to_pandas().set_index("user_id")
        assert set(out.index) == {1}
        assert out.loc[1, "n_matches"] == 2


class TestMediaDedupPhash:
    def test_planted_clones_all_found_no_false_positives(self, ray_session):
        from query_suite.pipelines.queries import (
            PHASH_MAX_HAMMING,
            q_media_dedup_phash,
        )

        df = q_media_dedup_phash("/root/testdata/sf0.001").to_pandas()
        planted = df[(df["media_b"] - df["media_a"]) == 1_000_000]
        # every doc_id%20==0 clone pairs with its original
        import pyarrow.parquet as pq

        n_docs = pq.ParquetFile(
            "/root/testdata/sf0.001/documents.parquet").metadata.num_rows
        expected = sum(1 for i in range(n_docs) if i % 20 == 0)
        assert len(planted) == expected
        assert (planted["media_a"] % 20 == 0).all()
        assert (df["hamming"] <= PHASH_MAX_HAMMING).all()
        # unrelated texts never collide on this corpus
        assert len(df) == len(planted)

    def test_ahash_locality(self):
        from query_suite.pipelines.queries import media_ahash

        base = bytes(range(256)) * 4
        edited = bytearray(base)
        edited[10] = 255
        edited[500] = 0
        near = bin(media_ahash(base) ^ media_ahash(bytes(edited))).count("1")
        far = bin(media_ahash(base)
                  ^ media_ahash(b"completely different payload " * 30)).count("1")
        assert near <= 6
        assert far > 10
        assert media_ahash(b"") == 0


class TestHostReciprocity:
    def test_counts_on_tiny_graph(self, ray_session, monkeypatch):
        import ray.data as rd
        import query_suite.pipelines.queries as Q

        edges = rd.from_arrow(pa.table({
            "src": pa.array(["a", "b", "a", "c", "c"]),
            "dst": pa.array(["b", "a", "c", "c", "d"]),
            "n_links": pa.array([1, 1, 1, 1, 1], pa.int64()),
        }))
        monkeypatch.setattr(Q, "_host_edges", lambda sf: edges)
        out = (
            Q.q_host_reciprocity("ignored").to_pandas()
            .set_index("host").sort_index()
        )
        # a->b reciprocated (b->a); a->c not; c self-loop excluded
        assert out.loc["a", "n_out"] == 2 and out.loc["a", "n_reciprocal"] == 1
        assert out.loc["b", "n_out"] == 1 and out.loc["b", "n_reciprocal"] == 1
        assert out.loc["c", "n_out"] == 1 and out.loc["c", "n_reciprocal"] == 0


class TestLineitemMutualInfo:
    def test_independent_columns_score_zero(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        from query_suite.pipelines.relational import q_lineitem_mutual_info

        # perfectly independent 2x2 with equal counts -> MI exactly 0
        d = tmp_path / "sf"
        d.mkdir(exist_ok=True)
        pq.write_table(pa.table({
            "l_returnflag": pa.array(["A", "A", "B", "B"] * 5),
            "l_linestatus": pa.array(["X", "Y", "X", "Y"] * 5),
        }), str(d / "lineitem.parquet"))
        out = q_lineitem_mutual_info(str(d)).to_pandas().iloc[0]
        assert out["n_rows"] == 20 and out["n_cells"] == 4
        assert out["mi_terms_nano"] == 0

    def test_perfect_dependence_is_entropy(self, ray_session, tmp_path):
        import math

        import pyarrow.parquet as pq

        from query_suite.pipelines.relational import MI_UNIT, q_lineitem_mutual_info

        # Y == X (2 equally likely values): MI = H(X) = ln 2
        d = tmp_path / "sf"
        d.mkdir(exist_ok=True)
        pq.write_table(pa.table({
            "l_returnflag": pa.array(["A", "B"] * 10),
            "l_linestatus": pa.array(["A", "B"] * 10),
        }), str(d / "lineitem.parquet"))
        out = q_lineitem_mutual_info(str(d)).to_pandas().iloc[0]
        mi = out["mi_terms_nano"] / (out["n_rows"] * MI_UNIT)
        assert abs(mi - math.log(2)) < 1e-6


class TestPartRules:
    def test_lift_formula_exact(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        import query_suite.pipelines.relational as R

        # 10 orders: parts (1,2) together in 3; part 1 in 4 total, 2 in 3
        rows = []
        for o in range(3):
            rows += [(o, 1), (o, 2)]
        rows += [(3, 1)]
        for o in range(4, 10):
            rows += [(o, 9)]
        d = tmp_path / "sf"
        d.mkdir(exist_ok=True)
        pq.write_table(pa.table({
            "l_orderkey": pa.array([a for a, _ in rows], pa.int64()),
            "l_partkey": pa.array([b for _, b in rows], pa.int64()),
        }), str(d / "lineitem.parquet"))
        pq.write_table(pa.table({
            "o_orderkey": pa.array(list(range(10)), pa.int64()),
        }), str(d / "orders.parquet"))
        out = R.q_part_rules(str(d))
        assert len(out) == 1
        r = out.iloc[0]
        assert (r["part_a"], r["part_b"], r["n_ab"]) == (1, 2, 3)
        assert r["lift_micro"] == 3 * 10 * R.LIFT_UNIT // (4 * 3)


class TestEventsBursts:
    def test_burst_rule_and_no_baseline(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        from query_suite.pipelines.relational import q_events_bursts

        rows = []
        eid = 0
        base = pd.Timestamp("2024-01-02 00:00:00")
        # 24 quiet hours with 1 event each, then a 20-event spike hour
        for h in range(24):
            rows.append({"event_id": eid, "ts": base + pd.Timedelta(hours=h),
                         "event_type": "click"})
            eid += 1
        spike = base + pd.Timedelta(hours=24)
        for _ in range(20):
            rows.append({"event_id": eid, "ts": spike, "event_type": "click"})
            eid += 1
        # an isolated first hour of another type: no baseline -> no flag
        rows.append({"event_id": eid, "ts": base, "event_type": "view"})
        d = tmp_path / "sf"
        d.mkdir(exist_ok=True)
        t = pa.Table.from_pylist(rows)
        t = t.set_column(t.schema.get_field_index("ts"), "ts",
                         t["ts"].cast(pa.timestamp("us")))
        pq.write_table(t, str(d / "events.parquet"))
        out = q_events_bursts(str(d)).to_pandas()
        # spike hour: 20*24 = 480 > 3*24 = 72 -> flagged; nothing else
        assert len(out) == 1
        r = out.iloc[0]
        assert r["event_type"] == "click" and r["n_events"] == 20
        assert r["trailing_total"] == 24


class TestCustomerOrderDistribution:
    def test_custdist_counts_zero_order_customers(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        import query_suite.pipelines.relational as R

        d = tmp_path / "sf"
        d.mkdir(exist_ok=True)
        # customers 0..4; cust 0 has 3 orders, 1 has 3, 2 has 1,
        # 3 only an EXCLUDED-priority order, 4 none
        pq.write_table(pa.table({
            "c_custkey": pa.array(list(range(5)), pa.int64()),
        }), str(d / "customer.parquet"))
        okeys = [0, 0, 0, 1, 1, 1, 2, 3]
        prio = ["1-URGENT"] * 7 + [R.Q13_EXCLUDE_PRIORITY]
        pq.write_table(pa.table({
            "o_orderkey": pa.array(list(range(len(okeys))), pa.int64()),
            "o_custkey": pa.array(okeys, pa.int64()),
            "o_orderpriority": pa.array(prio, pa.string()),
        }), str(d / "orders.parquet"))
        out = (
            R.q_customer_order_distribution(str(d))
            .to_pandas()
            .set_index("n_orders")["custdist"]
            .to_dict()
        )
        # 2 customers with 3 orders, 1 with 1, 2 with 0 (cust 3's only order
        # is excluded by the priority predicate; cust 4 never ordered)
        assert out == {3: 2, 1: 1, 0: 2}


class TestPartSmallQtyRevenue:
    def test_correlated_avg_gate_exact(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        import query_suite.pipelines.relational as R

        d = tmp_path / "sf"
        d.mkdir(exist_ok=True)
        pq.write_table(pa.table({
            "p_partkey": pa.array([1, 2], pa.int64()),
            "p_brand": pa.array([R.Q17_BRAND, "Brand#99"], pa.string()),
        }), str(d / "part.parquet"))
        # part 1 (in brand): quantities 1, 10, 10, 10 -> avg 7.75;
        # 0.2*avg = 1.55 -> only the qty-1 row qualifies (5*1*4=20 < 31)
        # part 2 (other brand): would qualify but must be excluded
        pq.write_table(pa.table({
            "l_partkey": pa.array([1, 1, 1, 1, 2, 2], pa.int64()),
            "l_quantity": pa.array([1.0, 10.0, 10.0, 10.0, 1.0, 50.0], pa.float64()),
            "l_extendedprice": pa.array([11.11, 1.0, 1.0, 1.0, 999.0, 1.0], pa.float64()),
        }), str(d / "lineitem.parquet"))
        out = R.q_part_small_qty_revenue(str(d))
        assert out["revenue_cents"].tolist() == [1111]


class TestCustomersUntapped:
    def test_scalar_gate_and_anti_join(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        import query_suite.pipelines.relational as R

        d = tmp_path / "sf"
        d.mkdir(exist_ok=True)
        code = R.Q22_COUNTRY_CODES[0]
        # positive balances: 10.00 and 30.00 -> global avg positive = 20.00
        # cust 0: code-match, bal 30 > avg, dormant -> KEPT
        # cust 1: code-match, bal 10 < avg -> dropped (scalar gate)
        # cust 2: code-match, bal 30 but has a RECENT order -> dropped (anti)
        # cust 3: wrong country code, bal 30, dormant -> dropped
        pq.write_table(pa.table({
            "c_custkey": pa.array([0, 1, 2, 3], pa.int64()),
            "c_nationkey": pa.array([code, code, code, (code + 1) % 25], pa.int32()),
            "c_acctbal": pa.array([30.0, 10.0, 30.0, 30.0], pa.float64()),
        }), str(d / "customer.parquet"))
        after = pd.Timestamp(R.DORMANT_CUTOFF) + pd.Timedelta(days=1)
        before = pd.Timestamp(R.DORMANT_CUTOFF) - pd.Timedelta(days=1)
        t = pa.table({
            "o_orderkey": pa.array([0, 1], pa.int64()),
            "o_custkey": pa.array([2, 0], pa.int64()),
            "o_orderdate": pa.array([after, before], pa.timestamp("us")),
        })
        pq.write_table(t, str(d / "orders.parquet"))
        out = R.q_customers_untapped(str(d))
        assert len(out) == 1
        r = out.iloc[0]
        assert (r["country_code"], r["numcust"], r["totacctbal_cents"]) == (code, 1, 3000)


class TestHostKcore:
    def test_clique_chain_and_selfloop(self, ray_session, monkeypatch):
        import ray.data as rd

        import query_suite.pipelines.queries as Q

        # 4-clique a-b-c-d (coreness 3) + pendant chain d-e-f (coreness 1)
        # + self-loop-only node g (coreness 0; self-loops never count)
        edges = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
                 ("c", "d"), ("d", "e"), ("e", "f"), ("g", "g")]
        t = pa.table({
            "src": pa.array([s for s, _ in edges], pa.string()),
            "dst": pa.array([d for _, d in edges], pa.string()),
            "n_links": pa.array([1] * len(edges), pa.int64()),
        })
        monkeypatch.setattr(Q, "_host_edges", lambda sf: rd.from_arrow(t))
        out = (
            Q.q_host_kcore("ignored")
            .to_pandas().set_index("host")["coreness"].to_dict()
        )
        assert out == {"a": 3, "b": 3, "c": 3, "d": 3, "e": 1, "f": 1, "g": 0}


class TestHostClustering:
    def test_triangle_plus_pendant(self, ray_session, monkeypatch):
        import ray.data as rd

        import query_suite.pipelines.queries as Q

        # triangle a-b-c plus pendant c-d: a,b fully clustered (coeff 1),
        # c has 3 neighbors but only 1 closed pair -> 2*1/(3*2) = 1/3,
        # d has deg 1 -> coeff 0 by convention
        edges = [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")]
        t = pa.table({
            "src": pa.array([s for s, _ in edges], pa.string()),
            "dst": pa.array([d for _, d in edges], pa.string()),
            "n_links": pa.array([1] * len(edges), pa.int64()),
        })
        monkeypatch.setattr(Q, "_host_edges", lambda sf: rd.from_arrow(t))
        out = (
            Q.q_host_clustering("ignored")
            .to_pandas().set_index("host")
        )
        assert out.loc["a", "coeff_micro"] == Q.CLUST_UNIT
        assert out.loc["b", "coeff_micro"] == Q.CLUST_UNIT
        assert out.loc["c", "coeff_micro"] == 2 * Q.CLUST_UNIT * 1 // 6
        assert out.loc["d", "coeff_micro"] == 0
        assert out.loc["c", "deg"] == 3 and out.loc["c", "n_tri"] == 1


class TestHostComponentsStar:
    def test_chain_and_island_match_propagation(self, ray_session, monkeypatch):
        import ray.data as rd

        import query_suite.pipelines.queries as Q

        # a 12-node chain (diameter stress: star contraction converges in
        # O(log^2 n) rounds, propagation in diameter rounds) + a separate
        # triangle + a self-loop-only isolate
        chain = [(f"n{i:02d}", f"n{i + 1:02d}") for i in range(11)]
        edges = chain + [("t1", "t2"), ("t2", "t3"), ("t3", "t1"), ("z", "z")]
        t = pa.table({
            "src": pa.array([s for s, _ in edges], pa.string()),
            "dst": pa.array([d for _, d in edges], pa.string()),
            "n_links": pa.array([1] * len(edges), pa.int64()),
        })
        monkeypatch.setattr(Q, "_host_edges", lambda sf: rd.from_arrow(t))
        star = (
            Q.q_host_components_star("ignored")
            .to_pandas().set_index("host")["component"].to_dict()
        )
        prop = (
            Q.q_host_components("ignored")
            .to_pandas().set_index("host")["component"].to_dict()
        )
        assert star == prop
        assert all(star[f"n{i:02d}"] == "n00" for i in range(12))
        assert star["t1"] == star["t2"] == star["t3"] == "t1"
        assert star["z"] == "z"


class TestUserValueRollingMedian:
    def test_trailing_frame_and_even_window_midpoint(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        import query_suite.pipelines.relational as R

        d = tmp_path / "sf"
        d.mkdir(exist_ok=True)
        # one user, values 1,2,4,8 dollars -> cents 100,200,400,800
        t = pa.table({
            "event_id": pa.array([0, 1, 2, 3], pa.int64()),
            "user_id": pa.array([7, 7, 7, 7], pa.int64()),
            "value": pa.array([1.0, 2.0, 4.0, 8.0], pa.float64()),
        })
        pq.write_table(t, str(d / "events.parquet"))
        out = (
            R.q_user_value_rolling_median(str(d))
            .to_pandas().set_index("event_id")["med_cents"].to_dict()
        )
        # frames: [100] -> 100; [100,200] -> 150 (even midpoint);
        # [100,200,400] -> 200; [100,200,400,800] -> 300
        assert out == {0: 100.0, 1: 150.0, 2: 200.0, 3: 300.0}


class TestEventsNewUsers:
    def test_first_seen_and_cumulative(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        import query_suite.pipelines.relational as R

        d = tmp_path / "sf"
        d.mkdir(exist_ok=True)
        day = pd.Timestamp("2024-03-01")
        rows = [
            # day 0: users 1, 2 appear
            {"event_id": 0, "user_id": 1, "ts": day},
            {"event_id": 1, "user_id": 2, "ts": day + pd.Timedelta(hours=5)},
            # day 1: user 1 returns (NOT new), user 3 appears
            {"event_id": 2, "user_id": 1, "ts": day + pd.Timedelta(days=1)},
            {"event_id": 3, "user_id": 3, "ts": day + pd.Timedelta(days=1)},
            # day 3: nobody new (user 2 returns)
            {"event_id": 4, "user_id": 2, "ts": day + pd.Timedelta(days=3)},
        ]
        t = pa.Table.from_pylist(rows)
        t = t.set_column(t.schema.get_field_index("ts"), "ts",
                         t["ts"].cast(pa.timestamp("us")))
        pq.write_table(t, str(d / "events.parquet"))
        out = R.q_events_new_users(str(d))
        # day 3 has no new users -> no row (first-seen grain), cum skips it
        assert out["n_new"].tolist() == [2, 1]
        assert out["cum_users"].tolist() == [2, 3]


class TestKnnInt8:
    def test_quantized_ranking_and_recall(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        import query_suite.pipelines.queries as Q

        d = tmp_path / "sf"
        d.mkdir(exist_ok=True)
        qv = Q._query_vector()
        rs = np.random.RandomState(5)
        vecs = [qv * 3.0]                       # exact direction match -> rank 1
        vecs += [rs.standard_normal(64) for _ in range(30)]
        vecs += [np.zeros(64)]                  # zero vector -> sim 0, never top
        t = pa.table({
            "vec_id": pa.array(list(range(len(vecs))), pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in vecs],
                                  pa.list_(pa.float32())),
        })
        pq.write_table(t, str(d / "embeddings.parquet"))
        out = Q.q_knn_int8(str(d))
        assert out["vec_id"].iloc[0] == 0       # the planted match wins
        assert 31 not in set(out["vec_id"])     # zero vector excluded

    def test_codes_match_quantize_rule(self):
        import query_suite.pipelines.queries as Q

        m = np.array([[1.0, -0.5, 0.25, -127.0 / 127.0]])
        codes = Q._int8_codes(m * 2.0)          # absmax 2.0 -> scale 2/127
        assert codes[0].tolist() == [127.0, -64.0, 32.0, -127.0]
        assert Q._int8_codes(np.zeros((1, 4)))[0].tolist() == [0.0] * 4


class TestPartTopSupplier:
    def test_argmax_and_tiebreak(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        import query_suite.pipelines.relational as R

        d = tmp_path / "sf"
        d.mkdir(exist_ok=True)
        # part 1: supp 5 ships 7, supp 3 ships 9 -> winner 3
        # part 2: supp 5 and supp 3 both ship 4 -> tie -> smaller suppkey 3
        pq.write_table(pa.table({
            "l_partkey": pa.array([1, 1, 1, 2, 2], pa.int64()),
            "l_suppkey": pa.array([5, 3, 3, 5, 3], pa.int64()),
            "l_quantity": pa.array([7.0, 4.0, 5.0, 4.0, 4.0], pa.float64()),
        }), str(d / "lineitem.parquet"))
        pq.write_table(pa.table({
            "s_suppkey": pa.array([3, 5], pa.int64()),
            "s_acctbal": pa.array([12.5, 99.0], pa.float64()),
        }), str(d / "supplier.parquet"))
        out = (
            R.q_part_top_supplier(str(d))
            .to_pandas().set_index("l_partkey").sort_index()
        )
        assert out.loc[1, "top_suppkey"] == 3 and out.loc[1, "total_qty"] == 9
        assert out.loc[2, "top_suppkey"] == 3 and out.loc[2, "total_qty"] == 4
        assert (out["s_acctbal_cents"] == 1250).all()


class TestHostAssortativity:
    def test_star_graph_is_disassortative(self, ray_session, monkeypatch):
        import ray.data as rd

        import query_suite.pipelines.queries as Q

        # a star (hub h with 4 leaves): ends always pair deg 4 with deg 1 ->
        # assortativity is exactly -1
        edges = [("h", f"l{i}") for i in range(4)]
        t = pa.table({
            "src": pa.array([s for s, _ in edges], pa.string()),
            "dst": pa.array([d for _, d in edges], pa.string()),
            "n_links": pa.array([1] * len(edges), pa.int64()),
        })
        monkeypatch.setattr(Q, "_host_edges", lambda sf: rd.from_arrow(t))
        out = Q.q_host_assortativity("ignored")
        assert out["n_stubs"].iloc[0] == 8
        assert abs(out["assortativity"].iloc[0] + 1.0) < 1e-12


class TestOrdersLargeVolume:
    def test_having_gate(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        import query_suite.pipelines.relational as R

        d = tmp_path / "sf"
        d.mkdir(exist_ok=True)
        big, small = R.Q18_QTY + 5, 3
        pq.write_table(pa.table({
            "l_orderkey": pa.array([1, 1, 2], pa.int64()),
            "l_quantity": pa.array([float(big - 1), 1.0, float(small)], pa.float64()),
        }), str(d / "lineitem.parquet"))
        pq.write_table(pa.table({
            "o_orderkey": pa.array([1, 2], pa.int64()),
            "o_custkey": pa.array([9, 9], pa.int64()),
            "o_totalprice": pa.array([10.0, 20.0], pa.float64()),
        }), str(d / "orders.parquet"))
        out = R.q_orders_large_volume(str(d)).to_pandas()
        assert out["l_orderkey"].tolist() == [1]
        assert out["total_qty"].tolist() == [big]


class TestSuppliersLateSole:
    def test_sole_late_on_multi_supplier_orders(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        import query_suite.pipelines.relational as R

        d = tmp_path / "sf"
        d.mkdir(exist_ok=True)
        od = pd.Timestamp("1996-01-01")
        late = od + pd.Timedelta(days=R.Q21_LATE_DAYS + 1)
        ontime = od + pd.Timedelta(days=5)
        rows = [
            # order 1: supp 7 late, supp 8 on time -> supp 7 counted
            (1, 7, late), (1, 8, ontime),
            # order 2: both late -> nobody counted (n_late != 1)
            (2, 7, late), (2, 8, late),
            # order 3: single-supplier late -> not counted (n_supp == 1)
            (3, 7, late),
            # order 4: supp 8 has one on-time and one late line -> late wins
            (4, 8, late), (4, 8, ontime), (4, 7, ontime),
        ]
        t = pa.table({
            "l_orderkey": pa.array([r[0] for r in rows], pa.int64()),
            "l_suppkey": pa.array([r[1] for r in rows], pa.int64()),
            "l_shipdate": pa.array([r[2] for r in rows], pa.timestamp("us")),
        })
        pq.write_table(t, str(d / "lineitem.parquet"))
        pq.write_table(pa.table({
            "o_orderkey": pa.array([1, 2, 3, 4], pa.int64()),
            "o_orderdate": pa.array([od] * 4, pa.timestamp("us")),
        }), str(d / "orders.parquet"))
        out = (
            R.q_suppliers_late_sole(str(d))
            .to_pandas().set_index("l_suppkey")["n_wait"].to_dict()
        )
        assert out == {7: 1, 8: 1}


class TestEventsSessionizeIncremental:
    def test_state_carries_across_chunk_boundary(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        import query_suite.pipelines.relational as R

        d = tmp_path / "sf"
        d.mkdir(exist_ok=True)
        base = pd.Timestamp("2024-01-01")
        gap = pd.Timedelta(seconds=R.SESSION_GAP_S)
        rows = [
            # user 1: two events 1 min apart early, then one event much
            # later that lands in a different micro-batch BUT within the
            # session gap of nothing -> new session; then a continuation
            {"user_id": 1, "ts": base},
            {"user_id": 1, "ts": base + pd.Timedelta(minutes=1)},
            {"user_id": 1, "ts": base + 3 * gap},
            {"user_id": 1, "ts": base + 3 * gap + pd.Timedelta(minutes=1)},
            # user 2: a single event in the last window
            {"user_id": 2, "ts": base + 3 * gap + pd.Timedelta(minutes=2)},
        ]
        t = pa.Table.from_pylist(rows)
        t = t.set_column(t.schema.get_field_index("ts"), "ts",
                         t["ts"].cast(pa.timestamp("us")))
        pq.write_table(t, str(d / "events.parquet"))
        inc = (
            R.q_events_sessionize_incremental(str(d))
            .to_pandas().set_index("user_id").sort_index()
        )
        batch = (
            R.q_events_sessionize(str(d))
            .to_pandas().set_index("user_id").sort_index()
        )
        assert inc.equals(batch)
        assert inc.loc[1, "n_sessions"] == 2 and inc.loc[1, "n_events"] == 4
        assert inc.loc[2, "n_sessions"] == 1


class TestPartRulesDistinct:
    def test_cross_block_duplicate_pair_counts_once(self, ray_session, tmp_path):
        """A (order, part) pair split across TWO input files (= two read
        blocks) must count that order ONCE in n_a/n_b — the per-block
        distinct-then-sum regression the sf0.001 sweep caught."""
        import pyarrow.parquet as pq

        import query_suite.pipelines.relational as R

        d = tmp_path / "sf"
        (d / "lineitem.parquet").mkdir(parents=True)
        pq.write_table(
            pa.table({"o_orderkey": list(range(1, 11))}),
            str(d / "orders.parquet"),
        )
        # orders 1-3 each hold parts 100 AND 200 (pair support 3)
        f1 = pa.table({
            "l_orderkey": [1, 1, 2, 2, 3, 3, 1],
            "l_partkey": [100, 200, 100, 200, 100, 200, 100],  # in-file dup
        })
        # order 1 repeats part 100 in a SECOND file -> second read block
        f2 = pa.table({"l_orderkey": [1, 1], "l_partkey": [100, 200]})
        pq.write_table(f1, str(d / "lineitem.parquet" / "part1.parquet"))
        pq.write_table(f2, str(d / "lineitem.parquet" / "part2.parquet"))

        out = R.q_part_rules(str(d))
        assert len(out) == 1
        row = out.iloc[0]
        assert (row["part_a"], row["part_b"]) == (100, 200)
        assert row["n_ab"] == 3
        assert row["n_a"] == 3, "cross-file duplicate pair double-counted"
        assert row["n_b"] == 3
        assert row["lift_micro"] == 3 * 10 * 1_000_000 // (3 * 3)


class TestDedupSelectBest:
    def test_winner_is_max_alpha_member(self, ray_session):
        from query_suite.pipelines.queries import (
            q_dedup_near_clusters,
            q_dedup_select_best,
        )

        sf = "/root/testdata/sf0.001"
        comp = q_dedup_near_clusters(sf).to_pandas()
        best = q_dedup_select_best(sf).to_pandas()
        assert set(best["cluster_id"]) == set(comp["cluster_id"])
        sizes = comp.groupby("cluster_id").size()
        for r in best.itertuples(index=False):
            members = set(
                comp[comp["cluster_id"] == r.cluster_id]["doc_id"]
            )
            assert r.keep_doc_id in members
            assert r.n_members == sizes[r.cluster_id]
            assert r.n_members >= 2  # clusters only exist for >=1 pair


class TestCorpusDsirWeights:
    def test_target_lang_docs_score_higher(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        import query_suite.pipelines.webtext as W

        d = tmp_path / "sf"
        d.mkdir()
        docs = pa.table({
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "lang": ["en", "en", "fr", "fr"],
            "text": [
                "alpha beta alpha beta alpha",
                "alpha beta gamma",
                "gamma delta gamma delta gamma",
                "delta gamma delta",
            ],
        })
        pq.write_table(docs, str(d / "documents.parquet"))
        out = (
            W.q_corpus_dsir_weights(str(d))
            .to_pandas().set_index("doc_id").sort_index()
        )
        # en-dominated bigrams score positive, fr-dominated negative
        assert out.loc[1, "dsir_logw_nano"] > 0 > out.loc[3, "dsir_logw_nano"]
        assert out.loc[1, "n_bigrams"] == 4
        # deterministic across runs
        out2 = (
            W.q_corpus_dsir_weights(str(d))
            .to_pandas().set_index("doc_id").sort_index()
        )
        assert out.equals(out2)


class TestCorpusBpeMerges:
    def test_apply_overlap_is_left_to_right_nonoverlapping(self):
        from query_suite.pipelines.webtext import _bpe_apply

        assert _bpe_apply("aaa", [("a", "a")]) == ["aa", "a", "</w>"]
        assert _bpe_apply("aaaa", [("a", "a")]) == ["aa", "aa", "</w>"]
        assert _bpe_apply("aaaa", [("a", "a"), ("aa", "aa")]) == ["aaaa", "</w>"]

    def test_learned_merges_match_scalar_reference(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        import query_suite.pipelines.webtext as W

        d = tmp_path / "sf"
        d.mkdir()
        corpus = "low low low lower lower newest newest newest newest widest"
        pq.write_table(
            pa.table({"doc_id": pa.array([1], pa.int64()),
                      "lang": ["en"], "text": [corpus]}),
            str(d / "documents.parquet"),
        )
        out = W.q_corpus_bpe_merges(str(d))

        # independent scalar twin (Sennrich alg. 1 on word counts)
        from collections import Counter

        wc = Counter(corpus.split())
        merges, expect = [], []
        for rnd in range(1, W.BPE_MERGES + 1):
            pc_: Counter = Counter()
            for w, n in wc.items():
                syms = W._bpe_apply(w, merges)
                for i in range(len(syms) - 1):
                    pc_[(syms[i], syms[i + 1])] += n
            best = min(pc_.items(), key=lambda kv: (-kv[1], kv[0][0] + " " + kv[0][1]))
            merges.append(best[0])
            expect.append((rnd, best[0][0], best[0][1], best[1]))
        got = list(out.itertuples(index=False, name=None))
        assert got == expect
        # the classic corpus learns 'est</w>' early
        joined = {a + b for _, a, b, _ in expect}
        assert any("est" in s for s in joined)


class TestDocSampleWor:
    def test_heavy_doc_always_included_and_deterministic(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        import query_suite.pipelines.webtext as W

        d = tmp_path / "sf"
        d.mkdir()
        n = 300
        docs = pa.table({
            "doc_id": pa.array(list(range(1, n + 1)), pa.int64()),
            "n_chars": pa.array([10**9] + [1] * (n - 1), pa.int64()),
        })
        pq.write_table(docs, str(d / "documents.parquet"))
        out = W.q_doc_sample_wor(str(d))
        assert len(out) == W.SAMPLE_WOR_K
        # the overwhelming weight wins rank 1 (key -> ~0 from below)
        assert out.iloc[0]["doc_id"] == 1
        assert list(out["rank"]) == list(range(1, W.SAMPLE_WOR_K + 1))
        out2 = W.q_doc_sample_wor(str(d))
        assert out.equals(out2)
        # without replacement: all distinct
        assert out["doc_id"].nunique() == W.SAMPLE_WOR_K


class TestDocShuffleRank:
    def test_permutation_is_complete_and_reproducible(self, ray_session):
        import query_suite.pipelines.webtext as W

        sf = "/root/testdata/sf0.001"
        out = W.q_doc_shuffle_rank(sf).to_pandas()
        assert sorted(out["shuffle_rank"]) == list(range(1, len(out) + 1))
        assert out["doc_id"].nunique() == len(out)
        out2 = W.q_doc_shuffle_rank(sf).to_pandas()
        a = out.sort_values("doc_id").reset_index(drop=True)
        b = out2.sort_values("doc_id").reset_index(drop=True)
        assert a.equals(b)
        # it IS a shuffle: not the identity permutation
        srt = out.sort_values("shuffle_rank")["doc_id"].to_numpy()
        assert not (srt == np.sort(srt)).all()


class TestEventsWindowFinal:
    def test_late_event_past_lateness_is_dropped(self, ray_session, tmp_path):
        """The sf testdata is nearly in order (zero drops), so the drop
        path needs a crafted log: an event arriving after the watermark
        passed its window end + 1 h lateness must land in n_dropped."""
        import pyarrow.parquet as pq

        import query_suite.pipelines.relational as R

        d = tmp_path / "sf"
        d.mkdir()
        base = pd.Timestamp("2024-06-01 00:10:00")
        rows = [
            # window 00:00: two on-time events
            {"event_id": 1, "ts": base, "event_type": "a"},
            {"event_id": 2, "ts": base + pd.Timedelta(minutes=5), "event_type": "a"},
            # watermark jumps to 03:00 (window 03:00)
            {"event_id": 3, "ts": pd.Timestamp("2024-06-01 03:00:00"), "event_type": "a"},
            # straggler for window 00:00 arrives when wm=03:00 >= 00:00+2h -> DROP
            {"event_id": 4, "ts": base + pd.Timedelta(minutes=20), "event_type": "a"},
            # straggler for window 02:00 arrives when wm=03:00 < 02:00+2h -> final
            {"event_id": 5, "ts": pd.Timestamp("2024-06-01 02:30:00"), "event_type": "a"},
        ]
        t = pa.Table.from_pylist(rows)
        t = t.set_column(t.schema.get_field_index("ts"), "ts",
                         t["ts"].cast(pa.timestamp("us")))
        pq.write_table(t, str(d / "events.parquet"))
        out = (
            R.q_events_window_final(str(d)).to_pandas()
            .set_index("window_ts").sort_index()
        )
        w0 = out.loc[pd.Timestamp("2024-06-01 00:00:00")]
        assert w0["n_final"] == 2 and w0["n_dropped"] == 1
        w2 = out.loc[pd.Timestamp("2024-06-01 02:00:00")]
        assert w2["n_final"] == 1 and w2["n_dropped"] == 0
        w3 = out.loc[pd.Timestamp("2024-06-01 03:00:00")]
        assert w3["n_final"] == 1 and w3["n_dropped"] == 0


class TestOrdersDailyEwma:
    def test_quarter_alpha_integer_fold(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        import query_suite.pipelines.relational as R

        d = tmp_path / "sf"
        d.mkdir()
        # three days: 100.00, 2.00 (two 1.00 orders), 10.00 dollars
        rows = [
            {"o_orderkey": 1, "o_orderdate": pd.Timestamp("2024-01-01"), "o_totalprice": 100.0},
            {"o_orderkey": 2, "o_orderdate": pd.Timestamp("2024-01-02"), "o_totalprice": 1.0},
            {"o_orderkey": 3, "o_orderdate": pd.Timestamp("2024-01-02"), "o_totalprice": 1.0},
            {"o_orderkey": 4, "o_orderdate": pd.Timestamp("2024-01-03"), "o_totalprice": 10.0},
        ]
        t = pa.Table.from_pylist(rows)
        t = t.set_column(t.schema.get_field_index("o_orderdate"), "o_orderdate",
                         t["o_orderdate"].cast(pa.timestamp("us")))
        pq.write_table(t, str(d / "orders.parquet"))
        out = R.q_orders_daily_ewma(str(d))
        assert out["day"].tolist() == ["2024-01-01", "2024-01-02", "2024-01-03"]
        assert out["revenue_cents"].tolist() == [10000, 200, 1000]
        # s1=10000; s2=(200+3*10000)//4=7550; s3=(1000+3*7550)//4=5912
        assert out["ewma_cents"].tolist() == [10000, 7550, 5912]


class TestDocBpeEncode:
    def test_counts_match_scalar_segmentation(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        import query_suite.pipelines.webtext as W

        d = tmp_path / "sf"
        d.mkdir()
        docs = [
            "low low low lower lower newest newest newest newest widest",
            "newest low",
            "",  # empty doc -> (0, 0)
        ]
        pq.write_table(
            pa.table({"doc_id": pa.array([1, 2, 3], pa.int64()),
                      "lang": ["en"] * 3, "text": docs}),
            str(d / "documents.parquet"),
        )
        out = (
            W.q_doc_bpe_encode(str(d))
            .to_pandas().set_index("doc_id").sort_index()
        )
        _, merges, _ = W._bpe_learn(str(d))
        for doc_id, text in zip([1, 2, 3], docs):
            toks = text.split()
            assert out.loc[doc_id, "n_tokens"] == len(toks)
            assert out.loc[doc_id, "n_bpe_tokens"] == sum(
                len(W._bpe_apply(t, merges)) for t in toks
            )
        # merges compress: fewer BPE symbols than raw chars + end markers
        raw = sum(len(t) + 1 for t in docs[0].split())
        assert out.loc[1, "n_bpe_tokens"] < raw


class TestDedupLinesGlobal:
    def test_cross_file_first_instance_wins(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        import query_suite.pipelines.webtext as W

        d = tmp_path / "sf"
        d.mkdir()
        # two parquet files so duplicate lines CROSS block boundaries
        pq.write_table(
            pa.table({
                "doc_id": pa.array([1, 2], pa.int64()),
                "text": ["keep me\nshared line\n\nkeep me",  # within-doc repeat
                         "shared line\nunique two"],
            }),
            str(d / "documents.parquet"),
        )
        d2 = tmp_path / "sf" / "more"
        pq.write_table(
            pa.table({
                "doc_id": pa.array([3, 4], pa.int64()),
                "text": ["unique three\nshared line", ""],
            }),
            str(d / "documents2.parquet"),
        )
        # directory read: point _read at the dir by renaming layout
        import os
        os.mkdir(str(d / "documents_dir"))
        os.rename(str(d / "documents.parquet"), str(d / "documents_dir" / "a.parquet"))
        os.rename(str(d / "documents2.parquet"), str(d / "documents_dir" / "b.parquet"))
        os.rename(str(d / "documents_dir"), str(d / "documents.parquet"))

        out = (
            W.q_dedup_lines_global(str(d))
            .to_pandas().set_index("doc_id").sort_index()
        )
        # doc 1: "keep me"(1) kept, "shared line"(2) kept (global first),
        # ""(3) kept (empty = structural), "keep me"(4) dropped (doc 1 idx 1 earlier)
        assert out.loc[1, "n_lines"] == 4 and out.loc[1, "n_dropped"] == 1
        assert out.loc[1, "text_deduped"] == "keep me\nshared line\n"
        # doc 2 line 1 duplicates doc 1 idx 2 -> dropped
        assert out.loc[2, "n_dropped"] == 1
        assert out.loc[2, "text_deduped"] == "unique two"
        # doc 3 line 2 duplicates -> dropped
        assert out.loc[3, "n_dropped"] == 1
        assert out.loc[3, "text_deduped"] == "unique three"
        # empty doc: one empty line, kept
        assert out.loc[4, "n_lines"] == 1 and out.loc[4, "n_dropped"] == 0
        assert out.loc[4, "text_deduped"] == ""


class TestEmbeddingPcaPower:
    def test_dominant_direction_recovered(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        import query_suite.pipelines.queries as Q

        d = tmp_path / "sf"
        d.mkdir()
        # dominant variance along dim 0: coefficients -3..3, tiny dim-1 noise
        coef = [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0]
        vecs = []
        for k, c in enumerate(coef):
            v = np.zeros(64)
            v[0] = c
            v[1] = 0.01 * (k % 2)
            vecs.append(v.tolist())
        pq.write_table(
            pa.table({"vec_id": pa.array(range(7), pa.int64()),
                      "embedding": pa.array(vecs, pa.list_(pa.float64()))}),
            str(d / "embeddings.parquet"),
        )
        out = (
            Q.q_embedding_pca_power(str(d))
            .to_pandas().set_index("vec_id").sort_index()["pc1_score"]
        )
        # projections must be strictly monotone in the dim-0 coefficient
        # (either orientation of the eigenvector)
        s = out.tolist()
        assert all(a < b for a, b in zip(s, s[1:])) or all(
            a > b for a, b in zip(s, s[1:])
        )
        # zero vector projects to ~0 relative to the extremes
        assert abs(s[3]) < abs(s[0]) / 100


class TestDedupSemantic:
    def test_planted_near_dup_found_orthogonal_kept(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        import query_suite.pipelines.queries as Q

        d = tmp_path / "sf"
        d.mkdir()
        rs = np.random.RandomState(11)
        base = rs.standard_normal(64)
        vecs = {}
        # spread of random vectors (ids 0..7 seed the centroids)
        for i in range(12):
            vecs[i] = rs.standard_normal(64)
        vecs[20] = base
        vecs[21] = base * 1.5 + rs.standard_normal(64) * 0.01  # near-dup of 20
        ortho = np.zeros(64); ortho[0] = 1.0
        vecs[22] = ortho  # nothing like it in the set
        ids = sorted(vecs)
        pq.write_table(
            pa.table({"vec_id": pa.array(ids, pa.int64()),
                      "embedding": pa.array([vecs[i].tolist() for i in ids],
                                            pa.list_(pa.float64()))}),
            str(d / "embeddings.parquet"),
        )
        out = (
            Q.q_dedup_semantic(str(d))
            .to_pandas().set_index("vec_id").sort_index()
        )
        assert len(out) == len(ids)
        # the planted near-identical pair: higher id flagged against lower
        assert out.loc[21, "is_dup"] == 1 and out.loc[21, "dup_of"] == 20
        assert out.loc[20, "dup_of"] != 21  # lower id never points upward
        # every flagged vector points at a strictly lower id in its cluster
        flagged = out[out["is_dup"] == 1]
        assert (flagged["dup_of"] < flagged.index).all()
        assert (out.loc[out["is_dup"] == 0, "dup_of"] == -1).all()


class TestDedupSubstrings:
    def test_cross_file_repeated_run_erased_once(self, ray_session, tmp_path):
        import os

        import pyarrow.parquet as pq

        import query_suite.pipelines.webtext as W

        d = tmp_path / "sf"
        d.mkdir()
        run = " ".join(f"w{i}" for i in range(W.SPAN_W + 2))  # 12-token run
        doc1 = "intro " + run + " outro"
        doc2 = "prefix two " + run  # the same run, later doc, other file
        short = "too short to window"
        os.mkdir(str(d / "documents.parquet"))
        pq.write_table(
            pa.table({"doc_id": pa.array([1], pa.int64()), "text": [doc1]}),
            str(d / "documents.parquet" / "a.parquet"),
        )
        pq.write_table(
            pa.table({"doc_id": pa.array([2, 3], pa.int64()),
                      "text": [doc2, short]}),
            str(d / "documents.parquet" / "b.parquet"),
        )
        out = (
            W.q_dedup_substrings(str(d))
            .to_pandas().set_index("doc_id").sort_index()
        )
        # doc 1 holds every window's first instance: untouched
        assert out.loc[1, "n_removed"] == 0
        assert out.loc[1, "text_deduped"] == doc1
        # doc 2: every window inside the run duplicates doc 1 -> whole run
        # erased, the non-repeated prefix survives
        assert out.loc[2, "n_removed"] == W.SPAN_W + 2
        assert out.loc[2, "text_deduped"] == "prefix two"
        # sub-window docs never explode a window
        assert out.loc[3, "n_removed"] == 0
        assert out.loc[3, "text_deduped"] == short


class TestRetrievalMmr:
    def test_diversity_beats_redundancy(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        import query_suite.pipelines.queries as Q

        d = tmp_path / "sf"
        d.mkdir()
        qv = Q._query_vector()
        qn = qv / np.linalg.norm(qv)
        # an orthogonal direction for the diverse candidate
        rs = np.random.RandomState(3)
        o = rs.standard_normal(64)
        o -= (o @ qn) * qn
        o /= np.linalg.norm(o)
        vecs = {
            0: qn + o * 0.3,                  # most relevant (slightly off-axis)
            1: (qn + o * 0.3) * 1.01,         # scaled clone of 0 (same codes)
            2: qn - o * 0.3,                  # equally relevant, opposite tilt
        }
        # filler far from everything
        for i in range(3, 10):
            f = rs.standard_normal(64)
            f -= (f @ qn) * qn
            vecs[i] = f * 0.1 - qn  # anti-aligned: never selected early
        ids = sorted(vecs)
        pq.write_table(
            pa.table({"vec_id": pa.array(ids, pa.int64()),
                      "embedding": pa.array([vecs[i].tolist() for i in ids],
                                            pa.list_(pa.float64()))}),
            str(d / "embeddings.parquet"),
        )
        out = Q.q_retrieval_mmr(str(d))
        assert out["rnk"].tolist() == list(range(1, Q.MMR_K + 1))
        sel = out["vec_id"].tolist()
        # rank 1 is pure relevance -> the clone pair's lower id
        assert sel[0] == 0
        # rank 2 must prefer the DIVERSE vector over the near-clone
        assert sel[1] == 2
        assert 1 in sel  # the clone still makes it in later
        # scores are non-increasing in rank? (not guaranteed by MMR in
        # general, but selection is deterministic) — just check uniqueness
        assert len(set(sel)) == len(sel)


class TestEventsRateLimit:
    def test_burst_denial_and_refill(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        import query_suite.pipelines.relational as R

        d = tmp_path / "sf"
        d.mkdir()
        t0 = pd.Timestamp("2024-05-01 12:00:00")
        rows = [
            # user 7 bursts: 5 events in 10 seconds (cap 3 -> 2 denied)
            *({"event_id": i, "user_id": 7,
               "ts": t0 + pd.Timedelta(seconds=2 * i)} for i in range(5)),
            # then waits 2.5 minutes -> floor refill = 2 tokens, both spent
            {"event_id": 5, "user_id": 7,
             "ts": t0 + pd.Timedelta(seconds=8 + 150)},
            {"event_id": 6, "user_id": 7,
             "ts": t0 + pd.Timedelta(seconds=8 + 151)},
            {"event_id": 7, "user_id": 7,
             "ts": t0 + pd.Timedelta(seconds=8 + 152)},  # bucket dry again
            # another user is independent state
            {"event_id": 8, "user_id": 9, "ts": t0},
        ]
        t = pa.Table.from_pylist(list(rows))
        t = t.set_column(t.schema.get_field_index("ts"), "ts",
                         t["ts"].cast(pa.timestamp("us")))
        pq.write_table(t, str(d / "events.parquet"))
        out = (
            R.q_events_rate_limit(str(d))
            .to_pandas().set_index("event_id").sort_index()
        )
        assert out["allowed"].tolist() == [1, 1, 1, 0, 0, 1, 1, 0, 1]
        assert out.loc[0, "tokens_after"] == 2
        assert out.loc[4, "tokens_after"] == 0
        # 150s elapsed -> floor 2 tokens refilled, spent one
        assert out.loc[5, "tokens_after"] == 1
        assert out.loc[7, "tokens_after"] == 0
        assert out.loc[8, "tokens_after"] == R.RL_CAP - 1


class TestRedirectResolve:
    def test_chains_cycles_dangling(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        import query_suite.pipelines.queries as Q

        d = tmp_path / "sf"
        d.mkdir()
        # 57 docs: g=0 is a cycle group (0->1->2->0), g=1..6 chains of
        # lengths 2..7, doc 56 (g=7, p=0, redirecting) points at the
        # nonexistent doc 57 -> dangling final.
        pq.write_table(
            pa.table({"doc_id": pa.array(range(57), pa.int64())}),
            str(d / "documents.parquet"),
        )
        out = (
            Q.q_redirect_resolve(str(d))
            .to_pandas().set_index("url").sort_index()
        )
        assert len(out) == 57
        u = "https://hub.example.com/r/{}".format

        # cycle members: final='', hops=-1, flagged
        for i in (0, 1, 2):
            assert out.loc[u(i), "is_cycle"] == 1
            assert out.loc[u(i), "final_url"] == ""
            assert out.loc[u(i), "n_hops"] == -1
        # terminals in the cycle group resolve to themselves
        assert out.loc[u(5), "final_url"] == u(5)
        assert out.loc[u(5), "n_hops"] == 0

        # g=1 chain: 8 -> 9 -> 10 (terminal)
        assert out.loc[u(8), "final_url"] == u(10)
        assert out.loc[u(8), "n_hops"] == 2
        assert out.loc[u(9), "final_url"] == u(10)
        assert out.loc[u(9), "n_hops"] == 1
        assert out.loc[u(10), "n_hops"] == 0

        # g=5 chain: 40 -> ... -> 46, the 6-hop maximum
        assert out.loc[u(40), "final_url"] == u(46)
        assert out.loc[u(40), "n_hops"] == 6

        # doc 56 redirects to the never-crawled doc 57: dangling final
        assert out.loc[u(56), "final_url"] == u(57)
        assert out.loc[u(56), "n_hops"] == 1
        assert out.loc[u(56), "is_cycle"] == 0

        assert (out["is_cycle"] == 1).sum() == 3

    def test_settled_split_regime_matches_unsplit(
        self, ray_session, tmp_path, monkeypatch
    ):
        """Force the settled-row-split scale path (gate patched to 0) and
        assert it agrees row-for-row with the unsplit loop on a fixture
        containing chains, a cycle and a dangling final."""
        import pyarrow.parquet as pq

        import query_suite.pipelines.queries as Q

        d = tmp_path / "sf"
        d.mkdir()
        pq.write_table(
            pa.table({"doc_id": pa.array(range(57), pa.int64())}),
            str(d / "documents.parquet"),
        )
        unsplit = (
            Q.q_redirect_resolve(str(d))
            .to_pandas().sort_values("url").reset_index(drop=True)
        )
        monkeypatch.setattr(Q, "_REDIR_SPLIT_MIN_ROWS", 0)
        split = (
            Q.q_redirect_resolve(str(d))
            .to_pandas().sort_values("url").reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(split, unsplit)


class TestMedianSelect:
    def test_even_odd_dupes_constant(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        import query_suite.pipelines.relational as R

        d = tmp_path / "sf"
        d.mkdir()
        rows = []
        # odd count: median is the single middle value
        for i, v in enumerate([5.00, 1.00, 9.00]):
            rows.append({"o_orderpriority": "1-ODD", "o_totalprice": v})
        # even count: interpolated -> x2 = sum of the two middles
        for v in [1.00, 2.00, 3.00, 10.00]:
            rows.append({"o_orderpriority": "2-EVEN", "o_totalprice": v})
        # duplicates straddling the middle
        for v in [4.00, 4.00, 4.00, 7.00, 9.00]:
            rows.append({"o_orderpriority": "3-DUP", "o_totalprice": v})
        # constant group (range width 1 -> no refinement rounds)
        for _ in range(6):
            rows.append({"o_orderpriority": "4-CONST", "o_totalprice": 2.50})
        # wide range forces >= 2 histogram refinement rounds
        import numpy as np
        rng = np.random.RandomState(7)
        wide = rng.randint(1, 60_000_000, size=401)  # cents
        for c in wide:
            rows.append({"o_orderpriority": "5-WIDE",
                         "o_totalprice": c / 100.0})
        pq.write_table(pa.Table.from_pylist(rows), str(d / "orders.parquet"))

        out = (
            R.q_order_price_median_select(str(d))
            .set_index("priority")
        )
        assert out.loc["1-ODD", "median_cents_x2"] == 2 * 500
        assert out.loc["2-EVEN", "median_cents_x2"] == 200 + 300
        assert out.loc["3-DUP", "median_cents_x2"] == 2 * 400
        assert out.loc["4-CONST", "median_cents_x2"] == 2 * 250
        exp = int(np.sort(wide)[200]) * 2  # odd count -> middle element
        assert out.loc["5-WIDE", "median_cents_x2"] == exp
        assert out.loc["5-WIDE", "n_orders"] == 401


class TestHostSssp:
    def _uedges(self, triples):
        """triples: directed (src, dst, n_links) -> weighted undirected."""
        import ray.data as rd

        from query_suite.pipelines.queries import _sssp_weighted_uedges

        return _sssp_weighted_uedges(rd.from_arrow(pa.table({
            "src": pa.array([a for a, _, _ in triples]),
            "dst": pa.array([b for _, b, _ in triples]),
            "n_links": pa.array([n for _, _, n in triples], pa.int64()),
        })))

    def test_weighted_path_beats_direct_weak_tie(self, ray_session):
        from query_suite.pipelines.queries import _sssp_broadcast

        # seed-a is a single link (w=3); seed-b heavy (w=1) and b-a heavy
        # (w=1): the weighted shortest path to a is THROUGH b (2 < 3),
        # where hop-BFS would say 1 — min-plus, not hop counting.
        out = (
            _sssp_broadcast(self._uedges([
                ("s.example.org", "a", 1),
                ("s.example.org", "b", 4),
                ("b", "a", 4),
            ]))
            .to_pandas().set_index("host")["dist"]
        )
        assert out["s.example.org"] == 0
        assert out["b"] == 1
        assert out["a"] == 2

    def test_orientation_min_and_weight_buckets(self, ray_session):
        from query_suite.pipelines.queries import _sssp_broadcast

        # s->c has n=1 (w3) but c->s has n=2 (w2): undirected weight is the
        # MIN (2). n=2 and n=3 both land in the middle bucket.
        out = (
            _sssp_broadcast(self._uedges([
                ("s.example.org", "c", 1),
                ("c", "s.example.org", 2),
                ("c", "d", 3),
            ]))
            .to_pandas().set_index("host")["dist"]
        )
        assert out["c"] == 2
        assert out["d"] == 4

    def test_unreachable_and_over_cap(self, ray_session):
        from query_suite.pipelines.queries import SSSP_DIST_CAP, _sssp_broadcast

        # island x-y never reaches a seed -> -1; a long chain of weak ties
        # pushes past the cap -> also -1 (the oracle's classification)
        chain = [("s.example.org", "h0", 1)] + [
            (f"h{i}", f"h{i+1}", 1) for i in range(SSSP_DIST_CAP // 3 + 1)
        ]
        out = (
            _sssp_broadcast(self._uedges(chain + [("x", "y", 4)]))
            .to_pandas().set_index("host")["dist"]
        )
        assert out["x"] == -1 and out["y"] == -1
        assert out["h0"] == 3
        last = f"h{SSSP_DIST_CAP // 3 + 1}"
        assert out[last] == -1  # true dist 3*(cap//3+2) > cap

    def test_join_regime_bit_equal_to_broadcast(self, ray_session, monkeypatch):
        import query_suite.pipelines.queries as Q

        sf = "/root/testdata/sf0.001"
        base = (
            Q.q_host_sssp(sf).to_pandas()
            .sort_values("host").reset_index(drop=True)
        )
        monkeypatch.setattr(Q, "PAGERANK_BROADCAST_HOSTS", -1)
        joined = (
            Q.q_host_sssp(sf).to_pandas()
            .sort_values("host").reset_index(drop=True)
        )
        assert joined.equals(base)


class TestEventsCusum:
    def _events(self, tmp_path, rows):
        """rows: (event_id, user_id, ts_us, value)."""
        import pyarrow.parquet as pq

        t = pa.table({
            "event_id": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array([r[2] for r in rows], pa.timestamp("us")),
            "user_id": pa.array([r[1] for r in rows], pa.int64()),
            "event_type": pa.array(["x"] * len(rows)),
            "value": pa.array([r[3] for r in rows], pa.float64()),
        })
        d = tmp_path / "sf"
        d.mkdir(exist_ok=True)
        pq.write_table(t, str(d / "events.parquet"))
        return str(d)

    def test_flat_stream_never_alarms(self, ray_session, tmp_path):
        from query_suite.pipelines.relational import q_events_cusum

        sf = self._events(tmp_path, [(i, 1, i * 1000, 10.0) for i in range(8)])
        out = q_events_cusum(sf).to_pandas().set_index("user_id")
        # v == mu for every event -> dev = -k < 0 -> S clamps at 0
        assert out.loc[1, "n_alarms"] == 0
        assert out.loc[1, "max_s_micro"] == 0
        assert out.loc[1, "mu_micro"] == 10_000_000

    def test_shift_alarms_and_resets(self, ray_session, tmp_path):
        from query_suite.pipelines.relational import q_events_cusum

        # 6 events at 10 then 2 at 100: mu = 32.5e6, k = mu//20, h = mu.
        # The two 100s each add ~66e6 excess -> each one alone crosses h:
        # alarm + reset twice.
        rows = [(i, 1, i * 1000, 10.0) for i in range(6)] + [
            (6, 1, 6000, 100.0), (7, 1, 7000, 100.0)]
        out = q_events_cusum(self._events(tmp_path, rows)).to_pandas()
        assert out["n_alarms"].iloc[0] == 2

    def test_slow_drift_accumulates_to_one_alarm(self, ray_session, tmp_path):
        from query_suite.pipelines.relational import q_events_cusum

        # values 10,10,10,14,14,14: mu = 12e6, k = 0.6e6, h = 12e6. The 14s
        # each add 1.4e6; the 10s clamp back at 0 but the tail never
        # reaches h -> drift below threshold stays silent (CUSUM's point:
        # a SUSTAINED shift is needed, and 3 x 1.4 < 12)
        rows = [(i, 1, i * 1000, v)
                for i, v in enumerate([10.0, 10.0, 10.0, 14.0, 14.0, 14.0])]
        out = q_events_cusum(self._events(tmp_path, rows)).to_pandas()
        assert out["n_alarms"].iloc[0] == 0
        assert out["max_s_micro"].iloc[0] == 3 * 1_400_000


class TestHostTrustrank:
    def test_join_regime_bit_equal_to_broadcast(self, ray_session, monkeypatch):
        import query_suite.pipelines.queries as Q

        sf = "/root/testdata/sf0.001"
        base = (
            Q.q_host_trustrank(sf).to_pandas()
            .sort_values("host").reset_index(drop=True)
        )
        monkeypatch.setattr(Q, "PAGERANK_BROADCAST_HOSTS", -1)
        joined = (
            Q.q_host_trustrank(sf).to_pandas()
            .sort_values("host").reset_index(drop=True)
        )
        assert joined.equals(base)

    def test_trust_concentrates_near_seeds(self, ray_session):
        import query_suite.pipelines.queries as Q

        sf = "/root/testdata/sf0.001"
        tr = Q.q_host_trustrank(sf).to_pandas().set_index("host")["tr"]
        pr = Q.q_host_pagerank(sf).to_pandas().set_index("host")["pr"]
        # seeds hold teleport mass under TrustRank; every host PageRank
        # considers relevant but the seeds cannot reach scores LOWER than
        # its PageRank share (the pr/tr gap = the spam signal)
        seeds = [h for h in tr.index if h.endswith(".example.org")]
        assert seeds and all(tr[s] > 0 for s in seeds)
        # total injected base mass matches PageRank's (comparable scales)
        assert tr.sum() > 0 and pr.sum() > 0
        # .example.net leaf hosts are linked only FROM sources (never from
        # seeds) -> they can still inherit trust transitively, but a host
        # with no in-links from the trusted component scores 0 + damped
        # contribs only; sanity: no score is negative
        assert (tr >= 0).all()


class TestOrdersDailyGapfill:
    def test_locf_zero_before_first_and_flags(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        from query_suite.pipelines.relational import q_orders_daily_gapfill

        # priority A observed on day 2 and 4 of a 5-day range (day 1 set by
        # priority B): before-first -> 0, gaps carry forward, flags mark fills
        t = pa.table({
            "o_orderkey": pa.array([1, 2, 3], pa.int64()),
            "o_custkey": pa.array([1, 1, 1], pa.int64()),
            "o_orderstatus": pa.array(["O"] * 3),
            "o_totalprice": pa.array([10.0, 20.0, 5.0], pa.float64()),
            "o_orderdate": pa.array(
                [pd.Timestamp("1995-01-02"), pd.Timestamp("1995-01-04"),
                 pd.Timestamp("1995-01-01")], pa.timestamp("us")),
            "o_orderpriority": pa.array(["A", "A", "B"]),
        })
        d = tmp_path / "sf"
        d.mkdir(exist_ok=True)
        pq.write_table(t, str(d / "orders.parquet"))
        out = (
            q_orders_daily_gapfill(str(d)).to_pandas()
            .set_index(["priority", "day"]).sort_index()
        )
        # 2 priorities x 4 days (01-01..01-04)
        assert len(out) == 8
        a = out.loc["A"]
        assert a.loc["1995-01-01", "revenue_cents"] == 0      # before first
        assert a.loc["1995-01-01", "filled"] == 1
        assert a.loc["1995-01-02", "revenue_cents"] == 1000   # observed
        assert a.loc["1995-01-02", "filled"] == 0
        assert a.loc["1995-01-03", "revenue_cents"] == 1000   # carried
        assert a.loc["1995-01-03", "filled"] == 1
        assert a.loc["1995-01-04", "revenue_cents"] == 2000
        b = out.loc["B"]
        assert b.loc["1995-01-04", "revenue_cents"] == 500    # carried 3 days
        assert b.loc["1995-01-04", "filled"] == 1


class TestOrdersDailyHolt:
    def test_trend_state_tracks_a_ramp(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        from query_suite.pipelines.relational import q_orders_daily_holt

        # strictly increasing revenue: trend must go positive and the
        # forecast must sit ABOVE the level (EWMA can't express this)
        days = pd.date_range("1995-01-01", periods=10, freq="D")
        t = pa.table({
            "o_orderkey": pa.array(range(10), pa.int64()),
            "o_custkey": pa.array([1] * 10, pa.int64()),
            "o_orderstatus": pa.array(["O"] * 10),
            "o_totalprice": pa.array([100.0 * (i + 1) for i in range(10)]),
            "o_orderdate": pa.array(days, pa.timestamp("us")),
            "o_orderpriority": pa.array(["A"] * 10),
        })
        d = tmp_path / "sf"
        d.mkdir(exist_ok=True)
        pq.write_table(t, str(d / "orders.parquet"))
        out = q_orders_daily_holt(str(d))
        assert (out["trend_cents"].iloc[3:] > 0).all()
        assert (out["forecast_cents"].iloc[3:]
                > out["level_cents"].iloc[3:]).all()

    def test_truncating_division_on_downtrend(self, ray_session):
        from query_suite.pipelines.relational import _trunc_div

        assert _trunc_div(-7, 2) == -3   # DuckDB //
        assert (-7) // 2 == -4           # Python // — the divergence pinned
        assert _trunc_div(7, 2) == 3
        assert _trunc_div(0, 8) == 0


class TestLineitemBenford:
    def test_benford_sample_scores_near_zero_uniform_far(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        from query_suite.pipelines.relational import BENFORD_PPM, q_lineitem_benford

        # flag A: prices whose first digits FOLLOW Benford proportions out
        # of 1000 rows; flag B: all the same leading digit (worst case)
        prices, flags = [], []
        for d in range(1, 10):
            n = round(BENFORD_PPM[d - 1] / 1000)  # per-mille counts
            prices += [float(d)] * n              # d.00 -> cents d00 -> digit d
            flags += ["A"] * n
        prices += [5.0] * 100
        flags += ["B"] * 100
        t = pa.table({
            "l_returnflag": pa.array(flags),
            "l_extendedprice": pa.array(prices, pa.float64()),
        })
        d_ = tmp_path / "sf"
        d_.mkdir(exist_ok=True)
        pq.write_table(t, str(d_ / "lineitem.parquet"))
        out = (
            q_lineitem_benford(str(d_)).to_pandas()
            .set_index("l_returnflag")["benford_l1_ppm"]
        )
        assert out["A"] < 10_000            # ~Benford -> < 1% L1
        # all-5s: |1e6 - 79181| + (1e6 - 79181) = everything misplaced
        assert out["B"] > 1_500_000


class TestEventsStreamJoin:
    def _events(self, tmp_path, rows):
        """rows: (event_id, user_id, type, ts_us)."""
        import pyarrow.parquet as pq

        t = pa.table({
            "event_id": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array([r[3] for r in rows], pa.timestamp("us")),
            "user_id": pa.array([r[1] for r in rows], pa.int64()),
            "event_type": pa.array([r[2] for r in rows]),
            "value": pa.array([1.0] * len(rows), pa.float64()),
        })
        d = tmp_path / "sf"
        d.mkdir(exist_ok=True)
        pq.write_table(t, str(d / "events.parquet"))
        return str(d)

    def test_window_boundaries_and_multi_match(self, ray_session, tmp_path):
        from query_suite.pipelines.relational import (
            SS_JOIN_WINDOW_MIN,
            q_events_stream_join,
        )

        w = SS_JOIN_WINDOW_MIN * 60 * 1_000_000
        rows = [
            (0, 1, "click", 0),            # exactly window-early: INCLUDED
            (1, 1, "click", w // 2),       # inside: included
            (2, 1, "click", w),            # same instant as purchase: EXCLUDED
            (3, 1, "purchase", w),
            (4, 1, "click", w + 1),        # after purchase: excluded
            (5, 2, "click", 0),            # other user: never joins user 1
            (6, 2, "purchase", 10 * w),    # out of window for its own click
        ]
        out = q_events_stream_join(self._events(tmp_path, rows)).to_pandas()
        got = set(map(tuple, out[["click_id", "purchase_id"]].values))
        assert got == {(0, 3), (1, 3)}
        lat = out.set_index("click_id")["latency_sec"]
        assert lat[0] == w // 1_000_000
        assert lat[1] == (w - w // 2) // 1_000_000


class TestOrdersPareto:
    def _orders(self, tmp_path, pairs):
        """pairs: (custkey, totalprice) one order each."""
        import pyarrow.parquet as pq

        t = pa.table({
            "o_orderkey": pa.array(range(len(pairs)), pa.int64()),
            "o_custkey": pa.array([p[0] for p in pairs], pa.int64()),
            "o_orderstatus": pa.array(["O"] * len(pairs)),
            "o_totalprice": pa.array([p[1] for p in pairs], pa.float64()),
            "o_orderdate": pa.array([pd.Timestamp("1995-01-01")] * len(pairs),
                                    pa.timestamp("us")),
            "o_orderpriority": pa.array(["A"] * len(pairs)),
        })
        d = tmp_path / "sf"
        d.mkdir(exist_ok=True)
        pq.write_table(t, str(d / "orders.parquet"))
        return str(d)

    def test_small_n_k_clamps_to_one(self, ray_session, tmp_path):
        from query_suite.pipelines.relational import q_orders_pareto

        out = q_orders_pareto(self._orders(
            tmp_path, [(1, 100.0), (2, 50.0), (3, 10.0)]
        ))
        assert out["k"].iloc[0] == 1
        assert out["threshold_cents"].iloc[0] == 10000
        assert out["top_cents"].iloc[0] == 10000
        assert out["share_ppm"].iloc[0] == 10000 * 1_000_000 // 16000

    def test_all_ties_take_exactly_k(self, ray_session, tmp_path):
        from query_suite.pipelines.relational import q_orders_pareto

        pairs = [(i, 25.0) for i in range(10)]  # 10 equal customers, k=2
        out = q_orders_pareto(self._orders(tmp_path, pairs))
        assert out["k"].iloc[0] == 2
        assert out["threshold_cents"].iloc[0] == 2500
        assert out["top_cents"].iloc[0] == 2 * 2500  # exactly k, not all ties
        assert out["share_ppm"].iloc[0] == 200_000


class TestRealPngMedia:
    """Round-4 upgrade: the multimodal decode/resize path is REAL for the
    engine's native raster format (8-bit grayscale PNG via the from-scratch
    codec) — pixel content, not just plumbing."""

    @staticmethod
    def _checker(w, h, p):
        import numpy as np

        y, x = np.mgrid[0:h, 0:w]
        return (((x // p + y // p) % 2 == 0) * 255).astype("uint8")

    def test_png_decoder_exact_stats_and_isolation(self):
        import numpy as np

        from service1_text_extraction_ray.functions.page_render import (
            write_gray_png_array,
        )
        from query_suite.stages.multimodal import PngDecoder

        arr = self._checker(37, 22, 3)
        d = PngDecoder().decode(write_gray_png_array(arr), "image")
        assert (d["width"], d["height"]) == (37, 22)
        assert d["n_on"] == int((arr >= 128).sum())
        assert d["px_sum"] == int(arr.sum(dtype="int64"))
        assert d["mean_milli"] == 1000 * d["px_sum"] // arr.size
        assert np.array_equal(d["pixels"], arr)
        import pytest

        with pytest.raises(ValueError):
            PngDecoder().decode(b"not a png", "image")

    def test_resize_gray_nearest_exact_pixels(self):
        import numpy as np

        from query_suite.stages.multimodal import resize_gray_nearest

        arr = self._checker(8, 4, 1)
        out = resize_gray_nearest(arr, 4, 2)
        # floor mapping: src = i*src_dim//target_dim -> every 2nd row/col
        want = arr[np.ix_([0, 2], [0, 2, 4, 6])]
        assert np.array_equal(out, want)
        # upscale repeats pixels deterministically
        up = resize_gray_nearest(arr, 16, 8)
        assert up.shape == (8, 16)
        assert np.array_equal(up[::2, ::2], arr)

    def test_media_resize_real_regime_pixel_golden(self):
        import numpy as np

        from service1_text_extraction_ray.functions.page_render import (
            read_gray_png, write_gray_png_array,
        )
        from query_suite.stages.multimodal import MediaResize, resize_gray_nearest

        arr = self._checker(40, 20, 4)
        batch = pa.Table.from_pylist(
            [{"media_id": 9, "media_type": "image",
              "media": write_gray_png_array(arr)}],
            schema=pa.schema([
                ("media_id", pa.int64()), ("media_type", pa.string()),
                ("media", pa.binary()),
            ]),
        )
        row = MediaResize(target=64)(batch).to_pylist()[0]
        assert row["resize_ok"] is True
        assert (row["target_w"], row["target_h"]) == (64, 32)
        got = read_gray_png(row["resized_png"])
        assert np.array_equal(got, resize_gray_nearest(arr, 64, 32))
        # opaque payloads keep the declared stub regime
        stub_batch = batch.set_column(
            2, "media", pa.array([b"opaque bytes"], pa.binary())
        )
        srow = MediaResize(target=64)(stub_batch).to_pylist()[0]
        assert srow["resize_ok"] is False


class TestRealWavAudio:
    def test_wav_round_trip_and_chunk_walking(self):
        import struct

        import numpy as np
        import pytest

        from query_suite.stages.multimodal import (
            WavDecoder,
            read_wav_pcm8,
            write_wav_pcm8,
        )

        s = np.array([192 if (i // 3) % 2 == 0 else 64 for i in range(997)],
                     dtype=np.uint8)
        wav = write_wav_pcm8(s)
        got, rate = read_wav_pcm8(wav)
        assert rate == 8000 and np.array_equal(got, s)

        # a LIST chunk inserted before fmt (real encoders do this) must be
        # skipped by the chunk walk; odd-size chunks are word-aligned
        extra = b"LIST" + struct.pack("<I", 5) + b"INFOx" + b"\x00"
        patched = wav[:12] + extra + wav[12:]
        got2, _ = read_wav_pcm8(patched)
        assert np.array_equal(got2, s)

        d = WavDecoder().decode(wav, "audio")
        assert d["n_samples"] == 997
        assert d["duration_ms"] == 1000 * 997 // 8000
        assert d["n_hi"] == int((s >= 128).sum())
        assert d["sample_sum"] == int(s.sum(dtype="int64"))

        for bad in (b"", b"RIFFxxxxWAVE", b"not audio at all"):
            with pytest.raises(ValueError):
                read_wav_pcm8(bad)
        # stereo/16-bit rejected, not silently mangled
        fmt16 = struct.pack("<HHIIHH", 1, 2, 8000, 32000, 4, 16)
        stereo = (b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt16) + 8) + b"WAVE"
                  + b"fmt " + struct.pack("<I", len(fmt16)) + fmt16
                  + b"data" + struct.pack("<I", 0))
        with pytest.raises(ValueError):
            read_wav_pcm8(stereo)


class TestRealGifVideo:
    def test_gif_codec_round_trip_and_lzw_growth(self):
        import numpy as np
        import pytest

        from query_suite.functions.gif import read_gif, write_gif

        def checker(w, h, p, phase):
            y, x = np.mgrid[0:h, 0:w]
            return (((x // p + y // p) + phase) % 2 == 0).astype("uint8")

        frames = [checker(33, 21, 3, f % 2) for f in range(5)]
        out, delays = read_gif(write_gif(frames, delay_cs=12))
        assert delays == [12] * 5
        for a, b in zip(frames, out):
            assert np.array_equal(a * 255, b)

        # random frame large enough to grow the LZW table past a width bump
        rng = np.random.RandomState(11)
        big = (rng.rand(150, 220) > 0.5).astype("uint8")
        out2, _ = read_gif(write_gif([big], 5))
        assert np.array_equal(big * 255, out2[0])

        for bad in (b"", b"GIF89a", b"JFIF not a gif"):
            with pytest.raises(ValueError):
                read_gif(bad)

    def test_frame_sampler_real_gif_regime(self):
        import numpy as np

        from query_suite.functions.gif import write_gif
        from service1_text_extraction_ray.functions.page_render import (
            read_gray_png,
        )
        from query_suite.stages.multimodal import FrameSampler

        frames = [
            np.full((6, 8), f % 2, dtype="uint8") for f in range(3)
        ]
        batch = pa.Table.from_pylist(
            [
                {"media_id": 5, "media_type": "video",
                 "media": write_gif(frames, delay_cs=25)},
                {"media_id": 6, "media_type": "video",
                 "media": b"opaque video bytes"},
            ],
            schema=pa.schema([
                ("media_id", pa.int64()), ("media_type", pa.string()),
                ("media", pa.binary()),
            ]),
        )
        rows = FrameSampler()(batch).to_pylist()
        real = [r for r in rows if r["media_id"] == 5]
        stub = [r for r in rows if r["media_id"] == 6]
        assert len(real) == 3 and all(r["decode_ok"] for r in real)
        assert [r["ts_ms"] for r in real] == [0, 250, 500]
        for f, r in zip(frames, real):
            assert np.array_equal(read_gray_png(r["frame_png"]), f * 255)
        assert stub and all(not r["decode_ok"] for r in stub)


class TestWedgeSkewGuard:
    """Round-5 skew guard for the triangle family (VERDICT r4 finding #1):
    degree-ordered wedge emission + exact-priced high-degree cap, driven
    with a planted power-law hub (deg ~ sqrt(corpus)) — the topology the
    naive per-center wedge fan-out dies on."""

    @staticmethod
    def _uedges_ds(pairs):
        import ray.data as rdm
        sym = [(a, b) for a, b in pairs] + [(b, a) for a, b in pairs]
        t = pa.table({
            "a": pa.array([p[0] for p in sym], pa.string()),
            "b": pa.array([p[1] for p in sym], pa.string()),
        })
        return rdm.from_arrow(t)

    @staticmethod
    def _brute(pairs):
        """Exact per-node triangle counts + degrees (independent replay)."""
        from collections import defaultdict
        from itertools import combinations

        adj = defaultdict(set)
        for a, b in pairs:
            adj[a].add(b)
            adj[b].add(a)
        tri = defaultdict(int)
        eset = {tuple(sorted(p)) for p in pairs}
        for v, nb in adj.items():
            for x, y in combinations(sorted(nb), 2):
                if (x, y) in eset:
                    tri[v] += 1
        return adj, dict(tri)

    def _hub_graph(self):
        # hub with degree 70 (~sqrt(4900)); leaves degree 1-3; a few
        # genuine triangles both touching and avoiding the hub
        pairs = [("hub.example", f"leaf{i:03d}.example") for i in range(70)]
        pairs += [("leaf000.example", "leaf001.example")]      # tri w/ hub
        pairs += [("leaf002.example", "leaf003.example"),
                  ("leaf003.example", "leaf004.example"),
                  ("leaf002.example", "leaf004.example")]      # tri + w/ hub
        pairs += [("outs0.example", "outs1.example"),
                  ("outs1.example", "outs2.example"),
                  ("outs0.example", "outs2.example")]          # hub-free tri
        return pairs

    def test_hub_graph_exact_and_bounded(self, ray_session):
        from query_suite.pipelines.queries import (
            CLUST_UNIT,
            _capped_wedge_stream,
            _degree_orient,
            _host_clustering_impl,
        )

        pairs = self._hub_graph()
        uedges = self._uedges_ds(pairs)
        adj, tri = self._brute(pairs)

        # correctness: per-host (deg, n_tri, coeff) match the brute force
        out = {r["host"]: r for r in _host_clustering_impl(uedges, 1024).take_all()}
        assert set(out) == set(adj)
        for v in adj:
            d, t = len(adj[v]), tri.get(v, 0)
            assert out[v]["deg"] == d
            assert out[v]["n_tri"] == t
            want = (2 * CLUST_UNIT * t) // (d * (d - 1)) if d >= 2 else 0
            assert out[v]["coeff_micro"] == want
            assert out[v]["wedges_dropped_by_cap"] == 0

        # scale guard: oriented wedge volume is Sum C(outdeg,2), NOT the
        # hub's C(70,2)=2415 — orientation points leaf->hub, so the hub
        # emits nothing and the stream stays tiny
        oriented = _degree_orient(uedges).materialize()
        from collections import Counter
        outdeg = Counter(r["src"] for r in oriented.take_all())
        assert oriented.count() == len(pairs)  # each edge exactly once
        assert outdeg.get("hub.example", 0) <= 3  # hub demoted to sink
        n_wedges = sum(
            1 for r in _capped_wedge_stream(oriented, 1024).take_all()
            if r["pk"] is not None
        )
        expect = sum(n * (n - 1) // 2 for n in outdeg.values())
        assert n_wedges == expect
        assert n_wedges < 40  # vs 2415+ under naive per-center emission

    def test_small_cap_prices_drops_exactly(self, ray_session):
        from query_suite.pipelines.queries import _host_clustering_impl

        # K6 clique: degrees all 5; orientation by (deg, id) gives out-
        # degrees 5,4,3,2,1,0 by id order; cap=2 suppresses wedges at the
        # three centers with outdeg>2: C(n,2)-C(2,2) each
        nodes = [f"k{i}.example" for i in range(6)]
        pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
        out = {r["host"]: r for r in
               _host_clustering_impl(self._uedges_ds(pairs), 2).take_all()}

        # replay: center k_i has out-neighbors k_{i+1}..k_5 ranked by id;
        # kept wedges = pairs among first 2 -> 1 per center with outdeg>=2
        drops = {n: 0 for n in nodes}
        tri = {n: 0 for n in nodes}
        for i, c in enumerate(nodes):
            nbrs = nodes[i + 1:]
            n = len(nbrs)
            k = min(n, 2)
            drops[c] = n * (n - 1) // 2 - k * (k - 1) // 2
            for xi in range(k):
                for yi in range(xi + 1, k):
                    # every pair in a clique is an edge -> triangle
                    for v in (c, nbrs[xi], nbrs[yi]):
                        tri[v] += 1
        for v in nodes:
            assert out[v]["deg"] == 5
            assert out[v]["wedges_dropped_by_cap"] == drops[v]
            assert out[v]["n_tri"] == tri[v]  # capped count, exact-replayed

    def test_sql_oracle_replays_binding_cap(self, ray_session):
        # force the cap to BIND on the real sf graph in BOTH engines: the
        # Ray path and a cap-substituted oracle must still agree exactly
        import duckdb

        from query_suite.pipelines import queries as Q

        sf = "/root/testdata/sf0.001"
        ray_out = (
            Q._host_clustering_impl(Q._simple_uedges(sf), 1)
            .to_pandas().sort_values("host").reset_index(drop=True)
        )
        con = duckdb.connect()
        con.execute(
            "CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{sf}/documents.parquet')"
        )
        sql = Q.SQL_HOST_CLUSTERING.replace(f"<= {Q.WEDGE_OUT_CAP}", "<= 1")
        sql_out = con.execute(sql).fetchdf().sort_values("host").reset_index(drop=True)
        assert int(sql_out["wedges_dropped_by_cap"].sum()) > 0  # cap bound
        pd.testing.assert_frame_equal(
            ray_out[sql_out.columns].astype("int64", errors="ignore"), sql_out
        )


class TestHostTransitivity:
    def test_independent_formulation_agrees(self, ray_session):
        """The cap-free independent oracle (id-ordered 3-way self-join in
        DuckDB) must equal the engine's capped-plan output wherever the
        cap cannot bind — the sf graph (max oriented out-degree 2)."""
        import duckdb

        from query_suite.pipelines import queries as Q

        sf = "/root/testdata/sf0.001"
        got = Q.q_host_transitivity(sf).iloc[0]
        assert got["wedges_dropped_by_cap"] == 0
        con = duckdb.connect()
        con.execute(
            "CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{sf}/documents.parquet')"
        )
        ind = con.execute(f"""
WITH base AS (SELECT doc_id, source FROM documents WHERE doc_id % 7 <> 0),
links AS (
  SELECT source || '.example.com' AS src,
         'src' || ((doc_id * 7 + 1) % 20) || '.example.net' AS dst FROM base
  UNION ALL SELECT source || '.example.com', 'cdn.example.org' FROM base
  UNION ALL SELECT source || '.example.com',
    CASE WHEN doc_id % 6 = 3 THEN 'base' || (doc_id % 4) || '.example.org'
         ELSE source || '.example.com' END FROM base),
uedges AS (SELECT src AS a, dst AS b FROM links WHERE src <> dst
           UNION SELECT dst, src FROM links WHERE src <> dst),
e AS (SELECT a, b FROM uedges WHERE a < b)
SELECT count(*) FROM e e1
JOIN e e2 ON e1.a = e2.a AND e1.b < e2.b
JOIN e e3 ON e3.a = e1.b AND e3.b = e2.b""").fetchone()[0]
        assert int(got["n_triangles"]) == int(ind)

    def test_planted_triangles_counted_once(self, ray_session):
        # K6 clique via the internal machinery: transitivity must be exactly
        # 1.0 (every wedge closes) and triangles C(6,3) = 20
        from query_suite.pipelines.queries import _capped_wedge_stream, _degree_orient

        nodes = [f"k{i}.x" for i in range(6)]
        pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
        sym = [(a, b) for a, b in pairs] + [(b, a) for a, b in pairs]
        import ray.data as rdm
        uedges = rdm.from_arrow(pa.table({
            "a": pa.array([p[0] for p in sym]),
            "b": pa.array([p[1] for p in sym]),
        }))
        oriented = _degree_orient(uedges).materialize()
        wedges = [r for r in _capped_wedge_stream(oriented, 1024).take_all()
                  if r["pk"] is not None]
        # ordered wedges: sum C(outdeg,2) = C(5,2)+C(4,2)+...= 10+6+3+1 = 20
        assert len(wedges) == 20
        eset = {f"{min(a,b)}|{max(a,b)}" for a, b in pairs}
        closed = sum(1 for w in wedges if w["pk"] in eset)
        assert closed == 20  # every ordered wedge closes in a clique
