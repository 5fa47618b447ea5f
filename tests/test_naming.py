"""Tests for P17 naming helpers and the S7 wide-embedding sink shape."""

import pyarrow as pa

from query_suite.functions.naming import document_name_from_url, parse_folder_name


class TestParseFolderName:
    def test_three_segments(self):
        assert parse_folder_name("LF_AGM_Annual-General-meetings") == (
            "AGM", "Annual-General-meetings")

    def test_more_than_three_segments_takes_1_and_2(self):
        assert parse_folder_name("A_B_C_D") == ("B", "C")

    def test_fallback_short(self):
        assert parse_folder_name("justaname") == ("justaname", "justaname")
        assert parse_folder_name("two_parts") == ("two_parts", "two_parts")
        assert parse_folder_name("") == ("", "")


class TestDocumentName:
    def test_last_segment(self):
        assert document_name_from_url("https://docs.example/00000123") == "00000123"
        assert document_name_from_url("https://a.b/x/y/z/") == "z"


class TestEmbeddingsWide:
    def test_wide_schema_and_values(self, ray_session, tmp_path):
        import numpy as np
        import pyarrow.parquet as pq

        from query_suite.pipelines.queries import q_embeddings_wide
        from query_suite.stages.embed_stage import EMBED_DIM

        rows = [
            {"doc_id": i, "text": f"doc {i} " + " ".join(f"w{i}x{j}" for j in range(60)),
             "lang": "en"}
            for i in range(25)
        ]
        d = tmp_path / "sf"
        d.mkdir()
        pq.write_table(pa.Table.from_pylist(rows), str(d / "documents.parquet"))

        out = q_embeddings_wide(str(d)).to_pandas()
        assert len(out) == 25
        emb_cols = [c for c in out.columns if c.startswith("embedding_")]
        assert len(emb_cols) == EMBED_DIM
        for c in ("document_name", "document_path", "class", "full_class_name",
                  "total_tokens"):
            assert c in out.columns
        # L2 norm of the wide row ~ 1 (nonzero docs)
        mat = out[emb_cols].to_numpy(dtype="float64")
        norms = np.linalg.norm(mat, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-5)
        # the slug has no 3 underscore segments -> fallback naming
        assert (out["class"] == out["document_name"]).all()
