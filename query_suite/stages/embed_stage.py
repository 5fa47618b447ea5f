"""Embedding-generation stage: doc text -> fixed-dim float32 vector.

The reference computes per-page embeddings with a FinBERT singleton held per
process (A3: ``training_page_embedder.py:85`` emits ``np.zeros(768)``-shaped
vectors; ``ml_document_processor.py:230-268`` sinks them to CSV). No model
weights exist in this sandbox, so the embedder is a *deterministic feature-
hashing TF* encoder (the classic hashing trick): each whitespace token hashes
to a (dimension, sign) slot via md5, term frequencies accumulate signed into
the vector, and the result is L2-normalized float32. That keeps every
property the distributed design cares about — stateful per-actor setup
(token->slot cache), batched vectorized accumulation, fixed-dim float32
output column — while staying byte-deterministic across runs, processes and
parallelism (no model download, no float nondeterminism: accumulation order
is per-document token order, which is fixed).

Swap in a real model by replacing ``_embed_text`` with a batched forward
pass; the Ray plumbing (actor pool via ``map_batches(FeatureHashEmbedder,
concurrency=..., batch_size=...)``) is exactly what a GPU encoder needs.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

EMBED_DIM = 64  # matches the testdata embeddings table so downstream
                # dedup/ANN kernels are shared


class FeatureHashEmbedder:
    """Actor-pool stage: ``(id_column, text_column)`` batches in,
    ``(id_column, n_tokens, embedding: list<float32, DIM>)`` batches out.

    Per-actor state: the token -> (slot, sign) cache, built lazily — the
    analogue of the reference's per-process FinBERT singleton (A1/A3), and
    the reason this is a callable CLASS, not a function.
    """

    def __init__(self, dim: int = EMBED_DIM, text_column: str = "doc_text",
                 id_column: str = "url") -> None:
        self.dim = dim
        self.text_column = text_column
        self.id_column = id_column
        self._slot_cache: dict[str, tuple[int, float]] = {}

    def _slot(self, token: str) -> tuple[int, float]:
        hit = self._slot_cache.get(token)
        if hit is None:
            h = int.from_bytes(
                hashlib.md5(token.encode("utf-8")).digest()[:8], "little"
            )
            hit = (h % self.dim, 1.0 if (h >> 63) & 1 else -1.0)
            # Bound the cache (web-scale token streams are heavy-tailed; the
            # hot head stays resident, the tail recomputes).
            if len(self._slot_cache) < 1_000_000:
                self._slot_cache[token] = hit
        return hit

    def _embed_text(self, text: str) -> tuple[np.ndarray, int]:
        vec = np.zeros(self.dim, dtype=np.float64)
        tokens = text.split()
        for t in tokens:
            idx, sign = self._slot(t)
            vec[idx] += sign
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec /= norm
        return vec.astype(np.float32), len(tokens)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch[self.id_column]
        texts = batch[self.text_column].to_pylist()
        vecs, counts = [], []
        for t in texts:
            v, n = self._embed_text(t or "")
            vecs.append(v)
            counts.append(n)
        return pa.Table.from_arrays(
            [
                ids,
                pa.array(counts, pa.int64()),
                pa.array([v.tolist() for v in vecs], pa.list_(pa.float32(), self.dim)),
            ],
            names=[self.id_column, "n_tokens", "embedding"],
        )


def embed_dataset(ds, text_column: str = "doc_text", id_column: str = "url",
                  dim: int = EMBED_DIM, concurrency=(1, 8)):
    """Attach the embedding stage to a Dataset holding ``text_column``."""
    return ds.map_batches(
        FeatureHashEmbedder,
        fn_constructor_kwargs={
            "dim": dim, "text_column": text_column, "id_column": id_column
        },
        batch_format="pyarrow",
        batch_size=256,
        concurrency=concurrency,
    )
