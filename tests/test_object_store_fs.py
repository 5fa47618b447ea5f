"""S5 object-store write-path tests (reference
`document_text_extraction_service.py:679-705`, the S3 md writer).

`state/lineage.py` routes every byte of lineage I/O through a filesystem
seam (`LocalAtomicFS`).  These tests inject an object-store double with the
two properties that break naive commit protocols on real object stores:

  * **no rename** — the only write primitive is a whole-object PUT, atomic
    per key (an object is fully visible or absent, never torn);
  * **eventual listing** — GET-by-key is read-your-writes, but LIST lags
    until an explicit `sync()`, so a lagging list under-counts fresh parts.

The assertions pin the commit's two safety claims: the writer commits a
shard from the part records it holds, so a lagging listing can neither
delay nor fool it, and the resulting manifests/content hashes are
byte-identical to a POSIX `LocalAtomicFS` run over the same rows.
"""

import hashlib
import io
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from service1_text_extraction_ray.functions.extract import ExtractConfig
from service1_text_extraction_ray.functions.sniff import sniff_table
from service1_text_extraction_ray.functions.synth import gen_pages_table
from service1_text_extraction_ray.stages.extract_stage import ExtractDocuments
from service1_text_extraction_ray.state import lineage as L


class EventualObjectStore:
    """In-memory object-store double.

    Keys are flat object names (no directories).  PUT replaces the whole
    object atomically; GET by key sees the latest PUT immediately; LIST
    (``isdir``/``listdir``) only reflects PUTs/DELETEs that happened before
    the last ``sync()`` — the adversarial consistency model for a commit
    protocol that counts parts by listing."""

    def __init__(self):
        self.objects = {}  # key -> bytes
        self.listed = set()  # keys visible to LIST
        self.put_times = {}  # key -> PUT epoch seconds (S3 LastModified)
        self.n_puts = 0

    def sync(self):
        self.listed = set(self.objects)

    # --- seam interface ---------------------------------------------------
    def makedirs(self, path):  # object stores have no directories
        pass

    def isdir(self, path):
        p = path.rstrip("/") + "/"
        return any(k.startswith(p) for k in self.listed)

    def listdir(self, path):
        p = path.rstrip("/") + "/"
        return sorted(
            {k[len(p):].split("/", 1)[0] for k in self.listed if k.startswith(p)}
        )

    def read_bytes(self, path):
        if path not in self.objects:
            raise OSError(f"NoSuchKey: {path}")
        return self.objects[path]

    def put_bytes(self, path, data):
        import time

        self.n_puts += 1
        self.objects[path] = bytes(data)
        self.put_times[path] = time.time()

    def read_table(self, path):
        return pq.read_table(pa.BufferReader(self.read_bytes(path)))

    def num_rows(self, path):
        return pq.ParquetFile(pa.BufferReader(self.read_bytes(path))).metadata.num_rows

    def remove(self, path):
        self.objects.pop(path, None)
        self.listed.discard(path)
        self.put_times.pop(path, None)

    def mtime(self, path):
        if path not in self.objects:
            raise OSError(f"NoSuchKey: {path}")
        return self.put_times.get(path, 0.0)

    def rmtree(self, path):
        p = path.rstrip("/") + "/"
        for k in [k for k in self.objects if k.startswith(p)]:
            self.objects.pop(k, None)
            self.listed.discard(k)


def _rows(i0, n):
    return pa.table({
        "url": pa.array([f"https://d/{i}" for i in range(i0, i0 + n)]),
        "status": pa.array(["ok"] * n),
        "n_pages": pa.array([1] * n, pa.int64()),
        "n_pages_ok": pa.array([1] * n, pa.int64()),
        "doc_chars": pa.array([10 + i for i in range(i0, i0 + n)], pa.int64()),
        "truncated": pa.array([False] * n),
        "password_required": pa.array([False] * n),
        "content_hash": pa.array(
            [hashlib.sha256(str(i).encode()).hexdigest() for i in range(i0, i0 + n)]
        ),
    })


def _docs(n, seed):
    """Extracted DOC_SCHEMA rows (HTML and PDF pages) of ``n`` synthetic
    pages."""
    cfg = ExtractConfig()
    src = gen_pages_table(n, seed=seed).select(["url", "warc_ts", "html", "lang"])
    src = src.append_column("path", pa.array(["pages-00000.parquet"] * n))
    return ExtractDocuments(cfg)(sniff_table(src, cfg.size_bucket_edges))


def _codecs(data):
    """The compression of every column chunk of the Parquet file ``data``."""
    meta = pq.ParquetFile(pa.BufferReader(data)).metadata
    return {meta.row_group(g).column(c).compression
            for g in range(meta.num_row_groups) for c in range(meta.num_columns)}


OUT = "bucket/job"


class TestCommitUnderEventualListing:
    def test_held_records_commit_without_listing(self, tmp_path):
        # LIST never syncs here, so nothing this test writes is listable:
        # the commit must come from the records the writer holds alone.
        fs = EventualObjectStore()
        local_out = str(tmp_path / "job")
        recs = [L.write_part(OUT, 0, _rows(i0, 5), fs) for i0 in (0, 5)]
        loc_recs = [L.write_part(local_out, 0, _rows(i0, 5)) for i0 in (0, 5)]

        rec = L.try_commit_shard(OUT, 0, 10, recs, fs)
        assert rec is not None and rec["n_docs"] == 10 and len(rec["parts"]) == 2
        assert not fs.isdir(L.lineage_dir(OUT))  # still nothing listable
        assert rec == L.try_commit_shard(local_out, 0, 10, loc_recs)
        with open(L.manifest_path(local_out, 0), "rb") as f:
            assert fs.read_bytes(L.manifest_path(OUT, 0)) == f.read()

    def test_undercount_puts_no_manifest(self):
        fs = EventualObjectStore()
        first = L.write_part(OUT, 1, _rows(0, 4), fs)
        L.write_part(OUT, 1, _rows(4, 4), fs)  # its record is not passed on
        n_puts = fs.n_puts

        assert L.try_commit_shard(OUT, 1, 8, [first], fs) is None
        assert fs.n_puts == n_puts
        assert L.manifest_path(OUT, 1) not in fs.objects

    def test_double_put_of_same_rows_is_idempotent(self):
        # Content-addressed part names: a retried writer re-PUTs the same
        # object under the same key, so its second record adds no rows.
        fs = EventualObjectStore()
        a = L.write_part(OUT, 2, _rows(0, 6), fs)
        b = L.write_part(OUT, 2, _rows(0, 6), fs)  # retry of the same rows
        assert a["part"] == b["part"]
        assert [k for k in fs.objects if k.startswith(L.shard_data_dir(OUT, 2))] == [
            L.shard_data_dir(OUT, 2) + "/" + a["part"]]
        rec = L.try_commit_shard(OUT, 2, 6, [a, b], fs)
        assert rec["n_docs"] == 6 and rec["parts"] == [a["part"]]

    def test_manifest_counts_a_repeated_record_once(self):
        # A direct commit from a list holding one part's record twice
        # describes that part's rows once: counters and the XOR hash too.
        fs = EventualObjectStore()
        a = L.write_part(OUT, 3, _rows(0, 6), fs)
        once = L.commit_shard_manifest(OUT, 3, [a], fs)
        manifest = fs.objects[L.manifest_path(OUT, 3)]
        twice = L.commit_shard_manifest(OUT, 3, [a, dict(a)], fs)
        assert twice == once
        assert twice["n_docs"] == 6 and twice["content_hash"] == a["content_hash"]
        assert fs.objects[L.manifest_path(OUT, 3)] == manifest


class TestUpsertUnderEventualListing:
    def test_upsert_keeps_a_shard_listing_cannot_see_yet(self):
        """An upsert right after a commit, before LIST catches up, must
        merge into the committed rows, not recreate the shard from the
        updates alone (which would drop its stored rows)."""
        fs = EventualObjectStore()
        L.commit_shard_manifest(OUT, 7, [L.write_part(OUT, 7, _rows(0, 10), fs)], fs)

        rec = L.upsert_shard(OUT, 7, _rows(100, 2), fs=fs)
        assert (rec["n_replaced"], rec["n_appended"], rec["n_docs"]) == (0, 2, 12)
        fs.sync()
        assert L.read_shard(OUT, 7, fs).num_rows == 12


class TestCrossBackendDeterminism:
    def test_manifest_matches_local_fs_run(self, tmp_path):
        fs = EventualObjectStore()
        local_out = str(tmp_path / "job")
        obj_recs, loc_recs = {}, {}
        for sid, spans in ((0, [(0, 5), (5, 3)]), (7, [(100, 4)])):
            for i0, n in spans:
                obj_recs.setdefault(sid, []).append(L.write_part(OUT, sid, _rows(i0, n), fs))
                loc_recs.setdefault(sid, []).append(L.write_part(local_out, sid, _rows(i0, n)))
        fs.sync()
        for sid, exp in ((0, 8), (7, 4)):
            obj = L.try_commit_shard(OUT, sid, exp, obj_recs[sid], fs)
            loc = L.try_commit_shard(local_out, sid, exp, loc_recs[sid])
            assert obj is not None and loc is not None
            for key in ("parts", "n_docs", "content_hash", "counters"):
                assert obj.get(key) == loc.get(key), key
        fs.sync()
        assert L.completed_shards(OUT, fs=fs).keys() == {0, 7}
        t_obj = L.read_all(OUT, fs)
        t_loc = L.read_all(local_out)
        assert t_obj.sort_by("url").equals(t_loc.sort_by("url"))


class TestPartEncoding:
    """Lineage encodes every part (zstd Parquet); a backend only stores the
    bytes, so one part is the same object on every backend."""

    def test_backends_store_the_same_zstd_bytes(self, tmp_path):
        fs = EventualObjectStore()
        local_out = str(tmp_path / "job")
        docs = _docs(24, seed=1)
        obj = L.write_part(OUT, 0, docs, fs)
        loc = L.write_part(local_out, 0, docs)
        assert obj == loc
        data = fs.objects[os.path.join(L.shard_data_dir(OUT, 0), obj["part"])]
        with open(os.path.join(L.shard_data_dir(local_out, 0), loc["part"]), "rb") as f:
            assert f.read() == data
        assert _codecs(data) == {"ZSTD"}

    @staticmethod
    def _shard(out, snappy_first):
        """Shard 0 of ``out`` from two parts of extracted rows; with
        ``snappy_first`` its first part is re-encoded with pyarrow's default
        codec (snappy), as earlier versions wrote every part."""
        first, second = _docs(12, seed=1), _docs(24, seed=3).slice(12)
        recs = [L.write_part(out, 0, first), L.write_part(out, 0, second)]
        path = os.path.join(L.shard_data_dir(out, 0), recs[0]["part"])
        if snappy_first:
            pq.write_table(L._part_layout(first), path)
        with open(path, "rb") as f:
            assert _codecs(f.read()) == ({"SNAPPY"} if snappy_first else {"ZSTD"})
        L.commit_shard_manifest(out, 0, recs)
        return pa.concat_tables([first, second])

    @pytest.mark.parametrize("merge", ["read", "upsert", "compact"])
    def test_snappy_and_zstd_parts_mix_in_one_shard(self, tmp_path, merge):
        mixed, fresh = str(tmp_path / "mixed"), str(tmp_path / "fresh")
        rows = self._shard(mixed, snappy_first=True)
        assert self._shard(fresh, snappy_first=False).equals(rows)
        if merge == "upsert":
            updates = _docs(8, seed=2)
            for out in (mixed, fresh):
                L.upsert_shard(out, 0, updates)
            kept = rows.filter(pc.invert(pc.is_in(rows["url"], updates["url"])))
            rows = pa.concat_tables([kept, updates])
        elif merge == "compact":
            for out in (mixed, fresh):
                assert len(L.compact_shard(out, 0)["parts"]) == 1
        assert L.load_manifest(mixed, 0) == L.load_manifest(fresh, 0)
        expected = L.doc_view(rows).sort_by("url")
        for out in (mixed, fresh):
            assert L.read_shard(out, 0).sort_by("url").equals(expected)
            assert L.read_all(out).sort_by("url").equals(expected)


class TestResumeOverObjectStore:
    def test_resume_sees_only_committed_shards(self):
        fs = EventualObjectStore()
        # shard 0 committed; shard 1 has parts but crashed pre-commit
        rec = L.write_part(OUT, 0, _rows(0, 5), fs)
        fs.sync()
        L.try_commit_shard(OUT, 0, 5, [rec], fs)
        L.write_part(OUT, 1, _rows(50, 5), fs)
        fs.sync()

        assert L.completed_shards(OUT, fs=fs).keys() == {0}
        # re-attempt of shard 1: purge stale parts, rewrite, commit
        L.purge_shard(OUT, 1, fs)
        fs.sync()
        assert not fs.isdir(L.shard_data_dir(OUT, 1))
        rec = L.write_part(OUT, 1, _rows(50, 5), fs)
        fs.sync()
        L.try_commit_shard(OUT, 1, 5, [rec], fs)
        fs.sync()
        assert L.completed_shards(OUT, fs=fs).keys() == {0, 1}
        assert L.read_all(OUT, fs).num_rows == 10

    def test_validation_detects_missing_data_object(self):
        fs = EventualObjectStore()
        part = L.write_part(OUT, 3, _rows(0, 5), fs)
        fs.sync()
        rec = L.try_commit_shard(OUT, 3, 5, [part], fs)
        fs.sync()
        # lose the data object after commit (bucket lifecycle / operator error)
        fs.remove(L.shard_data_dir(OUT, 3) + "/" + rec["parts"][0])
        assert L.completed_shards(OUT, fs=fs).keys() == set()
        assert {r["shard_id"] for r in L.load_lineage(OUT, fs)} == {3}


class TestCompactionOverObjectStore:
    def test_compaction_preserves_content_hash(self, monkeypatch):
        monkeypatch.setattr(L, "PART_TARGET_ROWS", 100)
        fs = EventualObjectStore()
        recs = [L.write_part(OUT, 4, _rows(i0, 4), fs) for i0 in (0, 4, 8)]
        before = L.commit_shard_manifest(OUT, 4, recs, fs)
        fs.sync()
        after = L.compact_shard(OUT, 4, fs=fs)
        assert len(after["parts"]) == 1
        assert after["content_hash"] == before["content_hash"]
        fs.sync()
        assert L.completed_shards(OUT, fs=fs).keys() == {4}
        assert L.read_shard(OUT, 4, fs).num_rows == 12


class TestNoRenameEverIssued:
    def test_seam_interface_has_no_rename(self):
        # The protocol must not depend on a rename primitive: the seam
        # simply doesn't offer one, and LocalAtomicFS keeps rename as a
        # private implementation detail of its atomic put.
        assert not hasattr(EventualObjectStore(), "rename")
        for name in ("makedirs", "isdir", "listdir", "read_bytes", "put_bytes",
                     "read_table", "num_rows", "remove", "rmtree", "mtime"):
            assert hasattr(L.LocalAtomicFS(), name), name


class TestSnapshots:
    """Iceberg-style versioned reads over the lineage layer (round 4)."""

    def _commit(self, out, sid, i0, n, fs=None):
        part = L.write_part(out, sid, _rows(i0, n), fs)
        if fs is not None:
            fs.sync()
        rec = L.try_commit_shard(out, sid, n, [part], fs)
        assert rec is not None
        return rec

    def test_time_travel_across_appends(self, tmp_path):
        out = str(tmp_path / "tbl")
        self._commit(out, 0, 0, 5)
        s1 = L.commit_snapshot(out)
        assert s1["version"] == 1
        self._commit(out, 1, 100, 7)
        s2 = L.commit_snapshot(out)
        assert s2["version"] == 2

        # v1 pins the pre-append row set; v2 and the live read see both
        assert L.read_snapshot(out, 1).num_rows == 5
        assert L.read_snapshot(out, 2).num_rows == 12
        assert L.read_all(out).num_rows == 12
        assert L.list_snapshots(out) == [1, 2]
        assert [len(L.load_snapshot(out, v)["shards"])
                for v in L.list_snapshots(out)] == [1, 2]

    def test_compaction_expires_referencing_snapshots(self, tmp_path, monkeypatch):
        import pytest

        monkeypatch.setattr(L, "PART_TARGET_ROWS", 100)
        out = str(tmp_path / "tbl2")
        recs = [L.write_part(out, 3, _rows(i0, 4)) for i0 in (0, 4, 8)]
        L.commit_shard_manifest(out, 3, recs)
        v = L.commit_snapshot(out)["version"]
        L.compact_shard(out, 3)  # rewrites to one part
        with pytest.raises(L.SnapshotExpired):
            L.read_snapshot(out, v)
        # a fresh snapshot over the compacted state reads fine
        v2 = L.commit_snapshot(out)["version"]
        assert L.read_snapshot(out, v2).num_rows == 12

    def test_snapshots_over_object_store_seam(self):
        fs = EventualObjectStore()
        part = L.write_part("b/t", 0, _rows(0, 6), fs)
        fs.sync()
        L.try_commit_shard("b/t", 0, 6, [part], fs)
        # under LAGGING listing the fresh manifest isn't pinnable yet — a
        # snapshot taken now correctly pins the empty visible state
        assert L.commit_snapshot("b/t", fs)["shards"] == []
        fs.sync()  # manifest becomes listable -> pin the real state
        s = L.commit_snapshot("b/t", fs)
        fs.sync()
        assert L.list_snapshots("b/t", fs) == [1, 2]
        assert L.read_snapshot("b/t", 2, fs).num_rows == 6
        assert s["summary"]["n_docs"] == 6

    def test_job_snapshot_flag(self, ray_session, tmp_path):
        import ray.data as rd

        from service1_text_extraction_ray.functions.extract import ExtractConfig
        from service1_text_extraction_ray.functions.synth import (
            write_pages_parquet,
        )
        from service1_text_extraction_ray.pipelines.extract_pipeline import (
            run_extraction_job,
        )

        inp, out = str(tmp_path / "in"), str(tmp_path / "out")
        write_pages_parquet(inp, 200, seed=3, rows_per_file=100)
        s = run_extraction_job(inp, out, ExtractConfig(), snapshot=True)
        assert s["snapshot_version"] == 1
        snap = L.read_snapshot(out, 1)
        assert snap.num_rows == s["n_docs"] == 200
        # a second run re-pins; versions are monotonic
        s2 = run_extraction_job(inp, out, ExtractConfig(), snapshot=True)
        assert s2["snapshot_version"] == 2


class TestVacuum:
    def test_vacuum_drops_old_snapshots_and_orphans(self, tmp_path, monkeypatch):
        import os

        import pytest

        monkeypatch.setattr(L, "PART_TARGET_ROWS", 100)

        out = str(tmp_path / "tbl3")
        # three committed states -> three snapshots
        recs = [L.write_part(out, 0, _rows(0, 4))]
        L.commit_shard_manifest(out, 0, recs)
        L.commit_snapshot(out)  # v1
        recs.append(L.write_part(out, 0, _rows(4, 4)))
        L.commit_shard_manifest(out, 0, recs)
        L.commit_snapshot(out)  # v2
        # compaction rewrites to one part -> v1/v2 now reference dead parts
        L.compact_shard(out, 0)
        L.commit_snapshot(out)  # v3 (pins the compacted part)
        # plant an orphan part from a "crashed attempt" in another shard
        orphan_dir = L.shard_data_dir(out, 9)
        os.makedirs(orphan_dir, exist_ok=True)
        L.write_part(out, 9, _rows(50, 3))  # part without a manifest

        res = L.vacuum(out, keep_snapshots=1, min_age_s=0)
        assert res["snapshots_dropped"] == 2  # v1, v2
        assert res["parts_dropped"] == 1      # the shard-9 orphan
        assert L.list_snapshots(out) == [3]
        # live state intact: manifest read + snapshot read both work
        assert L.read_all(out).num_rows == 8
        assert L.read_snapshot(out, 3).num_rows == 8
        with pytest.raises(KeyError):
            L.read_snapshot(out, 1)

    def test_vacuum_never_touches_live_parts(self, tmp_path):
        out = str(tmp_path / "tbl4")
        recs = [L.write_part(out, 0, _rows(0, 5))]
        L.commit_shard_manifest(out, 0, recs)
        res = L.vacuum(out, keep_snapshots=0, min_age_s=0)  # no snapshots at all
        assert res == {"snapshots_dropped": 0, "parts_dropped": 0}
        assert L.read_all(out).num_rows == 5

    def test_retention_window_protects_inflight_parts(self, tmp_path):
        # A part of a shard whose manifest has NOT committed yet (a job
        # still running on out_dir) is an "orphan" by reference-counting,
        # but must survive a concurrent vacuum: the default retention
        # window keeps any part younger than min_age_s (ADVICE r4 #1).
        out = str(tmp_path / "tbl6")
        recs = [L.write_part(out, 0, _rows(0, 4))]
        L.commit_shard_manifest(out, 0, recs)
        L.commit_snapshot(out)
        part = L.write_part(out, 7, _rows(20, 3))  # in-flight, no manifest yet
        res = L.vacuum(out, keep_snapshots=1)  # default retention
        assert res["parts_dropped"] == 0
        # ... the job later commits the shard and its data is intact
        rec = L.try_commit_shard(out, 7, 3, [part])
        assert rec is not None
        assert L.read_all(out).num_rows == 7
        # an explicit min_age_s=0 (job known inactive) WOULD collect it
        res = L.vacuum(str(tmp_path / "tbl6b"), keep_snapshots=1, min_age_s=0)
        assert res["parts_dropped"] == 0  # (no such table -> no-op, sanity)

    def test_negative_arguments_are_refused_before_anything_is_removed(
            self, tmp_path):
        out = str(tmp_path / "tbl7")
        for v in range(2):  # two snapshots
            L.commit_shard_manifest(out, 0, [L.write_part(out, 0, _rows(4 * v, 4))])
            L.commit_snapshot(out)
        L.write_part(out, 9, _rows(50, 3))  # an orphan (or an in-flight part)

        def tree():
            return {
                os.path.relpath(os.path.join(d, f), out):
                    open(os.path.join(d, f), "rb").read()
                for d, _, files in os.walk(out) for f in files
            }

        before = tree()
        for name, kwargs in (
            ("keep_snapshots", {"keep_snapshots": -1, "min_age_s": 0}),
            ("min_age_s", {"keep_snapshots": 1, "min_age_s": -1.0}),
        ):
            with pytest.raises(ValueError, match=name):
                L.vacuum(out, **kwargs)
            assert tree() == before

    def test_vacuum_mid_read_surfaces_snapshot_expired(self, tmp_path):
        # VERDICT r4 item 8: a reader holding snapshot v while vacuum
        # expires it mid-read must get SnapshotExpired deterministically —
        # never a partial row set. Simulated by an fs wrapper that runs
        # vacuum between the reader's part reads.
        import pytest

        out = str(tmp_path / "race")
        rec_a = L.write_part(out, 0, _rows(0, 4))
        L.commit_shard_manifest(out, 0, [rec_a])
        L.commit_snapshot(out)  # v1 references part A
        # shard re-committed with a different part: A now lives only via v1
        rec_b = L.write_part(out, 0, _rows(100, 6))
        L.commit_shard_manifest(out, 0, [rec_b])

        inner = L.LocalAtomicFS()

        class VacuumMidRead:
            """Delegates to the real fs; fires one vacuum on the reader's
            first data-part read — the adversarial interleaving."""

            def __init__(self):
                self.fired = False

            def read_table(self, path):
                if not self.fired and "shard=" in path:
                    self.fired = True
                    L.vacuum(out, keep_snapshots=0, fs=inner, min_age_s=0)
                return inner.read_table(path)

            def __getattr__(self, name):
                return getattr(inner, name)

        wrapper = VacuumMidRead()
        with pytest.raises(L.SnapshotExpired):
            L.read_snapshot(out, 1, fs=wrapper)
        assert wrapper.fired
        # live manifest state is untouched by the race
        assert L.read_all(out).num_rows == 6

    def test_vacuum_mid_read_race_over_object_store(self):
        # Same interleaving over the eventual-listing double.
        import pytest

        inner = EventualObjectStore()
        out = "b/race"
        rec_a = L.write_part(out, 0, _rows(0, 4), inner)
        inner.sync()
        L.commit_shard_manifest(out, 0, [rec_a], inner)
        inner.sync()
        L.commit_snapshot(out, inner)  # v1
        rec_b = L.write_part(out, 0, _rows(100, 6), inner)
        inner.sync()
        L.commit_shard_manifest(out, 0, [rec_b], inner)
        inner.sync()

        state = {"fired": False}

        class Wrapper:
            def read_table(self, path):
                if not state["fired"] and "shard=" in path:
                    state["fired"] = True
                    L.vacuum(out, keep_snapshots=0, fs=inner, min_age_s=0)
                    inner.sync()
                return inner.read_table(path)

            def __getattr__(self, name):
                return getattr(inner, name)

        with pytest.raises(L.SnapshotExpired):
            L.read_snapshot(out, 1, fs=Wrapper())
        assert state["fired"]
        inner.sync()
        assert L.read_all(out, inner).num_rows == 6

    def test_retention_window_over_object_store(self):
        fs = EventualObjectStore()
        part = L.write_part("b/w", 0, _rows(0, 4), fs)
        fs.sync()
        L.try_commit_shard("b/w", 0, 4, [part], fs)
        fs.sync()
        L.commit_snapshot("b/w", fs)
        part = L.write_part("b/w", 5, _rows(9, 2), fs)  # in-flight part
        fs.sync()
        assert L.vacuum("b/w", keep_snapshots=1, fs=fs)["parts_dropped"] == 0
        fs.sync()
        assert L.try_commit_shard("b/w", 5, 2, [part], fs) is not None

    def test_vacuum_over_object_store(self):
        fs = EventualObjectStore()
        part = L.write_part("b/v", 0, _rows(0, 4), fs)
        fs.sync()
        L.try_commit_shard("b/v", 0, 4, [part], fs)
        fs.sync()
        L.commit_snapshot("b/v", fs)
        L.write_part("b/v", 8, _rows(9, 2), fs)  # orphan, never committed
        fs.sync()
        res = L.vacuum("b/v", keep_snapshots=1, fs=fs, min_age_s=0)
        assert res["parts_dropped"] == 1
        fs.sync()
        assert L.read_all("b/v", fs).num_rows == 4
        assert L.read_snapshot("b/v", 1, fs).num_rows == 4


class TestUpsert:
    """MERGE (upsert) at shard granularity — the recrawl-refresh primitive
    completing the table lifecycle (append/compact/snapshot/vacuum)."""

    @staticmethod
    def _recrawl(i0, n):
        # same urls as _rows(i0, n) but re-extracted content: different
        # content_hash + doc_chars, the recrawl shape
        t = _rows(i0, n)
        return t.set_column(
            t.schema.get_field_index("doc_chars"),
            "doc_chars",
            pa.array([1000 + i for i in range(i0, i0 + n)], pa.int64()),
        ).set_column(
            t.schema.get_field_index("content_hash"),
            "content_hash",
            pa.array([hashlib.sha256(f"v2-{i}".encode()).hexdigest()
                      for i in range(i0, i0 + n)]),
        )

    def test_upsert_replaces_and_appends(self, tmp_path):
        out = str(tmp_path / "up")
        L.commit_shard_manifest(out, 0, [L.write_part(out, 0, _rows(0, 5))])
        # urls 3,4 replaced with recrawled content; 5,6 are new
        rec = L.upsert_shard(out, 0, self._recrawl(3, 4))
        assert rec["n_replaced"] == 2 and rec["n_appended"] == 2
        got = L.read_all(out)
        assert got.num_rows == 7
        by_url = {u: c for u, c in zip(got["url"].to_pylist(),
                                       got["doc_chars"].to_pylist())}
        assert by_url["https://d/2"] == 12      # untouched original
        assert by_url["https://d/3"] == 1003    # replaced
        assert by_url["https://d/6"] == 1006    # appended
        # counters recomputed: manifest agrees with the merged rows
        man = {r["shard_id"]: r for r in L.load_lineage(out)}[0]
        assert man["n_docs"] == 7

    def test_upsert_is_deterministic_and_idempotent(self, tmp_path):
        out = str(tmp_path / "up2")
        L.commit_shard_manifest(out, 0, [L.write_part(out, 0, _rows(0, 5))])
        r1 = L.upsert_shard(out, 0, self._recrawl(2, 2))
        parts1 = {r["shard_id"]: r for r in L.load_lineage(out)}[0]["parts"]
        # re-applying the same upsert is a no-op on content (idempotent by
        # content addressing): same part names, same hash
        r2 = L.upsert_shard(out, 0, self._recrawl(2, 2))
        parts2 = {r["shard_id"]: r for r in L.load_lineage(out)}[0]["parts"]
        assert parts1 == parts2
        assert r1["content_hash"] == r2["content_hash"]
        assert r2["n_replaced"] == 2 and r2["n_appended"] == 0

    def test_upsert_duplicate_keys_rejected(self, tmp_path):
        import pytest

        out = str(tmp_path / "up3")
        L.commit_shard_manifest(out, 0, [L.write_part(out, 0, _rows(0, 3))])
        dup = pa.concat_tables([_rows(1, 1), _rows(1, 1)])
        with pytest.raises(ValueError):
            L.upsert_shard(out, 0, dup)

    def test_upsert_fresh_shard_and_table_level(self, tmp_path):
        # stored rows carry shard_id as a ROW column (DOC_SCHEMA does)
        def rows_with_sid(i0, n, sid, recrawl=False):
            t = self._recrawl(i0, n) if recrawl else _rows(i0, n)
            return t.append_column("shard_id", pa.array([sid] * n, pa.int64()))

        out = str(tmp_path / "up4")
        L.commit_shard_manifest(out, 0, [L.write_part(out, 0, rows_with_sid(0, 4, 0))])
        # updates span the existing shard 0 (urls 2,3 replaced; url 4 new)
        # and a brand-new shard 7
        old = L.upsert_shard(out, 0, rows_with_sid(2, 3, 0, recrawl=True))
        new = L.upsert_shard(out, 7, rows_with_sid(100, 2, 7))
        assert (old["n_replaced"], old["n_appended"]) == (2, 1)  # urls 2,3; url 4
        assert (new["n_replaced"], new["n_appended"]) == (0, 2)  # the two shard-7 rows
        got = L.read_all(out)
        assert got.num_rows == 4 + 1 + 2
        by_url = {u: c for u, c in zip(got["url"].to_pylist(),
                                       got["doc_chars"].to_pylist())}
        assert by_url["https://d/3"] == 1003     # replaced in place
        assert by_url["https://d/100"] == 110    # new shard created
        assert {r["shard_id"] for r in L.load_lineage(out)} == {0, 7}

    def test_upsert_over_object_store_with_snapshot_expiry(self):
        import pytest

        fs = EventualObjectStore()
        out = "b/up"
        part = L.write_part(out, 0, _rows(0, 4), fs)
        fs.sync()
        L.try_commit_shard(out, 0, 4, [part], fs)
        fs.sync()
        L.commit_snapshot(out, fs)  # v1 pins pre-upsert state
        fs.sync()
        rec = L.upsert_shard(out, 0, self._recrawl(1, 2), fs=fs)
        fs.sync()
        assert rec["n_replaced"] == 2 and rec["n_appended"] == 0
        assert L.read_all(out, fs).num_rows == 4
        # the replaced part was unlinked -> v1 expires, never partial rows
        with pytest.raises(L.SnapshotExpired):
            L.read_snapshot(out, 1, fs)
        # post-upsert snapshot reads the merged state
        v2 = L.commit_snapshot(out, fs)["version"]
        fs.sync()
        assert L.read_snapshot(out, v2, fs).num_rows == 4


class TestDelete:
    def test_delete_rows_and_empty_shard(self, tmp_path):
        out = str(tmp_path / "del")
        L.commit_shard_manifest(out, 0, [L.write_part(out, 0, _rows(0, 5))])
        rec = L.delete_rows(out, 0, ["https://d/1", "https://d/3",
                                     "https://d/999"])  # 999 absent: ignored
        assert rec["n_deleted"] == 2
        got = L.read_all(out)
        assert sorted(got["url"].to_pylist()) == [
            "https://d/0", "https://d/2", "https://d/4"]
        # deleting everything leaves a valid EMPTY shard, not a broken one
        rec2 = L.delete_rows(out, 0, got["url"].to_pylist())
        assert rec2["n_deleted"] == 3 and rec2["parts"] == []
        assert L.read_all(out).num_rows == 0

    def test_delete_over_object_store_expires_snapshot(self):
        import pytest

        fs = EventualObjectStore()
        out = "b/del"
        part = L.write_part(out, 0, _rows(0, 4), fs)
        fs.sync()
        L.try_commit_shard(out, 0, 4, [part], fs)
        fs.sync()
        L.commit_snapshot(out, fs)
        fs.sync()
        rec = L.delete_rows(out, 0, ["https://d/2"], fs=fs)
        fs.sync()
        assert rec["n_deleted"] == 1
        assert L.read_all(out, fs).num_rows == 3
        with pytest.raises(L.SnapshotExpired):
            L.read_snapshot(out, 1, fs)


class TestReviewPins:
    """Round-5 self-review fixes pinned."""

    def test_noop_delete_keeps_parts_and_snapshots(self, tmp_path):
        out = str(tmp_path / "noop")
        L.commit_shard_manifest(out, 0, [L.write_part(out, 0, _rows(0, 4))])
        L.commit_snapshot(out)  # v1
        parts_before = {r["shard_id"]: r for r in L.load_lineage(out)}[0]["parts"]
        rec = L.delete_rows(out, 0, ["https://d/999"])  # matches nothing
        assert rec["n_deleted"] == 0
        parts_after = {r["shard_id"]: r for r in L.load_lineage(out)}[0]["parts"]
        assert parts_after == parts_before          # no rewrite
        assert L.read_snapshot(out, 1).num_rows == 4  # snapshot NOT expired

    def test_upsert_counters_with_duplicate_base_keys(self, tmp_path):
        out = str(tmp_path / "dupbase")
        # base shard carries the same url TWICE (ingest never dedups)
        dup = pa.concat_tables([_rows(0, 3), _rows(1, 1)])  # url 1 twice
        L.commit_shard_manifest(out, 0, [L.write_part(out, 0, dup)])
        assert L.read_all(out).num_rows == 4
        upd = _rows(1, 2)  # urls 1 (dup in base) and 2 (single)
        rec = L.upsert_shard(out, 0, upd)
        # counters are in KEYS: 2 replaced, 0 appended — never negative
        assert rec["n_replaced"] == 2 and rec["n_appended"] == 0
        got = L.read_all(out)
        assert got.num_rows == 3  # dup collapsed (documented side effect)
        assert sorted(got["url"].to_pylist()) == [
            "https://d/0", "https://d/1", "https://d/2"]


class TestSchemaEvolution:
    """Iceberg add-column semantics: parts written before a column existed
    read together with newer parts (typed nulls), and upsert merges an
    evolved update schema into an old shard."""

    def test_read_across_schema_versions(self, tmp_path):
        out = str(tmp_path / "evo")
        L.commit_shard_manifest(out, 0, [L.write_part(out, 0, _rows(0, 3))])
        wider = _rows(10, 2).append_column(
            "quality_ppm", pa.array([750_000, 810_000], pa.int64()))
        L.commit_shard_manifest(out, 1, [L.write_part(out, 1, wider)])
        got = L.read_all(out)
        assert got.num_rows == 5
        assert "quality_ppm" in got.column_names
        q = dict(zip(got["url"].to_pylist(), got["quality_ppm"].to_pylist()))
        assert q["https://d/0"] is None          # old part -> typed null
        assert q["https://d/10"] == 750_000      # new part -> real value

    def test_upsert_evolves_old_shard(self, tmp_path):
        out = str(tmp_path / "evo2")
        L.commit_shard_manifest(out, 0, [L.write_part(out, 0, _rows(0, 4))])
        upd = _rows(2, 2).append_column(
            "quality_ppm", pa.array([111, 222], pa.int64()))
        rec = L.upsert_shard(out, 0, upd)
        assert rec["n_replaced"] == 2 and rec["n_appended"] == 0
        got = L.read_shard(out, 0)
        assert got.num_rows == 4
        q = dict(zip(got["url"].to_pylist(), got["quality_ppm"].to_pylist()))
        assert q["https://d/0"] is None and q["https://d/2"] == 111
        # snapshot/read paths agree post-evolution
        L.commit_snapshot(out)
        assert "quality_ppm" in L.read_snapshot(out, 1).column_names


class TestTableWithoutPages:
    def test_written_and_read_back_unchanged(self, tmp_path):
        # No pages column, nothing to derive text from: the part stores the
        # table exactly as given and readers return it as it is.
        out = str(tmp_path / "t")
        rows = _rows(0, 5)
        rec = L.write_part(out, 0, rows)
        L.commit_shard_manifest(out, 0, [rec])
        raw = pq.read_table(os.path.join(L.shard_data_dir(out, 0), rec["part"]))
        assert raw.equals(rows)
        assert L.read_shard(out, 0).equals(rows)
        assert L.read_all(out).equals(rows)
        L.commit_snapshot(out)
        assert L.read_snapshot(out, 1).equals(rows)


class TestLocalAtomicFSThreads:
    def test_threads_writing_one_path_keep_their_temp_files(self, tmp_path):
        """Threads of one process writing the same path each need their own
        temp file: a shared one is renamed away under the other writer,
        whose own rename then fails with FileNotFoundError."""
        import sys
        import threading

        fs = L.LocalAtomicFS()
        blob, table = str(tmp_path / "blob"), str(tmp_path / "part.parquet")
        rows = _rows(0, 50)
        part = L._encode_part(rows)
        start = threading.Barrier(4)
        errors = []

        def writer(i):
            start.wait()
            try:
                for _ in range(100):
                    fs.put_bytes(blob, bytes([i]) * 4096)
                    fs.put_bytes(table, part)
            except OSError as e:  # collected for the assertion below
                errors.append(e)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=writer, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(set(fs.read_bytes(blob))) == 1  # one writer's whole object
        assert fs.read_table(table).equals(rows)
        assert sorted(os.listdir(tmp_path)) == ["blob", "part.parquet"]
