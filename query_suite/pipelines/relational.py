"""Relational / windowed operators over the TPC-H-ish testdata tables.

These generalize the reference's aggregation & lookup surface (SURVEY.md
§2.4-§2.6: id-set semi-join J1, broadcast lookup J2, grouped aggregate G4,
counts/sums G1-G3) into the full operator palette a Ray-Data engine needs:
grouped aggregates with partial pre-aggregation, broadcast hash joins,
distinct counting via two-level groupby, top-k, filtered counts, and
session windows over an event log.

Exact-match discipline: money sums in integer cents (each row rounded once,
then int64 sums — order-independent); min/max on raw doubles; no averages.
"""

from __future__ import annotations

import os
from typing import List

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd
from ray.data.aggregate import Count, Max, Min, Sum


def _pq(sf_dir: str, table: str) -> str:
    return os.path.join(sf_dir, f"{table}.parquet")


def _read(sf_dir: str, table: str, columns: List[str]) -> rd.Dataset:
    return rd.read_parquet(_pq(sf_dir, table), columns=columns)


def _cents(arr) -> pa.ChunkedArray:
    return pc.cast(
        pc.round(pc.multiply(arr, pa.scalar(100.0)), round_mode="half_towards_infinity"),
        pa.int64(),
    )


def _cents_pd(series: pd.Series) -> pd.Series:
    """Pandas twin of _cents: half-AWAY-from-zero like DuckDB's round().
    (pandas/numpy .round() is banker's half-to-even — a latent oracle
    divergence on exact half-cents.)"""
    import numpy as np

    v = series.to_numpy(dtype="float64") * 100.0
    out = np.where(v >= 0, np.floor(v + 0.5), np.ceil(v - 0.5))
    return pd.Series(out.astype("int64"), index=series.index)


# ---------------------------------------------------------------------------
# Grouped aggregate with pre-aggregation (TPC-H Q1 shape)
# ---------------------------------------------------------------------------

Q1_CUTOFF = "1998-09-02"


def q_pricing_summary(sf_dir: str) -> rd.Dataset:
    """Lineitem pricing summary (TPC-H Q1 shape).

    The vectorized pre-stage computes per-row cents columns AND combines
    them per block (pyarrow group_by -> ≤6 partial rows per block), so the
    exchange moves a few hundred int64-partial rows instead of every
    lineitem; the cents columns make the partial sums exact and
    order-independent. The final groupby runs over coalesced blocks.
    """
    _PARTIAL_COLS = [
        "sum_qty", "sum_base_price_cents", "sum_disc_price_cents",
        "sum_charge_cents", "count_order",
    ]

    def prep(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            pc.less_equal(batch["l_shipdate"], pa.scalar(pd.Timestamp(Q1_CUTOFF)))
        )
        disc_price = pc.multiply(
            batch["l_extendedprice"], pc.subtract(pa.scalar(1.0), batch["l_discount"])
        )
        charge = pc.multiply(
            disc_price, pc.add(pa.scalar(1.0), batch["l_tax"])
        )
        rows = pa.Table.from_arrays(
            [
                batch["l_returnflag"],
                batch["l_linestatus"],
                pc.cast(pc.round(batch["l_quantity"], round_mode="half_towards_infinity"), pa.int64()),
                _cents(batch["l_extendedprice"]),
                _cents(disc_price),
                _cents(charge),
            ],
            names=[
                "l_returnflag", "l_linestatus", "qty",
                "base_price_cents", "disc_price_cents", "charge_cents",
            ],
        )
        g = rows.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("qty", "sum"), ("base_price_cents", "sum"),
             ("disc_price_cents", "sum"), ("charge_cents", "sum"),
             ([], "count_all")]
        )
        return pa.Table.from_arrays(
            [
                g["l_returnflag"], g["l_linestatus"], g["qty_sum"],
                g["base_price_cents_sum"], g["disc_price_cents_sum"],
                g["charge_cents_sum"], pc.cast(g["count_all"], pa.int64()),
            ],
            names=["l_returnflag", "l_linestatus"] + _PARTIAL_COLS,
        )

    return (
        _read(
            sf_dir, "lineitem",
            ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
             "l_discount", "l_tax", "l_shipdate"],
        )
        .map_batches(prep, batch_format="pyarrow")
        .repartition(8)
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(*[Sum(c, alias_name=c) for c in _PARTIAL_COLS])
    )


SQL_PRICING_SUMMARY = f"""
SELECT l_returnflag, l_linestatus,
       CAST(sum(CAST(round(l_quantity) AS BIGINT)) AS BIGINT) AS sum_qty,
       CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)) AS BIGINT) AS sum_base_price_cents,
       CAST(sum(CAST(round(l_extendedprice * (1 - l_discount) * 100) AS BIGINT)) AS BIGINT) AS sum_disc_price_cents,
       CAST(sum(CAST(round(l_extendedprice * (1 - l_discount) * (1 + l_tax) * 100) AS BIGINT)) AS BIGINT) AS sum_charge_cents,
       count(*) AS count_order
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '{Q1_CUTOFF} 00:00:00'
GROUP BY l_returnflag, l_linestatus
"""


# ---------------------------------------------------------------------------
# Joins: a general co-partitioned shuffle hash join, plus broadcast lookups
# for genuinely small dimension sides (nation/region)
# ---------------------------------------------------------------------------


JOIN_SHARDS = 64  # hash-join co-partitions; per-task memory = shard rows of
                  # both sides. Set near the cluster task count at scale.


def _exchange_blocks() -> int:
    """Block count fed into a sort-shuffle exchange: one per cluster CPU.

    Ray's sort shuffle costs O(in_blocks x out_partitions) in task/object
    overhead, and out_partitions follows in_blocks — 64 near-empty blocks
    into a groupby measured 9.1 s at sf0.1/32cpu where 16 right-sized
    blocks measured 1.9 s on identical rows. Coalescing (narrow split
    repartition, not an all-to-all) to ~#CPUs keeps every reduce slot busy
    without paying quadratic scheduling overhead; on a 256-node cluster
    this scales to #cluster-CPUs blocks, which is exactly the task count
    you want an exchange to produce."""
    try:
        return max(8, int(ray.cluster_resources().get("CPU", 8)))
    except Exception:
        return 8


def schema_anchor(ds: rd.Dataset, schema: pa.Schema) -> rd.Dataset:
    """Pin ``schema`` onto a Dataset whose rows may ALL be filtered away: a
    fully-empty post-exchange Dataset loses its column names inside Ray's
    AllToAll internals (``to_pandas()`` then yields a column-less frame),
    so queries that can legitimately return zero rows union one 0-row typed
    Arrow block in front. Lazy, no shuffle, row content unchanged."""
    return rd.from_arrow(schema.empty_table()).union(ds)


def hash_exchange(
    ds: rd.Dataset,
    key_cols: List[str],
    fn,
    out_schema: pa.Schema,
    num_shards: int = JOIN_SHARDS,
) -> rd.Dataset:
    """Co-locate rows by key hash and apply ``fn`` per shard — the engine's
    general keyed exchange, cheaper than ``groupby(key)`` whenever the key
    is a high-cardinality string/composite: the sort-shuffle then orders an
    int64 ``__shard`` column instead of every key value, and the group
    count stays at ``num_shards`` instead of n_distinct_keys. ``fn``
    receives one shard's rows (ALL rows of any given key, never split) as a
    pyarrow Table without the ``__shard`` column and must return a table
    with ``out_schema``. Input blocks are coalesced to ~#cluster-CPUs first
    (see _exchange_blocks). Partitioning contract: one shard's rows fit one
    task; size num_shards near the cluster task count at scale."""
    key_is_int = {}

    def tag(t: pa.Table) -> pa.Table:
        h = np.zeros(t.num_rows, dtype=np.uint64)
        for col in key_cols:
            arr = t[col]
            if col not in key_is_int:
                key_is_int[col] = pa.types.is_integer(arr.type)
            if key_is_int[col]:
                v = pc.cast(arr, pa.int64()).to_numpy(zero_copy_only=False)
                hv = v.astype(np.uint64)
            else:
                hv = pd.util.hash_array(
                    arr.combine_chunks().to_numpy(zero_copy_only=False)
                    if isinstance(arr, pa.ChunkedArray)
                    else np.asarray(arr.to_pylist(), dtype=object),
                    categorize=False,
                )
            h = h * np.uint64(1099511628211) + hv
        return t.append_column(
            "__shard", pa.array((h % np.uint64(num_shards)).astype(np.int64))
        )

    def run(t: pa.Table) -> pa.Table:
        out = fn(t.drop_columns(["__shard"]))
        if out.num_rows == 0:
            return out_schema.empty_table()
        return out.select(out_schema.names).cast(out_schema)

    return (
        ds.map_batches(tag, batch_format="pyarrow")
        .repartition(_exchange_blocks())
        .groupby("__shard")
        .map_groups(run, batch_format="pyarrow")
    )


def hash_join(
    left: rd.Dataset,
    right: rd.Dataset,
    left_on: str,
    right_on: str,
    key_type: pa.DataType,
    left_fields: List[pa.Field],
    right_fields: List[pa.Field],
    combine_left_sum: bool = False,
    combine_right_sum: bool = False,
    how: str = "inner",
    salt: int = 1,
    dedup_left: bool = False,
) -> rd.Dataset:
    """General co-partitioned shuffle hash join (many-to-many).

    ``how``: "inner" (default), "left" (left outer — unmatched left rows
    keep typed nulls in the right fields), "semi" (left rows WITH a match,
    left columns only), or "anti" (left rows WITHOUT a match, left columns
    only — the distributed anti-join shape that replaces a broadcast probe
    set once the probe side outgrows driver memory). All flavors run in
    the same single exchange; the in-shard Acero join picks the matching
    join_type. ``combine_right_sum`` mirrors ``combine_left_sum`` for the
    right side.

    The reference has no hash join (SURVEY.md §2.4) — this is the engine
    operator that replaces the driver-collected broadcast for FACT-sized
    "dimensions" (customer is ~150k rows/sf: a multi-GB driver pin at a 100x
    corpus). Topology: tag each side with a null-padded union schema, a
    ``__side`` marker and a ``__shard`` = hash(key) % JOIN_SHARDS column,
    union the two streams, co-partition with ONE ``groupby(__shard)``
    shuffle, and join each shard's two sides with a vectorized Arrow
    (Acero) inner join inside the group task. Sharding on a key HASH rather
    than the key itself keeps the group count at JOIN_SHARDS instead of
    n_distinct_keys — per-key ``map_groups`` paid one Python dispatch per
    key (15k groups for customer at sf0.1), which dominated the join's
    wall time; the in-shard Acero join is C-level and many-to-many.
    No driver-side materialization of either input; per-task memory is one
    shard's rows from both sides (JOIN_SHARDS sizes this — set it near the
    cluster's task count at scale). Partitioning assumption
    (custom-operator contract): a shard fits one group task; a pathological
    hot key still lands whole in one shard and needs salting on the many
    side + replication of the few side, which callers get by pre-reducing
    (see q_segment_order_stats) or pre-pruning (see
    q_top_orders_per_segment) before the join.

    ``left_fields`` / ``right_fields`` are the payload (non-key) columns of
    each side; inputs must carry exactly key + payload columns. Output
    columns: ``[left_on, *left_fields, *right_fields]`` (key keeps the left
    name). Arrow-native throughout: typed null padding and typed empties, so
    empty groups/blocks never degrade the block schema.

    ``combine_left_sum=True`` fuses an aggregate-then-join into the join's
    ONE exchange: the caller feeds per-BLOCK partial rows on the left (all
    ``left_fields`` summable, e.g. counts / integer-cent sums) and the shard
    merge first reduces the left side per key (``pa.Table.group_by(key).sum``)
    before joining — so no separate ``groupby(key)`` sort-shuffle runs at
    all. Measured on segment_order_stats at sf0.1/32cpu: the standalone
    orders pre-aggregate groupby cost 10.2 s of the query's 12.4 s; fusing
    removes it (one exchange of partial rows instead of a full sort shuffle
    plus the join exchange).

    ``salt > 1`` is the HOT-KEY regime (the documented pathological case:
    one key owning a disproportionate share of the left side would land
    whole in one shard task): every left row additionally spreads across
    ``salt`` sub-shards (shard = hash(key)*salt + spread), and every right
    row REPLICATES into all ``salt`` sub-shards of its key, so each left
    row still meets its key's full right match-set exactly once. Exact for
    inner/left/semi/anti (each LEFT row lives in exactly one sub-shard;
    right rows never emit alone in those flavors); ``full`` outer is
    rejected (an unmatched right row would surface once per replica). With
    ``combine_left_sum`` the per-key combine becomes per-(key, sub-shard) —
    up to ``salt`` partial rows per key leave the join, so callers that
    re-aggregate downstream (the partial-sum pattern) get exactness for
    free, and the per-task memory bound shrinks by ~salt for the hot key.
    Cost: right-side bytes × salt — size salt to the observed skew (the
    events_user_skew Gini profile is the measuring instrument).

    ``dedup_left=True`` drops duplicate left rows (distinct on key + all
    left_fields) inside the shard merge — duplicates of the same row always
    share the key, hence the shard, so this is exact and replaces a whole
    upstream exchange-based dedup pass (one fewer all-to-all barrier;
    measured on dedup_jaccard_prefix, whose candidate pairs repeat once per
    shared prefix token). Incompatible with salt > 1 (duplicates could
    spread across sub-shards) and combine_left_sum (summing contradicts
    dropping).
    """
    union_schema = pa.schema(
        [pa.field(left_on, key_type)]
        + list(left_fields)
        + list(right_fields)
        + [pa.field("__side", pa.int8()), pa.field("__shard", pa.int64())]
    )
    if how not in ("inner", "left", "full", "semi", "anti"):
        raise ValueError(f"unsupported join flavor: {how!r}")
    if salt < 1:
        raise ValueError("salt must be >= 1")
    if salt > 1 and how == "full":
        raise ValueError(
            "salt > 1 cannot preserve full-outer semantics: an unmatched "
            "right row would surface once per replica"
        )
    if dedup_left and (salt > 1 or combine_left_sum):
        # per-sub-shard dedup misses cross-sub-shard duplicates; combining
        # sums over duplicate rows contradicts dropping them
        raise ValueError("dedup_left requires salt == 1 and no combine_left_sum")
    out_fields = list(left_fields) + (
        list(right_fields) if how in ("inner", "left", "full") else []
    )
    out_schema = pa.schema([pa.field(left_on, key_type)] + out_fields)
    acero_how = {
        "inner": "inner", "left": "left outer", "full": "full outer",
        "semi": "left semi", "anti": "left anti",
    }[how]

    def _base_shard(keys: pa.ChunkedArray) -> np.ndarray:
        if pa.types.is_integer(key_type):
            v = pc.cast(keys, pa.int64()).to_numpy(zero_copy_only=False)
            return (np.abs(v) % JOIN_SHARDS).astype(np.int64)
        # String keys: vectorized C-level hash (shard choice only affects
        # partitioning, never output values, so any stable hash works).
        h = pd.util.hash_array(
            pc.cast(keys, pa.large_string()).combine_chunks().to_numpy(
                zero_copy_only=False
            ),
            categorize=False,
        )
        return (h % JOIN_SHARDS).astype(np.int64)

    def _tag(side: int, key_col: str):
        def tag(t: pa.Table) -> pa.Table:
            keys = pc.cast(t[key_col], key_type)
            arrays = [keys]
            for f in left_fields:
                arrays.append(
                    pc.cast(t[f.name], f.type) if side == 0 else pa.nulls(t.num_rows, f.type)
                )
            for f in right_fields:
                arrays.append(
                    pc.cast(t[f.name], f.type) if side == 1 else pa.nulls(t.num_rows, f.type)
                )
            arrays.append(pa.array(np.full(t.num_rows, side, dtype=np.int8)))
            base = _base_shard(keys)
            if salt == 1:
                arrays.append(pa.array(base, pa.int64()))
                return pa.Table.from_arrays(arrays, schema=union_schema)
            if side == 0:
                # spread each left row over one of the key's salt sub-shards
                # (any stable spread works: partitioning never changes values)
                spread = np.arange(t.num_rows, dtype=np.int64) % salt
                arrays.append(pa.array(base * salt + spread, pa.int64()))
                return pa.Table.from_arrays(arrays, schema=union_schema)
            # right side: replicate each row into ALL salt sub-shards of its
            # key, so every left sub-shard sees the key's full match-set
            idx = np.repeat(np.arange(t.num_rows, dtype=np.int64), salt)
            take = pa.array(idx)
            rep = [a.take(take) for a in arrays]
            spread = np.tile(np.arange(salt, dtype=np.int64), t.num_rows)
            rep.append(pa.array(base[idx] * salt + spread, pa.int64()))
            return pa.Table.from_arrays(rep, schema=union_schema)

        return tag

    left_names = [left_on] + [f.name for f in left_fields]
    right_names = [left_on] + [f.name for f in right_fields]

    def _combine(side_t: pa.Table, key: str, fields: List[pa.Field], names):
        agg = side_t.group_by(key).aggregate([(f.name, "sum") for f in fields])
        return pa.Table.from_arrays(
            [agg[key]] + [pc.cast(agg[f"{f.name}_sum"], f.type) for f in fields],
            names=names,
        )

    def merge(t: pa.Table) -> pa.Table:
        lmask = pc.equal(t["__side"], pa.scalar(0, pa.int8()))
        lt = t.filter(lmask).select(left_names)
        rt = t.filter(pc.invert(lmask)).select(right_names)
        if lt.num_rows == 0:
            if how == "full" and rt.num_rows:
                # full outer: unmatched right rows survive with null left
                padded = rt
                for f in left_fields:
                    padded = padded.append_column(
                        f.name, pa.nulls(padded.num_rows, f.type)
                    )
                return padded.select(out_schema.names).cast(out_schema)
            return out_schema.empty_table()
        if combine_left_sum and lt.num_rows:
            lt = _combine(lt, left_on, left_fields, left_names)
        if dedup_left and lt.num_rows:
            # distinct (key, *fields) rows — duplicates of the same left row
            # co-locate here (same key -> same shard), so an upstream
            # exchange-based dedup pass is redundant; fusing it into the
            # join removes one all-to-all barrier from the caller's plan
            lt = lt.group_by(left_names).aggregate([]).select(left_names)
        if rt.num_rows == 0:
            if how == "inner" or how == "semi":
                return out_schema.empty_table()  # nothing matches
            if how == "anti":
                return lt.select(out_schema.names).cast(out_schema)
            # left/full outer: every left row survives with null right fields
            padded = lt
            for f in right_fields:
                padded = padded.append_column(
                    f.name, pa.nulls(padded.num_rows, f.type)
                )
            return padded.select(out_schema.names).cast(out_schema)
        if combine_right_sum:
            rt = _combine(rt, left_on, right_fields, right_names)
        joined = lt.join(rt, keys=left_on, join_type=acero_how)
        return joined.select(out_schema.names).cast(out_schema)

    tagged_left = left.map_batches(_tag(0, left_on), batch_format="pyarrow")
    tagged_right = right.map_batches(_tag(1, right_on), batch_format="pyarrow")
    return (
        tagged_left.union(tagged_right)
        .repartition(_exchange_blocks())
        .groupby("__shard")
        .map_groups(merge, batch_format="pyarrow")
    )


def q_segment_order_stats(sf_dir: str) -> rd.Dataset:
    """orders ⋈ customer on custkey, grouped by market segment — via the
    co-partitioned shuffle hash join (round-2 VERDICT #1: customer is
    fact-sized at TPC-H scale, so the driver-collected broadcast is gone).

    Orders are pre-REDUCED per custkey per BLOCK (vectorized pyarrow
    group_by inside map_batches — no shuffle), and the final per-custkey
    combine is fused into the join's shard merge (combine_left_sum). Net:
    ONE exchange for aggregate+join, moving only int64 partial rows. The
    previous standalone ``groupby("o_custkey")`` sort-shuffle cost 10.2 s
    of the query's 12.4 s at sf0.1/32cpu."""

    def prep(batch: pa.Table) -> pa.Table:
        t = pa.Table.from_arrays(
            [batch["o_custkey"], _cents(batch["o_totalprice"])],
            names=["o_custkey", "totalprice_cents"],
        )
        g = t.group_by("o_custkey").aggregate(
            [("totalprice_cents", "sum"), ([], "count_all")]
        )
        return pa.Table.from_arrays(
            [
                g["o_custkey"],
                pc.cast(g["count_all"], pa.int64()),
                g["totalprice_cents_sum"],
            ],
            names=["o_custkey", "n_orders", "cents"],
        )

    partials = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"]).map_batches(
        prep, batch_format="pyarrow"
    )
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    joined = hash_join(
        partials,
        cust,
        left_on="o_custkey",
        right_on="c_custkey",
        key_type=pa.int64(),
        left_fields=[pa.field("n_orders", pa.int64()), pa.field("cents", pa.int64())],
        right_fields=[pa.field("c_mktsegment", pa.string())],
        combine_left_sum=True,
    )

    def seg_partial(t: pa.Table) -> pa.Table:
        g = t.group_by("c_mktsegment").aggregate(
            [("n_orders", "sum"), ("cents", "sum")]
        )
        return pa.Table.from_arrays(
            [g["c_mktsegment"], g["n_orders_sum"], g["cents_sum"]],
            names=["c_mktsegment", "n_orders", "cents"],
        )

    return (
        joined.map_batches(seg_partial, batch_format="pyarrow")
        .repartition(8)
        .groupby("c_mktsegment")
        .aggregate(
            Sum("n_orders", alias_name="n_orders"),
            Sum("cents", alias_name="sum_totalprice_cents"),
        )
    )


SQL_SEGMENT_ORDER_STATS = """
SELECT c.c_mktsegment,
       count(*) AS n_orders,
       CAST(sum(CAST(round(o.o_totalprice * 100) AS BIGINT)) AS BIGINT) AS sum_totalprice_cents
FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
GROUP BY c.c_mktsegment
"""


def _order_count_partials(sf_dir: str) -> rd.Dataset:
    """Per-BLOCK (o_custkey, n_orders) partial counts — no shuffle."""

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by("o_custkey").aggregate([([], "count_all")])
        return pa.Table.from_arrays(
            [pc.cast(g["o_custkey"], pa.int64()), pc.cast(g["count_all"], pa.int64())],
            names=["o_custkey", "n_orders"],
        )

    return _read(sf_dir, "orders", ["o_custkey"]).map_batches(
        partial, batch_format="pyarrow"
    )


Q3_SEGMENT = "BUILDING"
Q3_CUTOFF = "1996-06-30"
Q3_TOPK = 10


def q_top_unshipped_orders(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q3 shape: top-10 orders by open revenue for one market segment
    — the MULTI-WAY join (customer ⋈ orders ⋈ lineitem) every other query
    here only exercises one edge of. Demonstrates that ``hash_join``
    composes: the output Dataset of one join feeds the next as an ordinary
    lazy stream.

    Plan (two exchanges total, both key-hash shards — no global sort):
      1. customer is filtered to the segment AT THE READ (row-group prune)
         and used as the build side of a SEMI join against orders (orders
         pre-filtered to o_orderdate < cutoff at the read) — fact ⋈ fact,
         so no driver-collected broadcast.
      2. lineitem (l_shipdate > cutoff pushed to the read) is pre-reduced
         per l_orderkey per BLOCK into integer-cent revenue partials; the
         second hash_join fuses the final per-key combine into its shard
         merge (combine_left_sum) while joining the surviving open orders.
      3. top-10 = per-block partial top-k + a tiny driver merge
         (revenue desc, orderkey asc tiebreak — boundary determinism).
    """
    import pyarrow.dataset as pds

    cutoff = pd.Timestamp(Q3_CUTOFF)

    cust = rd.read_parquet(
        _pq(sf_dir, "customer"),
        columns=["c_custkey", "c_mktsegment"],
        filter=pds.field("c_mktsegment") == Q3_SEGMENT,
    )
    orders = rd.read_parquet(
        _pq(sf_dir, "orders"),
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
        filter=pds.field("o_orderdate") < cutoff,
    )
    open_orders = hash_join(
        orders,
        cust,
        left_on="o_custkey",
        right_on="c_custkey",
        key_type=pa.int64(),
        left_fields=[pa.field("o_orderkey", pa.int64()),
                     pa.field("o_orderdate", pa.timestamp("us"))],
        right_fields=[pa.field("c_mktsegment", pa.string())],
        how="semi",
    ).select_columns(["o_orderkey", "o_orderdate"])

    def li_partial(t: pa.Table) -> pa.Table:
        rev = _cents(
            pc.multiply(
                t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"])
            )
        )
        rows = pa.Table.from_arrays(
            [pc.cast(t["l_orderkey"], pa.int64()), rev],
            names=["l_orderkey", "revenue_cents"],
        )
        g = rows.group_by("l_orderkey").aggregate([("revenue_cents", "sum")])
        return pa.Table.from_arrays(
            [g["l_orderkey"], g["revenue_cents_sum"]],
            names=["l_orderkey", "revenue_cents"],
        )

    li = rd.read_parquet(
        _pq(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
        filter=pds.field("l_shipdate") > cutoff,
    ).map_batches(li_partial, batch_format="pyarrow")

    joined = hash_join(
        li,
        open_orders,
        left_on="l_orderkey",
        right_on="o_orderkey",
        key_type=pa.int64(),
        left_fields=[pa.field("revenue_cents", pa.int64())],
        right_fields=[pa.field("o_orderdate", pa.timestamp("us"))],
        combine_left_sum=True,
    )

    _TOP_SCHEMA = pa.schema([
        ("l_orderkey", pa.int64()), ("revenue_cents", pa.int64()),
        ("o_orderdate", pa.timestamp("us")),
    ])

    def block_topk(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _TOP_SCHEMA.empty_table()
        df = t.to_pandas().sort_values(
            ["revenue_cents", "l_orderkey"], ascending=[False, True]
        ).head(Q3_TOPK)
        return pa.Table.from_pandas(df, schema=_TOP_SCHEMA, preserve_index=False)

    partials = joined.map_batches(block_topk, batch_format="pyarrow").to_pandas()
    top = partials.sort_values(
        ["revenue_cents", "l_orderkey"], ascending=[False, True]
    ).head(Q3_TOPK)
    return top[["l_orderkey", "revenue_cents", "o_orderdate"]].reset_index(drop=True)


SQL_TOP_UNSHIPPED_ORDERS = f"""
SELECT l.l_orderkey,
       CAST(sum(CAST(round(l.l_extendedprice * (1 - l.l_discount) * 100) AS BIGINT)) AS BIGINT) AS revenue_cents,
       o.o_orderdate
FROM customer c
JOIN orders o ON c.c_custkey = o.o_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
WHERE c.c_mktsegment = '{Q3_SEGMENT}'
  AND o.o_orderdate < TIMESTAMP '{Q3_CUTOFF} 00:00:00'
  AND l.l_shipdate > TIMESTAMP '{Q3_CUTOFF} 00:00:00'
GROUP BY l.l_orderkey, o.o_orderdate
ORDER BY revenue_cents DESC, l.l_orderkey ASC
LIMIT {Q3_TOPK}
"""


def q_customer_order_counts(sf_dir: str) -> rd.Dataset:
    """LEFT OUTER hash join: every customer with its order count, 0 when it
    has none — the join flavor a broadcast probe can't express once both
    sides are fact-sized. Orders are pre-reduced per block and the final
    per-custkey combine is fused into the join's shard merge
    (combine_right_sum); unmatched customers surface as typed nulls that a
    vectorized fill turns into 0."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    joined = hash_join(
        cust,
        _order_count_partials(sf_dir),
        left_on="c_custkey",
        right_on="o_custkey",
        key_type=pa.int64(),
        left_fields=[pa.field("c_mktsegment", pa.string())],
        right_fields=[pa.field("n_orders", pa.int64())],
        combine_right_sum=True,
        how="left",
    )

    def fill_zero(t: pa.Table) -> pa.Table:
        return t.set_column(
            t.schema.get_field_index("n_orders"),
            "n_orders",
            pc.fill_null(t["n_orders"], pa.scalar(0, pa.int64())),
        )

    return joined.map_batches(fill_zero, batch_format="pyarrow")


SQL_CUSTOMER_ORDER_COUNTS = """
SELECT c.c_custkey, c.c_mktsegment,
       COALESCE(o.cnt, 0) AS n_orders
FROM customer c
LEFT JOIN (SELECT o_custkey, count(*) AS cnt FROM orders GROUP BY o_custkey) o
  ON c.c_custkey = o.o_custkey
"""


DORMANT_CUTOFF = "1997-06-01"


def q_customers_dormant(sf_dir: str) -> rd.Dataset:
    """Distributed ANTI join: customers with NO order on/after the cutoff
    ("dormant"). Unlike q_customers_without_big_orders (broadcast probe
    set), this stays fully distributed — the shape to use once the probe
    side outgrows driver memory. The date filter is pushed to the parquet
    read; the orders side then ships per-block-distinct custkeys only."""

    def recent_keys(t: pa.Table) -> pa.Table:
        g = t.group_by("o_custkey").aggregate([([], "count_all")])
        return pa.Table.from_arrays(
            [pc.cast(g["o_custkey"], pa.int64()), pc.cast(g["count_all"], pa.int64())],
            names=["o_custkey", "n_orders"],
        )

    import pyarrow.dataset as pads

    recent = rd.read_parquet(
        _pq(sf_dir, "orders"),
        columns=["o_custkey"],
        filter=pads.field("o_orderdate") >= pd.Timestamp(DORMANT_CUTOFF),
    ).map_batches(recent_keys, batch_format="pyarrow")
    out = hash_join(
        _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]),
        recent,
        left_on="c_custkey",
        right_on="o_custkey",
        key_type=pa.int64(),
        left_fields=[pa.field("c_mktsegment", pa.string())],
        right_fields=[pa.field("n_orders", pa.int64())],
        how="anti",
    )
    # every customer can be active at small sf — keep the schema on 0 rows
    return schema_anchor(out, pa.schema([
        ("c_custkey", pa.int64()), ("c_mktsegment", pa.string()),
    ]))


SQL_CUSTOMERS_DORMANT = f"""
SELECT c_custkey, c_mktsegment FROM customer c
WHERE NOT EXISTS (SELECT 1 FROM orders o
                  WHERE o.o_custkey = c.c_custkey
                    AND o.o_orderdate >= DATE '{DORMANT_CUTOFF}')
"""


def q_customers_with_orders(sf_dir: str) -> rd.Dataset:
    """Distributed SEMI join twin of q_customers_no_orders."""
    return hash_join(
        _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]),
        _order_count_partials(sf_dir),
        left_on="c_custkey",
        right_on="o_custkey",
        key_type=pa.int64(),
        left_fields=[pa.field("c_mktsegment", pa.string())],
        right_fields=[pa.field("n_orders", pa.int64())],
        how="semi",
    )


SQL_CUSTOMERS_WITH_ORDERS = """
SELECT c_custkey, c_mktsegment FROM customer c
WHERE EXISTS (SELECT 1 FROM orders o WHERE o.o_custkey = c.c_custkey)
"""


def q_nation_customer_counts(sf_dir: str) -> rd.Dataset:
    """customer ⋈ nation ⋈ region via one composed broadcast lookup."""
    nation = _read(sf_dir, "nation", ["n_nationkey", "n_name", "n_regionkey"]).to_pandas()
    region = _read(sf_dir, "region", ["r_regionkey", "r_name"]).to_pandas()
    dim = nation.merge(region, left_on="n_regionkey", right_on="r_regionkey")
    key_to_names = dim.set_index("n_nationkey")[["n_name", "r_name"]]
    ref = ray.put(key_to_names)

    def join_and_count(df: pd.DataFrame) -> pd.DataFrame:
        # broadcast-join the two tiny dims, then pre-combine per block so
        # the exchange moves <= 25 (region, nation, count) partial rows
        lookup = ray.get(ref)
        joined = df.join(lookup, on="c_nationkey")
        g = joined.groupby(["r_name", "n_name"], sort=False, as_index=False).size()
        return g.rename(columns={"size": "n_customers"}).astype({"n_customers": "int64"})

    return (
        _read(sf_dir, "customer", ["c_nationkey"])
        .map_batches(join_and_count, batch_format="pandas")
        .repartition(8)
        .groupby(["r_name", "n_name"])
        .aggregate(Sum("n_customers", alias_name="n_customers"))
    )


SQL_NATION_CUSTOMER_COUNTS = """
SELECT r.r_name, n.n_name, count(*) AS n_customers
FROM customer c
JOIN nation n ON c.c_nationkey = n.n_nationkey
JOIN region r ON n.n_regionkey = r.r_regionkey
GROUP BY r.r_name, n.n_name
"""


# ---------------------------------------------------------------------------
# Top-k / sort / limit / filter
# ---------------------------------------------------------------------------

TOPK_CUSTOMERS = 10


def q_top_customers_by_revenue(sf_dir: str) -> pd.DataFrame:
    """Top-10 customers by total order value: per-BLOCK partial sums
    (pyarrow group_by — one int64 row per customer per block crosses the
    wire), a hash_exchange on custkey whose shard fn finishes the sum AND
    takes the shard's top-k, then a tiny driver merge of the <=k-per-shard
    partials — never a global sort for 10 rows, and never a sort-aggregate
    keyed on 10^5+ distinct custkeys (the exchange orders num_shards int64
    ids). o_custkey is the tiebreak at every level (boundary determinism)."""
    topk_schema = pa.schema(
        [pa.field("o_custkey", pa.int64()), pa.field("revenue_cents", pa.int64())]
    )

    def partial_sums(batch: pa.Table) -> pa.Table:
        rows = pa.Table.from_arrays(
            [pc.cast(batch["o_custkey"], pa.int64()), _cents(batch["o_totalprice"])],
            names=["o_custkey", "totalprice_cents"],
        )
        g = rows.group_by("o_custkey").aggregate([("totalprice_cents", "sum")])
        return pa.Table.from_arrays(
            [g["o_custkey"], g["totalprice_cents_sum"]],
            schema=topk_schema,
        )

    def shard_topk(t: pa.Table) -> pa.Table:
        g = t.group_by("o_custkey").aggregate([("revenue_cents", "sum")])
        df = pa.Table.from_arrays(
            [g["o_custkey"], g["revenue_cents_sum"]], schema=topk_schema
        ).to_pandas()
        top = df.sort_values(
            ["revenue_cents", "o_custkey"], ascending=[False, True]
        ).head(TOPK_CUSTOMERS)
        return pa.Table.from_pandas(top, schema=topk_schema, preserve_index=False)

    partials = hash_exchange(
        _read(sf_dir, "orders", ["o_custkey", "o_totalprice"]).map_batches(
            partial_sums, batch_format="pyarrow"
        ),
        ["o_custkey"],
        shard_topk,
        topk_schema,
    ).to_pandas()
    top = partials.sort_values(
        ["revenue_cents", "o_custkey"], ascending=[False, True]
    ).head(TOPK_CUSTOMERS)
    return top[["o_custkey", "revenue_cents"]].reset_index(drop=True)


SQL_TOP_CUSTOMERS_BY_REVENUE = f"""
SELECT o_custkey, CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS revenue_cents
FROM orders GROUP BY o_custkey
ORDER BY revenue_cents DESC, o_custkey ASC LIMIT {TOPK_CUSTOMERS}
"""


HIGH_VALUE_CUT = 400000.0


HIGH_VALUE_TOPK = 20


def q_high_value_orders(sf_dir: str) -> pd.DataFrame:
    """Filter + project + top-20 by raw double (no arithmetic -> exact).
    The price predicate is pushed to the read (row-group pruning); the top-k
    is per-BLOCK partial top-k + a tiny driver merge of <=k-per-block rows —
    no global Sort operator (round-2 VERDICT #6: filtered cardinality is
    unbounded in general). o_orderkey is the tiebreak on both sides
    (boundary determinism under the driver's value hash)."""
    import pyarrow.dataset as pds

    _SCHEMA = pa.schema([
        ("o_orderkey", pa.int64()), ("o_custkey", pa.int64()),
        ("o_totalprice", pa.float64()), ("o_orderpriority", pa.string()),
    ])

    def block_topk(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _SCHEMA.empty_table()
        df = t.to_pandas().sort_values(
            ["o_totalprice", "o_orderkey"], ascending=[False, True]
        ).head(HIGH_VALUE_TOPK)
        return pa.Table.from_pandas(df, schema=_SCHEMA, preserve_index=False)

    partials = (
        rd.read_parquet(
            _pq(sf_dir, "orders"),
            columns=["o_orderkey", "o_custkey", "o_totalprice", "o_orderpriority"],
            filter=pds.field("o_totalprice") > HIGH_VALUE_CUT,
        )
        .map_batches(block_topk, batch_format="pyarrow")
        .to_pandas()
    )
    top = partials.sort_values(
        ["o_totalprice", "o_orderkey"], ascending=[False, True]
    ).head(HIGH_VALUE_TOPK)
    return top.reset_index(drop=True)


SQL_HIGH_VALUE_ORDERS = f"""
SELECT o_orderkey, o_custkey, o_totalprice, o_orderpriority
FROM orders WHERE o_totalprice > {HIGH_VALUE_CUT}
ORDER BY o_totalprice DESC, o_orderkey ASC LIMIT {HIGH_VALUE_TOPK}
"""


def q_orders_priority_counts(sf_dir: str) -> rd.Dataset:
    """Filtered grouped count with the filter PUSHED TO THE READ: the date
    range travels as a pyarrow dataset expression, so parquet row groups
    outside it never leave storage (row-group statistics pruning) — the
    "prune at the read" rule applied to rows, not just columns."""
    import pyarrow.dataset as pds

    flt = (pds.field("o_orderdate") >= pd.Timestamp("1995-01-01")) & (
        pds.field("o_orderdate") < pd.Timestamp("1996-01-01")
    )

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by("o_orderpriority").aggregate([([], "count_all")])
        return pa.Table.from_arrays(
            [g["o_orderpriority"], pc.cast(g["count_all"], pa.int64())],
            names=["o_orderpriority", "n_orders"],
        )

    return (
        rd.read_parquet(
            _pq(sf_dir, "orders"),
            columns=["o_orderpriority", "o_orderdate"],
            filter=flt,
        )
        .map_batches(partial, batch_format="pyarrow")  # <=5 rows per block
        .repartition(8)
        .groupby("o_orderpriority")
        .aggregate(Sum("n_orders", alias_name="n_orders"))
    )


SQL_ORDERS_PRIORITY_COUNTS = """
SELECT o_orderpriority, count(*) AS n_orders
FROM orders
WHERE o_orderdate >= TIMESTAMP '1995-01-01' AND o_orderdate < TIMESTAMP '1996-01-01'
GROUP BY o_orderpriority
"""


def q_part_type_stats(sf_dir: str) -> rd.Dataset:
    """min/max on raw doubles (exact, no accumulation) + int sum + count.
    All four aggregates are mergeable, so each block pre-combines to <=
    n_distinct_types partial rows (pyarrow group_by) and the exchange only
    merges partials (count->sum, min->min, max->max, sum->sum)."""

    def partial(t: pa.Table) -> pa.Table:
        rows = pa.Table.from_arrays(
            [t["p_type"], t["p_retailprice"], pc.cast(t["p_size"], pa.int64())],
            names=["p_type", "p_retailprice", "p_size64"],
        )
        g = rows.group_by("p_type").aggregate(
            [([], "count_all"), ("p_retailprice", "min"),
             ("p_retailprice", "max"), ("p_size64", "sum")]
        )
        return pa.Table.from_arrays(
            [g["p_type"], pc.cast(g["count_all"], pa.int64()),
             g["p_retailprice_min"], g["p_retailprice_max"], g["p_size64_sum"]],
            names=["p_type", "n_parts", "min_price", "max_price", "sum_size"],
        )

    return (
        _read(sf_dir, "part", ["p_type", "p_retailprice", "p_size"])
        .map_batches(partial, batch_format="pyarrow")
        .repartition(8)
        .groupby("p_type")
        .aggregate(
            Sum("n_parts", alias_name="n_parts"),
            Min("min_price", alias_name="min_price"),
            Max("max_price", alias_name="max_price"),
            Sum("sum_size", alias_name="sum_size"),
        )
    )


SQL_PART_TYPE_STATS = """
SELECT p_type, count(*) AS n_parts,
       min(p_retailprice) AS min_price,
       max(p_retailprice) AS max_price,
       CAST(sum(CAST(p_size AS BIGINT)) AS BIGINT) AS sum_size
FROM part GROUP BY p_type
"""


# ---------------------------------------------------------------------------
# Distinct counting (two-level groupby: no giant per-group state)
# ---------------------------------------------------------------------------


def q_distinct_parts_per_flag(sf_dir: str) -> rd.Dataset:
    """count(distinct l_partkey) per returnflag: per-block local dedup
    (vectorized, no shuffle) shrinks the stream, ONE hash_exchange on the
    (flag, partkey) pair co-locates surviving duplicates for the exact
    dedup + per-flag partial counts, then a tiny final groupby sums ≤
    num_shards rows per flag. Replaces the composite-string-key
    ``groupby((flag, partkey))`` sort — the int64 shard sort measured ~5x
    cheaper on identical rows — and never builds a per-group set on one
    worker."""
    pair_schema = pa.schema(
        [pa.field("l_returnflag", pa.string()), pa.field("l_partkey", pa.int64())]
    )
    partial_schema = pa.schema(
        [pa.field("l_returnflag", pa.string()), pa.field("_n", pa.int64())]
    )

    def local_distinct(t: pa.Table) -> pa.Table:
        g = t.group_by(["l_returnflag", "l_partkey"]).aggregate([([], "count_all")])
        return pa.Table.from_arrays(
            [g["l_returnflag"], pc.cast(g["l_partkey"], pa.int64())],
            schema=pair_schema,
        )

    def shard_count(t: pa.Table) -> pa.Table:
        dedup = t.group_by(["l_returnflag", "l_partkey"]).aggregate([([], "count_all")])
        g = dedup.group_by("l_returnflag").aggregate([([], "count_all")])
        return pa.Table.from_arrays(
            [g["l_returnflag"], pc.cast(g["count_all"], pa.int64())],
            schema=partial_schema,
        )

    partials = hash_exchange(
        _read(sf_dir, "lineitem", ["l_returnflag", "l_partkey"]).map_batches(
            local_distinct, batch_format="pyarrow"
        ),
        ["l_returnflag", "l_partkey"],
        shard_count,
        partial_schema,
    )
    return (
        partials.repartition(8)
        .groupby("l_returnflag")
        .aggregate(Sum("_n", alias_name="n_distinct_parts"))
    )


SQL_DISTINCT_PARTS_PER_FLAG = """
SELECT l_returnflag, count(DISTINCT l_partkey) AS n_distinct_parts
FROM lineitem GROUP BY l_returnflag
"""


# ---------------------------------------------------------------------------
# Quantiles and sketches (the approximate-aggregate family the reference
# lacks entirely — SURVEY.md §2.5 "no sketches")
# ---------------------------------------------------------------------------

QUANTILES = (0.5, 0.9, 0.99)


def q_order_price_quantiles(sf_dir: str) -> rd.Dataset:
    """Exact per-priority price quantiles (p50/p90/p99) with DuckDB's
    quantile_disc convention: element ``ceil(q*n)-1`` of the sorted group
    (empirically pinned against DuckDB).

    Shape: one groupby co-partitions each priority's prices; the group fn
    sorts once and indexes. Exact per-group sort holds while one group's
    values fit a task (~10^7 doubles = 80 MB); beyond that the scale path
    is mergeable t-digest/histogram partials per batch reduced in a tree —
    same topology as q_distinct_users_hll below.
    """
    import math

    def quants(g: pd.DataFrame) -> pd.DataFrame:
        v = g["o_totalprice"].sort_values().to_numpy()
        n = len(v)
        row = {"o_orderpriority": g["o_orderpriority"].iloc[0], "n_orders": n}
        for q in QUANTILES:
            row[f"p{int(q * 100)}"] = float(v[max(0, math.ceil(q * n) - 1)])
        return pd.DataFrame([row])

    return (
        _read(sf_dir, "orders", ["o_orderpriority", "o_totalprice"])
        .groupby("o_orderpriority")
        .map_groups(quants, batch_format="pandas")
    )


SQL_ORDER_PRICE_QUANTILES = """
SELECT o_orderpriority,
       count(*) AS n_orders,
       quantile_disc(o_totalprice, 0.5) AS p50,
       quantile_disc(o_totalprice, 0.9) AS p90,
       quantile_disc(o_totalprice, 0.99) AS p99
FROM orders GROUP BY o_orderpriority
"""


HLL_P = 12  # 2^12 registers -> ~1.6% standard error


def _hll_registers(values) -> "np.ndarray":
    """HyperLogLog registers (Flajolet et al. 2007) from an iterable of
    values, deterministic via md5."""
    import hashlib as _hl

    import numpy as np

    m = 1 << HLL_P
    reg = np.zeros(m, dtype=np.uint8)
    for v in values:
        h = int.from_bytes(_hl.md5(str(v).encode("utf-8")).digest()[:8], "little")
        idx = h & (m - 1)
        w = h >> HLL_P
        # rank = position of leftmost 1-bit in the remaining 52 bits
        rank = (52 - w.bit_length()) + 1
        if rank > reg[idx]:
            reg[idx] = rank
    return reg


def _hll_estimate(reg) -> int:
    import math

    import numpy as np

    m = len(reg)
    # Exact-integer harmonic numerator: sum(2^-r) == N / 2^53 with
    # N = sum(2^(53-r)) — a plain integer, so the accumulation is
    # order-free, partials merge exactly, and the SQL oracle can reproduce
    # the estimate bit-for-bit (the float ops below are then a fixed,
    # deterministic sequence on exact integer inputs). Registers hold
    # ranks <= 53 (h >> 12 has 52 bits; bit_length 0 -> rank 53).
    n_int = int(sum(1 << (53 - int(r)) for r in reg))
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m * float(1 << 53) / float(n_int)
    zeros = int(np.sum(reg == 0))
    if est <= 2.5 * m and zeros:  # small-range linear counting correction
        est = m * math.log(m / zeros)
    return int(round(est))


def q_distinct_users_hll(sf_dir: str) -> pd.DataFrame:
    """Approximate count-distinct of event users via HyperLogLog: per-batch
    register partials (one 4 KiB array per block), element-wise-max merged
    on the driver — the canonical mergeable-sketch reduction. At 10^12 rows
    the merge is a tree of tiny arrays instead of the exact two-level
    distinct's full shuffle. EXACT SQL oracle (round 2): the registers are
    a deterministic md5 function of the values and the estimate's harmonic
    sum is exact-integer (see _hll_estimate), so DuckDB reproduces the
    estimate bit-for-bit. Accuracy (<4% at known cardinalities; 2^12
    registers give ~1.6% standard error) is additionally pytest-verified."""
    import numpy as np

    def partial(batch: pa.Table) -> pa.Table:
        reg = _hll_registers(batch["user_id"].to_pylist())
        return pa.table({"registers": pa.array([reg.tolist()], pa.list_(pa.uint8()))})

    partials = (
        _read(sf_dir, "events", ["user_id"])
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()["registers"]
    )
    merged = np.zeros(1 << HLL_P, dtype=np.uint8)
    for r in partials:
        np.maximum(merged, np.asarray(r, dtype=np.uint8), out=merged)
    return pd.DataFrame(
        {"n_distinct_users_est": pd.Series([_hll_estimate(merged)], dtype="int64")}
    )


def _sql_distinct_users_hll() -> str:
    """Exact oracle for the HLL estimate: md5-derived registers (idx = low
    12 bits, rank = 53 - bit_length(high 52 bits) via a generated CASE
    chain), exact-integer harmonic numerator in HUGEINT, then the same
    fixed float sequence (alpha, linear-counting branch, round_even)."""
    m = 1 << HLL_P

    def hexbyte(col: str, idx: int) -> str:
        c1 = f"substr({col}, {2 * idx + 1}, 1)"
        c2 = f"substr({col}, {2 * idx + 2}, 1)"
        return (
            f"((instr('0123456789abcdef', {c1}) - 1) * 16"
            f" + instr('0123456789abcdef', {c2}) - 1)"
        )

    u64 = " + ".join(
        f"CAST({hexbyte('md5(CAST(user_id AS VARCHAR))', j)} AS UBIGINT) * {256 ** j}"
        for j in range(8)
    )
    # rank = 53 - bit_length(w), w = h >> 12 (52 significant bits)
    rank_case = (
        "CASE "
        + " ".join(f"WHEN w >= {1 << (52 - r)} THEN {r}" for r in range(1, 53))
        + " ELSE 53 END"
    )
    est = f"(0.7213 / (1 + 1.079 / {m})) * {m} * {m} * {float(1 << 53)!r} / CAST(n_int AS DOUBLE)"
    return f"""
WITH h AS (
  SELECT ({u64}) AS hv FROM events
),
w AS (SELECT hv % {m} AS idx, hv >> {HLL_P} AS w FROM h),
regs AS (SELECT idx, max({rank_case}) AS rank FROM w GROUP BY idx),
agg AS (
  SELECT count(*) AS n_present,
         SUM(CAST(CASE rank
           {" ".join(f"WHEN {r} THEN {1 << (53 - r)}" for r in range(1, 54))}
         END AS HUGEINT)) AS present_sum
  FROM regs
),
folded AS (
  SELECT ({m} - n_present) AS zeros,
         present_sum + CAST(({m} - n_present) AS HUGEINT) * {1 << 53} AS n_int
  FROM agg
)
SELECT CAST(round_even(CASE
    WHEN {est} <= 2.5 * {m} AND zeros > 0
    THEN {m} * ln({m} / CAST(zeros AS DOUBLE))
    ELSE {est}
  END, 0) AS BIGINT) AS n_distinct_users_est
FROM folded
"""


SQL_DISTINCT_USERS_HLL = _sql_distinct_users_hll()


TDIGEST_DELTA = 200  # compression: <= ~2*delta centroids per digest


def _tdigest_compress(means: "np.ndarray", weights: "np.ndarray", delta: int):
    """One merging-t-digest compression pass (Dunning & Ertl, 'Computing
    extremely accurate quantiles using t-digests', arXiv:1902.04023): inputs
    sorted by mean; adjacent clusters merge while the merged weight stays
    under the k1 scale-function bound 4*N*q*(1-q)/delta, which keeps tail
    clusters tiny (accurate extreme quantiles) and mid clusters coarse."""
    total = float(weights.sum())
    out_m, out_w = [], []
    cur_m, cur_w = float(means[0]), float(weights[0])
    cum = 0.0  # weight fully to the left of the current cluster
    for m, w in zip(means[1:], weights[1:]):
        q = (cum + (cur_w + float(w)) / 2.0) / total
        if cur_w + w <= max(1.0, 4.0 * total * q * (1.0 - q) / delta):
            cur_m += (float(m) - cur_m) * (float(w) / (cur_w + float(w)))
            cur_w += float(w)
        else:
            out_m.append(cur_m)
            out_w.append(cur_w)
            cum += cur_w
            cur_m, cur_w = float(m), float(w)
    out_m.append(cur_m)
    out_w.append(cur_w)
    return np.asarray(out_m), np.asarray(out_w)


def _tdigest_quantile(means: "np.ndarray", weights: "np.ndarray", q: float) -> float:
    """Quantile estimate by linear interpolation between centroid midpoints."""
    total = float(weights.sum())
    target = q * total
    cum = np.cumsum(weights) - weights / 2.0  # centroid midpoints
    if target <= cum[0]:
        return float(means[0])
    if target >= cum[-1]:
        return float(means[-1])
    i = int(np.searchsorted(cum, target) - 1)
    frac = (target - cum[i]) / (cum[i + 1] - cum[i])
    return float(means[i] + frac * (means[i + 1] - means[i]))


def q_order_price_tdigest(sf_dir: str) -> rd.Dataset:
    """APPROXIMATE per-priority price quantiles via mergeable t-digest
    partials — the coded scale path the exact q_order_price_quantiles
    docstring promises (round-2 VERDICT #8).

    Shape: each block compresses its prices into <= ~2*delta (mean, weight)
    centroids inside map_batches; ONLY the centroids ride the groupby
    shuffle (a few KB per block instead of the group's raw values), and the
    per-priority group fn merges sorted partials with one more compression
    pass, then interpolates p50/p90/p99. n_orders is the exact integer
    weight sum. At 10^12 rows the per-group sort of q_order_price_quantiles
    stops fitting a task; this digest's memory is O(delta) regardless of
    group size. Estimates depend (within the documented rank-error bound
    ~1/delta at the median, tighter at the tails) on how rows batch into
    blocks, so the driver check is rows-only; the error bound vs the exact
    quantiles is pytest-asserted.
    """

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for prio, g in df.groupby("o_orderpriority", sort=False):
            v = np.sort(g["o_totalprice"].to_numpy(dtype=np.float64))
            m, w = _tdigest_compress(v, np.ones(len(v)), TDIGEST_DELTA)
            rows.append({"o_orderpriority": prio,
                         "means": m.tolist(), "weights": w.tolist()})
        return pd.DataFrame(rows)

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        means = np.concatenate([np.asarray(x) for x in g["means"]])
        weights = np.concatenate([np.asarray(x) for x in g["weights"]])
        order = np.argsort(means, kind="stable")
        m, w = _tdigest_compress(means[order], weights[order], TDIGEST_DELTA)
        row = {"o_orderpriority": g["o_orderpriority"].iloc[0],
               "n_orders": int(round(w.sum()))}
        for q in QUANTILES:
            row[f"p{int(q * 100)}_est"] = _tdigest_quantile(m, w, q)
        return pd.DataFrame([row])

    return (
        _read(sf_dir, "orders", ["o_orderpriority", "o_totalprice"])
        .map_batches(partial, batch_format="pandas")
        .groupby("o_orderpriority")
        .map_groups(merge, batch_format="pandas")
    )


BLOOM_BITS = 1 << 17  # 16 KiB bitmap; ~131k bits for ~3k probe ids -> fp ~1e-5
BLOOM_HASHES = 4


def _bloom_positions(ids: "np.ndarray") -> "np.ndarray":
    """(n, BLOOM_HASHES) bit positions via splitmix64-style mixing —
    deterministic, vectorized."""
    x = ids.astype(np.uint64)[:, None] + (
        np.arange(1, BLOOM_HASHES + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    )[None, :]
    with np.errstate(over="ignore"):
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    return (x % np.uint64(BLOOM_BITS)).astype(np.int64)


def q_customers_without_big_orders_bloom(sf_dir: str) -> rd.Dataset:
    """EXACT anti-join via bloom filter + exact recheck of the (rare) bloom
    positives — the coded scale path the q_customers_without_big_orders
    docstring promises (round-2 VERDICT #8).

    Shape: per-block probe-side bitmaps OR-merged on the driver (one 16 KiB
    array per block — at 10^12 rows a tree reduce of tiny arrays, never the
    id set itself); the broadcast bitmap filters the big side per batch.
    Bloom NEGATIVES are definitively clean and stream straight through;
    bloom POSITIVES (true matches + ~1e-5 false positives) go through the
    co-partitioned tag+union anti-join against the exact probe ids, which
    returns the false positives to the result. Output is therefore EXACT —
    same DuckDB oracle as the exact anti-join.
    """
    import pyarrow.dataset as pds

    probe = rd.read_parquet(
        _pq(sf_dir, "orders"),
        columns=["o_custkey", "o_totalprice"],
        filter=pds.field("o_totalprice") > HIGH_VALUE_CUT,  # read-side prune
    )

    def probe_bitmap(t: pa.Table) -> pa.Table:
        bits = np.zeros(BLOOM_BITS, dtype=bool)
        ids = t["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(ids):
            bits[_bloom_positions(ids).ravel()] = True
        return pa.table({"bits": pa.array([np.packbits(bits).tobytes()], pa.binary())})

    partials = probe.map_batches(probe_bitmap, batch_format="pyarrow").to_pandas()
    merged = np.zeros(BLOOM_BITS // 8, dtype=np.uint8)
    for b in partials["bits"]:
        np.bitwise_or(merged, np.frombuffer(b, dtype=np.uint8), out=merged)
    bitmap_ref = ray.put(np.unpackbits(merged).astype(bool))

    _OUT = pa.schema([("c_custkey", pa.int64()), ("c_mktsegment", pa.string())])

    def split(t: pa.Table):
        bits = ray.get(bitmap_ref)
        ids = pc.cast(t["c_custkey"], pa.int64()).to_numpy(zero_copy_only=False)
        if len(ids) == 0:
            return np.zeros(0, dtype=bool)
        return bits[_bloom_positions(ids)].all(axis=1)  # True = bloom positive

    def negatives(t: pa.Table) -> pa.Table:
        pos = split(t)
        sub = t.filter(pa.array(~pos))
        return pa.Table.from_arrays(
            [pc.cast(sub["c_custkey"], pa.int64()), sub["c_mktsegment"]],
            schema=_OUT,
        )

    def positives(t: pa.Table) -> pa.Table:
        pos = split(t)
        sub = t.filter(pa.array(pos))
        return pa.Table.from_arrays(
            [pc.cast(sub["c_custkey"], pa.int64()), sub["c_mktsegment"]],
            schema=_OUT,
        )

    customers = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    clean = customers.map_batches(negatives, batch_format="pyarrow")

    # Exact recheck of bloom positives: tag+union anti-join against the
    # distinct probe ids (candidate-grain shuffle; the q_events_asof_orders
    # co-partition topology with anti semantics).
    _UNION = pa.schema([
        ("key", pa.int64()), ("c_mktsegment", pa.string()), ("side", pa.int8()),
    ])

    def tag_candidates(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [t["c_custkey"], t["c_mktsegment"],
             pa.array(np.zeros(t.num_rows, dtype=np.int8))],
            schema=_UNION,
        )

    def tag_probe(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [pc.cast(t["o_custkey"], pa.int64()),
             pa.nulls(t.num_rows, pa.string()),
             pa.array(np.ones(t.num_rows, dtype=np.int8))],
            schema=_UNION,
        )

    def anti(t: pa.Table) -> pa.Table:
        has_probe = pc.any(pc.equal(t["side"], pa.scalar(1, pa.int8()))).as_py()
        if has_probe:
            return _OUT.empty_table()
        sub = t.filter(pc.equal(t["side"], pa.scalar(0, pa.int8())))
        return pa.Table.from_arrays([sub["key"], sub["c_mktsegment"]], schema=_OUT)

    candidates = (
        customers.map_batches(positives, batch_format="pyarrow")
        .map_batches(tag_candidates, batch_format="pyarrow")
    )
    probe_tagged = probe.map_batches(tag_probe, batch_format="pyarrow")
    false_pos = (
        candidates.union(probe_tagged)
        .groupby("key")
        .map_groups(anti, batch_format="pyarrow")
    )
    return clean.union(false_pos)


# ---------------------------------------------------------------------------
# Event-log windows (streaming-shaped: partition by key, order by ts)
# ---------------------------------------------------------------------------


def q_supplier_nation_balance(sf_dir: str) -> rd.Dataset:
    """supplier ⋈ nation grouped balance stats (broadcast dim join; the
    acctbal sum in exact integer cents)."""
    nation = (
        _read(sf_dir, "nation", ["n_nationkey", "n_name"])
        .to_pandas()
        .set_index("n_nationkey")["n_name"]
    )
    ref = ray.put(nation)

    def join(df: pd.DataFrame) -> pd.DataFrame:
        lookup = ray.get(ref)
        out = pd.DataFrame()
        out["n_name"] = df["s_nationkey"].map(lookup)
        out["acctbal_cents"] = _cents_pd(df["s_acctbal"])
        return out

    return (
        _read(sf_dir, "supplier", ["s_nationkey", "s_acctbal"])
        .map_batches(join, batch_format="pandas")
        .groupby("n_name")
        .aggregate(
            Count(alias_name="n_suppliers"),
            Sum("acctbal_cents", alias_name="sum_acctbal_cents"),
        )
    )


SQL_SUPPLIER_NATION_BALANCE = """
SELECT n.n_name,
       count(*) AS n_suppliers,
       CAST(sum(CAST(round(s.s_acctbal * 100) AS BIGINT)) AS BIGINT) AS sum_acctbal_cents
FROM supplier s JOIN nation n ON s.s_nationkey = n.n_nationkey
GROUP BY n.n_name
"""


def q_events_hourly(sf_dir: str) -> rd.Dataset:
    """Tumbling 1-hour window counts/sums per event type (vectorized floor).
    Per-block partial combine (pyarrow group_by — one row per hour×type per
    block) before the exchange; the final groupby sums partials over
    coalesced blocks."""

    def f(batch: pa.Table) -> pa.Table:
        hour = pc.floor_temporal(batch["ts"], unit="hour")
        rows = pa.Table.from_arrays(
            [hour, batch["event_type"], _cents(batch["value"])],
            names=["hour", "event_type", "value_cents"],
        )
        g = rows.group_by(["hour", "event_type"]).aggregate(
            [([], "count_all"), ("value_cents", "sum")]
        )
        return pa.Table.from_arrays(
            [g["hour"], g["event_type"], pc.cast(g["count_all"], pa.int64()),
             g["value_cents_sum"]],
            names=["hour", "event_type", "n_events", "sum_value_cents"],
        )

    return (
        _read(sf_dir, "events", ["ts", "event_type", "value"])
        .map_batches(f, batch_format="pyarrow")
        .repartition(8)
        .groupby(["hour", "event_type"])
        .aggregate(
            Sum("n_events", alias_name="n_events"),
            Sum("sum_value_cents", alias_name="sum_value_cents"),
        )
    )


SQL_EVENTS_HOURLY = """
SELECT date_trunc('hour', ts) AS hour, event_type,
       count(*) AS n_events,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS sum_value_cents
FROM events GROUP BY date_trunc('hour', ts), event_type
"""


SESSION_GAP_S = 1800


def q_events_sessionize(sf_dir: str) -> rd.Dataset:
    """Session windows per user (gap > 30 min starts a new session) —
    the keyed-window pattern for streaming-shaped workloads (no watermarks
    needed for batch logs). ONE hash_exchange co-locates each user's
    events; inside a shard the sessionization is fully vectorized over ALL
    the shard's users at once (sort by (user, ts), gap diff, boundary mask,
    one C-level pandas groupby) — no per-user Python dispatch (the previous
    per-key ``map_groups`` paid one pandas call per user)."""
    sess_schema = pa.schema(
        [pa.field("user_id", pa.int64()), pa.field("n_sessions", pa.int64()),
         pa.field("n_events", pa.int64())]
    )

    def shard_sessions(t: pa.Table) -> pa.Table:
        df = t.to_pandas().sort_values(["user_id", "ts"], kind="mergesort")
        same_user = df["user_id"].eq(df["user_id"].shift())
        gaps = df["ts"].diff().dt.total_seconds()
        new_session = ~same_user | (gaps > SESSION_GAP_S)
        agg = (
            pd.DataFrame(
                {"user_id": df["user_id"].to_numpy(), "s": new_session.to_numpy()}
            )
            .groupby("user_id", sort=False)["s"]
            .agg(["sum", "size"])
            .reset_index()
        )
        return pa.Table.from_arrays(
            [
                pa.array(agg["user_id"].to_numpy(dtype="int64")),
                pa.array(agg["sum"].to_numpy(dtype="int64")),
                pa.array(agg["size"].to_numpy(dtype="int64")),
            ],
            schema=sess_schema,
        )

    return hash_exchange(
        _read(sf_dir, "events", ["user_id", "ts"]),
        ["user_id"],
        shard_sessions,
        sess_schema,
    )


SQL_EVENTS_SESSIONIZE = f"""
SELECT user_id,
       CAST(1 + sum(CASE WHEN gap_s > {SESSION_GAP_S} THEN 1 ELSE 0 END) AS BIGINT) AS n_sessions,
       count(*) AS n_events
FROM (
  SELECT user_id, ts,
         epoch(ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts)) AS gap_s
  FROM events
)
GROUP BY user_id
"""


# Token-bucket rate limiter replay: capacity RL_CAP, one token per full
# RL_REFILL_S seconds SINCE THE PREVIOUS EVENT (memoryless remainder — the
# floor loses sub-minute carryover by definition, keeping every quantity
# integer). Bucket starts full.
RL_CAP = 3
RL_REFILL_S = 60


def q_events_rate_limit(sf_dir: str) -> rd.Dataset:
    """Per-user token-bucket rate-limiter REPLAY over the event log — the
    throttling audit a serving/ingest pipeline runs offline ("which of
    these requests would the limiter have rejected?"). For each user's
    events in (ts, event_id) order: tokens = min(CAP, prev_tokens +
    elapsed // REFILL_S); allowed iff tokens >= 1; allowed events spend
    one token. All integer (epoch-second diffs), so the replay is exact
    and the oracle unrolls it as a recursive CTE stepping rank n -> n+1
    for every user in parallel.

    Shape: ONE hash_exchange on user_id; inside a shard one numpy pass
    over the sorted rows carries the bucket state, resetting at user
    boundaries — sequential per user by nature (the min() clamp kills
    prefix-scan tricks), O(rows) per shard, state is two registers. This
    is the micro-batch-carried-state family (events_sessionize_incremental)
    run at event grain."""
    out_schema = pa.schema([
        ("event_id", pa.int64()), ("user_id", pa.int64()),
        ("allowed", pa.int64()), ("tokens_after", pa.int64()),
    ])

    def shard_replay(t: pa.Table) -> pa.Table:
        df = t.to_pandas().sort_values(
            ["user_id", "ts", "event_id"], kind="mergesort"
        )
        users = df["user_id"].to_numpy(dtype=np.int64)
        # Explicit unit: datetime64[s] is resolution-proof (astype("int64")
        # would silently yield ms/ns if a pandas/pyarrow version changed the
        # timestamp resolution, corrupting the refill arithmetic).
        secs = df["ts"].to_numpy().astype("datetime64[s]").astype(np.int64)
        eids = df["event_id"].to_numpy(dtype=np.int64)
        n = len(df)
        allowed = np.zeros(n, dtype=np.int64)
        tokens_after = np.zeros(n, dtype=np.int64)
        tok = 0
        for i in range(n):
            if i == 0 or users[i] != users[i - 1]:
                tok = RL_CAP
            else:
                tok = min(RL_CAP, tok + (secs[i] - secs[i - 1]) // RL_REFILL_S)
            if tok >= 1:
                allowed[i] = 1
                tok -= 1
            tokens_after[i] = tok
        return pa.Table.from_arrays(
            [pa.array(eids), pa.array(users), pa.array(allowed),
             pa.array(tokens_after)],
            schema=out_schema,
        )

    return hash_exchange(
        _read(sf_dir, "events", ["event_id", "ts", "user_id"]),
        ["user_id"], shard_replay, out_schema,
    )


SQL_EVENTS_RATE_LIMIT = f"""
WITH RECURSIVE r AS (
  SELECT event_id, user_id,
         date_diff('second', TIMESTAMP '1970-01-01', ts) AS sec,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY ts, event_id) AS rn
  FROM events
),
e AS (
  SELECT event_id, user_id, sec, rn,
         CAST(1 AS BIGINT) AS allowed,
         CAST({RL_CAP} - 1 AS BIGINT) AS tokens_after
  FROM r WHERE rn = 1
  UNION ALL
  SELECT r.event_id, r.user_id, r.sec, r.rn,
         CAST(CASE WHEN least({RL_CAP}, e.tokens_after
                        + (r.sec - e.sec) // {RL_REFILL_S}) >= 1
                   THEN 1 ELSE 0 END AS BIGINT),
         CAST(least({RL_CAP}, e.tokens_after
                    + (r.sec - e.sec) // {RL_REFILL_S})
              - CASE WHEN least({RL_CAP}, e.tokens_after
                              + (r.sec - e.sec) // {RL_REFILL_S}) >= 1
                     THEN 1 ELSE 0 END AS BIGINT)
  FROM e JOIN r ON r.user_id = e.user_id AND r.rn = e.rn + 1
)
SELECT event_id, user_id, allowed, tokens_after FROM e
"""


def q_events_asof_orders(sf_dir: str) -> rd.Dataset:
    """As-of join: each event matched to the user's most recent order at or
    before the event time (a custom wide operator Ray Data lacks — SURVEY.md
    §2.9 / the engine's windowed-operator family).

    Distributed shape: tag + union both sides into one (key, t, side) stream,
    co-partition with ONE ``hash_exchange`` on the key, then inside each
    shard run a single vectorized ``pd.merge_asof(by=key)`` over ALL the
    shard's keys at once — C-level backward as-of, no per-key Python
    dispatch (the previous per-key ``map_groups`` paid one pandas call per
    user). Partitioning assumption (documented per the custom-operator
    contract): all rows of one key fit one shard task — at 10^12 events a
    hot key needs time-range sub-splitting (salt by coarse time bucket,
    carry the last order of the previous bucket forward).

    Emits the matched *date*, not an order id: among equal dates the SQL
    ASOF pick is unspecified, so ids would be nondeterministic; dates make
    the result exact under the driver's value hash. Inner semantics (events
    with no prior order are dropped).
    """

    def tag_events(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [pc.cast(t["user_id"], pa.int64()), t["ts"],
             pa.nulls(t.num_rows, pa.timestamp("us"))],
            names=["key", "ts", "order_date"],
        )

    def tag_orders(t: pa.Table) -> pa.Table:
        od = pc.cast(t["o_orderdate"], pa.timestamp("us"))
        return pa.Table.from_arrays(
            [pc.cast(t["o_custkey"], pa.int64()),
             pa.nulls(t.num_rows, pa.timestamp("us")), od],
            names=["key", "ts", "order_date"],
        )

    asof_schema = pa.schema(
        [
            pa.field("user_id", pa.int64()),
            pa.field("ts", pa.timestamp("us")),
            pa.field("last_order_date", pa.timestamp("us")),
        ]
    )

    def shard_asof(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        ev = df.loc[df["ts"].notna(), ["key", "ts"]].sort_values(
            "ts", kind="mergesort"
        )
        od = df.loc[df["order_date"].notna(), ["key", "order_date"]].sort_values(
            "order_date", kind="mergesort"
        )
        if ev.empty or od.empty:
            return asof_schema.empty_table()
        m = pd.merge_asof(
            ev, od, left_on="ts", right_on="order_date", by="key",
            direction="backward", allow_exact_matches=True,
        )
        m = m[m["order_date"].notna()]
        return pa.Table.from_arrays(
            [
                pa.array(m["key"].to_numpy(dtype="int64"), pa.int64()),
                pa.Array.from_pandas(m["ts"]).cast(pa.timestamp("us")),
                pa.Array.from_pandas(m["order_date"]).cast(pa.timestamp("us")),
            ],
            schema=asof_schema,
        )

    events = _read(sf_dir, "events", ["user_id", "ts"]).map_batches(
        tag_events, batch_format="pyarrow"
    )
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderdate"]).map_batches(
        tag_orders, batch_format="pyarrow"
    )
    return hash_exchange(
        events.union(orders), ["key"], shard_asof, asof_schema
    )


SQL_EVENTS_ASOF_ORDERS = """
SELECT e.user_id, e.ts, o.o_orderdate AS last_order_date
FROM events e ASOF JOIN orders o
  ON e.user_id = o.o_custkey AND e.ts >= o.o_orderdate
"""


TOPK_USERS_PER_HOUR = 3


def q_events_topk_users_hourly(sf_dir: str) -> rd.Dataset:
    """Windowed rank over time buckets: the 3 most active users per hour
    (count desc, user_id asc tiebreak). Shape: per-BLOCK (hour, user)
    partial counts (pyarrow group_by — the raw stream never crosses the
    wire), ONE hash_exchange on the hour whose shard fn finishes the counts
    and ranks ALL its hours vectorized (one pandas sort + groupby head per
    shard, no per-hour Python dispatch)."""
    rank_schema = pa.schema(
        [pa.field("hour", pa.timestamp("us")), pa.field("rank", pa.int64()),
         pa.field("user_id", pa.int64()), pa.field("n", pa.int64())]
    )

    def bucket(batch: pa.Table) -> pa.Table:
        rows = pa.Table.from_arrays(
            [pc.floor_temporal(batch["ts"], unit="hour"),
             pc.cast(batch["user_id"], pa.int64())],
            names=["hour", "user_id"],
        )
        g = rows.group_by(["hour", "user_id"]).aggregate([([], "count_all")])
        return pa.Table.from_arrays(
            [g["hour"], g["user_id"], pc.cast(g["count_all"], pa.int64())],
            names=["hour", "user_id", "n"],
        )

    def shard_topk(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return rank_schema.empty_table()
        df = (
            t.to_pandas()
            .groupby(["hour", "user_id"], sort=False, as_index=False)["n"].sum()
            .sort_values(["hour", "n", "user_id"],
                         ascending=[True, False, True], kind="mergesort")
        )
        top = df.groupby("hour", sort=False).head(TOPK_USERS_PER_HOUR)
        rank = top.groupby("hour", sort=False).cumcount() + 1
        return pa.Table.from_arrays(
            [
                pa.Array.from_pandas(top["hour"]).cast(pa.timestamp("us")),
                pa.array(rank.to_numpy(dtype="int64")),
                pa.array(top["user_id"].to_numpy(dtype="int64")),
                pa.array(top["n"].to_numpy(dtype="int64")),
            ],
            schema=rank_schema,
        )

    return hash_exchange(
        _read(sf_dir, "events", ["ts", "user_id"]).map_batches(
            bucket, batch_format="pyarrow"
        ),
        ["hour"],
        shard_topk,
        rank_schema,
    )


SQL_EVENTS_TOPK_USERS_HOURLY = f"""
SELECT hour, CAST(rank AS BIGINT) AS rank, user_id, n FROM (
  SELECT date_trunc('hour', ts) AS hour, user_id, count(*) AS n,
         row_number() OVER (
           PARTITION BY date_trunc('hour', ts)
           ORDER BY count(*) DESC, user_id ASC
         ) AS rank
  FROM events GROUP BY date_trunc('hour', ts), user_id
)
WHERE rank <= {TOPK_USERS_PER_HOUR}
"""


def q_user_event_type_matrix(sf_dir: str) -> rd.Dataset:
    """Per (user, event_type) counts — the reference's value_counts analogue
    (G4) at event grain. Per-block pyarrow partial counts first (one row per
    (user, type) per block crosses the wire), then a hash_exchange on
    user_id finishes the sum per shard — no sort-aggregate keyed on the full
    (user x type) composite."""
    matrix_schema = pa.schema(
        [pa.field("user_id", pa.int64()), pa.field("event_type", pa.string()),
         pa.field("n", pa.int64())]
    )

    def partial_counts(t: pa.Table) -> pa.Table:
        g = t.group_by(["user_id", "event_type"]).aggregate([([], "count_all")])
        return pa.Table.from_arrays(
            [pc.cast(g["user_id"], pa.int64()), g["event_type"],
             pc.cast(g["count_all"], pa.int64())],
            schema=matrix_schema,
        )

    def shard_counts(t: pa.Table) -> pa.Table:
        g = t.group_by(["user_id", "event_type"]).aggregate([("n", "sum")])
        return pa.Table.from_arrays(
            [g["user_id"], g["event_type"], g["n_sum"]], schema=matrix_schema
        )

    return hash_exchange(
        _read(sf_dir, "events", ["user_id", "event_type"]).map_batches(
            partial_counts, batch_format="pyarrow"
        ),
        ["user_id"],
        shard_counts,
        matrix_schema,
    )


def q_events_sliding_window(sf_dir: str) -> rd.Dataset:
    """Sliding-window aggregate: per event_type, a 3-hour rolling event count
    anchored at each hour (current + 2 preceding hours).

    Shape: tumbling pre-aggregate (hour buckets — the heavy reduction) ->
    tiny per-key ordered rolling pass in ``groupby(key).map_groups``. At
    10^12 events only the hour×type partials (thousands of rows) reach the
    window pass; the raw stream is reduced inside map_batches + one groupby.
    Rolling frames are over *bucket positions present in the data* is wrong —
    gaps count as zero, so the group fn reindexes over the full hour range.
    """

    def bucket(batch: pa.Table) -> pa.Table:
        rows = pa.Table.from_arrays(
            [pc.floor_temporal(batch["ts"], unit="hour"), batch["event_type"]],
            names=["hour", "event_type"],
        )
        g = rows.group_by(["hour", "event_type"]).aggregate([([], "count_all")])
        return pa.Table.from_arrays(
            [g["hour"], g["event_type"], pc.cast(g["count_all"], pa.int64())],
            names=["hour", "event_type", "n"],
        )

    hourly = (
        _read(sf_dir, "events", ["ts", "event_type"])
        .map_batches(bucket, batch_format="pyarrow")
        .repartition(8)
        .groupby(["hour", "event_type"])
        .aggregate(Sum("n", alias_name="n"))
    )

    def rolling(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("hour")
        full = pd.date_range(g["hour"].min(), g["hour"].max(), freq="h")
        s = g.set_index("hour")["n"].reindex(full, fill_value=0)
        roll = s.rolling(3, min_periods=1).sum().astype("int64")
        out = pd.DataFrame({
            "event_type": g["event_type"].iloc[0],
            "hour": full,
            "n_3h": roll.to_numpy(),
        })
        # emit only hours that actually had events (match the SQL's grain)
        return out[out["hour"].isin(g["hour"])]

    return hourly.groupby("event_type").map_groups(rolling, batch_format="pandas")


SQL_EVENTS_SLIDING_WINDOW = """
WITH hourly AS (
  SELECT event_type, date_trunc('hour', ts) AS hour, count(*) AS n
  FROM events GROUP BY event_type, date_trunc('hour', ts)
)
SELECT event_type, hour,
       CAST(sum(n) OVER (
         PARTITION BY event_type ORDER BY hour
         RANGE BETWEEN INTERVAL 2 HOUR PRECEDING AND CURRENT ROW
       ) AS BIGINT) AS n_3h
FROM hourly
"""


TOPN_PER_SEGMENT = 3


def q_top_orders_per_segment(sf_dir: str) -> rd.Dataset:
    """Top-N per group (windowed rank): the 3 highest-value orders per market
    segment, ties broken by orderkey (deterministic rank) — via the
    co-partitioned shuffle hash join (round-2 VERDICT #1: no driver-collected
    customer broadcast).

    Shape: per-BLOCK top-N-per-custkey prune on the orders side (all of one
    customer's orders share a segment, so only its top N can reach the
    segment top N — the join shuffle moves at most N x distinct-custkeys-
    per-block rows), hash_join in the segment, then per-block top-N per
    segment before the final tiny groupby. All stages emit typed Arrow
    tables, so empty blocks never degrade the block schema (the round-2
    "RefBundle with a different schema" warning source).
    """
    _PRUNE_SCHEMA = pa.schema([
        ("o_custkey", pa.int64()), ("o_orderkey", pa.int64()),
        ("o_totalprice", pa.float64()),
    ])
    _SEG_SCHEMA = pa.schema([
        ("c_mktsegment", pa.string()), ("o_orderkey", pa.int64()),
        ("o_totalprice", pa.float64()),
    ])
    _TOPN_SCHEMA = pa.schema([
        ("c_mktsegment", pa.string()), ("rank", pa.int64()),
        ("o_orderkey", pa.int64()), ("o_totalprice", pa.float64()),
    ])

    def prune_per_custkey(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _PRUNE_SCHEMA.empty_table()
        df = t.to_pandas().sort_values(
            ["o_totalprice", "o_orderkey"], ascending=[False, True]
        )
        df = df.groupby("o_custkey", sort=False).head(TOPN_PER_SEGMENT)
        return pa.Table.from_pandas(
            df[["o_custkey", "o_orderkey", "o_totalprice"]],
            schema=_PRUNE_SCHEMA, preserve_index=False,
        )

    def prune_per_segment(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _SEG_SCHEMA.empty_table()
        df = t.to_pandas().sort_values(
            ["o_totalprice", "o_orderkey"], ascending=[False, True]
        )
        df = df.groupby("c_mktsegment", sort=False).head(TOPN_PER_SEGMENT)
        return pa.Table.from_pandas(
            df[["c_mktsegment", "o_orderkey", "o_totalprice"]],
            schema=_SEG_SCHEMA, preserve_index=False,
        )

    def topn(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _TOPN_SCHEMA.empty_table()
        df = t.to_pandas().sort_values(
            ["o_totalprice", "o_orderkey"], ascending=[False, True]
        ).head(TOPN_PER_SEGMENT)
        df["rank"] = range(1, len(df) + 1)
        return pa.Table.from_pandas(
            df[["c_mktsegment", "rank", "o_orderkey", "o_totalprice"]],
            schema=_TOPN_SCHEMA, preserve_index=False,
        )

    pruned = (
        _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])
        .map_batches(prune_per_custkey, batch_format="pyarrow")
    )
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    joined = hash_join(
        pruned,
        cust,
        left_on="o_custkey",
        right_on="c_custkey",
        key_type=pa.int64(),
        left_fields=[pa.field("o_orderkey", pa.int64()),
                     pa.field("o_totalprice", pa.float64())],
        right_fields=[pa.field("c_mktsegment", pa.string())],
    )
    return (
        joined
        .map_batches(prune_per_segment, batch_format="pyarrow")
        .repartition(8)
        .groupby("c_mktsegment")
        .map_groups(topn, batch_format="pyarrow")
    )


SQL_TOP_ORDERS_PER_SEGMENT = f"""
SELECT c_mktsegment, CAST(rank AS BIGINT) AS rank, o_orderkey, o_totalprice
FROM (
  SELECT c.c_mktsegment, o.o_orderkey, o.o_totalprice,
         row_number() OVER (
           PARTITION BY c.c_mktsegment
           ORDER BY o.o_totalprice DESC, o.o_orderkey ASC
         ) AS rank
  FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
)
WHERE rank <= {TOPN_PER_SEGMENT}
"""


def q_customers_without_big_orders(sf_dir: str) -> rd.Dataset:
    """Anti-join: customers with no order above HIGH_VALUE_CUT (the
    reference's skip-already-processed idiom J3 at table scale).

    Shape: the probe side (distinct custkeys of high-value orders) is
    filtered + pre-reduced with a groupby, collected, and broadcast via
    ray.put; the big side filters per batch with a vectorized isin. At 10^12
    rows the broadcast set becomes a partitioned bloom filter — same
    topology, approximate membership plus an exact recheck of the (rare)
    positives.
    """

    import pyarrow.dataset as pds

    def block_unique(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [pc.unique(pc.cast(t["o_custkey"], pa.int64()))], names=["o_custkey"]
        )

    probe_set: set = set()
    for b in (
        rd.read_parquet(
            _pq(sf_dir, "orders"),
            columns=["o_custkey", "o_totalprice"],
            filter=pds.field("o_totalprice") > HIGH_VALUE_CUT,  # read-side prune
        )
        # per-block unique, union-ed on the driver: ships at most
        # (distinct-per-block x blocks) int64s and skips the sort-aggregate
        # a distinct groupby would pay
        .map_batches(block_unique, batch_format="pyarrow")
        .iter_batches(batch_size=65536, batch_format="pyarrow")
    ):
        probe_set.update(b["o_custkey"].to_pylist())
    probe_ref = ray.put(probe_set)

    def anti(df: pd.DataFrame) -> pd.DataFrame:
        probe = ray.get(probe_ref)
        keep = ~df["c_custkey"].isin(probe)
        out = df.loc[keep, ["c_custkey", "c_mktsegment"]].copy()
        out["c_custkey"] = out["c_custkey"].astype("int64")
        return out

    return _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).map_batches(
        anti, batch_format="pandas"
    )


SQL_CUSTOMERS_WITHOUT_BIG_ORDERS = f"""
SELECT CAST(c_custkey AS BIGINT) AS c_custkey, c_mktsegment
FROM customer c
WHERE NOT EXISTS (
  SELECT 1 FROM orders o
  WHERE o.o_custkey = c.c_custkey AND o.o_totalprice > {HIGH_VALUE_CUT}
)
"""


SQL_USER_EVENT_TYPE_MATRIX = """
SELECT user_id, event_type, count(*) AS n
FROM events GROUP BY user_id, event_type
"""


# ---------------------------------------------------------------------------
# Latest-record-per-key compaction (the upsert / CDC shape)
# ---------------------------------------------------------------------------

_LATEST_SCHEMA = pa.schema(
    [
        ("o_custkey", pa.int64()),
        ("o_orderkey", pa.int64()),
        ("o_orderdate", pa.timestamp("us")),
        ("o_totalprice", pa.float64()),
    ]
)


def q_orders_latest_per_customer(sf_dir: str) -> rd.Dataset:
    """Each customer's most recent order (ties broken by highest orderkey) —
    the compaction/upsert shape a lakehouse pipeline runs to keep the
    latest version per key.

    Two-level argmax: a per-BATCH partial argmax first (pandas groupby
    tail over a (date, key) sort), so the exchange carries at most one row
    per (customer x batch) — never the raw fact table — then the same
    argmax per key-hash SHARD via hash_exchange (one vectorized pass per
    shard; the sort-shuffle orders num_shards int64 ids, not 10^5 distinct
    custkeys, and there is no per-key Python dispatch). Both levels use the
    identical (o_orderdate, o_orderkey) lexicographic max, so the result is
    exact and parallelism-independent. No totalprice arithmetic: the double
    passes through untouched (exact under the driver's value hash)."""

    def partial_latest(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return _LATEST_SCHEMA.empty_table().to_pandas()
        idx = (
            df.sort_values(["o_orderdate", "o_orderkey"])
            .groupby("o_custkey", sort=False)
            .tail(1)
            .index
        )
        return df.loc[
            idx, ["o_custkey", "o_orderkey", "o_orderdate", "o_totalprice"]
        ]

    def shard_latest(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _LATEST_SCHEMA.empty_table()
        return pa.Table.from_pandas(
            partial_latest(t.to_pandas()), preserve_index=False
        )

    return hash_exchange(
        _read(
            sf_dir,
            "orders",
            ["o_custkey", "o_orderkey", "o_orderdate", "o_totalprice"],
        ).map_batches(partial_latest, batch_format="pandas"),
        ["o_custkey"],
        shard_latest,
        _LATEST_SCHEMA,
    )


SQL_ORDERS_LATEST_PER_CUSTOMER = """
SELECT o_custkey, o_orderkey, o_orderdate, o_totalprice
FROM (
  SELECT o_custkey, o_orderkey, o_orderdate, o_totalprice,
         row_number() OVER (
           PARTITION BY o_custkey
           ORDER BY o_orderdate DESC, o_orderkey DESC
         ) AS rn
  FROM orders
)
WHERE rn = 1
"""


# ---------------------------------------------------------------------------
# Range (interval) join and cumulative window — the two windowed-operator
# shapes the family still lacked (SURVEY.md §2.8 has none; as-of covers
# point-in-time, these cover intervals and running state)
# ---------------------------------------------------------------------------

FOLLOWUP_DAYS = 30


def q_orders_followup_counts(sf_dir: str) -> rd.Dataset:
    """Range (interval) self-join: for every order, how many orders the SAME
    customer placed in the following 30 days (strictly later, inclusive
    upper bound) — the non-equi band join Ray Data lacks natively.

    Distributed shape: ONE hash_exchange on custkey co-locates each
    customer's orders; inside a shard the interval counting is fully
    vectorized over ALL customers at once — encode (custkey, day) into one
    sortable int64, sort once, and two ``np.searchsorted`` calls bound each
    row's window; no per-customer Python dispatch and no quadratic pair
    expansion (counts come from index arithmetic, pairs are never
    materialized). Partitioning contract: one customer's orders fit one
    shard task."""
    out_schema = pa.schema(
        [pa.field("o_orderkey", pa.int64()), pa.field("n_followups", pa.int64())]
    )

    def shard_count(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        cust = pc.cast(t["o_custkey"], pa.int64()).to_numpy(zero_copy_only=False)
        days = (
            pc.cast(t["o_orderdate"], pa.timestamp("us"))
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[D]")
            .astype(np.int64)
        )
        keys = pc.cast(t["o_orderkey"], pa.int64()).to_numpy(zero_copy_only=False)
        # (custkey, day) -> one sortable int64; day spans < 10^5, so the
        # composite never overflows for custkey < 9.2e13
        combo = cust * np.int64(1_000_000) + days
        order = np.argsort(combo, kind="stable")
        c_sorted = combo[order]
        upper = np.searchsorted(c_sorted, combo + FOLLOWUP_DAYS, side="right")
        lower = np.searchsorted(c_sorted, combo, side="right")
        return pa.Table.from_arrays(
            [pa.array(keys, pa.int64()), pa.array(upper - lower, pa.int64())],
            schema=out_schema,
        )

    return hash_exchange(
        _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]),
        ["o_custkey"],
        shard_count,
        out_schema,
    )


SQL_ORDERS_FOLLOWUP_COUNTS = f"""
SELECT o1.o_orderkey,
       CAST(count(o2.o_orderkey) AS BIGINT) AS n_followups
FROM orders o1
LEFT JOIN orders o2
  ON o2.o_custkey = o1.o_custkey
 AND o2.o_orderdate > o1.o_orderdate
 AND o2.o_orderdate <= o1.o_orderdate + INTERVAL {FOLLOWUP_DAYS} DAY
GROUP BY o1.o_orderkey
"""


def q_user_running_value(sf_dir: str) -> rd.Dataset:
    """Cumulative window: per user, the running sum of event value (integer
    cents) in event_id order (unique, monotone with ingest time) — the
    keyed running-state shape (SUM() OVER (PARTITION BY ... ORDER BY ...)).

    ONE hash_exchange on user_id; inside a shard the running sum is a
    single C-level ``groupby(user).cumsum`` over the shard's sorted rows —
    no per-user dispatch. The unique order key makes the result exact
    under the driver's value hash at any parallelism."""
    out_schema = pa.schema(
        [pa.field("event_id", pa.int64()), pa.field("user_id", pa.int64()),
         pa.field("running_value_cents", pa.int64())]
    )

    def shard_cumsum(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        df = pa.Table.from_arrays(
            [t["event_id"], t["user_id"], _cents(t["value"])],
            names=["event_id", "user_id", "cents"],
        ).to_pandas()
        df = df.sort_values(["user_id", "event_id"], kind="mergesort")
        run = df.groupby("user_id", sort=False)["cents"].cumsum()
        return pa.Table.from_arrays(
            [
                pa.array(df["event_id"].to_numpy(dtype="int64")),
                pa.array(df["user_id"].to_numpy(dtype="int64")),
                pa.array(run.to_numpy(dtype="int64")),
            ],
            schema=out_schema,
        )

    return hash_exchange(
        _read(sf_dir, "events", ["event_id", "user_id", "value"]),
        ["user_id"],
        shard_cumsum,
        out_schema,
    )


SQL_USER_RUNNING_VALUE = """
SELECT event_id, user_id,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) OVER (
         PARTITION BY user_id ORDER BY event_id
       ) AS BIGINT) AS running_value_cents
FROM events
"""


# ---------------------------------------------------------------------------
# Aggregate-family extensions: rollup, pivot, histogram, per-group mode,
# correlation from exact integer partials (SURVEY.md §2.5 lists only plain
# grouped aggregates — these are the remaining grouped-aggregate shapes a
# general engine needs)
# ---------------------------------------------------------------------------

ROLLUP_ALL = "ALL"


def _orders_finest(sf_dir: str) -> pd.DataFrame:
    """Finest-grain (priority, status) revenue partials — the single scan
    all ROLLUP/CUBE levels derive from (a few dozen rows once reduced)."""

    def prep(t: pa.Table) -> pa.Table:
        rows = pa.Table.from_arrays(
            [t["o_orderpriority"], t["o_orderstatus"], _cents(t["o_totalprice"])],
            names=["o_orderpriority", "o_orderstatus", "cents"],
        )
        g = rows.group_by(["o_orderpriority", "o_orderstatus"]).aggregate(
            [("cents", "sum"), ([], "count_all")]
        )
        return pa.Table.from_arrays(
            [g["o_orderpriority"], g["o_orderstatus"],
             pc.cast(g["count_all"], pa.int64()), g["cents_sum"]],
            names=["o_orderpriority", "o_orderstatus", "n_orders", "revenue_cents"],
        )

    return (
        _read(sf_dir, "orders", ["o_orderpriority", "o_orderstatus", "o_totalprice"])
        .map_batches(prep, batch_format="pyarrow")
        .repartition(8)
        .groupby(["o_orderpriority", "o_orderstatus"])
        .aggregate(
            Sum("n_orders", alias_name="n_orders"),
            Sum("revenue_cents", alias_name="revenue_cents"),
        )
        .to_pandas()  # the finest grain is (priorities x statuses) rows — tiny
    )


def q_orders_rollup(sf_dir: str) -> pd.DataFrame:
    """ROLLUP aggregate: revenue by (priority, status), per-priority
    subtotals, and the grand total — in ONE pass. The coarser levels are
    derived from the FINEST-grain partials (a few dozen rows), never from a
    second scan: per-block pyarrow partials -> one tiny groupby -> driver
    derivation of subtotal/total rows. 'ALL' markers instead of SQL NULLs
    keep the driver's value hash unambiguous."""
    finest = _orders_finest(sf_dir)
    by_prio = (
        finest.groupby("o_orderpriority", as_index=False)[["n_orders", "revenue_cents"]]
        .sum()
        .assign(o_orderstatus=ROLLUP_ALL)
    )
    total = pd.DataFrame([{
        "o_orderpriority": ROLLUP_ALL, "o_orderstatus": ROLLUP_ALL,
        "n_orders": finest["n_orders"].sum(),
        "revenue_cents": finest["revenue_cents"].sum(),
    }])
    out = pd.concat([finest, by_prio, total], ignore_index=True)
    out = out[["o_orderpriority", "o_orderstatus", "n_orders", "revenue_cents"]]
    return out.astype({"n_orders": "int64", "revenue_cents": "int64"})


SQL_ORDERS_ROLLUP = f"""
SELECT coalesce(o_orderpriority, '{ROLLUP_ALL}') AS o_orderpriority,
       coalesce(o_orderstatus, '{ROLLUP_ALL}') AS o_orderstatus,
       count(*) AS n_orders,
       CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS revenue_cents
FROM orders
GROUP BY ROLLUP (o_orderpriority, o_orderstatus)
"""


def q_orders_cube(sf_dir: str) -> pd.DataFrame:
    """CUBE aggregate: ROLLUP's three levels plus the per-status margin —
    all four grouping sets derived from the SAME single finest-grain scan
    (_orders_finest). A cube never needs one pass per grouping set: coarser
    cells are sums of finest cells, computed on the driver over a few dozen
    rows."""
    finest = _orders_finest(sf_dir)
    margins = []
    for keep, drop in (
        (["o_orderpriority"], "o_orderstatus"),
        (["o_orderstatus"], "o_orderpriority"),
    ):
        m = (
            finest.groupby(keep, as_index=False)[["n_orders", "revenue_cents"]]
            .sum()
            .assign(**{drop: ROLLUP_ALL})
        )
        margins.append(m)
    total = pd.DataFrame([{
        "o_orderpriority": ROLLUP_ALL, "o_orderstatus": ROLLUP_ALL,
        "n_orders": finest["n_orders"].sum(),
        "revenue_cents": finest["revenue_cents"].sum(),
    }])
    out = pd.concat([finest, *margins, total], ignore_index=True)
    out = out[["o_orderpriority", "o_orderstatus", "n_orders", "revenue_cents"]]
    return out.astype({"n_orders": "int64", "revenue_cents": "int64"})


SQL_ORDERS_CUBE = f"""
SELECT coalesce(o_orderpriority, '{ROLLUP_ALL}') AS o_orderpriority,
       coalesce(o_orderstatus, '{ROLLUP_ALL}') AS o_orderstatus,
       count(*) AS n_orders,
       CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS revenue_cents
FROM orders
GROUP BY CUBE (o_orderpriority, o_orderstatus)
"""


EVENT_TYPES = ("click", "error", "purchase", "signup", "view")


def q_user_event_pivot(sf_dir: str) -> rd.Dataset:
    """PIVOT: per-user event counts as one WIDE row (n_click, n_error, ...)
    — the wide twin of q_user_event_type_matrix. The pivot happens inside
    map_batches (each block -> one partial wide row per user, vectorized
    pyarrow dictionary-encode + bincount), so the exchange moves fixed-width
    int64 rows and the final reduce is a plain Sum per column — a pivot
    never needs its own shuffle beyond the keyed sum. Column set is the
    engine-config event vocabulary (EVENT_TYPES): at web scale a pivot over
    an unbounded value domain is a design error, so the operator takes the
    closed set explicitly and raises on out-of-vocabulary values."""
    cols = [f"n_{t}" for t in EVENT_TYPES]
    pivot_schema = pa.schema(
        [pa.field("user_id", pa.int64())] + [pa.field(c, pa.int64()) for c in cols]
    )

    def partial_pivot(t: pa.Table) -> pa.Table:
        uid = pc.cast(t["user_id"], pa.int64()).to_numpy(zero_copy_only=False)
        etype = t["event_type"].to_pylist()
        type_idx = {name: i for i, name in enumerate(EVENT_TYPES)}
        try:
            tcode = np.fromiter(
                (type_idx[x] for x in etype), dtype=np.int64, count=len(etype)
            )
        except KeyError as e:  # closed-vocabulary contract
            raise ValueError(f"out-of-vocabulary event_type: {e}") from e
        uniq, inv = np.unique(uid, return_inverse=True)
        counts = np.zeros((len(uniq), len(EVENT_TYPES)), dtype=np.int64)
        np.add.at(counts, (inv, tcode), 1)
        return pa.Table.from_arrays(
            [pa.array(uniq, pa.int64())]
            + [pa.array(counts[:, i], pa.int64()) for i in range(len(EVENT_TYPES))],
            schema=pivot_schema,
        )

    def shard_sum(t: pa.Table) -> pa.Table:
        g = t.group_by("user_id").aggregate([(c, "sum") for c in cols])
        return pa.Table.from_arrays(
            [g["user_id"]] + [g[f"{c}_sum"] for c in cols], schema=pivot_schema
        )

    return hash_exchange(
        _read(sf_dir, "events", ["user_id", "event_type"]).map_batches(
            partial_pivot, batch_format="pyarrow"
        ),
        ["user_id"],
        shard_sum,
        pivot_schema,
    )


SQL_USER_EVENT_PIVOT = "\n".join(
    ["SELECT user_id,"]
    + [
        f"       CAST(count(*) FILTER (event_type = '{t}') AS BIGINT) AS n_{t},"
        for t in EVENT_TYPES[:-1]
    ]
    + [
        f"       CAST(count(*) FILTER (event_type = '{EVENT_TYPES[-1]}') AS BIGINT) AS n_{EVENT_TYPES[-1]}",
        "FROM events GROUP BY user_id",
    ]
)


HIST_BIN_WIDTH = 50_000  # dollars per bin over o_totalprice


def q_order_price_histogram(sf_dir: str) -> rd.Dataset:
    """Fixed-width histogram of order prices: bin = floor(price / width).
    Per-block vectorized binning + partial counts (pyarrow group_by), then
    one tiny groupby over <= ~12 bins — the canonical distributed-histogram
    shape (partials are mergeable; no raw row ever crosses the wire)."""

    def binit(t: pa.Table) -> pa.Table:
        b = pc.cast(
            pc.floor(pc.divide(t["o_totalprice"], pa.scalar(float(HIST_BIN_WIDTH)))),
            pa.int64(),
        )
        rows = pa.Table.from_arrays(
            [b, _cents(t["o_totalprice"])], names=["bin", "cents"]
        )
        g = rows.group_by("bin").aggregate([([], "count_all"), ("cents", "sum")])
        return pa.Table.from_arrays(
            [g["bin"], pc.cast(g["count_all"], pa.int64()), g["cents_sum"]],
            names=["bin", "n_orders", "sum_cents"],
        )

    return (
        _read(sf_dir, "orders", ["o_totalprice"])
        .map_batches(binit, batch_format="pyarrow")
        .repartition(8)
        .groupby("bin")
        .aggregate(
            Sum("n_orders", alias_name="n_orders"),
            Sum("sum_cents", alias_name="sum_cents"),
        )
    )


SQL_ORDER_PRICE_HISTOGRAM = f"""
SELECT CAST(floor(o_totalprice / {HIST_BIN_WIDTH}) AS BIGINT) AS bin,
       count(*) AS n_orders,
       CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS sum_cents
FROM orders GROUP BY 1
"""


def q_part_size_mode(sf_dir: str) -> rd.Dataset:
    """MODE per group: each part type's most frequent size (ties -> smallest
    size). Two-level argmax-of-counts: per-block (type, size) partial counts
    (no shuffle), ONE hash_exchange on p_type whose shard fn finishes the
    counts and takes the per-type argmax vectorized over all the shard's
    types at once — the distributed mode never builds a per-group value
    histogram on one worker bigger than that group's distinct sizes."""
    mode_schema = pa.schema(
        [pa.field("p_type", pa.string()), pa.field("mode_size", pa.int64()),
         pa.field("n_mode", pa.int64())]
    )
    partial_schema = pa.schema(
        [pa.field("p_type", pa.string()), pa.field("p_size", pa.int64()),
         pa.field("n", pa.int64())]
    )

    def partial_counts(t: pa.Table) -> pa.Table:
        rows = pa.Table.from_arrays(
            [t["p_type"], pc.cast(t["p_size"], pa.int64())],
            names=["p_type", "p_size"],
        )
        g = rows.group_by(["p_type", "p_size"]).aggregate([([], "count_all")])
        return pa.Table.from_arrays(
            [g["p_type"], g["p_size"], pc.cast(g["count_all"], pa.int64())],
            schema=partial_schema,
        )

    def shard_mode(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return mode_schema.empty_table()
        df = (
            t.to_pandas()
            .groupby(["p_type", "p_size"], sort=False, as_index=False)["n"].sum()
            .sort_values(["p_type", "n", "p_size"], ascending=[True, False, True],
                         kind="mergesort")
            .groupby("p_type", sort=False)
            .head(1)
        )
        return pa.Table.from_arrays(
            [pa.array(df["p_type"].astype(str)),
             pa.array(df["p_size"].to_numpy(dtype="int64")),
             pa.array(df["n"].to_numpy(dtype="int64"))],
            schema=mode_schema,
        )

    return hash_exchange(
        _read(sf_dir, "part", ["p_type", "p_size"]).map_batches(
            partial_counts, batch_format="pyarrow"
        ),
        ["p_type"],
        shard_mode,
        mode_schema,
    )


SQL_PART_SIZE_MODE = """
SELECT p_type, mode_size, n_mode FROM (
  SELECT p_type, CAST(p_size AS BIGINT) AS mode_size,
         count(*) AS n_mode,
         row_number() OVER (
           PARTITION BY p_type ORDER BY count(*) DESC, p_size ASC
         ) AS rn
  FROM part GROUP BY p_type, p_size
)
WHERE rn = 1
"""


def q_lineitem_corr(sf_dir: str) -> pd.DataFrame:
    """Pearson correlation of (quantity, price-in-dollars) per returnflag
    from EXACT integer partials: each block contributes
    (n, Σx, Σy, Σx², Σy², Σxy) as int64 — order-free, mergeable, and
    bit-reproducible at any parallelism — and the final float formula runs
    once on the driver over the exact integer totals. This is the
    moment-sketch pattern every distributed variance/corr needs (naive
    float accumulation is order-dependent and breaks the value hash).
    x = round(quantity) <= 50, y = round(price) <= ~10^5: Σx·y over 10^8
    rows stays < 2^63; at 10^12 rows the partials widen to int128/HUGEINT —
    same topology, wider lanes (the SQL oracle already runs HUGEINT)."""

    def partial(t: pa.Table) -> pa.Table:
        flag = t["l_returnflag"].to_pylist()
        x = (
            pc.cast(pc.round(t["l_quantity"], round_mode="half_towards_infinity"), pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        y = (
            pc.cast(pc.round(t["l_extendedprice"], round_mode="half_towards_infinity"), pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        df = pd.DataFrame({
            "l_returnflag": flag, "n": 1, "sx": x, "sy": y,
            "sxx": x * x, "syy": y * y, "sxy": x * y,
        })
        g = df.groupby("l_returnflag", sort=False, as_index=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    sums = (
        _read(sf_dir, "lineitem", ["l_returnflag", "l_quantity", "l_extendedprice"])
        .map_batches(partial, batch_format="pyarrow")
        .repartition(8)
        .groupby("l_returnflag")
        .aggregate(*[Sum(c, alias_name=c) for c in ("n", "sx", "sy", "sxx", "syy", "sxy")])
        .to_pandas()  # one row per returnflag
        .sort_values("l_returnflag")
    )
    n = sums["n"].to_numpy(dtype="float64")
    sx, sy = sums["sx"].to_numpy(dtype="float64"), sums["sy"].to_numpy(dtype="float64")
    sxx, syy = sums["sxx"].to_numpy(dtype="float64"), sums["syy"].to_numpy(dtype="float64")
    sxy = sums["sxy"].to_numpy(dtype="float64")
    corr = (n * sxy - sx * sy) / (
        np.sqrt(n * sxx - sx * sx) * np.sqrt(n * syy - sy * sy)
    )
    return pd.DataFrame({
        "l_returnflag": sums["l_returnflag"].astype(str),
        "n_rows": sums["n"].astype("int64"),
        "corr_qty_price": corr,
    }).reset_index(drop=True)


SQL_LINEITEM_CORR = """
WITH p AS (
  SELECT l_returnflag,
         CAST(count(*) AS HUGEINT) AS n,
         sum(CAST(CAST(round(l_quantity) AS BIGINT) AS HUGEINT)) AS sx,
         sum(CAST(CAST(round(l_extendedprice) AS BIGINT) AS HUGEINT)) AS sy,
         sum(CAST(CAST(round(l_quantity) AS BIGINT) AS HUGEINT)
             * CAST(round(l_quantity) AS BIGINT)) AS sxx,
         sum(CAST(CAST(round(l_extendedprice) AS BIGINT) AS HUGEINT)
             * CAST(round(l_extendedprice) AS BIGINT)) AS syy,
         sum(CAST(CAST(round(l_quantity) AS BIGINT) AS HUGEINT)
             * CAST(round(l_extendedprice) AS BIGINT)) AS sxy
  FROM lineitem GROUP BY l_returnflag
)
SELECT l_returnflag,
       CAST(n AS BIGINT) AS n_rows,
       (CAST(n AS DOUBLE) * CAST(sxy AS DOUBLE) - CAST(sx AS DOUBLE) * CAST(sy AS DOUBLE))
       / (sqrt(CAST(n AS DOUBLE) * CAST(sxx AS DOUBLE) - CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE))
          * sqrt(CAST(n AS DOUBLE) * CAST(syy AS DOUBLE) - CAST(sy AS DOUBLE) * CAST(sy AS DOUBLE)))
       AS corr_qty_price
FROM p
"""


def q_events_sessions(sf_dir: str) -> rd.Dataset:
    """Session-GRAIN windows: one row per (user, session) with event count
    and start/end timestamps — the explode view of q_events_sessionize
    (which emits per-user totals). Same topology: ONE hash_exchange on
    user_id, then inside a shard the boundary mask, per-user cumulative
    session index, and the (user, session) aggregate are all C-level
    vectorized passes over the shard's sorted rows. Session ids are
    1-based in time order, so the output is exact at any parallelism."""
    sess_schema = pa.schema(
        [pa.field("user_id", pa.int64()), pa.field("session_idx", pa.int64()),
         pa.field("n_events", pa.int64()),
         pa.field("start_ts", pa.timestamp("us")),
         pa.field("end_ts", pa.timestamp("us"))]
    )

    def shard_sessions(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return sess_schema.empty_table()
        df = t.to_pandas().sort_values(["user_id", "ts"], kind="mergesort")
        same_user = df["user_id"].eq(df["user_id"].shift())
        gaps = df["ts"].diff().dt.total_seconds()
        new_session = (~same_user | (gaps > SESSION_GAP_S)).astype("int64")
        df = df.assign(
            session_idx=new_session.groupby(
                df["user_id"].to_numpy(), sort=False
            ).cumsum()
        )
        agg = (
            df.groupby(["user_id", "session_idx"], sort=False)
            .agg(n_events=("ts", "size"), start_ts=("ts", "min"),
                 end_ts=("ts", "max"))
            .reset_index()
        )
        return pa.Table.from_arrays(
            [
                pa.array(agg["user_id"].to_numpy(dtype="int64")),
                pa.array(agg["session_idx"].to_numpy(dtype="int64")),
                pa.array(agg["n_events"].to_numpy(dtype="int64")),
                pa.Array.from_pandas(agg["start_ts"]).cast(pa.timestamp("us")),
                pa.Array.from_pandas(agg["end_ts"]).cast(pa.timestamp("us")),
            ],
            schema=sess_schema,
        )

    return hash_exchange(
        _read(sf_dir, "events", ["user_id", "ts"]),
        ["user_id"],
        shard_sessions,
        sess_schema,
    )


SQL_EVENTS_SESSIONS = f"""
WITH g AS (
  SELECT user_id, ts,
         CASE WHEN lag(ts) OVER w IS NULL
                OR epoch(ts - lag(ts) OVER w) > {SESSION_GAP_S}
              THEN 1 ELSE 0 END AS new_s
  FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts)
),
s AS (
  SELECT user_id, ts,
         sum(new_s) OVER (PARTITION BY user_id ORDER BY ts
                          ROWS UNBOUNDED PRECEDING) AS sid
  FROM g
)
SELECT user_id, CAST(sid AS BIGINT) AS session_idx,
       count(*) AS n_events, min(ts) AS start_ts, max(ts) AS end_ts
FROM s GROUP BY user_id, sid
"""


def q_customers_not_event_users(sf_dir: str) -> rd.Dataset:
    """Set difference (EXCEPT): customers with no event row — SURVEY.md §2.7
    notes the reference has no union/intersect/except; this supplies the
    missing one (semi = customers_with_orders; key-level anti = here). The
    probe side (events) is per-BLOCK deduped to distinct user_ids inside
    map_batches — presence is all anti needs, so duplicates across blocks
    are harmless and no pre-shuffle reduce runs — then the co-partitioned
    hash join runs anti. Fully distributed: no driver-collected probe set."""

    def block_distinct(t: pa.Table) -> pa.Table:
        g = t.group_by("user_id").aggregate([])
        return pa.Table.from_arrays(
            [pc.cast(g["user_id"], pa.int64())], names=["user_id"]
        )

    users = _read(sf_dir, "events", ["user_id"]).map_batches(
        block_distinct, batch_format="pyarrow"
    )
    return hash_join(
        _read(sf_dir, "customer", ["c_custkey"]),
        users,
        left_on="c_custkey",
        right_on="user_id",
        key_type=pa.int64(),
        left_fields=[],
        right_fields=[],
        how="anti",
    )


SQL_CUSTOMERS_NOT_EVENT_USERS = """
SELECT c_custkey FROM customer
EXCEPT
SELECT user_id AS c_custkey FROM events
"""


FUNNEL_STEPS = ("view", "click", "purchase")


def q_events_funnel(sf_dir: str) -> rd.Dataset:
    """Ordered-sequence funnel (view -> click -> purchase): for every user
    with at least one event, the furthest step reached where each step's
    first qualifying event must be STRICTLY later than the previous step's
    (classic product-analytics funnel; a sequence-pattern match the engine
    had no shape for — sessionize cuts on gaps, asof joins on one boundary,
    this chains k ordered boundaries).

    Topology: ONE hash_exchange on user_id (all of a user's events land in
    one shard), then the k-step chain runs as k vectorized passes over the
    shard — per step, filter to that event type, gate on the previous
    step's per-user timestamp (pandas map + boolean mask), and take the
    per-user min. No per-user Python loop; no global sort; output is one
    row per user, exact at any parallelism (strict `>` makes ties
    well-defined identically here and in the SQL replay)."""
    out_schema = pa.schema(
        [pa.field("user_id", pa.int64()), pa.field("funnel_stage", pa.int64())]
    )

    def shard_funnel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        df = t.to_pandas()
        users = np.unique(df["user_id"].to_numpy(dtype=np.int64))
        stage = np.zeros(len(users), dtype=np.int64)
        prev: pd.Series | None = None  # per-user ts of the previous step
        for step in FUNNEL_STEPS:
            sub = df[df["event_type"].eq(step)]
            if prev is not None:
                gate = sub["user_id"].map(prev)
                sub = sub[gate.notna().to_numpy() & (sub["ts"] > gate).to_numpy()]
            cur = sub.groupby("user_id")["ts"].min()
            stage += np.isin(users, cur.index.to_numpy())
            prev = cur
        return pa.Table.from_arrays(
            [pa.array(users), pa.array(stage)], schema=out_schema
        )

    return hash_exchange(
        _read(sf_dir, "events", ["user_id", "ts", "event_type"]),
        ["user_id"],
        shard_funnel,
        out_schema,
    )


SQL_EVENTS_FUNNEL = """
WITH u AS (SELECT DISTINCT user_id FROM events),
v AS (SELECT user_id, min(ts) AS t FROM events WHERE event_type = 'view' GROUP BY 1),
c AS (SELECT e.user_id, min(e.ts) AS t FROM events e
      JOIN v ON e.user_id = v.user_id AND e.ts > v.t
      WHERE e.event_type = 'click' GROUP BY 1),
p AS (SELECT e.user_id, min(e.ts) AS t FROM events e
      JOIN c ON e.user_id = c.user_id AND e.ts > c.t
      WHERE e.event_type = 'purchase' GROUP BY 1)
SELECT u.user_id,
       CASE WHEN p.user_id IS NOT NULL THEN 3
            WHEN c.user_id IS NOT NULL THEN 2
            WHEN v.user_id IS NOT NULL THEN 1
            ELSE 0 END AS funnel_stage
FROM u
LEFT JOIN v ON u.user_id = v.user_id
LEFT JOIN c ON u.user_id = c.user_id
LEFT JOIN p ON u.user_id = p.user_id
"""


def q_events_props_stats(sf_dir: str) -> rd.Dataset:
    """JSON property extraction at table scale: pull the integer ``k`` out
    of each event's JSON ``props`` payload and aggregate per event type
    (count / exact integer sum / avg = sum/n on the driver-sized result).

    Hot path is a vectorized regex fast-path (pyarrow extract_regex — the
    synthesizer's canonical '{"k": N}' shape) with the engine's P16
    JSON-salvage suite (functions/json_utils.safe_json_loads, reference
    backend/core/json_utils.py) as the per-row fallback for anything the
    regex rejects — the production shape for 'mostly-clean JSON columns
    with a dirty tail'. Unsalvageable rows count 0 (totality; a poison
    payload must never kill the task). Each block pre-combines to <=
    n_event_types partial rows before the (tiny) groupby exchange."""
    from ..functions.json_utils import parse_relaxed, safe_json_loads

    def _salvage(raw: str) -> int:
        try:
            obj = safe_json_loads(raw)
        except Exception:
            obj, ok = parse_relaxed(raw)
            if not ok:
                return 0
        return int(obj.get("k", 0)) if isinstance(obj, dict) else 0

    pat = r'^\{"k": (?P<k>-?\d+)\}$'

    def partial(t: pa.Table) -> pa.Table:
        props = t["props"]
        m = pc.extract_regex(props, pat)
        k = pc.cast(pc.struct_field(m, "k"), pa.int64())
        if k.null_count and k.null_count > 0:
            mask = pc.is_null(k).to_numpy(zero_copy_only=False)
            vals = k.to_numpy(zero_copy_only=False).copy()
            raw = props.to_pylist()
            for i in np.flatnonzero(mask):
                vals[i] = _salvage(raw[i])
            k = pa.array(vals, pa.int64())
        g = pa.Table.from_arrays(
            [t["event_type"], k], names=["event_type", "k"]
        ).group_by("event_type").aggregate([("k", "sum"), ("k", "count")])
        return pa.Table.from_arrays(
            [g["event_type"], pc.cast(g["k_sum"], pa.int64()),
             pc.cast(g["k_count"], pa.int64())],
            names=["event_type", "sum_k", "n_events"],
        )

    merged = (
        _read(sf_dir, "events", ["event_type", "props"])
        .map_batches(partial, batch_format="pyarrow")
        .repartition(8)
        .groupby("event_type")
        .aggregate(
            Sum("sum_k", alias_name="sum_k"),
            Sum("n_events", alias_name="n_events"),
        )
    )

    def finish(t: pa.Table) -> pa.Table:
        avg = pc.divide(
            pc.cast(t["sum_k"], pa.float64()), pc.cast(t["n_events"], pa.float64())
        )
        return pa.Table.from_arrays(
            [t["event_type"], t["n_events"], t["sum_k"], avg],
            names=["event_type", "n_events", "sum_k", "avg_k"],
        )

    return merged.map_batches(finish, batch_format="pyarrow")


SQL_EVENTS_PROPS_STATS = """
SELECT event_type,
       count(*) AS n_events,
       CAST(sum(CAST(json_extract_string(props, '$.k') AS BIGINT)) AS BIGINT) AS sum_k,
       CAST(sum(CAST(json_extract_string(props, '$.k') AS BIGINT)) AS DOUBLE)
         / count(*) AS avg_k
FROM events
GROUP BY event_type
"""


def _week_start_days(ts_us: np.ndarray) -> np.ndarray:
    """Monday-start week truncation in integer epoch DAYS (1970-01-01 was a
    Thursday, so dow = (days+3) % 7) — exact integer arithmetic, matching
    DuckDB's date_trunc('week', ts)."""
    days = ts_us // 86_400_000_000
    return days - (days + 3) % 7


def q_events_retention(sf_dir: str) -> rd.Dataset:
    """Cohort retention matrix: users are cohorted by the Monday-start week
    of their FIRST signup event; each later active week (any event type)
    increments that (cohort_week, week_offset) cell's distinct-user count.
    The product-analytics companion to the funnel — per-user state across
    the whole timeline, so it rides ONE hash_exchange on user_id; inside a
    shard the per-user first-signup, the week truncation, and the distinct
    (user, week) pairs are all integer-vectorized. Pair partials (already
    distinct, since a user lives in exactly one shard) then merge in a tiny
    groupby-sum. Exact at any parallelism."""
    out_schema = pa.schema([
        pa.field("cohort_week", pa.timestamp("us")),
        pa.field("week_offset", pa.int64()),
        pa.field("n_users", pa.int64()),
    ])

    def shard_retention(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        df = t.to_pandas()
        ts_us = df["ts"].astype("int64").to_numpy()
        week = _week_start_days(ts_us)
        uid = df["user_id"].to_numpy()
        signup = df["event_type"].eq("signup").to_numpy()
        if not signup.any():
            return out_schema.empty_table()
        s = pd.Series(ts_us[signup], index=uid[signup])
        first_signup_us = s.groupby(level=0).min()
        cohort_week = pd.Series(
            _week_start_days(first_signup_us.to_numpy()),
            index=first_signup_us.index,
        )
        cw = pd.Series(uid).map(cohort_week).to_numpy()
        keep = ~np.isnan(cw)
        offs = week[keep] - cw[keep].astype(np.int64)
        offs //= 7
        keep2 = offs >= 0  # pre-signup activity doesn't count toward retention
        cells = pd.DataFrame({
            "user": uid[keep][keep2],
            "cohort_days": cw[keep][keep2].astype(np.int64),
            "week_offset": offs[keep2],
        }).drop_duplicates(["user", "cohort_days", "week_offset"])
        agg = (
            cells.groupby(["cohort_days", "week_offset"], sort=False)
            .size()
            .reset_index(name="n_users")
        )
        return pa.Table.from_arrays(
            [
                pa.array(agg["cohort_days"].to_numpy() * 86_400_000_000).cast(
                    pa.timestamp("us")
                ),
                pa.array(agg["week_offset"].to_numpy(dtype="int64")),
                pa.array(agg["n_users"].to_numpy(dtype="int64")),
            ],
            schema=out_schema,
        )

    pairs = hash_exchange(
        _read(sf_dir, "events", ["user_id", "ts", "event_type"]),
        ["user_id"],
        shard_retention,
        out_schema,
    )
    return pairs.groupby(["cohort_week", "week_offset"]).aggregate(
        Sum("n_users", alias_name="n_users")
    )


SQL_EVENTS_RETENTION = """
WITH first_signup AS (
  SELECT user_id, date_trunc('week', min(ts)) AS cohort_week
  FROM events WHERE event_type = 'signup' GROUP BY user_id
),
active AS (
  SELECT DISTINCT e.user_id, f.cohort_week,
         date_diff('day', f.cohort_week, date_trunc('week', e.ts)) // 7
           AS week_offset
  FROM events e JOIN first_signup f USING (user_id)
  WHERE date_trunc('week', e.ts) >= f.cohort_week
)
SELECT CAST(cohort_week AS TIMESTAMP) AS cohort_week,
       CAST(week_offset AS BIGINT) AS week_offset,
       count(*) AS n_users
FROM active GROUP BY 1, 2
"""


def q_order_price_quantiles_cont(sf_dir: str) -> rd.Dataset:
    """Interpolated per-priority quantiles (DuckDB quantile_cont convention:
    linear interpolation at rank q*(n-1)) — the continuous companion to the
    quantile_disc query, same one-groupby co-partition topology."""

    def quants(g: pd.DataFrame) -> pd.DataFrame:
        v = g["o_totalprice"].sort_values().to_numpy()
        n = len(v)
        row = {"o_orderpriority": g["o_orderpriority"].iloc[0], "n_orders": n}
        for q in QUANTILES:
            h = q * (n - 1)
            lo = int(np.floor(h))
            hi = min(lo + 1, n - 1)
            frac = h - lo
            row[f"p{int(q * 100)}"] = float(v[lo] + (v[hi] - v[lo]) * frac)
        return pd.DataFrame([row])

    return (
        _read(sf_dir, "orders", ["o_orderpriority", "o_totalprice"])
        .groupby("o_orderpriority")
        .map_groups(quants, batch_format="pandas")
    )


SQL_ORDER_PRICE_QUANTILES_CONT = """
SELECT o_orderpriority,
       count(*) AS n_orders,
       quantile_cont(o_totalprice, 0.5) AS p50,
       quantile_cont(o_totalprice, 0.9) AS p90,
       quantile_cont(o_totalprice, 0.99) AS p99
FROM orders GROUP BY o_orderpriority
"""


PROFILE_COLUMNS = (
    "o_orderkey", "o_custkey", "o_orderstatus",
    "o_totalprice", "o_orderdate", "o_orderpriority",
)


def q_orders_profile(sf_dir: str) -> rd.Dataset:
    """Column profile of the orders table: per column, row count, null
    count, and EXACT distinct count — the data-quality probe every
    ingestion pipeline runs first. Row/null counts are one partial-combine
    pass over all columns; each distinct count is its own per-block-dedup
    -> tiny groupby-count pipeline on the TYPED column (so doubles and
    timestamps never round-trip through strings). Per-block dedup shrinks
    low-cardinality columns to a handful of rows before their exchange;
    for columns where even the distinct stream is huge at 100 TB, the HLL
    sketch (q_distinct_users_hll) is the documented approximate path."""
    from ray.data.aggregate import Sum as RSum

    counts_schema = pa.schema([
        ("col", pa.string()), ("n_rows", pa.int64()), ("n_nulls", pa.int64()),
    ])

    def count_partials(t: pa.Table) -> pa.Table:
        rows = [
            {"col": c, "n_rows": t.num_rows, "n_nulls": t[c].null_count}
            for c in PROFILE_COLUMNS
        ]
        return pa.Table.from_pylist(rows, schema=counts_schema)

    base = _read(sf_dir, "orders", list(PROFILE_COLUMNS))
    counts = (
        base.map_batches(count_partials, batch_format="pyarrow")
        .groupby("col")
        .aggregate(
            RSum("n_rows", alias_name="n_rows"),
            RSum("n_nulls", alias_name="n_nulls"),
        )
        .to_pandas()
        .set_index("col")
    )

    distinct: dict[str, int] = {}
    for c in PROFILE_COLUMNS:

        def block_distinct(t: pa.Table, _c=c) -> pa.Table:
            # nulls excluded, matching SQL count(DISTINCT col) — and Ray's
            # sort-based groupby can't order null against non-null anyway
            vals = pc.drop_null(pc.unique(t[_c]))
            return pa.Table.from_arrays([vals], names=[_c])

        distinct[c] = (
            _read(sf_dir, "orders", [c])
            .map_batches(block_distinct, batch_format="pyarrow")
            .groupby(c)
            .count()
            .count()
        )

    out = pd.DataFrame(
        {
            "col": list(PROFILE_COLUMNS),
            "n_rows": [int(counts.loc[c, "n_rows"]) for c in PROFILE_COLUMNS],
            "n_nulls": [int(counts.loc[c, "n_nulls"]) for c in PROFILE_COLUMNS],
            "n_distinct": [int(distinct[c]) for c in PROFILE_COLUMNS],
        }
    )
    return out


SQL_ORDERS_PROFILE = " UNION ALL ".join(
    f"SELECT '{c}' AS col, count(*) AS n_rows,"
    f" CAST(count(*) - count({c}) AS BIGINT) AS n_nulls,"
    f" count(DISTINCT {c}) AS n_distinct FROM orders"
    for c in PROFILE_COLUMNS
)


Q5_REGION = "ASIA"
Q5_DATE_LO = "1996-01-01"
Q5_DATE_HI = "1998-01-01"


def q_nation_revenue(sf_dir: str) -> rd.Dataset:
    """TPC-H Q5 shape: revenue by nation for one region and a date range,
    with the LOCAL-supplier condition (customer nation == supplier nation)
    — the 5-table join (region ⋈ nation ⋈ customer ⋈ orders ⋈ lineitem ⋈
    supplier) that mixes BOTH join regimes the engine has:
      - region/nation/supplier are dim-sized -> driver-collected broadcast
        maps via ray.put (supplier is sf x 10k rows; at a scale where even
        that outgrows broadcast, swap for a third hash_join — same code
        shape as the orders edge);
      - customer ⋈ orders and the lineitem edge are fact ⋈ fact -> two
        co-partitioned hash_joins, with lineitem pre-reduced per
        (l_orderkey, s_nationkey) per BLOCK so the join exchange moves
        integer-cent partials, not raw line items.
    The local-supplier filter runs vectorized right after the final join;
    per-nation partials then merge in a 5-row groupby. All money stays in
    integer cents end-to-end."""
    import pyarrow.dataset as pds

    lo, hi = pd.Timestamp(Q5_DATE_LO), pd.Timestamp(Q5_DATE_HI)

    # --- broadcast side: nations of the region, nationkey -> name, supplier map
    nation = pd.read_parquet(_pq(sf_dir, "nation"))
    region = pd.read_parquet(_pq(sf_dir, "region"))
    rkey = int(region.loc[region["r_name"] == Q5_REGION, "r_regionkey"].iloc[0])
    nat = nation[nation["n_regionkey"] == rkey]
    nation_names = dict(zip(nat["n_nationkey"].astype(int), nat["n_name"]))
    nation_keys = set(nation_names)
    supp = pd.read_parquet(_pq(sf_dir, "supplier"), columns=["s_suppkey", "s_nationkey"])
    # sorted key/value arrays, not a dict: the per-block lookup is then one
    # np.searchsorted over the whole column instead of a Python hash per row
    _sk = np.argsort(supp["s_suppkey"].to_numpy(dtype="int64"), kind="mergesort")
    supp_map_ref = ray.put((
        supp["s_suppkey"].to_numpy(dtype="int64")[_sk],
        supp["s_nationkey"].to_numpy(dtype="int64")[_sk],
    ))
    nk_ref = ray.put(nation_keys)

    # --- customers of the region's nations (broadcast filter at the read)
    def cust_filter(t: pa.Table) -> pa.Table:
        keys = ray.get(nk_ref)
        mask = pc.is_in(
            t["c_nationkey"], value_set=pa.array(sorted(keys), pa.int64())
        )
        return t.filter(mask).select(["c_custkey", "c_nationkey"])

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]).map_batches(
        cust_filter, batch_format="pyarrow"
    )
    orders = rd.read_parquet(
        _pq(sf_dir, "orders"),
        columns=["o_orderkey", "o_custkey"],
        filter=(pds.field("o_orderdate") >= lo) & (pds.field("o_orderdate") < hi),
    )
    # fact ⋈ fact #1: orders ⋈ customer -> (o_orderkey, c_nationkey)
    order_nation = hash_join(
        orders,
        cust,
        left_on="o_custkey",
        right_on="c_custkey",
        key_type=pa.int64(),
        left_fields=[pa.field("o_orderkey", pa.int64())],
        right_fields=[pa.field("c_nationkey", pa.int64())],
    ).select_columns(["o_orderkey", "c_nationkey"])

    # lineitem: map suppkey -> supplier nation (broadcast), pre-reduce per
    # (l_orderkey, s_nationkey) per block
    def li_partial(t: pa.Table) -> pa.Table:
        skeys, snats = ray.get(supp_map_ref)
        sk = t["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        s_nat = snats[np.searchsorted(skeys, sk)]
        rev = _cents(
            pc.multiply(
                t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"])
            )
        )
        rows = pa.Table.from_arrays(
            [pc.cast(t["l_orderkey"], pa.int64()),
             pa.array(s_nat),
             rev],
            names=["l_orderkey", "s_nationkey", "revenue_cents"],
        )
        g = rows.group_by(["l_orderkey", "s_nationkey"]).aggregate(
            [("revenue_cents", "sum")]
        )
        return pa.Table.from_arrays(
            [g["l_orderkey"], g["s_nationkey"],
             pc.cast(g["revenue_cents_sum"], pa.int64())],
            names=["l_orderkey", "s_nationkey", "revenue_cents"],
        )

    li = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"]
    ).map_batches(li_partial, batch_format="pyarrow")

    # fact ⋈ fact #2: lineitem partials ⋈ order_nation on orderkey
    joined = hash_join(
        li,
        order_nation,
        left_on="l_orderkey",
        right_on="o_orderkey",
        key_type=pa.int64(),
        left_fields=[pa.field("s_nationkey", pa.int64()),
                     pa.field("revenue_cents", pa.int64())],
        right_fields=[pa.field("c_nationkey", pa.int64())],
    )

    # local-supplier condition + per-nation block partials
    def local_partial(t: pa.Table) -> pa.Table:
        keep = pc.equal(t["s_nationkey"], t["c_nationkey"])
        f = t.filter(keep)
        g = pa.Table.from_arrays(
            [f["c_nationkey"], f["revenue_cents"]],
            names=["n_nationkey", "revenue_cents"],
        ).group_by("n_nationkey").aggregate([("revenue_cents", "sum")])
        return pa.Table.from_arrays(
            [g["n_nationkey"], pc.cast(g["revenue_cents_sum"], pa.int64())],
            names=["n_nationkey", "revenue_cents"],
        )

    merged = (
        joined.map_batches(local_partial, batch_format="pyarrow")
        .repartition(8)
        .groupby("n_nationkey")
        .aggregate(Sum("revenue_cents", alias_name="revenue_cents"))
    )

    def name_it(t: pa.Table) -> pa.Table:
        names = [nation_names[int(k)] for k in t["n_nationkey"].to_pylist()]
        return pa.Table.from_arrays(
            [pa.array(names, pa.string()),
             pc.cast(t["revenue_cents"], pa.int64())],
            names=["n_name", "revenue_cents"],
        )

    return merged.map_batches(name_it, batch_format="pyarrow")


SQL_NATION_REVENUE = f"""
SELECT n.n_name,
       CAST(sum(CAST(round(l.l_extendedprice * (1 - l.l_discount) * 100) AS BIGINT)) AS BIGINT)
         AS revenue_cents
FROM region r
JOIN nation n ON n.n_regionkey = r.r_regionkey
JOIN customer c ON c.c_nationkey = n.n_nationkey
JOIN orders o ON o.o_custkey = c.c_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
JOIN supplier s ON s.s_suppkey = l.l_suppkey AND s.s_nationkey = c.c_nationkey
WHERE r.r_name = '{Q5_REGION}'
  AND o.o_orderdate >= TIMESTAMP '{Q5_DATE_LO} 00:00:00'
  AND o.o_orderdate < TIMESTAMP '{Q5_DATE_HI} 00:00:00'
GROUP BY n.n_name
"""


SALT_BUCKETS = 16


def q_distinct_users_per_type_salted(sf_dir: str) -> rd.Dataset:
    """EXACT distinct users per event type via SALTED two-level aggregation
    — the hot-key treatment for HOLISTIC aggregates (the north rule's
    'salt hot keys' clause, applied to an aggregate instead of a join).
    event_type has only 5 values, so a naive groupby(event_type) +
    in-group dedup concentrates each hot key's entire user stream in ONE
    task. Salting by hash(user_id) % SALT_BUCKETS splits every key into
    disjoint-BY-CONSTRUCTION user subsets: per-(type, salt) distinct
    counts are computed independently (bounded per-task memory) and SUM
    exactly — no approximation, no single-task bottleneck. Per-block
    dedup shrinks the stream before the one (type, salt) exchange."""

    def block_partial(t: pa.Table) -> pa.Table:
        uid = pc.cast(t["user_id"], pa.int64())
        salt = pc.bit_wise_and(uid, pa.scalar(SALT_BUCKETS - 1, pa.int64()))
        g = pa.Table.from_arrays(
            [t["event_type"], pa.chunked_array([salt]) if isinstance(salt, pa.ChunkedArray) else salt, uid],
            names=["event_type", "salt", "user_id"],
        ).group_by(["event_type", "salt", "user_id"]).aggregate([])
        return g

    def count_salt_group(g: pd.DataFrame) -> pd.DataFrame:
        # rows of one (type, salt) shard: distinct users across blocks
        n = g["user_id"].nunique()
        return pd.DataFrame(
            {"event_type": [g["event_type"].iloc[0]],
             "salt": [int(g["salt"].iloc[0])],
             "n_users": pd.Series([n], dtype="int64")}
        )

    per_salt = (
        _read(sf_dir, "events", ["event_type", "user_id"])
        .map_batches(block_partial, batch_format="pyarrow")
        .groupby(["event_type", "salt"])
        .map_groups(count_salt_group, batch_format="pandas")
    )
    return per_salt.groupby("event_type").aggregate(
        Sum("n_users", alias_name="n_users")
    )


SQL_DISTINCT_USERS_PER_TYPE_SALTED = """
SELECT event_type, count(DISTINCT user_id) AS n_users
FROM events GROUP BY event_type
"""


def q_events_transitions(sf_dir: str) -> rd.Dataset:
    """Per-user ordered event-type transition counts (the Markov-chain view
    of behavior): for each user's time-ordered event stream, count every
    consecutive (prev_type, next_type) pair, then sum across users. ONE
    hash_exchange on user_id; inside a shard the sort, the per-user shift,
    and the pair groupby are vectorized (the boundary between users is
    masked out, so no per-user loop). Ties on ts are ordered by event_id —
    deterministic and replayed identically by the SQL window."""
    out_schema = pa.schema([
        pa.field("prev_type", pa.string()), pa.field("next_type", pa.string()),
        pa.field("n", pa.int64()),
    ])

    def shard_transitions(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        df = t.to_pandas().sort_values(
            ["user_id", "ts", "event_id"], kind="mergesort"
        )
        same_user = df["user_id"].eq(df["user_id"].shift()).to_numpy()
        prev_t = df["event_type"].shift().to_numpy()
        pairs = pd.DataFrame({
            "prev_type": prev_t[same_user],
            "next_type": df["event_type"].to_numpy()[same_user],
        })
        agg = pairs.groupby(["prev_type", "next_type"], sort=False).size()
        agg = agg.reset_index(name="n")
        return pa.Table.from_arrays(
            [pa.array(agg["prev_type"], pa.string()),
             pa.array(agg["next_type"], pa.string()),
             pa.array(agg["n"].to_numpy(dtype="int64"))],
            schema=out_schema,
        )

    partials = hash_exchange(
        _read(sf_dir, "events", ["user_id", "ts", "event_id", "event_type"]),
        ["user_id"],
        shard_transitions,
        out_schema,
    )
    return partials.groupby(["prev_type", "next_type"]).aggregate(
        Sum("n", alias_name="n")
    )


SQL_EVENTS_TRANSITIONS = """
WITH s AS (
  SELECT user_id, event_type,
         lag(event_type) OVER (PARTITION BY user_id ORDER BY ts, event_id)
           AS prev_type
  FROM events
)
SELECT prev_type, event_type AS next_type, count(*) AS n
FROM s WHERE prev_type IS NOT NULL
GROUP BY prev_type, next_type
"""


def q_customer_activity_reconcile(sf_dir: str) -> rd.Dataset:
    """FULL OUTER co-partitioned hash join — the reconciliation shape:
    per-customer order counts vs per-user event counts, keeping keys that
    exist on only ONE side (customers who order but never click, users who
    click but never order) with typed nulls on the other. Both inputs are
    per-block partial counts and both per-key combines are fused into the
    join's single exchange (combine_left_sum + combine_right_sum) — two
    fact tables reconciled with ONE shuffle of integer partials."""

    def count_partial(key_in: str, key_out: str, val: str):
        def f(t: pa.Table) -> pa.Table:
            g = t.group_by(key_in).aggregate([([], "count_all")])
            return pa.Table.from_arrays(
                [pc.cast(g[key_in], pa.int64()), pc.cast(g["count_all"], pa.int64())],
                names=[key_out, val],
            )

        return f

    orders = _read(sf_dir, "orders", ["o_custkey"]).map_batches(
        count_partial("o_custkey", "custkey", "n_orders"), batch_format="pyarrow"
    )
    events = _read(sf_dir, "events", ["user_id"]).map_batches(
        count_partial("user_id", "user_id", "n_events"), batch_format="pyarrow"
    )
    return hash_join(
        orders,
        events,
        left_on="custkey",
        right_on="user_id",
        key_type=pa.int64(),
        left_fields=[pa.field("n_orders", pa.int64())],
        right_fields=[pa.field("n_events", pa.int64())],
        combine_left_sum=True,
        combine_right_sum=True,
        how="full",
    )


SQL_CUSTOMER_ACTIVITY_RECONCILE = """
WITH o AS (SELECT o_custkey AS k, count(*) AS n_orders FROM orders GROUP BY 1),
e AS (SELECT user_id AS k, count(*) AS n_events FROM events GROUP BY 1)
SELECT coalesce(o.k, e.k) AS custkey, o.n_orders, e.n_events
FROM o FULL OUTER JOIN e ON o.k = e.k
"""


BASKET_MIN_COUNT = 2


def q_part_cooccurrence(sf_dir: str) -> rd.Dataset:
    """Market-basket co-occurrence: unordered part pairs appearing together
    in at least BASKET_MIN_COUNT orders — the within-group PAIR-EXPLOSION
    shape (relational cousin of the shingle/banding explosions). ONE
    hash_exchange on l_orderkey co-locates each order's line items; inside
    a shard the pair generation is a vectorized pandas self-merge on
    orderkey filtered to a < b (bounded: pairs per order = k(k-1)/2 with
    k = lines per order, ~4), pre-reduced to per-shard pair counts; a
    SECOND hash_exchange on (part_a, part_b) merges the per-shard partial
    counts and applies the support threshold inside the shard task (valid
    there: after that exchange every partial for a pair is co-located).
    The pair stream is NOT tiny (~6 pairs/order, mostly count 1 — it
    outnumbers the orders), so the merge uses the same int64-shard
    exchange as every other keyed operator instead of a two-string-column
    sort-shuffle groupby; the support filter then prunes ~95% of pairs
    before anything leaves the merge task."""
    pair_schema = pa.schema([
        pa.field("part_a", pa.int64()), pa.field("part_b", pa.int64()),
        pa.field("n_orders", pa.int64()),
    ])

    def shard_pairs(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pair_schema.empty_table()
        df = t.to_pandas().drop_duplicates()  # same part twice in one order counts once
        m = df.merge(df, on="l_orderkey")
        m = m[m["l_partkey_x"] < m["l_partkey_y"]]
        agg = (
            m.groupby(["l_partkey_x", "l_partkey_y"], sort=False)
            .size()
            .reset_index(name="n_orders")
        )
        return pa.Table.from_arrays(
            [pa.array(agg["l_partkey_x"].to_numpy(dtype="int64")),
             pa.array(agg["l_partkey_y"].to_numpy(dtype="int64")),
             pa.array(agg["n_orders"].to_numpy(dtype="int64"))],
            schema=pair_schema,
        )

    partials = hash_exchange(
        _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"]),
        ["l_orderkey"],
        shard_pairs,
        pair_schema,
    )

    def merge_support(t: pa.Table) -> pa.Table:
        agg = t.group_by(["part_a", "part_b"]).aggregate([("n_orders", "sum")])
        agg = agg.filter(
            pc.greater_equal(
                agg["n_orders_sum"], pa.scalar(BASKET_MIN_COUNT, pa.int64())
            )
        )
        return pa.Table.from_arrays(
            [agg["part_a"], agg["part_b"], pc.cast(agg["n_orders_sum"], pa.int64())],
            names=["part_a", "part_b", "n_orders"],
        )

    return hash_exchange(partials, ["part_a", "part_b"], merge_support, pair_schema)


SQL_PART_COOCCURRENCE = f"""
WITH li AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem)
SELECT a.l_partkey AS part_a, b.l_partkey AS part_b, count(*) AS n_orders
FROM li a JOIN li b
  ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
GROUP BY 1, 2
HAVING count(*) >= {BASKET_MIN_COUNT}
"""


NTILE_BUCKETS = 4


def q_orders_ntile(sf_dir: str) -> rd.Dataset:
    """NTILE window function: each order's price quartile WITHIN its
    priority class (deterministic total order: price, then orderkey —
    ties must be pinned or ntile is nondeterministic in any engine). One
    groupby co-partitions each priority; inside the group the sort and
    the SQL-standard bucket sizing (first n % k buckets get one extra
    row) are vectorized numpy."""

    def tiles(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["o_totalprice", "o_orderkey"], kind="mergesort")
        n = len(g)
        base, extra = divmod(n, NTILE_BUCKETS)
        sizes = np.full(NTILE_BUCKETS, base, dtype=np.int64)
        sizes[:extra] += 1
        buckets = np.repeat(np.arange(1, NTILE_BUCKETS + 1, dtype=np.int64), sizes)
        return pd.DataFrame({
            "o_orderkey": g["o_orderkey"].to_numpy(),
            "o_orderpriority": g["o_orderpriority"].to_numpy(),
            "quartile": buckets[:n],
        })

    return (
        _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority", "o_totalprice"])
        .groupby("o_orderpriority")
        .map_groups(tiles, batch_format="pandas")
    )


SQL_ORDERS_NTILE = f"""
SELECT o_orderkey, o_orderpriority,
       CAST(ntile({NTILE_BUCKETS}) OVER (
         PARTITION BY o_orderpriority
         ORDER BY o_totalprice, o_orderkey) AS BIGINT) AS quartile
FROM orders
"""


# ---------------------------------------------------------------------------
# Offset windows (LAG/LEAD) and set intersection — the remaining window /
# set-op shapes of a general engine (SURVEY.md §2.6/§2.7 list only ranks,
# running sums and EXCEPT)
# ---------------------------------------------------------------------------


def q_user_event_gaps(sf_dir: str) -> rd.Dataset:
    """Offset windows: per event, microseconds since the user's PREVIOUS
    event (LAG) and until the NEXT one (LEAD), -1 at the partition edges —
    the inter-arrival-time shape behind session gap tuning and bot
    detection. ONE hash_exchange on user_id co-locates each user's events;
    inside a shard the whole window is three vectorized steps (one
    mergesort by (user, ts, event_id), one C-level groupby diff each way) —
    no per-user dispatch. The unique event_id tiebreak pins a total order
    so the result is exact at any parallelism."""
    out_schema = pa.schema([
        pa.field("event_id", pa.int64()), pa.field("user_id", pa.int64()),
        pa.field("prev_gap_us", pa.int64()), pa.field("next_gap_us", pa.int64()),
    ])

    def shard_gaps(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        df = pa.Table.from_arrays(
            [t["event_id"], t["user_id"], pc.cast(t["ts"], pa.int64())],
            names=["event_id", "user_id", "ts_us"],
        ).to_pandas()
        df = df.sort_values(["user_id", "ts_us", "event_id"], kind="mergesort")
        g = df.groupby("user_id", sort=False)["ts_us"]
        prev_gap = g.diff().fillna(-1).astype("int64")
        next_gap = (-g.diff(-1)).fillna(-1).astype("int64")
        return pa.Table.from_arrays(
            [
                pa.array(df["event_id"].to_numpy(dtype="int64")),
                pa.array(df["user_id"].to_numpy(dtype="int64")),
                pa.array(prev_gap.to_numpy(dtype="int64")),
                pa.array(next_gap.to_numpy(dtype="int64")),
            ],
            schema=out_schema,
        )

    return hash_exchange(
        _read(sf_dir, "events", ["event_id", "user_id", "ts"]),
        ["user_id"],
        shard_gaps,
        out_schema,
    )


SQL_USER_EVENT_GAPS = """
SELECT event_id, user_id,
       CAST(coalesce(epoch_us(ts) - lag(epoch_us(ts)) OVER w, -1) AS BIGINT)
         AS prev_gap_us,
       CAST(coalesce(lead(epoch_us(ts)) OVER w - epoch_us(ts), -1) AS BIGINT)
         AS next_gap_us
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
"""


INTERSECT_NATION_A = "NATION_1"
INTERSECT_NATION_B = "NATION_2"


def q_parts_both_nations(sf_dir: str) -> rd.Dataset:
    """INTERSECT set op: part keys shipped by suppliers of BOTH nation A and
    nation B. The supplier->nation side is a genuinely small dimension
    (10k rows/sf), so it broadcasts via ray.put; each lineitem block then
    pre-combines to per-block (partkey, in_a, in_b) membership flags — the
    stream that reaches the exchange is one row per distinct partkey per
    block, not per lineitem — and ONE hash_exchange on partkey ORs the
    flags and keeps keys with both. Set intersection distributes as a
    flag-max aggregate, the same partial-combine shape as every other
    keyed reduce here (EXCEPT is q_customers_not_event_users)."""
    supp = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]).to_pandas()
    nat = _read(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    key_a = set(nat[nat["n_name"] == INTERSECT_NATION_A]["n_nationkey"])
    key_b = set(nat[nat["n_name"] == INTERSECT_NATION_B]["n_nationkey"])
    supp_a = supp[supp["s_nationkey"].isin(key_a)]["s_suppkey"].to_numpy(dtype="int64")
    supp_b = supp[supp["s_nationkey"].isin(key_b)]["s_suppkey"].to_numpy(dtype="int64")
    ref = ray.put((np.sort(supp_a), np.sort(supp_b)))

    flag_schema = pa.schema([
        pa.field("partkey", pa.int64()),
        pa.field("in_a", pa.int64()), pa.field("in_b", pa.int64()),
    ])

    def flags(t: pa.Table, _ref=ref) -> pa.Table:
        sa, sb = ray.get(_ref)
        sk = t["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        in_a = np.isin(sk, sa).astype(np.int64)
        in_b = np.isin(sk, sb).astype(np.int64)
        keep = (in_a | in_b).astype(bool)
        if not keep.any():
            return flag_schema.empty_table()
        pk = t["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        tt = pa.Table.from_arrays(
            [pa.array(pk[keep]), pa.array(in_a[keep]), pa.array(in_b[keep])],
            names=["partkey", "in_a", "in_b"],
        )
        g = tt.group_by("partkey").aggregate([("in_a", "max"), ("in_b", "max")])
        return pa.Table.from_arrays(
            [g["partkey"], g["in_a_max"], g["in_b_max"]],
            names=["partkey", "in_a", "in_b"],
        )

    out_schema = pa.schema([pa.field("partkey", pa.int64())])

    def intersect(t: pa.Table) -> pa.Table:
        g = t.group_by("partkey").aggregate([("in_a", "max"), ("in_b", "max")])
        both = pc.and_(
            pc.equal(g["in_a_max"], pa.scalar(1, pa.int64())),
            pc.equal(g["in_b_max"], pa.scalar(1, pa.int64())),
        )
        return pa.Table.from_arrays([g.filter(both)["partkey"]], names=["partkey"])

    return schema_anchor(hash_exchange(
        _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey"]).map_batches(
            flags, batch_format="pyarrow"
        ),
        ["partkey"],
        intersect,
        out_schema,
    ), out_schema)  # the intersection can be empty at small sf


SQL_PARTS_BOTH_NATIONS = f"""
SELECT DISTINCT l_partkey AS partkey
FROM lineitem JOIN supplier ON l_suppkey = s_suppkey
              JOIN nation ON s_nationkey = n_nationkey
WHERE n_name = '{INTERSECT_NATION_A}'
INTERSECT
SELECT DISTINCT l_partkey AS partkey
FROM lineitem JOIN supplier ON l_suppkey = s_suppkey
              JOIN nation ON s_nationkey = n_nationkey
WHERE n_name = '{INTERSECT_NATION_B}'
"""


def q_orders_above_cust_avg(sf_dir: str) -> rd.Dataset:
    """Correlated-subquery decorrelation: orders strictly above their OWN
    customer's average order value ("price > AVG(...) per customer" — the
    shape optimizers rewrite into a window/co-partition plan). ONE
    hash_exchange on o_custkey; inside a shard the per-customer sum/count
    come from one C-level groupby-transform and the comparison is the
    INTEGER cross-multiplication cents * n > sum — no division, no floats,
    so the result is exact at any parallelism."""
    out_schema = pa.schema([
        pa.field("o_orderkey", pa.int64()), pa.field("o_custkey", pa.int64()),
        pa.field("cents", pa.int64()),
    ])

    def shard_filter(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        df = pa.Table.from_arrays(
            [t["o_orderkey"], t["o_custkey"], _cents(t["o_totalprice"])],
            names=["o_orderkey", "o_custkey", "cents"],
        ).to_pandas()
        g = df.groupby("o_custkey", sort=False)["cents"]
        s = g.transform("sum").to_numpy()
        n = g.transform("size").to_numpy()
        keep = df["cents"].to_numpy() * n > s
        out = df.loc[keep]
        return pa.Table.from_arrays(
            [pa.array(out["o_orderkey"].to_numpy(dtype="int64")),
             pa.array(out["o_custkey"].to_numpy(dtype="int64")),
             pa.array(out["cents"].to_numpy(dtype="int64"))],
            schema=out_schema,
        )

    return hash_exchange(
        _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"]),
        ["o_custkey"],
        shard_filter,
        out_schema,
    )


SQL_ORDERS_ABOVE_CUST_AVG = """
SELECT o_orderkey, o_custkey, cents
FROM (
  SELECT o_orderkey, o_custkey,
         CAST(round(o_totalprice * 100) AS BIGINT) AS cents,
         sum(CAST(round(o_totalprice * 100) AS BIGINT))
           OVER (PARTITION BY o_custkey) AS s,
         count(*) OVER (PARTITION BY o_custkey) AS n
  FROM orders
)
WHERE cents * n > s
"""


def q_events_outliers(sf_dir: str) -> rd.Dataset:
    """Per-user anomaly detection: events whose value is more than two
    standard deviations ABOVE the user's own mean — the per-key z-score
    outlier shape, made integer-exact by clearing denominators: with
    n = user's event count, s = sum(cents), q = sum(cents^2),
    v > mean + 2*sigma  <=>  (v*n - s) > 0  AND  (v*n - s)^2 > 4*(n*q - s^2).
    No division, no sqrt, no floats — bit-reproducible at any parallelism
    and replayed verbatim by the SQL oracle. ONE hash_exchange on user_id;
    per-shard moments come from C-level groupby transforms. int64 domain
    guard: |v*n - s| and the variance term must stay below 2^31.5-scale
    squares; the operator RAISES on overflow instead of wrapping (at cents
    <= 2^21 this allows ~2^20 events per user — beyond that, window the
    stream per epoch before flagging)."""
    out_schema = pa.schema([
        pa.field("event_id", pa.int64()), pa.field("user_id", pa.int64()),
        pa.field("cents", pa.int64()),
    ])

    def shard_flag(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        df = pa.Table.from_arrays(
            [t["event_id"], t["user_id"], _cents(t["value"])],
            names=["event_id", "user_id", "cents"],
        ).to_pandas()
        g = df.groupby("user_id", sort=False)["cents"]
        n = g.transform("size").to_numpy()
        s = g.transform("sum").to_numpy()
        sq = df["cents"].to_numpy() ** 2
        q = (
            df.assign(sq=sq).groupby("user_id", sort=False)["sq"]
            .transform("sum").to_numpy()
        )
        v = df["cents"].to_numpy()
        dev = v * n - s
        var_term = n * q - s * s
        if (np.abs(dev) >= 3_000_000_000).any() or (var_term < 0).any():
            raise OverflowError("events_outliers: int64 moment domain exceeded")
        keep = (dev > 0) & (dev * dev > 4 * var_term)
        out = df.loc[keep]
        return pa.Table.from_arrays(
            [pa.array(out["event_id"].to_numpy(dtype="int64")),
             pa.array(out["user_id"].to_numpy(dtype="int64")),
             pa.array(out["cents"].to_numpy(dtype="int64"))],
            schema=out_schema,
        )

    return hash_exchange(
        _read(sf_dir, "events", ["event_id", "user_id", "value"]),
        ["user_id"],
        shard_flag,
        out_schema,
    )


SQL_EVENTS_OUTLIERS = """
SELECT event_id, user_id, cents
FROM (
  SELECT event_id, user_id,
         CAST(round(value * 100) AS BIGINT) AS cents,
         count(*) OVER w AS n,
         sum(CAST(round(value * 100) AS BIGINT)) OVER w AS s,
         sum(CAST(round(value * 100) AS BIGINT)
             * CAST(round(value * 100) AS BIGINT)) OVER w AS q
  FROM events
  WINDOW w AS (PARTITION BY user_id)
)
WHERE (cents * n - s) > 0
  AND (cents * n - s) * (cents * n - s) > 4 * (n * q - s * s)
"""


def q_distinct_users_hll_by_type(sf_dir: str) -> pd.DataFrame:
    """GROUPED HyperLogLog: approximate distinct users PER EVENT TYPE — the
    sketch-per-key shape that replaces an exact per-group distinct's full
    shuffle at web scale: each block contributes one 4 KiB register array
    per key it saw, and the merge is an element-wise max per key (keys x
    4 KiB, independent of row count). Same deterministic md5 registers and
    exact-integer harmonic estimate as the global q_distinct_users_hll, so
    the grouped estimates are bit-reproducible and SQL-replayed exactly."""
    import numpy as np

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        types, regs = [], []
        for et, g in df.groupby("event_type", sort=False):
            types.append(et)
            regs.append(_hll_registers(g["user_id"].tolist()).tolist())
        return pd.DataFrame({
            "event_type": pd.Series(types, dtype="object"),
            "registers": pd.Series(regs, dtype="object"),
        })

    merged: dict = {}
    for b in (
        _read(sf_dir, "events", ["user_id", "event_type"])
        .map_batches(partial, batch_format="pandas")
        .iter_batches(batch_format="pandas")
    ):
        for et, r in zip(b["event_type"], b["registers"]):
            arr = np.asarray(r, dtype=np.uint8)
            if et in merged:
                np.maximum(merged[et], arr, out=merged[et])
            else:
                merged[et] = arr.copy()
    rows = sorted((et, _hll_estimate(r)) for et, r in merged.items())
    return pd.DataFrame({
        "event_type": pd.Series([r[0] for r in rows], dtype="object"),
        "n_distinct_users_est": pd.Series([r[1] for r in rows], dtype="int64"),
    })


def _sql_distinct_users_hll_by_type() -> str:
    """Grouped twin of _sql_distinct_users_hll: identical register and
    estimate arithmetic with event_type threaded through every level."""
    m = 1 << HLL_P

    def hexbyte(col: str, idx: int) -> str:
        c1 = f"substr({col}, {2 * idx + 1}, 1)"
        c2 = f"substr({col}, {2 * idx + 2}, 1)"
        return (
            f"((instr('0123456789abcdef', {c1}) - 1) * 16"
            f" + instr('0123456789abcdef', {c2}) - 1)"
        )

    u64 = " + ".join(
        f"CAST({hexbyte('md5(CAST(user_id AS VARCHAR))', j)} AS UBIGINT) * {256 ** j}"
        for j in range(8)
    )
    rank_case = (
        "CASE "
        + " ".join(f"WHEN w >= {1 << (52 - r)} THEN {r}" for r in range(1, 53))
        + " ELSE 53 END"
    )
    est = (
        f"(0.7213 / (1 + 1.079 / {m})) * {m} * {m} * {float(1 << 53)!r}"
        f" / CAST(n_int AS DOUBLE)"
    )
    return f"""
WITH h AS (
  SELECT event_type, ({u64}) AS hv FROM events
),
w AS (SELECT event_type, hv % {m} AS idx, hv >> {HLL_P} AS w FROM h),
regs AS (SELECT event_type, idx, max({rank_case}) AS rank FROM w GROUP BY 1, 2),
agg AS (
  SELECT event_type, count(*) AS n_present,
         SUM(CAST(CASE rank
           {" ".join(f"WHEN {r} THEN {1 << (53 - r)}" for r in range(1, 54))}
         END AS HUGEINT)) AS present_sum
  FROM regs GROUP BY 1
),
folded AS (
  SELECT event_type, ({m} - n_present) AS zeros,
         present_sum + CAST(({m} - n_present) AS HUGEINT) * {1 << 53} AS n_int
  FROM agg
)
SELECT event_type, CAST(round_even(CASE
    WHEN {est} <= 2.5 * {m} AND zeros > 0
    THEN {m} * ln({m} / CAST(zeros AS DOUBLE))
    ELSE {est}
  END, 0) AS BIGINT) AS n_distinct_users_est
FROM folded
"""


SQL_DISTINCT_USERS_HLL_BY_TYPE = _sql_distinct_users_hll_by_type()


def q_orders_percent_rank(sf_dir: str) -> rd.Dataset:
    """PERCENT_RANK window in exact integer parts-per-million:
    ppm = (rank - 1) * 1e6 // (n - 1) within each priority class, rank by
    (price, orderkey) — float-free so the driver's value hash matches at
    any parallelism (SQL's native percent_rank() returns a double; both
    sides compute the integer formula instead). One groupby co-partitions
    each priority; ranks are a vectorized argsort inside the group."""

    def ranks(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["o_totalprice", "o_orderkey"], kind="mergesort")
        n = len(g)
        r = np.arange(n, dtype=np.int64)
        ppm = r * 1_000_000 // max(1, n - 1) if n > 1 else np.zeros(1, dtype=np.int64)
        return pd.DataFrame({
            "o_orderkey": g["o_orderkey"].to_numpy(),
            "o_orderpriority": g["o_orderpriority"].to_numpy(),
            "pct_rank_ppm": ppm,
        })

    return (
        _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority", "o_totalprice"])
        .groupby("o_orderpriority")
        .map_groups(ranks, batch_format="pandas")
    )


SQL_ORDERS_PERCENT_RANK = """
SELECT o_orderkey, o_orderpriority,
       CAST((CAST(rank() OVER (
              PARTITION BY o_orderpriority
              ORDER BY o_totalprice, o_orderkey) AS BIGINT) - 1) * 1000000
            // greatest(1, CAST(count(*) OVER (
              PARTITION BY o_orderpriority) AS BIGINT) - 1)
            AS BIGINT) AS pct_rank_ppm
FROM orders
"""


def q_user_event_paths(sf_dir: str) -> rd.Dataset:
    """Sequence assembly: each user's full event-type path in time order as
    one '>'-joined string — the sessions-to-sequences shape behavioral
    models train on. ONE hash_exchange on user_id; inside a shard the path
    is one mergesort + one C-level groupby string-join (no per-user Python
    dispatch). (ts, event_id) pins tie order. At web scale, truncate or
    window per epoch upstream — a path column is only as bounded as the
    per-user event count."""
    out_schema = pa.schema([
        pa.field("user_id", pa.int64()), pa.field("path", pa.string()),
        pa.field("n_events", pa.int64()),
    ])

    def shard_paths(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        df = pa.Table.from_arrays(
            [t["user_id"], pc.cast(t["ts"], pa.int64()), t["event_id"],
             t["event_type"]],
            names=["user_id", "ts_us", "event_id", "event_type"],
        ).to_pandas()
        df = df.sort_values(["user_id", "ts_us", "event_id"], kind="mergesort")
        g = df.groupby("user_id", sort=False)["event_type"]
        agg = g.agg(">".join)
        n = g.size()
        return pa.Table.from_arrays(
            [pa.array(agg.index.to_numpy(dtype="int64")),
             pa.array(agg.to_numpy(dtype=object), pa.string()),
             pa.array(n.to_numpy(dtype="int64"))],
            schema=out_schema,
        )

    return hash_exchange(
        _read(sf_dir, "events", ["user_id", "ts", "event_id", "event_type"]),
        ["user_id"],
        shard_paths,
        out_schema,
    )


SQL_USER_EVENT_PATHS = """
SELECT user_id,
       string_agg(event_type, '>' ORDER BY ts, event_id) AS path,
       count(*) AS n_events
FROM events
GROUP BY user_id
"""


EQD_BUCKETS = 8


def q_order_price_histogram_eqd(sf_dir: str) -> rd.Dataset:
    """EQUI-DEPTH histogram of order prices: bucket boundaries at the exact
    k/B quantiles (DuckDB's quantile_disc convention, element ceil(q*n)-1),
    then per-bucket counts — the optimizer-statistics shape (equi-WIDTH is
    q_order_price_histogram). Two passes: pass 1 computes the B boundaries
    with the same single-group exact sort as q_order_price_quantiles (same
    documented one-task bound; t-digest is the scale path), pass 2
    broadcasts the tiny boundary array and pre-combines per-block
    searchsorted counts so the final groupby moves <= B rows per block.
    All cents-integer; only non-empty buckets are emitted (GROUP BY
    semantics on both sides)."""
    import math

    cents = (
        _read(sf_dir, "orders", ["o_totalprice"])
        .map_batches(
            lambda t: pa.Table.from_arrays([_cents(t["o_totalprice"])],
                                           names=["c"]),
            batch_format="pyarrow",
        )
        .materialize()
    )
    def bounds_fn(g: pd.DataFrame) -> pd.DataFrame:
        v = np.sort(g["c"].to_numpy())
        n = len(v)
        return pd.DataFrame({
            "k": np.arange(1, EQD_BUCKETS + 1, dtype=np.int64),
            "b": [int(v[max(0, math.ceil(k / EQD_BUCKETS * n) - 1)])
                  for k in range(1, EQD_BUCKETS + 1)],
        })

    # exact path: the sort happens in ONE GROUP TASK (same documented
    # one-task bound as q_order_price_quantiles; t-digest is the 100x
    # path) — only the B boundary rows reach the driver for broadcast.
    bdf = (
        cents.map_batches(
            lambda t: t.append_column("g", pa.nulls(t.num_rows, pa.int64())
                                      .fill_null(0)),
            batch_format="pyarrow",
        )
        .groupby("g")
        .map_groups(bounds_fn, batch_format="pandas")
        .to_pandas()
        .sort_values("k")
    )
    bounds = bdf["b"].to_numpy(dtype="int64")
    bref = ray.put(bounds)

    part_schema = pa.schema([("bucket", pa.int64()), ("n_orders", pa.int64())])

    def partial(t: pa.Table, _b=bref) -> pa.Table:
        b = ray.get(_b)
        c = t["c"].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(b, c, side="left")
        counts = np.bincount(idx, minlength=EQD_BUCKETS)
        nz = np.flatnonzero(counts)
        return pa.Table.from_arrays(
            [pa.array(nz + 1, pa.int64()),
             pa.array(counts[nz], pa.int64())],
            schema=part_schema,
        )

    def finish(t: pa.Table, _b=bref) -> pa.Table:
        b = ray.get(_b)
        g = t.group_by("bucket").aggregate([("n_orders", "sum")])
        buckets = g["bucket"].to_numpy(zero_copy_only=False)
        return pa.Table.from_arrays(
            [pa.array(buckets, pa.int64()),
             pa.array(b[buckets - 1], pa.int64()),
             pc.cast(g["n_orders_sum"], pa.int64())],
            names=["bucket", "hi_cents", "n_orders"],
        )

    return (
        cents.map_batches(partial, batch_format="pyarrow")
        .repartition(8)
        .map_batches(finish, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(Sum("n_orders", alias_name="n_orders"),
                   Max("hi_cents", alias_name="hi_cents"))
        .map_batches(
            lambda t: t.select(["bucket", "hi_cents", "n_orders"]),
            batch_format="pyarrow",
        )
    )


def _sql_eqd() -> str:
    bs = ", ".join(
        f"quantile_disc(c, {k}/{EQD_BUCKETS}.0) AS b{k}"
        for k in range(1, EQD_BUCKETS + 1)
    )
    case = (
        "CASE "
        + " ".join(f"WHEN c <= b{k} THEN {k}" for k in range(1, EQD_BUCKETS + 1))
        + " END"
    )
    hi = (
        "CASE bucket "
        + " ".join(f"WHEN {k} THEN b{k}" for k in range(1, EQD_BUCKETS + 1))
        + " END"
    )
    return f"""
WITH v AS (SELECT CAST(round(o_totalprice * 100) AS BIGINT) AS c FROM orders),
bounds AS (SELECT {bs} FROM v),
tagged AS (SELECT {case} AS bucket, * FROM v CROSS JOIN bounds)
SELECT bucket, CAST({hi} AS BIGINT) AS hi_cents, count(*) AS n_orders
FROM tagged
GROUP BY bucket, {hi.replace("bucket", "bucket")}
"""


SQL_ORDER_PRICE_HISTOGRAM_EQD = _sql_eqd()


def q_orders_mom(sf_dir: str) -> pd.DataFrame:
    """Aggregate-then-window composition: monthly revenue with the
    month-over-month delta — the reporting shape (GROUP BY month, then
    LAG over the aggregated series). Per-block pyarrow partials
    pre-combine (month, cents, n) so the groupby moves <= #months rows per
    block; the aggregated series is calendar-scale (~tens of rows), so the
    window runs on the driver — windowing a RESULT is not a driver-side
    loop over data. All integer cents."""

    def partial(t: pa.Table) -> pa.Table:
        months = pc.strftime(t["o_orderdate"], format="%Y-%m")
        rows = pa.Table.from_arrays(
            [months, _cents(t["o_totalprice"])], names=["month", "cents"]
        )
        g = rows.group_by("month").aggregate([("cents", "sum"), ([], "count_all")])
        return pa.Table.from_arrays(
            [g["month"], pc.cast(g["cents_sum"], pa.int64()),
             pc.cast(g["count_all"], pa.int64())],
            names=["month", "revenue_cents", "n_orders"],
        )

    agg = (
        _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])
        .map_batches(partial, batch_format="pyarrow")
        .repartition(8)
        .groupby("month")
        .aggregate(Sum("revenue_cents", alias_name="revenue_cents"),
                   Sum("n_orders", alias_name="n_orders"))
        .to_pandas()
        .sort_values("month")
        .reset_index(drop=True)
    )
    delta = agg["revenue_cents"].diff().fillna(0).astype("int64")
    return pd.DataFrame({
        "month": agg["month"],
        "revenue_cents": agg["revenue_cents"].astype("int64"),
        "n_orders": agg["n_orders"].astype("int64"),
        "delta_cents": delta,
    })


SQL_ORDERS_MOM = """
WITH m AS (
  SELECT strftime(o_orderdate, '%Y-%m') AS month,
         CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT)
           AS revenue_cents,
         count(*) AS n_orders
  FROM orders GROUP BY 1
)
SELECT month, revenue_cents, n_orders,
       CAST(coalesce(revenue_cents - lag(revenue_cents) OVER (ORDER BY month), 0)
            AS BIGINT) AS delta_cents
FROM m
"""


# EWMA smoothing factor alpha = EWMA_NUM / EWMA_DEN (1/4): s_t =
# (v_t + 3*s_{t-1}) // 4, integer cents throughout. Division truncates; all
# revenue values are non-negative so floor and trunc agree on both sides.
EWMA_NUM = 1
EWMA_DEN = 4


def q_orders_daily_ewma(sf_dir: str) -> pd.DataFrame:
    """Exponentially-weighted moving average of daily revenue — the
    smoothing pass behind trend dashboards and anomaly baselines, done
    with the recurrence kept EXACT: daily sums are integer cents, and
    each EWMA step is ``(v_t + (DEN-NUM)*s_prev) // DEN`` so every value
    is bit-reproducible and the oracle replays the whole series with a
    recursive CTE.

    Topology mirrors q_orders_mom: per-block pyarrow partials (day,
    cents) pre-combine before the groupby, so the exchange moves at most
    #days rows per block; the aggregated series is calendar-scale
    (thousands of rows over seven TPC-H years), so the inherently
    sequential fold runs on the driver — folding a RESULT, not the data.
    At 100 TB the day-grain aggregate is identical; only the corpus-side
    partial pass grows."""

    def partial(t: pa.Table) -> pa.Table:
        days = pc.strftime(t["o_orderdate"], format="%Y-%m-%d")
        rows = pa.Table.from_arrays(
            [days, _cents(t["o_totalprice"])], names=["day", "cents"]
        )
        g = rows.group_by("day").aggregate([("cents", "sum")])
        return pa.Table.from_arrays(
            [g["day"], pc.cast(g["cents_sum"], pa.int64())],
            names=["day", "revenue_cents"],
        )

    agg = (
        _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])
        .map_batches(partial, batch_format="pyarrow")
        .repartition(8)
        .groupby("day")
        .aggregate(Sum("revenue_cents", alias_name="revenue_cents"))
        .to_pandas()
        .sort_values("day")
        .reset_index(drop=True)
    )
    ewma: list[int] = []
    s = 0
    for i, v in enumerate(agg["revenue_cents"].astype("int64")):
        s = int(v) if i == 0 else (EWMA_NUM * int(v) + (EWMA_DEN - EWMA_NUM) * s) // EWMA_DEN
        ewma.append(s)
    return pd.DataFrame({
        "day": agg["day"],
        "revenue_cents": agg["revenue_cents"].astype("int64"),
        "ewma_cents": pd.Series(ewma, dtype="int64"),
    })


SQL_ORDERS_DAILY_EWMA = f"""
WITH RECURSIVE d AS (
  SELECT strftime(o_orderdate, '%Y-%m-%d') AS day,
         CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT)
           AS revenue_cents
  FROM orders GROUP BY 1
),
r AS (
  SELECT day, revenue_cents,
         row_number() OVER (ORDER BY day) AS rn
  FROM d
),
e AS (
  SELECT day, revenue_cents, rn, revenue_cents AS ewma_cents
  FROM r WHERE rn = 1
  UNION ALL
  SELECT r.day, r.revenue_cents, r.rn,
         CAST(({EWMA_NUM} * r.revenue_cents
               + {EWMA_DEN - EWMA_NUM} * e.ewma_cents) // {EWMA_DEN}
              AS BIGINT)
  FROM e JOIN r ON r.rn = e.rn + 1
)
SELECT day, revenue_cents, ewma_cents FROM e
"""


TOP_PATHS_K = 20
PATH_PREFIX_LEN = 5  # full paths are ~unique; the first-N-event prefix is
                     # where behavioral patterns repeat


def q_events_top_paths(sf_dir: str) -> pd.DataFrame:
    """Behavioral path mining: the TOP_PATHS_K most common first-
    PATH_PREFIX_LEN-event paths (prefixes of the q_user_event_paths grain)
    with deterministic (count desc, path asc) order — funnel discovery
    over assembled sequences. The path table is user-grain; per-block
    partial (prefix, n) counts pre-combine before ONE exchange merges
    them, and each merge shard emits only its local top-K so the driver
    ranks <= K x shards candidate rows (the partial top-k pattern)."""
    paths = q_user_event_paths(sf_dir)

    part_schema = pa.schema([("path", pa.string()), ("n_users", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        pref = pa.array(
            [">".join(p.split(">")[:PATH_PREFIX_LEN])
             for p in t["path"].to_pylist()],
            pa.string(),
        )
        g = (
            pa.Table.from_arrays([pref], names=["path"])
            .group_by("path").aggregate([([], "count_all")])
        )
        return pa.Table.from_arrays(
            [g["path"], pc.cast(g["count_all"], pa.int64())],
            schema=part_schema,
        )

    def merge_topk(t: pa.Table) -> pa.Table:
        g = t.group_by("path").aggregate([("n_users", "sum")])
        df = pa.Table.from_arrays(
            [g["path"], pc.cast(g["n_users_sum"], pa.int64())],
            names=["path", "n_users"],
        ).to_pandas()
        df = df.sort_values(["n_users", "path"], ascending=[False, True])
        return pa.Table.from_pandas(df.head(TOP_PATHS_K), schema=part_schema,
                                    preserve_index=False)

    cand = hash_exchange(
        paths.map_batches(partial, batch_format="pyarrow"),
        ["path"],
        merge_topk,
        part_schema,
    ).to_pandas()
    cand = cand.sort_values(["n_users", "path"], ascending=[False, True])
    return cand.head(TOP_PATHS_K).reset_index(drop=True)


SQL_EVENTS_TOP_PATHS = f"""
WITH e AS (
  SELECT user_id, event_type,
         row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn
  FROM events
),
p AS (
  SELECT string_agg(event_type, '>' ORDER BY rn) AS path
  FROM e WHERE rn <= {PATH_PREFIX_LEN} GROUP BY user_id
)
SELECT path, count(*) AS n_users
FROM p GROUP BY path
ORDER BY n_users DESC, path
LIMIT {TOP_PATHS_K}
"""


MOVING_FRAME = 3  # current row + 2 preceding


def q_user_value_moving_sum(sf_dir: str) -> rd.Dataset:
    """Bounded window frame: per user, the moving sum of event value
    (integer cents) over the last MOVING_FRAME events in event_id order —
    SUM() OVER (... ROWS BETWEEN 2 PRECEDING AND CURRENT ROW), the sliding
    frame every rate/trend feature uses (the cumulative frame is
    q_user_running_value). ONE hash_exchange on user_id; inside a shard
    the frame is one C-level groupby rolling-sum over the sorted rows.
    Integer cents -> exact at any parallelism."""
    out_schema = pa.schema([
        pa.field("event_id", pa.int64()), pa.field("user_id", pa.int64()),
        pa.field("moving_cents", pa.int64()),
    ])

    def shard_roll(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        df = pa.Table.from_arrays(
            [t["event_id"], t["user_id"], _cents(t["value"])],
            names=["event_id", "user_id", "cents"],
        ).to_pandas()
        df = df.sort_values(["user_id", "event_id"], kind="mergesort")
        roll = (
            df.groupby("user_id", sort=False)["cents"]
            .rolling(MOVING_FRAME, min_periods=1).sum()
            .reset_index(level=0, drop=True)
        )
        return pa.Table.from_arrays(
            [pa.array(df["event_id"].to_numpy(dtype="int64")),
             pa.array(df["user_id"].to_numpy(dtype="int64")),
             pa.array(roll.to_numpy(dtype="int64"))],
            schema=out_schema,
        )

    return hash_exchange(
        _read(sf_dir, "events", ["event_id", "user_id", "value"]),
        ["user_id"],
        shard_roll,
        out_schema,
    )


SQL_USER_VALUE_MOVING_SUM = f"""
SELECT event_id, user_id,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) OVER (
         PARTITION BY user_id ORDER BY event_id
         ROWS BETWEEN {MOVING_FRAME - 1} PRECEDING AND CURRENT ROW
       ) AS BIGINT) AS moving_cents
FROM events
"""


# ---------------------------------------------------------------------------
# Skyline (Pareto frontier) — the multi-criteria dominance operator
# ---------------------------------------------------------------------------


def q_part_skyline(sf_dir: str) -> rd.Dataset:
    """Skyline of ``part`` under (minimize retail price, maximize size):
    every part not dominated by another (q dominates p iff q is no more
    expensive AND no smaller, strictly better in one). The classic
    multi-criteria shortlist operator — and a showcase of a DISTRIBUTIVE
    reduction Ray Data has no built-in for: skyline(A ∪ B) =
    skyline(skyline(A) ∪ skyline(B)), so each block shrinks to its local
    skyline first (vectorized sort + per-price-group max + running-max
    scan, no pairwise compare) and only those survivors — O(log² n)
    expected rows per block for independent dims — travel to ONE final
    task for the identical merge pass. Ties at the same (price, size)
    point are mutually non-dominating and all kept, matching the
    NOT-EXISTS dominance semantics of the SQL oracle."""
    sky_schema = pa.schema([
        pa.field("p_partkey", pa.int64()), pa.field("p_size", pa.int64()),
        pa.field("p_retailprice", pa.float64()),
    ])

    def local_skyline(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return sky_schema.empty_table()
        df = t.to_pandas().sort_values(
            ["p_retailprice", "p_size"], ascending=[True, False], kind="mergesort"
        )
        price = df["p_retailprice"].to_numpy(dtype="float64")
        size = df["p_size"].to_numpy(dtype="int64")
        new_grp = np.ones(len(df), dtype=bool)
        new_grp[1:] = price[1:] != price[:-1]
        grp_idx = np.cumsum(new_grp) - 1
        grp_max = size[new_grp]          # first row of each price group = its max size
        prev_best = np.concatenate(
            ([np.iinfo(np.int64).min], np.maximum.accumulate(grp_max)[:-1])
        )
        keep = (size == grp_max[grp_idx]) & (size > prev_best[grp_idx])
        kept = df[keep]
        return pa.Table.from_arrays(
            [pa.array(kept["p_partkey"].to_numpy(dtype="int64")),
             pa.array(kept["p_size"].to_numpy(dtype="int64")),
             pa.array(kept["p_retailprice"].to_numpy(dtype="float64"))],
            schema=sky_schema,
        )

    return (
        _read(sf_dir, "part", ["p_partkey", "p_size", "p_retailprice"])
        .map_batches(
            lambda t: local_skyline(
                t.append_column(
                    "p_size64", pc.cast(t["p_size"], pa.int64())
                ).drop_columns(["p_size"]).rename_columns(
                    ["p_partkey", "p_retailprice", "p_size"]
                )
            ),
            batch_format="pyarrow",
        )
        .repartition(1)
        .map_batches(local_skyline, batch_format="pyarrow", batch_size=None)
    )


SQL_PART_SKYLINE = """
WITH g AS (
  SELECT p_retailprice, max(p_size) AS gmax FROM part GROUP BY p_retailprice
),
r AS (
  SELECT p_retailprice, gmax,
         max(gmax) OVER (ORDER BY p_retailprice
                         ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
           AS prevmax
  FROM g
)
SELECT p.p_partkey, CAST(p.p_size AS BIGINT) AS p_size, p.p_retailprice
FROM part p JOIN r ON p.p_retailprice = r.p_retailprice
WHERE p.p_size = r.gmax AND (r.prevmax IS NULL OR p.p_size > r.prevmax)
"""


# ---------------------------------------------------------------------------
# Per-group OLS regression from exact integer partials
# ---------------------------------------------------------------------------


def q_priority_price_trend(sf_dir: str) -> pd.DataFrame:
    """Per-priority linear price trend: OLS slope and intercept of
    y = order price (cents) on x = order date (days since epoch), from
    EXACT integer partials (n, Σx, Σy, Σx², Σxy) — the regr_slope /
    regr_intercept aggregate as a mergeable moment sketch (the corr twin
    is q_lineitem_corr). The normal-equation numerator n·Σxy − Σx·Σy
    cancels catastrophically in floats, so both sides form it in EXACT
    integer arithmetic (Python ints here, HUGEINT in the oracle) and cast
    to double only for the final division — bit-reproducible at any
    parallelism. int64 partial lanes hold to ~10^8 rows (x ≤ 2·10^4,
    y ≤ 6·10^7 cents ⇒ Σxy < 2^63); beyond that the partials widen to
    the same two-lane HUGEINT split the oracle already runs."""

    def partial(t: pa.Table) -> pa.Table:
        x = (
            pc.divide(pc.cast(t["o_orderdate"], pa.int64()),
                      pa.scalar(86_400_000_000, pa.int64()))
            .to_numpy(zero_copy_only=False)
        )
        y = _cents(t["o_totalprice"]).to_numpy(zero_copy_only=False)
        df = pd.DataFrame({
            "o_orderpriority": t["o_orderpriority"].to_pylist(),
            "n": 1, "sx": x, "sy": y, "sxx": x * x, "sxy": x * y,
        })
        g = df.groupby("o_orderpriority", sort=False, as_index=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    sums = (
        _read(sf_dir, "orders", ["o_orderpriority", "o_orderdate", "o_totalprice"])
        .map_batches(partial, batch_format="pyarrow")
        .repartition(8)
        .groupby("o_orderpriority")
        .aggregate(*[Sum(c, alias_name=c) for c in ("n", "sx", "sy", "sxx", "sxy")])
        .to_pandas()  # one row per priority class
        .sort_values("o_orderpriority")
    )
    slopes, intercepts = [], []
    for _, r in sums.iterrows():
        n, sx, sy = int(r["n"]), int(r["sx"]), int(r["sy"])
        sxx, sxy = int(r["sxx"]), int(r["sxy"])
        num, den = n * sxy - sx * sy, n * sxx - sx * sx   # exact ints
        slope = float(num) / float(den)
        slopes.append(slope)
        intercepts.append((float(sy) - slope * float(sx)) / n)
    return pd.DataFrame({
        "o_orderpriority": sums["o_orderpriority"].astype(str),
        "n_orders": sums["n"].astype("int64"),
        "slope_cents_per_day": slopes,
        "intercept_cents": intercepts,
    }).reset_index(drop=True)


SQL_PRIORITY_PRICE_TREND = """
WITH p AS (
  SELECT o_orderpriority,
         CAST(count(*) AS HUGEINT) AS n,
         sum(CAST(CAST(epoch(o_orderdate) / 86400 AS BIGINT) AS HUGEINT)) AS sx,
         sum(CAST(CAST(round(o_totalprice * 100) AS BIGINT) AS HUGEINT)) AS sy,
         sum(CAST(CAST(epoch(o_orderdate) / 86400 AS BIGINT) AS HUGEINT)
             * CAST(epoch(o_orderdate) / 86400 AS BIGINT)) AS sxx,
         sum(CAST(CAST(epoch(o_orderdate) / 86400 AS BIGINT) AS HUGEINT)
             * CAST(round(o_totalprice * 100) AS BIGINT)) AS sxy
  FROM orders GROUP BY o_orderpriority
)
SELECT o_orderpriority,
       CAST(n AS BIGINT) AS n_orders,
       CAST(n * sxy - sx * sy AS DOUBLE) / CAST(n * sxx - sx * sx AS DOUBLE)
         AS slope_cents_per_day,
       (CAST(sy AS DOUBLE)
        - (CAST(n * sxy - sx * sy AS DOUBLE) / CAST(n * sxx - sx * sx AS DOUBLE))
          * CAST(sx AS DOUBLE)) / CAST(n AS DOUBLE) AS intercept_cents
FROM p
"""


# ---------------------------------------------------------------------------
# Shannon entropy per group (two-level exact-count aggregation)
# ---------------------------------------------------------------------------


def q_event_type_entropy(sf_dir: str) -> pd.DataFrame:
    """Shannon entropy (bits) of each event type's hour-of-day histogram —
    the distribution-shape feature behind bot/burst detection. Exact
    two-level topology: per-block (type, hour) partial counts (≤ 24·n_types
    rows leave a block), ONE groupby merges them, and the entropy formula
    H = log2(n) − Σ c·log2(c) / n runs on the driver over the exact final
    counts — float appears only in that last expression, so the result is
    reproducible at any parallelism and any summation order to ~1e-13."""

    def partial(t: pa.Table) -> pa.Table:
        hours = (
            pc.hour(t["ts"]).to_numpy(zero_copy_only=False).astype("int64")
        )
        df = pd.DataFrame({"event_type": t["event_type"].to_pylist(), "h": hours})
        g = df.groupby(["event_type", "h"], sort=False).size().reset_index(name="c")
        return pa.Table.from_pandas(g, preserve_index=False)

    counts = (
        _read(sf_dir, "events", ["event_type", "ts"])
        .map_batches(partial, batch_format="pyarrow")
        .repartition(8)
        .groupby(["event_type", "h"])
        .aggregate(Sum("c", alias_name="c"))
        .to_pandas()  # ≤ 24 rows per event type
    )
    rows = []
    for etype, grp in counts.groupby("event_type", sort=True):
        c = grp.sort_values("h")["c"].to_numpy(dtype="float64")
        n = c.sum()
        rows.append({
            "event_type": etype,
            "n_events": int(n),
            "entropy_bits": float(np.log2(n) - (c * np.log2(c)).sum() / n),
        })
    return pd.DataFrame(rows)


SQL_EVENT_TYPE_ENTROPY = """
WITH c AS (
  SELECT event_type, CAST(extract(hour FROM ts) AS BIGINT) AS h, count(*) AS c
  FROM events GROUP BY 1, 2
),
t AS (SELECT event_type, sum(c) AS n FROM c GROUP BY 1)
SELECT c.event_type,
       CAST(t.n AS BIGINT) AS n_events,
       log2(CAST(t.n AS DOUBLE))
         - sum(CAST(c.c AS DOUBLE) * log2(CAST(c.c AS DOUBLE))) / CAST(t.n AS DOUBLE)
         AS entropy_bits
FROM c JOIN t USING (event_type)
GROUP BY c.event_type, t.n
"""


# ---------------------------------------------------------------------------
# Grouped higher moments (skewness / kurtosis) from exact power sums
# ---------------------------------------------------------------------------


def q_segment_acctbal_moments(sf_dir: str) -> pd.DataFrame:
    """Per-segment skewness and excess kurtosis of round(acctbal) — the
    3rd/4th-moment extension of the (n, Σx, Σx²) variance sketch. Σx⁴
    overflows int64 at block scale (x ≤ 10⁴ ⇒ x⁴ ≤ 10¹⁶), so per-block
    partials accumulate in PYTHON ints (object-dtype pandas sum — exact,
    arbitrary precision) and ship as decimal STRINGS; the driver merges
    the ≤ 5·n_blocks tiny partial rows back into exact ints and runs the
    raw-moment formulas in double, mirroring the oracle's HUGEINT sums
    bit-for-bit. Scale path: partial rows are O(groups × blocks) — at
    cluster scale the string-int merge tree-reduces instead of driving."""

    cols = ("n", "sx", "sxx", "sx3", "sx4")
    part_schema = pa.schema(
        [pa.field("c_mktsegment", pa.string())]
        + [pa.field(c, pa.string()) for c in cols]
    )

    def partial(t: pa.Table) -> pa.Table:
        x = (
            pc.cast(pc.round(t["c_acctbal"], round_mode="half_towards_infinity"),
                    pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        xo = x.astype(object)  # Python ints: exact x³/x⁴ sums
        df = pd.DataFrame({
            "c_mktsegment": t["c_mktsegment"].to_pylist(),
            "n": 1, "sx": xo, "sxx": xo * xo, "sx3": xo ** 3, "sx4": xo ** 4,
        })
        g = df.groupby("c_mktsegment", sort=False, as_index=False).sum()
        return pa.Table.from_arrays(
            [pa.array(g["c_mktsegment"].astype(str))]
            + [pa.array(g[c].map(str)) for c in cols],
            schema=part_schema,
        )

    parts = (
        _read(sf_dir, "customer", ["c_mktsegment", "c_acctbal"])
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()  # ≤ 5 segments × n_blocks partial rows
    )
    for c in cols:
        parts[c] = parts[c].map(int)  # back to exact Python ints
    merged = parts.groupby("c_mktsegment", sort=True).sum()
    rows = []
    for seg, r in merged.iterrows():
        n = float(r["n"])
        mu = float(r["sx"]) / n
        m2 = float(r["sxx"]) / n - mu * mu
        m3 = float(r["sx3"]) / n - 3.0 * mu * (float(r["sxx"]) / n) + 2.0 * mu ** 3
        m4 = (float(r["sx4"]) / n - 4.0 * mu * (float(r["sx3"]) / n)
              + 6.0 * mu * mu * (float(r["sxx"]) / n) - 3.0 * mu ** 4)
        rows.append({
            "c_mktsegment": seg,
            "n_customers": int(r["n"]),
            "skewness": m3 / m2 ** 1.5,
            "kurtosis_excess": m4 / (m2 * m2) - 3.0,
        })
    return pd.DataFrame(rows)


SQL_SEGMENT_ACCTBAL_MOMENTS = """
WITH p AS (
  SELECT c_mktsegment,
         CAST(count(*) AS HUGEINT) AS n,
         sum(CAST(CAST(round(c_acctbal) AS BIGINT) AS HUGEINT)) AS sx,
         sum(CAST(CAST(round(c_acctbal) AS BIGINT) AS HUGEINT)
             * CAST(round(c_acctbal) AS BIGINT)) AS sxx,
         sum(CAST(CAST(round(c_acctbal) AS BIGINT) AS HUGEINT)
             * CAST(round(c_acctbal) AS BIGINT) * CAST(round(c_acctbal) AS BIGINT)) AS sx3,
         sum(CAST(CAST(round(c_acctbal) AS BIGINT) AS HUGEINT)
             * CAST(round(c_acctbal) AS BIGINT) * CAST(round(c_acctbal) AS BIGINT)
             * CAST(round(c_acctbal) AS BIGINT)) AS sx4
  FROM customer GROUP BY c_mktsegment
),
m AS (
  SELECT c_mktsegment, CAST(n AS BIGINT) AS n_customers,
         CAST(sx AS DOUBLE) / CAST(n AS DOUBLE) AS mu,
         CAST(sxx AS DOUBLE) / CAST(n AS DOUBLE) AS rm2,
         CAST(sx3 AS DOUBLE) / CAST(n AS DOUBLE) AS rm3,
         CAST(sx4 AS DOUBLE) / CAST(n AS DOUBLE) AS rm4
  FROM p
)
SELECT c_mktsegment, n_customers,
       (rm3 - 3 * mu * rm2 + 2 * mu * mu * mu)
         / pow(rm2 - mu * mu, 1.5) AS skewness,
       (rm4 - 4 * mu * rm3 + 6 * mu * mu * rm2 - 3 * mu * mu * mu * mu)
         / ((rm2 - mu * mu) * (rm2 - mu * mu)) - 3.0 AS kurtosis_excess
FROM m
"""


# ---------------------------------------------------------------------------
# BFS shortest hops over the part co-occurrence graph
# ---------------------------------------------------------------------------

BFS_MAX_ITERS = 32


def q_part_reach(sf_dir: str) -> pd.DataFrame:
    """BFS hop distance from a seed part over the support-filtered
    co-occurrence graph (edges = q_part_cooccurrence, seed = smallest
    part key in the edge set) — single-source shortest paths on an
    unweighted graph, the third iterative graph operator (with PageRank
    and connected components). Broadcast regime: the frontier/distance
    vector rides ``ray.put`` into ONE map_batches relaxation pass over
    the materialized edges per round; per-block (part, candidate_dist)
    partials min-merge on the driver; converges at the graph's
    eccentricity (RAISES past BFS_MAX_ITERS rather than return a
    non-BFS result — which also keeps the oracle's recursion cap from
    ever binding). The distance vector here is part-grain and bounded by
    the support filter; past broadcast size the round becomes the same
    hash_join relaxation as q_host_components' join regime. Output: one
    row per reached part with its hop count."""
    cand_schema = pa.schema([("part", pa.int64()), ("cand", pa.int64())])
    edges = q_part_cooccurrence(sf_dir).materialize()

    seed_a = edges.min("part_a")
    seed_b = edges.min("part_b")
    if seed_a is None and seed_b is None:
        return pd.DataFrame({"part": pd.Series([], dtype="int64"),
                             "hops": pd.Series([], dtype="int64")})
    seed = min(s for s in (seed_a, seed_b) if s is not None)

    dist: dict = {int(seed): 0}
    for _ in range(BFS_MAX_ITERS):
        ref = ray.put(dist)

        def relax(t: pa.Table, _ref=ref) -> pa.Table:
            d = ray.get(_ref)
            acc: dict = {}
            for a, b in zip(t["part_a"].to_pylist(), t["part_b"].to_pylist()):
                da, db = d.get(a), d.get(b)
                if da is not None and (db is None or db > da + 1):
                    c = acc.get(b)
                    if c is None or c > da + 1:
                        acc[b] = da + 1
                if db is not None and (da is None or da > db + 1):
                    c = acc.get(a)
                    if c is None or c > db + 1:
                        acc[a] = db + 1
            if not acc:
                return cand_schema.empty_table()
            return pa.Table.from_pylist(
                [{"part": p, "cand": c} for p, c in acc.items()], schema=cand_schema
            )

        changed = False
        for b in edges.map_batches(relax, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"
        ):
            for p, c in zip(b["part"].to_pylist(), b["cand"].to_pylist()):
                if p not in dist or dist[p] > c:
                    dist[p] = c
                    changed = True
        if not changed:
            items = sorted(dist.items())
            return pd.DataFrame({
                "part": pd.Series([p for p, _ in items], dtype="int64"),
                "hops": pd.Series([h for _, h in items], dtype="int64"),
            })
    raise RuntimeError(f"BFS did not converge in {BFS_MAX_ITERS} rounds")


SQL_PART_REACH = f"""
WITH RECURSIVE
li AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
e AS (
  SELECT a.l_partkey AS a, b.l_partkey AS b
  FROM li a JOIN li b ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
  GROUP BY 1, 2
  HAVING count(*) >= {BASKET_MIN_COUNT}
),
ue AS (SELECT a, b FROM e UNION SELECT b, a FROM e),
seed AS (SELECT min(a) AS s FROM ue),
walk(part, hops) AS (
  SELECT s, 0 FROM seed
  UNION
  SELECT ue.b, walk.hops + 1
  FROM walk JOIN ue ON ue.a = walk.part
  WHERE walk.hops < {BFS_MAX_ITERS}
)
SELECT part, CAST(min(hops) AS BIGINT) AS hops FROM walk GROUP BY part
"""


# ---------------------------------------------------------------------------
# Spearman rank correlation via the bounded-domain distributed rank transform
# ---------------------------------------------------------------------------


def q_lineitem_spearman(sf_dir: str) -> pd.DataFrame:
    """Spearman rank correlation of (quantity, price) per returnflag — the
    rank-transform operator q_lineitem_corr's Pearson can't express. A
    global rank is the distributed-hard part: this uses the BOUNDED-DOMAIN
    counting transform — pass 1 builds per-(flag, value) COUNT histograms
    (two small partial-aggregated tables; the domain is round(qty) ≤ 50 and
    round(price) distinct dollars, both orders of magnitude below row
    count), the driver turns cumulative counts into tie-averaged ranks
    (kept EXACT as 2·rank ints: r2 = 2·cum_before + c + 1), broadcasts the
    two rank maps once via ray.put, and pass 2 is a pure map_batches that
    re-keys every row to its integer rank pair and emits the same exact
    (n, Σ, ΣΣ) moment partials as q_lineitem_corr. No row-scale sort
    anywhere — ranking by counting is how rank transforms scale when the
    value domain is bounded; unbounded domains range-partition a sort
    instead (the documented alternative)."""
    hist_schema = pa.schema([
        ("f", pa.string()), ("which", pa.string()), ("v", pa.int64()),
        ("c", pa.int64()),
    ])

    def hist_partial(t: pa.Table) -> pa.Table:
        f = t["l_returnflag"].to_pylist()
        x = (
            pc.cast(pc.round(t["l_quantity"], round_mode="half_towards_infinity"), pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        y = (
            pc.cast(pc.round(t["l_extendedprice"], round_mode="half_towards_infinity"), pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        dx = pd.DataFrame({"f": f, "which": "x", "v": x})
        dy = pd.DataFrame({"f": f, "which": "y", "v": y})
        g = (
            pd.concat([dx, dy])
            .groupby(["f", "which", "v"], sort=False)
            .size()
            .reset_index(name="c")
        )
        return pa.Table.from_pandas(g, preserve_index=False).cast(hist_schema)

    def hist_merge(t: pa.Table) -> pa.Table:
        g = t.group_by(["f", "which", "v"]).aggregate([("c", "sum")])
        return g.rename_columns(["f", "which", "v", "c"])

    src = _read(
        sf_dir, "lineitem", ["l_returnflag", "l_quantity", "l_extendedprice"]
    )
    # Histogram merge rides the int64 hash_exchange instead of a composite
    # (string, string, int) sort-groupby: the price domain is ~10^5 distinct
    # dollars here, and sorting 3x10^5 composite keys in Ray's sort shuffle
    # measured 20+ s where the sharded exchange is ~2 s on identical rows.
    hist = hash_exchange(
        src.map_batches(hist_partial, batch_format="pyarrow"),
        ["f", "which", "v"],
        hist_merge,
        hist_schema,
    ).to_pandas()  # bounded by the value DOMAIN, not the row count
    rank_maps: dict = {}  # (f, which) -> (sorted values, 2x tie-avg ranks)
    for (f, which), grp in hist.groupby(["f", "which"], sort=False):
        grp = grp.sort_values("v")
        c = grp["c"].to_numpy(dtype="int64")
        cum_before = np.concatenate(([0], np.cumsum(c)[:-1]))
        r2 = 2 * cum_before + c + 1  # exact 2x tie-averaged rank
        rank_maps[(f, which)] = (grp["v"].to_numpy(dtype="int64"), r2)
    maps_ref = ray.put(rank_maps)

    def moment_partial(t: pa.Table, _ref=maps_ref) -> pa.Table:
        m = ray.get(_ref)
        f = t["l_returnflag"].to_pylist()
        x = (
            pc.cast(pc.round(t["l_quantity"], round_mode="half_towards_infinity"), pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        y = (
            pc.cast(pc.round(t["l_extendedprice"], round_mode="half_towards_infinity"), pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        fl = np.asarray(f, dtype=object)
        rx = np.empty(len(f), dtype=np.int64)
        ry = np.empty(len(f), dtype=np.int64)
        for flag in set(f):  # <= n_flags slices; lookups are searchsorted
            mask = fl == flag
            vx, r2x = m[(flag, "x")]
            vy, r2y = m[(flag, "y")]
            rx[mask] = r2x[np.searchsorted(vx, x[mask])]
            ry[mask] = r2y[np.searchsorted(vy, y[mask])]
        df = pd.DataFrame({
            "f": f, "n": 1, "sx": rx, "sy": ry,
            "sxx": rx * rx, "syy": ry * ry, "sxy": rx * ry,
        })
        g = df.groupby("f", sort=False, as_index=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    sums = (
        src.map_batches(moment_partial, batch_format="pyarrow")
        .repartition(8)
        .groupby("f")
        .aggregate(*[Sum(c, alias_name=c) for c in ("n", "sx", "sy", "sxx", "syy", "sxy")])
        .to_pandas()
        .sort_values("f")
    )
    rhos = []
    for _, r in sums.iterrows():
        n, sx, sy = int(r["n"]), int(r["sx"]), int(r["sy"])
        sxx, syy, sxy = int(r["sxx"]), int(r["syy"]), int(r["sxy"])
        num = n * sxy - sx * sy            # exact ints: the cancelling terms
        denx, deny = n * sxx - sx * sx, n * syy - sy * sy
        rhos.append(float(num) / (float(denx) ** 0.5 * float(deny) ** 0.5))
    return pd.DataFrame({
        "l_returnflag": sums["f"].astype(str),
        "n_rows": sums["n"].astype("int64"),
        "spearman_qty_price": rhos,
    }).reset_index(drop=True)


SQL_LINEITEM_SPEARMAN = """
WITH v AS (
  SELECT l_returnflag AS f,
         CAST(round(l_quantity) AS BIGINT) AS x,
         CAST(round(l_extendedprice) AS BIGINT) AS y
  FROM lineitem
),
hx AS (SELECT f, x, count(*) AS c FROM v GROUP BY f, x),
rx AS (
  SELECT f, x,
         2 * (sum(c) OVER (PARTITION BY f ORDER BY x) - c) + c + 1 AS r2x
  FROM hx
),
hy AS (SELECT f, y, count(*) AS c FROM v GROUP BY f, y),
ry AS (
  SELECT f, y,
         2 * (sum(c) OVER (PARTITION BY f ORDER BY y) - c) + c + 1 AS r2y
  FROM hy
),
r AS (
  SELECT v.f, rx.r2x, ry.r2y
  FROM v JOIN rx ON v.f = rx.f AND v.x = rx.x
         JOIN ry ON v.f = ry.f AND v.y = ry.y
),
p AS (
  SELECT f, CAST(count(*) AS HUGEINT) AS n,
         sum(CAST(r2x AS HUGEINT)) AS sx, sum(CAST(r2y AS HUGEINT)) AS sy,
         sum(CAST(r2x AS HUGEINT) * r2x) AS sxx,
         sum(CAST(r2y AS HUGEINT) * r2y) AS syy,
         sum(CAST(r2x AS HUGEINT) * r2y) AS sxy
  FROM r GROUP BY f
)
SELECT f AS l_returnflag, CAST(n AS BIGINT) AS n_rows,
       CAST(n * sxy - sx * sy AS DOUBLE)
         / (sqrt(CAST(n * sxx - sx * sx AS DOUBLE))
            * sqrt(CAST(n * syy - sy * sy AS DOUBLE))) AS spearman_qty_price
FROM p
"""


# ---------------------------------------------------------------------------
# Gaps-and-islands: consecutive-order-day streaks per customer
# ---------------------------------------------------------------------------


def q_customer_order_streaks(sf_dir: str) -> rd.Dataset:
    """Gaps-and-islands per customer: group each customer's DISTINCT order
    days into runs of consecutive calendar days; emit the island count and
    the longest streak — the calendar cousin of gap sessionization (there
    the boundary is a time delta, here day - day ≠ 1). ONE hash_exchange
    on custkey; inside a shard: per-customer day dedup, the day − rank
    island-id trick, and both aggregates are C-level vectorized passes
    over the shard's sorted rows."""
    out_schema = pa.schema([
        pa.field("o_custkey", pa.int64()),
        pa.field("n_islands", pa.int64()),
        pa.field("max_streak_days", pa.int64()),
    ])

    def shard_streaks(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        days = (
            pc.divide(pc.cast(t["o_orderdate"], pa.int64()),
                      pa.scalar(86_400_000_000, pa.int64()))
            .to_numpy(zero_copy_only=False)
        )
        df = (
            pd.DataFrame({"k": t["o_custkey"].to_numpy(zero_copy_only=False),
                          "d": days})
            .drop_duplicates()
            .sort_values(["k", "d"], kind="mergesort")
        )
        k = df["k"].to_numpy()
        d = df["d"].to_numpy()
        new_island = np.ones(len(df), dtype=np.int64)
        if len(df) > 1:
            new_island[1:] = ((k[1:] != k[:-1]) | (d[1:] != d[:-1] + 1)).astype(np.int64)
        island = np.cumsum(new_island)  # global island id across the shard frame
        g = (
            pd.DataFrame({"k": k, "island": island})
            .groupby(["k", "island"], sort=False)
            .size()
            .reset_index(name="len")
        )
        agg = g.groupby("k", sort=False).agg(
            n_islands=("island", "size"), max_streak_days=("len", "max")
        ).reset_index()
        return pa.Table.from_arrays(
            [pa.array(agg["k"].to_numpy(dtype="int64")),
             pa.array(agg["n_islands"].to_numpy(dtype="int64")),
             pa.array(agg["max_streak_days"].to_numpy(dtype="int64"))],
            schema=out_schema,
        )

    return hash_exchange(
        _read(sf_dir, "orders", ["o_custkey", "o_orderdate"]),
        ["o_custkey"],
        shard_streaks,
        out_schema,
    )


SQL_CUSTOMER_ORDER_STREAKS = """
WITH d AS (
  SELECT DISTINCT o_custkey,
         CAST(epoch(o_orderdate) / 86400 AS BIGINT) AS day
  FROM orders
),
i AS (
  SELECT o_custkey, day,
         day - row_number() OVER (PARTITION BY o_custkey ORDER BY day) AS island
  FROM d
),
runs AS (
  SELECT o_custkey, island, count(*) AS len
  FROM i GROUP BY o_custkey, island
)
SELECT o_custkey,
       count(*) AS n_islands,
       CAST(max(len) AS BIGINT) AS max_streak_days
FROM runs GROUP BY o_custkey
"""


# ---------------------------------------------------------------------------
# Anti-entropy partition checksums (replication / migration verification)
# ---------------------------------------------------------------------------

CHECKSUM_SHARDS = 16
CHECKSUM_MOD = (1 << 61) - 1  # Mersenne prime: order-free modular row-hash sum


def q_orders_checksums(sf_dir: str) -> pd.DataFrame:
    """Per-partition content fingerprints of ``orders`` — the anti-entropy
    operator a 100-TB engine runs to verify two copies of a table match
    (replication checks, migration sign-off, resume validation) without
    moving the data: each row hashes to a 64-bit value (md5 of a canonical
    ``key|key|cents`` string — DuckDB's ``md5_number_lower`` and Python's
    little-endian bytes 8..16 of the digest agree bit-for-bit, probed and
    pinned in pytest), and a partition's checksum is the SUM of its row
    hashes mod a Mersenne prime — commutative, so block/order/parallelism
    independent, and mismatches localize to the shard. Per-block partials
    reduce mod M (an int64 lane each); the tiny (shard × block) partial
    rows merge exactly on the driver in Python ints. Disagreeing shards
    re-split recursively in practice (Merkle descent) — one level shown."""
    import hashlib

    part_schema = pa.schema([
        ("shard", pa.int64()), ("n_rows", pa.int64()), ("hsum", pa.int64()),
    ])

    def partial(t: pa.Table) -> pa.Table:
        keys = t["o_orderkey"].to_pylist()
        custs = t["o_custkey"].to_pylist()
        cents = _cents(t["o_totalprice"]).to_pylist()
        acc: dict = {}
        for k, c, m in zip(keys, custs, cents):
            h = int.from_bytes(
                hashlib.md5(f"{k}|{c}|{m}".encode()).digest()[8:16], "little"
            )
            s = k % CHECKSUM_SHARDS
            n, tot = acc.get(s, (0, 0))
            acc[s] = (n + 1, (tot + h) % CHECKSUM_MOD)
        return pa.Table.from_pylist(
            [{"shard": s, "n_rows": n, "hsum": tot} for s, (n, tot) in acc.items()],
            schema=part_schema,
        )

    parts = (
        _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()  # ≤ CHECKSUM_SHARDS × n_blocks tiny rows
    )
    rows = []
    for s, grp in parts.groupby("shard", sort=True):
        rows.append({
            "shard": int(s),
            "n_rows": int(grp["n_rows"].sum()),
            "checksum": int(sum(int(v) for v in grp["hsum"]) % CHECKSUM_MOD),
        })
    return pd.DataFrame(rows, columns=["shard", "n_rows", "checksum"]).astype(
        {"shard": "int64", "n_rows": "int64", "checksum": "int64"}
    )


SQL_ORDERS_CHECKSUMS = f"""
SELECT o_orderkey % {CHECKSUM_SHARDS} AS shard,
       count(*) AS n_rows,
       CAST(sum(CAST(md5_number_lower(
              CAST(o_orderkey AS VARCHAR) || '|' || CAST(o_custkey AS VARCHAR)
              || '|' || CAST(CAST(round(o_totalprice * 100) AS BIGINT) AS VARCHAR)
            ) AS HUGEINT)) % {CHECKSUM_MOD} AS BIGINT) AS checksum
FROM orders
GROUP BY 1
"""


# ---------------------------------------------------------------------------
# Winsorized mean (quantile-clipped robust aggregate)
# ---------------------------------------------------------------------------

WINSOR_LO, WINSOR_HI = 0.05, 0.95


def q_orders_winsorized_mean(sf_dir: str) -> rd.Dataset:
    """Winsorized mean price per priority: values clipped to the group's
    exact [p05, p95] (quantile_disc convention) before averaging — the
    robust-aggregate composition of the exact-quantile and mean operators
    (outlier-resistant KPIs at corpus scale). One groupby co-partitions a
    priority; the group task sorts once, indexes both quantiles, clips,
    and emits the exact integer cents sum — float appears only in the
    final division. Same holds-while-a-group-fits contract as
    q_order_price_quantiles; the scale path swaps the in-group sort for
    histogram/t-digest quantile partials."""
    import math

    def winsor(g: pd.DataFrame) -> pd.DataFrame:
        cents = _cents_pd(g["o_totalprice"]).to_numpy()
        v = np.sort(cents)
        n = len(v)
        lo = v[max(0, math.ceil(WINSOR_LO * n) - 1)]
        hi = v[max(0, math.ceil(WINSOR_HI * n) - 1)]
        clipped = np.clip(cents, lo, hi)
        return pd.DataFrame([{
            "o_orderpriority": g["o_orderpriority"].iloc[0],
            "n_orders": n,
            "winsorized_mean_cents": float(int(clipped.sum())) / n,
        }])

    return (
        _read(sf_dir, "orders", ["o_orderpriority", "o_totalprice"])
        .groupby("o_orderpriority")
        .map_groups(winsor, batch_format="pandas")
    )


SQL_ORDERS_WINSORIZED_MEAN = f"""
WITH v AS (
  SELECT o_orderpriority, CAST(round(o_totalprice * 100) AS BIGINT) AS cents
  FROM orders
),
q AS (
  SELECT o_orderpriority,
         quantile_disc(cents, {WINSOR_LO}) AS lo,
         quantile_disc(cents, {WINSOR_HI}) AS hi
  FROM v GROUP BY o_orderpriority
)
SELECT v.o_orderpriority,
       count(*) AS n_orders,
       CAST(sum(least(greatest(v.cents, q.lo), q.hi)) AS DOUBLE) / count(*)
         AS winsorized_mean_cents
FROM v JOIN q USING (o_orderpriority)
GROUP BY v.o_orderpriority
"""


# ---------------------------------------------------------------------------
# Median absolute deviation (two-level exact quantile composition)
# ---------------------------------------------------------------------------


def q_segment_balance_mad(sf_dir: str) -> rd.Dataset:
    """Median absolute deviation of acctbal cents per segment — the robust
    spread measure (variance's outlier-proof twin): med(|x − med(x)|),
    both medians exact with the quantile_disc convention. One groupby;
    the group task computes both passes in memory (sort, index, abs-dev,
    sort). All-integer output — parallelism-independent by construction."""
    import math

    def mad(g: pd.DataFrame) -> pd.DataFrame:
        cents = _cents_pd(g["c_acctbal"]).to_numpy()
        n = len(cents)
        med = np.sort(cents)[max(0, math.ceil(0.5 * n) - 1)]
        dev = np.sort(np.abs(cents - med))
        return pd.DataFrame([{
            "c_mktsegment": g["c_mktsegment"].iloc[0],
            "n_customers": n,
            "median_cents": int(med),
            "mad_cents": int(dev[max(0, math.ceil(0.5 * n) - 1)]),
        }])

    return (
        _read(sf_dir, "customer", ["c_mktsegment", "c_acctbal"])
        .groupby("c_mktsegment")
        .map_groups(mad, batch_format="pandas")
    )


SQL_SEGMENT_BALANCE_MAD = """
WITH v AS (
  SELECT c_mktsegment, CAST(round(c_acctbal * 100) AS BIGINT) AS cents
  FROM customer
),
m AS (
  SELECT c_mktsegment, quantile_disc(cents, 0.5) AS med
  FROM v GROUP BY c_mktsegment
)
SELECT v.c_mktsegment,
       count(*) AS n_customers,
       CAST(any_value(m.med) AS BIGINT) AS median_cents,
       CAST(quantile_disc(abs(v.cents - m.med), 0.5) AS BIGINT) AS mad_cents
FROM v JOIN m USING (c_mktsegment)
GROUP BY v.c_mktsegment
"""


# ---------------------------------------------------------------------------
# Triangle counting over the part co-occurrence graph
# ---------------------------------------------------------------------------


#: Production high-degree cap on the ORIENTED out-adjacency per wedge
#: center (shared discipline with queries.WEDGE_OUT_CAP — see that
#: docstring). Never binds on the test graphs (max oriented out-degree 20
#:  at sf0.001), so the oracle replay is a no-op; when it binds the loss
#: is exact-counted in ``wedges_dropped_by_cap``.
WEDGE_OUT_CAP = 1024


def q_part_triangles(sf_dir: str) -> pd.DataFrame:
    """Triangle census of the support-filtered co-occurrence graph — the
    clustering-coefficient numerator, and the third distinct graph
    topology in the engine (PageRank = iterate, components/BFS = fixpoint
    propagate, triangles = WEDGE-JOIN), with the round-5 skew guard:

      1. ORIENT by degree: expand the canonical a<b edges symmetrically,
         then two keyed exchanges point each undirected edge from its
         lower-(degree, id) endpoint (same plan as q_host_clustering's
         _degree_orient, int keys). Wedge volume falls from Σ deg(a)²
         (unbounded under power-law hubs: a 10⁶-degree hub alone emits
         ~10¹² pairs) to Σ outdeg² ≤ O(m^1.5) on ANY graph — the
         arboricity bound of Cohen 2009 / Suri-Vassilvitskii 2011.
      2. WEDGES: one exchange on the center; pairs among the first
         WEDGE_OUT_CAP dst-ranked out-neighbors only (vectorized in-shard
         self-merge); per-center closed-form accounting of suppressed
         pairs rides the same stream as NULL-key rows.
      3. CLOSURE: each triangle now closes exactly ONCE (at its
         lowest-degree vertex); ONE co-partitioned hash_join of wedge
         keys x·2³² + y against the canonical edge set (part keys < 2³¹).

    Returns one row: n_edges, n_wedges (degree-ordered total, kept +
    dropped), n_wedges_kept, wedges_dropped_by_cap, n_triangles — the
    cap priced exactly, q_dedup_minhash_cap-style; the SQL oracle replays
    orientation, rank window and accounting byte-for-byte."""
    edges = q_part_cooccurrence(sf_dir).materialize()

    sym_schema = pa.schema([("a", pa.int64()), ("b", pa.int64())])

    def sym(t: pa.Table) -> pa.Table:
        a = pa.chunked_array([t["part_a"], t["part_b"]])
        b = pa.chunked_array([t["part_b"], t["part_a"]])
        return pa.Table.from_arrays([a, b], schema=sym_schema)

    uedges = edges.map_batches(sym, batch_format="pyarrow")

    tagged_schema = pa.schema(
        [("a", pa.int64()), ("b", pa.int64()), ("da", pa.int64())]
    )

    def tag_deg_a(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df["da"] = df.groupby("a")["a"].transform("size").astype("int64")
        return pa.Table.from_pandas(df, schema=tagged_schema, preserve_index=False)

    tagged = hash_exchange(uedges, ["a"], tag_deg_a, tagged_schema)

    oriented_schema = pa.schema([("src", pa.int64()), ("dst", pa.int64())])

    def orient(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        db = df.groupby("b")["b"].transform("size").astype("int64")
        keep = (df["da"] < db) | ((df["da"] == db) & (df["a"] < df["b"]))
        kept = df[keep]
        return pa.Table.from_arrays(
            [pa.array(kept["a"].to_numpy(dtype="int64")),
             pa.array(kept["b"].to_numpy(dtype="int64"))],
            schema=oriented_schema,
        )

    oriented = hash_exchange(tagged, ["b"], orient, oriented_schema)

    # wedge stream: kept wedge rows (k = x<<32 | y) + NULL-k accounting rows
    wedge_schema = pa.schema([("k", pa.int64()), ("dropped", pa.int64())])

    def shard_wedges(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return wedge_schema.empty_table()
        df = t.to_pandas().sort_values(["src", "dst"])
        df["rn"] = df.groupby("src").cumcount()
        outdeg = df.groupby("src")["src"].transform("size")
        kept = df[df["rn"] < WEDGE_OUT_CAP][["src", "dst"]]
        m = kept.merge(kept, on="src")
        m = m[m["dst_x"] < m["dst_y"]]
        k = (
            m["dst_x"].to_numpy(dtype="int64") * (1 << 32)
            + m["dst_y"].to_numpy(dtype="int64")
        )
        wedge = pa.Table.from_arrays(
            [pa.array(k), pa.array(np.zeros(len(k), dtype=np.int64))],
            schema=wedge_schema,
        )
        od = df[["src"]].assign(n=outdeg).drop_duplicates("src")
        n = od["n"].to_numpy(dtype="int64")
        capped = np.minimum(n, WEDGE_OUT_CAP)
        drop = n * (n - 1) // 2 - capped * (capped - 1) // 2
        hit = drop > 0
        if not hit.any():
            return wedge
        acct = pa.Table.from_arrays(
            [pa.array([None] * int(hit.sum()), pa.int64()), pa.array(drop[hit])],
            schema=wedge_schema,
        )
        return pa.concat_tables([wedge, acct])

    stream = hash_exchange(
        oriented, ["src"], shard_wedges, wedge_schema
    ).materialize()

    def kept_keys(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_valid(t["k"])).select(["k"])

    wedges = stream.map_batches(kept_keys, batch_format="pyarrow")

    def drop_partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_null(t["k"]))
        return pa.Table.from_arrays(
            [pa.array([pc.sum(t["dropped"]).as_py() or 0], pa.int64())],
            names=["d"],
        )

    n_dropped = sum(
        r["d"] for r in stream.map_batches(
            drop_partial, batch_format="pyarrow"
        ).take_all()
    )

    def key_edge(t: pa.Table) -> pa.Table:
        k = (
            t["part_a"].to_numpy(zero_copy_only=False) * (1 << 32)
            + t["part_b"].to_numpy(zero_copy_only=False)
        )
        return pa.Table.from_arrays(
            [pa.array(k), pa.array(np.ones(t.num_rows, dtype=np.int64))],
            names=["k", "one"],
        )

    matched = hash_join(
        wedges,
        edges.map_batches(key_edge, batch_format="pyarrow"),
        left_on="k",
        right_on="k",
        key_type=pa.int64(),
        left_fields=[],
        right_fields=[pa.field("one", pa.int64())],
    )
    n_tri = matched.count()
    n_kept = int(wedges.count())
    return pd.DataFrame([{
        "n_edges": int(edges.count()),
        "n_wedges": n_kept + int(n_dropped),
        "n_wedges_kept": n_kept,
        "wedges_dropped_by_cap": int(n_dropped),
        "n_triangles": int(n_tri),
    }]).astype("int64")


# Replays the engine's degree-ordered orientation + rank-windowed cap
# exactly (see q_part_triangles docstring): n_wedges is the ORDERED wedge
# total — each triangle is one wedge at its lowest-degree vertex — not the
# old id-oriented Σ C(outdeg_id, 2).
SQL_PART_TRIANGLES = f"""
WITH li AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
e AS MATERIALIZED (
  SELECT a.l_partkey AS a, b.l_partkey AS b
  FROM li a JOIN li b ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
  GROUP BY 1, 2
  HAVING count(*) >= {BASKET_MIN_COUNT}
),
deg AS MATERIALIZED (
  SELECT v, count(*) AS c FROM (
    SELECT a AS v FROM e UNION ALL SELECT b FROM e) GROUP BY 1
),
o AS (
  SELECT CASE WHEN (da.c < db.c) OR (da.c = db.c AND e.a < e.b)
              THEN e.a ELSE e.b END AS src,
         CASE WHEN (da.c < db.c) OR (da.c = db.c AND e.a < e.b)
              THEN e.b ELSE e.a END AS dst
  FROM e JOIN deg da ON da.v = e.a JOIN deg db ON db.v = e.b
),
r AS (SELECT src, dst, row_number() OVER (PARTITION BY src ORDER BY dst) AS rn
      FROM o),
w AS MATERIALIZED (
  SELECT r1.dst AS x, r2.dst AS y,
         (r1.rn <= {WEDGE_OUT_CAP} AND r2.rn <= {WEDGE_OUT_CAP}) AS kept
  FROM r r1 JOIN r r2 ON r1.src = r2.src AND r1.dst < r2.dst
)
SELECT (SELECT count(*) FROM e) AS n_edges,
       (SELECT count(*) FROM w) AS n_wedges,
       (SELECT count(*) FILTER (WHERE kept) FROM w) AS n_wedges_kept,
       (SELECT count(*) FILTER (WHERE NOT kept) FROM w) AS wedges_dropped_by_cap,
       (SELECT count(*) FROM w JOIN e ON e.a = w.x AND e.b = w.y
        WHERE w.kept) AS n_triangles
"""


# ---------------------------------------------------------------------------
# Hot-key skew profiling (exact Gini from the count-of-counts histogram)
# ---------------------------------------------------------------------------


def q_events_user_skew(sf_dir: str) -> pd.DataFrame:
    """Key-skew profile of the event log — the diagnosis operator behind
    every salting decision in this engine: per-user counts (two-level
    partial aggregation), collapsed to the COUNT-OF-COUNTS histogram
    (tiny: one row per distinct frequency), from which the driver computes
    the exact Gini coefficient with integer rank-block sums — users tied
    at frequency c occupy a consecutive rank block, so Σ i·x_i reduces to
    c·(m·s + m(m+1)/2) per block, all exact ints (HUGEINT replay in SQL).
    Output: n_users, n_events, max_user_events, top_share_ppm, gini."""
    uc_schema = pa.schema([("user_id", pa.int64()), ("c", pa.int64())])

    def block_counts(t: pa.Table) -> pa.Table:
        g = t.group_by("user_id").aggregate([([], "count_all")])
        return pa.Table.from_arrays(
            [g["user_id"], pc.cast(g["count_all"], pa.int64())], schema=uc_schema
        )

    def shard_merge(t: pa.Table) -> pa.Table:
        g = t.group_by("user_id").aggregate([("c", "sum")])
        return pa.Table.from_arrays([g["user_id"], g["c_sum"]], schema=uc_schema)

    user_counts = hash_exchange(
        _read(sf_dir, "events", ["user_id"]).map_batches(
            block_counts, batch_format="pyarrow"
        ),
        ["user_id"],
        shard_merge,
        uc_schema,
    )

    cc_schema = pa.schema([("c", pa.int64()), ("m", pa.int64())])

    def count_of_counts(t: pa.Table) -> pa.Table:
        g = t.group_by("c").aggregate([([], "count_all")])
        return pa.Table.from_arrays(
            [g["c"], pc.cast(g["count_all"], pa.int64())], schema=cc_schema
        )

    cc = (
        user_counts.map_batches(count_of_counts, batch_format="pyarrow")
        .groupby("c")
        .aggregate(Sum("m", alias_name="m"))
        .to_pandas()  # one row per distinct frequency
        .sort_values("c")
    )
    S = T = U = 0
    maxc = 0
    for _, r in cc.iterrows():
        c, m = int(r["c"]), int(r["m"])
        S += c * (m * U + m * (m + 1) // 2)  # U is the rank offset so far
        T += c * m
        U += m
        maxc = max(maxc, c)
    gini = float(2 * S - (U + 1) * T) / float(U * T)
    return pd.DataFrame([{
        "n_users": U, "n_events": T, "max_user_events": maxc,
        "top_share_ppm": (1_000_000 * maxc) // T, "gini": gini,
    }]).astype({"n_users": "int64", "n_events": "int64",
                "max_user_events": "int64", "top_share_ppm": "int64"})


SQL_EVENTS_USER_SKEW = """
WITH uc AS (SELECT user_id, count(*) AS c FROM events GROUP BY user_id),
cc AS (SELECT c, count(*) AS m FROM uc GROUP BY c),
o AS (SELECT c, m, sum(m) OVER (ORDER BY c) - m AS s FROM cc),
agg AS (
  SELECT sum(CAST(c AS HUGEINT) * (m * s + m * (m + 1) / 2)) AS S,
         sum(CAST(c AS HUGEINT) * m) AS T,
         CAST(sum(m) AS HUGEINT) AS U,
         max(c) AS maxc
  FROM o
)
SELECT CAST(U AS BIGINT) AS n_users,
       CAST(T AS BIGINT) AS n_events,
       CAST(maxc AS BIGINT) AS max_user_events,
       CAST(1000000 * maxc // CAST(T AS BIGINT) AS BIGINT) AS top_share_ppm,
       CAST(2 * S - (U + 1) * T AS DOUBLE) / CAST(U * T AS DOUBLE) AS gini
FROM agg
"""


# ---------------------------------------------------------------------------
# SCD2 state intervals (temporal-table build from an event stream)
# ---------------------------------------------------------------------------


def q_user_state_intervals(sf_dir: str) -> rd.Dataset:
    """SCD2 / temporal-table build: collapse each user's event stream
    (event_id order — unique, monotone with ingest) into CONSECUTIVE-STATE
    intervals, one row per run of equal event_type: (user, state, run_seq,
    from_event_id, to_event_id, n_events). This is the history-table
    compaction every CDC pipeline runs (orders_latest_per_customer is the
    keep-last variant; this keeps the full validity chain). ONE
    hash_exchange on user_id; in-shard the run ids are the vectorized
    change-flag cumsum (no per-user Python), and the interval assembly is
    a single C-level groupby agg."""
    out_schema = pa.schema([
        ("user_id", pa.int64()), ("state", pa.string()),
        ("run_seq", pa.int64()), ("from_event_id", pa.int64()),
        ("to_event_id", pa.int64()), ("n_events", pa.int64()),
    ])

    def shard_runs(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        df = t.to_pandas().sort_values(["user_id", "event_id"], kind="mergesort")
        user_chg = df["user_id"].ne(df["user_id"].shift())
        type_chg = df["event_type"].ne(df["event_type"].shift())
        chg = (user_chg | type_chg).astype("int64")
        df["run_seq"] = chg.groupby(df["user_id"].to_numpy()).cumsum()
        g = df.groupby(["user_id", "run_seq"], sort=True).agg(
            state=("event_type", "first"),
            from_event_id=("event_id", "min"),
            to_event_id=("event_id", "max"),
            n_events=("event_id", "size"),
        ).reset_index()
        return pa.Table.from_pandas(
            g[["user_id", "state", "run_seq", "from_event_id",
               "to_event_id", "n_events"]],
            preserve_index=False,
        ).cast(out_schema)

    return hash_exchange(
        _read(sf_dir, "events", ["event_id", "user_id", "event_type"]),
        ["user_id"],
        shard_runs,
        out_schema,
    )


SQL_USER_STATE_INTERVALS = """
WITH m AS (
  SELECT user_id, event_id, event_type,
         CASE WHEN lag(event_type) OVER (PARTITION BY user_id ORDER BY event_id)
                   IS DISTINCT FROM event_type THEN 1 ELSE 0 END AS chg
  FROM events
),
r AS (
  SELECT user_id, event_id, event_type,
         sum(chg) OVER (PARTITION BY user_id ORDER BY event_id) AS run_seq
  FROM m
)
SELECT user_id, event_type AS state, CAST(run_seq AS BIGINT) AS run_seq,
       min(event_id) AS from_event_id, max(event_id) AS to_event_id,
       count(*) AS n_events
FROM r GROUP BY user_id, event_type, run_seq
"""


# ---------------------------------------------------------------------------
# Trailing time-RANGE window (interval frame, tie-safe)
# ---------------------------------------------------------------------------


def q_user_value_trailing_1h(sf_dir: str) -> rd.Dataset:
    """Time-RANGE moving aggregate: per event, the sum of the same user's
    event value (cents) in the trailing ONE-HOUR interval [ts - 1h, ts] —
    the RANGE-frame sibling of the ROWS-frame q_user_value_moving_sum.
    RANGE semantics make all ts-peers of the current row part of its
    frame, so rows first pre-aggregate to (user, ts) TIE-GROUPS; the
    per-group trailing sum is one C-level pandas time-rolling pass
    (closed='both' = inclusive bounds, matching SQL RANGE ... PRECEDING
    AND CURRENT ROW) and joins back to every member event. Cents stay
    < 2^53 so the rolling float path is exact; output is int64. ONE
    hash_exchange on user_id."""
    out_schema = pa.schema([
        ("event_id", pa.int64()), ("user_id", pa.int64()),
        ("trailing_cents", pa.int64()),
    ])

    def shard_roll(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        df = pa.Table.from_arrays(
            [t["event_id"], t["user_id"], t["ts"], _cents(t["value"])],
            names=["event_id", "user_id", "ts", "cents"],
        ).to_pandas().sort_values(["user_id", "ts"], kind="mergesort")
        tie = (
            df.groupby(["user_id", "ts"], sort=False)["cents"].sum()
            .reset_index()
        )
        roll = (
            tie.groupby("user_id", sort=False)
            .rolling(pd.Timedelta(hours=1), on="ts", closed="both")["cents"]
            .sum()
            .reset_index(drop=True)
        )
        tie["trailing_cents"] = roll.astype("int64")
        out = df.merge(tie[["user_id", "ts", "trailing_cents"]],
                       on=["user_id", "ts"], how="left")
        return pa.Table.from_pandas(
            out[["event_id", "user_id", "trailing_cents"]], preserve_index=False
        ).cast(out_schema)

    return hash_exchange(
        _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"]),
        ["user_id"],
        shard_roll,
        out_schema,
    )


SQL_USER_VALUE_TRAILING_1H = """
SELECT event_id, user_id,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) OVER (
         PARTITION BY user_id ORDER BY ts
         RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW
       ) AS BIGINT) AS trailing_cents
FROM events
"""


# ---------------------------------------------------------------------------
# Watermark / late-arrival accounting (ordered prefix-scan #2)
# ---------------------------------------------------------------------------

LATE_BUCKET = 65536                 # event_ids per range bucket
LATENESS_US = 3_600_000_000         # allowed lateness: 1 hour, microseconds


def q_events_late_arrivals(sf_dir: str) -> rd.Dataset:
    """Streaming watermark accounting over the ingest log: with arrival
    order = event_id and watermark = max event-time seen so far (exclusive
    running max), count events arriving more than 1 hour behind the
    watermark — the late-data metric every streaming window operator keys
    its triggers on. Second use of the distributed ORDERED prefix-scan
    topology (q_doc_pack_sequences is the sum form; this is the max form):
    range-bucket by event_id, per-bucket max(ts) reduces to one tiny row
    per bucket, the driver prefix-maxes the bucket histogram and
    broadcasts per-bucket bases, one keyed exchange computes in-bucket
    exclusive running maxes vectorized (np.maximum.accumulate) and emits
    per-type partials. Output: (event_type, n_events, n_late)."""
    cnt_schema = pa.schema([
        ("bucket", pa.int64()), ("event_id", pa.int64()),
        ("ts_us", pa.int64()), ("event_type", pa.string()),
    ])

    def prep(t: pa.Table) -> pa.Table:
        eid = pc.cast(t["event_id"], pa.int64())
        return pa.Table.from_arrays(
            [pc.divide(eid, pa.scalar(LATE_BUCKET, pa.int64())),
             eid,
             pc.cast(t["ts"], pa.int64()),
             t["event_type"]],
            schema=cnt_schema,
        )

    prepped = (
        _read(sf_dir, "events", ["event_id", "ts", "event_type"])
        .map_batches(prep, batch_format="pyarrow")
        .materialize()
    )

    bm = (
        prepped.groupby("bucket")
        .aggregate(Max("ts_us", alias_name="mx"))
        .to_pandas()
        .sort_values("bucket")
    )
    mx = bm["mx"].to_numpy(dtype="int64")
    excl = np.concatenate(([np.iinfo(np.int64).min], np.maximum.accumulate(mx)[:-1]))
    base = dict(zip(bm["bucket"].tolist(), excl.tolist()))
    base_ref = ray.put(base)

    part_schema = pa.schema([
        ("event_type", pa.string()), ("n_events", pa.int64()),
        ("n_late", pa.int64()),
    ])

    def late(t: pa.Table, _ref=base_ref) -> pa.Table:
        if t.num_rows == 0:
            return part_schema.empty_table()
        df = t.to_pandas().sort_values("event_id")
        b = ray.get(_ref)
        INT_MIN = np.iinfo(np.int64).min
        ts = df["ts_us"].to_numpy(dtype="int64")
        # per-bucket exclusive running max (buckets are contiguous after the
        # event_id sort because bucket = event_id // LATE_BUCKET)
        bk = df["bucket"].to_numpy(dtype="int64")
        bounds = np.flatnonzero(
            np.concatenate(([True], bk[1:] != bk[:-1]))
        ).tolist() + [len(bk)]
        in_bucket_excl = np.empty(len(bk), dtype="int64")
        for s, e in zip(bounds[:-1], bounds[1:]):
            in_bucket_excl[s:e] = np.concatenate(
                ([INT_MIN], np.maximum.accumulate(ts[s:e])[:-1])
            )
        bases = np.array([b[k] for k in bk], dtype="int64")
        wm = np.maximum(bases, in_bucket_excl)
        is_late = (wm > INT_MIN) & (ts < wm - LATENESS_US)
        out = pd.DataFrame({"event_type": df["event_type"].to_numpy(),
                            "late": is_late.astype("int64")})
        g = out.groupby("event_type", sort=False)["late"].agg(["size", "sum"])
        return pa.Table.from_arrays(
            [pa.array(g.index.to_numpy(dtype=object), pa.string()),
             pa.array(g["size"].to_numpy(dtype="int64")),
             pa.array(g["sum"].to_numpy(dtype="int64"))],
            schema=part_schema,
        )

    return (
        hash_exchange(prepped, ["bucket"], late, part_schema)
        .groupby("event_type")
        .aggregate(
            Sum("n_events", alias_name="n_events"),
            Sum("n_late", alias_name="n_late"),
        )
    )


SQL_EVENTS_LATE_ARRIVALS = """
WITH w AS (
  SELECT event_type, ts,
         max(ts) OVER (ORDER BY event_id
             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS wm
  FROM events
)
SELECT event_type, count(*) AS n_events,
       CAST(sum(CASE WHEN wm IS NOT NULL AND ts < wm - INTERVAL 1 HOUR
                THEN 1 ELSE 0 END) AS BIGINT) AS n_late
FROM w GROUP BY event_type
"""


def q_events_window_final(sf_dir: str) -> rd.Dataset:
    """Finalized event-time tumbling windows with allowed lateness — the
    core streaming-window contract (Beam/Flink semantics) made exact over
    the ingest log: arrival order = event_id, watermark = exclusive
    running max of event time, and an event lands in its 1-hour window's
    FINAL count iff the watermark at its arrival had not yet passed
    window_end + 1 h allowed lateness; otherwise it is a counted DROP
    (the post-finalization discard every triggered window emits to a
    side output). Third use of the distributed ordered prefix-scan
    topology (pack_sequences = sum form, late_arrivals = max form): the
    exclusive running max comes from per-bucket maxima + driver prefix +
    one keyed exchange. Output: (event_type, window_ts, n_final,
    n_dropped)."""
    cnt_schema = pa.schema([
        ("bucket", pa.int64()), ("event_id", pa.int64()),
        ("ts_us", pa.int64()), ("event_type", pa.string()),
    ])

    def prep(t: pa.Table) -> pa.Table:
        eid = pc.cast(t["event_id"], pa.int64())
        return pa.Table.from_arrays(
            [pc.divide(eid, pa.scalar(LATE_BUCKET, pa.int64())),
             eid,
             pc.cast(t["ts"], pa.int64()),
             t["event_type"]],
            schema=cnt_schema,
        )

    prepped = (
        _read(sf_dir, "events", ["event_id", "ts", "event_type"])
        .map_batches(prep, batch_format="pyarrow")
        .materialize()
    )

    bm = (
        prepped.groupby("bucket")
        .aggregate(Max("ts_us", alias_name="mx"))
        .to_pandas()
        .sort_values("bucket")
    )
    mx = bm["mx"].to_numpy(dtype="int64")
    excl = np.concatenate(([np.iinfo(np.int64).min], np.maximum.accumulate(mx)[:-1]))
    base_ref = ray.put(dict(zip(bm["bucket"].tolist(), excl.tolist())))

    HOUR_US = 3_600_000_000
    part_schema = pa.schema([
        ("event_type", pa.string()), ("win_us", pa.int64()),
        ("n_final", pa.int64()), ("n_dropped", pa.int64()),
    ])

    def finalize(t: pa.Table, _ref=base_ref) -> pa.Table:
        if t.num_rows == 0:
            return part_schema.empty_table()
        df = t.to_pandas().sort_values("event_id")
        b = ray.get(_ref)
        INT_MIN = np.iinfo(np.int64).min
        ts = df["ts_us"].to_numpy(dtype="int64")
        bk = df["bucket"].to_numpy(dtype="int64")
        bounds = np.flatnonzero(
            np.concatenate(([True], bk[1:] != bk[:-1]))
        ).tolist() + [len(bk)]
        in_bucket_excl = np.empty(len(bk), dtype="int64")
        for s, e in zip(bounds[:-1], bounds[1:]):
            in_bucket_excl[s:e] = np.concatenate(
                ([INT_MIN], np.maximum.accumulate(ts[s:e])[:-1])
            )
        wm = np.maximum(
            np.array([b[k] for k in bk], dtype="int64"), in_bucket_excl
        )
        win = (ts // HOUR_US) * HOUR_US
        final = (wm == INT_MIN) | (wm < win + HOUR_US + LATENESS_US)
        out = pd.DataFrame({
            "event_type": df["event_type"].to_numpy(),
            "win_us": win,
            "n_final": final.astype("int64"),
            "n_dropped": (~final).astype("int64"),
        })
        g = out.groupby(["event_type", "win_us"], sort=False, as_index=False).sum()
        return pa.Table.from_pandas(g, schema=part_schema, preserve_index=False)

    agg = (
        hash_exchange(prepped, ["bucket"], finalize, part_schema)
        .groupby(["event_type", "win_us"])
        .aggregate(
            Sum("n_final", alias_name="n_final"),
            Sum("n_dropped", alias_name="n_dropped"),
        )
    )

    out_schema = pa.schema([
        ("event_type", pa.string()), ("window_ts", pa.timestamp("us")),
        ("n_final", pa.int64()), ("n_dropped", pa.int64()),
    ])

    def to_ts(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [t["event_type"], pc.cast(t["win_us"], pa.timestamp("us")),
             pc.cast(t["n_final"], pa.int64()),
             pc.cast(t["n_dropped"], pa.int64())],
            schema=out_schema,
        )

    return agg.map_batches(to_ts, batch_format="pyarrow")


SQL_EVENTS_WINDOW_FINAL = """
WITH w AS (
  SELECT event_type, ts, date_trunc('hour', ts) AS win,
         max(ts) OVER (ORDER BY event_id
             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS wm
  FROM events
)
SELECT event_type, win AS window_ts,
       CAST(sum(CASE WHEN wm IS NULL
                      OR wm < win + INTERVAL 2 HOUR THEN 1 ELSE 0 END)
            AS BIGINT) AS n_final,
       CAST(sum(CASE WHEN wm IS NOT NULL
                     AND wm >= win + INTERVAL 2 HOUR THEN 1 ELSE 0 END)
            AS BIGINT) AS n_dropped
FROM w GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# Interval-overlap self-join (sweep-line) — concurrent activity per user
# ---------------------------------------------------------------------------

OVERLAP_DUR_MOD_MIN = 120  # activity window length = round(value) % 120 minutes


def q_user_interval_overlaps(sf_dir: str) -> rd.Dataset:
    """Interval-overlap SELF-JOIN via sweep-line index arithmetic — the
    range-predicate join shape Ray Data lacks natively (generalizes the
    band join of ``q_orders_followup_counts`` from points-in-window to
    interval×interval overlap).

    Each event opens an activity window ``[ts, ts + (round(value) % 120)
    minutes]``.  Per user, report (a) the number of unordered pairs of that
    user's windows that overlap (closed-interval semantics: touching
    endpoints overlap) and (b) the peak concurrency — the maximum number of
    windows simultaneously open at any window start.

    Distributed shape: ONE ``hash_exchange`` on user_id co-locates each
    user's events; inside a shard BOTH metrics come from index arithmetic
    over sorted arrays — never a pair materialization:

    - pairs: sort by (user, start); for a pair with start_a <= start_b the
      intervals overlap iff start_b <= end_a, so each row's pair count is
      ``searchsorted(starts, end_i, 'right') - pos_i - 1`` (valid because
      end >= start always — durations are nonnegative).  Σ counts each
      unordered pair exactly once.
    - concurrency at start_i = #{j: start_j <= start_i} − #{j: end_j <
      start_i}: one searchsorted against the sorted starts, one against the
      independently sorted ends.  Sweeping only start points is lossless —
      concurrency can only increase at a start.

    Multiple users share a shard without per-user Python dispatch: users get
    dense codes and times are offset into disjoint per-user ranges
    (``code * span + (t - t_min)``), so ONE searchsorted per metric covers
    the whole shard at exact microsecond resolution.  O(n log n) per shard,
    O(1) extra memory per row; the SQL oracle is the O(n²/user) join replay.
    Partitioning contract: one user's events fit one shard task.
    """
    out_schema = pa.schema(
        [pa.field("user_id", pa.int64()),
         pa.field("n_overlap_pairs", pa.int64()),
         pa.field("peak_concurrency", pa.int64())]
    )

    def shard_sweep(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        user = pc.cast(t["user_id"], pa.int64()).to_numpy(zero_copy_only=False)
        s_us = (
            pc.cast(t["ts"], pa.timestamp("us"))
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[us]")
            .astype(np.int64)
        )
        v = t["value"].to_numpy(zero_copy_only=False).astype(np.float64)
        # DuckDB round(): half away from zero (numpy .round is half-to-even)
        dur_min = np.where(v >= 0, np.floor(v + 0.5), np.ceil(v - 0.5)).astype(
            np.int64
        ) % OVERLAP_DUR_MOD_MIN
        e_us = s_us + dur_min * 60_000_000
        # dense user codes + disjoint per-user time ranges -> one composite
        # sort covers every user in the shard at microsecond resolution
        codes, inv = np.unique(user, return_inverse=True)
        t0 = s_us.min()
        span = np.int64(e_us.max() - t0 + 1)
        cs = inv.astype(np.int64) * span + (s_us - t0)
        ce = inv.astype(np.int64) * span + (e_us - t0)
        order = np.argsort(cs, kind="stable")
        cs_sorted = cs[order]
        ce_by_start = ce[order]
        ce_sorted = np.sort(ce)
        pos = np.arange(len(cs_sorted), dtype=np.int64)
        pairs_i = np.searchsorted(cs_sorted, ce_by_start, side="right") - pos - 1
        conc_i = (
            np.searchsorted(cs_sorted, cs_sorted, side="right")
            - np.searchsorted(ce_sorted, cs_sorted, side="left")
        )
        inv_sorted = inv[order]
        n_users = len(codes)
        pair_sum = np.zeros(n_users, dtype=np.int64)
        np.add.at(pair_sum, inv_sorted, pairs_i)
        peak = np.zeros(n_users, dtype=np.int64)
        np.maximum.at(peak, inv_sorted, conc_i)
        return pa.Table.from_arrays(
            [pa.array(codes, pa.int64()), pa.array(pair_sum, pa.int64()),
             pa.array(peak, pa.int64())],
            schema=out_schema,
        )

    return hash_exchange(
        _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"]),
        ["user_id"],
        shard_sweep,
        out_schema,
    )


SQL_USER_INTERVAL_OVERLAPS = f"""
WITH iv AS (
  SELECT event_id, user_id, ts AS s,
         ts + to_minutes(CAST(round(value) AS BIGINT) % {OVERLAP_DUR_MOD_MIN}) AS e
  FROM events
),
pairs AS (
  SELECT a.user_id, CAST(count(*) AS BIGINT) AS n
  FROM iv a JOIN iv b
    ON a.user_id = b.user_id AND a.event_id < b.event_id
   AND a.s <= b.e AND b.s <= a.e
  GROUP BY a.user_id
),
conc AS (
  SELECT a.user_id, a.event_id, count(*) AS c
  FROM iv a JOIN iv b
    ON a.user_id = b.user_id AND b.s <= a.s AND a.s <= b.e
  GROUP BY a.user_id, a.event_id
)
SELECT u.user_id,
       COALESCE(p.n, 0) AS n_overlap_pairs,
       CAST(max(c.c) AS BIGINT) AS peak_concurrency
FROM (SELECT DISTINCT user_id FROM iv) u
LEFT JOIN pairs p ON p.user_id = u.user_id
JOIN conc c ON c.user_id = u.user_id
GROUP BY u.user_id, p.n
"""


# ---------------------------------------------------------------------------
# 3-way co-group (customer-360) — N tagged streams, ONE exchange
# ---------------------------------------------------------------------------


def q_customer_360(sf_dir: str) -> rd.Dataset:
    """Multi-way CO-GROUP: three fact/dim streams (customer attributes,
    per-customer order partials, per-user event partials) reconciled into
    one per-key profile row with a SINGLE exchange — the N-ary
    generalization of hash_join's tag+union topology (pairwise joins would
    pay N−1 shuffles; a co-group pays one).

    Each input pre-combines per block to integer partials (orders/events:
    count + exact cents sum; customer: one attribute row per key), is
    tagged with a ``side`` column and null-padded to the union schema, and
    the three streams union into ONE hash_exchange on the key. Inside a
    shard the sides split and outer-merge with C-level pandas joins. Keys
    present on ANY side survive (full-outer semantics): customers who never
    order or click keep zero counts, event users with no customer row keep
    a null segment. Per-task memory = one shard's partials (≤ one row per
    key per side after the in-shard combine)."""
    out_schema = pa.schema([
        pa.field("custkey", pa.int64()), pa.field("segment", pa.string()),
        pa.field("n_orders", pa.int64()), pa.field("order_cents", pa.int64()),
        pa.field("n_events", pa.int64()), pa.field("event_cents", pa.int64()),
    ])
    union_schema = pa.schema([
        pa.field("custkey", pa.int64()), pa.field("side", pa.int64()),
        pa.field("seg", pa.string()), pa.field("n", pa.int64()),
        pa.field("cents", pa.int64()),
    ])

    def cust_prep(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.Table.from_arrays(
            [pc.cast(t["c_custkey"], pa.int64()),
             pa.array(np.zeros(n, dtype="int64")),
             pc.cast(t["c_mktsegment"], pa.string()),
             pa.array(np.zeros(n, dtype="int64")),
             pa.array(np.zeros(n, dtype="int64"))],
            schema=union_schema,
        )

    def fact_prep(key_col: str, val_col: str, side: int):
        def f(t: pa.Table) -> pa.Table:
            rows = pa.Table.from_arrays(
                [pc.cast(t[key_col], pa.int64()), _cents(t[val_col])],
                names=["custkey", "cents"],
            )
            g = rows.group_by("custkey").aggregate(
                [("cents", "sum"), ([], "count_all")]
            )
            n = g.num_rows
            return pa.Table.from_arrays(
                [g["custkey"], pa.array(np.full(n, side, dtype="int64")),
                 pa.array([None] * n, pa.string()),
                 pc.cast(g["count_all"], pa.int64()),
                 pc.cast(g["cents_sum"], pa.int64())],
                schema=union_schema,
            )

        return f

    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).map_batches(
        cust_prep, batch_format="pyarrow"
    )
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"]).map_batches(
        fact_prep("o_custkey", "o_totalprice", 1), batch_format="pyarrow"
    )
    events = _read(sf_dir, "events", ["user_id", "value"]).map_batches(
        fact_prep("user_id", "value", 2), batch_format="pyarrow"
    )

    def shard_cogroup(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        df = t.to_pandas()
        keys = pd.DataFrame({"custkey": df["custkey"].unique()})
        seg = df[df["side"] == 0][["custkey", "seg"]].drop_duplicates("custkey")
        merged = keys.merge(seg, on="custkey", how="left")
        for side, (ncol, ccol) in ((1, ("n_orders", "order_cents")),
                                   (2, ("n_events", "event_cents"))):
            part = (
                df[df["side"] == side]
                .groupby("custkey", sort=False)[["n", "cents"]]
                .sum()
                .reset_index()
                .rename(columns={"n": ncol, "cents": ccol})
            )
            merged = merged.merge(part, on="custkey", how="left")
            merged[ncol] = merged[ncol].fillna(0).astype("int64")
            merged[ccol] = merged[ccol].fillna(0).astype("int64")
        return pa.Table.from_arrays(
            [pa.array(merged["custkey"].to_numpy(dtype="int64")),
             pa.array(merged["seg"].where(merged["seg"].notna(), None), pa.string()),
             pa.array(merged["n_orders"].to_numpy(dtype="int64")),
             pa.array(merged["order_cents"].to_numpy(dtype="int64")),
             pa.array(merged["n_events"].to_numpy(dtype="int64")),
             pa.array(merged["event_cents"].to_numpy(dtype="int64"))],
            schema=out_schema,
        )

    return hash_exchange(
        cust.union(orders).union(events), ["custkey"], shard_cogroup, out_schema
    )


SQL_CUSTOMER_360 = """
WITH o AS (
  SELECT o_custkey AS k, count(*) AS n_orders,
         CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS order_cents
  FROM orders GROUP BY 1
),
e AS (
  SELECT user_id AS k, count(*) AS n_events,
         CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS event_cents
  FROM events GROUP BY 1
),
keys AS (
  SELECT c_custkey AS k FROM customer
  UNION SELECT k FROM o UNION SELECT k FROM e
)
SELECT keys.k AS custkey, c.c_mktsegment AS segment,
       coalesce(o.n_orders, 0) AS n_orders,
       coalesce(o.order_cents, 0) AS order_cents,
       coalesce(e.n_events, 0) AS n_events,
       coalesce(e.event_cents, 0) AS event_cents
FROM keys
LEFT JOIN customer c ON c.c_custkey = keys.k
LEFT JOIN o ON o.k = keys.k
LEFT JOIN e ON e.k = keys.k
"""


# ---------------------------------------------------------------------------
# Streaming debounce / throttle — greedy windowed dedup per key
# ---------------------------------------------------------------------------

DEBOUNCE_MIN = 5  # suppression window after each KEPT event


def q_events_dedup_window(sf_dir: str) -> rd.Dataset:
    """Windowed event dedup (debounce): per (user, event_type) stream in
    (ts, event_id) order, keep an event iff it is more than DEBOUNCE_MIN
    minutes after the last KEPT event — the alerting/metrics throttle every
    streaming stack runs. Output per key: total events and kept events.

    This is the engine's genuinely NON-ASSOCIATIVE scan: whether an event
    survives depends on the previous *kept* event, not the previous event,
    so no prefix-sum / searchsorted trick applies (contrast
    events_sessionize, where gaps depend only on adjacent rows). The
    distributed shape is still one hash_exchange on user_id; inside a shard
    each (user, type) chain is a short sequential walk over its sorted
    timestamp array (numpy int64; chains here are ~10 events — the walk is
    O(chain) and chains are independent, so at 100 TB the cost stays one
    linear pass per key, parallel across shards; there is no asymptotically
    better exact algorithm for a greedy chain). The oracle replays the
    chain with a recursive CTE stepping kept-event to kept-event."""
    out_schema = pa.schema([
        pa.field("user_id", pa.int64()), pa.field("event_type", pa.string()),
        pa.field("n_events", pa.int64()), pa.field("n_kept", pa.int64()),
    ])
    win_us = DEBOUNCE_MIN * 60 * 1_000_000

    def shard_debounce(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        df = t.to_pandas().sort_values(
            ["user_id", "event_type", "ts", "event_id"], kind="mergesort"
        )
        ts = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        gb = df.groupby(["user_id", "event_type"], sort=False)
        users, types, totals, kepts = [], [], [], []
        for (u, et), idx in gb.indices.items():
            a = ts[idx]  # sorted within the group by construction
            kept = 1
            last = a[0]
            for x in a[1:]:
                if x > last + win_us:
                    kept += 1
                    last = x
            users.append(u)
            types.append(et)
            totals.append(len(a))
            kepts.append(kept)
        return pa.Table.from_arrays(
            [pa.array(users, pa.int64()), pa.array(types, pa.string()),
             pa.array(totals, pa.int64()), pa.array(kepts, pa.int64())],
            schema=out_schema,
        )

    return hash_exchange(
        _read(sf_dir, "events", ["event_id", "user_id", "event_type", "ts"]),
        ["user_id"],
        shard_debounce,
        out_schema,
    )


SQL_EVENTS_DEDUP_WINDOW = f"""
WITH RECURSIVE s AS (
  SELECT user_id, event_type, ts,
         row_number() OVER (PARTITION BY user_id, event_type
                            ORDER BY ts, event_id) AS rn
  FROM events
),
k AS (
  SELECT user_id, event_type, ts, rn FROM s WHERE rn = 1
  UNION ALL
  SELECT s2.user_id, s2.event_type, s2.ts, s2.rn
  FROM (
    SELECT k.user_id, k.event_type, min(s.rn) AS nrn
    FROM k JOIN s ON s.user_id = k.user_id AND s.event_type = k.event_type
         AND s.ts > k.ts + INTERVAL {DEBOUNCE_MIN} MINUTE
    GROUP BY k.user_id, k.event_type
  ) nx
  JOIN s s2 ON s2.user_id = nx.user_id AND s2.event_type = nx.event_type
           AND s2.rn = nx.nrn
)
SELECT s.user_id, s.event_type,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(count(k.rn) AS BIGINT) AS n_kept
FROM s LEFT JOIN k ON k.user_id = s.user_id AND k.event_type = s.event_type
                  AND k.rn = s.rn
GROUP BY s.user_id, s.event_type
"""


# ---------------------------------------------------------------------------
# Audience overlap via bitmask histogram — exact multi-set intersections
# ---------------------------------------------------------------------------


def q_event_type_overlap(sf_dir: str) -> pa.Table:
    """Exact audience-overlap matrix: for every unordered pair of event
    types, how many distinct users did BOTH — the segment-intersection
    question (HLL sketches only approximate intersections, and badly when
    overlap is small; this is the exact path for a bounded type vocabulary).

    Distributed shape — the BITMASK-HISTOGRAM reduction: types get dense
    alphabetical indices (a tiny distinct pass, broadcast); one
    hash_exchange on user_id co-locates each user's events; in-shard,
    ``np.bitwise_or.at`` folds each user's types into one int64 mask (≤63
    types — asserted), and the shard emits its MASK HISTOGRAM (one row per
    distinct observed combination — bounded by real co-occurrence patterns,
    not user count). Histograms merge in a tiny groupby; the driver expands
    the ≤|masks| rows into the pair matrix with popcount arithmetic. User-
    scale data crosses the wire once; the pair expansion never sees rows.
    SQL replays the same mask build with bit_or over (1 << idx)."""
    types_tbl = (
        _read(sf_dir, "events", ["event_type"])
        .map_batches(
            lambda t: pa.Table.from_arrays(
                [pc.unique(t["event_type"])], names=["event_type"]
            ),
            batch_format="pyarrow",
        )
        .groupby("event_type")
        .count()
        .to_pandas()
    )
    types = sorted(types_tbl["event_type"].tolist())
    if len(types) > 63:
        raise ValueError(
            f"{len(types)} event types exceed the int64 bitmask domain; "
            "use the salted exact-distinct path per pair instead"
        )
    idx_of = {t: i for i, t in enumerate(types)}

    part_schema = pa.schema(
        [pa.field("mask", pa.int64()), pa.field("n", pa.int64())]
    )

    def shard_masks(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return part_schema.empty_table()
        users = pc.cast(t["user_id"], pa.int64()).to_numpy(zero_copy_only=False)
        bits = np.array(
            [1 << idx_of[et] for et in t["event_type"].to_pylist()],
            dtype=np.int64,
        )
        codes, inv = np.unique(users, return_inverse=True)
        masks = np.zeros(len(codes), dtype=np.int64)
        np.bitwise_or.at(masks, inv, bits)
        mh, counts = np.unique(masks, return_counts=True)
        return pa.Table.from_arrays(
            [pa.array(mh, pa.int64()), pa.array(counts.astype("int64"))],
            schema=part_schema,
        )

    hist = (
        hash_exchange(
            _read(sf_dir, "events", ["user_id", "event_type"]),
            ["user_id"],
            shard_masks,
            part_schema,
        )
        .groupby("mask")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )
    mask_arr = hist["mask"].to_numpy(dtype="int64")
    n_arr = hist["n"].to_numpy(dtype="int64")
    rows_a, rows_b, rows_n = [], [], []
    for i, ta in enumerate(types):
        for j in range(i + 1, len(types)):
            both = ((mask_arr >> i) & 1) & ((mask_arr >> np.int64(j)) & 1)
            rows_a.append(ta)
            rows_b.append(types[j])
            rows_n.append(int(n_arr[both.astype(bool)].sum()))
    return pa.Table.from_arrays(
        [pa.array(rows_a, pa.string()), pa.array(rows_b, pa.string()),
         pa.array(rows_n, pa.int64())],
        names=["type_a", "type_b", "n_users_both"],
    )


SQL_EVENT_TYPE_OVERLAP = """
WITH tidx AS (
  SELECT event_type,
         CAST(row_number() OVER (ORDER BY event_type) - 1 AS BIGINT) AS idx
  FROM (SELECT DISTINCT event_type FROM events)
),
um AS (
  SELECT e.user_id, CAST(bit_or(1::BIGINT << t.idx) AS BIGINT) AS mask
  FROM events e JOIN tidx t ON t.event_type = e.event_type
  GROUP BY e.user_id
),
mh AS (SELECT mask, count(*) AS n FROM um GROUP BY mask)
SELECT ta.event_type AS type_a, tb.event_type AS type_b,
       CAST(coalesce(sum(mh.n) FILTER (
         WHERE (mh.mask >> ta.idx) % 2 = 1 AND (mh.mask >> tb.idx) % 2 = 1
       ), 0) AS BIGINT) AS n_users_both
FROM tidx ta
JOIN tidx tb ON ta.idx < tb.idx
CROSS JOIN mh
GROUP BY ta.event_type, tb.event_type
"""


# ---------------------------------------------------------------------------
# TPC-H Q14 shape: promotion revenue share per ship month
# ---------------------------------------------------------------------------

PROMO_TYPE = "PROMO"
SHARE_UNIT = 1_000_000  # revenue share in integer micro-units


def q_promo_revenue_share(sf_dir: str) -> rd.Dataset:
    """Monthly promotion-revenue share (TPC-H Q14 shape): of each ship
    month's discounted revenue, the fraction from PROMO-type parts. The
    part side is FACT-sized at TPC-H scale (200k x sf), so it attaches via
    the co-partitioned hash_join on partkey — not a driver broadcast;
    lineitem pre-reduces per (l_partkey, month) per block so the join
    exchange moves integer-cent partials, never raw line items. Share is
    integer micro-units with floor division (exact SQL replay)."""
    part_schema = pa.schema([
        ("l_partkey", pa.int64()), ("month", pa.string()), ("cents", pa.int64()),
    ])

    def prep(t: pa.Table) -> pa.Table:
        disc = pc.multiply(
            t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"])
        )
        rows = pa.Table.from_arrays(
            [t["l_partkey"], pc.strftime(t["l_shipdate"], format="%Y-%m"),
             _cents(disc)],
            schema=part_schema,
        )
        g = rows.group_by(["l_partkey", "month"]).aggregate([("cents", "sum")])
        return pa.Table.from_arrays(
            [g["l_partkey"], g["month"], pc.cast(g["cents_sum"], pa.int64())],
            schema=part_schema,
        )

    li = _read(
        sf_dir, "lineitem", ["l_partkey", "l_shipdate", "l_extendedprice", "l_discount"]
    ).map_batches(prep, batch_format="pyarrow")

    joined = hash_join(
        li,
        _read(sf_dir, "part", ["p_partkey", "p_type"]),
        left_on="l_partkey",
        right_on="p_partkey",
        key_type=pa.int64(),
        left_fields=[pa.field("month", pa.string()), pa.field("cents", pa.int64())],
        right_fields=[pa.field("p_type", pa.string())],
    )

    month_schema = pa.schema([
        ("month", pa.string()), ("promo_cents", pa.int64()), ("total_cents", pa.int64()),
    ])

    def month_partial(t: pa.Table) -> pa.Table:
        promo = pc.if_else(
            pc.equal(t["p_type"], pa.scalar(PROMO_TYPE)),
            t["cents"], pa.scalar(0, pa.int64()),
        )
        rows = pa.Table.from_arrays(
            [t["month"], promo, t["cents"]], schema=month_schema
        )
        g = rows.group_by(["month"]).aggregate(
            [("promo_cents", "sum"), ("total_cents", "sum")]
        )
        return pa.Table.from_arrays(
            [g["month"], pc.cast(g["promo_cents_sum"], pa.int64()),
             pc.cast(g["total_cents_sum"], pa.int64())],
            schema=month_schema,
        )

    merged = (
        joined.map_batches(month_partial, batch_format="pyarrow")
        .repartition(8)
        .groupby("month")
        .aggregate(
            Sum("promo_cents", alias_name="promo_cents"),
            Sum("total_cents", alias_name="total_cents"),
        )
    )

    def finish(t: pa.Table) -> pa.Table:
        p = t["promo_cents"].to_numpy(zero_copy_only=False)
        tot = t["total_cents"].to_numpy(zero_copy_only=False)
        share = np.where(tot > 0, p * SHARE_UNIT // np.maximum(tot, 1), 0)
        return pa.Table.from_arrays(
            [t["month"], t["promo_cents"], t["total_cents"],
             pa.array(share, pa.int64())],
            names=["month", "promo_cents", "total_cents", "share_micro"],
        )

    return merged.map_batches(finish, batch_format="pyarrow")


SQL_PROMO_REVENUE_SHARE = f"""
WITH j AS (
  SELECT strftime(l.l_shipdate, '%Y-%m') AS month,
         CAST(round(l.l_extendedprice * (1 - l.l_discount) * 100) AS BIGINT) AS cents,
         p.p_type
  FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
),
m AS (
  SELECT month,
         CAST(sum(CASE WHEN p_type = '{PROMO_TYPE}' THEN cents ELSE 0 END) AS BIGINT)
           AS promo_cents,
         CAST(sum(cents) AS BIGINT) AS total_cents
  FROM j GROUP BY month
)
SELECT month, promo_cents, total_cents,
       CASE WHEN total_cents > 0 THEN promo_cents * {SHARE_UNIT} // total_cents
            ELSE 0 END AS share_micro
FROM m
"""


# ---------------------------------------------------------------------------
# TPC-H Q7 shape: shipping volume between supplier and customer nations
# ---------------------------------------------------------------------------

Q7_DATE_LO = "1996-01-01"
Q7_DATE_HI = "1998-01-01"


def q_nation_pair_volume(sf_dir: str) -> rd.Dataset:
    """Cross-border shipping volume (TPC-H Q7 shape): discounted revenue
    per (supplier nation, customer nation) pair, supp != cust, for a
    two-year ship window. Join topology mixes both regimes deliberately:
    supplier and nation are dim-sized -> broadcast maps via ray.put;
    lineitem ⋈ orders and the customer-nation attach are fact ⋈ fact ->
    TWO co-partitioned hash_joins (orderkey then custkey), with lineitem
    pre-reduced per (l_orderkey, supp_nation) per block so each exchange
    moves integer-cent partials. The cross-pair matrix (25x25 max)
    finishes in a tiny groupby."""
    nation = pd.read_parquet(_pq(sf_dir, "nation"), columns=["n_nationkey", "n_name"])
    nmap = dict(zip(nation["n_nationkey"].astype(int), nation["n_name"]))
    supp = pd.read_parquet(_pq(sf_dir, "supplier"), columns=["s_suppkey", "s_nationkey"])
    smap_ref = ray.put(
        {int(k): nmap[int(v)] for k, v in zip(supp["s_suppkey"], supp["s_nationkey"])}
    )
    nmap_ref = ray.put(nmap)

    lo, hi = pd.Timestamp(Q7_DATE_LO), pd.Timestamp(Q7_DATE_HI)
    li_schema = pa.schema([
        ("l_orderkey", pa.int64()), ("supp_nation", pa.string()),
        ("cents", pa.int64()),
    ])

    def prep(t: pa.Table, _ref=smap_ref) -> pa.Table:
        smap = ray.get(_ref)
        keep = pc.and_(
            pc.greater_equal(t["l_shipdate"], pa.scalar(lo)),
            pc.less(t["l_shipdate"], pa.scalar(hi)),
        )
        t = t.filter(keep)
        disc = pc.multiply(
            t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"])
        )
        sn = pa.array(
            [smap[int(k)] for k in t["l_suppkey"].to_pylist()], pa.string()
        )
        rows = pa.Table.from_arrays(
            [t["l_orderkey"], sn, _cents(disc)], schema=li_schema
        )
        g = rows.group_by(["l_orderkey", "supp_nation"]).aggregate([("cents", "sum")])
        return pa.Table.from_arrays(
            [g["l_orderkey"], g["supp_nation"], pc.cast(g["cents_sum"], pa.int64())],
            schema=li_schema,
        )

    li = _read(
        sf_dir, "lineitem",
        ["l_orderkey", "l_suppkey", "l_shipdate", "l_extendedprice", "l_discount"],
    ).map_batches(prep, batch_format="pyarrow")

    with_cust = hash_join(
        li,
        _read(sf_dir, "orders", ["o_orderkey", "o_custkey"]),
        left_on="l_orderkey",
        right_on="o_orderkey",
        key_type=pa.int64(),
        left_fields=[pa.field("supp_nation", pa.string()), pa.field("cents", pa.int64())],
        right_fields=[pa.field("o_custkey", pa.int64())],
    )

    pair_schema = pa.schema([
        ("supp_nation", pa.string()), ("cust_nation", pa.string()),
        ("revenue_cents", pa.int64()),
    ])

    def attach_cust_nation(t: pa.Table, _ref=nmap_ref) -> pa.Table:
        nm = ray.get(_ref)
        cn = pa.array(
            [nm[int(k)] for k in t["c_nationkey"].to_pylist()], pa.string()
        )
        rows = pa.Table.from_arrays(
            [t["supp_nation"], cn, t["cents"]], schema=pair_schema
        )
        rows = rows.filter(
            pc.not_equal(rows["supp_nation"], rows["cust_nation"])
        )
        g = rows.group_by(["supp_nation", "cust_nation"]).aggregate(
            [("revenue_cents", "sum")]
        )
        return pa.Table.from_arrays(
            [g["supp_nation"], g["cust_nation"],
             pc.cast(g["revenue_cents_sum"], pa.int64())],
            schema=pair_schema,
        )

    pairs = hash_join(
        with_cust,
        _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]),
        left_on="o_custkey",
        right_on="c_custkey",
        key_type=pa.int64(),
        left_fields=[pa.field("supp_nation", pa.string()), pa.field("cents", pa.int64())],
        right_fields=[pa.field("c_nationkey", pa.int64())],
    ).map_batches(attach_cust_nation, batch_format="pyarrow")

    return (
        pairs.repartition(8)
        .groupby(["supp_nation", "cust_nation"])
        .aggregate(Sum("revenue_cents", alias_name="revenue_cents"))
    )


SQL_NATION_PAIR_VOLUME = f"""
SELECT ns.n_name AS supp_nation, nc.n_name AS cust_nation,
       CAST(sum(CAST(round(l.l_extendedprice * (1 - l.l_discount) * 100) AS BIGINT))
            AS BIGINT) AS revenue_cents
FROM lineitem l
JOIN supplier s ON s.s_suppkey = l.l_suppkey
JOIN nation ns ON ns.n_nationkey = s.s_nationkey
JOIN orders o ON o.o_orderkey = l.l_orderkey
JOIN customer c ON c.c_custkey = o.o_custkey
JOIN nation nc ON nc.n_nationkey = c.c_nationkey
WHERE l.l_shipdate >= DATE '{Q7_DATE_LO}' AND l.l_shipdate < DATE '{Q7_DATE_HI}'
  AND ns.n_name <> nc.n_name
GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# RFM segmentation: recency / frequency / monetary quintile scores
# ---------------------------------------------------------------------------

RFM_REF_DATE = "1998-12-31"  # fixed reference "today" for recency days


def q_customer_rfm(sf_dir: str) -> rd.Dataset:
    """RFM segmentation (the classic behavioral scoring): per customer,
    recency (days from last order to the fixed reference date), frequency
    (order count) and monetary (total order cents), each bucketed 1-5 by
    corpus quintile boundaries — score = 1 + #boundaries strictly below
    the value, boundaries at quantile_disc(.2/.4/.6/.8), a tie-free rule
    the SQL replays verbatim (ntile would need a row-order tiebreak;
    boundary-counting needs none). Segment = the 3-digit code.

    Topology: per-block (custkey, last_ts, n, cents) partials -> ONE
    groupby merge (max/sum/sum); the 12 int boundaries come from one
    driver-side sort of the customer-grain metric columns (the exact-path
    bound documented at order_price_quantiles; t-digest is the scale
    swap) and broadcast into the final scoring map."""
    import math

    part_schema = pa.schema([
        ("custkey", pa.int64()), ("last_us", pa.int64()),
        ("n_orders", pa.int64()), ("cents", pa.int64()),
    ])

    def partials(t: pa.Table) -> pa.Table:
        rows = pa.Table.from_arrays(
            [t["o_custkey"],
             pc.cast(t["o_orderdate"], pa.int64()),
             pa.nulls(t.num_rows, pa.int64()).fill_null(1),
             _cents(t["o_totalprice"])],
            schema=part_schema,
        )
        g = rows.group_by(["custkey"]).aggregate(
            [("last_us", "max"), ("n_orders", "sum"), ("cents", "sum")]
        )
        return pa.Table.from_arrays(
            [g["custkey"], g["last_us_max"], pc.cast(g["n_orders_sum"], pa.int64()),
             pc.cast(g["cents_sum"], pa.int64())],
            schema=part_schema,
        )

    merged = (
        _read(sf_dir, "orders", ["o_custkey", "o_orderdate", "o_totalprice"])
        .map_batches(partials, batch_format="pyarrow")
        .groupby("custkey")
        .aggregate(
            Max("last_us", alias_name="last_us"),
            Sum("n_orders", alias_name="n_orders"),
            Sum("cents", alias_name="cents"),
        )
        .materialize()
    )

    ref_us = int(pd.Timestamp(RFM_REF_DATE).value // 1000)

    def metrics(t: pa.Table, _ref=ref_us) -> pa.Table:
        last = t["last_us"].to_numpy(zero_copy_only=False)
        days = (_ref - last) // 86_400_000_000
        return pa.Table.from_arrays(
            [t["custkey"], pa.array(days, pa.int64()), t["n_orders"], t["cents"]],
            names=["custkey", "recency_days", "n_orders", "cents"],
        )

    md = merged.map_batches(metrics, batch_format="pyarrow").materialize()

    def boundaries(col: str) -> list:
        vals = []
        for b in md.iter_batches(batch_size=65536, batch_format="pyarrow"):
            vals.extend(b[col].to_pylist())
        vals.sort()
        n = len(vals)
        return [vals[max(0, math.ceil(q * n) - 1)] for q in (0.2, 0.4, 0.6, 0.8)]

    bs = {c: boundaries(c) for c in ("recency_days", "n_orders", "cents")}

    def score(t: pa.Table, _bs=bs) -> pa.Table:
        def bucket(col):
            v = t[col].to_numpy(zero_copy_only=False)
            s = np.ones(len(v), dtype=np.int64)
            for b in _bs[col]:
                s += (v > b).astype(np.int64)
            return s

        r, f, m = bucket("recency_days"), bucket("n_orders"), bucket("cents")
        seg = pa.array([f"{a}{b}{c}" for a, b, c in zip(r, f, m)], pa.string())
        return pa.Table.from_arrays(
            [t["custkey"], t["recency_days"], t["n_orders"], t["cents"],
             pa.array(r, pa.int64()), pa.array(f, pa.int64()),
             pa.array(m, pa.int64()), seg],
            names=["custkey", "recency_days", "n_orders", "cents",
                   "r_score", "f_score", "m_score", "segment"],
        )

    return md.map_batches(score, batch_format="pyarrow")


SQL_CUSTOMER_RFM = f"""
WITH m AS (
  SELECT o_custkey AS custkey,
         CAST((epoch_us(TIMESTAMP '{RFM_REF_DATE}') - epoch_us(max(o_orderdate)))
              // 86400000000 AS BIGINT) AS recency_days,
         CAST(count(*) AS BIGINT) AS n_orders,
         CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS cents
  FROM orders GROUP BY 1
),
b AS (
  SELECT
    quantile_disc(recency_days, 0.2) AS r1, quantile_disc(recency_days, 0.4) AS r2,
    quantile_disc(recency_days, 0.6) AS r3, quantile_disc(recency_days, 0.8) AS r4,
    quantile_disc(n_orders, 0.2) AS f1, quantile_disc(n_orders, 0.4) AS f2,
    quantile_disc(n_orders, 0.6) AS f3, quantile_disc(n_orders, 0.8) AS f4,
    quantile_disc(cents, 0.2) AS m1, quantile_disc(cents, 0.4) AS m2,
    quantile_disc(cents, 0.6) AS m3, quantile_disc(cents, 0.8) AS m4
  FROM m
),
s AS (
  SELECT m.custkey, m.recency_days, m.n_orders, m.cents,
         1 + CAST(m.recency_days > b.r1 AS INT) + CAST(m.recency_days > b.r2 AS INT)
           + CAST(m.recency_days > b.r3 AS INT) + CAST(m.recency_days > b.r4 AS INT)
           AS r_score,
         1 + CAST(m.n_orders > b.f1 AS INT) + CAST(m.n_orders > b.f2 AS INT)
           + CAST(m.n_orders > b.f3 AS INT) + CAST(m.n_orders > b.f4 AS INT)
           AS f_score,
         1 + CAST(m.cents > b.m1 AS INT) + CAST(m.cents > b.m2 AS INT)
           + CAST(m.cents > b.m3 AS INT) + CAST(m.cents > b.m4 AS INT)
           AS m_score
  FROM m CROSS JOIN b
)
SELECT custkey, recency_days, n_orders, cents,
       CAST(r_score AS BIGINT) AS r_score,
       CAST(f_score AS BIGINT) AS f_score,
       CAST(m_score AS BIGINT) AS m_score,
       r_score || '' || f_score || '' || m_score AS segment
FROM s
"""


# ---------------------------------------------------------------------------
# Z-order clustering layout: multi-column locality for scan pruning
# ---------------------------------------------------------------------------

ZORDER_BITS = 16          # bits per dimension
ZORDER_PART_BITS = 8      # partitions = 2^8 leading z-bits
ZBOX_CUST = (1000, 3000)          # the probe box: custkey range ...
ZBOX_CENTS = (5_000_00, 20_000_00)  # ... x totalprice cents range


def q_orders_zorder(sf_dir: str) -> rd.Dataset:
    """Z-order (Morton) clustering report — the multi-column layout trick
    behind Delta/Iceberg OPTIMIZE ZORDER: interleaving the bits of
    (custkey, price-bucket) makes rows close in BOTH dimensions land in
    the same leading-bit partition, so a 2-D box predicate prunes most
    partitions at the read. Keys: custkey % 2^16 and cents // 1000
    (capped), zvalue = bit interleave, partition = top ZORDER_PART_BITS
    z-bits. Output per partition: row count, rows matching the fixed
    probe box, and the z range — the concentration of matches in few
    partitions IS the layout's value (vs. row-order layout where the box
    touches every partition). Vectorized numpy bit ops per block, one
    tiny groupby."""
    out_schema = pa.schema([
        ("zpart", pa.int64()), ("n_rows", pa.int64()), ("n_match", pa.int64()),
        ("zmin", pa.int64()), ("zmax", pa.int64()),
    ])

    def partial(t: pa.Table) -> pa.Table:
        ck = t["o_custkey"].to_numpy(zero_copy_only=False)
        cents = _cents(t["o_totalprice"]).to_numpy(zero_copy_only=False)
        k1 = (ck % (1 << ZORDER_BITS)).astype(np.int64)
        k2 = np.minimum(cents // 1000, (1 << ZORDER_BITS) - 1).astype(np.int64)
        z = np.zeros(len(k1), dtype=np.int64)
        for b in range(ZORDER_BITS):
            z |= ((k1 >> b) & 1) << (2 * b)
            z |= ((k2 >> b) & 1) << (2 * b + 1)
        zpart = z >> (2 * ZORDER_BITS - ZORDER_PART_BITS)
        match = (
            (ck >= ZBOX_CUST[0]) & (ck <= ZBOX_CUST[1])
            & (cents >= ZBOX_CENTS[0]) & (cents <= ZBOX_CENTS[1])
        ).astype(np.int64)
        rows = pa.table({
            "zpart": pa.array(zpart, pa.int64()),
            "n_rows": pa.array(np.ones(len(z), np.int64), pa.int64()),
            "n_match": pa.array(match, pa.int64()),
            "zmin": pa.array(z, pa.int64()),
            "zmax": pa.array(z, pa.int64()),
        })
        g = rows.group_by(["zpart"]).aggregate(
            [("n_rows", "sum"), ("n_match", "sum"), ("zmin", "min"), ("zmax", "max")]
        )
        return pa.Table.from_arrays(
            [g["zpart"], pc.cast(g["n_rows_sum"], pa.int64()),
             pc.cast(g["n_match_sum"], pa.int64()), g["zmin_min"], g["zmax_max"]],
            schema=out_schema,
        )

    return (
        _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
        .map_batches(partial, batch_format="pyarrow")
        .repartition(8)
        .groupby("zpart")
        .aggregate(
            Sum("n_rows", alias_name="n_rows"),
            Sum("n_match", alias_name="n_match"),
            Min("zmin", alias_name="zmin"),
            Max("zmax", alias_name="zmax"),
        )
    )


def _sql_orders_zorder() -> str:
    terms = []
    for b in range(ZORDER_BITS):
        terms.append(f"(((k1 >> {b}) & 1) << {2 * b})")
        terms.append(f"(((k2 >> {b}) & 1) << {2 * b + 1})")
    zexpr = " | ".join(terms)
    return f"""
WITH keys AS (
  SELECT o_custkey % {1 << ZORDER_BITS} AS k1,
         least(CAST(round(o_totalprice * 100) AS BIGINT) // 1000,
               {(1 << ZORDER_BITS) - 1}) AS k2,
         o_custkey AS ck,
         CAST(round(o_totalprice * 100) AS BIGINT) AS cents
  FROM orders
),
z AS (
  SELECT CAST({zexpr} AS BIGINT) AS zv, ck, cents FROM keys
)
SELECT zv >> {2 * ZORDER_BITS - ZORDER_PART_BITS} AS zpart,
       CAST(count(*) AS BIGINT) AS n_rows,
       CAST(sum(CASE WHEN ck BETWEEN {ZBOX_CUST[0]} AND {ZBOX_CUST[1]}
                      AND cents BETWEEN {ZBOX_CENTS[0]} AND {ZBOX_CENTS[1]}
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_match,
       CAST(min(zv) AS BIGINT) AS zmin,
       CAST(max(zv) AS BIGINT) AS zmax
FROM z GROUP BY 1
"""


SQL_ORDERS_ZORDER = _sql_orders_zorder()


# ---------------------------------------------------------------------------
# Two-feature OLS by exact integer normal equations (Cramer determinants)
# ---------------------------------------------------------------------------

OLS_UNIT = 1_000_000_000  # coefficients in integer nano-units


def q_lineitem_ols2(sf_dir: str) -> rd.Dataset:
    """Multiple linear regression price ~ quantity + discount solved EXACTLY
    in integers: x1 = rounded quantity, x2 = discount basis points, y =
    price cents; the 3x3 normal equations accumulate as nine integer power
    sums (per-block partials, one single-key groupby — the
    lineitem_corr moment topology extended to two features), and the
    coefficients come from Cramer's rule on integer determinants. No
    float enters the REDUCTION (sums and determinants are exact), so the
    result is bit-identical at any parallelism; only the final 3 scalar
    ratios det_i/det go through double (det*UNIT would overflow INT128 at
    sf0.1) — an int->double cast + one division + round, identical IEEE
    steps on both sides. The SQL oracle replays the HUGEINT determinant
    arithmetic verbatim; INT128 bounds the dets to ~sf1-scale row counts,
    past which the documented swap is centered/rescaled equations."""
    cols = ["n", "sx1", "sx2", "sy", "sx11", "sx12", "sx22", "sx1y", "sx2y"]

    def partial(t: pa.Table) -> pa.Table:
        x1 = pc.cast(pc.round(t["l_quantity"], round_mode="half_towards_infinity"),
                     pa.int64()).to_numpy(zero_copy_only=False)
        x2 = pc.cast(pc.round(pc.multiply(t["l_discount"], pa.scalar(10000.0)),
                              round_mode="half_towards_infinity"),
                     pa.int64()).to_numpy(zero_copy_only=False)
        y = _cents(t["l_extendedprice"]).to_numpy(zero_copy_only=False)
        vals = [len(x1), x1.sum(), x2.sum(), y.sum(), (x1 * x1).sum(),
                (x1 * x2).sum(), (x2 * x2).sum(), (x1 * y).sum(), (x2 * y).sum()]
        return pa.table({"k": pa.array([0], pa.int64()),
                         **{c: pa.array([int(v)], pa.int64())
                            for c, v in zip(cols, vals)}})

    merged = (
        _read(sf_dir, "lineitem", ["l_quantity", "l_discount", "l_extendedprice"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("k")
        .aggregate(*[Sum(c, alias_name=c) for c in cols])
    )

    def finish(t: pa.Table) -> pa.Table:
        r = {c: int(t[c][0].as_py()) for c in cols}
        n, sx1, sx2, sy = r["n"], r["sx1"], r["sx2"], r["sy"]
        sx11, sx12, sx22, sx1y, sx2y = (
            r["sx11"], r["sx12"], r["sx22"], r["sx1y"], r["sx2y"]
        )

        def det3(m):
            return (
                m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
            )

        S = [[n, sx1, sx2], [sx1, sx11, sx12], [sx2, sx12, sx22]]
        v = [sy, sx1y, sx2y]
        d = det3(S)
        betas = []
        for i in range(3):
            m = [row[:] for row in S]
            for rr in range(3):
                m[rr][i] = v[rr]
            betas.append(int(round(float(det3(m)) / float(d) * OLS_UNIT))
                         if d else 0)
        return pa.table({
            "n": pa.array([n], pa.int64()),
            "b0_nano": pa.array([betas[0]], pa.int64()),
            "b1_nano": pa.array([betas[1]], pa.int64()),
            "b2_nano": pa.array([betas[2]], pa.int64()),
        })

    return merged.map_batches(finish, batch_format="pyarrow")


SQL_LINEITEM_OLS2 = f"""
WITH t AS (
  SELECT CAST(round(l_quantity) AS BIGINT) AS x1,
         CAST(round(l_discount * 10000) AS BIGINT) AS x2,
         CAST(round(l_extendedprice * 100) AS BIGINT) AS y
  FROM lineitem
),
s AS (
  SELECT CAST(count(*) AS HUGEINT) AS n,
         CAST(sum(x1) AS HUGEINT) AS sx1, CAST(sum(x2) AS HUGEINT) AS sx2,
         CAST(sum(y) AS HUGEINT) AS sy,
         CAST(sum(x1 * x1) AS HUGEINT) AS sx11,
         CAST(sum(x1 * x2) AS HUGEINT) AS sx12,
         CAST(sum(x2 * x2) AS HUGEINT) AS sx22,
         CAST(sum(x1 * y) AS HUGEINT) AS sx1y,
         CAST(sum(x2 * y) AS HUGEINT) AS sx2y
  FROM t
),
d AS (
  SELECT *,
    n * (sx11 * sx22 - sx12 * sx12)
      - sx1 * (sx1 * sx22 - sx12 * sx2)
      + sx2 * (sx1 * sx12 - sx11 * sx2) AS det,
    sy * (sx11 * sx22 - sx12 * sx12)
      - sx1 * (sx1y * sx22 - sx12 * sx2y)
      + sx2 * (sx1y * sx12 - sx11 * sx2y) AS det0,
    n * (sx1y * sx22 - sx12 * sx2y)
      - sy * (sx1 * sx22 - sx12 * sx2)
      + sx2 * (sx1 * sx2y - sx1y * sx2) AS det1,
    n * (sx11 * sx2y - sx1y * sx12)
      - sx1 * (sx1 * sx2y - sx1y * sx2)
      + sy * (sx1 * sx12 - sx11 * sx2) AS det2
  FROM s
)
SELECT CAST(n AS BIGINT) AS n,
       CAST(round(CAST(det0 AS DOUBLE) / CAST(det AS DOUBLE) * {OLS_UNIT}) AS BIGINT) AS b0_nano,
       CAST(round(CAST(det1 AS DOUBLE) / CAST(det AS DOUBLE) * {OLS_UNIT}) AS BIGINT) AS b1_nano,
       CAST(round(CAST(det2 AS DOUBLE) / CAST(det AS DOUBLE) * {OLS_UNIT}) AS BIGINT) AS b2_nano
FROM d
"""


# ---------------------------------------------------------------------------
# CDC upsert/delete merge: changelog replay to final state
# ---------------------------------------------------------------------------


def q_users_cdc_state(sf_dir: str) -> rd.Dataset:
    """Change-data-capture merge (the lakehouse MERGE INTO shape): the
    events stream is a changelog keyed by user_id — 'signup' is an
    upsert that (re)creates the row with its value, 'click'/'view'/
    'purchase' are updates that add their value to a LIVE row (updates
    against an absent row are dropped, the standard CDC convention),
    'error' is a delete. Replay in deterministic (ts, event_id) order
    yields the final state: live users only, with the applied-op count
    and the accumulated integer cents.

    Topology: ONE keyed exchange on user_id co-locates each key's full
    changelog; the in-shard replay is a vectorized-sort + per-user scan
    (state never crosses tasks). The oracle derives the same state
    set-theoretically: a user is live iff their last signup outranks
    every error; the value sums the updates after that signup."""
    from .relational import hash_exchange  # self-import safe at module level

    out_schema = pa.schema([
        ("user_id", pa.int64()), ("n_applied", pa.int64()),
        ("value_cents", pa.int64()),
    ])

    ev_schema = pa.schema([
        ("user_id", pa.int64()), ("ts_us", pa.int64()),
        ("event_id", pa.int64()), ("kind", pa.int8()),  # 0 ins, 1 upd, 2 del
        ("cents", pa.int64()),
    ])

    def prep(t: pa.Table) -> pa.Table:
        et = t["event_type"].to_pylist()
        kind = pa.array(
            [0 if e == "signup" else (2 if e == "error" else 1) for e in et],
            pa.int8(),
        )
        return pa.Table.from_arrays(
            [t["user_id"], pc.cast(t["ts"], pa.int64()), t["event_id"], kind,
             _cents(t["value"])],
            schema=ev_schema,
        )

    def replay(t: pa.Table) -> pa.Table:
        df = t.to_pandas().sort_values(["user_id", "ts_us", "event_id"],
                                       kind="mergesort")
        rows = []
        cur = None  # (user, alive, n, cents)
        for u, k, c in zip(df["user_id"], df["kind"], df["cents"]):
            if cur is None or cur[0] != u:
                if cur is not None and cur[1]:
                    rows.append((cur[0], cur[2], cur[3]))
                cur = [int(u), False, 0, 0]
            if k == 0:
                cur[1], cur[2], cur[3] = True, 1, int(c)
            elif k == 2:
                cur[1], cur[2], cur[3] = False, 0, 0
            elif cur[1]:
                cur[2] += 1
                cur[3] += int(c)
        if cur is not None and cur[1]:
            rows.append((cur[0], cur[2], cur[3]))
        if not rows:
            return out_schema.empty_table()
        return pa.Table.from_pylist(
            [{"user_id": u, "n_applied": n, "value_cents": v} for u, n, v in rows],
            schema=out_schema,
        )

    return hash_exchange(
        _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type", "value"])
        .map_batches(prep, batch_format="pyarrow"),
        ["user_id"],
        replay,
        out_schema,
    )


SQL_USERS_CDC_STATE = """
WITH ev AS (
  SELECT user_id, epoch_us(ts) AS ts_us, event_id,
         CASE WHEN event_type = 'signup' THEN 0
              WHEN event_type = 'error' THEN 2 ELSE 1 END AS kind,
         CAST(round(value * 100) AS BIGINT) AS cents
  FROM events
),
last_ins AS (
  SELECT user_id, ts_us AS ins_ts, event_id AS ins_id, cents AS ins_cents
  FROM ev WHERE kind = 0
  QUALIFY row_number() OVER (PARTITION BY user_id
                             ORDER BY ts_us DESC, event_id DESC) = 1
),
alive AS (
  SELECT l.user_id, l.ins_ts, l.ins_id, l.ins_cents
  FROM last_ins l
  WHERE NOT EXISTS (
    SELECT 1 FROM ev e
    WHERE e.user_id = l.user_id AND e.kind = 2
      AND (e.ts_us > l.ins_ts OR (e.ts_us = l.ins_ts AND e.event_id > l.ins_id))
  )
),
upd AS (
  SELECT a.user_id,
         CAST(count(e.event_id) AS BIGINT) AS n_upd,
         CAST(coalesce(sum(e.cents), 0) AS BIGINT) AS upd_cents
  FROM alive a
  LEFT JOIN ev e ON e.user_id = a.user_id AND e.kind = 1
    AND (e.ts_us > a.ins_ts OR (e.ts_us = a.ins_ts AND e.event_id > a.ins_id))
  GROUP BY a.user_id
)
SELECT a.user_id,
       CAST(1 + u.n_upd AS BIGINT) AS n_applied,
       CAST(a.ins_cents + u.upd_cents AS BIGINT) AS value_cents
FROM alive a JOIN upd u USING (user_id)
"""


# ---------------------------------------------------------------------------
# Complex-event pattern matching (the MATCH_RECOGNIZE shape)
# ---------------------------------------------------------------------------


def q_events_pattern_matches(sf_dir: str) -> rd.Dataset:
    """CEP sequence matching — SQL MATCH_RECOGNIZE / Flink CEP shape: per
    user, count the completed funnels ``signup -> (click|view)+ ->
    purchase`` with NO error between the signup and the purchase. Exact
    per-purchase semantics (each purchase scores independently against
    its LATEST preceding signup; overlapping matches allowed), event
    order pinned by (ts, event_id).

    Topology: ONE keyed exchange on user_id, then an O(n) in-shard state
    scan (last-signup / last-error position + engagement count since
    signup) — the automaton a streaming CEP engine runs, here over the
    co-located history. The oracle derives the same matches relationally:
    latest signup per purchase via a windowed pick, error-between as NOT
    EXISTS, engagement as EXISTS."""
    from .relational import hash_exchange

    out_schema = pa.schema([
        ("user_id", pa.int64()), ("n_matches", pa.int64()),
    ])

    ev_schema = pa.schema([
        ("user_id", pa.int64()), ("ts_us", pa.int64()),
        ("event_id", pa.int64()), ("etype", pa.string()),
    ])

    def prep(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [t["user_id"], pc.cast(t["ts"], pa.int64()), t["event_id"],
             t["event_type"].combine_chunks()
             if isinstance(t["event_type"], pa.ChunkedArray) else t["event_type"]],
            schema=ev_schema,
        )

    def scan(t: pa.Table) -> pa.Table:
        df = t.to_pandas().sort_values(["user_id", "ts_us", "event_id"],
                                       kind="mergesort")
        rows = []
        cur_user = None
        sig = err = -1       # positions of last signup / last error
        engaged = 0          # click/view count since last signup
        pos = 0
        matches = 0
        for u, et in zip(df["user_id"], df["etype"]):
            if cur_user is None or u != cur_user:
                if cur_user is not None and matches:
                    rows.append((int(cur_user), matches))
                cur_user, sig, err, engaged, pos, matches = u, -1, -1, 0, 0, 0
            if et == "signup":
                sig, engaged = pos, 0
            elif et == "error":
                err = pos
            elif et in ("click", "view"):
                engaged += 1
            elif et == "purchase":
                if sig > err and engaged >= 1:
                    matches += 1
            pos += 1
        if cur_user is not None and matches:
            rows.append((int(cur_user), matches))
        if not rows:
            return out_schema.empty_table()
        return pa.Table.from_pylist(
            [{"user_id": u, "n_matches": m} for u, m in rows], schema=out_schema
        )

    return hash_exchange(
        _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])
        .map_batches(prep, batch_format="pyarrow"),
        ["user_id"],
        scan,
        out_schema,
    )


SQL_EVENTS_PATTERN_MATCHES = """
WITH ev AS (
  SELECT user_id, epoch_us(ts) AS ts_us, event_id, event_type,
         row_number() OVER (PARTITION BY user_id ORDER BY epoch_us(ts), event_id)
           AS ord
  FROM events
),
purchases AS (SELECT user_id, ord FROM ev WHERE event_type = 'purchase'),
with_sig AS (
  SELECT p.user_id, p.ord AS p_ord, s.ord AS s_ord
  FROM purchases p JOIN ev s
    ON s.user_id = p.user_id AND s.event_type = 'signup' AND s.ord < p.ord
  QUALIFY row_number() OVER (PARTITION BY p.user_id, p.ord
                             ORDER BY s.ord DESC) = 1
),
ok AS (
  SELECT w.user_id
  FROM with_sig w
  WHERE NOT EXISTS (
          SELECT 1 FROM ev e WHERE e.user_id = w.user_id
            AND e.event_type = 'error' AND e.ord > w.s_ord AND e.ord < w.p_ord)
    AND EXISTS (
          SELECT 1 FROM ev e WHERE e.user_id = w.user_id
            AND e.event_type IN ('click', 'view')
            AND e.ord > w.s_ord AND e.ord < w.p_ord)
)
SELECT user_id, CAST(count(*) AS BIGINT) AS n_matches
FROM ok GROUP BY user_id
"""


# ---------------------------------------------------------------------------
# Categorical mutual information (quantize-then-sum exact)
# ---------------------------------------------------------------------------

MI_UNIT = 1_000_000_000  # per-cell terms in nano-nats


def q_lineitem_mutual_info(sf_dir: str) -> rd.Dataset:
    """Mutual information between returnflag and linestatus — the
    dependence measure feature-selection and schema-profiling passes use
    (MI 0 = independent columns; high MI = redundant). I(X;Y) =
    sum_cells p(x,y) ln( p(x,y) / (p(x)p(y)) ); each cell's term
    n_xy * ln(n_xy * N / (n_x * n_y)) quantizes to integer nano-nats
    BEFORE the final sum (order-independent; the float ratio evaluates in
    the oracle's association order). Topology: one tiny (flag, status)
    groupby of per-block partial counts — marginals derive from the cell
    table on the driver (|X| x |Y| cells, constant-sized). Output: one
    row (n_rows, n_cells, mi_terms_nano) with MI = terms / (N * UNIT)."""
    import math

    cell_schema = pa.schema([
        ("f", pa.string()), ("s", pa.string()), ("n", pa.int64()),
    ])

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by(["l_returnflag", "l_linestatus"]).aggregate([([], "count_all")])
        return pa.Table.from_arrays(
            [g["l_returnflag"], g["l_linestatus"],
             pc.cast(g["count_all"], pa.int64())],
            schema=cell_schema,
        )

    cells = (
        _read(sf_dir, "lineitem", ["l_returnflag", "l_linestatus"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["f", "s"])
        .aggregate(Sum("n", alias_name="n"))
    )

    def finish(t: pa.Table) -> pa.Table:
        fs = t["f"].to_pylist()
        ss = t["s"].to_pylist()
        ns = [int(x) for x in t["n"].to_pylist()]
        N = sum(ns)
        nf: dict = {}
        nst: dict = {}
        for f_, s_, n_ in zip(fs, ss, ns):
            nf[f_] = nf.get(f_, 0) + n_
            nst[s_] = nst.get(s_, 0) + n_
        terms = 0
        for f_, s_, n_ in zip(fs, ss, ns):
            # association order mirrors the SQL: (n_xy * N) / (n_x * n_y)
            terms += int(round(
                n_ * math.log(float(n_ * N) / float(nf[f_] * nst[s_])) * MI_UNIT
            ))
        return pa.table({
            "n_rows": pa.array([N], pa.int64()),
            "n_cells": pa.array([len(ns)], pa.int64()),
            "mi_terms_nano": pa.array([terms], pa.int64()),
        })

    # the cell table is |X| x |Y| (a handful of rows): one-task finish
    return cells.repartition(1).map_batches(finish, batch_format="pyarrow")


SQL_LINEITEM_MUTUAL_INFO = f"""
WITH cells AS (
  SELECT l_returnflag AS f, l_linestatus AS s, CAST(count(*) AS BIGINT) AS n
  FROM lineitem GROUP BY 1, 2
),
tot AS (SELECT CAST(sum(n) AS BIGINT) AS N FROM cells),
mf AS (SELECT f, CAST(sum(n) AS BIGINT) AS nf FROM cells GROUP BY 1),
ms AS (SELECT s, CAST(sum(n) AS BIGINT) AS ns FROM cells GROUP BY 1)
SELECT tot.N AS n_rows,
       CAST(count(*) AS BIGINT) AS n_cells,
       CAST(sum(CAST(round(c.n * ln(CAST(c.n * tot.N AS DOUBLE)
                                    / CAST(mf.nf * ms.ns AS DOUBLE))
                           * {MI_UNIT}) AS BIGINT)) AS BIGINT) AS mi_terms_nano
FROM cells c
JOIN mf USING (f) JOIN ms USING (s)
CROSS JOIN tot
GROUP BY tot.N
"""


# ---------------------------------------------------------------------------
# Association rules: pair lift over order baskets (integer-exact)
# ---------------------------------------------------------------------------

RULES_TOPK = 20
RULES_MIN_SUPPORT = 3
LIFT_UNIT = 1_000_000


def q_part_rules(sf_dir: str) -> pd.DataFrame:
    """Association-rule mining over order baskets: top-K part pairs by
    LIFT = N * n_AB / (n_A * n_B) (>1 = bought together more than chance
    — the recommender/assortment signal), support floor RULES_MIN_SUPPORT.
    Lift is a PURE INTEGER ratio in micro-units (floor division), so the
    SQL replay is exact with no float anywhere. Topology: the
    part_cooccurrence pair pipeline gives n_AB; per-part basket counts
    finish in one keyed exchange; n_A and n_B attach via TWO
    co-partitioned hash_joins on the part key (the PMI topology on
    baskets); N is one Dataset count; per-block partial top-K then a tiny
    driver merge."""
    rules_schema = pa.schema([
        ("part_a", pa.int64()), ("part_b", pa.int64()),
        ("n_ab", pa.int64()), ("n_a", pa.int64()), ("n_b", pa.int64()),
        ("lift_micro", pa.int64()),
    ])

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    # distinct orders per part: per-block distinct (part, order) PAIRS ride
    # the exchange (counts must NOT — a pair spanning two input blocks
    # would double-count; all rows of a part land in one shard, so the
    # in-shard dedup is globally exact)
    pc_schema = pa.schema([("part", pa.int64()), ("n", pa.int64())])
    pair_schema = pa.schema([("part", pa.int64()), ("okey", pa.int64())])

    def part_partials(t: pa.Table) -> pa.Table:
        df = t.to_pandas().drop_duplicates()
        return pa.Table.from_arrays(
            [pa.array(df["l_partkey"].to_numpy(dtype="int64")),
             pa.array(df["l_orderkey"].to_numpy(dtype="int64"))],
            schema=pair_schema,
        )

    def shard_count_distinct(t: pa.Table) -> pa.Table:
        df = t.to_pandas().drop_duplicates()
        agg = df.groupby("part", sort=False).size().reset_index(name="n")
        return pa.Table.from_arrays(
            [pa.array(agg["part"].to_numpy(dtype="int64")),
             pa.array(agg["n"].to_numpy(dtype="int64"))],
            schema=pc_schema,
        )

    part_counts = hash_exchange(
        li.map_batches(part_partials, batch_format="pyarrow"),
        ["part"], shard_count_distinct, pc_schema,
    ).materialize()

    n_orders = int(
        _read(sf_dir, "orders", ["o_orderkey"]).count()
    )

    pairs = q_part_cooccurrence(sf_dir).map_batches(
        lambda t: t.filter(
            pc.greater_equal(t["n_orders"], pa.scalar(RULES_MIN_SUPPORT, pa.int64()))
        ),
        batch_format="pyarrow",
    )

    j1 = hash_join(
        pairs, part_counts,
        left_on="part_a", right_on="part", key_type=pa.int64(),
        left_fields=[pa.field("part_b", pa.int64()), pa.field("n_orders", pa.int64())],
        right_fields=[pa.field("n", pa.int64())],
    ).map_batches(
        lambda t: pa.Table.from_arrays(
            [t["part_a"], t["part_b"], t["n_orders"], t["n"]],
            names=["part_a", "part_b", "n_ab", "n_a"],
        ),
        batch_format="pyarrow",
    )
    j2 = hash_join(
        j1, part_counts,
        left_on="part_b", right_on="part", key_type=pa.int64(),
        left_fields=[pa.field("part_a", pa.int64()), pa.field("n_ab", pa.int64()),
                     pa.field("n_a", pa.int64())],
        right_fields=[pa.field("n", pa.int64())],
    )

    def score_topk(t: pa.Table, _N=n_orders) -> pa.Table:
        rows = []
        for a, b, nab, na, nb in zip(
            t["part_a"].to_pylist(), t["part_b"].to_pylist(),
            t["n_ab"].to_pylist(), t["n_a"].to_pylist(), t["n"].to_pylist(),
        ):
            rows.append({
                "part_a": int(a), "part_b": int(b), "n_ab": int(nab),
                "n_a": int(na), "n_b": int(nb),
                "lift_micro": int(nab) * _N * LIFT_UNIT // (int(na) * int(nb)),
            })
        if not rows:
            return rules_schema.empty_table()
        out = pa.Table.from_pylist(rows, schema=rules_schema)
        order = pc.sort_indices(
            out,
            sort_keys=[("lift_micro", "descending"), ("part_a", "ascending"),
                       ("part_b", "ascending")],
        )[:RULES_TOPK]
        return out.take(order)

    merged = j2.map_batches(score_topk, batch_format="pyarrow").to_pandas()
    if merged.empty:
        return rules_schema.empty_table().to_pandas()
    return (
        merged.sort_values(["lift_micro", "part_a", "part_b"],
                           ascending=[False, True, True])
        .head(RULES_TOPK)
        .reset_index(drop=True)
    )


def _sql_part_rules() -> str:
    cooc = SQL_PART_COOCCURRENCE.strip()
    return f"""
WITH cooc AS ({cooc}),
pcnt AS (
  SELECT l_partkey AS part, CAST(count(DISTINCT l_orderkey) AS BIGINT) AS n
  FROM lineitem GROUP BY 1
),
tot AS (SELECT CAST(count(*) AS BIGINT) AS N FROM orders)
SELECT c.part_a, c.part_b, c.n_orders AS n_ab, a.n AS n_a, b.n AS n_b,
       c.n_orders * tot.N * {LIFT_UNIT} // (a.n * b.n) AS lift_micro
FROM cooc c
JOIN pcnt a ON a.part = c.part_a
JOIN pcnt b ON b.part = c.part_b
CROSS JOIN tot
WHERE c.n_orders >= {RULES_MIN_SUPPORT}
ORDER BY lift_micro DESC, part_a ASC, part_b ASC
LIMIT {RULES_TOPK}
"""


SQL_PART_RULES = _sql_part_rules()


# ---------------------------------------------------------------------------
# Burst detection: hours whose event rate spikes over the trailing day
# ---------------------------------------------------------------------------

BURST_FACTOR = 3  # hour is a burst when count * 24 > FACTOR * trailing-24h sum


def q_events_bursts(sf_dir: str) -> rd.Dataset:
    """Temporal burst detection per event type (the monitoring twin of
    trending_terms): an hour bucket bursts when its count, scaled to a
    day, exceeds BURST_FACTOR x the trailing 24 FULL hours' total — an
    integer cross-multiplied rule (count*24 > FACTOR*trail), no rates, no
    floats. An hour is only ELIGIBLE once a full day has elapsed since
    the type's first observed hour (hour >= first_hour + 24h) — partial
    ramp-up baselines would over-flag every early hour otherwise — and
    an empty trailing day never flags. Topology: per-block (type, hour)
    partial counts ->
    one tiny groupby (types x hours grain), then a per-type ordered scan
    inside ONE keyed exchange computes the trailing sums over the DENSE
    hour axis (missing hours count zero — a sparse rolling window over
    only-observed hours would inflate baselines). Output: bursting
    (event_type, hour_ts, n_events, trailing_total)."""
    hour_schema = pa.schema([
        ("event_type", pa.string()), ("hour_us", pa.int64()), ("n", pa.int64()),
    ])

    def partial(t: pa.Table) -> pa.Table:
        hours = pc.cast(
            pc.floor_temporal(t["ts"], unit="hour"), pa.int64()
        )
        rows = pa.Table.from_arrays(
            [t["event_type"].combine_chunks()
             if isinstance(t["event_type"], pa.ChunkedArray) else t["event_type"],
             hours, pa.nulls(t.num_rows, pa.int64()).fill_null(1)],
            schema=hour_schema,
        )
        g = rows.group_by(["event_type", "hour_us"]).aggregate([("n", "sum")])
        return pa.Table.from_arrays(
            [g["event_type"], g["hour_us"], pc.cast(g["n_sum"], pa.int64())],
            schema=hour_schema,
        )

    merged = (
        _read(sf_dir, "events", ["ts", "event_type"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "hour_us"])
        .aggregate(Sum("n", alias_name="n"))
    )

    out_schema = pa.schema([
        ("event_type", pa.string()), ("hour_us", pa.int64()),
        ("n_events", pa.int64()), ("trailing_total", pa.int64()),
    ])

    HOUR = 3_600_000_000

    def scan(t: pa.Table) -> pa.Table:
        df = t.to_pandas().sort_values(["event_type", "hour_us"], kind="mergesort")
        rows = []
        for etype, g in df.groupby("event_type", sort=False):
            counts = dict(zip(g["hour_us"], g["n"]))
            first = min(counts)
            for h, n in counts.items():
                if h < first + 24 * HOUR:
                    continue
                trail = sum(
                    counts.get(h - k * HOUR, 0) for k in range(1, 25)
                )
                if trail > 0 and n * 24 > BURST_FACTOR * trail:
                    rows.append({"event_type": etype, "hour_us": int(h),
                                 "n_events": int(n), "trailing_total": trail})
        if not rows:
            return out_schema.empty_table()
        return pa.Table.from_pylist(rows, schema=out_schema)

    return hash_exchange(merged, ["event_type"], scan, out_schema)


SQL_EVENTS_BURSTS = f"""
WITH hours AS (
  SELECT event_type, epoch_us(date_trunc('hour', ts)) AS hour_us,
         CAST(count(*) AS BIGINT) AS n
  FROM events GROUP BY 1, 2
),
firsts AS (
  SELECT event_type, min(hour_us) AS first_us FROM hours GROUP BY 1
),
trail AS (
  SELECT h.event_type, h.hour_us, h.n,
         CAST(coalesce((
           SELECT sum(p.n) FROM hours p
           WHERE p.event_type = h.event_type
             AND p.hour_us >= h.hour_us - 24 * 3600000000
             AND p.hour_us < h.hour_us
         ), 0) AS BIGINT) AS trailing_total
  FROM hours h
  JOIN firsts f ON f.event_type = h.event_type
  WHERE h.hour_us >= f.first_us + 24 * 3600000000
)
SELECT event_type, hour_us, n AS n_events, trailing_total
FROM trail
WHERE trailing_total > 0 AND n * 24 > {BURST_FACTOR} * trailing_total
"""


# ---------------------------------------------------------------------------
# TPC-H Q13 shape: distribution of customers by order count ("custdist")
# ---------------------------------------------------------------------------

Q13_EXCLUDE_PRIORITY = "4-NOT SPECIFIED"


def q_customer_order_distribution(sf_dir: str) -> rd.Dataset:
    """TPC-H Q13 shape (custdist): how many customers placed exactly N
    qualifying orders, INCLUDING the zero-order customers only an outer join
    can surface. Generalizes the reference's count/value_counts aggregates
    (SURVEY §2.5 G1/G4) to the two-level shape: LEFT OUTER join -> per-key
    count -> distribution of counts.

    Plan (two exchanges): orders are filtered at the read (priority
    predicate — Q13's comment NOT LIKE analog) and pre-reduced per custkey
    per BLOCK; the left-outer ``hash_join`` fuses the final per-custkey
    combine into its shard merge (combine_right_sum) and pads unmatched
    customers with a typed null that a vectorized fill turns into 0. The
    second (tiny) exchange groups by n_orders over per-block partials —
    at web scale its input is at most #distinct-order-counts rows per
    block, a few hundred total."""
    import pyarrow.dataset as pds

    cust = _read(sf_dir, "customer", ["c_custkey"])
    orders = rd.read_parquet(
        _pq(sf_dir, "orders"),
        columns=["o_custkey"],
        filter=pds.field("o_orderpriority") != Q13_EXCLUDE_PRIORITY,
    )

    def order_partial(t: pa.Table) -> pa.Table:
        g = t.group_by("o_custkey").aggregate([([], "count_all")])
        return pa.Table.from_arrays(
            [pc.cast(g["o_custkey"], pa.int64()), pc.cast(g["count_all"], pa.int64())],
            names=["o_custkey", "n_orders"],
        )

    joined = hash_join(
        cust.map_batches(
            lambda t: t.append_column("one", pa.nulls(t.num_rows, pa.int64()).fill_null(1)),
            batch_format="pyarrow",
        ),
        orders.map_batches(order_partial, batch_format="pyarrow"),
        left_on="c_custkey",
        right_on="o_custkey",
        key_type=pa.int64(),
        left_fields=[pa.field("one", pa.int64())],
        right_fields=[pa.field("n_orders", pa.int64())],
        combine_right_sum=True,
        how="left",
    )

    def dist_partial(t: pa.Table) -> pa.Table:
        n = pc.fill_null(t["n_orders"], pa.scalar(0, pa.int64()))
        g = pa.Table.from_arrays([n], names=["n_orders"]).group_by(
            "n_orders"
        ).aggregate([([], "count_all")])
        return pa.Table.from_arrays(
            [g["n_orders"], pc.cast(g["count_all"], pa.int64())],
            names=["n_orders", "custdist"],
        )

    return (
        joined.map_batches(dist_partial, batch_format="pyarrow")
        .repartition(8)
        .groupby("n_orders")
        .aggregate(Sum("custdist", alias_name="custdist"))
    )


SQL_CUSTOMER_ORDER_DISTRIBUTION = f"""
SELECT n_orders, CAST(count(*) AS BIGINT) AS custdist
FROM (
  SELECT c.c_custkey, CAST(count(o.o_orderkey) AS BIGINT) AS n_orders
  FROM customer c
  LEFT JOIN orders o
    ON c.c_custkey = o.o_custkey
   AND o.o_orderpriority <> '{Q13_EXCLUDE_PRIORITY}'
  GROUP BY c.c_custkey
)
GROUP BY n_orders
"""


# ---------------------------------------------------------------------------
# TPC-H Q17 shape: revenue from small-quantity orders of one brand's parts
# ---------------------------------------------------------------------------

Q17_BRAND = "Brand#23"


def q_part_small_qty_revenue(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q17 shape: total revenue of lineitems whose quantity is below
    20% of the average quantity for their part, restricted to one brand —
    the CORRELATED-aggregate join (every row compared against its own
    group's mean) that a broadcast or a plain groupby can't express alone.

    Exactness: quantities are integral units, so ``qty < 0.2 * avg(qty)``
    is evaluated as ``5 * qty * cnt < sum_qty`` — pure int64 cross-
    multiplication, no float division anywhere; revenue is integer cents.

    Plan (two hash_join exchanges, no broadcast):
      1. semi-join lineitem rows against the brand's parts on partkey
         (part is fact-sized at TPC-H scale — co-partitioned, not
         driver-collected).
      2. per-block (partkey, sum_qty, cnt) partials of the SURVIVING rows
         ride the second join's shard merge (combine_left_sum fuses the
         per-part aggregate), joining back the same rows' (qty, price)
         payload co-partitioned on partkey; the filter and the global cent
         sum are per-shard vectorized, merged by a tiny driver sum.
    """
    import pyarrow.dataset as pds

    part = rd.read_parquet(
        _pq(sf_dir, "part"),
        columns=["p_partkey", "p_brand"],
        filter=pds.field("p_brand") == Q17_BRAND,
    )

    def li_prep(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [
                pc.cast(t["l_partkey"], pa.int64()),
                pc.cast(
                    pc.round(t["l_quantity"], round_mode="half_towards_infinity"),
                    pa.int64(),
                ),
                _cents(t["l_extendedprice"]),
            ],
            names=["l_partkey", "qty", "price_cents"],
        )

    li = _read(
        sf_dir, "lineitem", ["l_partkey", "l_quantity", "l_extendedprice"]
    ).map_batches(li_prep, batch_format="pyarrow")

    brand_li = hash_join(
        li,
        part,
        left_on="l_partkey",
        right_on="p_partkey",
        key_type=pa.int64(),
        left_fields=[pa.field("qty", pa.int64()), pa.field("price_cents", pa.int64())],
        right_fields=[pa.field("p_brand", pa.string())],
        how="semi",
    ).materialize()  # consumed twice below (partials + probe side)

    def qty_partial(t: pa.Table) -> pa.Table:
        g = t.group_by("l_partkey").aggregate([("qty", "sum"), ([], "count_all")])
        return pa.Table.from_arrays(
            [g["l_partkey"], pc.cast(g["qty_sum"], pa.int64()),
             pc.cast(g["count_all"], pa.int64())],
            names=["l_partkey", "sum_qty", "cnt"],
        )

    stats_join = hash_join(
        brand_li.map_batches(qty_partial, batch_format="pyarrow"),
        brand_li,
        left_on="l_partkey",
        right_on="l_partkey",
        key_type=pa.int64(),
        left_fields=[pa.field("sum_qty", pa.int64()), pa.field("cnt", pa.int64())],
        right_fields=[pa.field("qty", pa.int64()), pa.field("price_cents", pa.int64())],
        combine_left_sum=True,
    )

    def small_qty_cents(t: pa.Table) -> pa.Table:
        keep = pc.less(
            pc.multiply(pc.multiply(t["qty"], pa.scalar(5, pa.int64())), t["cnt"]),
            t["sum_qty"],
        )
        kept = t.filter(keep)
        total = pc.sum(kept["price_cents"]).as_py() or 0
        return pa.Table.from_pylist(
            [{"revenue_cents": int(total)}],
            schema=pa.schema([("revenue_cents", pa.int64())]),
        )

    parts = stats_join.map_batches(small_qty_cents, batch_format="pyarrow").to_pandas()
    return pd.DataFrame({"revenue_cents": [int(parts["revenue_cents"].sum())]})


SQL_PART_SMALL_QTY_REVENUE = f"""
SELECT CAST(coalesce(sum(CAST(round(l.l_extendedprice * 100) AS BIGINT)), 0) AS BIGINT)
       AS revenue_cents
FROM lineitem l
JOIN part p ON p.p_partkey = l.l_partkey
JOIN (
  SELECT l_partkey,
         CAST(sum(CAST(round(l_quantity) AS BIGINT)) AS BIGINT) AS sum_qty,
         CAST(count(*) AS BIGINT) AS cnt
  FROM lineitem li
  WHERE EXISTS (SELECT 1 FROM part p2
                WHERE p2.p_partkey = li.l_partkey AND p2.p_brand = '{Q17_BRAND}')
  GROUP BY l_partkey
) s ON s.l_partkey = l.l_partkey
WHERE p.p_brand = '{Q17_BRAND}'
  AND 5 * CAST(round(l.l_quantity) AS BIGINT) * s.cnt < s.sum_qty
"""


# ---------------------------------------------------------------------------
# TPC-H Q22 shape: positive-balance customers in target countries, no orders
# ---------------------------------------------------------------------------

Q22_COUNTRY_CODES = (3, 8, 13, 17, 21)  # c_nationkey % 25 buckets standing in
                                         # for Q22's phone-prefix country codes


def q_customers_untapped(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q22 shape ("global sales opportunity"): customers from a fixed
    country set whose balance exceeds the GLOBAL average positive balance
    and who placed no order since the dormancy cutoff — the query that
    composes a global scalar subquery with a distributed anti-join and a
    grouped rollup. (The anti side is recent orders rather than Q22's all
    orders because the synthetic corpus gives every customer at least one
    lifetime order — the all-orders anti-join is degenerate here.)

    Exactness: the avg comparison never divides — ``acctbal > sum/cnt`` is
    evaluated as ``acctbal_cents * cnt > sum_cents`` in int64 (cents ×
    row-count stays far below 2^63 at any realistic scale).

    Plan: ONE tiny driver scalar (two int64s from per-block partials over
    the positive-balance subset — the only value collected), then the
    country+balance filter vectorized per block, then a co-partitioned ANTI
    hash_join against per-block-deduped order custkeys, then a per-block
    partial groupby per country code."""
    cust_cols = _read(sf_dir, "customer", ["c_custkey", "c_nationkey", "c_acctbal"])

    def pos_partial(t: pa.Table) -> pa.Table:
        cents = _cents(t["c_acctbal"])
        pos = pc.greater(cents, pa.scalar(0, pa.int64()))
        kept = cents.filter(pos) if isinstance(cents, pa.ChunkedArray) else pc.filter(cents, pos)
        return pa.Table.from_pylist(
            [{"sum_cents": int(pc.sum(kept).as_py() or 0), "cnt": len(kept)}],
            schema=pa.schema([("sum_cents", pa.int64()), ("cnt", pa.int64())]),
        )

    stats = cust_cols.map_batches(pos_partial, batch_format="pyarrow").to_pandas()
    sum_cents, cnt = int(stats["sum_cents"].sum()), int(stats["cnt"].sum())

    codes = pa.array(list(Q22_COUNTRY_CODES), pa.int64())

    def filt(t: pa.Table) -> pa.Table:
        nk = pc.cast(t["c_nationkey"], pa.int64()).to_numpy(zero_copy_only=False)
        code = pa.array(nk % 25, pa.int64())  # pyarrow 16 has no pc.mod
        cents = _cents(t["c_acctbal"])
        keep = pc.and_(
            pc.is_in(code, value_set=codes),
            pc.greater(
                pc.multiply(cents, pa.scalar(cnt, pa.int64())),
                pa.scalar(sum_cents, pa.int64()),
            ),
        )
        kept_idx = np.flatnonzero(keep.to_numpy(zero_copy_only=False))
        kept = t.take(kept_idx)
        return pa.Table.from_arrays(
            [
                pc.cast(kept["c_custkey"], pa.int64()),
                pa.array(nk[kept_idx] % 25, pa.int64()),
                _cents(kept["c_acctbal"]),
            ],
            names=["c_custkey", "country_code", "acctbal_cents"],
        )

    def order_keys(t: pa.Table) -> pa.Table:
        u = pc.unique(pc.cast(t["o_custkey"], pa.int64()))
        return pa.Table.from_arrays([u], names=["o_custkey"])

    import pyarrow.dataset as pads

    no_orders = hash_join(
        cust_cols.map_batches(filt, batch_format="pyarrow"),
        rd.read_parquet(
            _pq(sf_dir, "orders"),
            columns=["o_custkey"],
            filter=pads.field("o_orderdate") >= pd.Timestamp(DORMANT_CUTOFF),
        ).map_batches(order_keys, batch_format="pyarrow"),
        left_on="c_custkey",
        right_on="o_custkey",
        key_type=pa.int64(),
        left_fields=[pa.field("country_code", pa.int64()),
                     pa.field("acctbal_cents", pa.int64())],
        right_fields=[],
        how="anti",
    )

    def cc_partial(t: pa.Table) -> pa.Table:
        g = t.group_by("country_code").aggregate(
            [("acctbal_cents", "sum"), ([], "count_all")]
        )
        return pa.Table.from_arrays(
            [g["country_code"], pc.cast(g["count_all"], pa.int64()),
             g["acctbal_cents_sum"]],
            names=["country_code", "numcust", "totacctbal_cents"],
        )

    out = (
        no_orders.map_batches(cc_partial, batch_format="pyarrow")
        .repartition(8)
        .groupby("country_code")
        .aggregate(
            Sum("numcust", alias_name="numcust"),
            Sum("totacctbal_cents", alias_name="totacctbal_cents"),
        )
    ).to_pandas()
    # ≤ |country set| rows by construction; pin the schema so a legitimately
    # empty result (no dormant high-balance customer at tiny sf) still
    # carries its typed columns
    cols = ["country_code", "numcust", "totacctbal_cents"]
    if out.empty:
        out = pd.DataFrame({c: pd.Series(dtype="int64") for c in cols})
    return out[cols]


SQL_CUSTOMERS_UNTAPPED = f"""
WITH avg_bal AS (
  SELECT CAST(sum(CAST(round(c_acctbal * 100) AS BIGINT)) AS BIGINT) AS sum_cents,
         CAST(count(*) AS BIGINT) AS cnt
  FROM customer WHERE round(c_acctbal * 100) > 0
)
SELECT c.c_nationkey % 25 AS country_code,
       CAST(count(*) AS BIGINT) AS numcust,
       CAST(sum(CAST(round(c.c_acctbal * 100) AS BIGINT)) AS BIGINT) AS totacctbal_cents
FROM customer c, avg_bal a
WHERE c.c_nationkey % 25 IN {Q22_COUNTRY_CODES}
  AND CAST(round(c.c_acctbal * 100) AS BIGINT) * a.cnt > a.sum_cents
  AND NOT EXISTS (SELECT 1 FROM orders o
                  WHERE o.o_custkey = c.c_custkey
                    AND o.o_orderdate >= DATE '{DORMANT_CUTOFF}')
GROUP BY 1
"""


# ---------------------------------------------------------------------------
# Rolling ORDER-STATISTIC window: trailing median per user
# ---------------------------------------------------------------------------

ROLLMED_FRAME = 10


def q_user_value_rolling_median(sf_dir: str) -> rd.Dataset:
    """Per user, the exact MEDIAN of event value (integer cents) over the
    trailing ROLLMED_FRAME events in event_id order — the order-statistic
    window frame that, unlike the sum/count frames (q_user_value_moving_sum),
    cannot be maintained by a running accumulator and therefore exercises
    per-frame re-ranking. Even frames average the two middle cents values;
    a half-cent midpoint of two int64s is exactly representable in the
    double output, so results stay bit-stable at any parallelism.

    ONE hash_exchange on user_id; inside a shard the frame median is a
    C-level pandas rolling(...).median() over the sorted rows. At web
    scale the per-user history is the partitioning contract (one user's
    rows fit one task), same as every other per-user window here."""
    out_schema = pa.schema([
        pa.field("event_id", pa.int64()), pa.field("user_id", pa.int64()),
        pa.field("med_cents", pa.float64()),
    ])

    def shard_roll(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        df = pa.Table.from_arrays(
            [t["event_id"], t["user_id"], _cents(t["value"])],
            names=["event_id", "user_id", "cents"],
        ).to_pandas()
        df = df.sort_values(["user_id", "event_id"], kind="mergesort")
        med = (
            df.groupby("user_id", sort=False)["cents"]
            .rolling(ROLLMED_FRAME, min_periods=1).median()
            .reset_index(level=0, drop=True)
        )
        return pa.Table.from_arrays(
            [pa.array(df["event_id"].to_numpy(dtype="int64")),
             pa.array(df["user_id"].to_numpy(dtype="int64")),
             pa.array(med.to_numpy(dtype="float64"))],
            schema=out_schema,
        )

    return hash_exchange(
        _read(sf_dir, "events", ["event_id", "user_id", "value"]),
        ["user_id"],
        shard_roll,
        out_schema,
    )


SQL_USER_VALUE_ROLLING_MEDIAN = f"""
SELECT event_id, user_id,
       CAST(median(CAST(round(value * 100) AS BIGINT)) OVER (
         PARTITION BY user_id ORDER BY event_id
         ROWS BETWEEN {ROLLMED_FRAME - 1} PRECEDING AND CURRENT ROW
       ) AS DOUBLE) AS med_cents
FROM events
"""


# ---------------------------------------------------------------------------
# Growth accounting: first-seen users per day + cumulative distinct users
# ---------------------------------------------------------------------------


def q_events_new_users(sf_dir: str) -> pd.DataFrame:
    """Daily NEW users (first-ever event lands that day) and the running
    cumulative distinct-user count — the growth-accounting query behind
    every DAU/"total users" dashboard, and the streaming-friendly way to
    compute cumulative COUNT(DISTINCT): reduce to user-grain first-seen
    (mergeable MIN — no global distinct needed), then day-grain counts.

    Topology: per-block (user, min day) partials -> ONE user-grain
    groupby-min -> per-block per-day counts -> ONE tiny day-grain groupby
    -> cumulative sum over the (days-of-history)-sized series on the
    driver. The cumulative is the only inherently sequential step and it
    is day-grain, never row-grain."""
    from ray.data.aggregate import Min as RMin, Sum as RSum

    DAY_US = 86_400_000_000

    def first_partial(t: pa.Table) -> pa.Table:
        ts = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        day = (ts // DAY_US) * DAY_US
        tab = pa.Table.from_arrays(
            [t["user_id"], pa.array(day, pa.int64())], names=["user_id", "day_us"]
        )
        g = tab.group_by("user_id").aggregate([("day_us", "min")])
        return pa.Table.from_arrays(
            [g["user_id"], g["day_us_min"]], names=["user_id", "day_us"]
        )

    first_seen = (
        _read(sf_dir, "events", ["user_id", "ts"])
        .map_batches(first_partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(RMin("day_us", alias_name="day_us"))
    )

    def day_partial(t: pa.Table) -> pa.Table:
        g = t.group_by("day_us").aggregate([([], "count_all")])
        return pa.Table.from_arrays(
            [g["day_us"], pc.cast(g["count_all"], pa.int64())],
            names=["day_us", "n_new"],
        )

    daily = (
        first_seen.map_batches(day_partial, batch_format="pyarrow")
        .groupby("day_us")
        .aggregate(RSum("n_new", alias_name="n_new"))
    ).to_pandas()

    daily = daily.sort_values("day_us").reset_index(drop=True)
    daily["cum_users"] = daily["n_new"].cumsum().astype("int64")
    return daily[["day_us", "n_new", "cum_users"]]


SQL_EVENTS_NEW_USERS = """
WITH first_seen AS (
  SELECT user_id, min(epoch_us(date_trunc('day', ts))) AS day_us
  FROM events GROUP BY user_id
),
daily AS (
  SELECT day_us, CAST(count(*) AS BIGINT) AS n_new FROM first_seen GROUP BY day_us
)
SELECT day_us, n_new,
       CAST(sum(n_new) OVER (ORDER BY day_us) AS BIGINT) AS cum_users
FROM daily
"""


# ---------------------------------------------------------------------------
# Argmax-per-group join (TPC-H Q15 flavor): dominant supplier per part
# ---------------------------------------------------------------------------


def q_part_top_supplier(sf_dir: str) -> rd.Dataset:
    """For every part, the supplier that shipped the LARGEST total quantity
    of it (ties -> smallest suppkey), annotated with that supplier's
    balance — the argmax-per-group JOIN (TPC-H Q15's max-revenue-supplier
    flavor): a grouped aggregate whose winner row must then pull attributes
    from a dimension.

    Plan (two exchanges): per-block (partkey, suppkey, qty) partials, ONE
    hash_exchange on partkey finishing the pair sums AND the per-part
    argmax in the same shard task (every (part, supp) pair of a part is
    whole in its shard, so the argmax there is exact — no second pass);
    then ONE co-partitioned hash_join pulls s_acctbal for the winners.
    Winner selection never ships losing pairs out of the shard."""
    pair_schema = pa.schema([
        ("l_partkey", pa.int64()), ("l_suppkey", pa.int64()), ("qty", pa.int64()),
    ])

    def pair_partial(t: pa.Table) -> pa.Table:
        tab = pa.Table.from_arrays(
            [
                pc.cast(t["l_partkey"], pa.int64()),
                pc.cast(t["l_suppkey"], pa.int64()),
                pc.cast(
                    pc.round(t["l_quantity"], round_mode="half_towards_infinity"),
                    pa.int64(),
                ),
            ],
            names=["l_partkey", "l_suppkey", "qty"],
        )
        g = tab.group_by(["l_partkey", "l_suppkey"]).aggregate([("qty", "sum")])
        return pa.Table.from_arrays(
            [g["l_partkey"], g["l_suppkey"], g["qty_sum"]], schema=pair_schema
        )

    win_schema = pa.schema([
        ("l_partkey", pa.int64()), ("top_suppkey", pa.int64()),
        ("total_qty", pa.int64()),
    ])

    def argmax_shard(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df = df.groupby(["l_partkey", "l_suppkey"], sort=False)["qty"].sum().reset_index()
        # qty desc, suppkey asc -> first row per part is the winner
        df = df.sort_values(["l_partkey", "qty", "l_suppkey"],
                            ascending=[True, False, True], kind="mergesort")
        win = df.drop_duplicates("l_partkey", keep="first")
        return pa.Table.from_arrays(
            [pa.array(win["l_partkey"].to_numpy(dtype="int64")),
             pa.array(win["l_suppkey"].to_numpy(dtype="int64")),
             pa.array(win["qty"].to_numpy(dtype="int64"))],
            schema=win_schema,
        )

    winners = hash_exchange(
        _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey", "l_quantity"])
        .map_batches(pair_partial, batch_format="pyarrow"),
        ["l_partkey"],
        argmax_shard,
        win_schema,
    )

    def supp_prep(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [pc.cast(t["s_suppkey"], pa.int64()), _cents(t["s_acctbal"])],
            names=["s_suppkey", "s_acctbal_cents"],
        )

    return hash_join(
        winners.map_batches(
            lambda t: pa.Table.from_arrays(
                [t["top_suppkey"], t["l_partkey"], t["total_qty"]],
                names=["top_suppkey", "l_partkey", "total_qty"],
            ),
            batch_format="pyarrow",
        ),
        _read(sf_dir, "supplier", ["s_suppkey", "s_acctbal"]).map_batches(
            supp_prep, batch_format="pyarrow"
        ),
        left_on="top_suppkey",
        right_on="s_suppkey",
        key_type=pa.int64(),
        left_fields=[pa.field("l_partkey", pa.int64()),
                     pa.field("total_qty", pa.int64())],
        right_fields=[pa.field("s_acctbal_cents", pa.int64())],
    )


SQL_PART_TOP_SUPPLIER = """
WITH pair AS (
  SELECT l_partkey, l_suppkey,
         CAST(sum(CAST(round(l_quantity) AS BIGINT)) AS BIGINT) AS qty
  FROM lineitem GROUP BY 1, 2
),
win AS (
  SELECT l_partkey, l_suppkey AS top_suppkey, qty AS total_qty,
         row_number() OVER (PARTITION BY l_partkey
                            ORDER BY qty DESC, l_suppkey ASC) AS rn
  FROM pair
)
SELECT w.top_suppkey, w.l_partkey, w.total_qty,
       CAST(round(s.s_acctbal * 100) AS BIGINT) AS s_acctbal_cents
FROM win w JOIN supplier s ON s.s_suppkey = w.top_suppkey
WHERE w.rn = 1
"""


# ---------------------------------------------------------------------------
# TPC-H Q18 shape: large-volume orders (HAVING over a fact-fact join)
# ---------------------------------------------------------------------------

Q18_QTY = 300


def q_orders_large_volume(sf_dir: str) -> rd.Dataset:
    """TPC-H Q18 shape (large-volume customers): orders whose TOTAL lineitem
    quantity exceeds Q18_QTY, annotated with the order's customer and
    price — the HAVING-over-join: an aggregate predicate decides which join
    keys survive, so the filter can only run AFTER the per-order reduce.

    Plan (two exchanges): per-block (orderkey, qty) partials; the first
    hash_join fuses the final per-order combine into its shard merge
    (combine_left_sum) while pulling (custkey, totalprice) from orders;
    the HAVING filter is vectorized per block on the join output (the
    surviving set is tiny), and a second co-partitioned join would attach
    customer attributes at scale — custkey itself is the output here, so
    none is needed. Quantities are integral units: the predicate is pure
    int64."""

    def qty_partial(t: pa.Table) -> pa.Table:
        tab = pa.Table.from_arrays(
            [
                pc.cast(t["l_orderkey"], pa.int64()),
                pc.cast(
                    pc.round(t["l_quantity"], round_mode="half_towards_infinity"),
                    pa.int64(),
                ),
            ],
            names=["l_orderkey", "total_qty"],
        )
        g = tab.group_by("l_orderkey").aggregate([("total_qty", "sum")])
        return pa.Table.from_arrays(
            [g["l_orderkey"], g["total_qty_sum"]], names=["l_orderkey", "total_qty"]
        )

    def orders_prep(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [pc.cast(t["o_orderkey"], pa.int64()),
             pc.cast(t["o_custkey"], pa.int64()),
             _cents(t["o_totalprice"])],
            names=["o_orderkey", "o_custkey", "totalprice_cents"],
        )

    joined = hash_join(
        _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"]).map_batches(
            qty_partial, batch_format="pyarrow"
        ),
        _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"]).map_batches(
            orders_prep, batch_format="pyarrow"
        ),
        left_on="l_orderkey",
        right_on="o_orderkey",
        key_type=pa.int64(),
        left_fields=[pa.field("total_qty", pa.int64())],
        right_fields=[pa.field("o_custkey", pa.int64()),
                      pa.field("totalprice_cents", pa.int64())],
        combine_left_sum=True,
    )

    def having(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater(t["total_qty"], pa.scalar(Q18_QTY, pa.int64())))

    return joined.map_batches(having, batch_format="pyarrow")


SQL_ORDERS_LARGE_VOLUME = f"""
SELECT l.l_orderkey, CAST(sum(CAST(round(l.l_quantity) AS BIGINT)) AS BIGINT) AS total_qty,
       o.o_custkey, CAST(round(o.o_totalprice * 100) AS BIGINT) AS totalprice_cents
FROM lineitem l JOIN orders o ON o.o_orderkey = l.l_orderkey
GROUP BY l.l_orderkey, o.o_custkey, o.o_totalprice
HAVING sum(CAST(round(l.l_quantity) AS BIGINT)) > {Q18_QTY}
"""


# ---------------------------------------------------------------------------
# TPC-H Q21 shape: suppliers who alone held up multi-supplier orders
# ---------------------------------------------------------------------------

Q21_LATE_DAYS = 60


def q_suppliers_late_sole(sf_dir: str) -> rd.Dataset:
    """TPC-H Q21 shape (suppliers who kept orders waiting), adapted to this
    schema's dates: count, per supplier, the multi-supplier orders where
    THAT supplier shipped late (any of its lines left more than
    Q21_LATE_DAYS after the order date) and every other supplier shipped on
    time — the exists + not-exists double correlation, the hardest join
    shape in the TPC-H suite.

    Plan (three exchanges, all key-hash):
      1. per-block (orderkey, suppkey, max_shipdate) partials — "any line
         late" folds to a mergeable MAX, so raw lineitems never ride the
         join; ONE co-partitioned hash_join attaches o_orderdate.
      2. ONE hash_exchange on orderkey: the shard task merges the pair
         partials, flags late suppliers, and applies the per-order
         predicate (>= 2 suppliers, exactly one late) — both correlated
         subqueries collapse into plain per-group logic once the order's
         rows are co-located.
      3. a tiny suppkey groupby counts the waiting orders."""
    pair_schema = pa.schema([
        ("l_orderkey", pa.int64()), ("l_suppkey", pa.int64()),
        ("max_ship_us", pa.int64()),
    ])

    def pair_partial(t: pa.Table) -> pa.Table:
        tab = pa.Table.from_arrays(
            [
                pc.cast(t["l_orderkey"], pa.int64()),
                pc.cast(t["l_suppkey"], pa.int64()),
                pc.cast(t["l_shipdate"], pa.int64()),
            ],
            names=["l_orderkey", "l_suppkey", "max_ship_us"],
        )
        g = tab.group_by(["l_orderkey", "l_suppkey"]).aggregate(
            [("max_ship_us", "max")]
        )
        return pa.Table.from_arrays(
            [g["l_orderkey"], g["l_suppkey"], g["max_ship_us_max"]],
            schema=pair_schema,
        )

    def orders_prep(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [pc.cast(t["o_orderkey"], pa.int64()),
             pc.cast(t["o_orderdate"], pa.int64())],
            names=["o_orderkey", "orderdate_us"],
        )

    joined = hash_join(
        _read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_shipdate"])
        .map_batches(pair_partial, batch_format="pyarrow"),
        _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"]).map_batches(
            orders_prep, batch_format="pyarrow"
        ),
        left_on="l_orderkey",
        right_on="o_orderkey",
        key_type=pa.int64(),
        left_fields=[pa.field("l_suppkey", pa.int64()),
                     pa.field("max_ship_us", pa.int64())],
        right_fields=[pa.field("orderdate_us", pa.int64())],
    )

    late_us = Q21_LATE_DAYS * 86_400_000_000
    sole_schema = pa.schema([("l_suppkey", pa.int64()), ("one", pa.int64())])

    def per_order(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        # merge cross-block pair partials, then flag lateness per supplier
        pair = df.groupby(["l_orderkey", "l_suppkey"], sort=False).agg(
            max_ship_us=("max_ship_us", "max"),
            orderdate_us=("orderdate_us", "first"),
        ).reset_index()
        pair["late"] = (pair["max_ship_us"] > pair["orderdate_us"] + late_us)
        g = pair.groupby("l_orderkey", sort=False)["late"].agg(["size", "sum"])
        ok = g[(g["size"] > 1) & (g["sum"] == 1)].index
        win = pair[pair["late"] & pair["l_orderkey"].isin(ok)]
        if win.empty:
            return sole_schema.empty_table()
        return pa.Table.from_arrays(
            [pa.array(win["l_suppkey"].to_numpy(dtype="int64")),
             pa.array(np.ones(len(win), dtype="int64"))],
            schema=sole_schema,
        )

    return (
        hash_exchange(joined, ["l_orderkey"], per_order, sole_schema)
        .groupby("l_suppkey")
        .aggregate(Sum("one", alias_name="n_wait"))
    )


SQL_SUPPLIERS_LATE_SOLE = f"""
WITH lo AS (
  SELECT l.l_orderkey, l.l_suppkey,
         max(CASE WHEN l.l_shipdate > o.o_orderdate + INTERVAL {Q21_LATE_DAYS} DAY
                  THEN 1 ELSE 0 END) AS late
  FROM lineitem l JOIN orders o ON o.o_orderkey = l.l_orderkey
  GROUP BY 1, 2
),
ord AS (
  SELECT l_orderkey, count(*) AS n_supp, sum(late) AS n_late
  FROM lo GROUP BY 1
)
SELECT lo.l_suppkey, CAST(count(*) AS BIGINT) AS n_wait
FROM lo JOIN ord USING (l_orderkey)
WHERE lo.late = 1 AND ord.n_supp > 1 AND ord.n_late = 1
GROUP BY lo.l_suppkey
"""


# ---------------------------------------------------------------------------
# Streaming semantics: incremental micro-batch sessionization with state
# ---------------------------------------------------------------------------

SESSIONIZE_CHUNKS = 4


def q_events_sessionize_incremental(sf_dir: str) -> rd.Dataset:
    """Micro-batch STREAMING sessionization: the event log is consumed in
    SESSIONIZE_CHUNKS arrival windows (time-ordered micro-batches), and a
    per-user state vector (n_sessions, n_events, last event time) carries
    across batches — the structured-streaming session-window shape with
    checkpointable keyed state, which the one-shot q_events_sessionize
    cannot express. The final state table is BIT-IDENTICAL to the batch
    operator's output (same oracle), proving the state handoff loses
    nothing.

    Per micro-batch: ONE hash_exchange co-locates the chunk's events with
    the carried state rows (tagged union, the CDC-replay topology); the
    shard task seeds each user's gap computation with the carried last
    timestamp, advances the counters vectorized (sort + shift + boundary
    mask, no per-user Python), and emits the new state, which materializes
    as the next batch's input. State is user-grain — object-store resident,
    never driver-collected; a crash resumes from the last materialized
    state exactly as a streaming checkpoint would."""
    ev = _read(sf_dir, "events", ["user_id", "ts"])

    # chunk boundaries from the global time range (one tiny aggregate)
    bounds = ev.map_batches(
        lambda t: pa.Table.from_pylist(
            [{"lo": int(pc.min(pc.cast(t["ts"], pa.int64())).as_py() or 0),
              "hi": int(pc.max(pc.cast(t["ts"], pa.int64())).as_py() or 0)}],
            schema=pa.schema([("lo", pa.int64()), ("hi", pa.int64())]),
        ),
        batch_format="pyarrow",
    ).to_pandas()
    lo, hi = int(bounds["lo"].min()), int(bounds["hi"].max())
    span = hi - lo + 1
    cuts = [lo + (span * i) // SESSIONIZE_CHUNKS for i in range(SESSIONIZE_CHUNKS + 1)]

    state_schema = pa.schema([
        ("user_id", pa.int64()), ("n_sessions", pa.int64()),
        ("n_events", pa.int64()), ("last_ts_us", pa.int64()),
        ("is_state", pa.int8()),
    ])
    gap_us = SESSION_GAP_S * 1_000_000

    def upd(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        # state row (is_state=1) sorts before the chunk's events of the same
        # user: its last_ts_us is from an earlier time window; ties break on
        # is_state desc to keep the seed first
        df = df.sort_values(
            ["user_id", "last_ts_us", "is_state"],
            ascending=[True, True, False], kind="mergesort",
        )
        same_user = df["user_id"].eq(df["user_id"].shift())
        gap = df["last_ts_us"] - df["last_ts_us"].shift()
        is_event = df["is_state"].eq(0)
        new_sess = is_event & (~same_user | (same_user & (gap > gap_us)))
        agg = pd.DataFrame({
            "user_id": df["user_id"].to_numpy(),
            "sess": np.where(df["is_state"].to_numpy() == 1,
                             df["n_sessions"].to_numpy(),
                             new_sess.to_numpy().astype("int64")),
            "ev": np.where(df["is_state"].to_numpy() == 1,
                           df["n_events"].to_numpy(), 1),
            "last": df["last_ts_us"].to_numpy(),
        }).groupby("user_id", sort=False).agg(
            n_sessions=("sess", "sum"), n_events=("ev", "sum"),
            last_ts_us=("last", "max"),
        ).reset_index()
        return pa.Table.from_arrays(
            [pa.array(agg["user_id"].to_numpy(dtype="int64")),
             pa.array(agg["n_sessions"].to_numpy(dtype="int64")),
             pa.array(agg["n_events"].to_numpy(dtype="int64")),
             pa.array(agg["last_ts_us"].to_numpy(dtype="int64")),
             pa.array(np.ones(len(agg), dtype="int8"))],
            schema=state_schema,
        )

    state = None
    for i in range(SESSIONIZE_CHUNKS):
        lo_i, hi_i = cuts[i], cuts[i + 1]

        def chunk_rows(t: pa.Table, _lo=lo_i, _hi=hi_i) -> pa.Table:
            ts = pc.cast(t["ts"], pa.int64())
            keep = pc.and_(
                pc.greater_equal(ts, pa.scalar(_lo, pa.int64())),
                pc.less(ts, pa.scalar(_hi, pa.int64())),
            )
            kept = t.filter(keep)
            n = kept.num_rows
            return pa.Table.from_arrays(
                [pc.cast(kept["user_id"], pa.int64()),
                 pa.nulls(n, pa.int64()).fill_null(0),
                 pa.nulls(n, pa.int64()).fill_null(0),
                 pc.cast(kept["ts"], pa.int64()),
                 pa.nulls(n, pa.int8()).fill_null(0)],
                schema=state_schema,
            )

        batch = ev.map_batches(chunk_rows, batch_format="pyarrow")
        merged = batch if state is None else batch.union(state)
        state = hash_exchange(
            merged, ["user_id"], upd, state_schema
        ).materialize()  # the micro-batch checkpoint

    return state.map_batches(
        lambda t: t.select(["user_id", "n_sessions", "n_events"]),
        batch_format="pyarrow",
    )


# ---------------------------------------------------------------------------
# Exact grouped median by distributed SELECTION (histogram refinement)
# ---------------------------------------------------------------------------

MEDSEL_BUCKETS = 512        # histogram resolution per refinement round
MEDSEL_COLLECT_CAP = 8192   # final exact pass runs once range <= this


def q_order_price_median_select(sf_dir: str) -> pd.DataFrame:
    """Exact per-priority median order price WITHOUT materializing any
    group's values — distributed SELECTION by iterative histogram
    refinement, the scale path when one group no longer fits a task (the
    documented limit of q_order_price_quantiles' per-group sort).

    Topology per round: one map_batches pass computes per-block counts of
    the (priority, bucket) histogram over each group's CURRENT candidate
    range [lo, hi] (np.bincount — vectorized); partials tree-combine
    (repartition -> per-block sum) and a tiny driver merge (G x 512 rows)
    walks the cumulative counts to the bucket(s) holding the k-th and
    (k+1)-th order statistics, narrowing the range by ~512x. Cents span
    ~6e7 -> 2 rounds, then ONE exact pass value-counts the <=8192
    remaining candidates per group and the driver reads off the two
    middle values. Total: O(log_512 range) streaming scans, O(G x 512)
    driver state, no shuffle of row-scale data at all (every exchange is
    histogram partials). Output median_cents_x2 = lower + upper middle
    (exact integer; DuckDB's interpolated median() x2).

    The cents projection is materialized once so the R scans re-read a
    2-column int table from the object store instead of re-decoding
    parquet each round; at a 100-TB tier with a tight store you would
    drop the materialize and let each round re-scan the pruned read —
    both stream."""
    part_schema = pa.schema([
        ("priority", pa.string()), ("bucket", pa.int64()),
        ("cnt", pa.int64()),
    ])

    def to_cents(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [t["o_orderpriority"], _cents(t["o_totalprice"])],
            names=["priority", "cents"],
        )

    ds = (
        _read(sf_dir, "orders", ["o_orderpriority", "o_totalprice"])
        .map_batches(to_cents, batch_format="pyarrow")
        .materialize()
    )

    def collect_partials(make_block):
        """partials -> repartition -> per-block combine -> driver merge."""
        parts = (
            ds.map_batches(make_block, batch_format="pyarrow")
            .repartition(8)
            .map_batches(
                lambda t: pa.Table.from_arrays(
                    [
                        t.group_by(["priority", "bucket"]).aggregate(
                            [("cnt", "sum")]
                        )[c]
                        for c in ("priority", "bucket", "cnt_sum")
                    ],
                    schema=part_schema,
                ),
                batch_format="pyarrow",
            )
            .to_pandas()
        )
        return (
            parts.groupby(["priority", "bucket"], as_index=False)["cnt"].sum()
        )

    # pass 0: per-group count / min / max (bucket column carries min or max)
    def blk_stats(t: pa.Table) -> pa.Table:
        g = t.group_by("priority").aggregate(
            [("cents", "count"), ("cents", "min"), ("cents", "max")]
        )
        rows = []
        for p, n, lo, hi in zip(
            g["priority"].to_pylist(), g["cents_count"].to_pylist(),
            g["cents_min"].to_pylist(), g["cents_max"].to_pylist(),
        ):
            rows.append({"priority": p, "bucket": 0, "cnt": n})
            rows.append({"priority": p, "bucket": 1, "cnt": lo})
            rows.append({"priority": p, "bucket": 2, "cnt": hi})
        return pa.Table.from_pylist(rows, schema=part_schema)

    raw = (
        ds.map_batches(blk_stats, batch_format="pyarrow").to_pandas()
    )
    state: dict = {}
    for p, sub in raw.groupby("priority"):
        n = int(sub.loc[sub["bucket"] == 0, "cnt"].sum())
        lo = int(sub.loc[sub["bucket"] == 1, "cnt"].min())
        hi = int(sub.loc[sub["bucket"] == 2, "cnt"].max())
        # 0-based ranks of the two middle order statistics
        state[p] = {"n": n, "lo": lo, "hi": hi, "below": 0,
                    "k1": (n - 1) // 2, "k2": n // 2}

    B = MEDSEL_BUCKETS
    for _ in range(8):
        pending = {p: s for p, s in state.items()
                   if s["hi"] - s["lo"] + 1 > MEDSEL_COLLECT_CAP}
        if not pending:
            break
        ranges = {p: (s["lo"], s["hi"]) for p, s in pending.items()}

        def blk_hist(t: pa.Table, _ranges=ranges) -> pa.Table:
            pr = np.asarray(t["priority"].to_pylist(), dtype=object)
            v = t["cents"].to_numpy(zero_copy_only=False)
            rows = []
            for p, (lo, hi) in _ranges.items():
                w = hi - lo + 1
                m = (pr == p) & (v >= lo) & (v <= hi)
                if not m.any():
                    continue
                b = (v[m] - lo) * B // w
                c = np.bincount(b, minlength=B)
                nz = np.nonzero(c)[0]
                rows.extend(
                    {"priority": p, "bucket": int(i), "cnt": int(c[i])}
                    for i in nz
                )
            if not rows:
                return part_schema.empty_table()
            return pa.Table.from_pylist(rows, schema=part_schema)

        hist = collect_partials(blk_hist)
        for p, s in pending.items():
            sub = hist[hist["priority"] == p].sort_values("bucket")
            lo, hi = s["lo"], s["hi"]
            w = hi - lo + 1
            cum = 0
            b1 = b2 = None
            for bkt, cnt in zip(sub["bucket"], sub["cnt"]):
                t1, t2 = s["k1"] - s["below"], s["k2"] - s["below"]
                if b1 is None and cum + cnt > t1:
                    b1 = int(bkt)
                    below_b1 = cum
                if cum + cnt > t2:
                    b2 = int(bkt)
                    break
                cum += cnt
            # bucket i covers cents in [lo + ceil(i*w/B), lo + ceil((i+1)*w/B) - 1]
            new_lo = lo + -((-b1 * w) // B)
            new_hi = lo + -((-(b2 + 1) * w) // B) - 1
            s["below"] += below_b1
            s["lo"], s["hi"] = new_lo, min(new_hi, hi)

    ranges = {p: (s["lo"], s["hi"]) for p, s in state.items()}

    def blk_vals(t: pa.Table, _ranges=ranges) -> pa.Table:
        pr = np.asarray(t["priority"].to_pylist(), dtype=object)
        v = t["cents"].to_numpy(zero_copy_only=False)
        rows = []
        for p, (lo, hi) in _ranges.items():
            m = (pr == p) & (v >= lo) & (v <= hi)
            if not m.any():
                continue
            vals, cnts = np.unique(v[m], return_counts=True)
            rows.extend(
                {"priority": p, "bucket": int(a), "cnt": int(c)}
                for a, c in zip(vals, cnts)
            )
        if not rows:
            return part_schema.empty_table()
        return pa.Table.from_pylist(rows, schema=part_schema)

    vals = collect_partials(blk_vals)
    out = []
    for p, s in sorted(state.items()):
        sub = vals[vals["priority"] == p].sort_values("bucket")
        cum = s["below"]
        v1 = v2 = None
        for val, cnt in zip(sub["bucket"], sub["cnt"]):
            if v1 is None and cum + cnt > s["k1"]:
                v1 = int(val)
            if cum + cnt > s["k2"]:
                v2 = int(val)
                break
            cum += cnt
        out.append({"priority": p, "n_orders": s["n"],
                    "median_cents_x2": v1 + v2})
    return pd.DataFrame(out).astype(
        {"n_orders": "int64", "median_cents_x2": "int64"}
    )


SQL_ORDER_PRICE_MEDIAN_SELECT = """
SELECT o_orderpriority AS priority,
       CAST(count(*) AS BIGINT) AS n_orders,
       CAST(round(2 * median(CAST(round(o_totalprice * 100) AS BIGINT)))
            AS BIGINT) AS median_cents_x2
FROM orders GROUP BY 1
"""


# ---------------------------------------------------------------------------
# TPC-H Q8 shape: national market share inside a region's order volume
# ---------------------------------------------------------------------------

MS_REGION = "AMERICA"
MS_NATION = "NATION_3"   # the supplier nation whose share is measured
MS_TYPE = "PROMO"
MS_DATE_LO = "1995-01-01"
MS_DATE_HI = "1997-01-01"  # exclusive


def q_nation_market_share(sf_dir: str) -> rd.Dataset:
    """TPC-H Q8 shape: of the PROMO-part volume ordered by AMERICA-region
    customers in 1995-1996, what share (per order year) was supplied by
    MS_NATION — the deepest join composition in the suite (lineitem ⋈ part
    ⋈ orders ⋈ customer ⋈ nation ⋈ region ⋈ supplier), mixing every join
    regime the engine has:
      - lineitem ⋈ part(filtered) and ⋈ orders are fact ⋈ fact -> two
        co-partitioned hash_joins (semi for the part gate: only existence
        matters, so the exchange carries no part payload);
      - the AMERICA customer gate is a third co-partitioned SEMI join
        (customer is fact-sized — never a driver-collected probe set);
      - nation/region/supplier are dim-sized -> broadcast (supplier via
        the sorted searchsorted pair, the Q5 idiom; at a scale where
        supplier outgrows broadcast, swap for a fourth hash_join — same
        code shape as the orders edge).
    Volume stays in integer cents; the share is floor micro-units computed
    in Python bigints on the <= 2-row final result, so the output is exact
    at any parallelism. The year pre-aggregation runs per block BEFORE the
    final groupby, so the last exchange moves a handful of partial rows."""
    import pyarrow.dataset as pds

    lo, hi = pd.Timestamp(MS_DATE_LO), pd.Timestamp(MS_DATE_HI)

    # --- broadcast dims
    nation = pd.read_parquet(_pq(sf_dir, "nation"))
    region = pd.read_parquet(_pq(sf_dir, "region"))
    rkey = int(region.loc[region["r_name"] == MS_REGION, "r_regionkey"].iloc[0])
    region_nkeys = set(
        nation.loc[nation["n_regionkey"] == rkey, "n_nationkey"].astype(int)
    )
    target_nkey = int(
        nation.loc[nation["n_name"] == MS_NATION, "n_nationkey"].iloc[0]
    )
    supp = pd.read_parquet(_pq(sf_dir, "supplier"), columns=["s_suppkey", "s_nationkey"])
    _sk = np.argsort(supp["s_suppkey"].to_numpy(dtype="int64"), kind="mergesort")
    supp_ref = ray.put((
        supp["s_suppkey"].to_numpy(dtype="int64")[_sk],
        supp["s_nationkey"].to_numpy(dtype="int64")[_sk],
    ))
    nk_ref = ray.put(region_nkeys)

    # --- lineitem volume rows, gated to PROMO parts (fact ⋈ fact, semi)
    def li_prep(t: pa.Table) -> pa.Table:
        vol = _cents(pc.multiply(
            t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"])
        ))
        return pa.Table.from_arrays(
            [t["l_partkey"], t["l_suppkey"], t["l_orderkey"], vol],
            names=["l_partkey", "l_suppkey", "l_orderkey", "vol_cents"],
        )

    li = _read(
        sf_dir, "lineitem",
        ["l_partkey", "l_suppkey", "l_orderkey", "l_extendedprice", "l_discount"],
    ).map_batches(li_prep, batch_format="pyarrow")
    promo = rd.read_parquet(
        _pq(sf_dir, "part"), columns=["p_partkey"],
        filter=pds.field("p_type") == MS_TYPE,
    )
    j1 = hash_join(
        li, promo,
        left_on="l_partkey", right_on="p_partkey", key_type=pa.int64(),
        left_fields=[pa.field("l_suppkey", pa.int64()),
                     pa.field("l_orderkey", pa.int64()),
                     pa.field("vol_cents", pa.int64())],
        right_fields=[],
        how="semi",
    )

    # --- ⋈ orders in the window (fact ⋈ fact, inner), carrying year+custkey
    def ord_prep(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [t["o_orderkey"], t["o_custkey"],
             pc.cast(pc.year(t["o_orderdate"]), pa.int64())],
            names=["o_orderkey", "o_custkey", "o_year"],
        )

    orders = rd.read_parquet(
        _pq(sf_dir, "orders"), columns=["o_orderkey", "o_custkey", "o_orderdate"],
        filter=(pds.field("o_orderdate") >= lo) & (pds.field("o_orderdate") < hi),
    ).map_batches(ord_prep, batch_format="pyarrow")
    j2 = hash_join(
        j1.map_batches(
            lambda t: t.select(["l_orderkey", "l_suppkey", "vol_cents"]),
            batch_format="pyarrow",
        ),
        orders,
        left_on="l_orderkey", right_on="o_orderkey", key_type=pa.int64(),
        left_fields=[pa.field("l_suppkey", pa.int64()),
                     pa.field("vol_cents", pa.int64())],
        right_fields=[pa.field("o_custkey", pa.int64()),
                      pa.field("o_year", pa.int64())],
    )

    # --- AMERICA customer gate (fact-sized -> co-partitioned SEMI join)
    def cust_filter(t: pa.Table) -> pa.Table:
        keys = ray.get(nk_ref)
        mask = pc.is_in(
            t["c_nationkey"], value_set=pa.array(sorted(keys), pa.int64())
        )
        return t.filter(mask).select(["c_custkey"])

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]).map_batches(
        cust_filter, batch_format="pyarrow"
    )
    j3 = hash_join(
        j2.map_batches(
            lambda t: t.select(["o_custkey", "l_suppkey", "vol_cents", "o_year"]),
            batch_format="pyarrow",
        ),
        cust,
        left_on="o_custkey", right_on="c_custkey", key_type=pa.int64(),
        left_fields=[pa.field("l_suppkey", pa.int64()),
                     pa.field("vol_cents", pa.int64()),
                     pa.field("o_year", pa.int64())],
        right_fields=[],
        how="semi",
    )

    # --- supplier nation tag (broadcast) + per-block year partials
    def year_partials(t: pa.Table) -> pa.Table:
        sk, sn = ray.get(supp_ref)
        s = t["l_suppkey"].to_numpy(zero_copy_only=False)
        nk = sn[np.searchsorted(sk, s)]
        tgt = (nk == target_nkey).astype(np.int64)
        vol = t["vol_cents"].to_numpy(zero_copy_only=False)
        tmp = pa.table({
            "o_year": t["o_year"],
            "nation_cents": pa.array(vol * tgt, pa.int64()),
            "total_cents": pa.array(vol, pa.int64()),
        })
        g = tmp.group_by("o_year").aggregate(
            [("nation_cents", "sum"), ("total_cents", "sum")]
        )
        return pa.table({
            "o_year": g["o_year"], "nation_cents": g["nation_cents_sum"],
            "total_cents": g["total_cents_sum"],
        })

    agg = (
        j3.map_batches(year_partials, batch_format="pyarrow")
        .groupby("o_year")
        .aggregate(Sum("nation_cents", alias_name="nation_cents"),
                   Sum("total_cents", alias_name="total_cents"))
    )

    def share(t: pa.Table) -> pa.Table:
        rows = t.to_pylist()  # <= one row per order year: driver-tiny
        for r in rows:
            r["mkt_share_micro"] = (
                0 if not r["total_cents"]
                else (int(r["nation_cents"]) * 1_000_000) // int(r["total_cents"])
            )
        sch = pa.schema([
            ("o_year", pa.int64()), ("nation_cents", pa.int64()),
            ("total_cents", pa.int64()), ("mkt_share_micro", pa.int64()),
        ])
        if not rows:
            return sch.empty_table()
        return pa.Table.from_pylist(rows, schema=sch)

    return agg.map_batches(share, batch_format="pyarrow")


SQL_NATION_MARKET_SHARE = f"""
WITH v AS (
  SELECT CAST(year(o_orderdate) AS BIGINT) AS o_year,
         CAST(round(l_extendedprice * (1 - l_discount) * 100) AS BIGINT) AS vol,
         n2.n_name AS supp_nation
  FROM lineitem
  JOIN part ON p_partkey = l_partkey AND p_type = '{MS_TYPE}'
  JOIN orders ON o_orderkey = l_orderkey
   AND o_orderdate >= TIMESTAMP '{MS_DATE_LO} 00:00:00'
   AND o_orderdate < TIMESTAMP '{MS_DATE_HI} 00:00:00'
  JOIN customer ON c_custkey = o_custkey
  JOIN nation n1 ON n1.n_nationkey = c_nationkey
  JOIN region ON r_regionkey = n1.n_regionkey AND r_name = '{MS_REGION}'
  JOIN supplier ON s_suppkey = l_suppkey
  JOIN nation n2 ON n2.n_nationkey = s_nationkey
)
SELECT o_year,
       CAST(sum(CASE WHEN supp_nation = '{MS_NATION}' THEN vol ELSE 0 END) AS BIGINT)
         AS nation_cents,
       CAST(sum(vol) AS BIGINT) AS total_cents,
       CAST(CAST(sum(CASE WHEN supp_nation = '{MS_NATION}' THEN vol ELSE 0 END) AS HUGEINT)
            * 1000000 // CAST(sum(vol) AS HUGEINT) AS BIGINT) AS mkt_share_micro
FROM v GROUP BY o_year
"""


# ---------------------------------------------------------------------------
# CUSUM change-point detection per user stream
# ---------------------------------------------------------------------------

CUSUM_ALLOW_DIV = 20  # allowance k = mu/20 (5% of the user's own mean)
CUSUM_H_DIV = 1       # alarm threshold h = mu/1 (one mean of accumulated excess)


def q_events_cusum(sf_dir: str) -> rd.Dataset:
    """One-sided CUSUM change detection per user value stream (Page 1954):
    in (ts, event_id) order, S' = max(0, S + (v - mu - k)); when S' exceeds
    h the detector ALARMS and resets to 0 — the upward-shift monitor
    (fraud/abuse spend spikes, error-rate regressions) that EWMA smoothing
    (orders_daily_ewma) cannot express because the statistic clamps at zero
    and resets on alarm. mu is the user's OWN stream mean; k = mu/20,
    h = mu — all in floor-integer micro-units, so the walk is bit-stable.

    Like the debounce, this is a genuinely NON-ASSOCIATIVE scan (clamp +
    reset destroy prefix decomposition), but it needs only ONE
    hash_exchange on user_id: a user's rows are co-located in the shard,
    so the baseline mean AND the sequential walk both run in-shard — no
    separate aggregation round trip. Chains are per-user (bounded by a
    user's event count), independent, and walked in numpy int64. The
    oracle replays the exact recurrence with a per-user recursive CTE."""
    out_schema = pa.schema([
        pa.field("user_id", pa.int64()), pa.field("n_events", pa.int64()),
        pa.field("mu_micro", pa.int64()), pa.field("n_alarms", pa.int64()),
        pa.field("max_s_micro", pa.int64()),
    ])

    def shard_cusum(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        df = t.to_pandas().sort_values(
            ["user_id", "ts", "event_id"], kind="mergesort"
        )
        v = df["value"].to_numpy(dtype="float64") * 1_000_000.0
        vm = np.where(v >= 0, np.floor(v + 0.5), np.ceil(v - 0.5)).astype(np.int64)
        rows = []
        for u, idx in df.groupby("user_id", sort=False).indices.items():
            a = vm[idx]
            n = len(a)
            mu = int(a.sum()) // n
            k, h = mu // CUSUM_ALLOW_DIV, mu // CUSUM_H_DIV
            s, alarms, max_s = 0, 0, 0
            for x in a:
                s = max(0, s + int(x) - mu - k)
                if s > max_s:
                    max_s = s
                if s > h:
                    alarms += 1
                    s = 0
            rows.append({"user_id": int(u), "n_events": n, "mu_micro": mu,
                         "n_alarms": alarms, "max_s_micro": max_s})
        return pa.Table.from_pylist(rows, schema=out_schema)

    return hash_exchange(
        _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"]),
        ["user_id"],
        shard_cusum,
        out_schema,
    )


SQL_EVENTS_CUSUM = f"""
WITH RECURSIVE s AS (
  SELECT user_id,
         CAST(round(value * 1000000) AS BIGINT) AS vm,
         row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn
  FROM events
),
base AS (
  SELECT user_id, count(*) AS n, CAST(sum(vm) AS BIGINT) // count(*) AS mu
  FROM s GROUP BY user_id
),
walk(user_id, rn, cs, alarms, maxs) AS (
  SELECT s.user_id, s.rn,
         CASE WHEN greatest(0, s.vm - b.mu - b.mu // {CUSUM_ALLOW_DIV})
                   > b.mu // {CUSUM_H_DIV}
              THEN 0
              ELSE greatest(0, s.vm - b.mu - b.mu // {CUSUM_ALLOW_DIV}) END,
         CASE WHEN greatest(0, s.vm - b.mu - b.mu // {CUSUM_ALLOW_DIV})
                   > b.mu // {CUSUM_H_DIV} THEN 1 ELSE 0 END,
         greatest(0, s.vm - b.mu - b.mu // {CUSUM_ALLOW_DIV})
  FROM s JOIN base b USING (user_id) WHERE s.rn = 1
  UNION ALL
  SELECT s.user_id, s.rn,
         CASE WHEN greatest(0, w.cs + s.vm - b.mu - b.mu // {CUSUM_ALLOW_DIV})
                   > b.mu // {CUSUM_H_DIV}
              THEN 0
              ELSE greatest(0, w.cs + s.vm - b.mu - b.mu // {CUSUM_ALLOW_DIV}) END,
         w.alarms + CASE WHEN greatest(0, w.cs + s.vm - b.mu - b.mu // {CUSUM_ALLOW_DIV})
                              > b.mu // {CUSUM_H_DIV} THEN 1 ELSE 0 END,
         greatest(w.maxs, greatest(0, w.cs + s.vm - b.mu - b.mu // {CUSUM_ALLOW_DIV}))
  FROM walk w
  JOIN s ON s.user_id = w.user_id AND s.rn = w.rn + 1
  JOIN base b ON b.user_id = s.user_id
)
SELECT b.user_id, CAST(b.n AS BIGINT) AS n_events,
       CAST(b.mu AS BIGINT) AS mu_micro,
       CAST(f.alarms AS BIGINT) AS n_alarms,
       CAST(f.maxs AS BIGINT) AS max_s_micro
FROM base b
JOIN (SELECT user_id, alarms, maxs,
             row_number() OVER (PARTITION BY user_id ORDER BY rn DESC) AS rr
      FROM walk) f
  ON f.user_id = b.user_id AND f.rr = 1
"""


# ---------------------------------------------------------------------------
# Calendar gap-fill with last-observation-carried-forward (LOCF)
# ---------------------------------------------------------------------------

def q_orders_daily_gapfill(sf_dir: str) -> rd.Dataset:
    """Dense per-priority daily revenue: every calendar day of the global
    order-date range appears for every priority, with days that had no
    orders FILLED by the last observed value (LOCF; 0 before the first
    observation) and flagged — the feature-store densification step that
    must run before any fixed-stride window model (a sparse series silently
    misaligns lag features). Time-series generation + as-of carry, the one
    windowed shape the suite didn't yet have.

    Shape: per-block (priority, day, cents) pyarrow partials pre-combine
    before ONE groupby, so the exchange moves at most #days x #priorities
    rows per block; the global day range is two scalars off that
    aggregate. Expansion + carry then run per priority inside one
    hash_exchange shard: the calendar is a numpy datetime64[D] arange and
    the carry is ONE searchsorted(side='right')-1 over the group's
    observed days — O(n_days log n_obs), vectorized, no Python-per-day
    loop. Grouped series are calendar-scale (years x priorities), so
    per-task memory is bounded regardless of corpus size."""
    out_schema = pa.schema([
        pa.field("priority", pa.string()), pa.field("day", pa.string()),
        pa.field("revenue_cents", pa.int64()), pa.field("filled", pa.int64()),
    ])

    def partial(t: pa.Table) -> pa.Table:
        days = pc.strftime(t["o_orderdate"], format="%Y-%m-%d")
        rows = pa.Table.from_arrays(
            [t["o_orderpriority"], days, _cents(t["o_totalprice"])],
            names=["priority", "day", "cents"],
        )
        g = rows.group_by(["priority", "day"]).aggregate([("cents", "sum")])
        return pa.Table.from_arrays(
            [g["priority"], g["day"], pc.cast(g["cents_sum"], pa.int64())],
            names=["priority", "day", "cents"],
        )

    agg = (
        _read(sf_dir, "orders", ["o_orderpriority", "o_orderdate", "o_totalprice"])
        .map_batches(partial, batch_format="pyarrow")
        .repartition(8)
        .groupby(["priority", "day"])
        .aggregate(Sum("cents", alias_name="cents"))
        .materialize()
    )
    bounds = agg.map_batches(
        lambda t: pa.table({"lo": [pc.min(t["day"]).as_py()],
                            "hi": [pc.max(t["day"]).as_py()]}),
        batch_format="pyarrow",
    ).to_pandas()
    lo = np.datetime64(bounds["lo"].min(), "D")
    hi = np.datetime64(bounds["hi"].max(), "D")
    cal = np.arange(lo, hi + np.timedelta64(1, "D"))
    cal_str = np.datetime_as_string(cal, unit="D")

    def fill(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        outs = []
        for p, g in df.groupby("priority", sort=False):
            g = g.sort_values("day")
            obs = g["day"].to_numpy(dtype="datetime64[D]")
            vals = g["cents"].to_numpy(dtype="int64")
            idx = np.searchsorted(obs, cal, side="right") - 1
            rev = np.where(idx >= 0, vals[np.maximum(idx, 0)], 0)
            filled = (np.searchsorted(obs, cal) !=
                      np.searchsorted(obs, cal, side="right")).astype(np.int64)
            outs.append(pa.Table.from_arrays(
                [pa.array([p] * len(cal)), pa.array(cal_str),
                 pa.array(rev, pa.int64()),
                 pa.array(1 - filled, pa.int64())],
                schema=out_schema,
            ))
        return pa.concat_tables(outs) if outs else out_schema.empty_table()

    return hash_exchange(agg, ["priority"], fill, out_schema, num_shards=8)


SQL_ORDERS_DAILY_GAPFILL = """
WITH d AS (
  SELECT o_orderpriority AS priority, strftime(o_orderdate, '%Y-%m-%d') AS day,
         CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS cents
  FROM orders GROUP BY 1, 2
),
cal AS (
  SELECT strftime(unnest(generate_series(b.mind, b.maxd, INTERVAL 1 DAY)),
                  '%Y-%m-%d') AS day
  FROM (SELECT CAST(min(o_orderdate) AS DATE) AS mind,
               CAST(max(o_orderdate) AS DATE) AS maxd FROM orders) b
),
grid AS (
  SELECT p.priority, c.day
  FROM (SELECT DISTINCT priority FROM d) p CROSS JOIN cal c
),
j AS (
  SELECT g.priority, g.day, d.cents
  FROM grid g LEFT JOIN d ON d.priority = g.priority AND d.day = g.day
)
SELECT priority, day,
       COALESCE(last_value(cents IGNORE NULLS) OVER (
         PARTITION BY priority ORDER BY day
         ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW), 0) AS revenue_cents,
       CAST(CASE WHEN cents IS NULL THEN 1 ELSE 0 END AS BIGINT) AS filled
FROM j
"""


# ---------------------------------------------------------------------------
# Holt double-exponential smoothing (level + trend) over daily revenue
# ---------------------------------------------------------------------------

def _trunc_div(x: int, den: int) -> int:
    """Integer division truncating toward zero — DuckDB's // semantics on
    negative numerators (Python // floors; the two differ exactly on the
    negative trend steps this recurrence produces)."""
    q = abs(x) // den
    return q if x >= 0 else -q


HOLT_A_NUM, HOLT_A_DEN = 1, 4   # level factor alpha = 1/4
HOLT_B_NUM, HOLT_B_DEN = 1, 8   # trend factor beta = 1/8


def q_orders_daily_holt(sf_dir: str) -> pd.DataFrame:
    """Holt linear-trend smoothing of daily revenue — the two-state big
    sibling of q_orders_daily_ewma (which carries level only and therefore
    LAGS a trending series; Holt's trend state removes that lag and yields
    a one-step forecast):

        l_t = (A_NUM*v_t + (A_DEN-A_NUM)*(l + b)) // A_DEN
        b_t = (B_NUM*(l_t - l)  + (B_DEN-B_NUM)*b) // B_DEN
        forecast_{t+1} = l_t + b_t

    Every step integer on cents, so the recurrence is bit-stable and the
    oracle replays BOTH carried states with one recursive CTE. Division
    semantics pinned the hard way: the trend term goes NEGATIVE on
    down-trends, and DuckDB's // TRUNCATES toward zero there while
    Python's floors toward -inf — so both updates use an explicit
    truncating division (sign * (|x| // den)), verified by the oracle
    hash at every sf. Same topology as the EWMA: per-block
    (day, cents) partials, one groupby, then the inherently sequential
    two-state fold runs on the driver over the calendar-scale RESULT."""

    def partial(t: pa.Table) -> pa.Table:
        days = pc.strftime(t["o_orderdate"], format="%Y-%m-%d")
        rows = pa.Table.from_arrays(
            [days, _cents(t["o_totalprice"])], names=["day", "cents"]
        )
        g = rows.group_by("day").aggregate([("cents", "sum")])
        return pa.Table.from_arrays(
            [g["day"], pc.cast(g["cents_sum"], pa.int64())],
            names=["day", "revenue_cents"],
        )

    agg = (
        _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])
        .map_batches(partial, batch_format="pyarrow")
        .repartition(8)
        .groupby("day")
        .aggregate(Sum("revenue_cents", alias_name="revenue_cents"))
        .to_pandas()
        .sort_values("day")
        .reset_index(drop=True)
    )
    levels, trends = [], []
    l = b = 0
    for i, v in enumerate(agg["revenue_cents"].astype("int64")):
        v = int(v)
        if i == 0:
            l, b = v, 0
        else:
            ln_num = HOLT_A_NUM * v + (HOLT_A_DEN - HOLT_A_NUM) * (l + b)
            l_new = _trunc_div(ln_num, HOLT_A_DEN)
            b = _trunc_div(
                HOLT_B_NUM * (l_new - l) + (HOLT_B_DEN - HOLT_B_NUM) * b,
                HOLT_B_DEN,
            )
            l = l_new
        levels.append(l)
        trends.append(b)
    return pd.DataFrame({
        "day": agg["day"],
        "revenue_cents": agg["revenue_cents"].astype("int64"),
        "level_cents": pd.Series(levels, dtype="int64"),
        "trend_cents": pd.Series(trends, dtype="int64"),
        "forecast_cents": pd.Series(
            [lv + tr for lv, tr in zip(levels, trends)], dtype="int64"
        ),
    })


SQL_ORDERS_DAILY_HOLT = f"""
WITH RECURSIVE d AS (
  SELECT strftime(o_orderdate, '%Y-%m-%d') AS day,
         CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT)
           AS revenue_cents
  FROM orders GROUP BY 1
),
r AS (
  SELECT day, revenue_cents, row_number() OVER (ORDER BY day) AS rn FROM d
),
h AS (
  SELECT day, revenue_cents, rn,
         revenue_cents AS l, CAST(0 AS BIGINT) AS b
  FROM r WHERE rn = 1
  UNION ALL
  SELECT r.day, r.revenue_cents, r.rn,
         CAST(({HOLT_A_NUM} * r.revenue_cents
               + {HOLT_A_DEN - HOLT_A_NUM} * (h.l + h.b)) // {HOLT_A_DEN}
              AS BIGINT),
         CAST(({HOLT_B_NUM} * (({HOLT_A_NUM} * r.revenue_cents
                                + {HOLT_A_DEN - HOLT_A_NUM} * (h.l + h.b))
                               // {HOLT_A_DEN} - h.l)
               + {HOLT_B_DEN - HOLT_B_NUM} * h.b) // {HOLT_B_DEN}
              AS BIGINT)
  FROM h JOIN r ON r.rn = h.rn + 1
)
SELECT day, revenue_cents, l AS level_cents, b AS trend_cents,
       CAST(l + b AS BIGINT) AS forecast_cents
FROM h
"""


# ---------------------------------------------------------------------------
# Benford first-digit divergence: a data-quality screen over money columns
# ---------------------------------------------------------------------------

# round(1e6 * log10(1 + 1/d)) for d = 1..9 — sums to exactly 1,000,000, so
# the L1 distance below is a clean ppm quantity on both sides.
BENFORD_PPM = (301030, 176091, 124939, 96910, 79181, 66947, 57992, 51153, 45757)


def q_lineitem_benford(sf_dir: str) -> rd.Dataset:
    """First-significant-digit distribution of l_extendedprice per
    returnflag vs Benford's law, reported as the exact L1 divergence in ppm
    (sum over digits of |observed share - Benford share|) — the
    forensic-accounting data-quality screen run over money columns before
    trusting a feed (fabricated or truncated price data shifts this number
    violently; genuinely scale-spanning prices approach 0). Synthetic TPC-H
    prices are range-uniform, NOT Benford — the screen measures exactly
    that, which is the point: it is a report, not an assertion.

    The only float is the frozen BENFORD_PPM table (the NDCG-discount
    trick); observed shares are floor-ppm of exact integer digit counts.
    Distributed shape: digits come from the DECIMAL STRING of the cents
    integer (no float log10 in the hot path), per-block (flag, digit)
    pyarrow partials -> one tiny groupby -> a <= 9-row-per-group final map.
    Oracle replays digit extraction with substr over the same cents cast."""
    digits_schema = pa.schema([
        ("l_returnflag", pa.string()), ("digit", pa.int64()), ("n", pa.int64()),
    ])

    def partial(t: pa.Table) -> pa.Table:
        cents = _cents(t["l_extendedprice"])
        first = pc.utf8_slice_codeunits(
            pc.cast(cents, pa.string()), start=0, stop=1
        )
        tmp = pa.table({
            "l_returnflag": t["l_returnflag"],
            "digit": pc.cast(first, pa.int64()),
            "n": pa.array(np.ones(t.num_rows, np.int64)),
        })
        g = tmp.group_by(["l_returnflag", "digit"]).aggregate([("n", "sum")])
        return pa.table({
            "l_returnflag": g["l_returnflag"], "digit": g["digit"],
            "n": g["n_sum"],
        }).cast(digits_schema)

    agg = (
        _read(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice"])
        .map_batches(partial, batch_format="pyarrow")
        .repartition(8)
        .groupby(["l_returnflag", "digit"])
        .aggregate(Sum("n", alias_name="n"))
    )

    out_schema = pa.schema([
        ("l_returnflag", pa.string()), ("n_rows", pa.int64()),
        ("benford_l1_ppm", pa.int64()),
    ])

    def finish(t: pa.Table) -> pa.Table:
        df = t.to_pandas()  # <= 9 digits x 3 flags: result-scale
        rows = []
        for flag, g in df.groupby("l_returnflag", sort=False):
            cnt = dict(zip(g["digit"].astype(int), g["n"].astype(int)))
            n = sum(cnt.values())
            dist = sum(
                abs((cnt.get(d, 0) * 1_000_000) // n - BENFORD_PPM[d - 1])
                for d in range(1, 10)
            )
            rows.append({"l_returnflag": str(flag), "n_rows": n,
                         "benford_l1_ppm": dist})
        if not rows:
            return out_schema.empty_table()
        return pa.Table.from_pylist(rows, schema=out_schema)

    # the aggregate is <= 27 rows; one final task folds it (repartition(1)
    # keeps the fold deterministic and single-tasked)
    return agg.repartition(1).map_batches(finish, batch_format="pyarrow")


def sql_lineitem_benford() -> str:
    tbl = ", ".join(f"({d}, {p})" for d, p in enumerate(BENFORD_PPM, start=1))
    return f"""
WITH c AS (
  SELECT l_returnflag,
         CAST(substr(CAST(CAST(round(l_extendedprice * 100) AS BIGINT)
                          AS VARCHAR), 1, 1) AS BIGINT) AS digit
  FROM lineitem
),
h AS (
  SELECT l_returnflag, digit, CAST(count(*) AS BIGINT) AS n
  FROM c GROUP BY 1, 2
),
tot AS (SELECT l_returnflag, CAST(sum(n) AS BIGINT) AS n_rows FROM h GROUP BY 1),
bf(digit, ppm) AS (VALUES {tbl})
SELECT t.l_returnflag, t.n_rows,
       CAST(sum(abs(coalesce(h.n, 0) * 1000000 // t.n_rows - bf.ppm))
            AS BIGINT) AS benford_l1_ppm
FROM tot t
CROSS JOIN bf
LEFT JOIN h ON h.l_returnflag = t.l_returnflag AND h.digit = bf.digit
GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# TPC-H Q16 shape: distinct supplier reach per part brand/type, minus an
# exclusion set
# ---------------------------------------------------------------------------

def q_part_supplier_reach(sf_dir: str) -> rd.Dataset:
    """How many DISTINCT suppliers ship each (p_brand, p_type), excluding a
    denylisted supplier set (negative-acctbal suppliers — the Q16
    'complaints' stand-in): the assortment-breadth metric behind
    procurement risk ('how replaceable is this part class?'). Grouped
    COUNT DISTINCT over a fact ⋈ fact join with an anti-filter.

    Shape: per-block DISTINCT (l_partkey, l_suppkey) pairs pre-shrink the
    lineitem stream (repeats of a pair inside a block never leave it),
    denylist is a genuinely small broadcast set (negative-balance suppliers
    — a filtered sliver of an already dim-scale table; a fact-sized
    denylist would swap in an anti hash_join, the
    customers_without_big_orders shape), then ONE co-partitioned hash_join
    on partkey attaches brand/type with dedup_left=True folding the
    cross-block pair repeats INSIDE the join's exchange (no separate
    distinct pass), and a final hash_exchange on (brand, type) counts
    uniques in-shard."""
    import pyarrow.dataset as pds

    deny = pd.read_parquet(_pq(sf_dir, "supplier"), columns=["s_suppkey", "s_acctbal"])
    deny_ids = np.sort(deny.loc[deny["s_acctbal"] < 0, "s_suppkey"].to_numpy(dtype="int64"))
    deny_ref = ray.put(deny_ids)

    def pair_distinct(t: pa.Table) -> pa.Table:
        d = ray.get(deny_ref)
        tmp = pa.table({
            "l_partkey": t["l_partkey"], "l_suppkey": t["l_suppkey"],
        })
        g = tmp.group_by(["l_partkey", "l_suppkey"]).aggregate([])
        keep = np.isin(
            g["l_suppkey"].to_numpy(zero_copy_only=False), d,
            invert=True, assume_unique=False,
        )
        return g.filter(pa.array(keep))

    pairs = _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey"]).map_batches(
        pair_distinct, batch_format="pyarrow"
    )
    part = rd.read_parquet(
        _pq(sf_dir, "part"), columns=["p_partkey", "p_brand", "p_type"]
    )
    joined = hash_join(
        pairs,
        part,
        left_on="l_partkey",
        right_on="p_partkey",
        key_type=pa.int64(),
        left_fields=[pa.field("l_suppkey", pa.int64())],
        right_fields=[pa.field("p_brand", pa.string()),
                      pa.field("p_type", pa.string())],
        dedup_left=True,
    )

    out_schema = pa.schema([
        ("p_brand", pa.string()), ("p_type", pa.string()),
        ("supplier_cnt", pa.int64()),
    ])

    def count_unique(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        g = (
            df.groupby(["p_brand", "p_type"])["l_suppkey"]
            .nunique().reset_index(name="supplier_cnt")
        )
        return pa.Table.from_pandas(g, schema=out_schema, preserve_index=False)

    return hash_exchange(
        joined.map_batches(
            lambda t: t.select(["p_brand", "p_type", "l_suppkey"]),
            batch_format="pyarrow",
        ),
        ["p_brand", "p_type"],
        count_unique,
        out_schema,
        num_shards=16,
    )


SQL_PART_SUPPLIER_REACH = """
SELECT p_brand, p_type,
       CAST(count(DISTINCT l_suppkey) AS BIGINT) AS supplier_cnt
FROM lineitem
JOIN part ON p_partkey = l_partkey
WHERE l_suppkey NOT IN (SELECT s_suppkey FROM supplier WHERE s_acctbal < 0)
GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# Stream-stream interval join: purchase attributed to preceding clicks
# ---------------------------------------------------------------------------

SS_JOIN_WINDOW_MIN = 30


def q_events_stream_join(sf_dir: str) -> rd.Dataset:
    """Stream-stream INTERVAL JOIN (the Flink two-stream shape): every
    (click, purchase) pair of the SAME user where the purchase lands in
    (click_ts, click_ts + 30 min] — the attribution join that credits
    conversions to the clicks that preceded them. Both sides are unbounded
    fact streams, so neither can broadcast; the distributed form is ONE
    hash_exchange on user_id (both types ride the same exchange — no
    second shuffle), then per user a vectorized two-pointer/searchsorted
    sweep: for each purchase, the window [t-30min, t) of the user's sorted
    click timestamps is one searchsorted pair, and pairs are emitted by
    expanding the per-purchase count ranges (np.repeat + concatenated
    aranges) — never a per-pair Python loop. Output: one row per matched
    pair with the click->purchase latency in seconds; unmatched purchases
    don't appear (inner semantics; the asof LEFT variant is
    events_asof_orders). Per-task memory is one shard's events; a
    pathological single user still lands whole in one task, which is the
    documented co-location contract (salt the exchange if a user can
    exceed a task's memory)."""
    out_schema = pa.schema([
        pa.field("user_id", pa.int64()),
        pa.field("click_id", pa.int64()),
        pa.field("purchase_id", pa.int64()),
        pa.field("latency_sec", pa.int64()),
    ])
    win_us = SS_JOIN_WINDOW_MIN * 60 * 1_000_000

    def shard_join(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        df = t.to_pandas().sort_values(["user_id", "ts", "event_id"],
                                       kind="mergesort")
        ts = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        eid = df["event_id"].to_numpy(dtype="int64")
        et = df["event_type"].to_numpy()
        uid = df["user_id"].to_numpy(dtype="int64")
        out_u, out_c, out_p, out_l = [], [], [], []
        for u, idx in df.groupby("user_id", sort=False).indices.items():
            m_click = et[idx] == "click"
            m_buy = et[idx] == "purchase"
            c_ts, c_id = ts[idx][m_click], eid[idx][m_click]
            b_ts, b_id = ts[idx][m_buy], eid[idx][m_buy]
            if not len(c_ts) or not len(b_ts):
                continue
            lo = np.searchsorted(c_ts, b_ts - win_us, side="left")
            hi = np.searchsorted(c_ts, b_ts, side="left")  # strictly before
            n = hi - lo
            keep = n > 0
            if not keep.any():
                continue
            reps = n[keep]
            b_rep = np.repeat(np.arange(len(b_ts))[keep], reps)
            # concatenated aranges lo[j]..hi[j] for each kept purchase j
            starts = lo[keep]
            offs = np.arange(reps.sum()) - np.repeat(
                np.cumsum(reps) - reps, reps
            )
            c_idx = np.repeat(starts, reps) + offs
            out_u.append(np.full(len(c_idx), u, dtype=np.int64))
            out_c.append(c_id[c_idx])
            out_p.append(b_id[b_rep])
            out_l.append((b_ts[b_rep] - c_ts[c_idx]) // 1_000_000)
        if not out_u:
            return out_schema.empty_table()
        return pa.Table.from_arrays(
            [pa.array(np.concatenate(out_u)), pa.array(np.concatenate(out_c)),
             pa.array(np.concatenate(out_p)), pa.array(np.concatenate(out_l))],
            schema=out_schema,
        )

    return hash_exchange(
        _read(sf_dir, "events", ["event_id", "user_id", "event_type", "ts"]),
        ["user_id"],
        shard_join,
        out_schema,
    )


SQL_EVENTS_STREAM_JOIN = f"""
SELECT c.user_id,
       c.event_id AS click_id,
       p.event_id AS purchase_id,
       CAST(date_diff('microseconds', c.ts, p.ts) // 1000000 AS BIGINT)
         AS latency_sec
FROM events c
JOIN events p
  ON p.user_id = c.user_id
 AND c.event_type = 'click' AND p.event_type = 'purchase'
 AND p.ts > c.ts
 AND p.ts <= c.ts + INTERVAL {SS_JOIN_WINDOW_MIN} MINUTE
"""


# ---------------------------------------------------------------------------
# Pareto revenue concentration: top-20%-of-customers share, selection by
# histogram refinement (no global sort)
# ---------------------------------------------------------------------------

def q_orders_pareto(sf_dir: str) -> pd.DataFrame:
    """The 80/20 report: what share of total order revenue comes from the
    top 20% of customers — the concentration number behind account
    prioritization and whale-risk dashboards. Needs the k-th LARGEST
    per-customer revenue (k = n/5) as a threshold, which naively is a
    global sort of the customer aggregate; here it is distributed
    SELECTION by iterative histogram refinement (the
    order_price_median_select machinery pointed at a rank instead of the
    median): each round one map over the customer-grain aggregate emits
    512-bucket count partials for the current candidate range, the driver
    walks cumulative counts from the top, and the range narrows ~512x per
    round until an exact value-count pass reads the threshold off <= 8192
    candidates. Ties at the threshold are counted exactly (top_cents =
    sum(rev > t) + (k - cnt(rev > t)) * t — the SQL row_number semantics).
    Every exchange is histogram partials; per-customer rows never sort and
    never gather."""
    cust_schema = pa.schema([("cents", pa.int64())])

    def cust_partial(t: pa.Table) -> pa.Table:
        tmp = pa.table({
            "o_custkey": t["o_custkey"], "cents": _cents(t["o_totalprice"]),
        })
        g = tmp.group_by("o_custkey").aggregate([("cents", "sum")])
        return pa.table({"o_custkey": g["o_custkey"], "cents": g["cents_sum"]})

    cust = (
        _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
        .map_batches(cust_partial, batch_format="pyarrow")
        .repartition(8)
        .groupby("o_custkey")
        .aggregate(Sum("cents", alias_name="cents"))
        .map_batches(lambda t: pa.table({"cents": t["cents"]}).cast(cust_schema),
                     batch_format="pyarrow")
        .materialize()
    )
    n = cust.count()
    total = int(cust.sum("cents"))
    k = max(1, n // 5)
    lo, hi = int(cust.min("cents")), int(cust.max("cents"))

    def hist_counts(lo_: int, hi_: int, width: int) -> np.ndarray:
        def f(t: pa.Table) -> pa.Table:
            v = t["cents"].to_numpy(zero_copy_only=False)
            v = v[(v >= lo_) & (v <= hi_)]
            b = np.minimum((v - lo_) // width, 511)
            return pa.table({"bucket": pa.array(np.arange(512, dtype=np.int64)),
                             "cnt": pa.array(np.bincount(b, minlength=512)
                                             .astype(np.int64))})
        parts = cust.map_batches(f, batch_format="pyarrow").to_pandas()
        return parts.groupby("bucket")["cnt"].sum().reindex(
            range(512), fill_value=0).to_numpy()

    kk = k  # rank among values in [lo, hi], counted from the TOP
    while hi - lo > 8192:
        width = (hi - lo) // 512 + 1
        counts = hist_counts(lo, hi, width)
        acc = 0
        for b in range(511, -1, -1):
            if acc + counts[b] >= kk:
                kk -= acc
                lo, hi = lo + b * width, min(hi, lo + (b + 1) * width - 1)
                break
            acc += counts[b]

    def exact_counts(t: pa.Table) -> pa.Table:
        v = t["cents"].to_numpy(zero_copy_only=False)
        v = v[(v >= lo) & (v <= hi)]
        u, c = np.unique(v, return_counts=True)
        return pa.table({"v": pa.array(u.astype(np.int64)),
                         "c": pa.array(c.astype(np.int64))})

    vc = (
        cust.map_batches(exact_counts, batch_format="pyarrow")
        .to_pandas().groupby("v")["c"].sum().sort_index(ascending=False)
    )
    thr = None
    acc = 0
    for v, c in vc.items():
        if acc + c >= kk:
            thr = int(v)
            break
        acc += int(c)
    assert thr is not None, "selection walk exhausted candidates"

    def gt_partial(t: pa.Table) -> pa.Table:
        v = t["cents"].to_numpy(zero_copy_only=False)
        m = v > thr
        return pa.table({"cnt": pa.array([int(m.sum())], pa.int64()),
                         "s": pa.array([int(v[m].sum())], pa.int64())})

    gp = cust.map_batches(gt_partial, batch_format="pyarrow").to_pandas()
    cnt_gt, sum_gt = int(gp["cnt"].sum()), int(gp["s"].sum())
    top = sum_gt + (k - cnt_gt) * thr
    return pd.DataFrame({
        "n_customers": pd.array([n], dtype="int64"),
        "k": pd.array([k], dtype="int64"),
        "threshold_cents": pd.array([thr], dtype="int64"),
        "top_cents": pd.array([top], dtype="int64"),
        "total_cents": pd.array([total], dtype="int64"),
        "share_ppm": pd.array([(top * 1_000_000) // total], dtype="int64"),
    })


SQL_ORDERS_PARETO = """
WITH cr AS (
  SELECT o_custkey,
         CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS cents
  FROM orders GROUP BY 1
),
n AS (SELECT CAST(count(*) AS BIGINT) AS n,
             CAST(sum(cents) AS BIGINT) AS total FROM cr),
r AS (SELECT cents, row_number() OVER (ORDER BY cents DESC) AS rk FROM cr),
t AS (SELECT r.cents AS thr FROM r, n WHERE r.rk = greatest(1, n.n // 5)),
agg AS (
  SELECT CAST(coalesce(sum(CASE WHEN cents > t.thr THEN cents END), 0) AS BIGINT)
           AS sum_gt,
         CAST(count(CASE WHEN cents > t.thr THEN 1 END) AS BIGINT) AS cnt_gt
  FROM cr, t
)
SELECT n.n AS n_customers,
       CAST(greatest(1, n.n // 5) AS BIGINT) AS k,
       t.thr AS threshold_cents,
       CAST(agg.sum_gt + (greatest(1, n.n // 5) - agg.cnt_gt) * t.thr AS BIGINT)
         AS top_cents,
       n.total AS total_cents,
       CAST(CAST(agg.sum_gt + (greatest(1, n.n // 5) - agg.cnt_gt) * t.thr
                 AS HUGEINT) * 1000000 // n.total AS BIGINT) AS share_ppm
FROM n, t, agg
"""
