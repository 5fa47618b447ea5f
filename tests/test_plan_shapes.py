"""Plan-shape lint: queries whose docstrings promise 'no global Sort over
data keys' must actually build plans without one — the promise is a scale
property (a key sort is an all-to-all whose cost grows with key
cardinality at 100 TB), so a regression here is a perf bug even while
results stay correct.

One Sort IS allowed: the keyed exchange (hash_exchange / map_groups)
compiles to a physical sort over the synthetic int64 ``__shard`` column —
by design it orders <= num_shards distinct values instead of every data
key (relational.py hash_exchange docstring). The lint therefore rejects
only Sorts keyed on real data columns. Dataset plans are walked WITHOUT
executing; pandas-returning queries (per-block partial top-k with a
driver merge) have no plan to walk and are no-sort by construction."""

import pytest

SF = "/root/testdata/sf0.001"

NO_DATA_SORT_QUERIES = [
    "customers_dormant",   # relational.py "no global sort" contract
    "doc_shuffle_rank",    # "distributed rank WITHOUT a global Sort operator"
    "dedup_exact",         # md5-key groupby, no ranking sort
    "host_sssp",           # fixpoint rounds: groupby-min only
]


def _sorts(ds):
    acc = []

    def walk(op):
        if type(op).__name__ == "Sort":
            acc.append(op)
        for d in op.input_dependencies:
            walk(d)

    walk(ds._logical_plan.dag)
    return acc


@pytest.mark.parametrize("name", NO_DATA_SORT_QUERIES)
def test_no_data_key_sort_in_plan(ray_session, name):
    import ray.data as rd

    from query_suite.pipelines import queries as Q, relational as R, webtext as W

    res = {
        "customers_dormant": R.q_customers_dormant,
        "doc_shuffle_rank": W.q_doc_shuffle_rank,
        "dedup_exact": Q.q_dedup_exact,
        "host_sssp": Q.q_host_sssp,
    }[name](SF)
    assert isinstance(res, rd.Dataset), f"{name} no longer returns a Dataset"
    for op in _sorts(res):
        cols = op._sort_key.get_columns()
        assert cols == ["__shard"], (
            f"{name} plan sorts on data columns {cols} — the keyed exchange "
            f"contract allows only the __shard sort"
        )


def test_lint_catches_a_data_sort(ray_session):
    import ray.data as rd

    ds = rd.range(10).sort("id")
    sorts = _sorts(ds)
    assert sorts and sorts[0]._sort_key.get_columns() == ["id"]
