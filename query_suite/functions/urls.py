"""Vectorized URL parsing for web-corpus tables.

The reference service keys every record by ``url`` but never decomposes it
(SURVEY.md §2: no URL ops); a web-scale corpus engine needs host / path
grouping constantly (per-site dedup scopes, crawl politeness buckets,
domain-level quality priors). This module parses an entire Arrow string
column in ONE ``pyarrow.compute.extract_regex`` call — no per-row Python —
into scheme / host / port / path / query plus derived columns (top-level
domain, path depth). RFC-3986-shaped, pragmatic subset: authority without
userinfo, no fragments kept (dropped like query-less parsers do).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

# scheme://host[:port][/path][?query][#fragment]
URL_RE = (
    r"^(?P<scheme>[A-Za-z][A-Za-z0-9+.\-]*)://"
    r"(?P<host>[^/:?#]+)"
    r"(?::(?P<port>[0-9]+))?"
    r"(?P<path>/[^?#]*)?"
    r"(?:\?(?P<query>[^#]*))?"
)


def parse_urls(urls: pa.ChunkedArray | pa.Array) -> pa.Table:
    """Parse a string column of absolute URLs into typed component columns.

    Returns columns ``scheme`` (lower-cased), ``host`` (lower-cased),
    ``port`` (int64, null when absent), ``path`` ('' when absent), ``query``
    (null when absent), ``tld`` (text after the host's last dot, null for
    dotless hosts), ``path_depth`` (number of '/'-separated segments; 0 for
    empty or '/' paths). Rows that don't match the absolute-URL shape get
    all-null components (callers count them as malformed).
    """
    if isinstance(urls, pa.ChunkedArray):
        urls = urls.combine_chunks()
    m = pc.extract_regex(urls, URL_RE)

    def _null_if_empty(arr: pa.Array) -> pa.Array:
        # extract_regex reports a non-participating optional group as ''
        # (not null); normalize to null so is_valid() means "present".
        return pc.if_else(pc.equal(arr, ""), pa.scalar(None, pa.string()), arr)

    scheme = pc.utf8_lower(pc.struct_field(m, "scheme"))
    host = pc.utf8_lower(pc.struct_field(m, "host"))
    port = pc.cast(_null_if_empty(pc.struct_field(m, "port")), pa.int64())
    # absent path on a MATCHED url -> ''; unmatched rows stay all-null
    path = pc.if_else(
        pc.is_null(scheme),
        pa.scalar(None, pa.string()),
        pc.fill_null(pc.struct_field(m, "path"), ""),
    )
    # NOTE: a URL ending in a bare '?' folds into "no query" here.
    query = _null_if_empty(pc.struct_field(m, "query"))

    # tld: substring after the last '.' of the host (null when no dot).
    tld_m = pc.extract_regex(host, r"\.(?P<tld>[^.]+)$")
    tld = pc.struct_field(tld_m, "tld")

    # path depth: '/'-separated non-empty segment count. '/a/b' -> 2,
    # '/' and '' -> 0. count_substring('/') minus trailing-slash correction.
    slashes = pc.count_substring(path, "/")
    trailing = pc.ends_with(path, "/")
    depth = pc.subtract(slashes, pc.cast(trailing, pa.int64()))
    depth = pc.max_element_wise(depth, pa.scalar(0, pa.int64()))
    # null path (unmatched URL) must stay null, not 0
    depth = pc.if_else(pc.is_null(scheme), pa.scalar(None, pa.int64()), depth)

    return pa.Table.from_arrays(
        [scheme, host, port, path, query, tld, depth],
        names=["scheme", "host", "port", "path", "query", "tld", "path_depth"],
    )
