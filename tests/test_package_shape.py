"""Package shape: every module of the package is reachable from the
engine's entry points, so code that nothing runs cannot accumulate again.

The walk parses each module's AST and follows both module-level and
function-level imports (the engine defers some imports into functions),
starting from the job CLI and the pipeline module. Importing ``a.b.c``
also runs ``a/__init__.py`` and ``a/b/__init__.py``, so parent packages of
every reached module count as reached.

Three more walks check that no engine module calls a Ray Data shuffle,
that every ``map_batches`` runs its function as plain tasks, and that all
Ray work starts in the job's one file fan-out. One more pins the
engine-private names the query suite imports.

The function-grain walk does the same inside modules: every top-level def
of the package is reached from the engine's entry functions or from code
that runs at import, is public API that README documents, or is pinned to
the one file outside the package that still needs it.

The query suite gets the same walk with other roots: it runs only under
the tests, so each of its top-level defs and module-level assignments is
reached from a name ``tests/`` or ``extraction_bench/`` mentions, or from
its own import-time statements, or it is deleted. It has no pins."""

import ast
import re
from pathlib import Path

import service1_text_extraction_ray as pkg

PKG_DIR = Path(pkg.__file__).parent
REPO_DIR = PKG_DIR.parent
PKG = PKG_DIR.name
ENTRY_POINTS = (f"{PKG}.pipelines.job", f"{PKG}.pipelines.extract_pipeline")


def _module_path(name: str):
    """Source file of the dotted package module ``name``, or None."""
    parts = name.split(".")[1:]
    candidates = [PKG_DIR.joinpath(*parts, "__init__.py")]
    if parts:
        candidates.append(PKG_DIR.joinpath(*parts[:-1], parts[-1] + ".py"))
    return next((p for p in candidates if p.is_file()), None)


def _imported_names(name: str, path: Path):
    """Dotted names module ``name`` imports anywhere in its body. For
    ``from m import x`` both ``m`` and ``m.x`` are yielded, since ``x`` may
    be a submodule."""
    package = name.split(".") if path.name == "__init__.py" else name.split(".")[:-1]
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package[: len(package) - node.level + 1]
                mod = ".".join(base + ([node.module] if node.module else []))
            else:
                mod = node.module
            yield mod
            yield from (f"{mod}.{a.name}" for a in node.names)


def reachable_modules() -> set:
    seen: dict = {}
    todo = list(ENTRY_POINTS)
    while todo:
        name = todo.pop()
        path = _module_path(name)
        if name in seen or path is None:
            continue
        seen[name] = path
        parts = name.split(".")
        todo += [".".join(parts[:i]) for i in range(1, len(parts))]
        todo += [m for m in _imported_names(name, path)
                 if m == PKG or m.startswith(PKG + ".")]
    return set(seen.values())


def test_every_package_module_is_reached_from_the_engine_entry_points():
    reached = reachable_modules()
    unreached = sorted(
        str(p.relative_to(PKG_DIR)) for p in PKG_DIR.rglob("*.py")
        if p not in reached
    )
    assert not unreached, (
        f"package modules no engine entry point imports: {unreached} — "
        "delete them, or move them out of the package"
    )


def test_engine_never_imports_the_query_suite():
    """The query suite analyses the engine's inputs and outputs from outside
    the package; an import the other way would pull it back onto the
    worker path."""
    offenders = sorted(
        str(p.relative_to(PKG_DIR)) for p in PKG_DIR.rglob("*.py")
        for m in _imported_names(PKG, p)
        if m == "query_suite" or m.startswith("query_suite.")
    )
    assert not offenders, f"engine modules importing query_suite: {offenders}"


# Engine-private names the query suite imports, by engine module. Each one
# pins an engine internal from outside the package, so the list may only
# shrink as the suite retires.
QUERY_SUITE_PRIVATES = {
    "functions.pdf_extract": {
        "_Ref", "_decode_stream", "_doc_off_ocgs", "_page_order",
        "_resolve_dict", "_resource_entries",
    },
    "sources.pages_source": {
        "_encode_page_records", "_gunzip_members", "_parse_warc_records",
        "_sha1_b32", "_warc_record", "_write_warc_shard",
    },
}


def test_query_suite_imports_only_the_listed_engine_privates():
    """Every ``from <engine module> import _name`` in the query suite,
    function-local ones included, must be listed, and every listed name
    imported."""
    imported: dict = {}
    for p in (REPO_DIR / "query_suite").rglob("*.py"):
        for node in ast.walk(ast.parse(p.read_text())):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.startswith(PKG + ".")):
                imported.setdefault(node.module[len(PKG) + 1:], set()).update(
                    a.name for a in node.names if a.name.startswith("_"))
    imported = {mod: names for mod, names in imported.items() if names}
    assert imported == QUERY_SUITE_PRIVATES


SHUFFLES = {"groupby", "map_groups", "repartition", "random_shuffle"}


def test_engine_never_shuffles():
    """The engine is a file-aligned chain: a shard's rows are read, parsed,
    written and committed (or merged) where they are, so no module calls
    a Ray Data shuffle (always a ``Dataset`` method call)."""
    offenders = sorted(
        f"{p.relative_to(PKG_DIR)}:{node.lineno} {node.func.attr}"
        for p in PKG_DIR.rglob("*.py")
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in SHUFFLES
    )
    assert not offenders, f"shuffles in the engine: {offenders}"


POOL_KEYWORDS = {"concurrency", "compute", "fn_constructor_kwargs"}


def test_engine_runs_batches_as_tasks():
    """One way to run a batch: every engine ``map_batches`` passes a plain
    callable (a function or a callable-class instance), which Ray Data runs
    as tasks fused with the stages around it. None asks for an actor pool,
    a pool size or per-actor construction."""
    offenders = sorted(
        f"{p.relative_to(PKG_DIR)}:{node.lineno} {kw.arg}"
        for p in PKG_DIR.rglob("*.py")
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "map_batches"
        for kw in node.keywords
        if kw.arg in POOL_KEYWORDS
    )
    assert not offenders, f"map_batches run as an actor pool: {offenders}"


# The one place Ray work starts: the job's file fan-out and the remote
# function it submits, by module.
RAY_WORK_SITES = {"pipelines/extract_pipeline.py": {"_run_file_tasks", "_run_file_task"}}
RAY_CALLS = {"get", "put", "wait", "cancel"}


def _ray_work_nodes(tree):
    """The nodes of a module's AST that start or collect Ray work:
    ``.remote`` anywhere (the ``ray.remote`` decorator or call,
    ``f.remote(...)``), ``ray.get``, ``ray.put``, ``ray.wait``,
    ``ray.cancel``, and imports of those names from ``ray``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and (
            node.attr == "remote"
            or (node.attr in RAY_CALLS and isinstance(node.value, ast.Name)
                and node.value.id == "ray"))) or (
            isinstance(node, ast.ImportFrom) and node.module == "ray"
                and {a.name for a in node.names} & (RAY_CALLS | {"remote"})):
            yield node


def test_all_ray_work_starts_in_run_file_tasks():
    """One way to run work on Ray: ``_run_file_tasks`` submits one
    ``_run_file_task`` per input file and collects them. No other engine
    code defines or calls a remote function or actor, stores or fetches an
    object, or waits on or cancels a task, so a second fan-out cannot creep
    in. (The no-write Dataset API builds Ray Data graphs that its caller
    runs; ``test_engine_runs_batches_as_tasks`` covers those.)"""
    offenders = []
    for p in PKG_DIR.rglob("*.py"):
        rel = str(p.relative_to(PKG_DIR))
        tree = ast.parse(p.read_text())
        sites = [n for n in tree.body if isinstance(n, DEF_NODES)
                 and n.name in RAY_WORK_SITES.get(rel, ())]
        assert len(sites) == len(RAY_WORK_SITES.get(rel, ())), (
            f"{rel} lacks a def of {sorted(RAY_WORK_SITES[rel])}")
        inside = {id(n) for site in sites for n in ast.walk(site)}
        offenders += [f"{rel}:{n.lineno}" for n in _ray_work_nodes(tree)
                      if id(n) not in inside]
    assert not offenders, f"Ray work outside _run_file_tasks: {sorted(offenders)}"


# -- function grain -----------------------------------------------------------

# The job CLI and the two job functions it runs.
ENTRY_FUNCTIONS = {
    "pipelines/job.py": {"main"},
    "pipelines/extract_pipeline.py": {"run_extraction_job", "run_incremental_recrawl"},
}

# Functions users call beside the job; each is listed in README's
# "Public API" section with the reason a user calls it.
PUBLIC_API = {
    # the output table's readers and maintenance (state/lineage.py)
    "read_all", "read_shard", "read_snapshot",
    "compact_shard", "delete_rows", "vacuum",
    # extraction without writing a table
    "read_pages", "read_pages_warc", "extract_dataset",
    "extract_pages_dataset", "explode_pages", "warc_salvage_report",
    # the layout-recreated text of a stored page (functions/render.py)
    "recreate_text_with_layout",
}

# Unreached defs kept for the one file outside the package that still
# needs them: the benchmark, or a test that uses the def as its oracle or
# fixture writer. A pin fails once its holder stops naming the def, so it
# goes when the holder does.
PINNED = {
    "_default_pool_size": "extraction_bench/job.py",
    "html_layout": "extraction_bench/replay.py",
    "run_oracle": "tests/test_extract_document.py",
    "_is_garbage_text_reference": "tests/test_quality.py",
    "parse_pdf": "tests/test_pdf_extract.py",
    "write_pages_warc": "tests/test_sources.py",
}

# Whole modules pinned the same way: the seeded corpus generator, which
# the engine imports only for PAGES_SCHEMA.
PINNED_MODULES = {
    "functions/synth.py": "extraction_bench/workloads.py",
}

DEF_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node) -> set:
    """Every name and attribute a node's code mentions, and every name its
    imports read (``import a.b`` reads ``a`` and ``b``)."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.update(n.name.split("."))
    return out


def _import_time_names(tree) -> set:
    """Names mentioned by a module's code that runs when it is imported:
    everything but the bodies of functions (their decorators and default
    values do run)."""
    out, todo = set(), [tree]
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            todo += node.decorator_list + node.args.defaults
            todo += [d for d in node.args.kw_defaults if d is not None]
            continue
        if isinstance(node, (ast.Name, ast.Attribute)):
            out.add(node.id if isinstance(node, ast.Name) else node.attr)
        todo += ast.iter_child_nodes(node)
    return out


def _package_defs():
    """``{(module path relative to the package, name): def node}`` for
    every top-level def, and the names import-time code mentions."""
    defs, at_import = {}, set()
    for p in sorted(PKG_DIR.rglob("*.py")):
        tree = ast.parse(p.read_text())
        rel = str(p.relative_to(PKG_DIR))
        defs.update({(rel, n.name): n for n in tree.body if isinstance(n, DEF_NODES)})
        at_import |= _import_time_names(tree)
    return defs, at_import


def _reach(defs: dict, roots: set) -> set:
    """Names reached from ``roots``, following every def of a reached name
    through the names its body mentions. By name, not by binding, so a
    def is never missed as reached: the walk can only miss dead code."""
    bodies: dict = {}
    for (_, name), node in defs.items():
        bodies.setdefault(name, set()).update(_names(node))
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += bodies.get(name, ())
    return reached


def _mentions(rel_path: str, name: str) -> bool:
    path = REPO_DIR / rel_path
    return path.is_file() and re.search(rf"\b{re.escape(name)}\b", path.read_text()) is not None


def _readme_public_api() -> str:
    """README's "Public API" section."""
    text = (REPO_DIR / "README.md").read_text()
    start = text.find("\n## Public API\n")
    assert start >= 0, "README.md has no '## Public API' section"
    end = text.find("\n## ", start + 1)
    return text[start:end if end >= 0 else len(text)]


def test_every_package_def_is_reached_public_or_pinned():
    defs, at_import = _package_defs()
    entries = set().union(*ENTRY_FUNCTIONS.values())
    missing = sorted(
        f"{mod}:{name}" for mod, names in ENTRY_FUNCTIONS.items()
        for name in names if (mod, name) not in defs
    )
    assert not missing, f"entry functions not defined: {missing}"
    pinned_module_defs = {n for (mod, n) in defs if mod in PINNED_MODULES}
    reached = _reach(defs, entries | at_import | PUBLIC_API
                     | set(PINNED) | pinned_module_defs)
    unreached = sorted(
        f"{mod}:{name}" for (mod, name) in defs
        if name not in reached and mod not in PINNED_MODULES
    )
    assert not unreached, (
        f"package defs nothing reaches: {unreached} — delete them, or list "
        "them in PUBLIC_API (with a README entry) or PINNED (with the file "
        "outside the package that needs them)"
    )


def test_pins_are_live():
    """Each pin names a def the entry points do not reach and a file
    outside the package that still names it. A pin that stops holding
    fails, so it goes, and with it the def unless something reaches it."""
    defs, at_import = _package_defs()
    names = {n for (_, n) in defs}
    reached = _reach(defs, set().union(*ENTRY_FUNCTIONS.values())
                     | at_import | PUBLIC_API)
    stale = []
    for name, holder in PINNED.items():
        if name not in names:
            stale.append(f"{name}: not defined in the package")
        elif name in reached:
            stale.append(f"{name}: reached without the pin")
        if holder.startswith(PKG) or not _mentions(holder, name):
            stale.append(f"{name}: {holder} is not a file outside the package naming it")
    for mod, holder in PINNED_MODULES.items():
        if not (PKG_DIR / mod).is_file() or not _mentions(holder, mod[:-3].replace("/", ".")):
            stale.append(f"{mod}: gone, or {holder} no longer imports it")
    assert not stale, f"stale pins: {stale}"


def test_public_api_is_documented():
    defs, _ = _package_defs()
    names = {n for (_, n) in defs}
    section = _readme_public_api()
    undefined = sorted(PUBLIC_API - names)
    undocumented = sorted(n for n in PUBLIC_API if f"`{n}(" not in section)
    assert not undefined, f"PUBLIC_API names no package def: {undefined}"
    assert not undocumented, (
        f"PUBLIC_API names missing from README's Public API section: "
        f"{undocumented}"
    )


# -- the query suite ----------------------------------------------------------

SUITE_DIR = REPO_DIR / "query_suite"
# The directories whose files run the query suite: nothing else imports it.
SUITE_HOLDERS = ("tests", "extraction_bench")


def _suite_nodes():
    """``{(path relative to the repo, name): statement}`` for every
    top-level def and module-level assignment of the query suite, and the
    names the suite's other module-level statements mention, imports
    aside: an import runs, but reaches nothing until a name is used."""
    nodes, at_import = {}, set()
    for p in sorted(SUITE_DIR.rglob("*.py")):
        rel = str(p.relative_to(REPO_DIR))
        for st in ast.parse(p.read_text()).body:
            if isinstance(st, DEF_NODES):
                bound = [st.name]
            elif isinstance(st, (ast.Assign, ast.AnnAssign)):
                targets = st.targets if isinstance(st, ast.Assign) else [st.target]
                bound = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
            else:
                bound = []
            if bound:
                nodes.update({(rel, name): st for name in bound})
            elif not isinstance(st, (ast.Import, ast.ImportFrom)):
                at_import |= _names(st)
    return nodes, at_import


def test_every_query_suite_name_is_reached_from_a_test():
    """Each top-level def and module-level assignment of the query suite
    is reached, by name, from a name the tests or the benchmark mention or
    from the suite's own import-time statements. An assignment is a node,
    not a root, so a helper that only builds an unused ``SQL_*`` string
    goes with it. Retiring the suite is then a batch of tests leaving and
    this test naming the code that leaves with them."""
    nodes, at_import = _suite_nodes()
    held = set().union(*(_names(ast.parse(p.read_text()))
                         for d in SUITE_HOLDERS
                         for p in (REPO_DIR / d).rglob("*.py")))
    reached = _reach(nodes, held | at_import)
    unreached = sorted(f"{mod}:{name} — delete it"
                       for (mod, name) in nodes if name not in reached)
    assert not unreached, f"query-suite names no test reaches: {unreached}"
