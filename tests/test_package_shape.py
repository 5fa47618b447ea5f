"""Package shape: every module of the package is reachable from the
engine's entry points, so code that nothing runs cannot accumulate again.

The walk parses each module's AST and follows both module-level and
function-level imports (the engine defers some imports into functions),
starting from the job CLI and the pipeline module. Importing ``a.b.c``
also runs ``a/__init__.py`` and ``a/b/__init__.py``, so parent packages of
every reached module count as reached.

Three more walks check that no engine module calls a Ray Data shuffle,
that every ``map_batches`` runs its function as plain tasks, and that no
Ray work starts outside Ray Data."""

import ast
from pathlib import Path

import service1_text_extraction_ray as pkg

PKG_DIR = Path(pkg.__file__).parent
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


def test_engine_launches_ray_work_only_through_ray_data():
    """One way to run work on Ray: a Ray Data graph. No engine module
    defines or calls a remote function or actor (``ray.remote`` as a
    decorator or call, ``f.remote(...)``) or waits on an object ref
    (``ray.get``)."""
    offenders = sorted(
        f"{p.relative_to(PKG_DIR)}:{node.lineno}"
        for p in PKG_DIR.rglob("*.py")
        for node in ast.walk(ast.parse(p.read_text()))
        if (isinstance(node, ast.Attribute) and (
            node.attr == "remote"
            or (node.attr == "get" and isinstance(node.value, ast.Name)
                and node.value.id == "ray")))
        or (isinstance(node, ast.ImportFrom) and node.module == "ray"
            and {a.name for a in node.names} & {"remote", "get"})
    )
    assert not offenders, f"Ray work outside Ray Data: {offenders}"
