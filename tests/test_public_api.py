"""Every public name, and every record field, has a caller in the library itself.

A name in ``gmspike.__all__`` or ``cli.__all__`` must be read somewhere in
``src/gmspike`` outside its own definition; a name only the tests use is
test code and belongs under ``tests/``.  Each field of a public record must
be read there as an attribute, ``x.name``.  The few exceptions are listed
below, each with the reason it stays public; a field kept for the benchmark
stays only while ``bench/child.py`` reads the attribute it names.  No module but ``__init__.py``
silences F401 (unused import) with ``noqa``: an import that only a tool
reads has no caller either.
"""

import ast
import re
from pathlib import Path

import gmspike
from gmspike import cli

SOURCES = sorted(Path(gmspike.__file__).parent.glob("*.py"))
BENCH_CHILD = Path(__file__).resolve().parents[1] / "bench" / "child.py"

ALLOWED_WITHOUT_CALLER = {
    "eval_spike_derivative": "the wall defect of a boundary spike will read u' at the wall",
    "__version__": "package metadata",
}

# Each field that only the benchmark reads, and the attribute of it that
# bench/child.py reads; once it stops, the field's exception lapses and
# ShootingResult.config goes (ROADMAP item 10b).
FIELDS_READ_BY_THE_BENCHMARK = {
    "ShootingResult.config": "scan_points",
}

# "Record.field" for each field of a NamedTuple in gmspike.__all__, and of cli.RunConfig.
RECORD_FIELDS = {
    f"{value.__name__}.{name}"
    for value in (*(getattr(gmspike, name) for name in gmspike.__all__), cli.RunConfig)
    if isinstance(value, type) and issubclass(value, tuple)
    for name in value._fields
}


def _loaded_names(tree: ast.AST) -> set[str]:
    """Names read anywhere in ``tree`` except inside the function or class
    that defines them."""
    loaded: set[str] = set()

    def visit(node: ast.AST, enclosing: frozenset[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in enclosing:
                loaded.add(node.id)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return loaded


def test_every_public_name_has_a_caller_in_src():
    loaded = set().union(*(_loaded_names(ast.parse(path.read_text())) for path in SOURCES))
    public = set(gmspike.__all__) | set(cli.__all__)
    uncalled = public - loaded - set(ALLOWED_WITHOUT_CALLER)
    assert not uncalled, f"public names with no caller in src/: {sorted(uncalled)}"


def test_allowlist_names_only_public_names():
    stale = set(ALLOWED_WITHOUT_CALLER) - set(gmspike.__all__) - set(cli.__all__)
    assert not stale


def test_no_import_is_kept_only_for_tools():
    # An unused import hides behind a noqa that names F401; only the package's
    # star re-exports need one.
    marked = [
        f"{path.name}:{number}"
        for path in SOURCES
        if path.name != "__init__.py"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"#\s*noqa\b.*\bF401\b", line)
    ]
    assert not marked, f"imports kept only for a tool: {marked}"


def _attributes_read(paths) -> set[str]:
    """Every attribute name read, ``x.name``, in the files ``paths``."""
    return {
        node.attr
        for path in paths
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_record_field_is_read_in_src():
    read = _attributes_read(SOURCES)
    unread = {field for field in RECORD_FIELDS if field.split(".")[1] not in read}
    bench_reads = _attributes_read([BENCH_CHILD])
    unread -= {
        field for field, attr in FIELDS_READ_BY_THE_BENCHMARK.items() if attr in bench_reads
    }
    assert not unread, f"record fields read nowhere in src/: {sorted(unread)}"


def test_field_allowlist_names_only_record_fields():
    assert set(FIELDS_READ_BY_THE_BENCHMARK) <= RECORD_FIELDS
