"""Every public name, and every record field, has a caller in the library itself.

A name in ``gmspike.__all__`` or ``cli.__all__`` must be read somewhere in
``src/gmspike`` outside its own definition; a name only the tests use is
test code and belongs under ``tests/``.  Each field of a public record must
be read there as an attribute, ``x.name``.  The few exceptions are listed
below, each with the reason it stays public.
"""

import ast
from pathlib import Path

import gmspike
from gmspike import cli

SOURCES = sorted(Path(gmspike.__file__).parent.glob("*.py"))

ALLOWED_WITHOUT_CALLER = {
    "eval_spike_rho": (
        "the one-point closed form of the README's quick start; bench/child.py traces it "
        "through gmspike.verify and gmspike.cli, and the library calls the grid form"
    ),
    "eval_spike_derivative": "the wall defect of a boundary spike will read u' at the wall",
    "eval_spike_second_derivative": (
        "bench/child.py traces it through gmspike.verify; tests/test_bench_contract.py runs that"
    ),
    "__version__": "package metadata",
}

FIELDS_ALLOWED_WITHOUT_READER = {
    "ShootingResult.config": "bench/child.py:128 reads its scan_points",
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


def test_every_record_field_is_read_in_src():
    read = {
        node.attr
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = {field for field in RECORD_FIELDS if field.split(".")[1] not in read}
    unread -= set(FIELDS_ALLOWED_WITHOUT_READER)
    assert not unread, f"record fields read nowhere in src/: {sorted(unread)}"


def test_field_allowlist_names_only_record_fields():
    assert set(FIELDS_ALLOWED_WITHOUT_READER) <= RECORD_FIELDS
