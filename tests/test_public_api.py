"""Every public name has a caller in the library itself.

A name in ``gmspike.__all__`` or ``cli.__all__`` must be read somewhere in
``src/gmspike`` outside its own definition; a name only the tests use is
test code and belongs under ``tests/``.  The few exceptions are listed
below, each with the reason it stays public.
"""

import ast
from pathlib import Path

import gmspike
from gmspike import cli

SOURCES = sorted(Path(gmspike.__file__).parent.glob("*.py"))

ALLOWED_WITHOUT_CALLER = {
    "eval_spike_derivative": "the wall defect of a boundary spike will read u' at the wall",
    "eval_spike_second_derivative": (
        "bench/child.py traces it through gmspike.verify; tests/test_bench_contract.py runs that"
    ),
    "__version__": "package metadata",
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
