"""Every function and class in src/finhom is used by the library or a demo.

A definition counts as used when its name is read somewhere in src/ or
demos/: as a bare name, or as an attribute for methods.  Names that only
appear in strings or comments do not count.  The allowlist holds the
definitions that only tests and benchmarks call: oracles that check the
library from outside it, and the public pieces that nothing inside needs.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# called from tests only, on purpose
TEST_ONLY = {
    # coherence isomorphisms the invariant tests check
    "tensor_unit_iso_complex",
    "tensor_symmetry_iso",
    "tensor_assoc_iso",
}


def _definitions():
    """(qualified name, name) of every top-level function and class of
    src/finhom and every method of those classes but the dunder ones."""
    for path in sorted((ROOT / "src" / "finhom").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__"):
                        yield f"{node.name}.{sub.name}", sub.name


def _names_in(tree):
    """The names a syntax tree reads: bare names it loads, not ones it
    only assigns, and every attribute name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _names_read():
    names = set()
    for top in ("src", "demos"):
        for path in (ROOT / top).rglob("*.py"):
            names |= _names_in(ast.parse(path.read_text(encoding="utf-8")))
    return names


def test_a_stored_name_is_not_a_read():
    # a local that shares a definition's name must not mark it as used
    tree = ast.parse("columns = 2\nfor rows in range(3):\n    total = rows + 1\n")
    assert _names_in(tree) == {"range", "rows"}


def test_every_definition_is_referenced():
    read = _names_read()
    unused = sorted(q for q, name in _definitions() if name not in read and q not in TEST_ONLY)
    assert unused == [], f"defined in src/finhom but used nowhere in src/ or demos/: {unused}"


def test_allowlist_names_only_unused_definitions():
    # an allowlisted definition that the library now uses, or that is
    # gone, is dropped from the list
    read = _names_read()
    defined = {q: name for q, name in _definitions()}
    assert sorted(q for q in TEST_ONLY if q not in defined or defined[q] in read) == []
