"""Every function and class in src/finhom is used by the library or a demo.

A definition counts as used when its name is read somewhere in src/ or
demos/: as a bare name, or as an attribute for methods.  A method read
off its class by name (``ChainMap.zero_map``) marks that class's method
only; read off any other receiver (``self.compose``), where the class is
not evident, it marks every method of that name.  Names that only appear
in strings or comments do not count.  The allowlist holds the
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


def _names_in(tree, classes=frozenset()):
    """The names a syntax tree reads: bare names it loads, not ones it
    only assigns, and every attribute name, qualified as ``Class.attr``
    when it is read off one of ``classes`` by name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            recv = node.value
            if isinstance(recv, ast.Name) and recv.id in classes:
                names.add(f"{recv.id}.{node.attr}")
            else:
                names.add(node.attr)
    return names


def _names_read(definitions):
    classes = {q.split(".")[0] for q, name in definitions if q != name}
    names = set()
    for top in ("src", "demos"):
        for path in (ROOT / top).rglob("*.py"):
            names |= _names_in(ast.parse(path.read_text(encoding="utf-8")), classes)
    return names


def _unused(definitions, read):
    """The qualified names of the definitions nothing in ``read`` marks."""
    return {q for q, name in definitions if q not in read and name not in read}


def test_a_stored_name_is_not_a_read():
    # a local that shares a definition's name must not mark it as used
    tree = ast.parse("columns = 2\nfor rows in range(3):\n    total = rows + 1\n")
    assert _names_in(tree) == {"range", "rows"}


def test_a_method_read_off_its_class_marks_that_class_only():
    # A.f is A's method; x.g may be any class's g
    read = _names_in(ast.parse("A.f()\nx.g()\nB\n"), {"A", "B"})
    assert read == {"A", "A.f", "B", "x", "g"}
    definitions = [("A", "A"), ("A.f", "f"), ("B", "B"), ("B.f", "f"), ("B.g", "g")]
    assert _unused(definitions, read) == {"B.f"}


def test_every_definition_is_referenced():
    definitions = list(_definitions())
    unused = sorted(_unused(definitions, _names_read(definitions)) - TEST_ONLY)
    assert unused == [], f"defined in src/finhom but used nowhere in src/ or demos/: {unused}"


def test_allowlist_names_only_unused_definitions():
    # an allowlisted definition that the library now uses, or that is
    # gone, is dropped from the list
    definitions = list(_definitions())
    unused = _unused(definitions, _names_read(definitions))
    defined = {q for q, _ in definitions}
    assert sorted(q for q in TEST_ONLY if q not in defined or q not in unused) == []
