"""Every public top-level function and class of ``moediv`` has a caller
outside the tests: a name, attribute or import reference to it in ``src/``
(the package ``__init__``'s re-exports aside), ``perfbench/`` or ``tools/``.
Public API that only tests call is deleted, or its tests move to the path
that remains."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "moediv"


def parsed(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def public_names():
    return {stmt.name for path in PACKAGE.glob("*.py") for stmt in parsed(path).body
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            and not stmt.name.startswith("_")}


def referenced_names():
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "perfbench").rglob("*.py"), *(ROOT / "tools").rglob("*.py")]
    seen = set()
    for path in files:
        for node in ast.walk(parsed(path)):
            if isinstance(node, ast.Name):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
            elif isinstance(node, ast.alias):
                seen.add(node.name.rsplit(".", 1)[-1])
    return seen


def test_every_public_name_has_a_caller_outside_tests():
    unused = sorted(public_names() - referenced_names())
    assert not unused, f"public API that only tests call: {', '.join(unused)}"
