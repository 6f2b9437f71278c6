"""No imported name goes unused in ``src/``, ``tests/`` or ``benchmarks/``.

``make lint`` runs ruff, whose F401 rule catches unused imports, but it
skips with a notice where ruff is not installed; this test enforces the
same rule with the standard library alone.  It mirrors pyproject's
F401 configuration:

* re-exports in ``src/repro/*/__init__.py`` are exempt;
* a line carrying a ``# noqa`` comment is exempt;
* names inside string annotations and ``__all__`` entries count as used.

An import inside a function must be used inside that function; a
module-level import anywhere in the module.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "benchmarks")
NOQA = re.compile(r"#\s*noqa\b")
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _exempt_file(rel: Path) -> bool:
    # src/repro/<package>/__init__.py, at any depth below src/repro
    return rel.name == "__init__.py" and rel.parts[:2] == ("src", "repro") \
        and len(rel.parts) > 3


def _string_names(tree: ast.AST) -> set[str]:
    """Names used inside string annotations and ``__all__`` entries."""
    annotations: list[ast.AST] = []
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            args = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
            annotations += [x.annotation for x in args if x is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                names |= {
                    c.value for c in ast.walk(node.value)
                    if isinstance(c, ast.Constant) and isinstance(c.value, str)
                }
    for annotation in filter(None, annotations):
        for c in ast.walk(annotation):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                try:
                    names |= _names(ast.parse(c.value, mode="eval"))
                except SyntaxError:
                    pass
    return names


def _names(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def unused_imports(path: Path) -> list[str]:
    """``"<line>: <name>"`` for each name *path* imports and never uses."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    scope_of: dict[ast.AST, ast.AST] = {}

    def visit(node: ast.AST, scope: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            scope_of[child] = scope
            visit(child, child if isinstance(child, _SCOPES) else scope)

    visit(tree, tree)
    in_strings = _string_names(tree)
    used: dict[ast.AST, set[str]] = {}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        scope = scope_of[node]
        if scope not in used:
            used[scope] = _names(scope) | in_strings
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name == "*" or bound in used[scope]:
                continue
            if NOQA.search(lines[alias.lineno - 1]) or NOQA.search(
                lines[node.lineno - 1]
            ):
                continue
            out.append(f"{alias.lineno}: {bound}")
    return out


def test_no_unused_imports():
    found = [
        f"{path.relative_to(ROOT)}:{u}"
        for top in SCANNED
        for path in sorted((ROOT / top).rglob("*.py"))
        if not _exempt_file(path.relative_to(ROOT))
        for u in unused_imports(path)
    ]
    assert found == []


def test_detects_an_unused_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import sys  # noqa: F401\n"
        "from typing import TYPE_CHECKING, Optional\n"
        "if TYPE_CHECKING:\n"
        "    from pathlib import Path\n"
        "import json\n"
        "__all__ = ['json']\n"
        "def f(p: 'Path') -> None:\n"
        "    import re\n"
        "    return None\n"
        "def g():\n"
        "    return os\n"
    )
    assert unused_imports(probe) == ["4: Optional", "10: re"]
