"""Every import under src/ojainfer is used, checked with the standard library's ast.

An import marked ``# noqa: F401`` is kept for its side effect and exempt.
"""

import ast
from pathlib import Path

import ojainfer

PACKAGE = Path(ojainfer.__file__).resolve().parent
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef)


def unused_imports(path: Path) -> list[str]:
    """``file:line name`` for each name that an import binds and its scope never reads.

    The scope of a module-level import is the module; that of an import inside
    a function is the function, nested functions included.
    """
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    owners = {}  # import node -> the module or function it binds in

    def collect(scope, node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                owners[child] = scope
            collect(child if isinstance(child, _SCOPES) else scope, child)

    collect(tree, tree)
    unused = []
    for node, scope in owners.items():
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa: F401" in lines[i - 1] for i in range(node.lineno, node.end_lineno + 1)):
            continue
        read = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        unused += [f"{path.name}:{node.lineno} {alias.asname or alias.name}" for alias in node.names
                   if (alias.asname or alias.name.split(".")[0]) not in read]
    return unused


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    assert [hit for path in modules for hit in unused_imports(path)] == []


def test_the_check_finds_an_unused_import(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import os\nimport sys  # noqa: F401\nfrom math import pi, tau\n\n"
                    "def f():\n    from json import dumps, loads\n    return tau + len(dumps(pi))\n")
    assert unused_imports(path) == ["m.py:1 os", "m.py:6 loads"]
