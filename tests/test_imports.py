"""Every import under src/ojainfer is used, and every definition is reached, checked with ast.

An import marked ``# noqa: F401`` is kept for its side effect and exempt. A top-level
function, class or constant is reached when a command, an export or the README's code reads
it, or a definition so reached does (``unreached``).
"""

import ast
import re
from pathlib import Path

import ojainfer

PACKAGE = Path(ojainfer.__file__).resolve().parent
README = Path(__file__).resolve().parent.parent / "README.md"
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Assign, ast.AnnAssign)


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


def _defined(node) -> list[str]:
    """The names a top-level statement defines: a function's or a class's, or a constant's."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _bindings(tree, modules: set[str], homes: dict[str, str]) -> dict[str, tuple[str, str | None]]:
    """Each name that an import anywhere in ``tree`` binds to the package: the module and the
    name it reads there, or (module, None) for a module itself. A name imported from the
    package root resolves through ``_HOMES``."""
    bound = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1:
            module = node.module
        elif node.level == 0 and (node.module or "").split(".")[0] == "ojainfer":
            module = node.module.partition(".")[2] or None
        else:
            continue
        for alias in node.names:
            if module is not None:
                target = (module, alias.name)
            elif alias.name in modules:
                target = (alias.name, None)
            else:
                target = (homes.get(alias.name, "__init__"), alias.name)
            bound[alias.asname or alias.name] = target
    return bound


def _reads(node, module: str, own: set[str], bound) -> set[tuple[str, str]]:
    """The package definitions, as (module, name), that the names ``node`` loads refer to."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
            home, name = bound.get(n.value.id, (None, ""))
            if home is not None and name is None:
                found.add((home, n.attr))
        elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            if n.id in bound and bound[n.id][1] is not None:
                found.add(bound[n.id])
            elif n.id in own:
                found.add((module, n.id))
    return found


def unreached(package: Path, readme: Path) -> list[str]:
    """``module.name`` for each top-level function, class or constant under ``package`` that
    nothing reaches.

    The roots are the names read by a module's statements that are not definitions (``cli``'s
    ``__main__`` block, which runs every command), the dunder names, which Python reads, the
    exports listed in ``_HOMES`` of ``__init__.py``, and the names imported by the README's
    python code blocks. A definition reached reaches the names it reads in turn: its own
    module's definitions, and the package's through its imports.
    """
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(package.glob("*.py"))}
    modules = set(trees)
    homes_node = next(n.value for n in trees["__init__"].body
                      if isinstance(n, ast.Assign) and _defined(n) == ["_HOMES"])
    homes = {name: mod for mod, names in ast.literal_eval(homes_node).items() for name in names}
    edges, todo = {}, [(mod, name) for name, mod in homes.items()]
    for module, tree in trees.items():
        defs = {name: node for node in tree.body if isinstance(node, _DEFS) for name in _defined(node)}
        bound = _bindings(tree, modules, homes)
        for name, node in defs.items():
            edges[module, name] = _reads(node, module, set(defs), bound)
            if name.startswith("__") and name.endswith("__"):
                todo.append((module, name))
        for node in tree.body:
            if not isinstance(node, _DEFS):
                todo += _reads(node, module, set(defs), bound)
    for block in re.findall(r"```python\n(.*?)```", readme.read_text(encoding="utf-8"), re.S):
        todo += [target for target in _bindings(ast.parse(block), modules, homes).values()
                 if target[1] is not None]
    reached = set()
    while todo:
        key = todo.pop()
        if key in edges and key not in reached:
            reached.add(key)
            todo += edges[key]
    return [f"{module}.{name}" for module, name in edges if (module, name) not in reached]


def test_every_definition_is_reached_from_a_command_an_export_or_the_readme():
    assert unreached(PACKAGE, README) == []


def test_the_check_finds_an_unreached_definition(tmp_path):
    (tmp_path / "__init__.py").write_text('_HOMES = {"m": ("exported",)}\n__all__ = [*_HOMES]\n')
    (tmp_path / "cli.py").write_text("from . import m\n\ndef main():\n    return m.used()\n\n"
                                     "def idle():\n    pass\n\nif __name__ == '__main__':\n    main()\n")
    (tmp_path / "m.py").write_text("LIMIT = 3\nSPARE = 4\n\ndef used():\n    return helper()\n\n"
                                   "def helper():\n    return LIMIT\n\ndef exported():\n    pass\n\n"
                                   "def toured():\n    pass\n\nclass Orphan:\n    pass\n")
    readme = tmp_path / "README.md"
    readme.write_text("```python\nfrom ojainfer.m import toured\n```\n")
    assert unreached(tmp_path, readme) == ["cli.idle", "m.SPARE", "m.Orphan"]
