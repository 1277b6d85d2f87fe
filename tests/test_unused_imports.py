"""Every module-level import of the package, the tests and the tools is
used, and every name a module exports is defined.

No linter is a dependency, so this is a small stdlib ``ast`` scan: a name a
module-level import binds must appear as a name somewhere in the module.  A
package ``__init__.py`` is its public API and is not scanned for that.
Every name of a module's ``__all__`` must be bound at its top level, by a
def, a class, an assignment or an import; else ``import *`` fails on it.
Every name the package ``__init__.py`` imports must be in its ``__all__``,
so a name taken out of the public API leaves both lists.
No module of the package imports a ``_``-prefixed name from a sibling: a
name another module needs is public.  Every top-level ``_``-prefixed
function, class or constant of the package is read somewhere in it
outside its own definition, so a helper whose last caller went goes too.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = [ROOT / "src" / "risolve", ROOT / "tests", ROOT / "tools"]


def _bindings(tree: ast.Module):
    """(line, bound name) of every import at module level."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield node.lineno, alias.asname or alias.name


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every module-level import ``source`` never uses."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in _bindings(tree) if name not in used]


def _declared(node: ast.stmt) -> list[str]:
    """The names a top-level def, class or assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _defined(tree: ast.Module) -> set[str]:
    """The names a module binds at top level."""
    names = {name for _, name in _bindings(tree)}
    for node in tree.body:
        names.update(_declared(node))
    return names


def _exports(tree: ast.Module) -> list[str]:
    """The names of a module's ``__all__``."""
    return [
        name
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for name in ast.literal_eval(node.value)
    ]


def stale_exports(source: str) -> list[str]:
    """Every name of the ``__all__`` of ``source`` that it does not define."""
    tree = ast.parse(source)
    defined = _defined(tree)
    return [name for name in _exports(tree) if name not in defined]


def unlisted_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every module-level import of ``source`` that its
    ``__all__`` does not list."""
    tree = ast.parse(source)
    exported = set(_exports(tree))
    return [(line, name) for line, name in _bindings(tree) if name not in exported]


def private_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every ``_``-prefixed name ``source`` imports from a
    sibling module (a relative import), at any depth."""
    return [
        (node.lineno, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_no_unused_module_imports():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for folder in SCANNED
        for path in sorted(folder.rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text())
    ]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_scan_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import Optional, Sequence as Seq\n"
        "def f(x: Optional[int]) -> None:\n"
        "    import json\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == [(3, "np"), (4, "Seq")]


def test_every_export_is_defined():
    found = [
        f"{path.relative_to(ROOT)}: {name}"
        for folder in SCANNED
        for path in sorted(folder.rglob("*.py"))
        for name in stale_exports(path.read_text())
    ]
    assert not found, "names in __all__ that the module does not define:\n" + "\n".join(found)


def test_scan_finds_a_stale_export():
    source = (
        "from os import path as p\n"
        "import numpy\n"
        "__all__ = ['f', 'C', 'X', 'Y', 'p', 'numpy', 'gone']\n"
        "def f(): pass\n"
        "class C: pass\n"
        "X = Y = 1\n"
    )
    assert stale_exports(source) == ["gone"]


def test_package_exports_every_import():
    path = ROOT / "src" / "risolve" / "__init__.py"
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for line, name in unlisted_imports(path.read_text())]
    assert not found, "imported by the package but not in its __all__:\n" + "\n".join(found)


def test_scan_finds_an_unlisted_import():
    source = (
        "from .core import f, g\n"
        "import numpy as np\n"
        "__all__ = ['f', 'np']\n"
    )
    assert unlisted_imports(source) == [(1, "g")]


def test_no_private_names_imported_from_siblings():
    package = ROOT / "src" / "risolve"
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted(package.rglob("*.py"))
        for line, name in private_imports(path.read_text())
    ]
    assert not found, "private names imported from a sibling module:\n" + "\n".join(found)


def test_scan_finds_a_private_import():
    source = (
        "from ._impl import helper\n"
        "from .scheme import SchemeConfig, _scheme_correction\n"
        "from os.path import _joinrealpath\n"
        "def f():\n"
        "    from . import _private as p\n"
        "    return p\n"
    )
    assert private_imports(source) == [(2, "_scheme_correction"), (5, "_private")]


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module: name`` of every top-level ``_``-prefixed function, class
    or constant of the ``sources`` (module name to source) that no
    top-level statement of them reads, as a name or an attribute, other
    than the one that defines it."""
    reads, defined = [], []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            names = {n.id for n in ast.walk(node)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            reads.append(names)
            defined += [(module, name, len(reads) - 1) for name in _declared(node)
                        if name.startswith("_") and not name.startswith("__")]
    return [
        f"{module}: {name}"
        for module, name, own in defined
        if not any(name in names for i, names in enumerate(reads) if i != own)
    ]


def test_every_private_name_is_read():
    package = ROOT / "src" / "risolve"
    sources = {str(path.relative_to(ROOT)): path.read_text()
               for path in sorted(package.rglob("*.py"))}
    found = unread_private_names(sources)
    assert not found, "private names the package never reads:\n" + "\n".join(found)


def test_scan_finds_an_unread_private_name():
    sources = {
        "a": (
            "_K = 4\n"
            "_USED: int = 1\n"
            "def _first_k(vals):\n"
            "    return _first_k(vals[1:]) if vals else _K\n"
            "def _helper():\n"
            "    return _USED\n"
            "def __getattr__(name):\n"
            "    return name\n"
        ),
        "b": "import a\nx = a._helper()\n",
    }
    assert unread_private_names(sources) == ["a: _first_k"]
