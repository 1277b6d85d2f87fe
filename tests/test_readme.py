"""The README's quick start runs as written and prints what it says, and
every code name it gives exists."""

import ast
import pkgutil
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_quick_start_runs(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    # the stability verdict fails at the jump's t_end, as the README says
    assert capsys.readouterr().out.startswith("False (JumpRecord(t=0.623, ")


def _top_level_names() -> set[str]:
    """The names each module of the package defines at its top level."""
    names = set()
    for path in (ROOT / "src" / "risolve").rglob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def unknown_names(text: str) -> list[str]:
    """The backticked names of ``text`` that name nothing: a dotted
    ``risolve.…`` name that does not import and resolve, or a bare
    ``_private`` name that no module of the package defines at its top
    level."""
    unknown = []
    for name in sorted(set(re.findall(r"`(risolve(?:\.\w+)+)`", text))):
        try:
            pkgutil.resolve_name(name)
        except (ImportError, AttributeError):
            unknown.append(name)
    defined = _top_level_names()
    unknown += sorted(set(re.findall(r"`(_\w+)`", text)) - defined)
    return unknown


def test_every_code_name_exists():
    text = README.read_text()
    assert len(re.findall(r"`risolve\.\w", text)) >= 20  # the check reads them
    found = unknown_names(text)
    assert not found, "README names that name nothing:\n" + "\n".join(found)


def test_names_of_deleted_code_are_found():
    text = "searched by `risolve.reduced._lone_row`, as `_lone_row` keeps `_step_rows`'s bits"
    assert unknown_names(text) == ["risolve.reduced._lone_row", "_lone_row"]
