"""The README's quick start runs as written and prints what it says."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    # the stability verdict fails at the jump's t_end, as the README says
    assert capsys.readouterr().out.startswith("False (JumpRecord(t=0.623, ")
