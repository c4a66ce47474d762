"""The README quickstart runs against the current public API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quickstart_block_runs(capsys):
    match = re.search(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert match, "README has no python code block"
    exec(compile(match.group(1), str(README), "exec"), {"__name__": "readme"})
    printed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert printed == ["pf", "blu"]
