"""The Python block under "Library quick start" in README.md runs as written,
so the README imports no name the package does not export."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert abs(float(printed[0]) - 1.0) <= 1e-12  # the success probability, 1 up to rounding
