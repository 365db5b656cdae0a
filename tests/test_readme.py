"""README's quick-start example runs as written, against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Quick start (library)"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    head, se = capsys.readouterr().out.rsplit(" +/- ", 1)
    assert head.startswith("StrategyMix(") and float(head.split()[-1]) > 0 < float(se)
