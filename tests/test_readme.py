"""The README's library quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_code() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under 'Library quick start'"
    return match.group(1)


def test_readme_quick_start_runs(capsys):
    exec(compile(quick_start_code(), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "55"  # the README's comment on that line
    assert lines[2] == (
        "MonomialDecomposition(g=UnivariatePoly('t + t^2'), monomial=(1, 1), trivial=False)"
    )
    assert len(lines) == 6
