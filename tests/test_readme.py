"""The README's library quick start runs as written, on the package's public names."""

import ast
import re
import types
from pathlib import Path

import polyexpand

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


def test_public_names_are_the_imported_non_modules():
    star: dict = {}
    exec("from polyexpand import *", star)
    del star["__builtins__"]
    assert sorted(star) == sorted(polyexpand.__all__)
    for name in polyexpand.__all__:
        value = getattr(polyexpand, name)
        assert not isinstance(value, types.ModuleType) and value is not types.ModuleType, name
    quick_start = {
        alias.name
        for node in ast.walk(ast.parse(quick_start_code()))
        if isinstance(node, ast.ImportFrom) and node.module == "polyexpand"
        for alias in node.names
    }
    assert quick_start and quick_start <= set(polyexpand.__all__)
