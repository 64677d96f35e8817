"""The README's library quick start runs as written, on the package's public names, and
its CLI tour prints what it shows."""

import ast
import re
import shlex
import types
from pathlib import Path

import polyexpand
from polyexpand import cli

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


def tour_examples() -> tuple[dict[str, str], list[tuple[str, list[str]]]]:
    """The tour's printf-written files, and each command followed by '# ' output lines."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"```sh\n(.*?)```", text.split("## CLI tour", 1)[1], re.DOTALL)
    assert block, "no sh block under 'CLI tour'"
    files, examples, command = {}, [], None
    for line in block.group(1).splitlines():
        written = re.fullmatch(r"printf '(.*)' > (\S+)", line)
        if written:
            files[written.group(2)] = written.group(1).replace("\\n", "\n")
        if line.startswith("polyexpand "):
            command = line
            examples.append((command, []))
        elif line.startswith("# ") and command:
            examples[-1][1].append(line[2:])
        else:  # any other line ends the output lines of the command before it
            command = None
    return files, [(command, shown) for command, shown in examples if shown]


def test_readme_cli_tour_prints_what_it_shows(tmp_path, monkeypatch, capsys):
    files, examples = tour_examples()
    assert [command.split()[1] for command, _ in examples] == ["classify", "energy", "bound"]
    for name, content in files.items():
        (tmp_path / name).write_text(content, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for command, shown in examples:
        assert cli.main(shlex.split(command)[1:]) == 0, command
        out = iter(capsys.readouterr().out.splitlines())
        assert all(line in out for line in shown), (command, shown)
