"""Exact stdout, stderr and exit code of every subcommand in every format.

`cli_golden.json` was recorded from the CLI as it stood before the parser
was built once and output printed from one place, so these cases pin the
bytes that rework had to keep. Argv entries `{A}`, `{B}`, `{S}`, `{U}` and
`{V}` name the set files written below. `{U}` is unsorted and spells 1/2
three ways, and `{V}` has other denominators; the image case that reads
them was recorded before set files were sorted on integer keys, and the
audit cases on `{V}` before audits printed from integer keys. A case with a
`patch` wraps one library call seen by the CLI so that it reports a
falsified bound, which exercises the exit-4 output that correct code never
reaches.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from polyexpand import cli

SETS = {
    "A": "-1\n0\n1/2\n2\n",
    "B": "3\n5\n",
    "S": "2\n3\n9/2\n",
    "U": "3/4\n-5/3\n0\n2/4\n7\n1/2\n-2\n0.5\n",
    "V": "2/7\n-1/9\n5\n1/6\n",
}
PATCHES = {
    "inconsistent": ("audit_vanishing_subsums", lambda r: dataclasses.replace(r, consistent=False)),
    "not_injective": ("audit_injectivity", lambda r: False),
    "energy_fails": ("cauchy_schwarz_check", lambda r: dataclasses.replace(r, holds=False)),
}
CASES = json.loads((Path(__file__).parent / "cli_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[case["id"] for case in CASES])
def test_cli_bytes(case, tmp_path, monkeypatch, capsys):
    paths = {}
    for name, text in SETS.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    if case["patch"]:
        attr, falsify = PATCHES[case["patch"]]
        original = getattr(cli, attr)
        monkeypatch.setattr(cli, attr, lambda *a, **k: falsify(original(*a, **k)))
    code = cli.main([arg.format(**paths) for arg in case["argv"]])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (case["code"], case["stdout"], case["stderr"])
