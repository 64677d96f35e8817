"""Exact stdout, stderr and exit code of every subcommand in every format.

`cli_golden.json` was recorded from the CLI as it stood before the parser
was built once and output printed from one place, so these cases pin the
bytes that rework had to keep. Argv entries `{A}`, `{B}`, `{S}`, `{U}`, `{V}`
and `{R}` name the set files written below. `{U}` is unsorted and spells 1/2
three ways, and `{V}` has other denominators; the image case that reads
them was recorded before set files were sorted on integer keys, and the
audit cases on `{V}` before audits printed from integer keys. The sweep and
audit cases on GGP boxes and on the ratio -3/2 were recorded while boxes
and geometric samples were still built from Fraction products. The
element-cap cases of the injectivity box, the `ggp` family and the `files`
family were recorded while each caller still turned `--max-pairs` into its
own element cap. The `audit-dominated-*` cases, where a term outweighs
the others at `(2, 2)` and every term is zero at `(0, 0)`, were recorded
while the subsum check still ran its meet-in-the-middle on every term.
The sweep cases with unsorted or repeated sizes, a box whose products
collide, a monomial polynomial and an element cap ahead of a zero
size were recorded while every size of a ladder was walked on its own.
`{R}` is a dense set over the primes 2..13 whose rank is 4: its
`structure-dense-*` cases were recorded while rank came from a Euclidean
row reduction, and its exponent matrix needs a row swap to eliminate.
The `audit-tied-magnitudes-*` cases, whose magnitudes 1, 2, 3 tie at
(-1, -1) and whose terms vanish at x = 0, and the `audit-paired-terms-*`
cases, eight terms in c/-c pairs on `{S}`, were recorded while the audit
still checked each pair with its own call. The `*-poly-bad-exponent`,
`*-poly-bad-factor` and `*-poly-zero-denominator` cases, which exit 2 on
polynomial text, were recorded while a hand-written character scanner
still parsed it. The `classify-zero-poly` case pins the library's
message for the zero polynomial, which `classify` gives since it stopped
reporting the zero polynomial's empty support. A case with a `patch` wraps
one library call seen by the CLI so that it reports a falsified bound,
which exercises the exit-4 output that correct code never reaches.

New cases are appended, never rewritten, by the recorder in this file:

    PYTHONPATH=src python tests/test_cli_golden.py --record ID -- ARGV...

It runs the CLI on ARGV, with the same set-file placeholders as the test,
and appends the result under ID, which must be new.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from polyexpand import cli

SETS = {
    "A": "-1\n0\n1/2\n2\n",
    "B": "3\n5\n",
    "S": "2\n3\n9/2\n",
    "U": "3/4\n-5/3\n0\n2/4\n7\n1/2\n-2\n0.5\n",
    "V": "2/7\n-1/9\n5\n1/6\n",
    "R": "-51975/52\n-693/13\n-858/245\n-9/123032\n1/13663650\n6125/1144\n75/4\n",
}
PATCHES = {
    "inconsistent": ("audit_vanishing_subsums", lambda r: r._replace(consistent=False)),
    "not_injective": ("audit_injectivity", lambda r: False),
    "energy_fails": ("cauchy_schwarz_check", lambda r: r._replace(holds=False)),
}
GOLDEN = Path(__file__).parent / "cli_golden.json"
CASES = json.loads(GOLDEN.read_text(encoding="utf-8"))


def write_sets(directory: Path) -> dict[str, str]:
    """Write the set files into directory; map each placeholder name to its path."""
    paths = {}
    for name, text in SETS.items():
        path = directory / f"{name}.txt"
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    return paths


@pytest.mark.parametrize("case", CASES, ids=[case["id"] for case in CASES])
def test_cli_bytes(case, tmp_path, monkeypatch, capsys):
    paths = write_sets(tmp_path)
    if case["patch"]:
        attr, falsify = PATCHES[case["patch"]]
        original = getattr(cli, attr)
        monkeypatch.setattr(cli, attr, lambda *a, **k: falsify(original(*a, **k)))
    code = cli.main([arg.format(**paths) for arg in case["argv"]])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (case["code"], case["stdout"], case["stderr"])


def record(case_id: str, argv: list[str]) -> None:
    """Run the CLI on argv and append the case to cli_golden.json."""
    if any(case["id"] == case_id for case in CASES):
        raise SystemExit(f"case {case_id!r} exists; golden cases are never rewritten")
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as directory:
        paths = write_sets(Path(directory))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([arg.format(**paths) for arg in argv])
    dump = json.dumps
    entry = (
        f' {{"id": {dump(case_id)}, "patch": null, "code": {code},\n'
        f'  "argv": {dump(argv)},\n'
        f'  "stdout": {dump(out.getvalue())},\n'
        f'  "stderr": {dump(err.getvalue())}}}'
    )
    text = GOLDEN.read_text(encoding="utf-8")
    GOLDEN.write_text(text.rstrip()[:-1].rstrip() + ",\n" + entry + "\n]\n", encoding="utf-8")


if __name__ == "__main__":
    if len(sys.argv) < 5 or sys.argv[1] != "--record" or sys.argv[3] != "--":
        raise SystemExit("usage: test_cli_golden.py --record ID -- ARGV...")
    record(sys.argv[2], sys.argv[4:])
