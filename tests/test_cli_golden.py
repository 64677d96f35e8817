"""Exact stdout, stderr and exit code of every subcommand in every format.

`cli_golden.json` was recorded from the CLI as it stood before the parser
was built once and output printed from one place, so these cases pin the
bytes that rework had to keep. Argv entries `{A}`, `{B}`, `{S}`, `{U}`,
`{V}`, `{R}` and `{G}` name the set files written below. `{U}` is unsorted
and spells 1/2 three ways, and `{V}` has other denominators; the image case
that reads them was recorded before set files were sorted on integer keys,
and the audit cases on `{V}` before audits printed from integer keys. The
sweep and audit cases on GGP boxes and on the ratio -3/2 were recorded
while boxes and geometric samples were still built from Fraction products. The
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
reporting the zero polynomial's empty support. `structure-capped-text`,
`energy-capped-json` and `sweep-files-json` were recorded while `|AA|` was
still counted apart from the ladder walk; the samples of `sweep-files-json`
do not nest, so it pins the walk's per-set fallback. `structure-zero-capped-text`
was recorded once `structure` refused a set holding 0 before its product
walk, instead of asking for a larger `--max-pairs`. `sweep-symmetric-csv`
(`x^2*y + x*y^2`, equal to its own transpose), `sweep-near-symmetric-csv`
(`x^2*y + 2*x*y^2`: a symmetric support under coefficients that are not) and
`image-unsorted-set2-text` (two sets of different sizes) were recorded while
the pair kernel still built one row per element of the first set and walked
every shell's mirrored pairs for every polynomial. `sweep-nonsymmetric-box-csv`
(`x^2*y - x*y` on a two-generator box ladder with unsorted sizes and
colliding values) was recorded while each shell of a ladder still prepared
its own columns and walked a transposed copy of f's terms for its old x new
pairs. `audit-two-blocks-text` (`x^2*y - x*y^2 + 3*x - 3*y` on the 40
elements `{G}`, whose terms cancel in pairs on the diagonal and where
`x*y = -3`) was recorded while the subsum audit still cut its pairs one
row at a time and sent every pair the row test flagged to the meet in
the middle. The `argparse-*` cases pin argparse's own usage errors and
help, with the exit code of its `SystemExit`; they were recorded while
`main` still read every argv with the full parser. `sweep-rendered-poly-text`,
`sweep-rendered-poly-json` (`-1/2*x^2*y + 3*y - 7/3` on `geometric:3/2`) and
`sweep-exceptional-text` (`x^2*y^2 - 1/3` with `--allow-exceptional`) were
recorded while a sweep still rendered f twice, once into its result record
and once into a payload that only `--format json` prints.
`image-shared-denominators-text` and `image-shared-denominators-json`
(`x^2 - 2/3*x*y` on `{G}` x `{S}`: 120 pairs giving 0, integers, negatives
and fractions over a few denominators) were recorded while each printed
value still built the text of its own reduced denominator. `image-past-digit-limit-text`
(`x^6000` on `{S}`, whose largest value has a 5,726-digit numerator) was
recorded once values past the interpreter's int-to-str digit limit were
printed instead of exiting 2. `image-past-digit-limit-json` (the same image
under `--format json`) and `audit-bad-values-json` (the `bad_values` patch
on `x^2*y - x*y^2 + 3*x - 3*y` over `{S}` with `--threshold 1`, which exits
4 with a value of high multiplicity and three bad values) were recorded
while `json.dumps` still encoded every printed list string by string.
`image-pure-y-set2-*` (`y^3 - 2*y + 5` on `{A}` x `{S}`), `image-constant-text`
and `energy-constant-*`, `sweep-few-x-powers-*` (`x*y^2 + y^3 - x + 2*y`,
with fewer powers of x than of y, on `geometric:3/2` and on a `ggp:` ladder
with unsorted sizes) and `audit-mixed-columns-*` (`x^2 + x*y - 3*y + 1`,
with pure-x, pure-y, mixed and constant terms, on `{A}`) were recorded
while the pair kernel still multiplied every column at every pair and
always grouped f's terms by powers of y. `{P}` holds 20 values `p/2^m`
with `m` up to 20, 0 and negatives among them, and `{Q}` is `{P}` with
`1/3^19` added. `image-two-adic-*` and `audit-two-adic-json` (`x^2 -
1/3*x*y` on `{P}`, over the scale `3*2^40`, with zero and negative
values) and `image-two-adic-odd-*` (the same on `{Q}`, whose scale's odd
part `3^39` is wider than one 30-bit int digit) were recorded while every
printed value still took its gcd with the full scale. `{N}` holds the
integers 1..9. `audit-heavy-differences-text` and `-json` (`x - y` on
`{N}`, where 0 and the small differences have more pairs than the dirty
bound) and `audit-heavy-sums-text` (`x + y` on `{N}` with `--threshold
5`) were recorded while a text audit still ran the subsum check on every
pair. `{Ä}` holds 1, 2 and 4, under a file name with a non-ASCII letter:
`sweep-non-ascii-file-text` and `-json` (`x^2 + 3*y` over `files:{Ä},{S}`)
pin the `\\u00c4` escape of that name in the family's description, and were
recorded while `--format json` still cut prebuilt JSON texts back into the
line `json.dumps` printed. The refusals, each exiting 2, were recorded while
three stacked `lab` helpers still built them: `audit-exceptional-set-text`,
`audit-exceptional-ggp-text`, `audit-constant-poly-text` (the constant 3, which
equals `g(1)`) and `sweep-exceptional-refused-text` refuse the `g(x^a y^b)`
shape; `energy-zero-poly`, `audit-zero-poly-set` and `audit-zero-poly-ggp`
refuse the zero polynomial; and `sweep-zero-poly-no-sizes` and
`sweep-no-sizes` pin a sweep's order of checks, the zero polynomial before an
empty `--N`. A case with a `patch` wraps one library call seen
by the CLI so that it reports a falsified bound, which exercises the exit-4 output that correct
code never reaches.

New cases are appended, never rewritten, by the recorder in this file:

    PYTHONPATH=src python tests/test_cli_golden.py --record ID [--patch NAME] -- ARGV...

It runs the CLI on ARGV, with the same set-file placeholders as the test
and the named entry of `PATCHES` applied, if any, and appends the result
under ID, which must be new. Every case, patched
ones included, also replays without pytest, on the standard library alone,
so any interpreter the package supports can check the bytes:

    PYTHONPATH=src python tests/test_cli_golden.py --check

It prints the number of cases and exits non-zero with the ids that differ.
Both the test and `--check` also hold every case that prints JSON (`--format
json`, exit 0 or 4) to the text `json.dumps(..., sort_keys=True)` gives for
what it printed, since the CLI writes its longest lists as joined text.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

from polyexpand import cli

SETS = {
    "A": "-1\n0\n1/2\n2\n",
    "B": "3\n5\n",
    "S": "2\n3\n9/2\n",
    "U": "3/4\n-5/3\n0\n2/4\n7\n1/2\n-2\n0.5\n",
    "V": "2/7\n-1/9\n5\n1/6\n",
    "R": "-51975/52\n-693/13\n-858/245\n-9/123032\n1/13663650\n6125/1144\n75/4\n",
    "G": "".join(f"{v}\n-{v}\n" for v in (
        "1", "2", "3", "6", "1/2", "3/2", "1/3", "2/3", "3/4", "4",
        "5", "7", "9", "1/5", "5/3", "12", "1/4", "3/5", "8", "10",
    )),
    "P": "".join(f"{v}\n" for v in (
        "0", "1", "-1", "3", "1/2", "-3/2", "1/4", "3/4", "-5/8", "7/16",
        "1/32", "3/32", "-9/64", "11/128", "5/256", "-13/512", "1/1024", "3/4096",
        "-17/65536", "1/1048576",
    )),
}
SETS["Q"] = SETS["P"] + "1/1162261467\n"
SETS["N"] = "".join(f"{v}\n" for v in range(1, 10))
SETS["Ä"] = "1\n2\n4\n"
PATCHES = {
    "inconsistent": ("audit_vanishing_subsums", lambda r: r._replace(consistent=False)),
    "not_injective": ("audit_injectivity", lambda r: False),
    "energy_fails": ("cauchy_schwarz_check", lambda r: r._replace(holds=False)),
    "bad_values": ("audit_vanishing_subsums", lambda r: r._replace(
        bad_values=tuple(k for k, _, _ in r.table[:3]), consistent=False)),
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


def replay(argv: list[str], patch: str | None, directory: Path) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of the CLI on argv, with set files in directory.

    COLUMNS is 80, so argparse wraps its usage and help the same way on every terminal."""
    paths = write_sets(directory)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        if patch:
            attr, falsify = PATCHES[patch]
            original = getattr(cli, attr)
            stack.enter_context(
                mock.patch.object(cli, attr, lambda *a, **k: falsify(original(*a, **k)))
            )
        stack.enter_context(mock.patch.dict(os.environ, COLUMNS="80"))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        try:
            code = cli.main([arg.format(**paths) for arg in argv])
        except SystemExit as exc:  # argparse's usage errors and help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def pytest_generate_tests(metafunc):
    """One test per case, named by its id; the module imports no pytest."""
    metafunc.parametrize("case", CASES, ids=[case["id"] for case in CASES])


def prints_json(case: dict) -> bool:
    """Whether the case prints a JSON line: it asks for --format json and exits 0 or 4."""
    argv = case["argv"]
    return case["code"] in (0, 4) and ("--format", "json") in zip(argv, argv[1:])


def canonical(out: str) -> str:
    """The JSON line out as json.dumps(..., sort_keys=True) prints what it holds."""
    return json.dumps(json.loads(out), sort_keys=True) + "\n"


def test_cli_bytes(case, tmp_path):
    code, out, err = replay(case["argv"], case["patch"], tmp_path)
    assert (code, out, err) == (case["code"], case["stdout"], case["stderr"])
    if prints_json(case):
        assert out == canonical(out)


def check() -> list[str]:
    """Replay every case; return the ids whose output differs from the recorded one or,
    for a case that prints JSON, from its canonical text."""
    differ = []
    with tempfile.TemporaryDirectory() as directory:
        for case in CASES:
            got = replay(case["argv"], case["patch"], Path(directory))
            if got != (case["code"], case["stdout"], case["stderr"]) or (
                    prints_json(case) and got[1] != canonical(got[1])):
                differ.append(case["id"])
    return differ


def record(case_id: str, argv: list[str], patch: str | None = None) -> None:
    """Run the CLI on argv, under the named patch if any, and append the case to
    cli_golden.json."""
    if any(case["id"] == case_id for case in CASES):
        raise SystemExit(f"case {case_id!r} exists; golden cases are never rewritten")
    with tempfile.TemporaryDirectory() as directory:
        code, out, err = replay(argv, patch, Path(directory))
    dump = json.dumps
    entry = (
        f' {{"id": {dump(case_id)}, "patch": {dump(patch)}, "code": {code},\n'
        f'  "argv": {dump(argv)},\n'
        f'  "stdout": {dump(out)},\n'
        f'  "stderr": {dump(err)}}}'
    )
    text = GOLDEN.read_text(encoding="utf-8")
    GOLDEN.write_text(text.rstrip()[:-1].rstrip() + ",\n" + entry + "\n]\n", encoding="utf-8")


if __name__ == "__main__":
    args = sys.argv[1:]
    if args == ["--check"]:
        differ = check()
        print(f"{len(CASES) - len(differ)} of {len(CASES)} cases match")
        if differ:
            raise SystemExit("differ: " + " ".join(differ))
    else:
        patch = None
        if args[2:3] == ["--patch"]:
            patch = args[3] if len(args) > 3 else ""
            del args[2:4]
        if len(args) < 3 or args[0] != "--record" or args[2] != "--" or patch not in (None, *PATCHES):
            raise SystemExit(
                "usage: test_cli_golden.py --check | --record ID [--patch NAME] -- ARGV..."
            )
        record(args[1], args[3:], patch)
