"""Command-line frontend.

Exit codes: 0 success, 2 usage or input errors (with parse positions where
available), 3 enumeration budget exceeded or out of memory, 4 audit
inconsistency (a result that would falsify a guaranteed bound).

Output is deterministic: identical inputs produce byte-identical output in
every format.
"""

import argparse
import functools
import json
import sys
from collections import UserString

from .lab import (
    audit_injectivity,
    audit_vanishing_subsums,
    cauchy_schwarz_check,
    expansion_sweep,
    parse_family,
)
from .polynomials import BivariatePoly, format_monomial, parse_poly
from .polynomials import classify_monomial_composition, non_parallel_witnesses
from .rational import format_int, format_key, format_keys, format_rational
from .sets import (  # noqa: F401 - bench/test_bench.py reads cli.image_set
    DEFAULT_MAX_PAIRS,
    CapExceeded,
    image_keys,
    image_set,
    productset_size,
    read_set_file,
)
from .structure import amoroso_viada_bound, multiplicative_rank, parse_ggp_spec
from .structure import require_nonzero_elements

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_INCONSISTENT = 4


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="polyexpand",
        description="Exact experiments on image growth of bivariate polynomials "
        "over rational sets",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text", "csv"), default="text")
    common.add_argument("--max-pairs", type=int, default=DEFAULT_MAX_PAIRS)
    poly = argparse.ArgumentParser(add_help=False, parents=[common])
    poly.add_argument("--poly", required=True)

    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("classify", parents=[poly], help="decide the g(x^a y^b) shape")

    p = sub.add_parser("image", parents=[poly], help="distinct values f(a, b)")
    p.add_argument("--set", required=True, dest="set_path")
    p.add_argument("--set2", dest="set2_path", default=None)

    p = sub.add_parser("energy", parents=[poly], help="pair-coincidence energy")
    p.add_argument("--set", required=True, dest="set_path")

    p = sub.add_parser("structure", parents=[common], help="doubling and lattice rank")
    p.add_argument("--set", required=True, dest="set_path")

    p = sub.add_parser("audit", parents=[poly], help="bound audits by brute force")
    p.add_argument("--set", dest="set_path", default=None)
    p.add_argument("--threshold", type=int, default=None)
    p.add_argument("--ggp", default=None)
    p.add_argument("--t", type=int, default=None)

    p = sub.add_parser("sweep", parents=[poly], help="image growth over a family")
    p.add_argument("--family", required=True)
    p.add_argument("--N", required=True, help="comma-separated sample sizes")
    p.add_argument("--allow-exceptional", action="store_true")

    p = sub.add_parser("bound", parents=[common], help="unit-equation bound value")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)

    return parser, sub.choices


class JSONText(UserString):
    """JSON text that json_text writes as it stands where a dict of the payload holds it."""


_encode = json.JSONEncoder(sort_keys=True).encode  # one encoder: dumps builds one per call


def json_text(value: object) -> str:
    """json.dumps(value, sort_keys=True)'s text, with each JSONText in a dict as it stands."""
    if isinstance(value, dict):  # one join, so a long JSONText is copied once
        items = sorted(value.items())
        pieces = [p for k, v in items for p in (", ", _encode(k), ": ", json_text(v))]
        return "".join(["{", *pieces[1:], "}"])
    return value.data if isinstance(value, JSONText) else _encode(value)


def json_array(texts: list[str]) -> JSONText:
    """The JSON array json.dumps writes for rational texts: they hold only digits, - and /."""
    return JSONText('["' + '", "'.join(texts) + '"]' if texts else "[]")


# Each cmd_* takes the arguments and the parsed --poly (None without one) and returns
# (exit code, JSON payload, text lines), formatting each value once. main prints the
# payload, with the command and f added, for --format json and the lines otherwise;
# image and sweep build only the one that their format prints.
Result = tuple[int, dict, list[str]]


def cmd_classify(args: argparse.Namespace, f: BivariatePoly) -> Result:
    decomposition = classify_monomial_composition(f)
    if decomposition is not None:
        g, monomial = str(decomposition.g), format_monomial(decomposition.monomial)
        payload = {
            "classification": "exceptional",
            "g": g,
            "monomial": monomial,
            "monomial_exponents": list(decomposition.monomial),
            "trivial": decomposition.trivial,
        }
        lines = [
            "EXCEPTIONAL",
            f"  g(t) = {g}",
            f"  M(x,y) = {monomial}",
            f"  trivial = {str(decomposition.trivial).lower()}",
        ]
    else:
        witnesses = non_parallel_witnesses(f)
        payload = {
            "classification": "non-exceptional",
            "witnesses": [list(witnesses[0]), list(witnesses[1])],
        }
        lines = [
            "NON-EXCEPTIONAL",
            f"  witnesses: {format_monomial(witnesses[0])} and "
            f"{format_monomial(witnesses[1])} have non-parallel exponents "
            f"{witnesses[0]} and {witnesses[1]}",
        ]
    return EXIT_OK, payload, lines


def cmd_image(args: argparse.Namespace, f: BivariatePoly) -> Result:
    a = read_set_file(args.set_path)
    b = read_set_file(args.set2_path) if args.set2_path else a
    scale, keys = image_keys(f, a, b, args.max_pairs)
    values = format_keys(keys, scale)
    if args.format == "json":
        return EXIT_OK, {"size": len(values), "values": json_array(values)}, []
    return EXIT_OK, {}, [f"size = {len(values)}", f"values = {{{', '.join(values)}}}"]


def cmd_energy(args: argparse.Namespace, f: BivariatePoly) -> Result:
    a = read_set_file(args.set_path)
    check = cauchy_schwarz_check(f, a, max_pairs=args.max_pairs)
    lower_bound = format_rational(check.lower_bound)
    payload = {**check._asdict(), "set_size": len(a), "lower_bound": lower_bound}
    lines = [
        f"E = {check.energy}",
        f"image = {check.image_size}",
        f"lower bound |A|^4/|f(A,A)| = {lower_bound}",
        f"holds = {str(check.holds).lower()}",
    ]
    return (EXIT_OK if check.holds else EXIT_INCONSISTENT), payload, lines


def cmd_structure(args: argparse.Namespace, f: None) -> Result:
    a = read_set_file(args.set_path)
    require_nonzero_elements(a)  # before the product walk, which a larger cap cannot save
    products = productset_size(a, args.max_pairs)
    rank = multiplicative_rank(a, args.max_pairs)
    doubling = format_key(products, len(a))
    payload = {
        "set_size": len(a),
        "productset_size": products,
        "doubling": doubling,
        "doubling_float": products / len(a),  # correctly rounded, as float(Fraction) is
        "rank": rank,
    }
    lines = [
        f"size = {len(a)}",
        f"productset = {products}",
        f"doubling = {doubling}",
        f"rank = {rank}",
    ]
    return EXIT_OK, payload, lines


def cmd_audit(args: argparse.Namespace, f: BivariatePoly) -> Result:
    if args.set_path is None and args.ggp is None:
        raise ValueError("audit needs --set (subsum audit) or --ggp (injectivity audit)")
    if args.ggp is not None and args.t is None:
        raise ValueError("--ggp needs --t for the dilation factor")
    if args.t is not None and args.ggp is None:
        raise ValueError("--t needs --ggp; it dilates the injectivity audit's box")
    if args.threshold is not None and args.set_path is None:
        raise ValueError("--threshold needs --set; it applies to the subsum audit")
    payload: dict = {}
    lines: list[str] = []
    exit_code = EXIT_OK

    if args.set_path is not None:
        a = read_set_file(args.set_path)
        # Text prints no bad values, and the table only when the report is inconsistent.
        json_out = args.format == "json"
        report = audit_vanishing_subsums(
            f, a, args.threshold, max_pairs=args.max_pairs, full_table=json_out)
        if not report.consistent and not json_out:
            report = audit_vanishing_subsums(f, a, args.threshold, max_pairs=args.max_pairs)
        high = format_keys(report.high_multiplicity, report.scale)
        bad = format_keys(report.bad_values, report.scale) if json_out else []
        table = format_keys([k for k, _, _ in report.table], report.scale) \
            if json_out or not report.consistent else []
        payload["subsum_audit"] = summary = {
            **report._asdict(), "bad_values": json_array(bad),
            "high_multiplicity": json_array(high), "table": JSONText("[" + ", ".join([
                f'{{"clean": {c}, "dirty": {d}, "value": "{value}"}}'
                for value, (_, c, d) in zip(table, report.table)
            ]) + "]"),
        }
        del summary["scale"]  # the values above are printed from their keys
        lines += [
            f"subsum audit: degree = {report.degree}, support = {report.support_size}, "
            f"pairs = {report.pairs}",
            f"  dirty bound = {report.dirty_bound}, values above it = "
            f"{len(report.bad_values)} (allowed {report.max_bad_values})",
            f"  high multiplicity (> {report.threshold}): {high}",
            f"  theoretical threshold log10 = "
            f"{report.theoretical_threshold_log10:.6g}",
            f"  consistent = {str(report.consistent).lower()}",
        ]
        if not report.consistent:
            exit_code = EXIT_INCONSISTENT
            lines.append("  full table (value clean dirty):")
            lines += [f"    {value} {c} {d}" for value, (_, c, d) in zip(table, report.table)]

    if args.ggp is not None:
        box = parse_ggp_spec(args.ggp)
        injective = audit_injectivity(f, box, args.t, max_pairs=args.max_pairs)
        payload["injectivity_audit"] = {"ggp": box.describe(), "t": args.t, "injective": injective}
        lines.append(
            f"injectivity audit on {box.describe()} (t = {args.t}): "
            f"{'injective' if injective else 'NOT injective'}"
        )
        if not injective:
            exit_code = EXIT_INCONSISTENT

    return exit_code, payload, lines


# The CSV prints K and ratio as the floats of the JSON rows' K_float and ratio_float.
SWEEP_CSV_HEADER = "N,setsize,productset,K,image,ratio"


def cmd_sweep(args: argparse.Namespace, f: BivariatePoly) -> Result:
    family = parse_family(args.family)
    try:
        sizes = [int(chunk) for chunk in args.N.split(",") if chunk.strip()]
    except ValueError as exc:
        raise ValueError(f"--N must be a comma-separated integer list: {exc}") from exc
    report = expansion_sweep(
        f, family, sizes, allow_exceptional=args.allow_exceptional, max_pairs=args.max_pairs
    )
    if args.format == "json":
        payload = {
            "family": report.family,
            "growth_exponent": report.growth_exponent,
            "rows": [
                {
                    "N": row.N,
                    "setsize": row.set_size,
                    "productset": row.productset_size,
                    "K": format_rational(row.doubling),
                    "K_float": float(row.doubling),
                    "image": row.image_size,
                    "ratio": format_rational(row.ratio),
                    "ratio_float": float(row.ratio),
                }
                for row in report.rows
            ],
        }
        return EXIT_OK, payload, []
    if args.format == "csv":
        lines = [SWEEP_CSV_HEADER] + [
            f"{row.N},{row.set_size},{row.productset_size},{float(row.doubling)},"
            f"{row.image_size},{float(row.ratio)}"
            for row in report.rows
        ]
        return EXIT_OK, {}, lines
    lines = [f"family = {report.family}", f"f = {f}"]
    lines.append(f"{'N':>6} {'|A|':>8} {'|AA|':>8} {'K':>10} {'|f(A,A)|':>10} {'ratio':>10}")
    for row in report.rows:
        lines.append(
            f"{row.N:>6} {row.set_size:>8} {row.productset_size:>8} "
            f"{float(row.doubling):>10.4f} {row.image_size:>10} {float(row.ratio):>10.4f}"
        )
    if report.growth_exponent is not None:
        lines.append(f"fitted growth exponent = {report.growth_exponent:.4f}")
    return EXIT_OK, {}, lines


def cmd_bound(args: argparse.Namespace, f: None) -> Result:
    bound = amoroso_viada_bound(args.n, args.r)
    value = format_int(bound.value)
    payload = {**bound._asdict(), "value": value}
    lines = [f"n = {bound.n}", f"r = {bound.r}", f"value = {value}", f"log10 = {bound.log10:.6g}"]
    return EXIT_OK, payload, lines


def main(argv: list[str] | None = None) -> int:
    """Run the command argv names (default: sys.argv[1:]); return its exit code.

    argv goes to that command's own parser, and to the full parser, for its usage, help
    and error text, only if it names no command or that parser leaves some of it unread."""
    # argparse takes a value such as "-x*y", "-2^[3]" or "-1,2" for an option,
    # so glue it to the option before it, if that option takes a value.
    glued: list[str] = []
    for arg in sys.argv[1:] if argv is None else argv:
        last = glued[-1] if glued else ""
        if (arg.startswith("-") and not arg.startswith("--") and last.startswith("--")
                and "=" not in last and last not in ("--", "--allow-exceptional", "--help")):
            glued[-1] = f"{last}={arg}"
        else:
            glued.append(arg)
    parser, commands = build_parser()
    command = commands.get(glued[0]) if glued else None
    if command is not None:
        args, unread = command.parse_known_args(glued[1:], argparse.Namespace(command=glued[0]))
    if command is None or unread:
        args = parser.parse_args(glued)
    try:
        if args.max_pairs < 1:
            raise ValueError("--max-pairs must be positive")
        if args.format == "csv" and args.command != "sweep":
            raise ValueError("csv output is only available for sweep")
        f = parse_poly(args.poly) if "poly" in args else None
        # Looked up at each call, so a rebound cmd_* is the one that runs.
        code, payload, lines = globals()[f"cmd_{args.command}"](args, f)
        if args.format == "json":
            payload["command"] = args.command
            if f is not None:
                payload["polynomial"] = str(f)
            lines = [json_text(payload)]
        print("\n".join(lines))
        return code
    except (CapExceeded, MemoryError) as exc:  # running out of memory is a budget no cap held
        print("error:", "out of memory" if isinstance(exc, MemoryError) else exc, file=sys.stderr)
        return EXIT_CAP
    except (OSError, ValueError) as exc:  # parse, precondition and file errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
