"""Experiments on image growth |f(A,A)| over exact rational sets.

The centerpiece splits the solutions of f(x, y) = v into clean ones (no
proper subsum of f's terms vanishes at (x, y)) and dirty ones (some subsum
does), and audits two guaranteed bounds against brute force:

  * for every polynomial with at least two terms that is not of the form
    g(x^a y^b), at most degree + 1 values may collect more than
    degree^2 * 2^|support| dirty solutions;
  * on a distinct-products box G, monomial values at two non-parallel
    support exponents pin down (x, y) in G x G uniquely.

Around that sit the energy inequality check and growth sweeps that fit
log |f(A,A)| against log |A| over parameterized set families.
"""

import math
from collections import Counter
from collections.abc import Sequence
from fractions import Fraction
from itertools import compress, islice, repeat
from math import comb
from operator import lt, mul, sub
from pathlib import Path
from typing import NamedTuple

from .polynomials import (
    BivariatePoly,
    classify_monomial_composition,
    format_monomial,
    non_parallel_witnesses,
    zero_proper_subset_flags,
)
from .rational import format_rational, parse_rational
from .sets import (
    DEFAULT_MAX_PAIRS,
    PRODUCT,
    RationalSet,
    _keys,
    _pair_rows,
    check_budget,
    check_elements,
    ladder_sizes,
    productset_size,
    read_set_file,
    value_multiplicities,
)
from .structure import (
    GGP,
    bound_log10,
    distinctness_check,
    ggp_power,
    parse_ggp_spec,
)

# The subsum check of one pair costs 2^(m/2) for m support terms; refuse beyond this.
MAX_SUBSUM_SUPPORT = 20
# The subsum audit cuts whole rows of at most this many pairs (one row if a row is longer).
AUDIT_BLOCK_PAIRS = 1024


class ExceptionalPolynomialError(ValueError):
    """The polynomial has the g(x^a y^b) shape this operation refuses."""


class DistinctnessError(ValueError):
    """The box has colliding products, so exponent bookkeeping is ambiguous."""


class AuditReport(NamedTuple):
    """Per-value solution splits with the audited dirty-count bound.

    A table row (k, clean, dirty) splits the solutions in A x A of
    f(x, y) = k/scale, for scale > 0; keys ascend, and pairs = |A|^2.
    bad_values lists the keys whose dirty count exceeds dirty_bound
    (= degree^2 * 2^support_size); consistent requires at most degree + 1
    of them. high_multiplicity lists keys with more than threshold total
    solutions. theoretical_threshold_log10 is the log10 of the worst-case
    threshold amoroso_viada_bound(binom(degree+2, 2), floor(doubling)),
    far too large to be informative directly but reported for context.
    zero_value_full_sum_solutions counts clean solutions of f(x, y) = 0,
    where the full (improper) term sum vanishes: the one place where the
    proper-subsum convention and the any-subsum convention disagree.
    """

    degree: int
    support_size: int
    scale: int
    table: tuple[tuple[int, int, int], ...]
    pairs: int
    dirty_bound: int
    bad_values: tuple[int, ...]
    max_bad_values: int
    consistent: bool
    threshold: int
    high_multiplicity: tuple[int, ...]
    theoretical_threshold_log10: float
    zero_value_full_sum_solutions: int


class EnergyCheck(NamedTuple):
    """Exact energy versus its guaranteed lower bound |A|^4 / |f(A,A)|."""

    energy: int
    image_size: int
    lower_bound: Fraction
    holds: bool


class SweepRow(NamedTuple):
    N: int
    set_size: int
    productset_size: int
    doubling: Fraction
    image_size: int
    ratio: Fraction


class ExpansionReport(NamedTuple):
    """Per-size image statistics and the fitted log-log growth exponent."""

    family: str
    rows: tuple[SweepRow, ...]
    growth_exponent: float | None


def _require_nonzero(f: BivariatePoly) -> None:
    if f.is_zero:
        raise ValueError("the zero polynomial is not accepted here")


def _refuse_exceptional(f: BivariatePoly, closing: str) -> None:
    """Raise ExceptionalPolynomialError if f = g(x^a y^b); closing ends the message."""
    decomposition = classify_monomial_composition(f)
    if decomposition is not None:
        raise ExceptionalPolynomialError(
            f"f = {f} equals g({format_monomial(decomposition.monomial)}) with "
            f"g(t) = {decomposition.g}{closing}"
        )


def _require_non_exceptional(f: BivariatePoly) -> tuple[tuple[int, int], tuple[int, int]]:
    """Refuse g(x^a y^b) shapes; return the first non-parallel witness pair."""
    _require_nonzero(f)
    witnesses = non_parallel_witnesses(f)
    if witnesses is None:
        _refuse_exceptional(f, "; its image can grow linearly, so this operation refuses it")
    return witnesses


def audit_vanishing_subsums(
    f: BivariatePoly,
    a: RationalSet,
    threshold: int | None = None,
    max_pairs: int = DEFAULT_MAX_PAIRS,
    *,
    full_table: bool = True,
) -> AuditReport:
    """Tabulate clean/dirty splits for every image value and audit the bound.

    The audited claim: at most degree + 1 values may have a dirty count
    above degree^2 * 2^|support|. A report with consistent=False would
    falsify a guaranteed bound, i.e. expose a defect in this code.
    With full_table=False the table holds only the values with more pairs than the
    dirty bound, and 0: no other value can be bad, and every other field is the same.
    """
    _require_non_exceptional(f)
    check_budget(len(f.support), MAX_SUBSUM_SUPPORT, "subsum audit", "terms", None)
    # Term values and their sums are ints scaled by the same scale > 0, so
    # vanishing subsums, equal values and the value order are all exact.
    scale, streams = _pair_rows(f, a, a, max_pairs, "subsum audit", merge=not full_table)
    support_size = len(f.support)
    # Each pair's meet in the middle builds up to 2^ceil(m/2) subset sums.
    sums = len(a) ** 2 * 2 ** ((support_size + 1) // 2)
    check_budget(sums, max_pairs, "subsum audit", "subset sums")
    degree = f.degree
    dirty_bound = degree * degree * 2**support_size
    # Pairs per key, all and dirty, a block of rows cut from the streams; key 0 is the value 0.
    # Without the full table a merged walk counts first; only the keys in checked are checked.
    totals, dirty = Counter() if full_table else Counter(_keys(streams)), Counter()
    checked = {k for k, n in totals.items() if n > dirty_bound or not k}
    if checked:  # the check needs one column per term, which a merged walk does not keep
        streams = _pair_rows(f, a, a, max_pairs, "subsum audit")[1]
    rows = max(1, AUDIT_BLOCK_PAIRS // len(a))
    for _ in range(0, len(a), rows) if full_table or checked else ():
        columns = [list(islice(s, rows * len(a))) for s in streams]
        keys = list(_keys(columns))
        if full_table:
            totals.update(keys)
        else:
            keep = list(map(checked.__contains__, keys))
            keys, columns = list(compress(keys, keep)), [list(compress(c, keep)) for c in columns]
        dirty.update(compress(keys, zero_proper_subset_flags(columns)))
    tau = dirty_bound if threshold is None else threshold
    values = sorted(totals)
    counts, dirties = list(map(totals.get, values)), list(map(dirty.get, values, repeat(0)))
    table = zip(values, map(sub, counts, dirties), dirties)
    table = tuple(table if full_table else compress(table, map(checked.__contains__, values)))
    bad = tuple(compress(values, map(lt, repeat(dirty_bound), dirties)))
    k_floor = productset_size(a, max_pairs) // len(a)  # >= 1: |AA| >= |A| for nonempty A
    return AuditReport(
        degree=degree,
        support_size=support_size,
        scale=scale,
        table=table,
        pairs=len(a) ** 2,
        dirty_bound=dirty_bound,
        bad_values=bad,
        max_bad_values=degree + 1,
        consistent=len(bad) <= degree + 1,
        threshold=tau,
        high_multiplicity=tuple(compress(values, map(lt, repeat(tau), counts))),
        theoretical_threshold_log10=bound_log10(comb(degree + 2, 2), k_floor),
        zero_value_full_sum_solutions=totals.get(0, 0) - dirty.get(0, 0),
    )


def audit_injectivity(
    f: BivariatePoly,
    g: GGP,
    t: int,
    max_pairs: int = DEFAULT_MAX_PAIRS,
) -> bool:
    """Check that two monomial values pin down (x, y) uniquely on G x G.

    Preconditions, each reported distinctly: f must not have the g(x^a y^b)
    shape (so two non-parallel support exponents exist), and the t-dilated
    box must have pairwise distinct products. Both box enumerations are
    held to the element cap of max_pairs, as sweep samples are. The map
    (x, y) -> (x^i y^j, x^i' y^j') is then injective when it takes |G|^2
    distinct value pairs on G x G. No exponent solver is consulted: with a
    nonzero determinant, Cramer's rule recovers every exponent pair exactly.
    """
    (i, j), (i2, j2) = _require_non_exceptional(f)
    if not distinctness_check(g, t, max_pairs):
        raise DistinctnessError(
            f"products of {g.describe()} dilated by {t} collide; "
            "exponent vectors do not determine values"
        )
    # The undilated box lies inside the dilated one, so its products are distinct too.
    box = ggp_power(g, 1, max_pairs)
    # The term columns of x^i y^j + x^i' y^j' are the two monomial values,
    # each times a positive constant: equal int pairs mean equal value pairs.
    monomials = BivariatePoly({(i, j): 1, (i2, j2): 1})
    _, columns = _pair_rows(monomials, box, box, max_pairs, "injectivity audit")
    return len(set(zip(*columns))) == len(box) ** 2


def cauchy_schwarz_check(
    f: BivariatePoly, a: RationalSet, max_pairs: int = DEFAULT_MAX_PAIRS
) -> EnergyCheck:
    """Verify energy >= |A|^4 / |f(A,A)| exactly (true for every input)."""
    _require_nonzero(f)
    counts = value_multiplicities(f, a, max_pairs)
    e = sum(map(mul, counts, counts))
    lower = Fraction(len(a) ** 4, len(counts))
    return EnergyCheck(energy=e, image_size=len(counts), lower_bound=lower, holds=e >= lower)


class GeometricFamily(NamedTuple("GeometricFamily", [("ratio", Fraction)])):
    """Samples {q, q^2, ..., q^N} for a fixed rational ratio q."""

    __slots__ = ()

    def __new__(cls, ratio: Fraction | int) -> "GeometricFamily":
        if Fraction(ratio) in (0, 1, -1):
            raise ValueError("geometric ratio must not be 0, 1, or -1")
        return super().__new__(cls, Fraction(ratio))

    def describe(self) -> str:
        return f"geometric({format_rational(self.ratio)})"

    def sample(self, n: int, max_pairs: int = DEFAULT_MAX_PAIRS) -> RationalSet:
        check_elements(n, max_pairs, "geometric family")
        p, q = self.ratio.as_integer_ratio()
        return RationalSet.from_keys(q**n, [p**k * q ** (n - k) for k in range(1, n + 1)])


class GGPFamily(NamedTuple):
    """Samples the box with every dimension scaled by N."""

    base: GGP

    def describe(self) -> str:
        return f"ggp({self.base.describe()})"

    def sample(self, n: int, max_pairs: int = DEFAULT_MAX_PAIRS) -> RationalSet:
        return ggp_power(self.base, n, max_pairs)


class FileFamily(NamedTuple("FileFamily", [("paths", tuple[str, ...])])):
    """Fixed list of set files; sample N reads the N-th file (1-based)."""

    __slots__ = ()

    def __new__(cls, paths: tuple[str, ...]) -> "FileFamily":
        if not paths:
            raise ValueError("a file family needs at least one path")
        return super().__new__(cls, paths)

    def describe(self) -> str:
        return f"files({', '.join(Path(p).name for p in self.paths)})"

    def sample(self, n: int, max_pairs: int = DEFAULT_MAX_PAIRS) -> RationalSet:
        if not 1 <= n <= len(self.paths):
            raise ValueError(f"sample index {n} outside 1..{len(self.paths)}")
        a = read_set_file(self.paths[n - 1])
        check_elements(len(a), max_pairs, "file family")
        return a


Family = GeometricFamily | GGPFamily | FileFamily


def parse_family(text: str) -> Family:
    """Parse "geometric:2", "ggp:2^[2]*3^[2]", or "files:a.txt,b.txt"."""
    kind, sep, rest = text.partition(":")
    if not sep:
        raise ValueError(f"family spec needs kind:detail, got {text!r}")
    if kind == "geometric":
        return GeometricFamily(parse_rational(rest))
    if kind == "ggp":
        return GGPFamily(parse_ggp_spec(rest))
    if kind == "files":
        paths = tuple(p.strip() for p in rest.split(",") if p.strip())
        return FileFamily(paths)
    raise ValueError(f"unknown family kind {kind!r}")


def _log_log_slope(points: Sequence[tuple[int, int]]) -> float | None:
    """Least-squares slope of log(size2) against log(size1)."""
    if len({p[0] for p in points}) < 2:
        return None
    xs = [math.log(p[0]) for p in points]
    ys = [math.log(p[1]) for p in points]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    numerator = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    denominator = sum((x - mean_x) ** 2 for x in xs)
    return numerator / denominator


def expansion_sweep(
    f: BivariatePoly,
    family: Family,
    sizes: Sequence[int],
    allow_exceptional: bool = False,
    max_pairs: int = DEFAULT_MAX_PAIRS,
) -> ExpansionReport:
    """Exact per-size image statistics plus the fitted growth exponent.

    Every size is sampled first, in the given order, so size and budget errors
    come as before; rows keep that order. A ladder whose samples nest, as
    geometric and GGP samples do, is walked once for f and once for the
    product set (``sets.ladder_sizes``).
    Polynomials of the g(x^a y^b) shape are refused by default because they
    are exactly the shapes whose images stay small; pass allow_exceptional
    (CLI --allow-exceptional) to measure them anyway.
    """
    _require_nonzero(f)
    if not sizes:
        raise ValueError("at least one sample size is required")
    if not allow_exceptional:
        _refuse_exceptional(
            f,
            ", so its image growth is degenerate; "
            "pass allow_exceptional=True (--allow-exceptional) to sweep it anyway",
        )
    samples: dict[int, RationalSet] = {}
    for n in sizes:
        if n < 1:
            raise ValueError(f"sample sizes must be positive, got {n}")
        samples[n] = family.sample(n, max_pairs)
    ladder = sorted(samples)
    images, products = (
        dict(zip(ladder, ladder_sizes(g, [samples[n] for n in ladder], max_pairs)))
        for g in (f, PRODUCT)
    )
    rows = [
        SweepRow(
            N=n,
            set_size=len(samples[n]),
            productset_size=products[n],
            doubling=Fraction(products[n], len(samples[n])),
            image_size=images[n],
            ratio=Fraction(images[n], len(samples[n]) ** 2),
        )
        for n in sizes
    ]
    exponent = _log_log_slope([(row.set_size, row.image_size) for row in rows])
    return ExpansionReport(
        family=family.describe(),
        rows=tuple(rows),
        growth_exponent=exponent,
    )
