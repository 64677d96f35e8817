"""Multiplicative structure of rational sets.

Nonzero rationals factor into sign times an exponent vector over a
pairwise-coprime base, so a set of them spans an integer lattice whose rank
measures how few independent generators suffice multiplicatively. This
module computes that rank by fraction-free (Bareiss) elimination, enumerates
geometric-progression boxes g1^[H1] * ... * gr^[Hr] and their dilates as int
keys over one scale (building no Fraction, and holding each box to the
element cap of the pair budget), and evaluates the explicit unit-equation
bound of Amoroso and Viada. Its solver of the 2x2 exponent systems that
make monomial values determine their arguments stays, because
bench/tracing.py binds it by name; no audit and no test oracle calls it.
"""

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction
from typing import NamedTuple

from .rational import format_rational, parse_rational
from .sets import DEFAULT_MAX_PAIRS, RationalSet, check_budget, check_elements

# Printing a bound value takes time quadratic in its digit count, so larger
# values are refused before they are built; n = 5, r = 4 has about 104k digits.
MAX_BOUND_DIGITS = 200_000


def _integer_rank(matrix: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination.

    A row with c != 0 in the pivot column becomes (p * row - c * p_row) // last, with p the
    pivot and last the pivot the row was last divided by (1 at first); other rows wait. The
    skipped p / prev factors telescope, so the pivot row is brought current as row * prev //
    last, every division is exact, and each entry stays a minor (Hadamard's bound holds it).
    """
    rows = [list(row) for row in matrix]
    rank, prev, last = 0, 1, [1] * len(rows)
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        last[rank], last[pivot] = last[pivot], last[rank]
        p_row = [x * prev // last[rank] for x in rows[rank]]
        p = p_row[col]
        for i in range(rank + 1, len(rows)):
            if c := rows[i][col]:
                q, last[i] = last[i], p
                rows[i] = [(p * x - c * y) // q for x, y in zip(rows[i], p_row)]
        prev = p
        rank += 1
    return rank


def _strip(m: int, b: int) -> tuple[int, int]:
    """(e, m // b^e) for the largest e with b^e dividing m; needs b > 1.

    Divides by b, b^2, b^4, ... while they go, then steps back down, so e
    costs O(log e) divisions rather than e.
    """
    powers = []
    while m % b == 0:
        m //= b
        powers.append(b)
        b *= b
    e = (1 << len(powers)) - 1
    for k in reversed(range(len(powers))):
        if m % powers[k] == 0:
            m //= powers[k]
            e += 1 << k
    return e, m


def _coprime_base(integers: Iterable[int], size: int, max_pairs: int) -> list[int]:
    """Pairwise-coprime integers above 1 over which every given integer factors.

    Each integer m is reduced against the base in turn: every base element b
    is divided out of m as often as it goes. If gcd(m, b) > 1 is still left,
    b leaves the base, and its two parts gcd and b // gcd go back on the work
    list together with m. Whatever is left of m above 1 is coprime to the
    whole base and joins it.

    Eliminating size rows over n base integers costs size * n * min(size, n) entry
    updates, charged to max_pairs each time the base grows. The pairwise-coprime
    elements of an earlier base factor over distinct final ones, so the final charge
    is the largest and refuses whatever an earlier one refuses.
    """
    base: list[int] = []
    work = [m for m in integers if m > 1]
    while work:
        m = work.pop()
        for k, b in enumerate(base):
            if m % b == 0:
                m = _strip(m, b)[1]
            g = math.gcd(m, b)
            if g > 1:
                del base[k]
                work += (g, b // g, m)
                break
        else:
            if m > 1:
                base.append(m)
                n = len(base)
                check_budget(size * n * min(size, n), max_pairs, "multiplicative rank",
                             "entry updates")
    return base


def require_nonzero_elements(a: RationalSet) -> None:
    """Refuse a set holding 0, which lies in no multiplicative group."""
    if 0 in a.keys:
        raise ValueError("0 is not in any multiplicative group; drop it first")


def multiplicative_rank(a: RationalSet, max_pairs: int = DEFAULT_MAX_PAIRS) -> int:
    """Rank of the exponent lattice spanned by a's elements (signs ignored).

    {q, q^2, ...} has rank 1, multiplicatively independent elements add
    rank, and {1} (or {-1, 1}) has rank 0. The set must not contain 0.
    Each element is n/d in lowest terms, and n and d factor over a pairwise-coprime
    base of m integers, so a base element b divides at most one of them: its exponent
    is stripped from that one only, and is 0 where b divides neither. Elimination costs
    about len(a) * m * min(len(a), m) entry updates, charged to max_pairs as the base grows.
    """
    require_nonzero_elements(a)
    # |k|/scale in lowest terms is n/d. Reducing first keeps the bits of
    # scale/d out of the ints the base is refined from.
    reduced = [(abs(k) // g, a.scale // g) for k in a.keys for g in [math.gcd(k, a.scale)]]
    base = _coprime_base(dict.fromkeys(m for pair in reduced for m in pair), len(a), max_pairs)
    # Pairwise-coprime integers above 1 are multiplicatively independent, so
    # the rank over this base is the rank over the primes.
    rows = [[_strip(n, b)[0] if n % b == 0 else -_strip(d, b)[0] if d % b == 0 else 0
             for b in base] for n, d in reduced]
    # The rank of the transpose is the same; eliminating over the shorter side is cheaper.
    return _integer_rank(rows if len(base) >= len(rows) else list(zip(*rows)))


class GGP(NamedTuple("GGP", [("generators", tuple[Fraction, ...]), ("dims", tuple[int, ...])])):
    """Geometric-progression box g1^[H1] * ... * gr^[Hr].

    Holds the exponent boxes {0, ..., Hi - 1} per generator; dilating by t
    scales each box to {0, ..., t*Hi - 1}. Generators must be positive
    rationals other than 1. r = 0 gives the singleton {1}.
    """

    __slots__ = ()

    def __new__(cls, generators: Iterable[Fraction | int], dims: Iterable[int]) -> "GGP":
        self = super().__new__(cls, tuple(map(Fraction, generators)), tuple(map(int, dims)))
        if len(self.generators) != len(self.dims):
            raise ValueError("one box dimension is needed per generator")
        for g in self.generators:
            if g <= 0 or g == 1:
                raise ValueError(f"generators must be positive and not 1, got {g}")
        for h in self.dims:
            if h < 1:
                raise ValueError(f"box dimensions must be positive, got {h}")
        return self

    def box_size(self, t: int = 1) -> int:
        return math.prod(t * h for h in self.dims)

    def describe(self) -> str:
        if not self.generators:
            return "1"
        return " * ".join(
            f"{format_rational(g)}^[{h}]" for g, h in zip(self.generators, self.dims)
        )


def parse_ggp_spec(text: str) -> GGP:
    """Parse a box spec: '*'-separated g^[H] chunks, e.g. "2^[4] * 3/2^[4]"."""
    generators = []
    dims = []
    for chunk in text.split("*"):
        part = chunk.strip()
        if not part:
            raise ValueError(f"empty generator chunk in {text!r}")
        head, caret, tail = part.partition("^")
        if caret != "^" or not (tail.startswith("[") and tail.endswith("]")):
            raise ValueError(f"expected generator^[dimension], got {part!r}")
        generators.append(parse_rational(head))
        dim_text = tail[1:-1].strip()
        if not dim_text.isdecimal():
            raise ValueError(f"box dimension must be an unsigned integer, got {tail!r}")
        dims.append(int(dim_text))
    return GGP(tuple(generators), tuple(dims))


def ggp_enumerate(
    g: GGP, t: int = 1, max_pairs: int = DEFAULT_MAX_PAIRS
) -> tuple[int, list[int]]:
    """The scale and the int keys of the products of the t-dilated box.

    Each product is key/scale: a generator p/q of width w = t * H puts q^(w-1)
    into the scale and p^e * q^(w-1-e) into the key at exponent e. Keys run in
    the lexicographic order of their exponent vectors and may repeat; there
    are exactly prod(t * Hi) of them, held to the element cap of max_pairs
    (``check_elements``) as every generated set is.
    """
    if t < 1:
        raise ValueError("dilation factor must be a positive integer")
    check_elements(g.box_size(t), max_pairs, "box enumeration")
    scale = 1
    keys = [1]
    for generator, h in zip(g.generators, g.dims):
        p, q = generator.as_integer_ratio()
        top = t * h - 1
        scale *= q**top
        factors = [p**e * q ** (top - e) for e in range(top + 1)]
        keys = [key * factor for key in keys for factor in factors]
    return scale, keys


def ggp_power(g: GGP, t: int, max_pairs: int = DEFAULT_MAX_PAIRS) -> RationalSet:
    """The set of products of the t-dilated box, deduplicated."""
    return RationalSet(*ggp_enumerate(g, t, max_pairs))


def distinctness_check(g: GGP, t: int, max_pairs: int = DEFAULT_MAX_PAIRS) -> bool:
    """True when all prod(t * Hi) products of the t-dilated box are distinct."""
    keys = ggp_enumerate(g, t, max_pairs)[1]
    return len(set(keys)) == len(keys)


class ParallelVectorsError(ValueError):
    """The two exponent vectors are rational multiples of each other."""


def solve_exponent_system(
    v1: tuple[int, int],
    v2: tuple[int, int],
    t1: Sequence[int],
    t2: Sequence[int],
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Solve i*x_k + j*y_k = t1_k, i'*x_k + j'*y_k = t2_k per coordinate.

    Non-parallel (v1, v2) make the rational solution unique; it is returned
    only when every coordinate is an integer, else None. Parallel vectors
    are a precondition violation, reported distinctly from "no integer
    solution".
    """
    (i, j), (i2, j2) = v1, v2
    determinant = i * j2 - j * i2
    if determinant == 0:
        raise ParallelVectorsError(f"exponent vectors {v1} and {v2} are parallel")
    if len(t1) != len(t2):
        raise ValueError("target vectors must have the same length")
    xs = []
    ys = []
    for a, b in zip(t1, t2):
        x_num = a * j2 - b * j
        y_num = i * b - i2 * a
        if x_num % determinant or y_num % determinant:
            return None
        xs.append(x_num // determinant)
        ys.append(y_num // determinant)
    return tuple(xs), tuple(ys)


class BoundValue(NamedTuple):
    """Exact value of (8n)^(4 n^4 (n + n r + 1)) with a float log10."""

    n: int
    r: int
    value: int
    log10: float

    def __repr__(self) -> str:  # the value can have ~10^5 digits
        return f"BoundValue(n={self.n!r}, r={self.r!r}, log10={self.log10!r})"


def amoroso_viada_bound(n: int, r: int) -> BoundValue:
    """Amoroso-Viada bound on nondegenerate unit-equation solutions.

    Bounds the solutions of a_1 z_1 + ... + a_n z_n = 1 with the z_i in a
    multiplicative group of rank r and no vanishing subsum on the left.
    The log10 approximation is good to float precision (far beyond six
    significant digits). Values above MAX_BOUND_DIGITS digits are never built.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if r < 0:
        raise ValueError("r must be a non-negative integer")
    exponent = 4 * n**4 * (n + n * r + 1)
    try:
        digits = math.floor(bound_log10(n, r)) + 1
    except OverflowError:  # the digit count itself is past float range
        digits = math.inf
    check_budget(digits, MAX_BOUND_DIGITS, "the bound value", "digits", None)
    return BoundValue(n=n, r=r, value=(8 * n) ** exponent, log10=bound_log10(n, r))


def bound_log10(n: int, r: int) -> float:
    """log10 of the bound without materializing the (possibly huge) integer."""
    return 4 * n**4 * (n + n * r + 1) * math.log10(8 * n)
