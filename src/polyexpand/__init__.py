"""polyexpand: exact experiments on image growth of bivariate polynomials.

Given a finite set A of rationals with a small product set AA, the image
f(A, A) of a bivariate polynomial grows quadratically in |A| unless f is a
univariate polynomial of a single monomial, f = g(x^a y^b). This package
classifies that shape exactly, computes image sets, multiplicity histograms
and energies in exact arithmetic, detects multiplicative structure through
exponent lattices over a pairwise-coprime base, and audits the counting
bounds behind the phenomenon by brute force. The subsum audit splits the
solutions of f(x, y) = v, for every image value v, into clean and dirty
ones by whether a proper subsum of f's terms vanishes there.
"""

from .lab import (
    AuditReport,
    DistinctnessError,
    EnergyCheck,
    ExceptionalPolynomialError,
    ExpansionReport,
    FileFamily,
    GeometricFamily,
    GGPFamily,
    SweepRow,
    audit_injectivity,
    audit_vanishing_subsums,
    cauchy_schwarz_check,
    expansion_sweep,
    parse_family,
)
from .polynomials import (
    BivariatePoly,
    MonomialDecomposition,
    PolyParseError,
    UnivariatePoly,
    classify_monomial_composition,
    format_monomial,
    non_parallel_witnesses,
    parse_poly,
)
from .rational import RationalParseError, format_rational, parse_rational
from .sets import (
    DEFAULT_MAX_PAIRS,
    CapExceeded,
    MultiplicityHistogram,
    RationalSet,
    doubling_ratio,
    energy,
    image_set,
    make_set,
    multiplicity_histogram,
    productset,
    productset_size,
    read_set_file,
    value_multiplicities,
)
from .structure import (
    GGP,
    BoundValue,
    ParallelVectorsError,
    amoroso_viada_bound,
    distinctness_check,
    ggp_enumerate,
    ggp_power,
    multiplicative_rank,
    parse_ggp_spec,
    solve_exponent_system,
)

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "BivariatePoly",
    "BoundValue",
    "CapExceeded",
    "DEFAULT_MAX_PAIRS",
    "DistinctnessError",
    "EnergyCheck",
    "ExceptionalPolynomialError",
    "ExpansionReport",
    "FileFamily",
    "GGP",
    "GGPFamily",
    "GeometricFamily",
    "MonomialDecomposition",
    "MultiplicityHistogram",
    "ParallelVectorsError",
    "PolyParseError",
    "RationalParseError",
    "RationalSet",
    "SweepRow",
    "UnivariatePoly",
    "amoroso_viada_bound",
    "audit_injectivity",
    "audit_vanishing_subsums",
    "cauchy_schwarz_check",
    "classify_monomial_composition",
    "distinctness_check",
    "doubling_ratio",
    "energy",
    "expansion_sweep",
    "format_monomial",
    "format_rational",
    "ggp_enumerate",
    "ggp_power",
    "image_set",
    "make_set",
    "multiplicative_rank",
    "multiplicity_histogram",
    "non_parallel_witnesses",
    "parse_family",
    "parse_ggp_spec",
    "parse_poly",
    "parse_rational",
    "productset",
    "productset_size",
    "read_set_file",
    "solve_exponent_system",
    "value_multiplicities",
]
