"""Cauchy-Kovalevskaya extension of polynomial initial data.

Data g(x_1, ..., x_m) extends to the unique monogenic polynomial on one
more variable via the exponential series

    sum_j ((-x_0)^j / j!) dirac^j g

which terminates because dirac lowers total degree.  One
`linear_combination` sums the series from (weight, dirac^j g, j) items:
each x_0^j factor is a key shift applied as the term is added, so
neither a partial sum nor a shifted copy of a term is built.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import DependsOnX0Error
from .operators import cauchy_riemann, dirac
from .polynomials import CliffordPolynomial, linear_combination


def ck_extend(g: CliffordPolynomial) -> CliffordPolynomial:
    """Monogenic extension of x_0-free polynomial data."""
    if g.depends_on_x0():
        raise DependsOnX0Error("initial data must not involve x_0")
    terms = []  # ((-1)^j / j!, dirac^j g, j): weight, operand and its x_0 power
    current = g
    while not current.is_zero():
        j = len(terms)
        terms.append((Fraction((-1) ** j, factorial(j)), current, j))
        current = dirac(current)
    return linear_combination(g.context, terms)


def is_monogenic(p: CliffordPolynomial) -> bool:
    """True iff the Cauchy-Riemann operator annihilates p."""
    return cauchy_riemann(p).is_zero()


def ck_intertwines(g: CliffordPolynomial, ext: CliffordPolynomial) -> bool:
    """On the extension ext = ck_extend(g): half the conjugate operator on
    ext, minus dirac of ext, and the extension of minus dirac of the data
    all agree."""
    dirac_ext = dirac(ext)  # conj_cauchy_riemann(ext) is d/dx_0 ext - dirac_ext
    half_conj = Fraction(1, 2) * (ext.partial_derivative(0) - dirac_ext)
    return half_conj == -dirac_ext == ck_extend(-dirac(g))
