"""Cauchy-Kovalevskaya extension of polynomial initial data.

Data g(x_1, ..., x_m) extends to the unique monogenic polynomial on one
more variable via the exponential series

    sum_j ((-x_0)^j / j!) dirac^j g

which terminates because dirac lowers total degree.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import DependsOnX0Error
from .operators import cauchy_riemann, conj_cauchy_riemann, dirac
from .polynomials import CliffordPolynomial


def ck_extend(g: CliffordPolynomial) -> CliffordPolynomial:
    """Monogenic extension of x_0-free polynomial data."""
    if g.depends_on_x0():
        raise DependsOnX0Error("initial data must not involve x_0")
    ctx = g.context
    result = CliffordPolynomial.zero(ctx)
    current = g
    j = 0
    while not current.is_zero():
        factor = ctx.scalar(Fraction((-1) ** j, factorial(j)))
        result = result + CliffordPolynomial.monomial(ctx, (j,) + (0,) * ctx.m, factor) * current
        current = dirac(current)
        j += 1
    return result


def is_monogenic(p: CliffordPolynomial) -> bool:
    """True iff the Cauchy-Riemann operator annihilates p."""
    return cauchy_riemann(p).is_zero()


def check_ck_intertwining(g: CliffordPolynomial) -> bool:
    """Half the conjugate operator on the extension, minus dirac of the
    extension, and the extension of minus dirac of the data all agree."""
    ext = ck_extend(g)
    half_conj = Fraction(1, 2) * conj_cauchy_riemann(ext)
    minus_dirac = -dirac(ext)
    extended_derivative = ck_extend(-dirac(g))
    return half_conj == minus_dirac == extended_derivative
