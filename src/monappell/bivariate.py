"""Polynomials in the half-plane variables (x_0, t), with t standing for r^2.

The profiles (A, b) of axial polynomials (A + x̲ b) P_k live here, held by
`AxialPair` with their Cauchy-Riemann operator and folded by
`axial_profiles`.  Keys are (x_0 exponent, t exponent); coefficients are
exact rationals.

A profile is a scalar `CliffordPolynomial` on the one-generator algebra
R_{0,1}, with x_1 standing for t, so its exponent tuples are the (a, l)
keys and all of its arithmetic runs on the integer polynomial kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import TYPE_CHECKING

from .algebra import AlgebraContext, Scalar, is_exact, scaled_text, signed_sum
from .polynomials import CliffordPolynomial, linear_combination, vector_power, vector_variable

if TYPE_CHECKING:  # sequences imports this module
    from .sequences import SequenceSpec

_PLANE = AlgebraContext(1)
_T = CliffordPolynomial.variable(_PLANE, 1)


class BivariatePoly:
    """Sparse rational polynomial in (x_0, t); treated as immutable.

    Exponents must be non-negative ints and coefficients ints or
    Fractions; floats and bools are rejected rather than converted.
    """

    __slots__ = ("_poly",)

    def __init__(self, terms: dict[tuple[int, int], Scalar] | None = None):
        coeffs = {key: _PLANE.scalar(coeff) for key, coeff in (terms or {}).items()}
        self._poly = CliffordPolynomial(_PLANE, coeffs)

    @classmethod
    def _wrap(cls, poly: CliffordPolynomial) -> BivariatePoly:
        out = cls.__new__(cls)
        out._poly = poly
        return out

    @classmethod
    def zero(cls) -> BivariatePoly:
        return cls()

    @classmethod
    def one(cls) -> BivariatePoly:
        return cls({(0, 0): 1})

    @classmethod
    def monomial(cls, x0_exp: int, t_exp: int, coeff: Scalar = 1) -> BivariatePoly:
        return cls({(x0_exp, t_exp): coeff})

    @property
    def terms(self) -> dict[tuple[int, int], Fraction]:
        """{(a, l): Fraction} view of the coefficients, rebuilt on every access."""
        return {exps: coeff.scalar_part() for exps, coeff in self._poly.terms.items()}

    def is_zero(self) -> bool:
        return self._poly.is_zero()

    def __add__(self, other: BivariatePoly) -> BivariatePoly:
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        return BivariatePoly._wrap(self._poly + other._poly)

    def __neg__(self) -> BivariatePoly:
        return BivariatePoly._wrap(-self._poly)

    def __sub__(self, other: BivariatePoly) -> BivariatePoly:
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        return BivariatePoly._wrap(self._poly - other._poly)

    def __mul__(self, other):
        if isinstance(other, BivariatePoly):
            return BivariatePoly._wrap(self._poly * other._poly)
        if is_exact(other):
            return BivariatePoly._wrap(other * self._poly)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        return self._poly == other._poly

    __hash__ = None

    def d_dx0(self) -> BivariatePoly:
        return BivariatePoly._wrap(self._poly.partial_derivative(0))

    def d_dt(self) -> BivariatePoly:
        return BivariatePoly._wrap(self._poly.partial_derivative(1))

    def times_t(self) -> BivariatePoly:
        return BivariatePoly._wrap(self._poly * _T)

    def evaluate(self, x0: Scalar, t: Scalar) -> Fraction:
        return self._poly.evaluate((x0, t)).scalar_part()

    def to_clifford(self, context: AlgebraContext) -> CliffordPolynomial:
        """Substitute t = x_1^2 + ... + x_m^2, yielding a scalar-coefficient
        polynomial in m+1 variables: one product per power t^l, by
        |x̲|^(2l) = (-1)^l x̲^(2l) read from the context's ladder, and one sum."""
        by_power: dict[int, dict] = {}  # l -> {x_0 exponents: coefficient of t^l}
        for (a, l), q in self.terms.items():
            by_power.setdefault(l, {})[(a,) + (0,) * context.m] = context.scalar(q)
        terms = [
            ((-1) ** l, CliffordPolynomial(context, x0s) * vector_power(context, 2 * l))
            for l, x0s in by_power.items()
        ]
        return linear_combination(context, terms)

    def __str__(self) -> str:
        parts = []
        for (a, l), q in sorted(self.terms.items()):
            mono = " ".join(v if e == 1 else f"{v}^{e}" for v, e in (("x0", a), ("t", l)) if e)
            parts.append(scaled_text(q, mono))
        return signed_sum(parts)

    def __repr__(self) -> str:
        return f"BivariatePoly({self})"


def axial_profiles(h: dict[tuple[int, int], Scalar]) -> tuple[BivariatePoly, BivariatePoly]:
    """Fold sum h_{j,i} x_0^j x̲^i into (A, b) of A + x̲ b by x̲^i = (-t)^(i//2) x̲^(i%2)."""
    profiles: tuple[dict, dict] = ({}, {})  # A, then b; each (j, i) lands on its own (j, i//2)
    for (j, i), coeff in h.items():
        half, odd = divmod(i, 2)
        profiles[odd][j, half] = -coeff if half % 2 else coeff
    return BivariatePoly(profiles[0]), BivariatePoly(profiles[1])


@dataclass
class AxialPair:
    """Profile functions of an axial polynomial on the P_k of a spec, such
    as a sequence term or the Fueter embedding of a complex monomial.

    The source polynomial equals (a + x̲ b_reduced) P_k once t is read as
    r^2; the odd radial profile is recovered as B = r * b_reduced.  Both
    profiles are purely scalar by construction.  The spec holds m, k and
    P_k, gated when the spec was built.
    """

    a: BivariatePoly
    b_reduced: BivariatePoly
    spec: SequenceSpec

    def reconstruct(self) -> CliffordPolynomial:
        ctx = self.spec.context
        even = self.a.to_clifford(ctx)
        odd = vector_variable(ctx) * self.b_reduced.to_clifford(ctx)
        return (even + odd) * self.spec.pk

    def cauchy_riemann(self) -> AxialPair:
        """Profile form of `operators.cauchy_riemann`: d/dx_0 + dirac maps
        (A + x̲ b) P_k to (A_0 - 2t b_t - (2k+m) b + x̲ (b_0 + 2 A_t)) P_k."""
        a, b = self.a, self.b_reduced
        even = a.d_dx0() - 2 * b.d_dt().times_t() - (2 * self.spec.k + self.spec.m) * b
        return replace(self, a=even, b_reduced=b.d_dx0() + 2 * a.d_dt())
