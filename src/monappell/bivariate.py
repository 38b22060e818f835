"""Profiles in the half-plane variables (x_0, t), with t standing for r^2.

A profile is a plain scalar `CliffordPolynomial` on R_{0,1}, x_1 standing
for t, so its exponent tuples are the (a, l) of x_0^a t^l and all of its
arithmetic is the polynomial kernel's.  `axial_profiles` folds a chain into
the profiles (A, b) of (A + x̲ b) P_k, held by `AxialPair` with their
Cauchy-Riemann operator; `_substitute_t` reads t as x_1^2 + ... + x_m^2
and `_profile_text` writes a profile in (x_0, t).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import TYPE_CHECKING

from .algebra import AlgebraContext, require_exact, scaled_text, signed_sum
from .polynomials import CliffordPolynomial, from_entries, linear_combination
from .polynomials import vector_power, vector_variable

if TYPE_CHECKING:  # sequences imports this module
    from .sequences import SequenceSpec

_PLANE = AlgebraContext(1)
_T = CliffordPolynomial.variable(_PLANE, 1)


def _profile_terms(profile: CliffordPolynomial) -> list[tuple[tuple[int, int], Fraction]]:
    """((a, l), coefficient) of each x_0^a t^l of a profile, in (a, l) order;
    ValueError unless it is a scalar polynomial on R_{0,1}."""
    if profile.context != _PLANE or not profile.is_scalar():
        raise ValueError("a profile is a scalar polynomial on R_{0,1}")
    return sorted((exps, coeff.scalar_part()) for exps, coeff in profile.terms.items())


def _profile_text(profile: CliffordPolynomial) -> str:
    """A profile in (x_0, t), e.g. "-2 + 5 t - 1/3 t^2 + x0 - x0^2 t"."""
    parts = []
    for (a, l), q in _profile_terms(profile):
        mono = " ".join(v if e == 1 else f"{v}^{e}" for v, e in (("x0", a), ("t", l)) if e)
        parts.append(scaled_text(q, mono))
    return signed_sum(parts)


def _substitute_t(profile: CliffordPolynomial, context: AlgebraContext) -> CliffordPolynomial:
    """The profile with t = x_1^2 + ... + x_m^2 in `context`: per t^l, one polynomial
    of x_0 powers times |x̲|^(2l) = (-1)^l x̲^(2l) from the context's ladder; one sum."""
    by_power: dict[int, list] = {}  # l -> (exps, mask, num, den) of the x_0 powers at t^l
    for (a, l), q in _profile_terms(profile):
        by_power.setdefault(l, []).append(((a,) + (0,) * context.m, 0, q.numerator, q.denominator))
    terms = [
        ((-1) ** l, from_entries(context, x0s) * vector_power(context, 2 * l))
        for l, x0s in by_power.items()
    ]
    return linear_combination(context, terms)


def axial_profiles(h: dict) -> tuple[CliffordPolynomial, CliffordPolynomial]:
    """Fold the chain {(j, i): h_{j,i}}, sum h_{j,i} x_0^j x̲^i, into the profiles
    (A, b) of A + x̲ b by x̲^i = (-t)^(i//2) x̲^(i%2); a float or bool h_{j,i}
    raises ValueError."""
    entries: tuple[list, list] = ([], [])  # A, then b; each (j, i) lands on its own (j, i//2)
    for (j, i), coeff in h.items():
        q = require_exact(coeff, "chain coefficient")
        half, odd = divmod(i, 2)
        num = -q.numerator if half % 2 else q.numerator
        entries[odd].append(((j, half), 0, num, q.denominator))
    return from_entries(_PLANE, entries[0]), from_entries(_PLANE, entries[1])


@dataclass
class AxialPair:
    """Profile functions of an axial polynomial on the P_k of a spec, such
    as a sequence term or the Fueter embedding of a complex monomial.

    `a` and `b_reduced` are scalar polynomials on R_{0,1} in (x_0, t); the
    source polynomial equals (a + x̲ b_reduced) P_k once t is read as r^2,
    and the odd radial profile is recovered as B = r * b_reduced.  The spec
    holds m, k and P_k, gated when the spec was built.
    """

    a: CliffordPolynomial
    b_reduced: CliffordPolynomial
    spec: SequenceSpec

    def reconstruct(self) -> CliffordPolynomial:
        ctx = self.spec.context
        even = _substitute_t(self.a, ctx)
        odd = vector_variable(ctx) * _substitute_t(self.b_reduced, ctx)
        return (even + odd) * self.spec.pk

    def cauchy_riemann(self) -> AxialPair:
        """Profile form of `operators.cauchy_riemann`: d/dx_0 + dirac maps
        (A + x̲ b) P_k to (A_0 - 2t b_t - (2k+m) b + x̲ (b_0 + 2 A_t)) P_k."""
        a, b = self.a, self.b_reduced
        a_0, a_t = a.partial_derivative(0), a.partial_derivative(1)
        b_0, b_t = b.partial_derivative(0), b.partial_derivative(1)
        even = a_0 - 2 * (b_t * _T) - (2 * self.spec.k + self.spec.m) * b
        return replace(self, a=even, b_reduced=b_0 + 2 * a_t)
