"""Construction and verification of the monogenic Appell-type sequence.

Starting from a homogeneous degree-k initial term P_k annihilated by the
Dirac operator, the n-th sequence term is

    (sum_{j=0..n} binom(n, j) w_{n-j} x_0^j x̲^(n-j)) P_k

with the rational weights w_i = restriction_coefficient(m, k, i).  The
same term arises, independently, as that coefficient times the
Cauchy-Kovalevskaya extension of x̲^n P_k.  Both routes are implemented
and their exact agreement is one of the verified identities; the others
are monogenicity, the Appell derivative step, homogeneity of degree k+n,
the axial decomposition round-trip, and the Vekua-type system satisfied
by the axial profiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .algebra import AlgebraContext
from .bivariate import BivariatePoly
from .ck import ck_extend
from .coefficients import expansion_coefficient, restriction_coefficient
from .errors import ContextMismatchError, NotAxialFormError
from .initial_terms import builtin_initial_term
from .operators import _gate_once, dirac
from .polynomials import (
    CliffordPolynomial,
    degree_witness,
    linear_combination,
    scalar_ratio,
    vector_power,
    vector_variable,
    x0_strata,
)
from .report import VerificationReport


@dataclass
class SequenceSpec:
    """Generation parameters: dimension, initial degree and term, length."""

    m: int
    k: int
    pk: CliffordPolynomial
    n_max: int

    def __post_init__(self) -> None:
        if self.n_max < 0:
            raise ValueError("n_max must be non-negative")
        if self.pk.context.m != self.m:
            raise ContextMismatchError(
                f"initial term lives in m={self.pk.context.m}, spec says m={self.m}"
            )
        _gate_once(self.pk, self.k)  # a resolved InitialTermSpec has passed it already

    @property
    def context(self) -> AlgebraContext:
        return self.pk.context

    @classmethod
    def builtin(cls, m: int, k: int, n_max: int) -> SequenceSpec:
        context = AlgebraContext(m)
        return cls(m=m, k=k, pk=builtin_initial_term(context, k), n_max=n_max)


def _check_index(spec: SequenceSpec, n: int) -> None:
    if not 0 <= n <= spec.n_max:
        raise ValueError(f"n must be in 0..{spec.n_max}, got {n}")


def sequence_term_explicit(spec: SequenceSpec, n: int) -> CliffordPolynomial:
    """Closed-form n-th term: binomially weighted powers of x_0 and x̲ times P_k."""
    _check_index(spec, n)
    ctx = spec.context
    xv = vector_variable(ctx)
    power = CliffordPolynomial.one(ctx)  # x̲^(n-j), one factor x̲ more per step
    terms = []
    for j in range(n, -1, -1):
        weight = comb(n, j) * expansion_coefficient(spec.m, spec.k, n, j)
        x0j = CliffordPolynomial.monomial(ctx, (j,) + (0,) * ctx.m, ctx.one())
        terms.append((weight, x0j * power))
        if j:
            power = power * xv
    return linear_combination(ctx, terms) * spec.pk


def sequence_term_ck(spec: SequenceSpec, n: int) -> CliffordPolynomial:
    """n-th term via the Cauchy-Kovalevskaya route: c_n CK[x̲^n P_k]."""
    _check_index(spec, n)
    ctx = spec.context
    scale = restriction_coefficient(spec.m, spec.k, n)
    return scale * ck_extend(vector_power(ctx, n) * spec.pk)


def generate_sequence(spec: SequenceSpec) -> list[CliffordPolynomial]:
    """Terms 0..n_max, built by the explicit route."""
    return [sequence_term_explicit(spec, n) for n in range(spec.n_max + 1)]


def classical_term(m: int, n: int) -> CliffordPolynomial:
    """n-th term of the classical sequence: k = 0 with unit initial term."""
    context = AlgebraContext(m)
    spec = SequenceSpec(m=m, k=0, pk=CliffordPolynomial.one(context), n_max=n)
    return sequence_term_explicit(spec, n)


def verify_sequence(
    spec: SequenceSpec, terms: list[CliffordPolynomial] | None = None
) -> VerificationReport:
    """Check, per term: monogenicity, the Appell step, homogeneity of degree
    k+n, and agreement of the two construction routes.

    The Appell step is computed through the conjugate operator (half of
    d/dx_0 - dirac) rather than the bare x_0 derivative so that the check
    stays meaningful on deliberately corrupted inputs, where the two
    disagree.  A custom term list may be injected for negative controls.
    """
    if terms is None:
        terms = generate_sequence(spec)
    report = VerificationReport()
    zero = CliffordPolynomial.zero(spec.context)
    for n, term in enumerate(terms):
        params = {"m": spec.m, "k": spec.k, "n": n}
        d0, d = term.partial_derivative(0), dirac(term)
        residual = d0 + d  # the Cauchy-Riemann operator
        report.add_equal("monogenic", params, residual, zero)
        if n >= 1:
            step = Fraction(1, 2) * (d0 - d)  # half the conjugate operator
            expected = n * terms[n - 1]
            report.add_equal("appell_step", params, step, expected)
        witness = degree_witness(term, spec.k + n)
        report.add("homogeneous", params, witness is None, witness)
        report.add_equal("route_equivalence", params, sequence_term_ck(spec, n), term)
    return report


@dataclass
class AxialPair:
    """Profile functions of an axial polynomial of initial degree k, such
    as a sequence term or the Fueter embedding of a complex monomial.

    The source polynomial equals (a + x̲ b_reduced) P_k once t is read as
    r^2; the odd radial profile is recovered as B = r * b_reduced.  Both
    profiles are purely scalar by construction.
    """

    a: BivariatePoly
    b_reduced: BivariatePoly
    k: int
    m: int
    pk: CliffordPolynomial

    def reconstruct(self) -> CliffordPolynomial:
        ctx = self.pk.context
        even = self.a.to_clifford(ctx)
        odd = vector_variable(ctx) * self.b_reduced.to_clifford(ctx)
        return (even + odd) * self.pk


def axial_decompose(p: CliffordPolynomial, k: int, pk: CliffordPolynomial) -> AxialPair:
    """Write p as (sum_{j,i} h_{j,i} x_0^j x̲^i) P_k with rational h and fold
    the x̲ powers into the (x_0, t) profiles.

    Within a fixed power of x_0, the candidate x̲^i P_k pieces live in
    distinct homogeneous degrees, so each h_{j,i} is read off from a single
    reference coefficient and then verified exactly.
    """
    if pk.context != p.context:
        raise ContextMismatchError("polynomial and initial term from different algebras")
    _gate_once(pk, k)
    ctx = p.context
    profiles: tuple[dict, dict] = ({}, {})  # A, then b_reduced: {(j, half): h}
    xv = vector_variable(ctx)
    references = [pk]  # x̲^i P_k, one factor x̲ more per entry
    for (j, degree), component in sorted(x0_strata(p).items()):
        i = degree - k
        if i < 0:
            raise NotAxialFormError(
                f"x_0^{j} slice has degree {degree} below the initial degree {k}"
            )
        while len(references) <= i:
            references.append(xv * references[-1])
        ratio = scalar_ratio(component, references[i])
        if ratio is None:
            raise NotAxialFormError(
                "homogeneous component is not a rational multiple of x̲^i times the initial term"
            )
        half, odd = divmod(i, 2)
        # each stratum (j, degree) lands on its own key (j, half)
        profiles[odd][j, half] = -ratio if half % 2 else ratio
    a, b_reduced = map(BivariatePoly, profiles)
    return AxialPair(a=a, b_reduced=b_reduced, k=k, m=ctx.m, pk=pk)


def vekua_check(pair: AxialPair) -> bool:
    """Vekua-type system for the axial profiles, written in (x_0, t):

    dA/dx_0 - (b + 2t db/dt) = (2k+m-1) b     and     db/dx_0 + 2 dA/dt = 0

    where b is the reduced odd profile (B = r b).
    """
    return vekua_witness(pair) is None


def vekua_witness(pair: AxialPair) -> str | None:
    """The residuals of the two Vekua equations (see `vekua_check`), or
    None when both vanish."""
    a, b = pair.a, pair.b_reduced
    first = a.d_dx0() - b - 2 * b.d_dt().times_t() - (2 * pair.k + pair.m - 1) * b
    second = b.d_dx0() + 2 * a.d_dt()
    if first.is_zero() and second.is_zero():
        return None
    return f"residuals: ({first}; {second})"


def verify_axial(
    spec: SequenceSpec, terms: list[CliffordPolynomial] | None = None
) -> VerificationReport:
    """Axial decomposition round-trip plus the Vekua system, per term."""
    if terms is None:
        terms = generate_sequence(spec)
    report = VerificationReport()
    for n, term in enumerate(terms):
        params = {"m": spec.m, "k": spec.k, "n": n}
        try:
            pair = axial_decompose(term, spec.k, spec.pk)
        except NotAxialFormError as exc:
            report.add("axial_reconstruction", params, False, str(exc))
            report.add("vekua_system", params, False, "no decomposition")
            continue
        report.add_equal("axial_reconstruction", params, pair.reconstruct(), term)
        witness = vekua_witness(pair)
        report.add("vekua_system", params, witness is None, witness)
    return report
