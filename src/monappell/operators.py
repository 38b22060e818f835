"""Differential operators on Clifford-valued polynomials, and the P_k gate.

Everything acts from the left: the Dirac operator multiplies each
coefficient by e_j on the left, matching the left-monogenicity
convention used throughout the package.  The kernels of `dirac`,
`laplacian` and `vector_components` live in `polynomials`, which owns the
term layout; this module composes them.
"""

from __future__ import annotations

from .algebra import require_same_context
from .coefficients import lowering_factor
from .errors import InvalidInitialTermError, NonScalarInputError, NotMonogenicError
from .polynomials import (
    CliffordPolynomial,
    degree_witness,
    dirac,
    laplacian,
    linear_combination,
    vector_components,
    vector_power,
)
from .report import VerificationReport


def cauchy_riemann(p: CliffordPolynomial) -> CliffordPolynomial:
    """Generalized Cauchy-Riemann operator d/dx_0 + dirac."""
    return p.partial_derivative(0) + dirac(p)


def conj_cauchy_riemann(p: CliffordPolynomial) -> CliffordPolynomial:
    """Conjugate operator d/dx_0 - dirac."""
    return p.partial_derivative(0) - dirac(p)


def hypercomplex_derivative(p: CliffordPolynomial, *, check: bool = True) -> CliffordPolynomial:
    """Derivative of a monogenic polynomial: d/dx_0, which then equals
    half the conjugate operator and minus the Dirac operator.

    With check=True (default) a non-monogenic input raises; check=False
    skips the guard and differentiates anyway.
    """
    if check and not cauchy_riemann(p).is_zero():
        raise NotMonogenicError("input is not monogenic; pass check=False to force")
    return p.partial_derivative(0)


def check_leibniz_scalar(phi: CliffordPolynomial, g: CliffordPolynomial) -> bool:
    """Product rule dirac(phi g) = dirac(phi) g + phi dirac(g) for scalar phi."""
    if not all(coeff.is_scalar() for coeff in phi.terms.values()):
        raise NonScalarInputError("left factor must have grade-0 coefficients")
    require_same_context(phi, g)
    lhs = dirac(phi * g)
    rhs = dirac(phi) * g + phi * dirac(g)
    return lhs == rhs


def check_leibniz_vector(f: CliffordPolynomial, g: CliffordPolynomial) -> bool:
    """Product rule for a vector-valued left factor f = sum f_j e_j:

    dirac(f g) = dirac(f) g - f dirac(g) - 2 sum_j f_j d/dx_j g
    """
    comps = vector_components(f)
    require_same_context(f, g)
    lhs = dirac(f * g)
    terms = [(1, dirac(f) * g), (-1, f * dirac(g))]
    terms += [(-2, fj * g.partial_derivative(j)) for j, fj in enumerate(comps, start=1)]
    return lhs == linear_combination(f.context, terms)


def validate_initial_term(p: CliffordPolynomial, k: int) -> VerificationReport:
    """The defining checks of P_k: no x_0, homogeneous of degree k (which
    the zero polynomial is not), Dirac-annihilated.  Failures are recorded,
    not raised."""
    report = VerificationReport()
    params = {"m": p.context.m, "k": k}

    x0_witness = None
    if p.depends_on_x0():
        bad = (p - p.restrict_x0()).sorted_exps()[0]  # the first monomial with x_0
        x0_witness = f"monomial {list(bad)} involves x_0"
    report.add("initial_term_x0_free", params, x0_witness is None, x0_witness)

    degree = "the zero polynomial has no degree" if p.is_zero() else degree_witness(p, k)
    report.add("initial_term_homogeneous", params, degree is None, degree)

    zero = CliffordPolynomial.zero(p.context)
    report.add_equal("initial_term_dirac_kernel", params, dirac(p), zero)
    return report


def require_initial_term(pk: CliffordPolynomial, k: int) -> None:
    """Gate for P_k: raise InvalidInitialTermError naming the first check of
    `validate_initial_term` that fails, with its witness; on a pass, record k
    in pk's `_gated` slot."""
    failed = validate_initial_term(pk, k).failures()
    if failed:
        first = failed[0]
        raise InvalidInitialTermError(f"initial term fails {first.identity}: {first.witness}")
    pk._gated = k


def _gate_once(pk: CliffordPolynomial, k: int) -> None:
    """require_initial_term, unless pk has passed it at degree k: a spec's P_k,
    gated when the spec is built, is not checked again on every route it takes."""
    if getattr(pk, "_gated", None) != k:
        require_initial_term(pk, k)


def check_dirac_power_rule(n: int, pk: CliffordPolynomial, k: int) -> bool:
    """dirac(x̲^n P_k) == -lowering_factor(m,k,n) x̲^(n-1) P_k for n >= 1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    require_initial_term(pk, k)
    ctx = pk.context
    lhs = dirac(vector_power(ctx, n) * pk)
    rhs = -lowering_factor(ctx.m, k, n) * (vector_power(ctx, n - 1) * pk)
    return lhs == rhs
