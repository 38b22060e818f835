"""Differential operators on Clifford-valued polynomials.

Everything acts from the left: the Dirac operator multiplies each
coefficient by e_j on the left, matching the left-monogenicity
convention used throughout the package.
"""

from __future__ import annotations

from .algebra import require_same_context
from .coefficients import lowering_factor
from .errors import (
    InvalidInitialTermError,
    NonScalarInputError,
    NonVectorInputError,
    NotMonogenicError,
)
from .polynomials import (
    FIELD_MASK,
    CliffordPolynomial,
    _collect,
    _normalized,
    key_layout,
    vector_power,
)


def _dirac_terms(numerators: dict, m: int):
    """Contributions of dirac: e_j times d/dx_j of each term, e_j on the left.

    e_j e_A = (-1)^s e_(A xor j), where s counts the generators of A with
    index at most j (the swaps past smaller ones, and e_j^2 = -1).
    """
    layout = key_layout(m)
    generators = [
        (layout.shifts[j], layout.units[j], 1 << (j - 1), (1 << j) - 1) for j in range(1, m + 1)
    ]
    for key, q in numerators.items():
        for shift, unit, bit, upto in generators:
            a = key >> shift & FIELD_MASK
            if a:
                yield (key - unit) ^ bit, (-a * q if (key & upto).bit_count() & 1 else a * q)


def _laplacian_terms(numerators: dict, m: int):
    """Contributions of the Laplacian: d^2/dx_i^2 of each term, for i = 0..m."""
    layout = key_layout(m)
    variables = [(shift, 2 * unit) for shift, unit in zip(layout.shifts, layout.units)]
    for key, q in numerators.items():
        for shift, step in variables:
            a = key >> shift & FIELD_MASK
            if a > 1:
                yield key - step, a * (a - 1) * q


def dirac(p: CliffordPolynomial) -> CliffordPolynomial:
    """Dirac operator sum_j e_j d/dx_j (left action)."""
    return _collect(p.context, _dirac_terms(p.numerators, p.context.m), p.denominator)


def cauchy_riemann(p: CliffordPolynomial) -> CliffordPolynomial:
    """Generalized Cauchy-Riemann operator d/dx_0 + dirac."""
    return p.partial_derivative(0) + dirac(p)


def conj_cauchy_riemann(p: CliffordPolynomial) -> CliffordPolynomial:
    """Conjugate operator d/dx_0 - dirac."""
    return p.partial_derivative(0) - dirac(p)


def laplacian(p: CliffordPolynomial) -> CliffordPolynomial:
    """Laplacian in all m+1 variables; factors as the product of the
    Cauchy-Riemann operator with its conjugate."""
    return _collect(p.context, _laplacian_terms(p.numerators, p.context.m), p.denominator)


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
    mask_bits = key_layout(phi.context.m).mask_bits
    if any(key & mask_bits for key in phi.numerators):
        raise NonScalarInputError("left factor must have grade-0 coefficients")
    require_same_context(phi, g)
    lhs = dirac(phi * g)
    rhs = dirac(phi) * g + phi * dirac(g)
    return lhs == rhs


def vector_components(f: CliffordPolynomial) -> list[CliffordPolynomial]:
    """Split a grade-1 polynomial sum_j f_j e_j into its scalar components f_j."""
    comps: list[dict] = [{} for _ in range(f.context.m)]
    mask_bits = key_layout(f.context.m).mask_bits
    for key, q in f.numerators.items():
        mask = key & mask_bits
        if mask.bit_count() != 1:
            raise NonVectorInputError("coefficients must be grade 1")
        comps[mask.bit_length() - 1][key - mask] = q
    return [_normalized(f.context, comp, f.denominator) for comp in comps]


def check_leibniz_vector(f: CliffordPolynomial, g: CliffordPolynomial) -> bool:
    """Product rule for a vector-valued left factor f = sum f_j e_j:

    dirac(f g) = dirac(f) g - f dirac(g) - 2 sum_j f_j d/dx_j g
    """
    comps = vector_components(f)
    require_same_context(f, g)
    lhs = dirac(f * g)
    rhs = dirac(f) * g - f * dirac(g)
    for j, fj in enumerate(comps, start=1):
        rhs = rhs - 2 * (fj * g.partial_derivative(j))
    return lhs == rhs


def require_initial_term(pk: CliffordPolynomial, k: int) -> None:
    """Gate for P_k: x_0-free, homogeneous of degree k, Dirac-annihilated, nonzero."""
    if pk.is_zero():
        raise InvalidInitialTermError("initial term is identically zero")
    if pk.depends_on_x0():
        raise InvalidInitialTermError("initial term depends on x_0")
    if not pk.is_homogeneous(k):
        raise InvalidInitialTermError(f"initial term is not homogeneous of degree {k}")
    if not dirac(pk).is_zero():
        raise InvalidInitialTermError("initial term is not in the kernel of the Dirac operator")


def check_dirac_power_rule(n: int, pk: CliffordPolynomial, k: int) -> bool:
    """dirac(x̲^n P_k) == -lowering_factor(m,k,n) x̲^(n-1) P_k for n >= 1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    require_initial_term(pk, k)
    ctx = pk.context
    lhs = dirac(vector_power(ctx, n) * pk)
    rhs = -lowering_factor(ctx.m, k, n) * (vector_power(ctx, n - 1) * pk)
    return lhs == rhs
