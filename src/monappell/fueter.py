"""The Fueter map for odd dimensions, specialized to complex monomial inputs.

A power of z = x + iy, read on the half plane as a function of (x_0, r),
is planted into R^{m+1} as (u + (x̲/r) v) P_k and hit with the Laplacian
k + (m-1)/2 times.  For odd m the result is monogenic; on monomial
inputs it is an integer multiple of a Cauchy-Kovalevskaya extension, and
hence a known rational multiple of a sequence term.  The profiles of z^n
and their planting come from `bivariate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .algebra import require_int
from .bivariate import AxialPair, BivariatePoly, axial_profiles
from .ck import ck_extend
from .coefficients import double_factorial, fueter_factor, restriction_coefficient
from .errors import EvenDimensionError
from .operators import laplacian
from .polynomials import CliffordPolynomial, vector_power
from .report import VerificationReport
from .sequences import SequenceSpec, sequence_term_explicit


@dataclass
class HolomorphicPair:
    """Real and imaginary profiles of (x_0 + i r)^n.

    u is the even part in r (stored through t = r^2); the odd part is
    r * v_reduced.
    """

    u: BivariatePoly
    v_reduced: BivariatePoly
    n: int


def complex_monomial_parts(n: int) -> HolomorphicPair:
    """Binomial expansion of (x_0 + i r)^n split into even/odd parts in r:
    i r folds like x̲, since both square to -t."""
    if require_int(n, "n") < 0:
        raise ValueError("n must be non-negative")
    u, v_reduced = axial_profiles({(n - s, s): comb(n, s) for s in range(n + 1)})
    return HolomorphicPair(u, v_reduced, n)


def axial_embedding(pair: HolomorphicPair, pk: CliffordPolynomial, k: int) -> CliffordPolynomial:
    """(u + x̲ v_reduced) P_k with t substituted by |x̲|^2."""
    return AxialPair(a=pair.u, b_reduced=pair.v_reduced, k=k, m=pk.context.m, pk=pk).reconstruct()


def fueter_order(m: int, k: int) -> int:
    """Number of Laplacian applications: k + (m-1)/2, requiring odd m."""
    if m % 2 == 0:
        raise EvenDimensionError("the Fueter map requires an odd dimension m")
    return k + (m - 1) // 2


def fueter_map(n: int, pk: CliffordPolynomial, k: int) -> CliffordPolynomial:
    """Iterated Laplacian of the axial embedding of z^n."""
    order = fueter_order(pk.context.m, k)
    image = axial_embedding(complex_monomial_parts(n), pk, k)
    for _ in range(order):
        image = laplacian(image)
    return image


def check_fueter_vanishing(pk: CliffordPolynomial, k: int) -> VerificationReport:
    """Fueter images of z^n vanish for every n below the threshold 2k+m-1."""
    m = pk.context.m
    zero = CliffordPolynomial.zero(pk.context)
    report = VerificationReport()
    for n in range(2 * k + m - 1):
        report.add_equal("fueter_vanishing", {"m": m, "k": k, "n": n}, fueter_map(n, pk, k), zero)
    return report


def fueter_scale(m: int, k: int, n: int) -> int:
    """Integer relating the Fueter image of z^n to a CK extension:
    (-1)^(k+(m-1)/2) (2k+m-1)!! times the double-factorial ratio."""
    sign = -1 if fueter_order(m, k) % 2 else 1
    return sign * double_factorial(2 * k + m - 1) * fueter_factor(m, k, n)


def check_fueter_identity(n: int, pk: CliffordPolynomial, k: int) -> VerificationReport:
    """Fueter image of z^n equals the scaled CK extension of
    x̲^(n-(2k+m-1)) P_k, exactly."""
    fueter_scale(pk.context.m, k, n)  # raises below the threshold n = 2k+m-1
    return _identity_report(n, pk, k, fueter_map(n, pk, k))


def _identity_report(
    n: int, pk: CliffordPolynomial, k: int, image: CliffordPolynomial
) -> VerificationReport:
    m = pk.context.m
    rhs = fueter_scale(m, k, n) * ck_extend(vector_power(pk.context, n - (2 * k + m - 1)) * pk)
    report = VerificationReport()
    report.add_equal("fueter_ck_identity", {"m": m, "k": k, "n": n}, image, rhs)
    return report


def check_fueter_appell_match(spec: SequenceSpec, n: int) -> VerificationReport:
    """Fueter image of z^(n + 2k+m-1) is a known rational multiple of the
    n-th sequence term; the multiple is recorded in the report."""
    return _match_report(spec, n, fueter_map(n + 2 * spec.k + spec.m - 1, spec.pk, spec.k))


def _match_report(spec: SequenceSpec, n: int, image: CliffordPolynomial) -> VerificationReport:
    m, k = spec.m, spec.k
    shifted = n + 2 * k + m - 1
    lam = fueter_scale(m, k, shifted) / restriction_coefficient(m, k, n)
    rhs = lam * sequence_term_explicit(spec, n)
    params = {"m": m, "k": k, "n": n, "lambda": f"{lam.numerator}/{lam.denominator}"}
    report = VerificationReport()
    report.add_equal("fueter_appell_match", params, image, rhs)
    return report


def fueter_compare(spec: SequenceSpec) -> VerificationReport:
    """The vanishing entries below the threshold 2k+m-1, then the CK identity
    and the Appell match for z^(threshold+n), n = 0..n_max; each image is
    built once and feeds both checks."""
    threshold = 2 * spec.k + spec.m - 1
    report, matches = check_fueter_vanishing(spec.pk, spec.k), VerificationReport()
    for n in range(spec.n_max + 1):
        image = fueter_map(threshold + n, spec.pk, spec.k)
        report.extend(_identity_report(threshold + n, spec.pk, spec.k, image))
        matches.extend(_match_report(spec, n, image))
    return report.extend(matches)
