"""The Fueter map for odd dimensions, specialized to complex monomial inputs.

A power of z = x + iy, read on the half plane as a function of (x_0, r),
is planted into R^{m+1} as (u + (x̲/r) v) P_k and hit with the Laplacian
ν = k + (m-1)/2 times.  For odd m the result is monogenic; on monomial
inputs it is an integer multiple of a Cauchy-Kovalevskaya extension, and
hence a known rational multiple of a sequence term.  The profiles of z^n
and their planting (`axial_embedding`) come from `bivariate`.

Since i r folds like x̲, the planted z^n is (x_0 + x̲)^n P_k, and since
Δ = d^2/dx_0^2 + Δ_x̲ with commuting parts,

    Δ^ν [(x_0 + x̲)^n P_k] = sum_s C(n,s) sum_t C(ν,t) (n-s)!/(n-s-2t)!
        x_0^(n-s-2t) Δ^(ν-t)(x̲^s P_k),

so `fueter_map` builds each image from the x_0-free chains Δ^r(x̲^s P_k),
r = 0..ν, which all images of one report share.  The literal route, ν
Laplacians of `axial_embedding`, stays public as the oracle that
tests/test_fueter.py checks `fueter_map` against.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, perm

from .algebra import require_int
from .bivariate import AxialPair, BivariatePoly, axial_profiles
from .ck import ck_extend
from .coefficients import double_factorial, fueter_factor, restriction_coefficient
from .errors import EvenDimensionError
from .operators import _gate_once, laplacian
from .polynomials import CliffordPolynomial, linear_combination, vector_power
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


def fueter_map(
    n: int, pk: CliffordPolynomial, k: int, *, blocks: dict | None = None
) -> CliffordPolynomial:
    """Iterated Laplacian of the axial embedding of z^n, by the x_0 split of Δ.

    The embedding is (x_0 + x̲)^n P_k = sum_s C(n,s) x_0^(n-s) G_s with
    G_s = x̲^s P_k free of x_0, and Δ = d^2/dx_0^2 + Δ_x̲ with commuting
    parts, so with ν = `fueter_order`, exactly,

        Δ^ν [(x_0 + x̲)^n P_k] = sum_{s=0..n} C(n,s) sum_{t=0..min(ν,(n-s)//2)}
            C(ν,t) (n-s)!/(n-s-2t)! x_0^(n-s-2t) Δ^(ν-t) G_s,

    one `linear_combination` of x_0 key shifts of the chains
    [G_s, ΔG_s, ..., Δ^ν G_s].  On the x_0-free G_s, `laplacian` is Δ_x̲.
    `blocks`, if given, is a dict {s: chain} of this pk and k that the call
    reads and fills, so calls that share it build each chain once.  The
    literal route, ν Laplacians of `axial_embedding`, is the oracle in
    tests/test_fueter.py.
    """
    _gate_once(pk, k)  # the split needs a P_k free of x_0
    order = fueter_order(pk.context.m, k)
    if require_int(n, "n") < 0:
        raise ValueError("n must be non-negative")
    blocks = {} if blocks is None else blocks
    for s in range(n + 1):
        if s not in blocks:
            chain = [vector_power(pk.context, s) * pk]
            for _ in range(order):
                chain.append(laplacian(chain[-1]))
            blocks[s] = chain
    terms = [
        (
            comb(n, s) * comb(order, t) * perm(n - s, 2 * t),
            blocks[s][order - t].times_x0(n - s - 2 * t),
        )
        for s in range(n + 1)
        for t in range(min(order, (n - s) // 2) + 1)
    ]
    return linear_combination(pk.context, terms)


def check_fueter_vanishing(pk: CliffordPolynomial, k: int) -> VerificationReport:
    """Fueter images of z^n vanish for every n below the threshold 2k+m-1."""
    return _vanishing_report(pk, k, {})


def _vanishing_report(pk: CliffordPolynomial, k: int, blocks: dict) -> VerificationReport:
    m = pk.context.m
    zero = CliffordPolynomial.zero(pk.context)
    report = VerificationReport()
    for n in range(2 * k + m - 1):
        image = fueter_map(n, pk, k, blocks=blocks)
        report.add_equal("fueter_vanishing", {"m": m, "k": k, "n": n}, image, zero)
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
    built once and feeds both checks.  Every image reads one `blocks` dict,
    so each chain Δ^r(x̲^s P_k) is built once per report."""
    threshold = 2 * spec.k + spec.m - 1
    blocks: dict = {}
    report = _vanishing_report(spec.pk, spec.k, blocks)
    matches = VerificationReport()
    for n in range(spec.n_max + 1):
        image = fueter_map(threshold + n, spec.pk, spec.k, blocks=blocks)
        report.extend(_identity_report(threshold + n, spec.pk, spec.k, image))
        matches.extend(_match_report(spec, n, image))
    return report.extend(matches)
