"""The Fueter map for odd dimensions, specialized to complex monomial inputs.

A power of z = x + iy, read on the half plane as a function of (x_0, r),
is planted into R^{m+1} as (u + (x̲/r) v) P_k and hit with the Laplacian
ν = k + (m-1)/2 times.  For odd m the result is monogenic; on monomial
inputs it is an integer multiple of a Cauchy-Kovalevskaya extension, and
hence a known rational multiple of a sequence term.  `axial_embedding`
folds the binomial expansion of z^n with `bivariate.axial_profiles` and
plants it on the P_k of a `SequenceSpec`, gated when the spec was built,
with `bivariate.AxialPair`.

Since i r folds like x̲, the planted z^n is (x_0 + x̲)^n P_k, in chain
coordinates (see `sequences`) the chain {(n-s, s): C(n, s)} of the
x̲^s P_k of a `SequenceSpec`.  A Laplacian lowers j + s by 2, so below
2ν = 2k+m-1 the image is zero by degree; from 2ν on `fueter_map` applies
the ν Laplacians by index shifts, Δ x̲^s P_k = -λ_s λ_(s-1) x̲^(s-2) P_k
by Δ = -D^2, with the λ_s that `sequences._chain_ratios` derives once
`_operator_certificate` has checked, with the package's own kernels, the
identities they follow from (that those kernels are the operators they
name is the premise tests/test_flat_kernel.py checks by brute force).
So the certificate first runs at z^(2ν), no x̲^s P_k meets `laplacian`,
and only the x̲^s P_k a realized chain reads are formed.
The literal route, ν Laplacians of `axial_embedding`, stays public as
the oracle that tests/test_fueter.py checks `fueter_map` against.

`fueter_compare` is the one builder of Fueter report entries: every
`fueter_vanishing` (z^n maps to zero for n below 2ν, the degree bound by
which `fueter_map` returns zero there, so no such entry can fail; only
the literal route of tests/test_fueter.py computes those images), then
every `fueter_ck_identity` and every `fueter_appell_match`, n = 0..n_max.
With lambda = `fueter_scale`(m, k, 2ν+n) / c_n, c_n the restriction
coefficient, the image of z^(2ν+n) is lambda times the n-th sequence term
built by each of the two routes that `verify` compares: the CK route
`sequence_term_ck` (c_n CK[x̲^n P_k], so lambda c_n is the integer scale)
and the explicit route `sequence_term_explicit`.
"""

from __future__ import annotations

from math import comb

from .algebra import require_int
from .bivariate import AxialPair, axial_profiles
from .coefficients import _check_indices, double_factorial, fueter_factor, restriction_coefficient
from .errors import EvenDimensionError
from .polynomials import CliffordPolynomial
from .report import VerificationReport
from .sequences import SequenceSpec, _chain_laplacian, _chain_ratios, _realize
from .sequences import sequence_term_ck, sequence_term_explicit


def axial_embedding(n: int, spec: SequenceSpec) -> CliffordPolynomial:
    """z^n planted as (u + x̲ v_reduced) P_k on the spec's P_k: the binomial
    expansion of (x_0 + i r)^n folded by `axial_profiles`, since i r folds
    like x̲ (both square to -t), and rebuilt in all m+1 variables by
    `AxialPair.reconstruct`, which reads no memo of the spec."""
    if require_int(n, "n") < 0:
        raise ValueError("n must be non-negative")
    u, v_reduced = axial_profiles({(n - s, s): comb(n, s) for s in range(n + 1)})
    return AxialPair(a=u, b_reduced=v_reduced, spec=spec).reconstruct()


def fueter_order(m: int, k: int) -> int:
    """Number of Laplacian applications: k + (m-1)/2, requiring odd m."""
    _check_indices(m, k)
    if m % 2 == 0:
        raise EvenDimensionError("the Fueter map requires an odd dimension m")
    return k + (m - 1) // 2


def fueter_map(n: int, spec: SequenceSpec) -> CliffordPolynomial:
    """Iterated Laplacian of the axial embedding of z^n planted on the spec's
    P_k, in chain coordinates: `_chain_laplacian` applies Δ^ν, ν =
    `fueter_order`, to the chain {(n-s, s): C(n, s)} of (x_0 + x̲)^n P_k with
    Δ x̲^s P_k = -λ_s λ_(s-1) x̲^(s-2) P_k, λ_s derived by `_chain_ratios`
    under its operator certificate (see the module docstring).
    The split Δ = d^2/dx_0^2 + Δ_x̲ needs a P_k free of x_0, which the
    spec's gate has checked.  Each entry has j + s = n, and d^2/dx_0^2
    lowers j and Δ_x̲ lowers s by 2, so for n < 2ν the image is zero,
    returned before any ratio is read or any x̲^s P_k is formed."""
    order = fueter_order(spec.m, spec.k)
    if require_int(n, "n") < 0:
        raise ValueError("n must be non-negative")
    if n < 2 * order:
        return CliffordPolynomial.zero(spec.context)
    chain = {(n - s, s): comb(n, s) for s in range(n + 1)}
    return _realize(spec, _chain_laplacian(chain, _chain_ratios(spec, n), order))


def fueter_scale(m: int, k: int, n: int) -> int:
    """Integer relating the Fueter image of z^n to a CK extension:
    (-1)^(k+(m-1)/2) (2k+m-1)!! times the double-factorial ratio."""
    order = fueter_order(m, k)
    return (-1) ** order * double_factorial(2 * order) * fueter_factor(m, k, n)


def fueter_compare(spec: SequenceSpec) -> VerificationReport:
    """The whole `fueter-compare` report (see the module docstring); the
    lambda of each Appell match is recorded in its params, and no
    `fueter_vanishing` entry can fail (it restates a degree bound).  Each
    image and its lambda are built once for both checks; the images and CK
    terms read the spec's x̲^s P_k, none of which meets `laplacian` or `dirac`."""
    m, k = spec.m, spec.k
    threshold = 2 * fueter_order(m, k)
    report, matches = VerificationReport(), VerificationReport()
    zero = CliffordPolynomial.zero(spec.context)
    for n in range(threshold):
        image = fueter_map(n, spec)
        report.add_equal("fueter_vanishing", {"m": m, "k": k, "n": n}, image, zero)
    for n in range(spec.n_max + 1):
        image = fueter_map(threshold + n, spec)
        lam = fueter_scale(m, k, threshold + n) / restriction_coefficient(m, k, n)
        params = {"m": m, "k": k, "n": threshold + n}
        ck_term = sequence_term_ck(spec, n)
        report.add_equal("fueter_ck_identity", params, image, lam * ck_term)
        params = {"m": m, "k": k, "n": n, "lambda": f"{lam.numerator}/{lam.denominator}"}
        matches.add_equal("fueter_appell_match", params, image, lam * sequence_term_explicit(spec, n))
    return report.extend(matches)
