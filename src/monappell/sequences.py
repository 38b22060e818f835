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
by the axial profiles (`AxialPair` and its operator live in `bivariate`).
The frozen `SequenceSpec` gates its P_k when built and memoizes, for its
whole life, each G_s = x̲^s P_k it has formed (`_multiple`), once, when
first read.  The ratios D G_s = λ_s G_(s-1) are the only chain ratios,
not measured but derived (`_chain_ratios`): λ_0 = 0 and λ_s = -(m + 2k +
2s - 2) - λ_(s-1) follow from D x̲ + x̲ D = -(m + 2E), E the Euler
operator in x̲, and Δ G_s = -λ_s λ_(s-1) G_(s-2) from Δ = -D^2 on x_0-free
functions.  `_operator_certificate` checks both identities, once per
algebra, with the package's own `dirac`, `laplacian` and product; that
those kernels are the operators they name is the premise, which
tests/test_flat_kernel.py checks against brute force.  A certificate
that fails raises ArithmeticError.  The CK route, `axial_decompose` and
the Fueter images work in chain coordinates: a chain h = {(j, s): q}
stands for the paper's collected form sum q x_0^j G_s, `_realize` turns
it into a polynomial and `_chain_laplacian` applies Δ to it by two index
shifts, pruning nothing.  The explicit route keeps its own powers of x̲.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

from .algebra import AlgebraContext, require_int
from .bivariate import AxialPair, _profile_text, axial_profiles
from .coefficients import explicit_weights, restriction_coefficient
from .errors import ContextMismatchError, DegreeLimitError, NotAxialFormError
from .initial_terms import builtin_initial_term
from .operators import dirac, laplacian, require_initial_term
from .polynomials import (
    DEGREE_LIMIT,
    CliffordPolynomial,
    degree_witness,
    first_difference,
    linear_combination,
    scalar_ratio,
    vector_power,
    vector_variable,
    x0_strata,
)
from .report import VerificationReport


@dataclass(frozen=True)
class SequenceSpec:
    """Generation parameters: dimension, initial degree and term, length.

    Building one rejects a last term of degree k + n_max at or past
    DEGREE_LIMIT with DegreeLimitError, before any product, then runs P_k
    through `require_initial_term` at degree k, the one gate of the
    sequence, axial and Fueter routes.  Frozen, so the gate
    and the G_s = x̲^s P_k memoized on the spec for its whole life by
    `_multiple` hold for its P_k.  The ratios between the G_s depend on
    (m, k) alone and are derived by `_chain_ratios`, whose certificate
    runs when a ratio is first read, not when a spec is built."""

    m: int
    k: int
    pk: CliffordPolynomial
    n_max: int
    _multiples: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("m", "k", "n_max"):
            require_int(getattr(self, name), name)
        if self.n_max < 0:
            raise ValueError("n_max must be non-negative")
        degree = self.k + self.n_max  # of the last term, checked before any product
        if degree >= DEGREE_LIMIT:
            raise DegreeLimitError(f"last term degree {degree} is not below the limit {DEGREE_LIMIT}")
        if self.pk.context.m != self.m:
            raise ContextMismatchError(
                f"initial term lives in m={self.pk.context.m}, spec says m={self.m}"
            )
        require_initial_term(self.pk, self.k)

    @property
    def context(self) -> AlgebraContext:
        return self.pk.context

    @classmethod
    def builtin(cls, m: int, k: int, n_max: int) -> SequenceSpec:
        context = AlgebraContext(m)
        return cls(m=m, k=k, pk=builtin_initial_term(context, k), n_max=n_max)


def _check_index(spec: SequenceSpec, n: int) -> None:
    if not 0 <= require_int(n, "n") <= spec.n_max:
        raise ValueError(f"n must be in 0..{spec.n_max}, got {n}")


def sequence_term_explicit(spec: SequenceSpec, n: int) -> CliffordPolynomial:
    """Closed-form n-th term: binomially weighted powers of x_0 and x̲ times
    P_k; each x̲^(n-j) is a product of its own, and its x_0^j a key shift
    in the one `linear_combination`."""
    _check_index(spec, n)
    ctx = spec.context
    xv = vector_variable(ctx)
    power = CliffordPolynomial.one(ctx)  # x̲^(n-j), one factor x̲ more per step
    terms = []
    for j, weight in explicit_weights(spec.m, spec.k, n):
        terms.append((weight, power, j))
        if j:
            power = power * xv
    return linear_combination(ctx, terms) * spec.pk


def _multiple(spec: SequenceSpec, s: int) -> CliffordPolynomial:
    """G_s = x̲^s P_k of the spec, formed once per spec, when first read."""
    if s not in spec._multiples:
        spec._multiples[s] = vector_power(spec.context, s) * spec.pk
    return spec._multiples[s]


@cache
def _operator_certificate(context: AlgebraContext) -> None:
    """Check, once per algebra and by literal equality, the two operator
    identities behind `_chain_ratios`, with the package's own `dirac`,
    `laplacian` and product:

        D(x̲ f) + x̲ D f = -(m + 2E) f   on f = 1, x_1, ..., x_m,
        Δ f + D D f = 0                on f = x_i x_j, i <= j.

    Both sides of each are right-linear in f.  The first is an identity of
    first-order operators, so it holds for every f once it holds on 1 and
    the x_i; the second, of constant-coefficient operators of order two,
    once it holds on the x_i x_j.  Reading "every f" off these inputs rests
    on the premise that `dirac` and `laplacian` are the differential
    operators they name, which tests/test_flat_kernel.py checks against
    brute force.  A failing input raises ArithmeticError naming it."""
    m, xv = context.m, vector_variable(context)
    x = {i: CliffordPolynomial.variable(context, i) for i in range(1, m + 1)}
    linear = [("1", CliffordPolynomial.one(context), 0)] + [(f"x_{i}", x[i], 1) for i in x]
    for name, f, degree in linear:
        witness = first_difference(dirac(xv * f) + xv * dirac(f), -(m + 2 * degree) * f)
        if witness is not None:
            raise ArithmeticError(f"D(x̲ f) + x̲ D f is not -(m + 2E) f at f = {name}: {witness}")
    zero = CliffordPolynomial.zero(context)
    for i in x:
        for j in range(i, m + 1):
            f = x[i] * x[j]
            witness = first_difference(laplacian(f) + dirac(dirac(f)), zero)
            if witness is not None:
                raise ArithmeticError(f"Δ f + D D f is not 0 at f = x_{i} x_{j}: {witness}")


def _chain_ratios(spec: SequenceSpec, top: int) -> list[int]:
    """[λ_0, ..., λ_top] with D G_s = λ_s G_(s-1), G_s = x̲^s P_k, once
    `_operator_certificate` holds for the spec's algebra.  D x̲ + x̲ D =
    -(m + 2E) on G_(s-1), of degree k+s-1, gives λ_s = -(m + 2k + 2s - 2) -
    λ_(s-1), and D P_k = 0, which the spec's gate has checked, gives λ_0 = 0."""
    _operator_certificate(spec.context)
    lambdas = [0]
    for s in range(1, top + 1):
        lambdas.append(-(spec.m + 2 * spec.k + 2 * s - 2) - lambdas[-1])
    return lambdas


def _realize(spec: SequenceSpec, h: dict) -> CliffordPolynomial:
    """The chain h = {(j, s): q} as the polynomial sum q x_0^j G_s: one
    `linear_combination` of the spec's G_s = x̲^s P_k, each shifted by x_0^j
    as it is added, so no shifted copy of a G_s is built."""
    terms = [(q, _multiple(spec, s), j) for (j, s), q in h.items()]
    return linear_combination(spec.context, terms)


def _chain_laplacian(h: dict, lambdas: list, order: int) -> dict:
    """Δ^order of the chain h: Δ = d^2/dx_0^2 + Δ_x̲ shifts (j, s) to j(j-1)
    (j-2, s) and to -λ_s λ_(s-1) (j, s-2), Δ_x̲ = -D^2 with the λ_s of
    `_chain_ratios`; a shift whose index would go negative has the factor 0."""
    for _ in range(order):
        image: dict = {}
        for (j, s), q in h.items():
            if j >= 2:
                image[j - 2, s] = image.get((j - 2, s), 0) + j * (j - 1) * q
            if s >= 2:
                image[j, s - 2] = image.get((j, s - 2), 0) - lambdas[s] * lambdas[s - 1] * q
        h = image
    return h


def sequence_term_ck(spec: SequenceSpec, n: int) -> CliffordPolynomial:
    """n-th term via the Cauchy-Kovalevskaya route: c_n CK[x̲^n P_k], the
    chain {(j, n-j): c_n (-1)^j/j! λ_n⋯λ_(n-j+1)} with dirac(x̲^i P_k) =
    λ_i x̲^(i-1) P_k from `_chain_ratios`; no x̲^i P_k meets `dirac`."""
    _check_index(spec, n)
    lambdas = _chain_ratios(spec, n)
    weight = restriction_coefficient(spec.m, spec.k, n)
    chain = {(0, n): weight}
    for j in range(1, n + 1):
        weight *= Fraction(-lambdas[n - j + 1], j)
        chain[j, n - j] = weight
    return _realize(spec, chain)


def generate_sequence(spec: SequenceSpec) -> list[CliffordPolynomial]:
    """Terms 0..n_max, built by the explicit route."""
    return [sequence_term_explicit(spec, n) for n in range(spec.n_max + 1)]


def verify_sequence(
    spec: SequenceSpec, terms: list[CliffordPolynomial] | None = None
) -> VerificationReport:
    """Check, per term: monogenicity, the Appell step, homogeneity of degree
    k+n, and agreement of the two construction routes.

    The Appell step is computed through the conjugate operator (half of
    d/dx_0 - dirac) rather than the bare x_0 derivative so that the check
    stays meaningful on deliberately corrupted inputs, where the two
    disagree.  A custom term list may be injected for negative controls.
    `dirac` meets each term once, and no x̲^i P_k of the spec.
    """
    if terms is None:
        terms = generate_sequence(spec)
    report = VerificationReport()
    zero = CliffordPolynomial.zero(spec.context)
    for n, term in enumerate(terms):
        params = {"m": spec.m, "k": spec.k, "n": n}
        d0, d = term.partial_derivative(0), dirac(term)
        report.add_equal("monogenic", params, d0 + d, zero)  # the Cauchy-Riemann operator
        if n >= 1:  # half the conjugate operator
            report.add_equal("appell_step", params, Fraction(1, 2) * (d0 - d), n * terms[n - 1])
        del d0, d  # not alive while the CK term is realized
        witness = degree_witness(term, spec.k + n)
        report.add("homogeneous", params, witness is None, witness)
        report.add_equal("route_equivalence", params, sequence_term_ck(spec, n), term)
    return report


def axial_decompose(p: CliffordPolynomial, spec: SequenceSpec) -> AxialPair:
    """Read the chain h = {(j, i): h_{j,i}} of p, p = sum h_{j,i} x_0^j
    x̲^i P_k with rational h, and fold it into the (x_0, t) profiles with
    `axial_profiles`.

    Within a fixed power of x_0, the candidate x̲^i P_k pieces live in
    distinct homogeneous degrees, so each h_{j,i} is read off from a single
    reference coefficient and then verified exactly.  The x̲^i P_k are the
    spec's, so calls on one spec form each of them once.
    """
    if spec.context != p.context:
        raise ContextMismatchError("polynomial and initial term from different algebras")
    h = {}
    for (j, degree), component in sorted(x0_strata(p).items()):
        i = degree - spec.k
        if i < 0:
            raise NotAxialFormError(
                f"x_0^{j} slice has degree {degree} below the initial degree {spec.k}"
            )
        ratio = scalar_ratio(component, _multiple(spec, i))
        if ratio is None:
            raise NotAxialFormError(
                "homogeneous component is not a rational multiple of x̲^i times the initial term"
            )
        h[j, i] = ratio
    return AxialPair(*axial_profiles(h), spec=spec)


def vekua_witness(pair: AxialPair) -> str | None:
    """The residuals of the Vekua-type system for the axial profiles,
    written in (x_0, t):

    dA/dx_0 - (b + 2t db/dt) = (2k+m-1) b     and     db/dx_0 + 2 dA/dt = 0

    where b is the reduced odd profile (B = r b).  The residuals are the
    profiles of `pair.cauchy_riemann()`; None when both vanish."""
    residual = pair.cauchy_riemann()
    if residual.a.is_zero() and residual.b_reduced.is_zero():
        return None
    return f"residuals: ({_profile_text(residual.a)}; {_profile_text(residual.b_reduced)})"


def verify_axial(
    spec: SequenceSpec, terms: list[CliffordPolynomial] | None = None
) -> VerificationReport:
    """Axial decomposition round-trip plus the Vekua system, per term; the
    terms read the spec's x̲^i P_k, so each is formed once per spec."""
    if terms is None:
        terms = generate_sequence(spec)
    report = VerificationReport()
    for n, term in enumerate(terms):
        params = {"m": spec.m, "k": spec.k, "n": n}
        try:
            pair = axial_decompose(term, spec)
        except NotAxialFormError as exc:
            report.add("axial_reconstruction", params, False, str(exc))
            report.add("vekua_system", params, False, "no decomposition")
            continue
        report.add_equal("axial_reconstruction", params, pair.reconstruct(), term)
        witness = vekua_witness(pair)
        report.add("vekua_system", params, witness is None, witness)
    return report
