import random
from dataclasses import replace
from fractions import Fraction

import pytest

from monappell.algebra import AlgebraContext
from monappell.bivariate import AxialPair, axial_profiles
from monappell.operators import cauchy_riemann
from monappell.polynomials import CliffordPolynomial, radius_squared, vector_power
from monappell.report import VerificationReport
from monappell.sampling import random_initial_term
from monappell.sequences import SequenceSpec
from strategies import PLANE, T, profile

CTX3 = AlgebraContext(3)


def test_arithmetic():
    p = profile({(1, 0): 1, (0, 1): Fraction(-1, 2)})  # x0 - t/2
    q = profile({(0, 1): 2})  # 2t
    assert p + q == profile({(1, 0): 1, (0, 1): Fraction(3, 2)})
    assert p - p == CliffordPolynomial.zero(PLANE)
    assert p * q == profile({(1, 1): 2, (0, 2): -1})
    assert 3 * p == p * 3
    assert (0 * p).is_zero()


def test_derivatives_and_times_t():
    p = profile({(2, 1): 1})  # x0^2 t
    assert p.partial_derivative(0) == profile({(1, 1): 2})
    assert p.partial_derivative(1) == profile({(2, 0): 1})
    assert p * T == profile({(2, 2): 1})
    assert CliffordPolynomial.one(PLANE).partial_derivative(0).is_zero()


def test_evaluate():
    p = profile({(1, 1): Fraction(1, 3), (0, 0): 2})
    assert p.evaluate((3, Fraction(1, 2))).scalar_part() == Fraction(1, 2) + 2


def _on_one(ctx: AlgebraContext, a: CliffordPolynomial) -> AxialPair:
    """The pair (a, 0) on P_0 = 1 of `ctx`, whose reconstruction is a with t read as r^2."""
    spec = SequenceSpec(m=ctx.m, k=0, pk=CliffordPolynomial.one(ctx), n_max=0)
    return AxialPair(a=a, b_reduced=CliffordPolynomial.zero(PLANE), spec=spec)


def test_reconstruct_reads_t_as_radius_squared():
    """t becomes x_1^2 + ... + x_m^2, at m = 3 and at m = 1, where the
    profile and its reconstruction share R_{0,1} and only literal equality
    tells x0 t - 5 from x0 x1^2 - 5.  A polynomial of another algebra or
    with a blade is refused as a profile."""
    p = profile({(1, 1): 1, (0, 0): -5})  # x0 t - 5
    for ctx in (CTX3, PLANE):
        x0 = CliffordPolynomial.variable(ctx, 0)
        expected = x0 * radius_squared(ctx) - CliffordPolynomial.constant(ctx, 5)
        assert _on_one(ctx, p).reconstruct() == expected
    assert _on_one(PLANE, p).reconstruct() != p
    for stray in (CliffordPolynomial.one(CTX3), CliffordPolynomial.constant(PLANE, PLANE.e(1))):
        with pytest.raises(ValueError, match="a profile is a scalar polynomial on R_{0,1}"):
            _on_one(CTX3, stray).reconstruct()


def test_rejects_negative_exponents():
    with pytest.raises(ValueError):
        profile({(-1, 0): 1})
    with pytest.raises(ValueError):
        axial_profiles({(-1, 0): 1})


def test_axial_profiles_fold_vector_powers():
    """x_0^j x̲^i folds as x_0^j (-t)^(i//2) x̲^(i%2), checked against the
    m-variable powers: sum h x_0^j x̲^i == A + x̲ b once t is |x̲|^2."""
    h = {(2, 0): 3, (1, 1): Fraction(1, 2), (0, 2): -1, (1, 3): 2, (0, 4): 5, (0, 5): -7}
    a, b = axial_profiles(h)
    assert a == profile({(2, 0): 3, (0, 1): 1, (0, 2): 5})
    assert b == profile({(1, 0): Fraction(1, 2), (1, 1): -2, (0, 2): -7})
    x0 = CliffordPolynomial.variable(CTX3, 0)
    direct = sum(
        (coeff * (x0**j * vector_power(CTX3, i)) for (j, i), coeff in h.items()),
        CliffordPolynomial.zero(CTX3),
    )
    spec = SequenceSpec(m=3, k=0, pk=CliffordPolynomial.one(CTX3), n_max=0)
    pair = AxialPair(a=a, b_reduced=b, spec=spec)
    assert pair.reconstruct() == direct


def _random_profile(rng: random.Random) -> CliffordPolynomial:
    """Three draws of c x_0^a t^l with a <= 2, l <= 1 and c nonzero; never zero."""
    terms = {}
    for _ in range(3):
        coeff = Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))
        terms[rng.randrange(3), rng.randrange(2)] = coeff
    return profile(terms)


@pytest.mark.parametrize("m", range(2, 7))
@pytest.mark.parametrize("k", range(4))
def test_profile_cauchy_riemann_is_the_full_operator(m, k):
    """The profile operator against operators.cauchy_riemann on the
    m-variable expansion, on random profiles and a random P_k.  Negative
    control: 2k+m-1 or 2k+m+1 in place of 2k+m, that is A_0 - 2t b_t
    shifted by +b or -b, fails with a first_difference witness."""
    rng = random.Random(10 * m + k)
    ctx = AlgebraContext(m)
    report, controls = VerificationReport(), VerificationReport()
    for _ in range(3):
        spec = SequenceSpec(m=m, k=k, pk=random_initial_term(rng, ctx, k), n_max=0)
        pair = AxialPair(a=_random_profile(rng), b_reduced=_random_profile(rng), spec=spec)
        full = cauchy_riemann(pair.reconstruct())
        image = pair.cauchy_riemann()
        params = {"m": m, "k": k}
        report.add_equal("profile_cauchy_riemann", params, full, image.reconstruct())
        for shift in (pair.b_reduced, -pair.b_reduced):
            off = replace(image, a=image.a + shift)
            controls.add_equal("profile_cauchy_riemann", params, full, off.reconstruct())
    assert report.all_passed, report.failures()
    assert len(controls.failures()) == len(controls.entries) == 6
    assert all(entry.witness for entry in controls.entries)
