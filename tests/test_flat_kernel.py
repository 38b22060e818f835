"""The flat integer kernel against a nested-Fraction reference.

The reference below is the straightforward representation {exps: {mask:
Fraction}} with one accumulate loop per operation.  It is kept here, in
the tests only, as the oracle the flat (exps, mask) -> int kernel must
agree with exactly.
"""

import copy
from fractions import Fraction
from math import gcd

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from monappell.algebra import AlgebraContext, Multivector, blade_product
from monappell.operators import dirac, laplacian
from monappell.polynomials import CliffordPolynomial, first_difference
from monappell.sequences import SequenceSpec, sequence_term_explicit
from strategies import multivectors, polynomials


def nested(p: CliffordPolynomial) -> dict:
    return {exps: dict(coeff.terms) for exps, coeff in p.terms.items()}


def _accumulate(contributions) -> dict:
    acc: dict = {}
    for exps, mask, q in contributions:
        slot = acc.setdefault(exps, {})
        slot[mask] = slot.get(mask, Fraction(0)) + q
    cleaned = {exps: {mk: q for mk, q in slot.items() if q} for exps, slot in acc.items()}
    return {exps: slot for exps, slot in cleaned.items() if slot}


def ref_sum(a: dict, b: dict, sign: int = 1) -> dict:
    return _accumulate(
        [(e, mk, q) for e, slot in a.items() for mk, q in slot.items()]
        + [(e, mk, sign * q) for e, slot in b.items() for mk, q in slot.items()]
    )


def ref_product(a: dict, b: dict) -> dict:
    def contributions():
        for ea, ca in a.items():
            for eb, cb in b.items():
                exps = tuple(x + y for x, y in zip(ea, eb))
                for ma, qa in ca.items():
                    for mb, qb in cb.items():
                        sign, mask = blade_product(ma, mb)
                        yield exps, mask, sign * qa * qb

    return _accumulate(contributions())


def _lowered(exps, i, by):
    return exps[:i] + (exps[i] - by,) + exps[i + 1 :]


def ref_dirac(a: dict, m: int) -> dict:
    return _accumulate(
        (_lowered(exps, j, 1), prod, sign * exps[j] * q)
        for exps, slot in a.items()
        for j in range(1, m + 1)
        if exps[j]
        for mask, q in slot.items()
        for sign, prod in [blade_product(1 << (j - 1), mask)]
    )


def ref_laplacian(a: dict, m: int) -> dict:
    return _accumulate(
        (_lowered(exps, i, 2), mask, exps[i] * (exps[i] - 1) * q)
        for exps, slot in a.items()
        for i in range(m + 1)
        if exps[i] > 1
        for mask, q in slot.items()
    )


def assert_canonical(p: CliffordPolynomial) -> None:
    assert p.denominator > 0
    assert all(p.numerators.values())
    assert gcd(p.denominator, *p.numerators.values()) == 1
    if p.is_zero():
        assert p.denominator == 1


MS = [2, 3, 4]


def rich_polynomials(ctx: AlgebraContext):
    return polynomials(ctx, max_terms=4)


@pytest.mark.parametrize("m", MS)
@settings(max_examples=40)
@given(data=st.data())
def test_product_matches_reference(m, data):
    ctx = AlgebraContext(m)
    p, q = data.draw(rich_polynomials(ctx)), data.draw(rich_polynomials(ctx))
    product = p * q
    assert_canonical(product)
    assert nested(product) == ref_product(nested(p), nested(q))


@pytest.mark.parametrize("m", MS)
@settings(max_examples=40)
@given(data=st.data())
def test_sum_and_difference_match_reference(m, data):
    ctx = AlgebraContext(m)
    p, q = data.draw(rich_polynomials(ctx)), data.draw(rich_polynomials(ctx))
    assert nested(p + q) == ref_sum(nested(p), nested(q))
    assert nested(p - q) == ref_sum(nested(p), nested(q), -1)
    assert nested(-q) == ref_sum({}, nested(q), -1)
    for result in (p + q, p - q, -q):
        assert_canonical(result)


@pytest.mark.parametrize("m", MS)
@settings(max_examples=40)
@given(data=st.data())
def test_dirac_and_laplacian_match_reference(m, data):
    ctx = AlgebraContext(m)
    p = data.draw(rich_polynomials(ctx))
    assert nested(dirac(p)) == ref_dirac(nested(p), m)
    assert nested(laplacian(p)) == ref_laplacian(nested(p), m)
    assert_canonical(dirac(p))
    assert_canonical(laplacian(p))


@pytest.mark.parametrize("m", MS)
@settings(max_examples=40)
@given(data=st.data())
def test_multivector_scaling_matches_reference(m, data):
    ctx = AlgebraContext(m)
    p = data.draw(rich_polynomials(ctx))
    a = data.draw(multivectors(ctx))
    constant = {(0,) * (m + 1): dict(a.terms)} if not a.is_zero() else {}
    assert nested(a * p) == ref_product(constant, nested(p))
    assert nested(p * a) == ref_product(nested(p), constant)


@pytest.mark.parametrize("m, k, n", [(3, 2, 4), (4, 1, 5)])
def test_sequence_term_kernels_match_reference(m, k, n):
    spec = SequenceSpec.builtin(m, k, n)
    term = sequence_term_explicit(spec, n)
    assert nested(dirac(term)) == ref_dirac(nested(term), m)
    assert nested(laplacian(term)) == ref_laplacian(nested(term), m)
    assert nested(term * spec.pk) == ref_product(nested(term), nested(spec.pk))


@settings(max_examples=40)
@given(data=st.data())
def test_build_order_does_not_change_the_stored_form(data):
    ctx = AlgebraContext(3)
    parts = data.draw(st.lists(rich_polynomials(ctx), min_size=1, max_size=4))
    forward = CliffordPolynomial.zero(ctx)
    for part in parts:
        forward = forward + part
    backward = CliffordPolynomial.zero(ctx)
    for part in reversed(parts):
        backward = part + backward
    assert forward.numerators == backward.numerators
    assert forward.denominator == backward.denominator
    rebuilt = CliffordPolynomial(ctx, forward.terms)
    assert (rebuilt.numerators, rebuilt.denominator) == (forward.numerators, forward.denominator)
    assert_canonical(forward)


def test_common_factors_are_divided_out():
    ctx = AlgebraContext(2)
    x1 = CliffordPolynomial.variable(ctx, 1)
    p = Fraction(2, 3) * x1 + Fraction(4, 3) * CliffordPolynomial.constant(ctx, ctx.e(1))
    assert p.denominator == 3
    assert sorted(p.numerators.values()) == [2, 4]
    halved = Fraction(3, 2) * p
    assert halved.denominator == 1
    assert sorted(halved.numerators.values()) == [1, 2]


def test_zero_polynomial_has_denominator_one():
    ctx = AlgebraContext(3)
    p = Fraction(1, 7) * CliffordPolynomial.variable(ctx, 2)
    for zero in (CliffordPolynomial.zero(ctx), p - p, 0 * p, dirac(CliffordPolynomial.one(ctx))):
        assert zero.is_zero()
        assert zero.numerators == {} and zero.denominator == 1
        assert zero == CliffordPolynomial.zero(ctx)


def test_corrupted_numerator_is_caught_with_a_witness():
    spec = SequenceSpec.builtin(3, 1, 2)
    term = sequence_term_explicit(spec, 2)
    key = sorted(term.numerators)[0]
    corrupted = copy.copy(term)
    corrupted.numerators = dict(term.numerators)
    corrupted.numerators[key] += 1
    assert corrupted != term
    exps, mask = key
    witness = first_difference(corrupted, term)
    blade = [j + 1 for j in range(mask.bit_length()) if mask >> j & 1]
    delta = Fraction(1, term.denominator)
    assert witness == (
        f"monomial {list(exps)}, blade {blade}: "
        f"difference {delta.numerator}/{delta.denominator}"
    )


def test_terms_view_is_rebuilt_on_each_access():
    ctx = AlgebraContext(2)
    p = CliffordPolynomial.monomial(ctx, (0, 1, 0), Multivector(ctx, {0: Fraction(1, 2), 3: 5}))
    view = p.terms
    assert view == {(0, 1, 0): Multivector(ctx, {0: Fraction(1, 2), 3: 5})}
    assert p.terms is not view
    view.clear()
    assert p.terms
