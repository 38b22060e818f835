import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from monappell.algebra import (
    AlgebraContext,
    Multivector,
    blade_product,
    indices_to_mask,
    mask_to_indices,
)
from monappell.errors import ContextMismatchError
from monappell.polynomials import CliffordPolynomial
from strategies import multivectors, rationals

CTX3 = AlgebraContext(3)


@pytest.mark.parametrize(
    "a, b, sign, result",
    [
        ((1,), (1,), -1, ()),  # e1 e1 = -1
        ((1,), (2,), +1, (1, 2)),  # already canonical
        ((1, 2), (2,), -1, (1,)),  # e1 e2 e2 = -e1
        ((2,), (1,), -1, (1, 2)),  # one swap
        ((1, 2), (1, 3), +1, (2, 3)),
        ((), (1, 2), +1, (1, 2)),
    ],
)
def test_blade_product_cases(a, b, sign, result):
    got_sign, got_mask = blade_product(indices_to_mask(a, 3), indices_to_mask(b, 3))
    assert (got_sign, mask_to_indices(got_mask)) == (sign, result)


def test_generator_relations():
    for m in (2, 3, 4, 5):
        ctx = AlgebraContext(m)
        for j in range(1, m + 1):
            assert ctx.e(j) * ctx.e(j) == ctx.scalar(-1)
            for k in range(1, m + 1):
                if j != k:
                    assert ctx.e(j) * ctx.e(k) + ctx.e(k) * ctx.e(j) == ctx.zero()


def test_multiply_examples():
    one, e1 = CTX3.one(), CTX3.e(1)
    assert (one + e1) * (one - e1) == CTX3.scalar(2)
    e12 = CTX3.blade((1, 2))
    assert e12 * e12 == CTX3.scalar(-1)


def test_conjugate_examples():
    assert CTX3.e(1).conjugate() == -CTX3.e(1)
    assert CTX3.one().conjugate() == CTX3.one()
    e12 = CTX3.blade((1, 2))
    assert e12.conjugate() == -e12
    e123 = CTX3.blade((1, 2, 3))
    assert e123.conjugate() == e123


def test_grade_projection():
    a = CTX3.scalar(3) + 2 * CTX3.e(1) + CTX3.blade((1, 2))
    assert a.grade_projection(1) == 2 * CTX3.e(1)
    assert a.grade_projection(0) == CTX3.scalar(3)
    assert CTX3.scalar(Fraction(5, 7)).grade_projection(0) == CTX3.scalar(Fraction(5, 7))
    with pytest.raises(ValueError):
        a.grade_projection(4)
    with pytest.raises(ValueError):
        a.grade_projection(-1)


def test_dimension_bounds():
    with pytest.raises(ValueError):
        AlgebraContext(0)
    with pytest.raises(ValueError):
        AlgebraContext(17)
    AlgebraContext(16)


def test_blade_indices_must_be_strictly_increasing():
    """e_2 e_1 = -e_12, and a mask carries no sign, so [2, 1] is refused
    rather than read as +e_12; a repeated index keeps its own message."""
    assert CTX3.e(2) * CTX3.e(1) == -CTX3.blade((1, 2))
    for indices in ((2, 1), (1, 3, 2)):
        with pytest.raises(ValueError, match='"blade" indices must be strictly increasing'):
            CTX3.blade(indices)
        entry = {"blade": list(indices), "q": "1"}
        document = {"m": 3, "terms": [{"exps": [0, 0, 0, 0], "coeff": [entry]}]}
        with pytest.raises(ValueError, match='"blade" indices must be strictly increasing'):
            CliffordPolynomial.from_json_dict(document)
    with pytest.raises(ValueError, match="repeated generator index 2"):
        CTX3.blade((2, 2))


def test_context_mismatch():
    with pytest.raises(ContextMismatchError):
        AlgebraContext(2).e(1) * AlgebraContext(3).e(1)
    with pytest.raises(ContextMismatchError):
        AlgebraContext(2).e(1) + AlgebraContext(3).e(1)


def test_canonical_form_drops_zeros():
    a = Multivector(CTX3, {0: Fraction(0), 1: Fraction(2)})
    assert list(a.terms) == [1]
    assert (a - a).is_zero()


def _random_mv(rng, ctx, max_terms=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mask = rng.randrange(ctx.blade_count)
        terms[mask] = terms.get(mask, Fraction(0)) + Fraction(
            rng.randint(-6, 6), rng.randint(1, 4)
        )
    return Multivector(ctx, terms)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_associativity_seeded(m):
    rng = random.Random(1000 + m)
    ctx = AlgebraContext(m)
    for _ in range(100):
        a, b, c = (_random_mv(rng, ctx) for _ in range(3))
        assert (a * b) * c == a * (b * c)


@pytest.mark.parametrize("m", [2, 3])
@given(data=st.data())
def test_conjugation_antiautomorphism(m, data):
    ctx = AlgebraContext(m)
    a = data.draw(multivectors(ctx))
    b = data.draw(multivectors(ctx))
    assert (a * b).conjugate() == b.conjugate() * a.conjugate()


@pytest.mark.parametrize("m", [2, 3])
@given(data=st.data())
def test_distributivity_and_scalar_centrality(m, data):
    ctx = AlgebraContext(m)
    a = data.draw(multivectors(ctx))
    b = data.draw(multivectors(ctx))
    c = data.draw(multivectors(ctx))
    q = data.draw(rationals)
    assert a * (b + c) == a * b + a * c
    assert (q * a) * b == q * (a * b) == a * (q * b)


@pytest.mark.parametrize("m", [2, 3])
@given(data=st.data())
def test_grade_reconstruction(m, data):
    ctx = AlgebraContext(m)
    a = data.draw(multivectors(ctx))
    total = ctx.zero()
    for g in range(m + 1):
        total = total + a.grade_projection(g)
    assert total == a


@given(data=st.data())
def test_json_round_trip(data):
    """A multivector coefficient goes through the interchange schema intact."""
    a = data.draw(multivectors(CTX3))
    p = CliffordPolynomial.monomial(CTX3, (0, 1, 0, 0), a)
    encoded = p.to_json_dict()
    assert CliffordPolynomial.from_json_dict(encoded) == p
    # blades appear sorted by grade then mask, coefficients as num/den text
    entries = [item for term in encoded["terms"] for item in term["coeff"]]
    masks = [indices_to_mask(item["blade"], 3) for item in entries]
    assert masks == sorted(a.terms, key=lambda mask: (mask.bit_count(), mask))
    assert all("/" in item["q"] for item in entries)


@pytest.mark.parametrize("terms", [{0: 0.1}, {0: True}, {0: "1/2"}, {1.0: 1}, {True: 1}])
def test_multivector_rejects_inexact_keys_and_values(terms):
    with pytest.raises(ValueError):
        Multivector(CTX3, terms)


def test_dimension_must_be_a_real_integer():
    for m in (True, 2.0):
        with pytest.raises(ValueError):
            AlgebraContext(m)
    with pytest.raises(ValueError):
        CTX3.scalar(0.5)
