import json
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from monappell import polynomials as kernel
from monappell import sequences
from monappell.algebra import AlgebraContext, Multivector
from monappell.coefficients import lowering_factor
from monappell.errors import ContextMismatchError, DegreeLimitError, InvalidInitialTermError
from monappell.fueter import fueter_order
from monappell.initial_terms import builtin_initial_term
from monappell.operators import require_initial_term
from monappell.polynomials import (
    CliffordPolynomial,
    first_difference,
    from_entries,
    radius_squared,
    scalar_ratio,
    unit_exps,
    vector_power,
    vector_variable,
)
from monappell.sequences import SequenceSpec, sequence_term_ck, sequence_term_explicit
from strategies import polynomials, rational_points, rationals

CTX3 = AlgebraContext(3)


@pytest.mark.parametrize("m", [2, 3, 5])
def test_vector_variable_squares_to_minus_radius(m):
    ctx = AlgebraContext(m)
    xv = vector_variable(ctx)
    assert xv * xv == -radius_squared(ctx)


def test_unit_multiplication():
    p = CliffordPolynomial.variable(CTX3, 0) + vector_variable(CTX3)
    assert p * CliffordPolynomial.one(CTX3) == p
    assert CliffordPolynomial.one(CTX3) * p == p


def fresh_vector_variable(ctx: AlgebraContext) -> CliffordPolynomial:
    """sum_j x_j e_j built here term by term, outside every memo."""
    total = CliffordPolynomial.zero(ctx)
    for j in range(1, ctx.m + 1):
        total = total + CliffordPolynomial.monomial(ctx, unit_exps(ctx.m, j), ctx.e(j))
    return total


@pytest.mark.parametrize("n", range(10))
def test_vector_power_matches_repeated_product(n):
    """The closed form read from the memoized ladder against the memo-free
    product, for m = 1..6; the second read of each power is a memo hit."""
    for m in range(1, 7):
        ctx = AlgebraContext(m)
        xv = fresh_vector_variable(ctx)
        assert vector_variable(ctx) == xv
        assert vector_power(ctx, n) == xv**n
        assert vector_power(ctx, n) == xv**n


def test_ladder_entries_survive_their_uses():
    """Memoized powers are shared values: negating, scaling and multiplying
    them by P_k, and passing them through the P_0 gate, leaves each memo
    entry equal to the memo-free product."""
    xv = fresh_vector_variable(CTX3)
    pk = builtin_initial_term(CTX3, 2)
    for n in range(6):
        value = vector_power(CTX3, n)
        for use in (-value, Fraction(-3, 2) * value, value * pk, pk * value, value - value):
            assert use is not value
        if n == 0:
            require_initial_term(value, 0)  # the constant 1 is a valid P_0
        else:
            with pytest.raises(InvalidInitialTermError):
                require_initial_term(value, 0)
        assert vector_power(CTX3, n) == xv**n
    assert radius_squared(CTX3) == -(xv**2)


def test_explicit_route_never_reads_the_ladder(monkeypatch):
    """The explicit route iterates its own power * x̲, so it stays
    independent of the closed form the CK route reads."""
    spec = SequenceSpec.builtin(3, 1, 4)
    expected = [sequence_term_ck(spec, n) for n in range(5)]

    def forbidden(*args):
        raise AssertionError("the explicit route read a memoized power")

    monkeypatch.setattr(kernel, "_radius_ladder", forbidden)
    for module in (kernel, sequences):
        monkeypatch.setattr(module, "vector_power", forbidden)
    assert [sequence_term_explicit(spec, n) for n in range(5)] == expected
    with pytest.raises(AssertionError):  # negative control: the CK route does read it
        sequence_term_ck(SequenceSpec.builtin(3, 1, 4), 2)  # a fresh spec holds no x̲^i P_k


def test_scalar_ratio_examples_and_zero_reference():
    """h with target = h * reference, None when no such h exists, and a
    ValueError naming the fault when the reference is zero (there is no
    pivot term to read h from)."""
    xv, zero = vector_variable(CTX3), CliffordPolynomial.zero(CTX3)
    assert scalar_ratio(Fraction(-3, 2) * xv, xv) == Fraction(-3, 2)
    assert scalar_ratio(zero, xv) == 0
    assert scalar_ratio(xv * xv, xv) is None
    for target in (xv, zero):
        with pytest.raises(ValueError, match="nonzero reference"):
            scalar_ratio(target, zero)


INDEXED = {
    "variable": lambda i: CliffordPolynomial.variable(CTX3, i),
    "partial_derivative": lambda i: vector_variable(CTX3).partial_derivative(i),
    "grade_projection": lambda i: CTX3.e(1).grade_projection(i),
    "lowering_factor": lambda i: lowering_factor(3, 1, i),
    "fueter_order": lambda i: fueter_order(3, i),
}


@pytest.mark.parametrize("value", [True, 1.0])
@pytest.mark.parametrize("name", list(INDEXED))
def test_indices_and_degrees_are_exact_ints(name, value):
    """An index or degree that only equals 1 is rejected by name, not read
    as 1 (True) or left to fail as a bare TypeError or a float result."""
    INDEXED[name](1)
    with pytest.raises(ValueError, match=f"must be an integer, got {value!r}"):
        INDEXED[name](value)


@pytest.mark.parametrize("n", [True, 2.0, Fraction(2), -1])
def test_powers_take_exact_non_negative_ints(n):
    """A bool, a float or a Fraction exponent is rejected before any memo is
    read: 2.0 and Fraction(2) hash as the int 2, whose entry is filled here."""
    xv = vector_variable(CTX3)
    assert vector_power(CTX3, 2) == xv**2
    message = "negative powers" if n == -1 else "must be an integer"
    for power in (lambda: vector_power(CTX3, n), lambda: xv**n):
        with pytest.raises(ValueError, match=message):
            power()


def test_partial_derivative_examples():
    p = CliffordPolynomial.monomial(CTX3, (0, 2, 0, 0), CTX3.e(2))  # x1^2 e2
    expected = CliffordPolynomial.monomial(CTX3, (0, 1, 0, 0), 2 * CTX3.e(2))
    assert p.partial_derivative(1) == expected
    assert vector_variable(CTX3).partial_derivative(0).is_zero()
    with pytest.raises(IndexError):
        p.partial_derivative(4)


@pytest.mark.parametrize("m", [2, 3])
@given(data=st.data())
def test_mixed_partials_commute(m, data):
    ctx = AlgebraContext(m)
    p = data.draw(polynomials(ctx))
    i = data.draw(st.integers(0, m))
    j = data.draw(st.integers(0, m))
    assert p.partial_derivative(i).partial_derivative(j) == p.partial_derivative(
        j
    ).partial_derivative(i)


@pytest.mark.parametrize("m", [2, 3])
@settings(max_examples=40)
@given(data=st.data())
def test_ring_axioms(m, data):
    ctx = AlgebraContext(m)
    p = data.draw(polynomials(ctx))
    q = data.draw(polynomials(ctx))
    r = data.draw(polynomials(ctx))
    assert p * (q + r) == p * q + p * r
    assert (p * q) * r == p * (q * r)


def test_restrict_x0():
    x0 = CliffordPolynomial.variable(CTX3, 0)
    xv = vector_variable(CTX3)
    p = x0 + Fraction(1, 5) * xv
    assert p.restrict_x0() == Fraction(1, 5) * xv
    assert xv.restrict_x0() == xv
    assert not xv.depends_on_x0()
    assert p.depends_on_x0()


def test_is_homogeneous():
    x1e1 = CliffordPolynomial.monomial(CTX3, (0, 1, 0, 0), CTX3.e(1))
    x2e2 = CliffordPolynomial.monomial(CTX3, (0, 0, 1, 0), CTX3.e(2))
    assert (x1e1 - x2e2).is_homogeneous(1)
    one_plus = CliffordPolynomial.one(CTX3) + CliffordPolynomial.variable(CTX3, 1)
    assert not one_plus.is_homogeneous(1)
    zero = CliffordPolynomial.zero(CTX3)
    assert zero.is_homogeneous(0) and zero.is_homogeneous(7)


def test_evaluate_examples():
    xv = vector_variable(CTX3)
    assert xv.evaluate((0, 1, 0, 0)) == CTX3.e(1)
    p = CliffordPolynomial.variable(CTX3, 0) + xv
    assert p.evaluate((1, 1, 0, 0)) == CTX3.one() + CTX3.e(1)
    with pytest.raises(ValueError):
        p.evaluate((1, 2))


@pytest.mark.parametrize("m", [2, 3])
@settings(max_examples=40)
@given(data=st.data())
def test_evaluate_is_ring_homomorphism(m, data):
    ctx = AlgebraContext(m)
    p = data.draw(polynomials(ctx))
    q = data.draw(polynomials(ctx))
    point = data.draw(rational_points(ctx))
    assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
    assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)


def test_context_mismatch():
    with pytest.raises(ContextMismatchError):
        vector_variable(AlgebraContext(2)) * vector_variable(AlgebraContext(3))


def test_scalar_product_rule_for_scalar_left_factor():
    # derivative is a derivation when the left factor commutes with everything
    phi = CliffordPolynomial.variable(CTX3, 1) ** 2
    g = vector_variable(CTX3) * CTX3.blade((1, 2))
    for i in range(4):
        lhs = (phi * g).partial_derivative(i)
        rhs = phi.partial_derivative(i) * g + phi * g.partial_derivative(i)
        assert lhs == rhs


def test_json_schema_round_trip():
    p = (
        CliffordPolynomial.variable(CTX3, 0)
        + Fraction(1, 3) * vector_variable(CTX3)
        + CliffordPolynomial.monomial(CTX3, (0, 1, 1, 0), CTX3.blade((1, 2)))
    )
    payload = p.to_json_dict()
    text = json.dumps(payload)
    assert CliffordPolynomial.from_json_dict(json.loads(text)) == p
    # serialization is deterministic: terms in graded-lex order
    assert payload["terms"] == sorted(
        payload["terms"], key=lambda t: (sum(t["exps"]), tuple(-a for a in t["exps"]))
    )
    assert json.dumps(CliffordPolynomial.from_json_dict(json.loads(text)).to_json_dict()) == text


@pytest.mark.parametrize("m", [2, 3])
@given(data=st.data())
def test_json_round_trip_random(m, data):
    ctx = AlgebraContext(m)
    p = data.draw(polynomials(ctx))
    assert CliffordPolynomial.from_json_dict(p.to_json_dict()) == p


def test_first_difference():
    p = vector_variable(CTX3)
    assert first_difference(p, p) is None
    q = p + CliffordPolynomial.monomial(CTX3, unit_exps(3, 1), CTX3.scalar(Fraction(1, 2)))
    witness = first_difference(q, p)
    assert witness is not None and "1/2" in witness


def test_coefficient_reads_one_monomial():
    term = sequence_term_explicit(SequenceSpec.builtin(3, 2, 3), 3)
    terms = term.terms
    assert len(terms) > 10
    for exps, coeff in terms.items():
        assert term.coefficient(exps) == coeff
        assert term.coefficient(list(exps)) == coeff
    zero = CTX3.zero()
    absent = (5, 0, 0, 0)
    assert absent not in terms
    for exps in (absent, (0, 0, 0), (0, 0, 0, 0, 0), (1, -1, 2, 3), (0, 1.0, 0, 0)):
        assert term.coefficient(exps) == zero
    assert CliffordPolynomial.zero(CTX3).coefficient((0, 0, 0, 0)) == zero


def test_invalid_constructions():
    with pytest.raises(ValueError):
        CliffordPolynomial(CTX3, {(0, 1): CTX3.one()})
    with pytest.raises(ValueError):
        CliffordPolynomial(CTX3, {(0, -1, 0, 0): CTX3.one()})
    with pytest.raises(ContextMismatchError):
        CliffordPolynomial(CTX3, {(0, 0, 0, 0): AlgebraContext(2).one()})
    with pytest.raises(ValueError):
        vector_power(CTX3, -1)
    for coeff in (0.5, 3, True, None):
        with pytest.raises(ValueError, match=f"coefficient must be a Multivector, got {coeff!r}"):
            CliffordPolynomial(CTX3, {(0, 0, 0, 0): coeff})


@pytest.mark.parametrize("factor", [True, False, 2.0])
@pytest.mark.parametrize(
    "operand",
    [vector_variable(CTX3), CTX3.one(), CTX3.e(2), CliffordPolynomial.one(AlgebraContext(1))],
    ids=["polynomial", "one", "e2", "bivariate"],
)
def test_scale_factors_must_be_exact(operand, factor):
    """Scaling takes an int or a Fraction on either side; a bool or a float
    is a TypeError, not the operand or its zero passed back."""
    with pytest.raises(TypeError):
        operand * factor
    with pytest.raises(TypeError):
        factor * operand
    assert operand * 2 == 2 * operand == operand + operand
    assert operand * Fraction(1, 2) + Fraction(1, 2) * operand == operand


def test_constructor_rejects_inexact_exponents():
    for exps in ((0, 1.0, 0, 0), (0, True, 0, 0)):
        with pytest.raises(ValueError):
            CliffordPolynomial(CTX3, {exps: CTX3.one()})


@pytest.mark.parametrize("text, value", [("7", 7), ("-2/4", Fraction(-1, 2)), ("+3/1", 3)])
def test_json_rational_forms_accepted(text, value):
    data = {"m": 1, "terms": [{"exps": [0, 0], "coeff": [{"blade": [], "q": text}]}]}
    p = CliffordPolynomial.from_json_dict(data)
    assert p == CliffordPolynomial.constant(AlgebraContext(1), value)


@pytest.mark.parametrize(
    "field, value",
    [
        ("q", 0.5),
        ("q", 2),
        ("q", "0.5"),
        ("q", "1e3"),
        ("q", "1/0"),
        ("q", "1/-2"),
        ("exps", [0, 1.0]),
        ("exps", [0, False]),
        ("exps", [0, 1, 0]),
        ("blade", [1.0]),
        ("m", 1.0),
        ("m", True),
    ],
)
def test_json_rejects_inexact_fields(field, value):
    term = {"exps": [0, 1], "coeff": [{"blade": [1], "q": "1/2"}]}
    data = {"m": 1, "terms": [term]}
    if field == "m":
        data["m"] = value
    elif field == "exps":
        term["exps"] = value
    else:
        term["coeff"][0][field] = value
    with pytest.raises(ValueError, match=field):
        CliffordPolynomial.from_json_dict(data)


@pytest.mark.parametrize(
    "coeff, message",
    [
        (5, '"coeff" must be a list, got 5'),
        ({"blade": [1], "q": "1"}, "\"coeff\" must be a list, got {'blade'"),
        ("[]", '"coeff" must be a list'),
    ],
)
def test_json_coeff_requires_a_list(coeff, message):
    """A non-list "coeff" is rejected as a whole: an int is not iterated into
    a TypeError, and a lone entry object is not iterated by its keys."""
    data = {"m": 1, "terms": [{"exps": [0, 1], "coeff": coeff}]}
    with pytest.raises(ValueError, match=message):
        CliffordPolynomial.from_json_dict(data)


def test_from_entries_sums_and_normalizes():
    entries = [
        ((0, 1, 0, 0), 0b11, 1, 2),
        ((0, 1, 0, 0), 0b11, 1, 3),
        ((2, 0, 0, 0), 0, 4, 6),
        ((0, 0, 1, 0), 0b1, 5, 1),
        ((0, 0, 1, 0), 0b1, -5, 1),  # cancels: no term is left
    ]
    p = from_entries(CTX3, entries)
    expected = {
        (0, 1, 0, 0): Multivector(CTX3, {0b11: Fraction(5, 6)}),
        (2, 0, 0, 0): Multivector(CTX3, {0: Fraction(2, 3)}),
    }
    assert p == CliffordPolynomial(CTX3, expected)
    assert from_entries(CTX3, [((0,) * 4, 5, 3, 4)], Multivector) == Multivector(
        CTX3, {5: Fraction(3, 4)}
    )
    assert from_entries(CTX3, []) == CliffordPolynomial.zero(CTX3)


@pytest.mark.parametrize(
    "entry, message",
    [
        (((0, 0, 0), 0, 1, 1), "is not 4 non-negative integers"),
        (((0, 1.0, 0, 0), 0, 1, 1), "exponent entry must be an integer"),
        (((0, 0, 0, 0), 8, 1, 1), "blade mask 0x8 out of range for m=3"),
        (((0, 0, 0, 0), True, 1, 1), "blade mask must be an integer"),
        (((0, 0, 0, 0), 0, 0.5, 1), "numerator must be an integer"),
        (((0, 0, 0, 0), 0, True, 1), "numerator must be an integer"),
        (((0, 0, 0, 0), 0, 1, 0), "denominator must be positive, got 0"),
        (((0, 0, 0, 0), 0, 1, -2), "denominator must be positive, got -2"),
        (((0, 0, 0, 0), 0, 1, 2.0), "denominator must be an integer"),
        (((0, -1, 0, 0), 0, 0, 1), "non-negative"),  # a zero numerator is checked too
    ],
)
def test_from_entries_rejects_each_bad_field(entry, message):
    with pytest.raises(ValueError, match=message):
        from_entries(CTX3, [entry])


def test_from_entries_checks_the_degree_and_the_multivector_shape():
    with pytest.raises(DegreeLimitError):
        from_entries(CTX3, [((kernel.DEGREE_LIMIT, 0, 0, 0), 0, 1, 1)])
    with pytest.raises(ValueError, match="only the constant monomial"):
        from_entries(CTX3, [((0, 1, 0, 0), 0, 1, 1)], Multivector)


def test_zero_coefficients_still_have_their_exponents_checked():
    for exps in ((0, -1, 0, 0), (0, 1.0, 0, 0), (0, 1, 0)):
        with pytest.raises(ValueError):
            CliffordPolynomial(CTX3, {exps: CTX3.zero()})
    with pytest.raises(DegreeLimitError):
        CliffordPolynomial(CTX3, {(kernel.DEGREE_LIMIT, 0, 0, 0): CTX3.zero()})


@settings(max_examples=30)
@given(data=st.data())
def test_times_x0_is_the_monomial_product(data):
    p = data.draw(polynomials(CTX3))
    j = data.draw(st.integers(0, 4))
    x0j = CliffordPolynomial.monomial(CTX3, (j, 0, 0, 0), CTX3.one())
    assert p.times_x0(j) == x0j * p


def test_times_x0_checks_its_power():
    x1 = CliffordPolynomial.variable(CTX3, 1)
    for bad in (-1, True, 1.0):
        with pytest.raises(ValueError):
            x1.times_x0(bad)
    with pytest.raises(DegreeLimitError):
        x1.times_x0(kernel.DEGREE_LIMIT - 1)
    assert list(x1.times_x0(kernel.DEGREE_LIMIT - 2).terms) == [(kernel.DEGREE_LIMIT - 2, 1, 0, 0)]


def test_is_scalar_reads_the_blade_masks():
    x1 = CliffordPolynomial.variable(CTX3, 1)
    assert x1.is_scalar() and CliffordPolynomial.zero(CTX3).is_scalar()
    assert not (x1 + vector_variable(CTX3)).is_scalar()
    assert not CliffordPolynomial.constant(CTX3, CTX3.e(3)).is_scalar()
