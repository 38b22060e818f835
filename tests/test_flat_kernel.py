"""The flat integer kernel against a nested-Fraction reference.

The reference below is the straightforward representation {exps: {mask:
Fraction}} with one accumulate loop per operation.  It is kept here, in
the tests only, as the oracle the flat kernel (an int numerator per
packed (monomial, blade) key) must agree with exactly; its blade signs
come from a brute-force sort of the generator lists, not from the
package's closed-form `sign_mask`.  Multivectors, the
degree-0 case of that kernel (an int numerator per blade mask), and
(x_0, t) profiles, scalar polynomials on R_{0,1} (the kernel at m = 1),
are checked through the Fractions of their `terms` views against plain
dict-of-Fraction loops too, and every result must be in the canonical
flat form.
"""

import copy
import io
import tokenize
from fractions import Fraction
from math import factorial, gcd
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from monappell import polynomials as kernel
from monappell import algebra
from monappell.algebra import AlgebraContext, Multivector, blade_product
from monappell.bivariate import axial_profiles
from monappell.operators import dirac, laplacian
from monappell.errors import ContextMismatchError, DegreeLimitError
from monappell.polynomials import (
    DEGREE_LIMIT,
    CliffordPolynomial,
    first_difference,
    key_layout,
    linear_combination,
    vector_variable,
)
from monappell.report import VerificationReport
from monappell.sequences import SequenceSpec, sequence_term_explicit
from strategies import T, multivectors, polynomials, profile, rationals


def ref_blade_product(a: int, b: int) -> tuple[int, int]:
    """e_a e_b by brute force: bubble-sort the concatenated generator lists,
    one sign flip per swap, then contract each shared generator, e_j e_j = -1."""
    left = [j + 1 for j in range(a.bit_length()) if a >> j & 1]
    right = [j + 1 for j in range(b.bit_length()) if b >> j & 1]
    word, sign = left + right, 1
    for end in range(len(word) - 1, 0, -1):
        for i in range(end):
            if word[i] > word[i + 1]:
                word[i], word[i + 1] = word[i + 1], word[i]
                sign = -sign
    shared = set(left) & set(right)
    mask = sum(1 << (j - 1) for j in set(left) ^ set(right))
    return (-1) ** len(shared) * sign, mask


def sign_witness() -> tuple[int, int] | None:
    """The first mask pair of R_{0,6} where blade_product and the brute force differ."""
    pairs = ((a, b) for a in range(64) for b in range(64))
    return next(((a, b) for a, b in pairs if blade_product(a, b) != ref_blade_product(a, b)), None)


def test_blade_product_matches_brute_force():
    assert sign_witness() is None
    assert ref_blade_product(0b1, 0b1) == (-1, 0)  # e1 e1 = -1
    assert ref_blade_product(0b10, 0b1) == (-1, 0b11)  # e2 e1 = -e12
    assert ref_blade_product(0b11, 0b11) == (-1, 0)  # e12 e12 = -1


def test_blade_sign_negative_control(monkeypatch):
    """R(a) built with `low` in place of `low - 1` is caught, with a witness."""

    def wrong_sign_mask(a):
        r, rest = a, a
        while rest:
            low = rest & -rest
            r ^= low
            rest ^= low
        return r

    key_layout(2)  # memoized with its Dirac sign table, so built before the patch
    monkeypatch.setattr(algebra, "sign_mask", wrong_sign_mask)
    assert sign_witness() == (1, 1)  # e1 e1 came out +1
    monkeypatch.setattr(kernel, "sign_mask", wrong_sign_mask)  # the product kernel's binding
    ctx = AlgebraContext(2)
    e1 = ctx.e(1)
    assert (e1 * e1).terms == {0: 1} != ref_sparse_product(e1.terms, e1.terms, ref_blade_product)


def test_sign_mask_memo_is_bounded():
    assert algebra.sign_mask.cache_info().maxsize == 1 << algebra.MAX_DIMENSION


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
                        sign, mask = ref_blade_product(ma, mb)
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
        for sign, prod in [ref_blade_product(1 << (j - 1), mask)]
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
    # a sum that cancels (the e_1 keys) and whose other numerators share the
    # factor 3 with the denominator: both are removed in one normal form
    e1 = CliffordPolynomial.constant(ctx, ctx.e(1))
    a, b = Fraction(2, 3) * x1 + Fraction(1, 3) * e1, Fraction(4, 3) * x1 - Fraction(1, 3) * e1
    for total, expected in (
        (linear_combination(ctx, [(1, a), (1, b)]), 2 * x1),
        (linear_combination(ctx, [(1, a, 2), (1, b, 2)]), 2 * x1.times_x0(2)),
    ):
        assert (total.numerators, total.denominator) == (expected.numerators, 1)
        assert_canonical(total)


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
    exps, mask = key_layout(3).decode(key)
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


def ref_sparse_sum(a: dict, b: dict, sign: int = 1) -> dict:
    acc = dict(a)
    for key, q in b.items():
        total = acc.get(key, Fraction(0)) + sign * q
        if total:
            acc[key] = total
        elif key in acc:
            del acc[key]
    return acc


def ref_sparse_product(a: dict, b: dict, combine) -> dict:
    """combine(key_a, key_b) -> (sign, key) of the product of two basis elements."""
    acc: dict = {}
    for ka, qa in a.items():
        for kb, qb in b.items():
            sign, key = combine(ka, kb)
            total = acc.get(key, Fraction(0)) + sign * qa * qb
            if total:
                acc[key] = total
            elif key in acc:
                del acc[key]
    return acc


def _monomial_product(ka, kb):
    return 1, (ka[0] + kb[0], ka[1] + kb[1])


@pytest.mark.parametrize("m", MS)
@settings(max_examples=40)
@given(data=st.data())
def test_multivector_arithmetic_matches_reference(m, data):
    ctx = AlgebraContext(m)
    a, b = data.draw(multivectors(ctx, max_terms=5)), data.draw(multivectors(ctx, max_terms=5))
    c, g = data.draw(rationals), data.draw(st.integers(0, m))
    assert (a + b).terms == ref_sparse_sum(a.terms, b.terms)
    assert (a - b).terms == ref_sparse_sum(a.terms, b.terms, -1)
    assert (a * b).terms == ref_sparse_product(a.terms, b.terms, ref_blade_product)
    scaled = {mask: c * q for mask, q in a.terms.items()} if c else {}
    assert (c * a).terms == scaled and (a * c).terms == scaled
    signs = {mask: -1 if mask.bit_count() % 4 in (1, 2) else 1 for mask in a.terms}
    assert a.conjugate().terms == {mask: signs[mask] * q for mask, q in a.terms.items()}
    graded = {mask: q for mask, q in a.terms.items() if mask.bit_count() == g}
    assert a.grade_projection(g).terms == graded
    rebuilt = Multivector(ctx, a.terms)
    assert rebuilt == a
    results = (a + b, a - b, a * b, c * a, a * c, -a, a.conjugate(), a.grade_projection(g))
    for result in results + (rebuilt,):
        assert all(isinstance(q, Fraction) and q for q in result.terms.values())
        assert_canonical(result)


weights = st.sampled_from([0, 1, -1]) | rationals


def binary_fold(zero, pairs):
    """sum of weight * operand by binary + and - alone."""
    total = zero
    for weight, operand in pairs:
        total = total - (-weight) * operand if weight < 0 else total + weight * operand
    return total


@pytest.mark.parametrize("m", MS)
@settings(max_examples=40)
@given(data=st.data())
def test_linear_combination_is_the_fold_of_binary_sums(m, data):
    """On polynomials and on multivectors, with mixed denominators and zero
    weights.  Appending the negated first term cancels its keys, and the
    negation of all terms cancels every key, so the zero filter runs."""
    ctx = AlgebraContext(m)
    kind = data.draw(st.sampled_from(["polynomial", "multivector"]))
    operand = rich_polynomials(ctx) if kind == "polynomial" else multivectors(ctx, max_terms=5)
    zero = CliffordPolynomial.zero(ctx) if kind == "polynomial" else ctx.zero()
    pairs = data.draw(st.lists(st.tuples(weights, operand), min_size=1, max_size=5))
    negated = [(-weight, x) for weight, x in pairs]
    total = linear_combination(ctx, pairs)
    partial = linear_combination(ctx, pairs + negated[:1])
    cancelled = linear_combination(ctx, pairs + negated)
    assert total == binary_fold(zero, pairs)
    assert partial == binary_fold(zero, pairs[1:])
    assert cancelled == zero and cancelled.numerators == {} and cancelled.denominator == 1
    for result in (total, partial, cancelled):
        assert type(result) is type(zero)
        assert_canonical(result)


@pytest.mark.parametrize("m", MS)
@settings(max_examples=40)
@given(data=st.data())
def test_shifted_sum_is_the_sum_of_shifted_copies(m, data):
    """(weight, p, j) items sum to what (weight, p.times_x0(j)) pairs sum
    to, also mixed with unshifted pairs; the negated copies cancel every key."""
    ctx = AlgebraContext(m)
    items = data.draw(
        st.lists(st.tuples(weights, rich_polynomials(ctx), st.integers(0, 4)), min_size=1, max_size=5)
    )
    copies = [(weight, p.times_x0(j)) for weight, p, j in items]
    total = linear_combination(ctx, items)
    assert total == linear_combination(ctx, copies) == binary_fold(CliffordPolynomial.zero(ctx), copies)
    assert linear_combination(ctx, items[:1] + copies[1:]) == total
    cancelled = linear_combination(ctx, items + [(-weight, p) for weight, p in copies])
    assert cancelled.numerators == {} and cancelled.denominator == 1
    for result in (total, cancelled):
        assert type(result) is CliffordPolynomial
        assert_canonical(result)


def _raised(call) -> tuple[type, str]:
    with pytest.raises(Exception) as excinfo:
        call()
    return type(excinfo.value), str(excinfo.value)


def test_a_shift_is_checked_as_times_x0_checks_it():
    """A negative, bool or float j, or one that takes the degree to
    DEGREE_LIMIT, raises what `times_x0` raises, with a zero weight too;
    the zero polynomial (degree -1) takes one power more.  A shifted
    multivector is the shifted constant polynomial."""
    ctx = AlgebraContext(3)
    x1, zero = CliffordPolynomial.variable(ctx, 1), CliffordPolynomial.zero(ctx)
    cases = [(x1, j) for j in (-1, True, 1.0, DEGREE_LIMIT - 1)] + [(zero, DEGREE_LIMIT + 1)]
    for p, j in cases:
        expected = _raised(lambda: p.times_x0(j))
        for weight in (1, 0):
            assert _raised(lambda: linear_combination(ctx, [(1, x1), (weight, p, j)])) == expected
    for p, j in ((x1, DEGREE_LIMIT - 2), (zero, DEGREE_LIMIT)):
        assert linear_combination(ctx, [(1, p, j)]) == p.times_x0(j)
    mv = Multivector(ctx, {0: Fraction(1, 2), 5: 3})
    assert linear_combination(ctx, [(2, mv, 0)]) == 2 * mv
    shifted = linear_combination(ctx, [(2, mv, 3)])
    assert shifted == 2 * CliffordPolynomial.constant(ctx, mv).times_x0(3)


def test_linear_combination_checks_its_operands_and_weights():
    ctx = AlgebraContext(3)
    p, mv = CliffordPolynomial.variable(ctx, 1), Multivector(ctx, {0: Fraction(1, 2), 5: 3})
    stranger = CliffordPolynomial.one(AlgebraContext(2))
    for context, operands in ((ctx, [p, stranger]), (AlgebraContext(2), [p])):
        with pytest.raises(ContextMismatchError):
            linear_combination(context, [(0, x) for x in operands])  # a zero weight too
    for weight in (0.5, 1.0, True, None):
        with pytest.raises(ValueError, match="weight must be an int or a Fraction"):
            linear_combination(ctx, [(1, p), (weight, p)])
    # a multivector is the constant polynomial, so a mixed sum is a polynomial
    mixed = linear_combination(ctx, [(1, p), (Fraction(2, 3), mv)])
    assert mixed == p + Fraction(2, 3) * CliffordPolynomial.constant(ctx, mv)
    assert linear_combination(ctx, []) == CliffordPolynomial.zero(ctx)


def test_one_wrong_weight_fails_with_a_witness():
    """Negative control: the CK series of x̲^3 with the weight of its x_0 term
    flipped differs from the series with every weight right, and the failed
    check names the first differing term."""
    ctx = AlgebraContext(3)
    x0, g = CliffordPolynomial.variable(ctx, 0), vector_variable(ctx) ** 3
    series, current = [], g
    while not current.is_zero():
        j = len(series)
        series.append((Fraction((-1) ** j, factorial(j)), x0**j * current))
        current = dirac(current)
    expected = binary_fold(CliffordPolynomial.zero(ctx), series)
    wrong = [(-weight if j == 1 else weight, x) for j, (weight, x) in enumerate(series)]
    report = VerificationReport()
    assert report.add_equal("ck_series", {}, linear_combination(ctx, series), expected).passed
    entry = report.add_equal("ck_series", {}, linear_combination(ctx, wrong), expected)
    assert not entry.passed
    assert entry.witness == first_difference(linear_combination(ctx, wrong), expected)
    assert entry.witness.startswith("monomial [1, ")


def test_multivector_and_polynomial_do_not_mix():
    """Both carry numerators over a denominator, so a shared helper that
    skipped the type check would mix them silently."""
    ctx = AlgebraContext(3)
    mv = Multivector(ctx, {0: Fraction(1, 2), 5: 3})
    p = CliffordPolynomial.constant(ctx, mv)
    assert (p.numerators, p.denominator) == (mv.numerators, mv.denominator)
    for mixed in (lambda: mv + p, lambda: p + mv, lambda: mv - p, lambda: p - mv):
        with pytest.raises(TypeError):
            mixed()
    assert not mv == p and not p == mv


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@settings(max_examples=30)
@given(data=st.data())
def test_multivector_operands_multiply_on_their_own_keys(m, data):
    """A multivector's bare masks are the keys of the constant monomial, so
    it multiplies a polynomial on either side as its constant() would."""
    ctx = AlgebraContext(m)
    p, a = data.draw(polynomials(ctx)), data.draw(multivectors(ctx, max_terms=4))
    constant = CliffordPolynomial.constant(ctx, a)
    for product, reference in ((p * a, p * constant), (a * p, constant * p)):
        assert product == reference
        assert_canonical(product)
    stranger = AlgebraContext(m + 1).one()
    for mixed in (lambda: p * stranger, lambda: stranger * p):
        with pytest.raises(ContextMismatchError):
            mixed()


profile_terms = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), rationals, max_size=4
)


def _scalars(p: CliffordPolynomial) -> dict:
    """{(a, l): Fraction} of a profile, read from its `terms` view."""
    return {exps: coeff.scalar_part() for exps, coeff in p.terms.items()}


@settings(max_examples=60)
@given(p_terms=profile_terms, q_terms=profile_terms, x0=rationals, t=rationals, c=rationals)
def test_profile_arithmetic_matches_reference(p_terms, q_terms, x0, t, c):
    a = {key: q for key, q in p_terms.items() if q}
    b = {key: q for key, q in q_terms.items() if q}
    p, q = profile(p_terms), profile(q_terms)
    assert _scalars(p) == a and _scalars(q) == b
    assert _scalars(p + q) == ref_sparse_sum(a, b)
    assert _scalars(p - q) == ref_sparse_sum(a, b, -1)
    assert _scalars(p * q) == ref_sparse_product(a, b, _monomial_product)
    scaled = {key: c * v for key, v in a.items()} if c else {}
    assert _scalars(c * p) == scaled and _scalars(p * c) == scaled
    assert _scalars(p.partial_derivative(0)) == {(x - 1, l): x * v for (x, l), v in a.items() if x}
    assert _scalars(p.partial_derivative(1)) == {(x, l - 1): l * v for (x, l), v in a.items() if l}
    assert _scalars(p * T) == {(x, l + 1): v for (x, l), v in a.items()}
    value = sum((v * x0**x * t**l for (x, l), v in a.items()), Fraction(0))
    assert p.evaluate((x0, t)).scalar_part() == value


@pytest.mark.parametrize("terms", [{(0, 0): 0.1}, {(0, 0): True}, {(1.5, 0): 1}])
def test_profile_constructor_rejects_inexact_input(terms):
    with pytest.raises(ValueError):
        profile(terms)
    with pytest.raises(ValueError):
        axial_profiles(terms)


@pytest.mark.parametrize("bad", [0.1, True])
def test_evaluate_rejects_float_and_bool_coordinates(bad):
    with pytest.raises(ValueError, match="point coordinate"):
        vector_variable(AlgebraContext(3)).evaluate((0, bad, 0, 0))
    with pytest.raises(ValueError, match="point coordinate"):
        profile({(1, 0): 1}).evaluate((bad, 0))
    with pytest.raises(ValueError, match="point coordinate"):
        profile({(0, 1): 1}).evaluate((0, bad))


# -- packed keys: layout, order and the degree guard --------------------------


def _exps_near_the_limit(m: int):
    """m+1 small exponents, or ones whose total degree is DEGREE_LIMIT - 1,
    the largest a key holds, with up to all of it in one field."""
    small = st.lists(st.integers(0, 4), min_size=m + 1, max_size=m + 1)

    def fill(pair):
        exps, i = pair
        exps[i] += DEGREE_LIMIT - 1 - sum(exps)
        return exps

    return small | st.tuples(small, st.integers(0, m)).map(fill)


@settings(max_examples=200)
@given(data=st.data())
def test_packed_keys_round_trip(data):
    m = data.draw(st.integers(1, 16))
    exps = tuple(data.draw(_exps_near_the_limit(m)))
    mask = data.draw(st.integers(0, (1 << m) - 1))
    layout = key_layout(m)
    key = layout.encode(exps) | mask
    assert layout.decode(key) == (exps, mask)
    assert key >> layout.degree_shift == sum(exps)
    for i, unit in enumerate(layout.units):
        if exps[i]:
            lowered = exps[:i] + (exps[i] - 1,) + exps[i + 1 :]
            assert layout.decode(key - unit) == (lowered, mask)


def _grlex_order(item):
    """The order of (exps, mask) terms before keys were packed: graded-lex
    monomials (x_0 > x_1 > ... > x_m), then blades by grade, then mask."""
    exps, mask = item
    return (sum(exps), tuple(-a for a in exps)), mask.bit_count(), mask


@settings(max_examples=100)
@given(data=st.data())
def test_packed_key_order_is_the_graded_lex_order(data):
    m = data.draw(st.integers(1, 6))
    items = data.draw(
        st.lists(
            st.tuples(_exps_near_the_limit(m).map(tuple), st.integers(0, (1 << m) - 1)),
            unique=True,
            max_size=30,
        )
    )
    layout = key_layout(m)
    keys = [layout.encode(exps) | mask for exps, mask in items]
    assert [layout.decode(key) for key in sorted(keys, key=layout.sort_key)] == sorted(
        items, key=_grlex_order
    )


@pytest.mark.parametrize("exps", [(DEGREE_LIMIT, 0, 0, 0), (0, DEGREE_LIMIT // 2, 0, DEGREE_LIMIT // 2)])
def test_monomial_at_the_degree_limit_is_rejected(exps):
    ctx = AlgebraContext(3)
    with pytest.raises(DegreeLimitError, match=f"limit {DEGREE_LIMIT}"):
        CliffordPolynomial.monomial(ctx, exps, ctx.one())
    below = tuple(a - 1 if a else 0 for a in exps)
    assert list(CliffordPolynomial.monomial(ctx, below, ctx.one()).terms) == [below]


def _half_powers():
    ctx = AlgebraContext(3)
    half = DEGREE_LIMIT // 2
    return ctx, CliffordPolynomial.monomial(ctx, (0, half, 0, 0), ctx.one()), half


def test_product_past_the_degree_limit_raises():
    ctx, p, half = _half_powers()
    q = CliffordPolynomial.monomial(ctx, (0, half - 1, 0, 0), ctx.e(1))
    assert list((p * q).terms) == [(0, DEGREE_LIMIT - 1, 0, 0)]
    with pytest.raises(DegreeLimitError, match=f"limit {DEGREE_LIMIT}"):
        p * p
    with pytest.raises(DegreeLimitError):
        (p + CliffordPolynomial.one(ctx)) * p  # the highest degree counts, not the first term


def test_product_guard_negative_control(monkeypatch):
    """Without the guard, x_1^(L/2) * x_1^(L/2) overflows the x_1 field and
    carries into x_0: the result reads as x_0, not as x_1^L."""
    ctx, p, half = _half_powers()
    monkeypatch.setattr(kernel, "DEGREE_LIMIT", 1 << 40)
    product = p * p
    assert list(product.terms) == [(1, 0, 0, 0)]
    assert list(product.terms) != [(0, 2 * half, 0, 0)]


# Names of the packed key layout and of the flat form; only polynomials.py
# may use them.
LAYOUT_NAMES = {
    "FIELD_MASK", "key_layout", "KeyLayout", "_normalized", "_collect", "_grouped",
    "_product", "_from_ratios",
}


def layout_uses(source: str) -> list[str]:
    """The layout names in source code, and each read of `.numerators`;
    comments and strings do not count."""
    found, previous = [], None
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.NAME:
            if token.string in LAYOUT_NAMES:
                found.append(token.string)
            elif token.string == "numerators" and previous == ".":
                found.append(".numerators")
        if token.type not in (tokenize.NL, tokenize.COMMENT):
            previous = token.string
    return found


def test_only_polynomials_knows_the_key_layout():
    src = Path(kernel.__file__).parent
    modules = sorted(path for path in src.glob("*.py") if path.name != "polynomials.py")
    assert len(modules) > 10
    uses = {path.name: layout_uses(path.read_text(encoding="utf-8")) for path in modules}
    assert {name: found for name, found in uses.items() if found} == {}


def test_layout_scan_negative_control():
    leaky = "from .polynomials import key_layout, _product\nq = p.numerators  # numerators\n"
    assert layout_uses(leaky) == ["key_layout", "_product", ".numerators"]
    assert layout_uses('"""p.numerators and key_layout in prose"""\n') == []
