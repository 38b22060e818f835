import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from monappell.algebra import AlgebraContext
from monappell.errors import InvalidInitialTermError, NonScalarInputError, NonVectorInputError
from monappell.initial_terms import builtin_initial_term
from monappell.operators import (
    cauchy_riemann,
    check_dirac_power_rule,
    check_leibniz_scalar,
    check_leibniz_vector,
    conj_cauchy_riemann,
    dirac,
    laplacian,
    require_initial_term,
    validate_initial_term,
    vector_components,
)
from monappell.polynomials import (
    CliffordPolynomial,
    radius_squared,
    unit_exps,
    vector_variable,
)
from monappell.sampling import random_initial_term, random_polynomial
from strategies import polynomials

CTX3 = AlgebraContext(3)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_dirac_of_vector_variable(m):
    ctx = AlgebraContext(m)
    assert dirac(vector_variable(ctx)) == CliffordPolynomial.constant(ctx, -m)


def test_dirac_annihilates_builtin_generator():
    p = builtin_initial_term(CTX3, 1)  # x1 - e12 x2
    assert dirac(p).is_zero()


def test_dirac_of_constant():
    assert dirac(CliffordPolynomial.constant(CTX3, CTX3.blade((1, 3)))).is_zero()


@pytest.mark.parametrize("m", [2, 3, 4])
def test_paravector_power_not_monogenic(m):
    ctx = AlgebraContext(m)
    p = CliffordPolynomial.variable(ctx, 0) + vector_variable(ctx)
    assert cauchy_riemann(p) == CliffordPolynomial.constant(ctx, 1 - m)


def test_paravector_monogenic_only_in_dimension_one():
    ctx = AlgebraContext(1)
    p = CliffordPolynomial.variable(ctx, 0) + vector_variable(ctx)
    assert cauchy_riemann(p).is_zero()


def test_cauchy_riemann_of_constant():
    assert cauchy_riemann(CliffordPolynomial.constant(CTX3, CTX3.blade((2, 3)))).is_zero()


def test_laplacian_anchor():
    x0 = CliffordPolynomial.variable(CTX3, 0)
    p = x0 * x0 - radius_squared(CTX3) + 2 * (x0 * vector_variable(CTX3))
    assert laplacian(p) == CliffordPolynomial.constant(CTX3, -4)


def test_laplacian_of_linear_is_zero():
    p = CliffordPolynomial.variable(CTX3, 0) + 3 * vector_variable(CTX3)
    assert laplacian(p).is_zero()


@pytest.mark.parametrize("m", [2, 3])
@settings(max_examples=40)
@given(data=st.data())
def test_laplacian_factorization(m, data):
    ctx = AlgebraContext(m)
    p = data.draw(polynomials(ctx))
    assert laplacian(p) == cauchy_riemann(conj_cauchy_riemann(p))
    assert laplacian(p) == conj_cauchy_riemann(cauchy_riemann(p))


def test_hypercomplex_derivative_equals_other_forms_on_monogenic():
    from monappell.ck import ck_extend, is_monogenic

    g = vector_variable(CTX3) * builtin_initial_term(CTX3, 1)
    f = ck_extend(g)
    assert is_monogenic(f)
    hd = f.partial_derivative(0)
    assert hd == Fraction(1, 2) * conj_cauchy_riemann(f)
    assert hd == -dirac(f)


def test_leibniz_scalar_examples():
    phi = CliffordPolynomial.variable(CTX3, 1)
    g = CliffordPolynomial.constant(CTX3, CTX3.e(2))
    assert check_leibniz_scalar(phi, g)
    assert check_leibniz_scalar(CliffordPolynomial.one(CTX3), g)
    with pytest.raises(NonScalarInputError):
        check_leibniz_scalar(g, phi)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_leibniz_scalar_random(m):
    rng = random.Random(42 + m)
    ctx = AlgebraContext(m)
    for _ in range(30):
        assert check_leibniz_scalar(
            random_polynomial(rng, ctx, grades=(0,)), random_polynomial(rng, ctx)
        )


def test_leibniz_vector_examples():
    xv = vector_variable(CTX3)
    assert check_leibniz_vector(xv, CliffordPolynomial.one(CTX3))
    assert check_leibniz_vector(xv, xv)
    # both sides of the vector rule reduce to -2 x̲ on (x̲, x̲)
    assert dirac(xv * xv) == -2 * xv
    with pytest.raises(NonVectorInputError):
        check_leibniz_vector(CliffordPolynomial.one(CTX3), xv)


def test_vector_components():
    f = vector_variable(CTX3)
    comps = vector_components(f)
    assert comps[0] == CliffordPolynomial.variable(CTX3, 1)
    assert comps[2] == CliffordPolynomial.variable(CTX3, 3)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_leibniz_vector_random(m):
    rng = random.Random(77 + m)
    ctx = AlgebraContext(m)
    for _ in range(30):
        assert check_leibniz_vector(
            random_polynomial(rng, ctx, grades=(1,)), random_polynomial(rng, ctx)
        )


def test_power_rule_examples():
    one = CliffordPolynomial.one(CTX3)
    assert check_dirac_power_rule(1, one, 0)  # dirac(x̲) = -m
    assert check_dirac_power_rule(2, one, 0)  # dirac(x̲^2) = -2 x̲
    p1 = builtin_initial_term(CTX3, 1)
    assert check_dirac_power_rule(1, p1, 1)
    assert dirac(vector_variable(CTX3) * p1) == -5 * p1  # lowering factor 2k+m = 5


@pytest.mark.parametrize("m", [2, 3, 4])
def test_power_rule_random(m):
    rng = random.Random(7 + m)
    ctx = AlgebraContext(m)
    for _ in range(25):
        k = rng.randint(0, 2)
        n = rng.randint(1, 4)
        assert check_dirac_power_rule(n, random_initial_term(rng, ctx, k), k)


def test_power_rule_rejects_invalid_initial_term():
    bad = CliffordPolynomial.monomial(CTX3, unit_exps(3, 1), CTX3.e(1))  # x1 e1
    with pytest.raises(InvalidInitialTermError):
        check_dirac_power_rule(1, bad, 1)
    with pytest.raises(ValueError):
        check_dirac_power_rule(0, CliffordPolynomial.one(CTX3), 0)


def test_require_initial_term_gate():
    require_initial_term(builtin_initial_term(CTX3, 2), 2)
    with pytest.raises(InvalidInitialTermError):
        require_initial_term(CliffordPolynomial.zero(CTX3), 0)
    with pytest.raises(InvalidInitialTermError):
        require_initial_term(CliffordPolynomial.variable(CTX3, 0), 1)


def _gate_candidates():
    x1e1 = CliffordPolynomial.monomial(CTX3, unit_exps(3, 1), CTX3.e(1))
    yield from (builtin_initial_term(CTX3, k) for k in range(4))
    yield CliffordPolynomial.zero(CTX3)
    yield CliffordPolynomial.variable(CTX3, 0)
    yield x1e1
    yield builtin_initial_term(CTX3, 2) + builtin_initial_term(CTX3, 1)  # not homogeneous


@pytest.mark.parametrize("k", range(4))
def test_require_initial_term_agrees_with_validator(k):
    """One list of P_k conditions: the gate raises exactly when the report
    fails, and names the report's first failed entry with its witness."""
    for candidate in _gate_candidates():
        report = validate_initial_term(candidate, k)
        if report.all_passed:
            require_initial_term(candidate, k)
            continue
        first = report.failures()[0]
        with pytest.raises(InvalidInitialTermError) as excinfo:
            require_initial_term(candidate, k)
        assert str(excinfo.value) == f"initial term fails {first.identity}: {first.witness}"


@pytest.mark.parametrize("m", [2, 3])
@settings(max_examples=40)
@given(data=st.data())
def test_operators_are_linear(m, data):
    ctx = AlgebraContext(m)
    p = data.draw(polynomials(ctx))
    q = data.draw(polynomials(ctx))
    for op in (dirac, cauchy_riemann, conj_cauchy_riemann, laplacian):
        assert op(p + q) == op(p) + op(q)
        assert op(Fraction(3, 2) * p) == Fraction(3, 2) * op(p)
