import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from monappell import ck, suites
from monappell.algebra import AlgebraContext
from monappell.ck import check_ck_intertwining, ck_extend, is_monogenic
from monappell.errors import DependsOnX0Error
from monappell.initial_terms import builtin_initial_term
from monappell.polynomials import CliffordPolynomial, vector_power, vector_variable
from monappell.sampling import random_x0_free_polynomial
from strategies import polynomials

CTX3 = AlgebraContext(3)


def test_extend_constant():
    one = CliffordPolynomial.one(CTX3)
    assert ck_extend(one) == one


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_extend_vector_variable(m):
    ctx = AlgebraContext(m)
    expected = vector_variable(ctx) + m * CliffordPolynomial.variable(ctx, 0)
    assert ck_extend(vector_variable(ctx)) == expected


def test_rejects_x0_dependence():
    with pytest.raises(DependsOnX0Error):
        ck_extend(CliffordPolynomial.variable(CTX3, 0))


def test_is_monogenic_examples():
    assert is_monogenic(CliffordPolynomial.one(CTX3))
    paravector = CliffordPolynomial.variable(CTX3, 0) + vector_variable(CTX3)
    assert not is_monogenic(paravector)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_extension_properties_random(m):
    rng = random.Random(300 + m)
    ctx = AlgebraContext(m)
    for _ in range(25):
        g = random_x0_free_polynomial(rng, ctx)
        ext = ck_extend(g)
        assert ext.restrict_x0() == g
        assert is_monogenic(ext)


@pytest.mark.parametrize("m", [2, 3])
@settings(max_examples=30)
@given(data=st.data())
def test_extension_properties_hypothesis(m, data):
    ctx = AlgebraContext(m)
    g = data.draw(polynomials(ctx, include_x0=False))
    ext = ck_extend(g)
    assert ext.restrict_x0() == g
    assert is_monogenic(ext)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_degree_preservation(m, degree):
    ctx = AlgebraContext(m)
    g = vector_power(ctx, degree)
    assert ck_extend(g).is_homogeneous(degree)


def test_intertwining_examples():
    assert check_ck_intertwining(CliffordPolynomial.one(CTX3))
    for k in (0, 1, 2):
        pk = builtin_initial_term(CTX3, k)
        for n in (0, 1, 2, 3):
            assert check_ck_intertwining(vector_power(CTX3, n) * pk)


def test_ck_suite_extends_each_case_once(monkeypatch):
    """Per case: the extension of the data, shared by the three checks, and
    the extension of -dirac(data) that the intertwining compares with."""
    calls = []

    def counted(g):
        calls.append(g)
        return ck_extend(g)

    monkeypatch.setattr(suites, "ck_extend", counted)
    monkeypatch.setattr(ck, "ck_extend", counted)
    report = suites.ck_suite(3, seed=4, cases=5)
    assert report.all_passed and len(report.entries) == 3
    assert len(calls) == 2 * 5


@pytest.mark.parametrize("m", [2, 3, 4])
def test_intertwining_random(m):
    rng = random.Random(900 + m)
    ctx = AlgebraContext(m)
    for _ in range(20):
        assert check_ck_intertwining(random_x0_free_polynomial(rng, ctx))
