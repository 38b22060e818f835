from fractions import Fraction

import pytest

from monappell.coefficients import (
    double_factorial,
    explicit_weights,
    fueter_factor,
    lowering_factor,
    restriction_coefficient,
)
from monappell.errors import ArgumentTooSmallError
from monappell.fueter import fueter_order, fueter_scale
from monappell.polynomials import unit_exps


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_lowering_factor_values(m, k):
    assert lowering_factor(m, k, 0) == 1
    assert lowering_factor(m, k, 1) == 2 * k + m
    assert lowering_factor(m, k, 2) == 2
    assert lowering_factor(m, k, 3) == 2 * k + m + 2
    assert lowering_factor(m, k, 4) == 4


@pytest.mark.parametrize("m", [2, 3, 5])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_restriction_coefficient_values(m, k):
    assert restriction_coefficient(m, k, 0) == 1
    assert restriction_coefficient(m, k, 1) == Fraction(1, 2 * k + m)
    assert restriction_coefficient(m, k, 2) == Fraction(1, 2 * k + m)


@pytest.mark.parametrize("m", [2, 3, 5])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_restriction_recurrence(m, k):
    for n in range(1, 9):
        expected = n * restriction_coefficient(m, k, n - 1) / lowering_factor(m, k, n)
        assert restriction_coefficient(m, k, n) == expected


def test_explicit_weights():
    """The weight of x_0^j x̲^(n-j) is binom(n, j) restriction_coefficient(m, k, n-j)."""
    for m in (2, 3):
        for k in (0, 1):
            for n in range(5):
                assert explicit_weights(m, k, n)[0] == (n, 1)
            assert explicit_weights(m, k, 1) == [(1, 1), (0, Fraction(1, 2 * k + m))]
            assert explicit_weights(m, k, 2)[1] == (1, Fraction(2, 2 * k + m))


def test_restriction_coefficient_is_a_lowering_product():
    # m=3, k=0: factors 1, 3, 2, 5, 4 for s = 0..4
    assert restriction_coefficient(3, 0, 4) == Fraction(24, 1 * 3 * 2 * 5 * 4)


INDEXED = [  # (function, the arguments before the index)
    (restriction_coefficient, (3, 1)),
    (explicit_weights, (3, 1)),
    (double_factorial, ()),
    (unit_exps, (3,)),
    (fueter_factor, (3, 1)),
    (fueter_scale, (3, 1)),
]


@pytest.mark.parametrize("index", [True, 1.0])
@pytest.mark.parametrize("function, head", INDEXED, ids=[f.__name__ for f, _ in INDEXED])
def test_inexact_indices_are_rejected(function, head, index):
    """A bool or a float index is neither read as an int nor left to fail
    later: each raises the ValueError that names the index."""
    with pytest.raises(ValueError, match="must be an integer"):
        function(*head, index)


NEGATIVE = [  # (test id, function, arguments with one negative index)
    ("explicit_weights", explicit_weights, (3, 1, -1)),
    ("fueter_factor", fueter_factor, (3, -1, 2)),
    ("restriction_coefficient", restriction_coefficient, (3, 1, -1)),
    ("lowering_factor-k", lowering_factor, (3, -1, 1)),
    ("explicit_weights-k", explicit_weights, (3, -1, 2)),
    ("restriction_coefficient-k", restriction_coefficient, (3, -1, 2)),
    ("fueter_order-k", fueter_order, (3, -5)),
]


@pytest.mark.parametrize(
    "function, args", [case[1:] for case in NEGATIVE], ids=[case[0] for case in NEGATIVE]
)
def test_negative_indices_are_rejected(function, args):
    """A negative n or k raises the ValueError of the one index guard,
    instead of an empty weight list, a factor of 1, a negative Laplacian
    order or `factorial`'s message."""
    with pytest.raises(ValueError, match="^indices must be non-negative$"):
        function(*args)


SMALL_M = [  # (function, arguments with m below 1)
    (restriction_coefficient, (0, 0, 1)),
    (lowering_factor, (-3, 0, 1)),
    (fueter_factor, (-3, 1, 0)),
    (explicit_weights, (0, 0, 2)),
    (fueter_order, (-1, 0)),
]


@pytest.mark.parametrize("function, args", SMALL_M, ids=[f.__name__ for f, _ in SMALL_M])
def test_dimensions_below_one_are_rejected(function, args):
    """m < 1 raises the guard's ValueError, not a ZeroDivisionError, a
    negative factor, a factor of 1 or a negative Laplacian order."""
    with pytest.raises(ValueError, match="^m must be at least 1, got -?[0-9]+$"):
        function(*args)


def test_the_index_guard_has_no_upper_cap_on_m():
    """Past the algebra's 16 generators the coefficients are still defined."""
    assert lowering_factor(40, 1, 1) == 42
    assert restriction_coefficient(40, 1, 1) == Fraction(1, 42)
    assert fueter_order(41, 2) == 22


def test_double_factorial():
    assert double_factorial(-1) == 1
    assert double_factorial(0) == 1
    assert double_factorial(1) == 1
    assert double_factorial(5) == 15
    assert double_factorial(6) == 48
    with pytest.raises(ValueError):
        double_factorial(-2)


def test_fueter_factor_values():
    assert fueter_factor(3, 0, 2) == 2
    assert fueter_factor(3, 0, 3) == 2  # odd n falls back to n-1
    assert fueter_factor(3, 1, 4) == 8  # 4!!/0!!
    assert fueter_factor(3, 0, 4) == 4  # 4!!/2!!
    assert fueter_factor(5, 0, 4) == 8  # 4!!/0!!


def test_fueter_factor_parity_and_threshold():
    for m in (3, 5):
        for k in (0, 1, 2):
            floor = 2 * k + m - 1
            with pytest.raises(ArgumentTooSmallError):
                fueter_factor(m, k, floor - 1)
            for n in range(floor + 1, floor + 8, 2):
                assert fueter_factor(m, k, n) == fueter_factor(m, k, n - 1)
            for n in range(floor, floor + 8, 2):
                assert fueter_factor(m, k, n) == double_factorial(n) // double_factorial(
                    n - 2 * k - m + 1
                )
