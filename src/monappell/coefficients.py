"""Integer and rational coefficients used by the sequence construction."""

from fractions import Fraction
from math import comb, factorial, prod

from .algebra import require_int
from .errors import ArgumentTooSmallError


def _check_indices(m: int, k: int, n: int = 0) -> None:
    """The one index guard of the coefficients and `fueter_order`: int m >= 1, k >= 0, n >= 0."""
    if require_int(m, "m") < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    if require_int(n, "n") < 0 or require_int(k, "k") < 0:
        raise ValueError("indices must be non-negative")


def lowering_factor(m: int, k: int, n: int) -> int:
    """Constant in dirac(x̲^n P_k) = -lowering_factor(m,k,n) x̲^(n-1) P_k.

    Equals n for even n >= 2 and 2k+m+n-1 for odd n; set to 1 at n = 0 so
    that products over s = 0..n start cleanly.
    """
    _check_indices(m, k, n)
    if n == 0:
        return 1
    return n if n % 2 == 0 else 2 * k + m + n - 1


def restriction_coefficient(m: int, k: int, n: int) -> Fraction:
    """Coefficient of x̲^n P_k in the restriction of the n-th term to x_0 = 0:
    n! over the product of the lowering factors for s = 0..n.

    Satisfies the recurrence c_n = n c_(n-1) / lowering_factor(m,k,n).
    """
    _check_indices(m, k, n)
    lowering = prod(lowering_factor(m, k, s) for s in range(n + 1))
    return Fraction(factorial(n), lowering)


def explicit_weights(m: int, k: int, n: int) -> list[tuple[int, Fraction]]:
    """(j, binom(n, j) restriction_coefficient(m, k, n-j)) for j = n..0: the
    weight of x_0^j x̲^(n-j) in the explicit n-th term, in written order."""
    _check_indices(m, k, n)
    return [(j, comb(n, j) * restriction_coefficient(m, k, n - j)) for j in range(n, -1, -1)]


def double_factorial(n: int) -> int:
    """n!! with the conventions 0!! = (-1)!! = 1."""
    if require_int(n, "n") < -1:
        raise ValueError("double factorial not defined below -1")
    return prod(range(n, 1, -2))


def fueter_factor(m: int, k: int, n: int) -> int:
    """Double-factorial ratio scaling the Fueter image of the n-th complex monomial.

    For even n this is n!! / (n-2k-m+1)!!; odd n takes the value at n-1.
    Only defined for n >= 2k+m-1 (with m odd that threshold is even, so
    the denominator index never drops below zero).
    """
    _check_indices(m, k, n)
    floor = 2 * k + m - 1
    if n < floor:
        raise ArgumentTooSmallError(f"need n >= {floor}, got {n}")
    if n % 2:
        n -= 1
    return prod(range(n, n - floor, -2))  # n (n-2) ... down to n-floor exclusive
