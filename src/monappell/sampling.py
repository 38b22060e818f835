"""Seeded random inputs for the property suites (library, CLI, and tests).

Every draw goes straight into the flat form: each blade of each monomial
is one (exps, mask, numerator, denominator) entry for
`polynomials.from_entries`, which sums repeated draws and normalizes once.
The RNG calls and their order are pinned by `tests/test_sampling.py`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from itertools import combinations

from .algebra import AlgebraContext, Multivector, require_int
from .errors import DimensionTooSmallError
from .initial_terms import builtin_initial_term
from .polynomials import CliffordPolynomial, from_entries, linear_combination


MAX_ABS, MAX_DEN = 6, 4  # numerators in -6..6 over denominators 1..4
MULTIVECTOR_TERMS = 3
POLYNOMIAL_TERMS, POLYNOMIAL_DEGREE = 4, 3


def random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-MAX_ABS, MAX_ABS), rng.randint(1, MAX_DEN))


@cache
def _masks(m: int, grades: tuple[int, ...] | None) -> tuple[int, ...]:
    """The blade masks of R_{0,m} with a grade in grades (every mask for None);
    ValueError if grades select none."""
    masks = tuple(mk for mk in range(1 << m) if grades is None or mk.bit_count() in grades)
    if not masks:
        raise ValueError(f"grades {grades!r} select no blade of R_{{0,{m}}}")
    return masks


def _blade_entries(rng: random.Random, masks: tuple[int, ...], exps: tuple[int, ...]) -> list:
    """1..MULTIVECTOR_TERMS draws of a mask and a rational (numerator, then
    denominator), as `from_entries` entries on the monomial exps."""
    return [
        (exps, rng.choice(masks), rng.randint(-MAX_ABS, MAX_ABS), rng.randint(1, MAX_DEN))
        for _ in range(rng.randint(1, MULTIVECTOR_TERMS))
    ]


def random_multivector(
    rng: random.Random, context: AlgebraContext, grades: tuple[int, ...] | None = None
) -> Multivector:
    entries = _blade_entries(rng, _masks(context.m, grades), (0,) * (context.m + 1))
    return from_entries(context, entries, Multivector)


def random_polynomial(
    rng: random.Random,
    context: AlgebraContext,
    include_x0: bool = True,
    grades: tuple[int, ...] | None = None,
) -> CliffordPolynomial:
    """1..POLYNOMIAL_TERMS monomials of degree 0..POLYNOMIAL_DEGREE, each with
    the blade draws of `random_multivector`; a monomial drawn twice sums them."""
    m, masks = context.m, _masks(context.m, grades)
    entries = []
    for _ in range(rng.randint(1, POLYNOMIAL_TERMS)):
        exps = [0] * (m + 1)
        for _ in range(rng.randint(0, POLYNOMIAL_DEGREE)):
            exps[rng.randint(0 if include_x0 else 1, m)] += 1
        entries += _blade_entries(rng, masks, tuple(exps))
    return from_entries(context, entries)


def random_initial_term(rng: random.Random, context: AlgebraContext, k: int) -> CliffordPolynomial:
    """A random valid degree-k initial term.

    Degree 0: any nonzero constant multivector.  Degree k >= 1: a small
    rational combination of the powers (x_i - e_ij x_j)^k of
    `builtin_initial_term` over random generator pairs, each of which is
    Dirac-annihilated and homogeneous.  A k that is not an int raises
    ValueError before anything is drawn.
    """
    if require_int(k, "k") == 0:
        constant = random_multivector(rng, context)
        if constant.is_zero():
            constant = context.one()
        return CliffordPolynomial.constant(context, constant)
    if context.m < 2:
        raise DimensionTooSmallError("random initial terms of positive degree need m >= 2")
    pairs = list(combinations(range(1, context.m + 1), 2))  # i < j, in lexicographic order
    chosen = rng.sample(pairs, min(len(pairs), rng.randint(1, 2)))
    weights = [random_rational(rng) for _ in chosen]
    weights[0] = weights[0] or Fraction(1)
    terms = [(w, builtin_initial_term(context, k, pair)) for w, pair in zip(weights, chosen)]
    return linear_combination(context, terms)
