"""Seeded random inputs for the property suites (library, CLI, and tests)."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations

from .algebra import AlgebraContext, Multivector
from .errors import DimensionTooSmallError
from .initial_terms import builtin_initial_term
from .polynomials import CliffordPolynomial, linear_combination


MAX_ABS, MAX_DEN = 6, 4  # numerators in -6..6 over denominators 1..4
MULTIVECTOR_TERMS = 3
POLYNOMIAL_TERMS, POLYNOMIAL_DEGREE = 4, 3


def random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-MAX_ABS, MAX_ABS), rng.randint(1, MAX_DEN))


@cache
def _masks(m: int, grades: tuple[int, ...] | None) -> tuple[int, ...]:
    """The blade masks of R_{0,m} with a grade in grades (every mask for None)."""
    return tuple(mk for mk in range(1 << m) if grades is None or mk.bit_count() in grades)


def _draw_blades(rng: random.Random, masks: tuple[int, ...]) -> Counter:
    """1..MULTIVECTOR_TERMS (mask, rational) draws; a mask drawn twice sums its rationals."""
    coeffs: Counter = Counter()
    for _ in range(rng.randint(1, MULTIVECTOR_TERMS)):
        mask = rng.choice(masks)
        coeffs[mask] += random_rational(rng)
    return coeffs


def random_multivector(
    rng: random.Random, context: AlgebraContext, grades: tuple[int, ...] | None = None
) -> Multivector:
    return Multivector(context, _draw_blades(rng, _masks(context.m, grades)))


def random_polynomial(
    rng: random.Random,
    context: AlgebraContext,
    include_x0: bool = True,
    grades: tuple[int, ...] | None = None,
) -> CliffordPolynomial:
    """Monomials with `random_multivector` draws, collected per monomial: one build."""
    masks = _masks(context.m, grades)
    coeffs: dict[tuple[int, ...], Counter] = {}
    for _ in range(rng.randint(1, POLYNOMIAL_TERMS)):
        exps = [0] * (context.m + 1)
        for _ in range(rng.randint(0, POLYNOMIAL_DEGREE)):
            exps[rng.randint(0 if include_x0 else 1, context.m)] += 1
        coeffs.setdefault(tuple(exps), Counter()).update(_draw_blades(rng, masks))
    terms = {exps: Multivector(context, blades) for exps, blades in coeffs.items()}
    return CliffordPolynomial(context, terms)


def random_scalar_polynomial(rng: random.Random, context: AlgebraContext) -> CliffordPolynomial:
    return random_polynomial(rng, context, grades=(0,))


def random_vector_polynomial(rng: random.Random, context: AlgebraContext) -> CliffordPolynomial:
    return random_polynomial(rng, context, grades=(1,))


def random_x0_free_polynomial(rng: random.Random, context: AlgebraContext) -> CliffordPolynomial:
    return random_polynomial(rng, context, include_x0=False)


def random_initial_term(rng: random.Random, context: AlgebraContext, k: int) -> CliffordPolynomial:
    """A random valid degree-k initial term.

    Degree 0: any nonzero constant multivector.  Degree k >= 1: a small
    rational combination of the powers (x_i - e_ij x_j)^k of
    `builtin_initial_term` over random generator pairs, each of which is
    Dirac-annihilated and homogeneous.
    """
    if k == 0:
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
