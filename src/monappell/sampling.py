"""Seeded random inputs for the property suites (library, CLI, and tests)."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

from .algebra import AlgebraContext, Multivector
from .errors import DimensionTooSmallError
from .initial_terms import builtin_initial_term
from .polynomials import CliffordPolynomial


MAX_ABS, MAX_DEN = 6, 4  # numerators in -6..6 over denominators 1..4
MULTIVECTOR_TERMS = 3
POLYNOMIAL_TERMS, POLYNOMIAL_DEGREE = 4, 3


def random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-MAX_ABS, MAX_ABS), rng.randint(1, MAX_DEN))


def random_multivector(
    rng: random.Random, context: AlgebraContext, grades: tuple[int, ...] | None = None
) -> Multivector:
    masks = [mk for mk in range(context.blade_count) if grades is None or mk.bit_count() in grades]
    coeffs: Counter = Counter()  # a mask drawn twice sums its rationals
    for _ in range(rng.randint(1, MULTIVECTOR_TERMS)):
        mask = rng.choice(masks)
        coeffs[mask] += random_rational(rng)
    return Multivector(context, coeffs)


def random_polynomial(
    rng: random.Random,
    context: AlgebraContext,
    include_x0: bool = True,
    grades: tuple[int, ...] | None = None,
) -> CliffordPolynomial:
    total = CliffordPolynomial.zero(context)
    for _ in range(rng.randint(1, POLYNOMIAL_TERMS)):
        exps = [0] * (context.m + 1)
        for _ in range(rng.randint(0, POLYNOMIAL_DEGREE)):
            exps[rng.randint(0 if include_x0 else 1, context.m)] += 1
        coeff = random_multivector(rng, context, grades=grades)
        total = total + CliffordPolynomial(context, {tuple(exps): coeff})
    return total


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
    pairs = [
        (i, j)
        for i in range(1, context.m + 1)
        for j in range(i + 1, context.m + 1)
    ]
    chosen = rng.sample(pairs, min(len(pairs), rng.randint(1, 2)))
    total = CliffordPolynomial.zero(context)
    for position, pair in enumerate(chosen):
        weight = random_rational(rng)
        if position == 0 and weight == 0:
            weight = Fraction(1)
        total = total + weight * builtin_initial_term(context, k, pair)
    return total
