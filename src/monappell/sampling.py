"""Seeded random inputs for the property suites (library, CLI, and tests)."""

from __future__ import annotations

import random
from fractions import Fraction

from .algebra import AlgebraContext, Multivector, accumulate
from .errors import DimensionTooSmallError
from .polynomials import CliffordPolynomial, unit_exps


MAX_ABS, MAX_DEN = 6, 4  # numerators in -6..6 over denominators 1..4
MULTIVECTOR_TERMS = 3
POLYNOMIAL_TERMS, POLYNOMIAL_DEGREE = 4, 3


def random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-MAX_ABS, MAX_ABS), rng.randint(1, MAX_DEN))


def random_multivector(
    rng: random.Random, context: AlgebraContext, grades: tuple[int, ...] | None = None
) -> Multivector:
    if grades is None:
        masks = range(context.blade_count)
    else:
        masks = [mk for mk in range(context.blade_count) if mk.bit_count() in grades]
    draws = [
        (rng.choice(list(masks)), random_rational(rng))
        for _ in range(rng.randint(1, MULTIVECTOR_TERMS))
    ]
    return Multivector(context, accumulate(draws))


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
    rational combination of powers (x_i - e_ij x_j)^k over random
    generator pairs, each of which is Dirac-annihilated and homogeneous.
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
    for position, (i, j) in enumerate(chosen):
        weight = random_rational(rng)
        if position == 0 and weight == 0:
            weight = Fraction(1)
        base = CliffordPolynomial.variable(context, i) - CliffordPolynomial.monomial(
            context, unit_exps(context.m, j), context.blade((i, j))
        )
        total = total + weight * base**k
    return total
