"""Hypothesis strategies for multivectors and polynomials, and the builder
of (x_0, t) profiles."""

from fractions import Fraction

import hypothesis.strategies as st

from monappell.algebra import AlgebraContext, Multivector
from monappell.polynomials import CliffordPolynomial

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
nonzero_rationals = rationals.filter(bool)

PLANE = AlgebraContext(1)  # the algebra of the (x_0, t) profiles: x_1 stands for t
T = CliffordPolynomial.variable(PLANE, 1)


def profile(terms: dict) -> CliffordPolynomial:
    """The R_{0,1} profile sum q x_0^a t^l over {(a, l): q}."""
    return CliffordPolynomial(PLANE, {exps: PLANE.scalar(q) for exps, q in terms.items()})


def multivectors(ctx: AlgebraContext, max_terms: int = 3):
    masks = st.integers(min_value=0, max_value=ctx.blade_count - 1)
    pairs = st.lists(st.tuples(masks, rationals), max_size=max_terms)

    def build(items):
        terms = {}
        for mask, q in items:
            terms[mask] = terms.get(mask, Fraction(0)) + q
        return Multivector(ctx, terms)

    return pairs.map(build)


def exponent_tuples(ctx: AlgebraContext, max_exp: int = 2, include_x0: bool = True):
    head = st.integers(0, max_exp) if include_x0 else st.just(0)
    rest = st.lists(st.integers(0, max_exp), min_size=ctx.m, max_size=ctx.m)
    return st.tuples(head, rest).map(lambda pair: (pair[0], *pair[1]))


def polynomials(ctx: AlgebraContext, max_terms: int = 3, max_exp: int = 2, include_x0: bool = True):
    term = st.tuples(exponent_tuples(ctx, max_exp, include_x0), multivectors(ctx))
    items = st.lists(term, max_size=max_terms)

    def build(pairs):
        total = CliffordPolynomial.zero(ctx)
        for exps, coeff in pairs:
            total = total + CliffordPolynomial(ctx, {exps: coeff})
        return total

    return items.map(build)


def polynomials_any_dimension(dimensions=(1, 3, 10, 12), max_terms: int = 4):
    """Multi-blade polynomials in AlgebraContext(m), m drawn from dimensions;
    m >= 10 gives two-digit generator indices."""
    return st.sampled_from(dimensions).flatmap(
        lambda m: polynomials(AlgebraContext(m), max_terms=max_terms)
    )


def scalar_polynomials(ctx: AlgebraContext, max_terms: int = 3, max_exp: int = 2):
    term = st.tuples(exponent_tuples(ctx, max_exp), rationals)
    items = st.lists(term, max_size=max_terms)

    def build(pairs):
        total = CliffordPolynomial.zero(ctx)
        for exps, q in pairs:
            total = total + CliffordPolynomial(ctx, {exps: ctx.scalar(q)})
        return total

    return items.map(build)


def rational_points(ctx: AlgebraContext):
    return st.lists(rationals, min_size=ctx.m + 1, max_size=ctx.m + 1)
