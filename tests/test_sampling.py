"""The seeded draws of `monappell.sampling` are pinned by digest.

The property suites of `monappell verify` draw their cases from these
samplers, so a rewrite that changed the RNG order or the values drawn
would change which cases run while every suite still passed.  Each
sampler's interchange output over fixed seeds at m = 2..6 is hashed here.
"""

import hashlib
import json
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from monappell.algebra import AlgebraContext, Multivector, mask_to_indices
from monappell.polynomials import CliffordPolynomial
from monappell.sampling import (
    MAX_ABS,
    MAX_DEN,
    MULTIVECTOR_TERMS,
    POLYNOMIAL_DEGREE,
    POLYNOMIAL_TERMS,
    random_initial_term,
    random_multivector,
    random_polynomial,
)

SEEDS = range(8)
DIMENSIONS = range(2, 7)


def _entries(a):
    """[{"blade": [indices], "coeff": "num/den"}, ...], blades by grade then mask."""
    entries = []
    for mask in a.sorted_masks():
        q = a.terms[mask]
        entries.append({"blade": list(mask_to_indices(mask)), "coeff": f"{q.numerator}/{q.denominator}"})
    return entries


def _multivectors(rng, ctx):
    return [_entries(random_multivector(rng, ctx)) for _ in range(3)] + [
        _entries(random_multivector(rng, ctx, grades=(1,))),
        _entries(random_multivector(rng, ctx, grades=(0, 2))),
    ]


def _polynomials(rng, ctx):
    return [
        random_polynomial(rng, ctx).to_json_dict(),
        random_polynomial(rng, ctx, include_x0=False).to_json_dict(),
        random_polynomial(rng, ctx, grades=(1,)).to_json_dict(),
    ]


def _initial_terms(rng, ctx):
    return [random_initial_term(rng, ctx, k).to_json_dict() for k in range(4)]


def _digest(draw) -> str:
    payload = [
        draw(random.Random(seed), AlgebraContext(m)) for m in DIMENSIONS for seed in SEEDS
    ]
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "draw, digest",
    [
        (_multivectors, "71ec808047edbf906184ab4c31cb5668a30efd53b33b5ea59cf56e2e3a019be4"),
        (_polynomials, "5702e9574927b1ece6860709cfefc4f140dd8424604b747ca3767bdf706001e5"),
        (_initial_terms, "fdc032def02c393bb6c525909c76eb6fde1cf3047fcda8c7124e0dcc90b9d476"),
    ],
)
def test_seeded_draws_are_pinned(draw, digest):
    assert _digest(draw) == digest


def test_digest_negative_control():
    """A sampler that draws one value more changes the digest."""

    def shifted(rng, ctx):
        rng.random()
        return _multivectors(rng, ctx)

    assert _digest(shifted) != _digest(_multivectors)


# The draw path before the flat-form sampler, kept as the reference: each
# monomial's draws summed in a Counter of Fractions, made a Multivector, and
# the polynomial built from those.


def reference_blades(rng, masks) -> Counter:
    coeffs: Counter = Counter()
    for _ in range(rng.randint(1, MULTIVECTOR_TERMS)):
        mask = rng.choice(masks)
        coeffs[mask] += Fraction(rng.randint(-MAX_ABS, MAX_ABS), rng.randint(1, MAX_DEN))
    return coeffs


def reference_masks(m, grades):
    return tuple(mk for mk in range(1 << m) if grades is None or mk.bit_count() in grades)


def reference_multivector(rng, ctx, grades=None):
    return Multivector(ctx, reference_blades(rng, reference_masks(ctx.m, grades)))


def reference_polynomial(rng, ctx, include_x0=True, grades=None):
    masks = reference_masks(ctx.m, grades)
    coeffs: dict = {}
    for _ in range(rng.randint(1, POLYNOMIAL_TERMS)):
        exps = [0] * (ctx.m + 1)
        for _ in range(rng.randint(0, POLYNOMIAL_DEGREE)):
            exps[rng.randint(0 if include_x0 else 1, ctx.m)] += 1
        coeffs.setdefault(tuple(exps), Counter()).update(reference_blades(rng, masks))
    return CliffordPolynomial(ctx, {exps: Multivector(ctx, c) for exps, c in coeffs.items()})


GRADES = [None, (0,), (1,), (0, 2)]


@pytest.mark.parametrize("m", range(1, 7))
def test_flat_draws_equal_the_reference_draws(m):
    """Same polynomial or multivector, and the same RNG state after it, for
    seeds 0..49, both include_x0 and every grade set above."""
    ctx = AlgebraContext(m)
    for seed, include_x0, grades in product(range(50), (True, False), GRADES):
        fast, slow = random.Random(seed), random.Random(seed)
        drawn = random_polynomial(fast, ctx, include_x0, grades)
        assert drawn == reference_polynomial(slow, ctx, include_x0, grades)
        assert random_multivector(fast, ctx, grades) == reference_multivector(slow, ctx, grades)
        assert fast.getstate() == slow.getstate()


def test_equivalence_negative_control(monkeypatch):
    """A reference that read the masks in reverse order makes the same RNG
    calls, yet the comparison above finds a seed where it differs."""
    ctx = AlgebraContext(3)
    reversed_masks = lambda m, grades: tuple(range(1 << m))[::-1]  # noqa: E731
    monkeypatch.setattr(sys.modules[__name__], "reference_masks", reversed_masks)
    differing = [
        seed
        for seed in range(50)
        if random_polynomial(random.Random(seed), ctx)
        != reference_polynomial(random.Random(seed), ctx)
    ]
    assert differing, "the comparison cannot tell the two draw paths apart"


@pytest.mark.parametrize("m, grades", [(3, ()), (3, (4,)), (1, (2, 3))])
def test_grades_that_select_no_blade_are_rejected(m, grades):
    ctx = AlgebraContext(m)
    for draw in (random_polynomial, random_multivector):
        with pytest.raises(ValueError, match=r"grades .* select no blade"):
            draw(random.Random(0), ctx, grades=grades)
