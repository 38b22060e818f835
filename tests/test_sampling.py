"""The seeded draws of `monappell.sampling` are pinned by digest.

The property suites of `monappell verify` draw their cases from these
samplers, so a rewrite that changed the RNG order or the values drawn
would change which cases run while every suite still passed.  Each
sampler's interchange output over fixed seeds at m = 2..6 is hashed here.
"""

import hashlib
import json
import random

import pytest

from monappell.algebra import AlgebraContext
from monappell.sampling import random_initial_term, random_multivector, random_polynomial

SEEDS = range(8)
DIMENSIONS = range(2, 7)


def _multivectors(rng, ctx):
    return [random_multivector(rng, ctx).to_json() for _ in range(3)] + [
        random_multivector(rng, ctx, grades=(1,)).to_json(),
        random_multivector(rng, ctx, grades=(0, 2)).to_json(),
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
