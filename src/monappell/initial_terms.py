"""Built-in initial terms P_k and the loading of user-supplied ones.

The built-in family is the k-th power of x_i - e_ij x_j (i < j, by
default 1 and 2), a degree-1 element annihilated by the Dirac operator
that generates a commutative, complex-like subalgebra; its powers are
therefore homogeneous monogenic of every degree k and exist for m >= 2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from .algebra import AlgebraContext, require_int, short_repr
from .errors import DegreeLimitError, DimensionTooSmallError, InvalidInitialTermError
from .operators import validate_initial_term  # re-exported
from .polynomials import DEGREE_LIMIT, CliffordPolynomial, unit_exps

BUILTIN_SOURCE = "builtin"


def builtin_initial_term(context: AlgebraContext, k: int, pair=(1, 2)) -> CliffordPolynomial:
    """(x_i - e_ij x_j)^k for the generator pair (i, j), or 1 for k = 0; a k
    that is not an int (a bool, a float) raises ValueError, and one at or
    past DEGREE_LIMIT DegreeLimitError, before any product.  The result may
    be shared with other callers, as every instance is treated as immutable."""
    if require_int(k, "k") < 0:
        raise ValueError("degree k must be non-negative")
    if k >= DEGREE_LIMIT:  # checked before the k products of the power
        raise DegreeLimitError(f"initial term degree {k} is not below the limit {DEGREE_LIMIT}")
    if k == 0:
        return CliffordPolynomial.one(context)
    if context.m < 2:
        raise DimensionTooSmallError(
            "no built-in initial term of positive degree exists for m = 1"
        )
    i, j = (require_int(g, "generator index") for g in pair)
    if not 1 <= i < j <= context.m:  # x_j - e_ij x_i is not monogenic
        raise ValueError(f"generator pair {short_repr(pair)} is not i < j in 1..{context.m}")
    return _generator_power(context, k, i, j)


@lru_cache(maxsize=256)
def _generator_power(context: AlgebraContext, k: int, i: int, j: int) -> CliffordPolynomial:
    """(x_i - e_ij x_j)^k, built once per (m, k, pair) while it stays among
    the 256 most recently used (the power-rule suite draws them per case)."""
    base = CliffordPolynomial.variable(context, i) - CliffordPolynomial.monomial(
        context, unit_exps(context.m, j), context.blade((i, j))
    )
    return base**k


def load_initial_term(path: str | Path) -> CliffordPolynomial:
    """Read a polynomial from the JSON interchange schema; input nested too
    deeply to decode or describe raises ValueError."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return CliffordPolynomial.from_json_dict(json.load(handle))
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None


@dataclass
class InitialTermSpec:
    """Where an initial term comes from: the built-in family or a JSON file."""

    m: int
    k: int
    source: str = BUILTIN_SOURCE

    def resolve(self) -> CliffordPolynomial:
        """Build or load the term; a file's m must be self.m.  The term is
        gated when a `SequenceSpec` is built on it, not here."""
        context = AlgebraContext(self.m)
        if self.source == BUILTIN_SOURCE:
            term = builtin_initial_term(context, self.k)
        else:
            term = load_initial_term(self.source)
            if term.context.m != self.m:
                raise InvalidInitialTermError(
                    f"file declares m={term.context.m}, expected m={self.m}"
                )
        return term
