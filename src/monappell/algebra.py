"""Exact arithmetic in the real Clifford algebra R_{0,m}.

The algebra is generated by e_1, ..., e_m subject to

    e_j * e_j = -1                  (j = 1, ..., m)
    e_j * e_k + e_k * e_j = 0       (j != k)

A basis blade e_A with A = {j_1 < ... < j_g} is stored as an integer bit
mask (bit j-1 set iff generator j occurs); the empty mask is the identity
element.  The sign of e_a e_b is the parity of popcount(b & R(a)) with
R(a) = `sign_mask(a)`, one closed form memoized per left mask, which the
blade product and the polynomial kernels all read.  This module holds
that rule, the dimension (`AlgebraContext`) and the exact-input guards.
A `Multivector` is the constant polynomial: it keeps the flat form of
`polynomials.py` (integer numerators over one positive denominator,
keyed by blade mask), so it is defined there, with the sum and product
loops, and re-exported here.
The one text writer is `scaled_text` (one term) and `signed_sum` (the
sum of terms): every str and LaTeX form of the package goes through it.
No floating point is used anywhere.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Iterable

from .errors import ContextMismatchError

MAX_DIMENSION = 16

Scalar = int | Fraction

_SHORT = reprlib.Repr()
_SHORT.maxlevel = _SHORT.maxtuple = _SHORT.maxlist = _SHORT.maxdict = 80
_SHORT.maxstring = _SHORT.maxlong = _SHORT.maxother = 80


def short_repr(value) -> str:
    """repr(value), cut to at most 80 characters: a rejected input value can
    be as large as the file it came from, and a message shows only its start."""
    text = _SHORT.repr(value)
    return text if len(text) <= 80 else text[:76] + " ..."


def require_int(value, field: str) -> int:
    """Return value if it is a real integer (not a bool or a float), else
    raise ValueError naming the field."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{field} must be an integer, got {short_repr(value)}")
    return value


def is_exact(value) -> bool:
    """True iff value is an int or a Fraction (not a bool or a float)."""
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def require_exact(value, field: str) -> Scalar:
    """Return value if it `is_exact`, else raise ValueError naming the field."""
    if not is_exact(value):
        raise ValueError(f"{field} must be an int or a Fraction, got {short_repr(value)}")
    return value


def require_shape(value, kind, field: str):
    """Return value if it is an instance of kind (list for a JSON array, dict
    for a JSON object), else raise ValueError naming the field."""
    if not isinstance(value, kind):
        shape = "an object" if kind is dict else "a list"
        raise ValueError(f"{field} must be {shape}, got {short_repr(value)}")
    return value


def require_fields(value, field: str, *keys: str) -> tuple:
    """Return the values of keys in the JSON object value, in order; if value
    is not an object or lacks a key, raise ValueError naming field and key."""
    try:
        return tuple(map(require_shape(value, dict, field).__getitem__, keys))
    except KeyError as exc:
        raise ValueError(f'missing field "{exc.args[0]}" in {field}') from None


def require_same_context(a, b) -> None:
    """Raise ContextMismatchError unless a and b live in the same algebra."""
    if a.context != b.context:
        raise ContextMismatchError(
            f"mixed algebra dimensions m={a.context.m} and m={b.context.m}"
        )


def parse_ratio(text, field: str) -> tuple[int, int]:
    """(numerator, positive denominator) of an exact rational written "int"
    or "int/int", not necessarily reduced; anything else (a JSON number, a
    decimal string, a zero denominator) raises ValueError."""
    num, slash, den = text.partition("/") if isinstance(text, str) else ("", "", "")
    digits = num[1:] if num[:1] in ("+", "-") else num
    if not ((digits + den).isascii() and digits.isdigit() and (den.isdigit() or not slash)):
        raise ValueError(f'{field} must be a string "int" or "int/int", got {short_repr(text)}')
    d = int(den or 1)
    if not d:
        raise ValueError(f"{field} has a zero denominator: {short_repr(text)}")
    return int(num), d


@lru_cache(maxsize=1 << MAX_DIMENSION)  # one entry per left mask of R_{0,16} at most
def sign_mask(a: int) -> int:
    """R(a): e_a e_b = (-1)^popcount(b & R(a)) e_(a xor b) for every mask b.

    R(a) is a XOR the XOR of (1 << i) - 1 over the bits i of a: the parity
    of popcount(b & ((1 << i) - 1)) counts the generators of b that the
    generator of bit i passes when the concatenated generator lists are
    sorted, and the term a adds one flip per shared generator (e_j^2 = -1).
    """
    r, rest = a, a
    while rest:
        low = rest & -rest  # the bit 1 << i
        r ^= low - 1
        rest ^= low
    return r


def blade_product(a: int, b: int) -> tuple[int, int]:
    """Multiply two basis blades given as bit masks; return (sign, mask)."""
    return (-1 if (b & sign_mask(a)).bit_count() & 1 else 1), a ^ b


def mask_to_indices(mask: int) -> tuple[int, ...]:
    """Generator indices (1-based, increasing) of a blade mask."""
    return tuple(j + 1 for j in range(mask.bit_length()) if mask >> j & 1)


def indices_to_mask(indices: list[int] | tuple[int, ...], m: int) -> int:
    """Bit mask of a blade given by strictly increasing generator indices in
    1..m.  Indices out of order are rejected, not sorted: e_2 e_1 is -e_12,
    and a mask carries no sign."""
    mask = 0
    for j in require_shape(indices, (list, tuple), '"blade"'):
        if not 1 <= require_int(j, "blade index") <= m:
            raise ValueError(f"generator index {short_repr(j)} out of range 1..{m}")
        bit = 1 << (j - 1)
        if mask & bit:
            raise ValueError(f"repeated generator index {j}")
        if mask >= bit:
            raise ValueError(
                f'"blade" indices must be strictly increasing, got {short_repr(indices)}'
            )
        mask |= bit
    return mask


def blade_label(mask: int) -> str:
    indices = mask_to_indices(mask)
    if not indices:
        return "1"
    sep = "," if indices[-1] > 9 else ""
    return "e" + sep.join(str(j) for j in indices)


def scaled_text(q: Scalar, body: str, number=str, times: str = " ") -> str:
    """q times body as text: a unit q is left implicit, an empty body shows q
    alone; `number` writes q (str, or LaTeX's fraction_latex) and `times`
    goes between q and body ("*" before a blade label)."""
    if not body:
        return number(q)
    if q == 1:
        return body
    if q == -1:
        return "-" + body
    return number(q) + times + body


def signed_sum(parts: Iterable[str]) -> str:
    """The terms joined by " + ", "+ -" folded into "- "; "0" for no term."""
    return " + ".join(parts).replace("+ -", "- ") or "0"


@dataclass(frozen=True)
class AlgebraContext:
    """Fixes the generator count m of R_{0,m} (1 <= m <= 16)."""

    m: int

    def __post_init__(self) -> None:
        if not 1 <= require_int(self.m, "dimension m") <= MAX_DIMENSION:
            raise ValueError(f"dimension m must be an integer in 1..{MAX_DIMENSION}")

    @property
    def blade_count(self) -> int:
        return 1 << self.m

    def zero(self) -> Multivector:
        return Multivector(self, {})

    def scalar(self, value: Scalar) -> Multivector:
        return Multivector(self, {0: value})

    def one(self) -> Multivector:
        return self.scalar(1)

    def e(self, j: int) -> Multivector:
        """The generator e_j."""
        return self.blade((j,))

    def blade(self, indices: list[int] | tuple[int, ...]) -> Multivector:
        """The basis blade with the given generator indices."""
        return Multivector(self, {indices_to_mask(indices, self.m): 1})


# Defined beside the flat form it shares; imported last, as polynomials.py imports this module.
from .polynomials import Multivector  # noqa: E402
