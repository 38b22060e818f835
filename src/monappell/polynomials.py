"""Polynomials in x_0, ..., x_m with multivector coefficients, and the
multivectors themselves as their degree-0 case.

The variables are real and therefore central; coefficients sit on the
left of the monomials, which is the convention every left-acting
operator in this package relies on.

Both are stored flat: integer numerators over one positive denominator,
keyed by one packed int per (monomial, blade) (see `KeyLayout`), so a
product key is an int addition and a derivative a subtraction.  A
multivector's keys are bare blade masks, the keys of the constant
monomial.  Every monomial degree stays below DEGREE_LIMIT, so no
exponent carries into the next field: `from_entries`, `from_json_dict`
and every product check it.

`from_entries` is the one validated constructor: both classes'
constructors and the seeded sampler hand it (exps, mask, numerator,
denominator) entries.  The form is canonical (no zero numerator, no
factor common to all numerators and the denominator, denominator 1 for
zero), so equality is literal.  Every result is built by `_normalized`
or by `_collect`, the one place that drops zero sums, in the same pass
that divides out the common factor; the sums come from
`linear_combination`, `_product` (the one product loop), the `dirac` and
`laplacian` loops, which add into their dict directly, or `_summed`
(pairs, for the readers and `evaluate`).  A blade sign is one popcount
against `algebra.sign_mask`.  Fractions and exponent tuples appear only
at the API boundary (the `terms` views and the readers).  Serialization
orders monomials graded-lex; both JSON forms come from one walk.

`linear_combination` is the one sum entry point (`+` and `-` are its
two-operand case).  The explicit term, every realized chain and the CK
series are sums of x_0-shifted pieces, so an item may carry its x_0
power: its keys are shifted as they are added into one dict seeded from
the largest operand, and no shifted copy is built.

The powers |x̲|^(2l) of a context form a ladder memoized like
`key_layout`, each rung one product made once per process; its values
are shared, as every instance is treated as immutable.

Only this module knows the key layout: the kernels that walk the keys
live here, and other modules read the `terms` view.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from functools import cache
from math import gcd, lcm, prod
from typing import Iterable

from .algebra import (
    AlgebraContext,
    Scalar,
    blade_label,
    indices_to_mask,
    is_exact,
    mask_to_indices,
    parse_ratio,
    require_exact,
    require_fields,
    require_int,
    require_same_context,
    require_shape,
    scaled_text,
    short_repr,
    sign_mask,
    signed_sum,
)
from .errors import ContextMismatchError, DegreeLimitError, NonVectorInputError

FIELD_BITS = 16
FIELD_MASK = (1 << FIELD_BITS) - 1
DEGREE_LIMIT = 1 << FIELD_BITS  # every monomial degree stays below this


def _require_degree(degree: int, what: str) -> None:
    """Raise DegreeLimitError unless degree fits the packed exponent fields."""
    if degree >= DEGREE_LIMIT:
        raise DegreeLimitError(f"{what} degree {degree} is not below the limit {DEGREE_LIMIT}")


class KeyLayout:
    """Packed term keys in m+1 variables: degree, then a_0, ..., a_m, then
    the blade mask, from the highest bits down.

    `shifts[i]` is the bit offset of the x_i field and `units[i]` the key
    step of one power of x_i (its field plus the degree field), so
    d/dx_i lowers a key by subtracting `units[i]`.  `dirac_steps` holds
    (shift, unit, bit, sign mask) per generator e_j and `laplacian_steps`
    (shift, 2 * unit) per variable x_i: the tables of `dirac` and
    `laplacian`, built with the layout, once per m.
    """

    __slots__ = (
        "m", "mask_bits", "degree_shift", "shifts", "units", "dirac_steps", "laplacian_steps",
        "_flip", "_fields",
    )

    def __init__(self, m: int):
        self.m = m
        self.mask_bits = (1 << m) - 1
        self.degree_shift = m + FIELD_BITS * (m + 1)
        self.shifts = tuple(m + FIELD_BITS * (m - i) for i in range(m + 1))
        self.units = tuple((1 << s) + (1 << self.degree_shift) for s in self.shifts)
        self.dirac_steps = tuple(
            (self.shifts[j], self.units[j], 1 << (j - 1), sign_mask(1 << (j - 1)))
            for j in range(1, m + 1)
        )
        self.laplacian_steps = tuple((s, 2 * u) for s, u in zip(self.shifts, self.units))
        self._flip = (1 << self.degree_shift) - 1 - self.mask_bits  # every exponent bit
        self._fields = struct.Struct(">" + "H" * (m + 2))  # degree, a_0, ..., a_m

    def encode(self, exps: tuple[int, ...]) -> int:
        """The key of the monomial x^exps (m+1 non-negative ints) with mask 0;
        `encode(exps) | mask` is the key of x^exps e_mask."""
        degree = sum(exps)
        _require_degree(degree, "monomial")  # so every field fits its 16 bits
        return int.from_bytes(self._fields.pack(degree, *exps), "big") << self.m

    def decode(self, key: int) -> tuple[tuple[int, ...], int]:
        """(exps, mask) of a key; the degree field is not read, so one that
        outgrew its 16 bits (possible only past the degree checks) is harmless."""
        fields = ((key & self._flip) >> self.m).to_bytes(self._fields.size, "big")
        return self._fields.unpack(fields)[1:], key & self.mask_bits

    def sort_key(self, key: int) -> tuple[int, int, int]:
        """Graded-lex monomials (degree up, then x_0 > x_1 > ... > x_m), then
        blades by grade, then mask: flipping the exponent bits makes the
        larger exponents sort first within a degree."""
        mask = key & self.mask_bits
        return (key ^ self._flip) >> self.m, mask.bit_count(), mask


key_layout = cache(KeyLayout)


def unit_exps(m: int, i: int) -> tuple[int, ...]:
    """Exponent tuple of the bare variable x_i in m+1 variables."""
    require_int(i, "i")
    return tuple(1 if t == i else 0 for t in range(require_int(m, "m") + 1))


def _normalized(context: AlgebraContext, nums: dict, denominator: int, cls=None, cancels=False):
    """The canonical nums / denominator (nonzero nums, positive denominator,
    common factors divided out) as a `cls`, CliffordPolynomial by default.
    With `cancels`, nums may hold zeros; they are dropped in the same pass
    that divides out the common factor (a zero leaves the gcd as it is, and
    with no nonzero nums the gcd is the denominator itself)."""
    g = gcd(denominator, *nums.values()) if denominator != 1 else 1
    if g != 1 or cancels and 0 in nums.values():  # only then is a second dict needed
        nums = {key: q // g for key, q in nums.items() if q}
        denominator //= g
    out = object.__new__(cls or CliffordPolynomial)
    out.context, out.numerators, out.denominator = context, nums, denominator
    return out


def _collect(context: AlgebraContext, sums: dict, denominator: int, cls=None):
    """The canonical sums / denominator, sums an int numerator per key: the
    keys whose sum is zero are dropped here, and only here."""
    return _normalized(context, sums, denominator, cls, cancels=True)


def _summed(contributions) -> dict:
    """{key: sum of q} over (key, q) pairs: the sum loop of the readers and
    `evaluate`; `linear_combination`, `_product` and the operators add into
    their dict directly."""
    sums: dict = {}
    get = sums.get
    for key, q in contributions:
        sums[key] = q + get(key, 0)
    return sums


def _x0_step(p, j: int) -> int:
    """The key step of x_0^j on p (a polynomial or a multivector), after
    the checks of `times_x0`: j an int, not negative, and p's degree plus j
    below DEGREE_LIMIT."""
    if require_int(j, "power") < 0:
        raise ValueError("negative powers are not defined")
    layout, nums = key_layout(p.context.m), p.numerators
    degree = max(nums) >> layout.degree_shift if nums else -1  # as in `total_degree`
    _require_degree(degree + j, "product")
    return j * layout.units[0]


def linear_combination(context: AlgebraContext, items: Iterable[tuple]):
    """sum weight * x_0^j * operand over (weight, operand) or (weight, operand, j)
    items (j = 0 when left out) of int or Fraction weights and operands of
    `context`, j checked as `times_x0` checks it; a Multivector only if
    every operand is one and none is shifted.  One dict, seeded from the
    operand with the most keys, takes every shifted key, and one `_collect`
    over the least common denominator makes the normal form."""
    items = list(items)
    terms = []  # (weight numerator, numerators, key step, weight denominator * operand denominator)
    cls = Multivector if items else None
    for weight, x, *j in items:
        weight = require_exact(weight, "weight")
        if x.context != context:
            raise ContextMismatchError(f"an operand is not from the algebra of m={context.m}")
        step = _x0_step(x, *j) if j else 0
        if step or not isinstance(x, Multivector):
            cls = None
        if weight and x.numerators:
            terms.append((weight.numerator, x.numerators, step, weight.denominator * x.denominator))
    if not terms:
        return _normalized(context, {}, 1, cls)
    den = lcm(*(d for _, _, _, d in terms))
    q, nums, step, d = terms.pop(max(range(len(terms)), key=lambda i: len(terms[i][1])))
    scale = q * (den // d)
    if scale == 1 and not step:
        sums = dict(nums)
    else:
        sums = {key + step: scale * c for key, c in nums.items()}
    get = sums.get
    for q, nums, step, d in terms:
        scale = q * (den // d)
        for key, c in nums.items():
            key += step
            sums[key] = get(key, 0) + scale * c
    return _collect(context, sums, den, cls)


def _scaled(a, q: Scalar):
    """q * a for an int or Fraction q (scalars are central)."""
    nums = {key: q.numerator * c for key, c in a.numerators.items()} if q else {}
    return _normalized(a.context, nums, a.denominator * q.denominator, type(a))


def _product(a, b, cls=None):
    """a * b as a `cls`, CliffordPolynomial by default, a's blades on the
    left.  a and b may each be a polynomial or a multivector: a bare mask is
    the degree-0 key of the constant monomial, so it multiplies as it is.
    One sign serves each pair of masks, read from the left mask's
    `sign_mask`; the rest of the keys adds."""
    require_same_context(a, b)
    x, y = a.numerators, b.numerators
    layout = key_layout(a.context.m)
    if x and y:  # degree is the top field: the largest key has the largest degree
        shift = layout.degree_shift
        _require_degree((max(x) >> shift) + (max(y) >> shift), "product")
    mask_bits, lefts, rights = layout.mask_bits, {}, {}
    for groups, nums in ((lefts, x), (rights, y)):
        for key, q in nums.items():
            mask = key & mask_bits
            groups.setdefault(mask, []).append((key - mask, q))

    sums: dict = {}
    get = sums.get
    for ma, xs in lefts.items():
        r = sign_mask(ma)
        for mb, ys in rights.items():
            mask, negate = ma ^ mb, (mb & r).bit_count() & 1
            for ea, qa in xs:
                qa = -qa if negate else qa
                ea += mask
                for eb, qb in ys:
                    key = ea + eb
                    sums[key] = get(key, 0) + qa * qb
    return _collect(a.context, sums, a.denominator * b.denominator, cls)


def _equal(a, b) -> bool:
    return (a.context, a.denominator, a.numerators) == (b.context, b.denominator, b.numerators)


def _ratio_text(q: int, denominator: int) -> str:
    """The reduced fraction q / denominator as "num/den"."""
    g = gcd(q, denominator)
    return f"{q // g}/{denominator // g}"


def _blades_text(blades, denominator: int) -> str:
    """The text of the sum of q/denominator e_mask over (mask, q) pairs."""
    return signed_sum(
        scaled_text(Fraction(q, denominator), blade_label(mask) if mask else "", times="*")
        for mask, q in blades
    )


def _exponents(exps, m: int, field: str) -> tuple[int, ...]:
    """exps as a tuple of m+1 non-negative integers, or ValueError naming the field.

    A list or tuple of m+1 exact non-negative ints passes in one check;
    anything else takes the entry-by-entry path that names the fault."""
    if type(exps) in (list, tuple) and len(exps) == m + 1:
        if set(map(type, exps)) == {int} and min(exps) >= 0:
            return tuple(exps)
    exps = require_shape(exps, (list, tuple), field)
    exps = tuple(require_int(a, f"{field} entry") for a in exps)
    if len(exps) != m + 1 or any(a < 0 for a in exps):
        raise ValueError(f"{field} {short_repr(list(exps))} is not {m + 1} non-negative integers")
    return exps


def _from_ratios(context: AlgebraContext, coeffs: list, cls=None):
    """Convert [(key, numerator, positive denominator), ...] into the flat
    form, once, at the boundary; repeated keys are summed."""
    den = lcm(*{d for _, _, d in coeffs})
    return _collect(context, _summed((key, q * (den // d)) for key, q, d in coeffs), den, cls)


def from_entries(context: AlgebraContext, entries: Iterable[tuple], cls=None):
    """The sum of num/den x^exps e_mask over (exps, mask, num, den) entries,
    as a `cls` (CliffordPolynomial by default; a Multivector has only the
    constant monomial): the one validated constructor of the flat form.

    Each entry is checked: exps m+1 non-negative ints of total degree below
    DEGREE_LIMIT (else DegreeLimitError), mask a blade of R_{0,m}, num an
    int and den a positive int; anything else raises ValueError.  Repeated
    (exps, mask) pairs are summed, and a zero num still has its exps checked.
    """
    m, limit = context.m, 1 << context.m
    encode, bases, coeffs = key_layout(m).encode, {}, []
    for exps, mask, num, den in entries:
        exps = _exponents(exps, m, "exponent")
        base = bases.get(exps)
        if base is None:
            base = bases[exps] = encode(exps)
        if not (type(mask) is type(num) is type(den) is int and 0 <= mask < limit and den > 0):
            # the entry-by-entry path names the fault (an int subclass passes it)
            if not 0 <= require_int(mask, "blade mask") < limit:
                raise ValueError(f"blade mask {mask:#x} out of range for m={m}")
            require_int(num, "numerator")
            if require_int(den, "denominator") < 1:
                raise ValueError(f"denominator must be positive, got {den}")
        coeffs.append((base | mask, num, den))
    if cls is Multivector and any(bases.values()):
        raise ValueError("a multivector has only the constant monomial")
    return _from_ratios(context, coeffs, cls)


class Multivector:
    """Element of R_{0,m}: the flat form of a constant polynomial.

    `numerators` maps blade masks to nonzero ints over the positive
    `denominator`; instances are treated as immutable.  The constructor
    takes {mask: int or Fraction}; floats and bools are rejected rather
    than converted.
    """

    __slots__ = ("context", "numerators", "denominator")

    def __init__(self, context: AlgebraContext, terms: dict[int, Scalar]):
        zero = (0,) * (context.m + 1)
        coeffs = {mask: require_exact(q, "coefficient") for mask, q in terms.items()}
        entries = [(zero, mask, q.numerator, q.denominator) for mask, q in coeffs.items()]
        flat = from_entries(context, entries, Multivector)
        self.context, self.numerators, self.denominator = context, flat.numerators, flat.denominator

    @property
    def terms(self) -> dict[int, Fraction]:
        """{mask: Fraction} view of the coefficients, rebuilt on every access."""
        return {mask: Fraction(q, self.denominator) for mask, q in self.numerators.items()}

    def is_zero(self) -> bool:
        return not self.numerators

    def is_scalar(self) -> bool:
        return all(mask == 0 for mask in self.numerators)

    def scalar_part(self) -> Fraction:
        return Fraction(self.numerators.get(0, 0), self.denominator)

    def __add__(self, other: Multivector) -> Multivector:
        if not isinstance(other, Multivector):
            return NotImplemented
        return linear_combination(self.context, [(1, self), (1, other)])

    def __neg__(self) -> Multivector:
        return _scaled(self, -1)

    def __sub__(self, other: Multivector) -> Multivector:
        if not isinstance(other, Multivector):
            return NotImplemented
        return linear_combination(self.context, [(1, self), (-1, other)])

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return _product(self, other, Multivector)
        if is_exact(other):
            return _scaled(self, other)
        return NotImplemented

    def __rmul__(self, other):
        # Scalars are central, so left scaling equals right scaling.
        return _scaled(self, other) if is_exact(other) else NotImplemented

    def conjugate(self) -> Multivector:
        """Clifford conjugation: reverse factor order and negate each generator.

        On a grade-g blade this is the sign (-1)^(g(g+1)/2).
        """
        nums = self.numerators
        flipped = {mk: -q if mk.bit_count() % 4 in (1, 2) else q for mk, q in nums.items()}
        return _normalized(self.context, flipped, self.denominator, Multivector)

    def grade_projection(self, g: int) -> Multivector:
        if not 0 <= require_int(g, "grade") <= self.context.m:
            raise ValueError(f"grade {g} out of range 0..{self.context.m}")
        kept = {mask: q for mask, q in self.numerators.items() if mask.bit_count() == g}
        return _normalized(self.context, kept, self.denominator, Multivector)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multivector):
            return NotImplemented
        return _equal(self, other)

    __hash__ = None  # mutable-dict backed; not hashable

    def sorted_masks(self) -> list[int]:
        return sorted(self.numerators, key=lambda mk: (mk.bit_count(), mk))

    def __str__(self) -> str:
        nums = self.numerators
        return _blades_text(((mk, nums[mk]) for mk in self.sorted_masks()), self.denominator)

    def __repr__(self) -> str:
        return f"Multivector(m={self.context.m}: {self})"


class CliffordPolynomial:
    """Sparse polynomial over R_{0,m} in the m+1 variables x_0..x_m.

    `numerators` maps packed (monomial, blade) keys (see `KeyLayout`) to
    nonzero ints over the positive `denominator`; the constructor takes the
    {exps: Multivector} form and rejects a monomial of degree DEGREE_LIMIT
    or more with DegreeLimitError.
    """

    __slots__ = ("context", "numerators", "denominator")

    def __init__(self, context: AlgebraContext, terms: dict[tuple[int, ...], Multivector]):
        entries = []
        for exps, coeff in terms.items():
            if not isinstance(coeff, Multivector):
                raise ValueError(f"coefficient must be a Multivector, got {short_repr(coeff)}")
            if coeff.context != context:
                raise ContextMismatchError("coefficient from a different algebra")
            blades = coeff.numerators.items() or [(0, 0)]  # a zero coefficient's exps are checked too
            entries += [(exps, mask, q, coeff.denominator) for mask, q in blades]
        poly = from_entries(context, entries)
        self.context, self.numerators, self.denominator = context, poly.numerators, poly.denominator

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, context: AlgebraContext) -> CliffordPolynomial:
        return cls(context, {})

    @classmethod
    def constant(cls, context: AlgebraContext, value: Multivector | Scalar) -> CliffordPolynomial:
        coeff = value if isinstance(value, Multivector) else context.scalar(value)
        return cls(context, {(0,) * (context.m + 1): coeff})

    @classmethod
    def one(cls, context: AlgebraContext) -> CliffordPolynomial:
        return cls.constant(context, 1)

    @classmethod
    def monomial(
        cls, context: AlgebraContext, exps: Iterable[int], coeff: Multivector
    ) -> CliffordPolynomial:
        return cls(context, {tuple(exps): coeff})

    @classmethod
    def variable(cls, context: AlgebraContext, i: int) -> CliffordPolynomial:
        """The scalar variable x_i."""
        if not 0 <= require_int(i, "variable index") <= context.m:
            raise IndexError(f"variable index {i} out of range 0..{context.m}")
        return cls.monomial(context, unit_exps(context.m, i), context.one())

    # -- views ----------------------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, ...], Multivector]:
        """{exps: Multivector} view of the coefficients, rebuilt on every access."""
        context, den = self.context, self.denominator
        return {
            exps: _normalized(context, dict(blades), den, Multivector)
            for exps, blades in self._grouped()
        }

    def _grouped(self) -> list[tuple[tuple[int, ...], list]]:
        """(exps, [(mask, numerator), ...]) in `KeyLayout.sort_key` order: only
        the distinct monomials are sorted and decoded, and the blades only
        within a monomial that has more than one."""
        layout = key_layout(self.context.m)
        m, mask_bits = layout.m, layout.mask_bits
        groups: dict[int, list] = {}
        for key, q in self.numerators.items():
            groups.setdefault(key >> m, []).append((key & mask_bits, q))
        for blades in groups.values():
            if len(blades) > 1:
                blades.sort(key=lambda item: (item[0].bit_count(), item[0]))
        order = sorted(groups, key=(layout._flip >> m).__xor__)
        return [(layout.decode(mono << m)[0], groups[mono]) for mono in order]

    # -- ring structure ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.numerators

    def is_scalar(self) -> bool:
        """True iff every coefficient is grade 0, read from the blade masks."""
        mask_bits = key_layout(self.context.m).mask_bits
        return not any(key & mask_bits for key in self.numerators)

    def __add__(self, other: CliffordPolynomial) -> CliffordPolynomial:
        if not isinstance(other, CliffordPolynomial):
            return NotImplemented
        return linear_combination(self.context, [(1, self), (1, other)])

    def __neg__(self) -> CliffordPolynomial:
        return _scaled(self, -1)

    def __sub__(self, other: CliffordPolynomial) -> CliffordPolynomial:
        if not isinstance(other, CliffordPolynomial):
            return NotImplemented
        return linear_combination(self.context, [(1, self), (-1, other)])

    def __mul__(self, other):
        if isinstance(other, (CliffordPolynomial, Multivector)):
            return _product(self, other)
        if is_exact(other):
            return _scaled(self, other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, Multivector):  # `other` acts on each coefficient from the left
            return _product(other, self)
        if is_exact(other):
            return _scaled(self, other)
        return NotImplemented

    def __pow__(self, n: int) -> CliffordPolynomial:
        if require_int(n, "exponent") < 0:
            raise ValueError("negative powers are not defined")
        result = CliffordPolynomial.one(self.context)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, CliffordPolynomial):
            return NotImplemented
        return _equal(self, other)

    __hash__ = None

    # -- calculus and structure -----------------------------------------

    def partial_derivative(self, i: int) -> CliffordPolynomial:
        """Formal partial derivative with respect to x_i."""
        if not 0 <= require_int(i, "variable index") <= self.context.m:
            raise IndexError(f"variable index {i} out of range 0..{self.context.m}")
        layout = key_layout(self.context.m)
        shift, unit = layout.shifts[i], layout.units[i]
        nums = {}
        for key, q in self.numerators.items():
            a = key >> shift & FIELD_MASK
            if a:
                nums[key - unit] = a * q
        return _normalized(self.context, nums, self.denominator)

    def times_x0(self, j: int) -> CliffordPolynomial:
        """x_0^j times self: j added to the x_0 field of every key, no product."""
        step = _x0_step(self, j)
        nums = {key + step: q for key, q in self.numerators.items()}
        return _normalized(self.context, nums, self.denominator)

    def restrict_x0(self) -> CliffordPolynomial:
        """Substitute x_0 = 0."""
        shift = key_layout(self.context.m).shifts[0]
        kept = {key: q for key, q in self.numerators.items() if not key >> shift & FIELD_MASK}
        return _normalized(self.context, kept, self.denominator)

    def depends_on_x0(self) -> bool:
        shift = key_layout(self.context.m).shifts[0]
        return any(key >> shift & FIELD_MASK for key in self.numerators)

    def is_homogeneous(self, degree: int) -> bool:
        """True iff every monomial has the given total degree (vacuously for 0)."""
        nums, shift = self.numerators, key_layout(self.context.m).degree_shift
        return not nums or min(nums) >> shift == degree == max(nums) >> shift

    def total_degree(self) -> int:
        """Maximal total degree; -1 for the zero polynomial."""
        nums = self.numerators
        return max(nums) >> key_layout(self.context.m).degree_shift if nums else -1

    def coefficient(self, exps: Iterable[int]) -> Multivector:
        """The coefficient of x^exps, read from that monomial's keys only;
        zero if exps is not a monomial of the polynomial."""
        layout = key_layout(self.context.m)
        try:
            mono = layout.encode(_exponents(tuple(exps), layout.m, "exps")) >> layout.m
        except ValueError:  # wrong length, negative or inexact: no monomial has it
            mono = -1
        m, mask_bits = layout.m, layout.mask_bits
        blades = {key & mask_bits: q for key, q in self.numerators.items() if key >> m == mono}
        return _normalized(self.context, blades, self.denominator, Multivector)

    def evaluate(self, point: Iterable[Scalar]) -> Multivector:
        """Exact substitution of a rational point (x_0, ..., x_m)."""
        values = [require_exact(v, "point coordinate") for v in point]
        if len(values) != self.context.m + 1:
            raise ValueError(f"point must have {self.context.m + 1} coordinates")
        # over the common denominator den * prod_i d_i^(top_i), with v_i = n_i / d_i
        decode = key_layout(self.context.m).decode
        terms = [(*decode(key), q) for key, q in self.numerators.items()]
        tops = [max((e[i] for e, _, _ in terms), default=0) for i in range(len(values))]
        contributions = []
        for exps, mask, q in terms:
            for v, a, top in zip(values, exps, tops):
                q *= v.numerator**a * v.denominator ** (top - a)
            contributions.append((mask, q))  # the key of the constant monomial is its mask
        den = self.denominator * prod(v.denominator**top for v, top in zip(values, tops))
        return _collect(self.context, _summed(contributions), den, Multivector)

    # -- serialization ---------------------------------------------------

    def _json_parts(self) -> tuple[dict, dict, list]:
        """({mask: generator indices}, {numerator: reduced "num/den"}, `_grouped()`):
        the one walk both JSON forms are written from, each mask and numerator worked out once."""
        nums, mask_bits = self.numerators, key_layout(self.context.m).mask_bits
        indices = {mask: mask_to_indices(mask) for mask in {key & mask_bits for key in nums}}
        ratios = {q: _ratio_text(q, self.denominator) for q in set(nums.values())}
        return indices, ratios, self._grouped()

    def to_json_dict(self) -> dict:
        """Interchange schema: {"m": m, "terms": [{"exps": [...], "coeff":
        [{"blade": [...], "q": "num/den"}, ...]}, ...]}, monomials graded-lex,
        blades by grade then mask, each "q" reduced; every entry gets its own list."""
        indices, ratios, grouped = self._json_parts()
        terms = [
            {
                "exps": list(exps),
                "coeff": [{"blade": list(indices[mask]), "q": ratios[q]} for mask, q in blades],
            }
            for exps, blades in grouped
        ]
        return {"m": self.context.m, "terms": terms}

    def to_json_text(self, pad: str = "") -> str:
        """json.dumps(self.to_json_dict(), indent=2) byte for byte at depth pad (first line
        unindented), one template per term and coeff entry (the stdlib indents in pure Python)."""
        p1, p2, p3, p4, p5, p6 = (pad + "  " * i for i in range(1, 7))
        sep2, sep4, sep6 = (",\n" + p for p in (p2, p4, p6))
        indices, ratios, grouped = self._json_parts()
        blade = f"[\n{p6}%s\n{p5}]"
        lists = {mk: blade % sep6.join(map(str, ix)) if ix else "[]" for mk, ix in indices.items()}
        entry = f'{{\n{p5}"blade": %s,\n{p5}"q": "%s"\n{p4}}}'
        term = f'{{\n{p3}"exps": [\n{p4}%s\n{p3}],\n{p3}"coeff": [\n{p4}%s\n{p3}]\n{p2}}}'
        terms = sep2.join(
            term % (
                sep4.join(map(str, exps)),
                sep4.join(entry % (lists[mask], ratios[q]) for mask, q in blades),
            )
            for exps, blades in grouped
        )
        body = f"[\n{p2}{terms}\n{p1}]" if grouped else "[]"
        return f'{{\n{p1}"m": {self.context.m},\n{p1}"terms": {body}\n{pad}}}'

    @classmethod
    def from_json_dict(cls, data: dict) -> CliffordPolynomial:
        """Read the interchange schema strictly: the top level and each term
        and coeff entry must be objects, "terms", "exps", "coeff" and "blade"
        lists, "m", "exps" and "blade" entries JSON integers and "q" a string
        "int" or "int/int"; anything else raises ValueError naming the field.
        A well-formed "exps" list passes in one check (see `_exponents`); one
        of degree DEGREE_LIMIT or more raises DegreeLimitError."""
        m, terms = require_fields(data, "top level", "m", "terms")
        context = AlgebraContext(require_int(m, '"m"'))
        encode = key_layout(context.m).encode
        coeffs = []
        for item in require_shape(terms, list, '"terms"'):
            exps, coeff = require_fields(item, '"terms" entry', "exps", "coeff")
            base = encode(_exponents(exps, context.m, '"exps"'))
            for entry in require_shape(coeff, list, '"coeff"'):
                blade, q = require_fields(entry, '"coeff" entry', "blade", "q")
                key = base | indices_to_mask(blade, context.m)
                coeffs.append((key, *parse_ratio(q, '"q"')))
        return _from_ratios(context, coeffs)

    def __str__(self) -> str:
        parts = []
        for exps, blades in self._grouped():
            mono = "".join(f" x{i}" if a == 1 else f" x{i}^{a}" for i, a in enumerate(exps) if a)
            parts.append(f"({_blades_text(blades, self.denominator)}){mono}")
        return signed_sum(parts)

    def __repr__(self) -> str:
        return f"CliffordPolynomial(m={self.context.m}: {self})"


# -- kernels on the packed keys: the operators and the axial split -------


def dirac(p: CliffordPolynomial) -> CliffordPolynomial:
    """Dirac operator sum_j e_j d/dx_j (left action), e_j on the left of
    each term: e_j e_A = (-1)^s e_(A xor j), s = popcount(A & sign_mask(e_j)),
    the generators of A with index at most j."""
    sums: dict = {}
    get, field = sums.get, FIELD_MASK
    steps = key_layout(p.context.m).dirac_steps
    for key, q in p.numerators.items():
        for shift, unit, bit, upto in steps:
            a = key >> shift & field
            if a:
                target = (key - unit) ^ bit
                sums[target] = get(target, 0) + (-a * q if (key & upto).bit_count() & 1 else a * q)
    return _collect(p.context, sums, p.denominator)


def laplacian(p: CliffordPolynomial) -> CliffordPolynomial:
    """Laplacian in all m+1 variables, d^2/dx_i^2 of each term for i = 0..m;
    factors as the product of the Cauchy-Riemann operator with its conjugate."""
    sums: dict = {}
    get, field = sums.get, FIELD_MASK
    steps = key_layout(p.context.m).laplacian_steps
    for key, q in p.numerators.items():
        for shift, step in steps:
            a = key >> shift & field
            if a > 1:
                target = key - step
                sums[target] = get(target, 0) + a * (a - 1) * q
    return _collect(p.context, sums, p.denominator)


def vector_components(f: CliffordPolynomial) -> list[CliffordPolynomial]:
    """Split a grade-1 polynomial sum_j f_j e_j into its scalar components f_j."""
    comps: list[dict] = [{} for _ in range(f.context.m)]
    mask_bits = key_layout(f.context.m).mask_bits
    for key, q in f.numerators.items():
        mask = key & mask_bits
        if mask.bit_count() != 1:
            raise NonVectorInputError("coefficients must be grade 1")
        comps[mask.bit_length() - 1][key - mask] = q
    return [_normalized(f.context, comp, f.denominator) for comp in comps]


def x0_strata(p: CliffordPolynomial) -> dict[tuple[int, int], CliffordPolynomial]:
    """{(j, degree): the x_0-free part}: p as the sum over the keys of
    x_0^j times that part, each part homogeneous of the given degree."""
    layout = key_layout(p.context.m)
    shift, unit, degree_shift = layout.shifts[0], layout.units[0], layout.degree_shift
    strata: dict[tuple[int, int], dict] = {}
    for key, q in p.numerators.items():
        j = key >> shift & FIELD_MASK
        rest = key - j * unit
        strata.setdefault((j, rest >> degree_shift), {})[rest] = q
    return {jd: _normalized(p.context, nums, p.denominator) for jd, nums in strata.items()}


def scalar_ratio(target: CliffordPolynomial, reference: CliffordPolynomial) -> Fraction | None:
    """The rational h with target = h * reference for a nonzero reference,
    or None.  Any key of the reference serves as the pivot: the candidate h
    is then checked on every term."""
    if reference.is_zero():
        raise ValueError("scalar_ratio needs a nonzero reference")
    pivot = min(reference.numerators)
    ratio = Fraction(
        target.numerators.get(pivot, 0) * reference.denominator,
        target.denominator * reference.numerators[pivot],
    )
    return ratio if target == ratio * reference else None


@cache
def vector_variable(context: AlgebraContext) -> CliffordPolynomial:
    """The vector variable sum_j x_j e_j, built once per context."""
    terms = {unit_exps(context.m, j): context.e(j) for j in range(1, context.m + 1)}
    return CliffordPolynomial(context, terms)


@cache
def _radius_ladder(context: AlgebraContext) -> dict[int, CliffordPolynomial]:
    """{l: |x̲|^(2l)} of one context, memoized like `key_layout`; `vector_power` adds rungs."""
    m = context.m
    squares = {tuple(2 * a for a in unit_exps(m, j)): context.one() for j in range(1, m + 1)}
    return {0: CliffordPolynomial.one(context), 1: CliffordPolynomial(context, squares)}


def radius_squared(context: AlgebraContext) -> CliffordPolynomial:
    """|x̲|^2 = x_1^2 + ... + x_m^2, a scalar polynomial."""
    return _radius_ladder(context)[1]


def vector_power(context: AlgebraContext, n: int) -> CliffordPolynomial:
    """n-th power of the vector variable in closed form.

    Even powers are scalar: (sum x_j e_j)^(2l) = (-1)^l |x̲|^(2l), read
    from the ladder; odd powers carry one remaining vector factor.  Rung l
    is set from rung l-1, so the rungs stay 0..len-1, none read unset.
    """
    if require_int(n, "power") < 0:
        raise ValueError("negative powers are not defined")
    _require_degree(n, "vector power")
    half, odd = divmod(n, 2)
    ladder = _radius_ladder(context)
    for l in range(len(ladder), half + 1):
        ladder[l] = ladder[l - 1] * ladder[1]
    base = -ladder[half] if half % 2 else ladder[half]
    return base * vector_variable(context) if odd else base


def first_difference(p: CliffordPolynomial, q: CliffordPolynomial) -> str | None:
    """Describe the graded-lex-first term where p and q differ, or None."""
    diff = p - q
    if diff.is_zero():
        return None
    layout = key_layout(diff.context.m)
    key = min(diff.numerators, key=layout.sort_key)
    exps, mask = layout.decode(key)
    return (
        f"monomial {list(exps)}, blade {list(mask_to_indices(mask))}: "
        f"difference {_ratio_text(diff.numerators[key], diff.denominator)}"
    )


def degree_witness(p: CliffordPolynomial, degree: int) -> str | None:
    """Describe the graded-lex-first monomial of p not of the given degree, or None."""
    if p.is_homogeneous(degree):
        return None
    layout = key_layout(p.context.m)
    shift = layout.degree_shift
    key = min((key for key in p.numerators if key >> shift != degree), key=layout.sort_key)
    return f"monomial {list(layout.decode(key)[0])} has degree {key >> shift}, expected {degree}"
