"""Polynomials in x_0, ..., x_m with multivector coefficients.

The variables are real and therefore central; coefficients sit on the
left of the monomials, which is the convention every left-acting
operator in this package relies on.

A polynomial is stored flat: integer numerators over one positive
denominator, keyed by one packed int per (monomial, blade) (see
`KeyLayout`), so a product key is an int addition and a derivative a
subtraction.  Every monomial degree stays below DEGREE_LIMIT, so no
exponent carries into the next field: the constructor, `from_json_dict`
and every product check it.

The form is canonical (no zero numerator, no factor common to all
numerators and the denominator, denominator 1 for zero), so equality is
literal.  Every result is built by `_collect` (integer contributions
summed by `algebra.accumulate`) or `_normalized`; Fractions and exponent
tuples appear only at the API boundary.  Serialization orders monomials
graded-lexicographically.

Only this module knows the key layout: the kernels that walk the keys
live here, and other modules read the `terms` view.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm, prod
from typing import Iterable

from .algebra import (
    AlgebraContext,
    Multivector,
    Scalar,
    _products,
    accumulate,
    indices_to_mask,
    mask_to_indices,
    parse_rational,
    require_exact,
    require_fields,
    require_int,
    require_same_context,
    require_shape,
    short_repr,
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
    d/dx_i lowers a key by subtracting `units[i]`.
    """

    __slots__ = ("m", "mask_bits", "degree_shift", "shifts", "units", "_flip")

    def __init__(self, m: int):
        self.m = m
        self.mask_bits = (1 << m) - 1
        self.degree_shift = m + FIELD_BITS * (m + 1)
        self.shifts = tuple(m + FIELD_BITS * (m - i) for i in range(m + 1))
        self.units = tuple((1 << s) + (1 << self.degree_shift) for s in self.shifts)
        self._flip = (1 << self.degree_shift) - 1 - self.mask_bits  # every exponent bit

    def encode(self, exps: tuple[int, ...]) -> int:
        """The key of the monomial x^exps (m+1 non-negative ints) with mask 0;
        `encode(exps) | mask` is the key of x^exps e_mask."""
        degree = sum(exps)
        _require_degree(degree, "monomial")
        key = degree
        for a in exps:
            key = key << FIELD_BITS | a
        return key << self.m

    def decode(self, key: int) -> tuple[tuple[int, ...], int]:
        """(exps, mask) of a key."""
        return tuple(key >> s & FIELD_MASK for s in self.shifts), key & self.mask_bits

    def sort_key(self, key: int) -> tuple[int, int, int]:
        """Graded-lex monomials (degree up, then x_0 > x_1 > ... > x_m), then
        blades by grade, then mask: flipping the exponent bits makes the
        larger exponents sort first within a degree."""
        mask = key & self.mask_bits
        return (key ^ self._flip) >> self.m, mask.bit_count(), mask


key_layout = cache(KeyLayout)


def unit_exps(m: int, i: int) -> tuple[int, ...]:
    """Exponent tuple of the bare variable x_i in m+1 variables."""
    return tuple(1 if t == i else 0 for t in range(m + 1))


def _normalized(context: AlgebraContext, nums: dict, denominator: int) -> CliffordPolynomial:
    """The canonical polynomial nums / denominator, for nonzero nums and a
    positive denominator: common factors divided out."""
    if not nums:
        denominator = 1
    elif denominator != 1:
        g = gcd(denominator, *nums.values())
        if g != 1:
            nums = {key: q // g for key, q in nums.items()}
            denominator //= g
    poly = CliffordPolynomial.__new__(CliffordPolynomial)
    poly.context, poly.numerators, poly.denominator = context, nums, denominator
    return poly


def _collect(context: AlgebraContext, contributions, denominator: int) -> CliffordPolynomial:
    """Sum integer contributions (key, numerator) per key, over a common
    denominator."""
    return _normalized(context, accumulate(contributions), denominator)


def _exponents(exps, m: int, field: str) -> tuple[int, ...]:
    """exps as a tuple of m+1 non-negative integers, or ValueError naming the field.

    A list or tuple of m+1 exact non-negative ints passes in one check;
    anything else takes the entry-by-entry path that names the fault."""
    if type(exps) in (list, tuple) and len(exps) == m + 1:
        if all(type(a) is int and a >= 0 for a in exps):
            return tuple(exps)
    exps = require_shape(exps, (list, tuple), field)
    exps = tuple(require_int(a, f"{field} entry") for a in exps)
    if len(exps) != m + 1 or any(a < 0 for a in exps):
        raise ValueError(f"{field} {short_repr(list(exps))} is not {m + 1} non-negative integers")
    return exps


def _from_fractions(context: AlgebraContext, coeffs: list) -> CliffordPolynomial:
    """Convert [(key, Fraction), ...] into the flat form, once, at the
    boundary; repeated keys are summed."""
    den = lcm(*(q.denominator for _, q in coeffs))
    numerators = [(key, q.numerator * (den // q.denominator)) for key, q in coeffs]
    return _collect(context, numerators, den)


class CliffordPolynomial:
    """Sparse polynomial over R_{0,m} in the m+1 variables x_0..x_m.

    `numerators` maps packed (monomial, blade) keys (see `KeyLayout`) to
    nonzero ints over the positive `denominator`; the constructor takes the
    {exps: Multivector} form and rejects a monomial of degree DEGREE_LIMIT
    or more with DegreeLimitError.
    """

    __slots__ = ("context", "numerators", "denominator")

    def __init__(self, context: AlgebraContext, terms: dict[tuple[int, ...], Multivector]):
        encode = key_layout(context.m).encode
        coeffs = []
        for exps, coeff in terms.items():
            base = encode(_exponents(exps, context.m, "exponent"))
            if coeff.context != context:
                raise ContextMismatchError("coefficient from a different algebra")
            coeffs += [(base | mask, q) for mask, q in coeff.terms.items()]
        poly = _from_fractions(context, coeffs)
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
        if not 0 <= i <= context.m:
            raise IndexError(f"variable index {i} out of range 0..{context.m}")
        return cls.monomial(context, unit_exps(context.m, i), context.one())

    # -- views ----------------------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, ...], Multivector]:
        """{exps: Multivector} view of the coefficients, rebuilt on every access."""
        context, den = self.context, self.denominator
        return {
            exps: Multivector._of(context, {mask: Fraction(q, den) for mask, q in blades})
            for exps, blades in self._grouped()
        }

    def _ratio_text(self, q: int) -> str:
        """The reduced fraction q / denominator as "num/den"."""
        g = gcd(q, self.denominator)
        return f"{q // g}/{self.denominator // g}"

    def _grouped(self) -> list[tuple[tuple[int, ...], list]]:
        """(exps, [(mask, numerator), ...]) in graded-lex monomial order,
        blades of each monomial by grade, then mask; one sort over the keys,
        one decode per distinct monomial."""
        layout = key_layout(self.context.m)
        m, mask_bits, nums = layout.m, layout.mask_bits, self.numerators
        groups: dict[int, list] = {}
        for key in sorted(nums, key=layout.sort_key):
            groups.setdefault(key >> m, []).append((key & mask_bits, nums[key]))
        return [(layout.decode(mono << m)[0], blades) for mono, blades in groups.items()]

    # -- ring structure ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.numerators

    def _combined(self, other: CliffordPolynomial, sign: int) -> CliffordPolynomial:
        """self + sign * other over the least common denominator."""
        require_same_context(self, other)
        da, db = self.denominator, other.denominator
        den = lcm(da, db)
        sa, sb = den // da, sign * (den // db)
        contributions = [(key, sa * q) for key, q in self.numerators.items()]
        contributions += [(key, sb * q) for key, q in other.numerators.items()]
        return _collect(self.context, contributions, den)

    def __add__(self, other: CliffordPolynomial) -> CliffordPolynomial:
        if not isinstance(other, CliffordPolynomial):
            return NotImplemented
        return self._combined(other, 1)

    def __neg__(self) -> CliffordPolynomial:
        return self._scaled(Fraction(-1))

    def __sub__(self, other: CliffordPolynomial) -> CliffordPolynomial:
        if not isinstance(other, CliffordPolynomial):
            return NotImplemented
        return self._combined(other, -1)

    def __mul__(self, other):
        if isinstance(other, CliffordPolynomial):
            require_same_context(self, other)
            a, b = self.numerators, other.numerators
            layout = key_layout(self.context.m)
            if a and b:  # degree is the top field: the largest key has the largest degree
                _require_degree(
                    (max(a) >> layout.degree_shift) + (max(b) >> layout.degree_shift), "product"
                )
            den = self.denominator * other.denominator
            return _collect(self.context, _products(a, b, layout.mask_bits), den)
        if isinstance(other, Multivector):
            # right multiplication: coefficients pick up `other` on the right
            return self * CliffordPolynomial.constant(self.context, other)
        if isinstance(other, (int, Fraction)):
            return self._scaled(Fraction(other))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, Multivector):
            # left multiplication: `other` acts on each coefficient from the left
            return CliffordPolynomial.constant(self.context, other) * self
        if isinstance(other, (int, Fraction)):
            return self._scaled(Fraction(other))
        return NotImplemented

    def _scaled(self, q: Fraction) -> CliffordPolynomial:
        nums = {key: q.numerator * c for key, c in self.numerators.items()} if q else {}
        return _normalized(self.context, nums, self.denominator * q.denominator)

    def __pow__(self, n: int) -> CliffordPolynomial:
        if n < 0:
            raise ValueError("negative powers are not defined")
        result = CliffordPolynomial.one(self.context)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, CliffordPolynomial):
            return NotImplemented
        return (
            self.context == other.context
            and self.denominator == other.denominator
            and self.numerators == other.numerators
        )

    __hash__ = None

    # -- calculus and structure -----------------------------------------

    def partial_derivative(self, i: int) -> CliffordPolynomial:
        """Formal partial derivative with respect to x_i."""
        if not 0 <= i <= self.context.m:
            raise IndexError(f"variable index {i} out of range 0..{self.context.m}")
        layout = key_layout(self.context.m)
        shift, unit = layout.shifts[i], layout.units[i]
        nums = {}
        for key, q in self.numerators.items():
            a = key >> shift & FIELD_MASK
            if a:
                nums[key - unit] = a * q
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

    def homogeneous_component(self, degree: int) -> CliffordPolynomial:
        shift = key_layout(self.context.m).degree_shift
        kept = {key: q for key, q in self.numerators.items() if key >> shift == degree}
        return _normalized(self.context, kept, self.denominator)

    def coefficient(self, exps: Iterable[int]) -> Multivector:
        return self.terms.get(tuple(exps), self.context.zero())

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
        return _collect(self.context, contributions, den).coefficient((0,) * len(values))

    # -- serialization ---------------------------------------------------

    def sorted_exps(self) -> list[tuple[int, ...]]:
        return [exps for exps, _ in self._grouped()]

    def to_json_dict(self) -> dict:
        """Interchange schema: {"m": m, "terms": [{"exps": [...], "coeff":
        [{"blade": [...], "q": "num/den"}, ...]}, ...]}, monomials graded-lex,
        blades by grade then mask, each "q" reduced.  The generator indices
        of each distinct mask are found once; every entry gets its own list."""
        mask_bits = key_layout(self.context.m).mask_bits
        indices = {mask: mask_to_indices(mask) for mask in {k & mask_bits for k in self.numerators}}
        terms = [
            {
                "exps": list(exps),
                "coeff": [
                    {"blade": list(indices[mask]), "q": self._ratio_text(q)}
                    for mask, q in blades
                ],
            }
            for exps, blades in self._grouped()
        ]
        return {"m": self.context.m, "terms": terms}

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
                coeffs.append((key, parse_rational(q, '"q"')))
        return _from_fractions(context, coeffs)

    def __str__(self) -> str:
        if not self.numerators:
            return "0"
        parts = []
        for exps, coeff in self.terms.items():
            mono = " ".join(
                f"x{i}" if a == 1 else f"x{i}^{a}" for i, a in enumerate(exps) if a
            )
            parts.append(f"({coeff}) {mono}" if mono else f"({coeff})")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"CliffordPolynomial(m={self.context.m}: {self})"


# -- kernels on the packed keys: the operators and the axial split -------


def _dirac_terms(numerators: dict, m: int):
    """Contributions of dirac: e_j times d/dx_j of each term, e_j on the left.

    e_j e_A = (-1)^s e_(A xor j), where s counts the generators of A with
    index at most j (the swaps past smaller ones, and e_j^2 = -1).
    """
    layout = key_layout(m)
    generators = [
        (layout.shifts[j], layout.units[j], 1 << (j - 1), (1 << j) - 1) for j in range(1, m + 1)
    ]
    for key, q in numerators.items():
        for shift, unit, bit, upto in generators:
            a = key >> shift & FIELD_MASK
            if a:
                yield (key - unit) ^ bit, (-a * q if (key & upto).bit_count() & 1 else a * q)


def _laplacian_terms(numerators: dict, m: int):
    """Contributions of the Laplacian: d^2/dx_i^2 of each term, for i = 0..m."""
    layout = key_layout(m)
    variables = [(shift, 2 * unit) for shift, unit in zip(layout.shifts, layout.units)]
    for key, q in numerators.items():
        for shift, step in variables:
            a = key >> shift & FIELD_MASK
            if a > 1:
                yield key - step, a * (a - 1) * q


def dirac(p: CliffordPolynomial) -> CliffordPolynomial:
    """Dirac operator sum_j e_j d/dx_j (left action)."""
    return _collect(p.context, _dirac_terms(p.numerators, p.context.m), p.denominator)


def laplacian(p: CliffordPolynomial) -> CliffordPolynomial:
    """Laplacian in all m+1 variables; factors as the product of the
    Cauchy-Riemann operator with its conjugate."""
    return _collect(p.context, _laplacian_terms(p.numerators, p.context.m), p.denominator)


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
    pivot = min(reference.numerators)
    ratio = Fraction(
        target.numerators.get(pivot, 0) * reference.denominator,
        target.denominator * reference.numerators[pivot],
    )
    return ratio if target == ratio * reference else None


def vector_variable(context: AlgebraContext) -> CliffordPolynomial:
    """The vector variable: sum_j x_j e_j."""
    terms = {
        unit_exps(context.m, j): context.e(j) for j in range(1, context.m + 1)
    }
    return CliffordPolynomial(context, terms)


def radius_squared(context: AlgebraContext) -> CliffordPolynomial:
    """|x̲|^2 = x_1^2 + ... + x_m^2, a scalar polynomial."""
    terms = {}
    for j in range(1, context.m + 1):
        exps = tuple(2 if t == j else 0 for t in range(context.m + 1))
        terms[exps] = context.one()
    return CliffordPolynomial(context, terms)


def vector_power(context: AlgebraContext, n: int) -> CliffordPolynomial:
    """n-th power of the vector variable in closed form.

    Even powers are scalar: (sum x_j e_j)^(2l) = (-1)^l |x̲|^(2l); odd
    powers carry one remaining vector factor.
    """
    if n < 0:
        raise ValueError("negative powers are not defined")
    half, odd = divmod(n, 2)
    base = radius_squared(context) ** half
    if half % 2:
        base = -base
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
        f"difference {diff._ratio_text(diff.numerators[key])}"
    )


def degree_witness(p: CliffordPolynomial, degree: int) -> str | None:
    """Describe the graded-lex-first monomial of p not of the given degree, or None."""
    if p.is_homogeneous(degree):
        return None
    layout = key_layout(p.context.m)
    shift = layout.degree_shift
    key = min((key for key in p.numerators if key >> shift != degree), key=layout.sort_key)
    return f"monomial {list(layout.decode(key)[0])} has degree {key >> shift}, expected {degree}"
