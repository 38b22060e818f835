"""LaTeX rendering for human inspection of generated terms."""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .algebra import Multivector, blade_label
from .coefficients import expansion_coefficient
from .polynomials import CliffordPolynomial


def fraction_latex(q: Fraction) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    sign = "-" if q < 0 else ""
    return rf"{sign}\frac{{{abs(q.numerator)}}}{{{q.denominator}}}"


def blade_latex(mask: int) -> str:
    return "e_{" + blade_label(mask)[1:] + "}" if mask else ""


def _scaled_latex(q: Fraction, body: str) -> str:
    """q times a product of variables and blades, unit factors left implicit."""
    if not body:
        return fraction_latex(q)
    if q == 1:
        return body
    if q == -1:
        return "-" + body
    return fraction_latex(q) + " " + body


def multivector_latex(a: Multivector) -> str:
    if a.is_zero():
        return "0"
    terms = a.terms
    parts = [_scaled_latex(terms[mask], blade_latex(mask)) for mask in a.sorted_masks()]
    return " + ".join(parts).replace("+ -", "- ")


def _monomial_latex(exps: tuple[int, ...]) -> str:
    pieces = []
    for i, a in enumerate(exps):
        if a == 1:
            pieces.append(f"x_{{{i}}}")
        elif a > 1:
            pieces.append(f"x_{{{i}}}^{{{a}}}")
    return " ".join(pieces)


def polynomial_latex(p: CliffordPolynomial) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for exps, coeff in p.terms.items():
        mono = _monomial_latex(exps)
        if len(coeff.terms) > 1:
            body = r"\left(" + multivector_latex(coeff) + r"\right)"
            parts.append(body + (" " + mono if mono else ""))
        else:
            (mask, q), = coeff.terms.items()
            body = " ".join(piece for piece in (mono, blade_latex(mask)) if piece)
            parts.append(_scaled_latex(q, body))
    return " + ".join(parts).replace("+ -", "- ")


def collected_term_latex(m: int, k: int, n: int, pk: CliffordPolynomial | None = None) -> str:
    """n-th sequence term with the powers of x_0 and x̲ collected binomially.

    For k = 0 (unit initial term) only the collected polynomial is shown.
    """
    if n == 0:
        return polynomial_latex(pk) if k > 0 and pk is not None else "1"
    parts = []
    for j in range(n, -1, -1):
        weight = comb(n, j) * expansion_coefficient(m, k, n, j)
        pieces = []
        if j:
            pieces.append("x_0" if j == 1 else f"x_0^{{{j}}}")
        i = n - j
        if i:
            pieces.append(r"\underline{x}" if i == 1 else rf"\underline{{x}}^{{{i}}}")
        parts.append(_scaled_latex(weight, " ".join(pieces)))
    collected = " + ".join(parts)
    if k == 0 or pk is None:
        return collected
    return r"\left(" + collected + r"\right)\left(" + polynomial_latex(pk) + r"\right)"
