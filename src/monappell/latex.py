"""LaTeX rendering for human inspection of generated terms."""

from __future__ import annotations

from fractions import Fraction

from .algebra import Multivector, blade_label, scaled_text, signed_sum
from .coefficients import explicit_weights
from .polynomials import CliffordPolynomial


def fraction_latex(q: Fraction) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    sign = "-" if q < 0 else ""
    return rf"{sign}\frac{{{abs(q.numerator)}}}{{{q.denominator}}}"


def blade_latex(mask: int) -> str:
    return "e_{" + blade_label(mask)[1:] + "}" if mask else ""


def multivector_latex(a: Multivector) -> str:
    terms = a.terms
    return signed_sum(
        scaled_text(terms[mask], blade_latex(mask), fraction_latex) for mask in a.sorted_masks()
    )


def _powers_latex(powers) -> str:
    """The product of v^e over (v, e) pairs: e = 1 is implicit, e = 0 left out."""
    return " ".join(v if e == 1 else f"{v}^{{{e}}}" for v, e in powers if e)


def polynomial_latex(p: CliffordPolynomial) -> str:
    parts = []
    for exps, coeff in p.terms.items():
        mono = _powers_latex((f"x_{{{i}}}", a) for i, a in enumerate(exps))
        if len(coeff.terms) > 1:
            body = r"\left(" + multivector_latex(coeff) + r"\right)"
            parts.append(body + (" " + mono if mono else ""))
        else:
            (mask, q), = coeff.terms.items()
            body = " ".join(piece for piece in (mono, blade_latex(mask)) if piece)
            parts.append(scaled_text(q, body, fraction_latex))
    return signed_sum(parts)


def collected_term_latex(m: int, k: int, n: int, pk: CliffordPolynomial | None = None) -> str:
    """n-th sequence term with the powers of x_0 and x̲ collected binomially,
    times the initial term pk; the factor is left out when pk is omitted or
    is the constant 1 (the only polynomial whose LaTeX is "1").
    """
    factor = "1" if pk is None else polynomial_latex(pk)
    if n == 0:
        return factor
    collected = signed_sum(
        scaled_text(weight, _powers_latex((("x_0", j), (r"\underline{x}", n - j))), fraction_latex)
        for j, weight in explicit_weights(m, k, n)
    )
    if factor == "1":
        return collected
    return r"\left(" + collected + r"\right)\left(" + factor + r"\right)"
