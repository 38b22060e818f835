"""Literal pins of every text form: str/repr of multivectors and polynomials,
the (x_0, t) text of profiles, their LaTeX, and the summary and LaTeX output
of `generate`."""

import json
import random
from fractions import Fraction

import pytest

from monappell.algebra import AlgebraContext
from monappell.bivariate import _profile_text
from monappell.cli import main
from monappell.latex import multivector_latex, polynomial_latex
from monappell.polynomials import CliffordPolynomial
from monappell.sampling import random_initial_term
from strategies import PLANE, profile

CTX3 = AlgebraContext(3)
CTX10 = AlgebraContext(10)


@pytest.mark.parametrize(
    "value, text",
    [
        (CTX3.scalar(Fraction(-7, 2)), "-7/2"),
        (CTX3.e(2), "e2"),
        (-CTX3.blade((1, 3)), "-e13"),
        (Fraction(2, 3) * CTX3.e(1) - Fraction(1, 4) * CTX3.blade((1, 2, 3)) + CTX3.scalar(5),
         "5 + 2/3*e1 - 1/4*e123"),
        (CTX3.zero(), "0"),
    ],
)
def test_multivector_str_and_repr(value, text):
    assert str(value) == text
    assert repr(value) == f"Multivector(m=3: {text})"


def test_multivector_label_past_nine_generators():
    value = CTX10.blade((1, 10)) - 3 * CTX10.e(9)
    assert str(value) == "-3*e9 + e1,10"
    assert repr(value) == "Multivector(m=10: -3*e9 + e1,10)"


def _multi_blade_polynomial() -> CliffordPolynomial:
    x = lambda i: CliffordPolynomial.variable(CTX3, i)  # noqa: E731
    coeff = CTX3.e(1) + Fraction(-3, 2) * CTX3.blade((2, 3))
    constant = CliffordPolynomial.constant(CTX3, CTX3.scalar(4) - CTX3.e(3))
    return coeff * x(1) * x(0) ** 2 - constant - x(3) * CTX3.e(2)


def test_polynomial_str_and_repr():
    text = "(-4 + e3) + (-e2) x3 + (e1 - 3/2*e23) x0^2 x1"
    p = _multi_blade_polynomial()
    assert str(p) == text
    assert repr(p) == f"CliffordPolynomial(m=3: {text})"
    assert str(CliffordPolynomial.constant(CTX3, 2)) == "(2)"
    assert str(CliffordPolynomial.zero(CTX3)) == "0"
    assert repr(CliffordPolynomial.zero(CTX3)) == "CliffordPolynomial(m=3: 0)"


def test_bivariate_str_in_a_l_order():
    b = profile({(0, 2): Fraction(-1, 3), (1, 0): 1, (0, 0): -2, (2, 1): -1, (0, 1): 5})
    assert _profile_text(b) == "-2 + 5 t - 1/3 t^2 + x0 - x0^2 t"
    assert _profile_text(CliffordPolynomial.zero(PLANE)) == "0"


def test_latex_of_multi_blade_values():
    value = Fraction(2, 3) * CTX3.e(1) - Fraction(1, 4) * CTX3.blade((1, 2, 3)) + CTX3.scalar(5)
    assert multivector_latex(value) == r"5 + \frac{2}{3} e_{1} - \frac{1}{4} e_{123}"
    assert polynomial_latex(_multi_blade_polynomial()) == (
        r"\left(-4 + e_{3}\right) - x_{3} e_{2} + "
        r"\left(e_{1} - \frac{3}{2} e_{23}\right) x_{0}^{2} x_{1}"
    )


PK3_TEXT = (
    "(1/2) x1^3 + (-3/2*e13) x1^2 x3 + (-3/2) x1 x3^2 + (6) x2^3 + (-18*e23) x2^2 x3"
    " + (-18) x2 x3^2 + (1/2*e13 + 6*e23) x3^3"
)
PK3_LATEX = (
    r"\frac{1}{2} x_{1}^{3} - \frac{3}{2} x_{1}^{2} x_{3} e_{13} - \frac{3}{2} x_{1} x_{3}^{2}"
    r" + 6 x_{2}^{3} - 18 x_{2}^{2} x_{3} e_{23} - 18 x_{2} x_{3}^{2}"
    r" + \left(\frac{1}{2} e_{13} + 6 e_{23}\right) x_{3}^{3}"
)


def _generate(capsys, tmp_path, fmt):
    pk = random_initial_term(random.Random(5), CTX3, 3)  # x_3^3 carries two blades
    path = tmp_path / "pk3.json"
    path.write_text(json.dumps(pk.to_json_dict()))
    argv = ["generate", "--m", "3", "--k", "3", "--n-max", "1", "--pk", str(path)]
    assert main(argv + ["--format", fmt]) == 0
    return capsys.readouterr().out.splitlines()


def test_generate_summary_of_a_multi_blade_initial_term(capsys, tmp_path):
    assert _generate(capsys, tmp_path, "summary") == [
        "n=0: " + PK3_TEXT,
        "n=1: (1/2) x0 x1^3 + (-3/2*e13) x0 x1^2 x3 + (-3/2) x0 x1 x3^2 + (6) x0 x2^3"
        " + (-18*e23) x0 x2^2 x3 + (-18) x0 x2 x3^2 + (1/2*e13 + 6*e23) x0 x3^3"
        " + (1/18*e1) x1^4 + (1/18*e2) x1^3 x2 + (2/9*e3) x1^3 x3 + (1/6*e123) x1^2 x2 x3"
        " + (-1/3*e1) x1^2 x3^2 + (2/3*e1) x1 x2^3 + (-2*e123) x1 x2^2 x3"
        " + (-2*e1 - 1/6*e2) x1 x2 x3^2 + (-2/9*e3 + 2/3*e123) x1 x3^3 + (2/3*e2) x2^4"
        " + (8/3*e3) x2^3 x3 + (-4*e2) x2^2 x3^2 + (-8/3*e3 - 1/18*e123) x2 x3^3"
        " + (1/18*e1 + 2/3*e2) x3^4",
    ]


def test_generate_latex_of_a_multi_blade_initial_term(capsys, tmp_path):
    assert _generate(capsys, tmp_path, "latex") == [
        "n=0: " + PK3_LATEX,
        r"n=1: \left(x_0 + \frac{1}{9} \underline{x}\right)\left(" + PK3_LATEX + r"\right)",
    ]
