"""Acceptance criteria, one test per criterion, every equality exact.

Each test prints a single PASS/FAIL line (visible with pytest -s) in
addition to asserting, so a full run doubles as a checklist.
"""

from fractions import Fraction

import pytest

from monappell.algebra import AlgebraContext
from monappell.ck import ck_extend, is_monogenic
from monappell.fueter import fueter_compare, fueter_map
from monappell.initial_terms import validate_initial_term
from monappell.polynomials import (
    CliffordPolynomial,
    first_difference,
    unit_exps,
    vector_power,
    vector_variable,
)
from monappell.sequences import (
    SequenceSpec,
    axial_decompose,
    generate_sequence,
    sequence_term_ck,
    vekua_witness,
    verify_sequence,
)
from monappell.suites import ck_suite, leibniz_scalar_suite, leibniz_vector_suite, power_rule_suite

GRID_M = (2, 3, 4, 5)
GRID_K = (0, 1, 2, 3)
N_MAX = 6
SUITE_MS = (2, 3, 4)
SUITE_CASES = 100
SEED = 20240809

FUETER_MS = (3, 5)
FUETER_KS = (0, 1, 2)
FUETER_N_MAX = 5


def _record(name: str, passed: bool, detail: str = "") -> None:
    tag = "PASS" if passed else "FAIL"
    suffix = f"  {detail}" if detail else ""
    print(f"ACCEPTANCE {name}: {tag}{suffix}")
    assert passed, f"{name} failed{suffix}"


@pytest.fixture(scope="module")
def grid():
    """Explicit-route sequences for every (m, k) cell of the acceptance grid."""
    cells = {}
    for m in GRID_M:
        for k in GRID_K:
            spec = SequenceSpec.builtin(m, k, N_MAX)
            cells[(m, k)] = (spec, generate_sequence(spec))
    return cells


def test_criterion_1_appell_condition(grid):
    ok = True
    for (m, k), (spec, terms) in grid.items():
        for n in range(1, N_MAX + 1):
            if not is_monogenic(terms[n]):
                ok = False
            if terms[n].partial_derivative(0) != n * terms[n - 1]:
                ok = False
    _record("1 appell condition and monogenicity on the full grid", ok)


def test_criterion_2_route_equivalence(grid):
    ok = True
    for (m, k), (spec, terms) in grid.items():
        for n in range(N_MAX + 1):
            if sequence_term_ck(spec, n) != terms[n]:
                ok = False
    _record("2 explicit and CK construction routes agree", ok)


def test_criterion_3_classical_reduction(grid):
    ok = True
    for m in GRID_M:
        ctx = AlgebraContext(m)
        _, terms = grid[(m, 0)]
        x0 = CliffordPolynomial.variable(ctx, 0)
        xv = vector_variable(ctx)
        first = x0 + Fraction(1, m) * xv
        second = x0 * x0 + Fraction(2, m) * (x0 * xv) + Fraction(1, m) * vector_power(ctx, 2)
        if terms[1] != first or terms[2] != second:
            ok = False
    _record("3 classical reduction at k=0 matches the displayed terms", ok)


def test_criterion_4_homogeneity(grid):
    ok = True
    for (m, k), (_, terms) in grid.items():
        for n in range(N_MAX + 1):
            if not terms[n].is_homogeneous(k + n):
                ok = False
            if k >= 1 and terms[n].total_degree() == n:
                ok = False  # degree k+n != n witnesses the non-polynomial sequence
    _record("4 every term homogeneous of degree k+n", ok)


def test_criterion_5_randomized_identity_suites():
    ok = True
    for m in SUITE_MS:
        for suite in (
            leibniz_scalar_suite(m, SEED, SUITE_CASES),
            leibniz_vector_suite(m, SEED + 1, SUITE_CASES),
            power_rule_suite(m, SEED + 2, SUITE_CASES),
        ):
            if not suite.all_passed:
                ok = False
    _record(
        f"5 Leibniz rules and Dirac power rule, {SUITE_CASES} cases per m in {SUITE_MS}", ok
    )


def test_criterion_6_ck_properties(grid):
    ok = True
    for m in SUITE_MS:
        if not ck_suite(m, SEED + 3, SUITE_CASES).all_passed:
            ok = False
    for (_, k), (spec, terms) in grid.items():
        for n in range(N_MAX + 1):
            if ck_extend(terms[n].restrict_x0()) != terms[n]:
                ok = False
    _record(
        f"6 CK extension/restriction/intertwining ({SUITE_CASES} random cases per m) "
        "and reconstruction on the grid",
        ok,
    )


def test_criterion_7_axial_vekua(grid):
    ok = True
    for (m, k), (spec, terms) in grid.items():
        for term in terms:
            pair = axial_decompose(term, spec)
            if pair.reconstruct() != term or vekua_witness(pair) is not None:
                ok = False
    _record("7 axial decomposition round-trip and Vekua system on the grid", ok)


@pytest.fixture(scope="module")
def fueter_reports():
    """One fueter_compare report per odd (m, k) cell: vanishing below the
    threshold 2k+m-1, the CK identity at threshold..threshold+FUETER_N_MAX
    and the sequence match at n = 0..FUETER_N_MAX, each image built once."""
    return {
        (m, k): fueter_compare(SequenceSpec.builtin(m, k, FUETER_N_MAX))
        for m in FUETER_MS
        for k in FUETER_KS
    }


def _fueter_entries(fueter_reports, identity: str, n_range) -> tuple[bool, list]:
    """The entries of one identity, and whether every one passed and they
    cover exactly n in n_range(m, k) for every cell."""
    entries = [
        entry
        for report in fueter_reports.values()
        for entry in report.entries
        if entry.identity == identity
    ]
    covered = sorted((e.params["m"], e.params["k"], e.params["n"]) for e in entries)
    expected = sorted((m, k, n) for m, k in fueter_reports for n in n_range(m, k))
    return covered == expected and all(entry.passed for entry in entries), entries


def test_criterion_8_fueter_vanishing(fueter_reports):
    ok, _ = _fueter_entries(
        fueter_reports, "fueter_vanishing", lambda m, k: range(2 * k + m - 1)
    )
    _record("8 Fueter images vanish below the threshold power", ok)


def test_criterion_9_fueter_ck_identity(fueter_reports):
    ok = True
    one = CliffordPolynomial.one(AlgebraContext(3))
    anchor = fueter_map(2, SequenceSpec(m=3, k=0, pk=one, n_max=0))
    if anchor != CliffordPolynomial.constant(AlgebraContext(3), -4):
        ok = False
    passed, _ = _fueter_entries(
        fueter_reports,
        "fueter_ck_identity",
        lambda m, k: range(2 * k + m - 1, 2 * k + m + FUETER_N_MAX),
    )
    _record("9 Fueter/CK proportionality on the odd-dimension grid (anchor -4)", ok and passed)


def test_criterion_10_fueter_matches_sequence(fueter_reports):
    ok, entries = _fueter_entries(
        fueter_reports, "fueter_appell_match", lambda m, k: range(FUETER_N_MAX + 1)
    )
    if not all(Fraction(entry.params["lambda"]) for entry in entries):
        ok = False
    _record("10 Fueter images match sequence terms at the computed multiple", ok)


def test_criterion_11_negative_controls():
    spec = SequenceSpec.builtin(3, 1, 1)
    ctx = spec.context
    x0 = CliffordPolynomial.variable(ctx, 0)
    tampered = (x0 + Fraction(1, 2 * spec.k + spec.m + 1) * vector_variable(ctx)) * spec.pk
    report = verify_sequence(spec, terms=[spec.pk, tampered])
    appell_entries = [e for e in report.entries if e.identity == "appell_step"]
    tamper_detected = (
        len(appell_entries) == 1
        and not appell_entries[0].passed
        and appell_entries[0].witness is not None
    )

    bad = CliffordPolynomial.monomial(ctx, unit_exps(3, 1), ctx.e(1))  # x1 e1
    bad_report = validate_initial_term(bad, 1)
    by_name = {entry.identity: entry.passed for entry in bad_report.entries}
    invalid_detected = (
        not by_name["initial_term_dirac_kernel"]
        and by_name["initial_term_x0_free"]
        and by_name["initial_term_homogeneous"]
    )

    _record("11 negative controls are detected with witnesses", tamper_detected and invalid_detected)
