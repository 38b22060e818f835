import random
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from monappell import sequences
from monappell.algebra import AlgebraContext
from monappell.bivariate import axial_profiles
from monappell.cli import main
from monappell.ck import ck_extend, is_monogenic
from monappell.coefficients import restriction_coefficient
from monappell.errors import (
    ContextMismatchError,
    DegreeLimitError,
    InvalidInitialTermError,
    NotAxialFormError,
)
from monappell.fueter import axial_embedding, fueter_compare, fueter_map
from monappell.initial_terms import builtin_initial_term
from monappell.operators import dirac, laplacian
from monappell.polynomials import (
    DEGREE_LIMIT,
    CliffordPolynomial,
    first_difference,
    scalar_ratio,
    unit_exps,
    vector_power,
    vector_variable,
)
from monappell.sampling import random_initial_term
from monappell.sequences import (
    AxialPair,
    SequenceSpec,
    _realize,
    axial_decompose,
    generate_sequence,
    sequence_term_ck,
    sequence_term_explicit,
    vekua_witness,
    verify_axial,
    verify_sequence,
)
from strategies import nonzero_rationals, profile


def display_m1(spec):
    """First term as displayed: (x_0 + x̲/(2k+m)) P_k."""
    ctx = spec.context
    x0 = CliffordPolynomial.variable(ctx, 0)
    return (x0 + Fraction(1, 2 * spec.k + spec.m) * vector_variable(ctx)) * spec.pk


def display_m2(spec):
    """Second term as displayed: (x_0^2 + 2x_0 x̲/(2k+m) + x̲^2/(2k+m)) P_k."""
    ctx = spec.context
    x0 = CliffordPolynomial.variable(ctx, 0)
    d = 2 * spec.k + spec.m
    h = x0 * x0 + Fraction(2, d) * (x0 * vector_variable(ctx)) + Fraction(1, d) * vector_power(ctx, 2)
    return h * spec.pk


def test_term_zero_is_initial_term():
    spec = SequenceSpec.builtin(3, 2, 2)
    assert sequence_term_explicit(spec, 0) == spec.pk
    assert sequence_term_ck(spec, 0) == spec.pk
    # the zeroth term is monogenic with no x_0 dependence, so its derivative vanishes
    assert is_monogenic(spec.pk) and spec.pk.partial_derivative(0).is_zero()


@pytest.mark.parametrize("m", [2, 3, 5])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_first_two_terms_match_display(m, k):
    spec = SequenceSpec.builtin(m, k, 2)
    assert sequence_term_explicit(spec, 1) == display_m1(spec)
    assert sequence_term_explicit(spec, 2) == display_m2(spec)


def test_classical_terms():
    # the classical sequence is the built-in one at k = 0
    for m in (2, 3, 5):
        ctx = AlgebraContext(m)
        spec = SequenceSpec.builtin(m, 0, 1)
        assert sequence_term_explicit(spec, 0) == CliffordPolynomial.one(ctx)
        expected = CliffordPolynomial.variable(ctx, 0) + Fraction(1, m) * vector_variable(ctx)
        assert sequence_term_explicit(spec, 1) == expected


def test_classical_equals_explicit_with_unit_initial_term():
    spec = SequenceSpec.builtin(3, 0, 4)
    assert spec.pk == CliffordPolynomial.one(spec.context)
    for n in range(5):
        # a term does not depend on the length of its sequence
        short = SequenceSpec.builtin(3, 0, n)
        assert sequence_term_explicit(short, n) == sequence_term_explicit(spec, n)


@pytest.mark.parametrize("m,k", [(2, 1), (3, 0), (3, 2)])
def test_route_equivalence(m, k):
    spec = SequenceSpec.builtin(m, k, 4)
    for n in range(5):
        assert sequence_term_ck(spec, n) == sequence_term_explicit(spec, n)


# the acceptance grid, and the two-blade P_3 draws of tests/test_fueter.py
CK_ORACLE_CELLS = [(m, k, None) for m in (2, 3, 4, 5) for k in range(4)]
CK_ORACLE_CELLS += [(3, 3, 5), (5, 3, 9)]


@pytest.mark.parametrize("m, k, seed", CK_ORACLE_CELLS)
def test_ck_route_equals_the_literal_extension(m, k, seed):
    """The CK terms built from the derived λ_i equal c_n ck_extend(x̲^n P_k)
    for n = 0..6, on a fresh spec and on one spec shared by every n."""
    ctx = AlgebraContext(m)
    if seed is None:
        pk = builtin_initial_term(ctx, k)
    else:
        pk = random_initial_term(random.Random(seed), ctx, k)
    shared = SequenceSpec(m=m, k=k, pk=pk, n_max=6)
    for n in range(7):
        literal = restriction_coefficient(m, k, n) * ck_extend(vector_power(ctx, n) * pk)
        for term in (
            sequence_term_ck(SequenceSpec(m=m, k=k, pk=pk, n_max=6), n),
            sequence_term_ck(shared, n),
        ):
            assert first_difference(term, literal) is None


def _ratios_off_by_one(original, at=None):
    """`_chain_ratios` with λ_s + 1 in place of each λ_s, s >= 1, that
    `scalar_ratio` once measured, or at s = at alone."""

    def corrupted(spec, top):
        ratios = original(spec, top)
        return [r + (s >= 1 if at is None else s == at) for s, r in enumerate(ratios)]

    return corrupted


def test_route_equivalence_negative_control(monkeypatch):
    """With λ_i + 1 in place of each derived λ_i, i >= 1, route_equivalence
    fails with a first_difference witness at every n >= 1; n = 0 reads no λ."""
    spec = SequenceSpec.builtin(3, 1, 3)
    monkeypatch.setattr(sequences, "_chain_ratios", _ratios_off_by_one(sequences._chain_ratios))
    entries = [e for e in verify_sequence(spec).entries if e.identity == "route_equivalence"]
    assert [e.passed for e in entries] == [True, False, False, False]
    assert all(e.witness.startswith("monomial ") for e in entries[1:])


def _measured_ratio(spec, operator, step, s):
    """The oracle: r with operator(G_s) = r G_(s-step), G_s = x̲^s P_k, by
    `scalar_ratio` on the literal image, or 0 when it vanishes for s < step;
    None when no such r exists."""
    image = operator(vector_power(spec.context, s) * spec.pk)
    if s < step:
        return 0 if image.is_zero() else None
    return scalar_ratio(image, vector_power(spec.context, s - step) * spec.pk)


def _ratio_witness(spec, top, steps=(1, 2)):
    """None when the derived λ_s (step 1) and μ_s = -λ_s λ_(s-1) (step 2),
    s = 0..top, equal the ones measured with `dirac` and `laplacian`, else
    the first s and operator where they differ."""
    lambdas = sequences._chain_ratios(spec, top)
    mus = [-lam * prev for lam, prev in zip(lambdas, [0] + lambdas)]
    for step, operator, name, derived in ((1, dirac, "λ", lambdas), (2, laplacian, "μ", mus)):
        if step not in steps:
            continue
        for s in range(top + 1):
            measured = _measured_ratio(spec, operator, step, s)
            if measured != derived[s]:
                return f"{name}_{s}: measured {measured}, derived {derived[s]}"
    return None


# the acceptance grid, and drawn P_k: the two-blade P_3 draws above and one draw per cell
RATIO_ORACLE_CELLS = CK_ORACLE_CELLS + [(m, k, 100 * m + k) for m in (2, 3, 4, 5) for k in range(4)]


@pytest.mark.parametrize("m, k, seed", RATIO_ORACLE_CELLS)
def test_derived_ratios_equal_the_measured_ones(m, k, seed):
    """λ_s from the recurrence, and μ_s = -λ_s λ_(s-1), equal those measured
    with `dirac` and `laplacian` on the literal x̲^s P_k, for s = 0..12."""
    ctx = AlgebraContext(m)
    if seed is None:
        pk = builtin_initial_term(ctx, k)
    else:
        pk = random_initial_term(random.Random(seed), ctx, k)
    assert _ratio_witness(SequenceSpec(m=m, k=k, pk=pk, n_max=0), 12) is None


@pytest.mark.parametrize("step, name", [(1, "λ"), (2, "μ")])
def test_derived_ratio_oracle_negative_control(monkeypatch, step, name):
    """λ_5 off by one, and no other λ_s, fails the oracle with s = 5 as the
    witness: on the λ_s read with `dirac`, and on the μ_s = -λ_s λ_(s-1)
    read with `laplacian` alone, where μ_5 is the first to move."""
    spec = SequenceSpec.builtin(4, 2, 0)
    monkeypatch.setattr(sequences, "_chain_ratios", _ratios_off_by_one(sequences._chain_ratios, at=5))
    assert _ratio_witness(spec, 12, steps=(step,)).startswith(f"{name}_5: measured ")


def _chain_laplacian_witness(spec, h, lambdas):
    """None when one `_chain_laplacian` step of the chain h, with the ratios
    `lambdas`, realizes to `laplacian` of the realized h, else the
    first_difference witness."""
    image = _realize(spec, sequences._chain_laplacian(h, lambdas, 1))
    return first_difference(image, laplacian(_realize(spec, h)))


def _random_chain(rng):
    """Three draws of q x_0^j G_s, j <= 4 and s <= 5 (odd and even), q nonzero."""
    draws = [((rng.randrange(5), rng.randrange(6)), rng.choice((-3, -1, 2, 5))) for _ in range(3)]
    return {key: Fraction(q, rng.randint(1, 3)) for key, q in draws}


# every (m, k) with a drawn P_k for m = 1..6, k = 0..3 (m = 1 has only k = 0)
CHAIN_PIN_CELLS = [(1, 0)] + [(m, k) for m in range(2, 7) for k in range(4)]


@pytest.mark.parametrize("m, k", CHAIN_PIN_CELLS)
def test_chain_laplacian_step_equals_the_kernel(m, k):
    """One `_chain_laplacian` step, with the λ_s of `_chain_ratios`, equals
    `laplacian` of the realized chain on three drawn chains and drawn P_k."""
    rng = random.Random(1000 * m + k)
    for _ in range(3):
        spec = SequenceSpec(m=m, k=k, pk=random_initial_term(rng, AlgebraContext(m), k), n_max=0)
        h = _random_chain(rng)
        assert _chain_laplacian_witness(spec, h, sequences._chain_ratios(spec, 5)) is None, h


def test_chain_laplacian_pin_negative_control():
    """λ_s from the recurrence with 2s - 1 in place of 2s - 2 moves every
    -λ_s λ_(s-1), s >= 2, so the pin fails with a first_difference witness."""
    spec = SequenceSpec(m=3, k=1, pk=random_initial_term(random.Random(4), AlgebraContext(3), 1), n_max=0)
    lambdas = [0]
    for s in range(1, 6):
        lambdas.append(-(spec.m + 2 * spec.k + 2 * s - 1) - lambdas[-1])
    h = {(2, 3): 1, (0, 4): Fraction(-1, 2)}
    assert _chain_laplacian_witness(spec, h, sequences._chain_ratios(spec, 5)) is None
    assert _chain_laplacian_witness(spec, h, lambdas).startswith("monomial ")


@pytest.mark.parametrize("m", range(1, 17))
def test_operator_certificate_holds_in_every_dimension(m):
    """Both operator identities hold on every certificate input, m = 1..16."""
    assert sequences._operator_certificate.__wrapped__(AlgebraContext(m)) is None


def _flipped_dirac(j):
    """`dirac` with the sign of generator e_j flipped: D - 2 e_j d/dx_j."""

    def flipped(p):
        e_j = CliffordPolynomial.constant(p.context, p.context.e(j))
        return dirac(p) - 2 * (e_j * p.partial_derivative(j))

    return flipped


def test_an_unmeasured_ratio_is_an_arithmetic_error(monkeypatch, capsys, fresh_certificate):
    """When the operator certificate fails, as under a `dirac` with the
    sign of e_2 flipped, no ratio is derived: the CK route and the Fueter
    report raise ArithmeticError naming the failing input, and the CLI
    exits 3 with that message; no route switches to another algorithm."""
    monkeypatch.setattr(sequences, "dirac", _flipped_dirac(2))
    fault = "D(x̲ f) + x̲ D f is not -(m + 2E) f at f = 1: monomial [0, 0, 0, 0], blade []: difference 2/1"
    with pytest.raises(ArithmeticError) as excinfo:
        sequence_term_ck(SequenceSpec.builtin(3, 1, 3), 3)
    assert str(excinfo.value) == fault
    with pytest.raises(ArithmeticError) as excinfo:
        fueter_compare(SequenceSpec.builtin(3, 1, 3))
    assert str(excinfo.value) == fault
    assert main(["verify", "--m", "3", "--k", "1", "--n-max", "3"]) == 3
    assert f"internal error: ArithmeticError: {fault}" in capsys.readouterr().err


def test_a_laplacian_broken_on_one_certificate_input_is_named(monkeypatch, fresh_certificate):
    """A `laplacian` that leaves x_2 x_3 unchanged fails the certificate,
    and the message names that input."""
    ctx = AlgebraContext(4)
    bad = CliffordPolynomial.variable(ctx, 2) * CliffordPolynomial.variable(ctx, 3)
    monkeypatch.setattr(sequences, "laplacian", lambda p: p if p == bad else laplacian(p))
    with pytest.raises(ArithmeticError, match=r"^Δ f \+ D D f is not 0 at f = x_2 x_3: monomial "):
        sequence_term_ck(SequenceSpec.builtin(4, 1, 1), 1)


def _dirac_inputs(monkeypatch, context) -> list:
    """The list to which each later dirac call of `sequences` adds its input,
    once the operator certificate of the context holds."""
    sequences._operator_certificate(context)
    seen = []

    def counting(p):
        seen.append(p)
        return dirac(p)

    monkeypatch.setattr(sequences, "dirac", counting)
    return seen


def _only_the_terms(seen, spec, terms):
    """seen holds each term once and no x̲^i P_k, i = 1..n_max: as a
    multiset, so a second dirac of P_k, the zeroth term, is caught."""
    multiples = [vector_power(spec.context, i) * spec.pk for i in range(1, spec.n_max + 1)]
    counts = [sum(p == q for q in seen) for p in terms]
    return len(seen) == len(terms) and counts == [1] * len(terms) and not any(
        p == g for p in seen for g in multiples
    )


def test_verify_sequence_applies_dirac_once_per_term_and_to_no_multiple(monkeypatch):
    """At m=7, k=3, n_max=7 dirac meets each term once (monogenicity) and no
    x̲^i P_k: the CK route reads the derived λ_i."""
    spec = SequenceSpec.builtin(7, 3, 7)
    terms = generate_sequence(spec)
    seen = _dirac_inputs(monkeypatch, spec.context)
    assert verify_sequence(spec, terms).all_passed
    assert len(seen) == 8 and _only_the_terms(seen, spec, terms)


def test_one_spec_applies_dirac_to_no_multiple_across_reports(monkeypatch):
    """fueter_compare then verify_sequence on one spec apply dirac to the
    terms alone: the Fueter report applies it to nothing."""
    spec = SequenceSpec.builtin(3, 1, 3)
    seen = _dirac_inputs(monkeypatch, spec.context)
    assert fueter_compare(spec).all_passed and seen == []
    terms = generate_sequence(spec)
    assert verify_sequence(spec, terms).all_passed
    assert _only_the_terms(seen, spec, terms)


def test_sequence_spec_is_frozen():
    """The spec holds the x̲^i P_k of its P_k, so its P_k cannot be swapped."""
    spec = SequenceSpec.builtin(3, 1, 1)
    with pytest.raises(FrozenInstanceError):
        spec.pk = builtin_initial_term(spec.context, 2)


def test_restriction_property():
    spec = SequenceSpec.builtin(3, 1, 4)
    for n in range(5):
        term = sequence_term_explicit(spec, n)
        expected = restriction_coefficient(3, 1, n) * (vector_power(spec.context, n) * spec.pk)
        assert term.restrict_x0() == expected


def test_appell_chain_reaches_scaled_initial_term():
    # n-fold derivative of the n-th term collapses to n! times the initial term
    spec = SequenceSpec.builtin(2, 1, 4)
    term = sequence_term_explicit(spec, 4)
    for _ in range(4):
        assert is_monogenic(term)
        term = term.partial_derivative(0)
    assert term == 24 * spec.pk


def test_degrees_witness_non_polynomial_sequence():
    spec = SequenceSpec.builtin(3, 2, 3)
    for n in range(4):
        term = sequence_term_explicit(spec, n)
        assert term.is_homogeneous(spec.k + n)
        assert term.total_degree() == spec.k + n != n


@pytest.mark.parametrize("m,k", [(3, 0), (2, 1)])
def test_verify_sequence_all_pass(m, k):
    report = verify_sequence(SequenceSpec.builtin(m, k, 4))
    assert report.all_passed
    names = {entry.identity for entry in report.entries}
    assert names == {"monogenic", "appell_step", "homogeneous", "route_equivalence"}


def test_verify_sequence_negative_control():
    spec = SequenceSpec.builtin(3, 1, 1)
    ctx = spec.context
    x0 = CliffordPolynomial.variable(ctx, 0)
    tampered = (x0 + Fraction(1, 2 * spec.k + spec.m + 1) * vector_variable(ctx)) * spec.pk
    report = verify_sequence(spec, terms=[spec.pk, tampered])
    by_name = {(e.identity, e.params["n"]): e for e in report.entries}
    appell = by_name[("appell_step", 1)]
    assert not appell.passed and appell.witness is not None
    assert not by_name[("monogenic", 1)].passed
    assert by_name[("homogeneous", 1)].passed  # tampering preserves degree


def test_sequence_spec_validation():
    ctx = AlgebraContext(3)
    with pytest.raises(ValueError):
        SequenceSpec.builtin(3, 0, -1)
    with pytest.raises(ContextMismatchError):
        SequenceSpec(m=2, k=0, pk=CliffordPolynomial.one(ctx), n_max=1)
    bad = CliffordPolynomial.monomial(ctx, unit_exps(3, 1), ctx.e(1))
    with pytest.raises(InvalidInitialTermError):
        SequenceSpec(m=3, k=1, pk=bad, n_max=1)
    spec = SequenceSpec.builtin(3, 0, 1)
    with pytest.raises(ValueError):
        sequence_term_explicit(spec, 2)


def test_a_spec_past_the_degree_limit_is_rejected_before_any_product(no_large_products):
    """The last term has degree k + n_max, which must stay below
    DEGREE_LIMIT; products past degree 1 fail here, so the check is seen to
    run before any of them.  One below the limit builds the spec."""
    with pytest.raises(DegreeLimitError, match=f"last term degree {DEGREE_LIMIT} is not below"):
        SequenceSpec.builtin(2, 1, DEGREE_LIMIT - 1)
    assert SequenceSpec.builtin(2, 1, DEGREE_LIMIT - 2).n_max == DEGREE_LIMIT - 2


@pytest.mark.parametrize(
    "field, value", [("m", 3.0), ("k", True), ("k", 1.0), ("n_max", True), ("n_max", 1.0)]
)
def test_sequence_spec_integers_must_be_exact(field, value):
    """A bool or a float spec integer is rejected by name, not accepted into
    the report params or left to fail deep inside as a bare TypeError."""
    ctx = AlgebraContext(3)
    fields = {"m": 3, "k": 1, "pk": builtin_initial_term(ctx, 1), "n_max": 1, field: value}
    with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
        SequenceSpec(**fields)


# -- axial decomposition and the Vekua system ---------------------------------


def test_axial_profiles_of_first_terms():
    spec = SequenceSpec.builtin(3, 1, 2)
    d = 2 * spec.k + spec.m  # 5
    terms = generate_sequence(spec)

    pair0 = axial_decompose(terms[0], spec)
    assert pair0.a == profile({(0, 0): 1})
    assert pair0.b_reduced.is_zero()

    pair1 = axial_decompose(terms[1], spec)
    assert pair1.a == profile({(1, 0): 1})  # x0
    assert pair1.b_reduced == profile({(0, 0): Fraction(1, d)})

    pair2 = axial_decompose(terms[2], spec)
    assert pair2.a == profile({(2, 0): 1, (0, 1): Fraction(-1, d)})
    assert pair2.b_reduced == profile({(1, 0): Fraction(2, d)})


@pytest.mark.parametrize("m,k", [(2, 0), (3, 1), (4, 2)])
def test_axial_round_trip_and_vekua(m, k):
    spec = SequenceSpec.builtin(m, k, 4)
    for term in generate_sequence(spec):
        pair = axial_decompose(term, spec)
        assert pair.reconstruct() == term
        assert vekua_witness(pair) is None


CHAIN_SPECS = [SequenceSpec.builtin(3, k, 0) for k in range(3)]


@given(data=st.data())
def test_realize_then_decompose_returns_the_chain(data):
    """A chain h = {(j, s): q} realized as sum q x_0^j x̲^s P_k decomposes
    back to the profiles of h, at m = 3 and k = 0..2."""
    spec = data.draw(st.sampled_from(CHAIN_SPECS))
    keys = st.tuples(st.integers(0, 4), st.integers(0, 5))
    h = data.draw(st.dictionaries(keys, nonzero_rationals, max_size=6))
    pair = axial_decompose(_realize(spec, h), spec)
    assert (pair.a, pair.b_reduced) == axial_profiles(h)


def test_realize_of_the_empty_chain_is_zero():
    for spec in CHAIN_SPECS:
        assert _realize(spec, {}) == CliffordPolynomial.zero(spec.context)


def test_axial_rejects_non_axial_polynomial():
    ctx = AlgebraContext(3)
    stray = CliffordPolynomial.monomial(ctx, unit_exps(3, 1), ctx.e(1))  # x1 e1
    with pytest.raises(NotAxialFormError):
        axial_decompose(stray, SequenceSpec(m=3, k=0, pk=CliffordPolynomial.one(ctx), n_max=0))


def test_vekua_negative_control():
    # perturbing the odd profile breaks the first equation
    pair = AxialPair(
        a=profile({(1, 0): 1}),
        b_reduced=profile({(0, 0): Fraction(1, 4)}),
        spec=SequenceSpec(m=3, k=0, pk=CliffordPolynomial.one(AlgebraContext(3)), n_max=0),
    )
    assert vekua_witness(pair) is not None


def test_vekua_witness_text():
    """The witness is the two profiles of the pair's Cauchy-Riemann image:
    A += 2 x0 t and b += t on the m=3, k=1, n=3 term leave (-5 t; 4 x0)."""
    spec = SequenceSpec.builtin(3, 1, 3)
    pair = axial_decompose(sequence_term_explicit(spec, 3), spec)
    assert vekua_witness(pair) is None
    bent = replace(
        pair,
        a=pair.a + profile({(1, 1): 2}),
        b_reduced=pair.b_reduced + profile({(0, 1): 1}),
    )
    assert vekua_witness(bent) == "residuals: (-5 t; 4 x0)"


@pytest.mark.parametrize("n", [True, 1.0, 2.0, Fraction(1)])
def test_term_indices_are_exact_ints(n):
    """Both routes, the planted z^n and the Fueter map reject a bool, a
    float or a Fraction index alike instead of reading it as an int."""
    spec = SequenceSpec.builtin(3, 1, 2)
    routes = (
        lambda: sequence_term_explicit(spec, n),
        lambda: sequence_term_ck(spec, n),
        lambda: axial_embedding(n, spec),
        lambda: fueter_map(n, spec),
    )
    for route in routes:
        with pytest.raises(ValueError, match="n must be an integer"):
            route()


def test_verify_axial_report():
    report = verify_axial(SequenceSpec.builtin(2, 1, 3))
    assert report.all_passed
    assert {entry.identity for entry in report.entries} == {
        "axial_reconstruction",
        "vekua_system",
    }


def test_verify_axial_forms_each_multiple_once(monkeypatch):
    """verify_axial to n_max forms x̲^i P_k for i = 0..n_max once each,
    n_max + 1 products, not one per term and power, and keeps them on the spec."""
    spec = SequenceSpec.builtin(3, 2, 5)
    terms = generate_sequence(spec)
    calls = []

    def counted(ctx, i):
        calls.append(i)
        return vector_power(ctx, i)

    monkeypatch.setattr(sequences, "vector_power", counted)
    assert verify_axial(spec, terms).all_passed
    assert sorted(calls) == list(range(spec.n_max + 1))
    calls.clear()
    for term in terms:  # the spec holds them, so further calls form none
        axial_decompose(term, spec)
    assert calls == []
    fresh = SequenceSpec(m=spec.m, k=spec.k, pk=spec.pk, n_max=spec.n_max)
    axial_decompose(terms[-1], fresh)  # an equal spec is not the same memo
    assert sorted(calls) == list(range(spec.n_max + 1))
