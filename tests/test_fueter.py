import functools
import math
import random

import pytest

from monappell import fueter, operators, polynomials, sequences
from monappell.algebra import AlgebraContext
from monappell.bivariate import axial_profiles
from monappell.ck import ck_extend, is_monogenic
from monappell.cli import main
from monappell.coefficients import restriction_coefficient
from monappell.errors import ArgumentTooSmallError, EvenDimensionError, InvalidInitialTermError
from monappell.fueter import (
    axial_embedding,
    fueter_compare,
    fueter_map,
    fueter_order,
    fueter_scale,
)
from monappell.operators import laplacian
from monappell.polynomials import (
    CliffordPolynomial,
    first_difference,
    radius_squared,
    unit_exps,
    vector_power,
    vector_variable,
)
from monappell.report import VerificationReport
from monappell.sampling import random_initial_term
from monappell.sequences import SequenceSpec, sequence_term_explicit, verify_axial, verify_sequence
from strategies import profile

CTX3 = AlgebraContext(3)
ONE3 = CliffordPolynomial.one(CTX3)


def spec3():
    """A fresh spec for P_0 = 1 at m = 3, so no test reads another's memo."""
    return SequenceSpec(m=3, k=0, pk=ONE3, n_max=0)


def test_complex_monomial_parts_small_powers():
    """The profiles (u, v_reduced) of the complex monomials z^1..z^3: the
    binomial dict of (x_0 + i r)^n, folded by `axial_profiles`."""

    def parts(n):
        return axial_profiles({(n - s, s): math.comb(n, s) for s in range(n + 1)})

    assert parts(1) == (profile({(1, 0): 1}), profile({(0, 0): 1}))
    assert parts(2) == (profile({(2, 0): 1, (0, 1): -1}), profile({(1, 0): 2}))
    assert parts(3) == (profile({(3, 0): 1, (1, 1): -3}), profile({(2, 0): 3, (0, 1): -1}))


EMBEDDING_CELLS = [(3, 0, None), (3, 1, None), (5, 2, None), (3, 3, 5)]  # (m, k, seed)


def _full_power(pk, sign, n):
    """(x_0 + sign x̲)^n P_k by n repeated products in all m+1 variables."""
    ctx = pk.context
    z = CliffordPolynomial.variable(ctx, 0) + sign * vector_variable(ctx)
    power = CliffordPolynomial.one(ctx)
    for _ in range(n):
        power = power * z
    return power * pk


@pytest.mark.parametrize("n", range(8))
def test_complex_monomial_parts_multiplicative(n):
    """The planted complex monomial is multiplicative: axial_embedding(n, spec)
    is (x_0 + x̲)^n P_k, the n-th power of the planted z by repeated `*`, at
    built-in and drawn two-blade initial terms."""
    for m, k, seed in EMBEDDING_CELLS:
        spec = _oracle_spec(m, k, seed)
        assert axial_embedding(n, spec) == _full_power(spec.pk, 1, n)


def test_axial_embedding_oracle_negative_control():
    """The conjugate (x_0 - x̲)^n P_k differs from the planted z^n for every
    n >= 1, and first_difference names a monomial where."""
    for m, k, seed in EMBEDDING_CELLS:
        spec = _oracle_spec(m, k, seed)
        for n in range(1, 8):
            witness = first_difference(axial_embedding(n, spec), _full_power(spec.pk, -1, n))
            assert witness is not None and witness.startswith("monomial ")


def test_axial_embedding_examples():
    x0 = CliffordPolynomial.variable(CTX3, 0)
    embedded = axial_embedding(2, spec3())
    expected = x0 * x0 - radius_squared(CTX3) + 2 * (x0 * vector_variable(CTX3))
    assert embedded == expected
    spec = SequenceSpec.builtin(3, 2, 0)
    assert axial_embedding(0, spec) == spec.pk
    assert axial_embedding(1, spec) == (x0 + vector_variable(CTX3)) * spec.pk


def test_axial_embedding_rejects_a_bad_power():
    with pytest.raises(ValueError, match="non-negative"):
        axial_embedding(-1, spec3())
    with pytest.raises(ValueError, match="n must be an integer"):
        axial_embedding(True, spec3())


def _literal_image(n, spec):
    """The oracle: ν Laplacians of the axial embedding of z^n, in all m+1 variables."""
    image = axial_embedding(n, spec)
    for _ in range(fueter_order(spec.m, spec.k)):
        image = laplacian(image)
    return image


def _oracle_report(spec, literals):
    """fueter_map of z^n against literals[n] for each n of the dict, once on
    a fresh spec and once on one spec shared by every n in turn, both on the
    P_k of spec."""
    m, k, pk = spec.m, spec.k, spec.pk
    shared = SequenceSpec(m=m, k=k, pk=pk, n_max=0)
    report = VerificationReport()
    for n, literal in literals.items():
        for route, image in (
            ("fresh", fueter_map(n, SequenceSpec(m=m, k=k, pk=pk, n_max=0))),
            ("shared", fueter_map(n, shared)),
        ):
            params = {"m": m, "k": k, "n": n, "route": route}
            report.add_equal("fueter_split", params, image, literal)
    return report


def _oracle_spec(m, k, seed):
    """A spec on the built-in P_k for seed None, else on a drawn P_3 with
    two blades on one monomial."""
    if seed is None:
        return SequenceSpec.builtin(m, k, 0)
    pk = random_initial_term(random.Random(seed), AlgebraContext(m), k)
    assert any(len(coeff.numerators) > 1 for coeff in pk.terms.values())
    return SequenceSpec(m=m, k=k, pk=pk, n_max=0)


ORACLE_GRID = [(m, k, None) for m in (1, 3, 5, 7) for k in range(4) if m > 1 or k == 0]
ORACLE_GRID += [(3, 3, 5), (5, 3, 9)]  # two-blade P_3 draws


@pytest.mark.parametrize("m, k, seed", ORACLE_GRID)
def test_fueter_map_equals_the_literal_route(m, k, seed):
    """The x_0 split of Δ^ν gives the images of the full m+1-variable route
    for every n up to one past the threshold 2k+m-1."""
    spec = _oracle_spec(m, k, seed)
    literals = {n: _literal_image(n, spec) for n in range(2 * k + m + 1)}
    report = _oracle_report(spec, literals)
    assert report.all_passed, report.failures()[0].witness


def _without_x0_shift(h, mu, order):
    """`_chain_laplacian` with the d^2/dx_0^2 shift (j, s) -> j(j-1) (j-2, s) dropped."""
    for _ in range(order):
        image = {}
        for (j, s), q in h.items():
            if s >= 2:
                image[j, s - 2] = image.get((j, s - 2), 0) + mu[s] * q
        h = image
    return h


def test_fueter_chain_dropped_shift_negative_control(monkeypatch):
    """With the x_0 shift of the chain Laplacian dropped, the oracle fails on
    every image with a first_difference witness.  The literal images are
    built before the patch."""
    spec = SequenceSpec.builtin(3, 1, 0)
    threshold = 2 * spec.k + spec.m - 1
    literals = {n: _literal_image(n, spec) for n in (threshold, threshold + 1)}
    monkeypatch.setattr(fueter, "_chain_laplacian", _without_x0_shift)
    report = _oracle_report(spec, literals)
    assert not any(entry.passed for entry in report.entries) and len(report.entries) == 4
    assert all(entry.witness.startswith("monomial ") for entry in report.entries)


def test_fueter_split_ratio_negative_control(monkeypatch):
    """With μ_s + 1 in place of each derived μ_s, s >= 2 (Δ x̲^s P_k =
    μ_s x̲^(s-2) P_k), the oracle report fails on every image with a
    first_difference witness."""
    spec = SequenceSpec.builtin(3, 1, 0)
    threshold = 2 * spec.k + spec.m - 1
    literals = {n: _literal_image(n, spec) for n in (threshold, threshold + 1)}
    original = sequences._chain_ratios

    def corrupted(spec_, step, top):
        return [r + (s >= step) for s, r in enumerate(original(spec_, step, top))]

    monkeypatch.setattr(fueter, "_chain_ratios", corrupted)
    report = _oracle_report(spec, literals)
    assert not any(entry.passed for entry in report.entries) and len(report.entries) == 4
    assert all(entry.witness.startswith("monomial ") for entry in report.entries)


def _laplacian_inputs(monkeypatch, spec) -> list:
    """The list of every later `laplacian` input, from each module that binds
    it, once the operator certificate of the spec's algebra holds."""
    sequences._operator_certificate(spec.context)
    seen = []

    def counting(p):
        seen.append(p)
        return laplacian(p)

    for module in (polynomials, operators, sequences, fueter):
        for name, value in list(vars(module).items()):
            if value is laplacian:
                monkeypatch.setattr(module, name, counting)
    return seen


def test_fueter_compare_applies_the_laplacian_to_no_multiple(monkeypatch):
    """At m=7, k=2, n_max=0 (ν = 5, images of z^0..z^10) the report applies
    `laplacian` to nothing, so to no x̲^s P_k: every μ_s is derived."""
    spec = SequenceSpec.builtin(7, 2, 0)
    seen = _laplacian_inputs(monkeypatch, spec)
    assert fueter_compare(spec).all_passed
    assert seen == []


def test_an_odd_image_reads_every_laplacian_ratio_once(monkeypatch):
    """At m=3, k=1, n_max=1 (2ν = 4) only the images of z^4 and z^5 read
    ratios, each its list μ_0..μ_n from one `_chain_ratios` call; the image
    of z^5 keeps its odd entries, so its shifts read every μ_s, s = 2..5,
    odd s too; and no x̲^s P_k meets `laplacian`."""
    spec = SequenceSpec.builtin(3, 1, 1)
    seen = _laplacian_inputs(monkeypatch, spec)
    calls, read = [], {}
    original = sequences._chain_ratios

    class Recorded(list):
        def __getitem__(self, s):
            read.setdefault(self.top, set()).add(s)
            return super().__getitem__(s)

    def recording(spec_, step, top):
        calls.append((step, top))
        ratios = Recorded(original(spec_, step, top))
        ratios.top = top
        return ratios

    monkeypatch.setattr(fueter, "_chain_ratios", recording)
    assert fueter_compare(spec).all_passed
    assert calls == [(2, 4), (2, 5)] and read[5] == {2, 3, 4, 5}
    assert seen == []


def test_the_laplacian_ratio_premise_is_checked_negative_control(monkeypatch, capsys, fresh_certificate):
    """A `laplacian` that leaves x_1 x_2 unchanged breaks Δ = -D^2, from
    which the μ_s follow.  At m=7, k=2 (2ν = 10) the images of z^0..z^9 are
    zero by degree and read no ratio, so the operator certificate first
    runs at the image of z^10 and fails there on that input: the report and
    the CLI raise instead of building an image (exit 3)."""
    ctx = AlgebraContext(7)
    bad = CliffordPolynomial.variable(ctx, 1) * CliffordPolynomial.variable(ctx, 2)

    @functools.wraps(laplacian)
    def broken(p):
        return p if p == bad else laplacian(p)

    monkeypatch.setattr(sequences, "laplacian", broken)
    spec = SequenceSpec.builtin(7, 2, 0)
    assert fueter_map(9, spec) == CliffordPolynomial.zero(ctx)
    with pytest.raises(ArithmeticError, match="at f = x_1 x_2"):
        fueter_map(10, spec)
    with pytest.raises(ArithmeticError) as excinfo:
        fueter_compare(spec)
    fault = str(excinfo.value)
    assert fault.startswith("Δ f + D D f is not 0 at f = x_1 x_2: monomial ")
    assert main(["fueter-compare", "--m", "7", "--k", "2", "--n-max", "0"]) == 3
    assert f"internal error: ArithmeticError: {fault}" in capsys.readouterr().err


@pytest.mark.parametrize("m, k", [(3, 0), (3, 2), (5, 1), (7, 2)])
def test_images_below_twice_the_order_read_no_ratio_and_form_no_multiple(monkeypatch, m, k):
    """Every chain entry of z^n has j + s = n and each Laplacian lowers it by
    2, so below 2ν the image is zero by degree: `fueter_map` returns the
    zero of the spec's algebra without a `_chain_ratios` call and without
    forming any x̲^s P_k."""
    spec = SequenceSpec.builtin(m, k, 0)

    def refused(*args):
        raise AssertionError("a ratio was read below 2ν")

    monkeypatch.setattr(fueter, "_chain_ratios", refused)
    for n in range(2 * fueter_order(m, k)):
        assert fueter_map(n, spec) == CliffordPolynomial.zero(spec.context)
    assert spec._multiples == {}


@pytest.mark.parametrize("m, k, n_max", [(3, 1, 3), (5, 2, 2), (7, 2, 1)])
def test_the_order_in_which_ratios_are_read_does_not_matter(m, k, n_max):
    """One spec builds the Fueter images from the top power down, then from
    z^0 up, then runs `verify_sequence` and the Fueter report: every image
    and both reports equal those of fresh specs."""
    spec = SequenceSpec.builtin(m, k, n_max)
    powers = range(2 * k + m - 1 + n_max + 1)
    descending = {n: fueter_map(n, spec) for n in reversed(powers)}
    ascending = {n: fueter_map(n, spec) for n in powers}
    verified = verify_sequence(spec).to_json()
    fresh = {n: fueter_map(n, SequenceSpec.builtin(m, k, n_max)) for n in powers}
    assert descending == ascending == fresh
    assert verified == verify_sequence(SequenceSpec.builtin(m, k, n_max)).to_json()
    assert verified["all_passed"]
    expected = fueter_compare(SequenceSpec.builtin(m, k, n_max)).to_json()
    assert fueter_compare(spec).to_json() == expected and expected["all_passed"]


def test_fueter_map_rejects_a_negative_power():
    # range(n + 1) would read n = -1 as the empty sum, the zero image
    with pytest.raises(ValueError, match="non-negative"):
        fueter_map(-1, spec3())
    with pytest.raises(ValueError, match="n must be an integer"):
        fueter_map(True, spec3())


def test_fueter_compare_shares_one_blocks_dict(monkeypatch):
    """Every image of one report reads the same chains Δ^r(x̲^s P_k): each
    fueter_map call gets the report's spec, which holds G_s for s = 0..n_max
    and no other, as the realized chains read no G_s of a higher degree."""
    spec = SequenceSpec.builtin(3, 1, 2)
    top = 2 * 1 + 3 - 1 + spec.n_max
    seen = []
    original = fueter.fueter_map

    def recording(n, spec_):
        seen.append(spec_)
        return original(n, spec_)

    monkeypatch.setattr(fueter, "fueter_map", recording)
    assert fueter_compare(spec).all_passed
    assert len(seen) == top + 1 and all(spec_ is spec for spec_ in seen)
    assert sorted(spec._multiples) == list(range(spec.n_max + 1))


def test_fueter_order_and_even_dimension():
    assert fueter_order(3, 0) == 1
    assert fueter_order(5, 2) == 4
    with pytest.raises(EvenDimensionError):
        fueter_order(4, 0)
    with pytest.raises(EvenDimensionError):
        fueter_map(2, SequenceSpec(m=2, k=0, pk=CliffordPolynomial.one(AlgebraContext(2)), n_max=0))


def test_fueter_map_anchor():
    assert fueter_map(2, spec3()) == CliffordPolynomial.constant(CTX3, -4)


def test_fueter_map_vanishing_below_threshold():
    assert fueter_map(0, spec3()).is_zero()
    assert fueter_map(1, spec3()).is_zero()
    spec = SequenceSpec.builtin(3, 1, 0)
    for n in range(2 * 1 + 3 - 1):
        assert fueter_map(n, spec).is_zero()


def test_fueter_map_cubic():
    # hand-expanded image of the third power in dimension three
    expected = -4 * (vector_variable(CTX3) + 3 * CliffordPolynomial.variable(CTX3, 0))
    assert fueter_map(3, spec3()) == expected


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_fueter_images_are_monogenic(n):
    assert is_monogenic(fueter_map(n, spec3()))


def test_fueter_scale_values():
    assert fueter_scale(3, 0, 2) == -4  # (-1) * 2!! * 2
    assert fueter_scale(3, 0, 3) == -4
    with pytest.raises(ArgumentTooSmallError):
        fueter_scale(3, 0, 1)


def _entries(spec):
    """The entries of fueter_compare(spec), keyed by (identity, n)."""
    return {(e.identity, e.params["n"]): e for e in fueter_compare(spec).entries}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_fueter_identity_k0_m3(n):
    spec = SequenceSpec(m=3, k=0, pk=ONE3, n_max=n - 2)
    assert _entries(spec)["fueter_ck_identity", n].passed


def test_fueter_identity_at_threshold_is_initial_term():
    # at n = 2k+m-1 the right side is proportional to P_k itself
    spec = SequenceSpec.builtin(3, 1, 0)
    threshold = 2 * 1 + 3 - 1
    assert _entries(spec)["fueter_ck_identity", threshold].passed
    image = fueter_map(threshold, spec)
    assert image == fueter_scale(3, 1, threshold) * spec.pk


def test_fueter_appell_match_examples():
    entries = _entries(SequenceSpec.builtin(3, 0, 2))
    match0, match1 = entries["fueter_appell_match", 0], entries["fueter_appell_match", 1]
    assert match0.passed and match0.params["lambda"] == "-4/1"
    assert match1.passed and match1.params["lambda"] == "-12/1"
    assert _entries(SequenceSpec.builtin(3, 1, 2))["fueter_appell_match", 2].passed


@pytest.mark.parametrize("m, k, n_max", [(3, 0, 3), (3, 1, 2), (5, 1, 1)])
def test_fueter_compare_equals_the_separate_checks(m, k, n_max):
    """The report, entry for entry, rebuilt from the literal route and the
    separate right-hand sides: CK extension and sequence term."""
    spec = SequenceSpec.builtin(m, k, n_max)
    ctx, threshold = spec.context, 2 * k + m - 1
    zero = CliffordPolynomial.zero(ctx)
    expected = VerificationReport()
    for n in range(threshold):
        params = {"m": m, "k": k, "n": n}
        expected.add_equal("fueter_vanishing", params, _literal_image(n, spec), zero)
    images = [_literal_image(threshold + n, spec) for n in range(n_max + 1)]
    for n, image in enumerate(images):
        rhs = fueter_scale(m, k, threshold + n) * ck_extend(vector_power(ctx, n) * spec.pk)
        expected.add_equal("fueter_ck_identity", {"m": m, "k": k, "n": threshold + n}, image, rhs)
    for n, image in enumerate(images):
        lam = fueter_scale(m, k, threshold + n) / restriction_coefficient(m, k, n)
        rhs = lam * sequence_term_explicit(spec, n)
        params = {"m": m, "k": k, "n": n, "lambda": f"{lam.numerator}/{lam.denominator}"}
        expected.add_equal("fueter_appell_match", params, image, rhs)
    assert expected.all_passed
    assert fueter_compare(spec).to_json() == expected.to_json()


def test_fueter_compare_negative_control(monkeypatch):
    # one corrupted image must fail both checks that read it, and nothing else
    spec = SequenceSpec.builtin(3, 1, 2)
    threshold, bad = 2 * 1 + 3 - 1, 1
    original = fueter.fueter_map

    def corrupted(n, spec_):
        image = original(n, spec_)
        return image + ONE3 if n == threshold + bad else image

    monkeypatch.setattr(fueter, "fueter_map", corrupted)
    entries = fueter_compare(spec).entries
    failed = [(e.identity, e.params["n"]) for e in entries if not e.passed]
    assert failed == [("fueter_ck_identity", threshold + bad), ("fueter_appell_match", bad)]
    assert all(e.witness for e in entries if not e.passed)
    assert len(entries) == threshold + 2 * (spec.n_max + 1)


def test_p_k_is_gated_once_per_spec_and_on_every_public_route(monkeypatch):
    """A SequenceSpec's P_k passes the gate when the spec is built, and
    verify_axial and fueter_compare do not run it again.  Every spec runs
    it, also on a P_k that has passed it before, so a P_k that fails it at
    degree k reaches none of the routes, which all take a spec."""
    spec = SequenceSpec.builtin(3, 1, 1)
    checks = []
    original = operators.validate_initial_term

    def counting(pk, k):
        checks.append(k)
        return original(pk, k)

    monkeypatch.setattr(operators, "validate_initial_term", counting)
    assert verify_axial(spec).all_passed and fueter_compare(spec).all_passed
    assert checks == []
    SequenceSpec(m=3, k=1, pk=spec.pk, n_max=0)
    assert checks == [1]

    x1e1 = CliffordPolynomial.monomial(CTX3, unit_exps(3, 1), CTX3.e(1))  # not Dirac-annihilated
    for pk, k, failed in ((x1e1, 1, "dirac_kernel"), (spec.pk, 2, "homogeneous")):
        with pytest.raises(InvalidInitialTermError, match=f"initial_term_{failed}"):
            SequenceSpec(m=3, k=k, pk=pk, n_max=0)  # spec.pk has degree 1, not 2
