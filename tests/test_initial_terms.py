import json
import random

import pytest

from monappell.algebra import AlgebraContext
from monappell.errors import DegreeLimitError, DimensionTooSmallError, InvalidInitialTermError
from monappell.initial_terms import (
    InitialTermSpec,
    _generator_power,
    builtin_initial_term,
    load_initial_term,
    validate_initial_term,
)
from monappell.polynomials import DEGREE_LIMIT, CliffordPolynomial, unit_exps
from monappell.sampling import random_initial_term
from monappell.sequences import SequenceSpec

CTX3 = AlgebraContext(3)


def test_builtin_degree_zero():
    for m in (1, 2, 5):
        ctx = AlgebraContext(m)
        assert builtin_initial_term(ctx, 0) == CliffordPolynomial.one(ctx)


def test_builtin_degree_one():
    p = builtin_initial_term(CTX3, 1)
    expected = CliffordPolynomial.variable(CTX3, 1) - CliffordPolynomial.monomial(
        CTX3, unit_exps(3, 2), CTX3.blade((1, 2))
    )
    assert p == expected


def test_builtin_degree_two():
    p = builtin_initial_term(CTX3, 2)
    x1sq = CliffordPolynomial.monomial(CTX3, (0, 2, 0, 0), CTX3.one())
    x2sq = CliffordPolynomial.monomial(CTX3, (0, 0, 2, 0), CTX3.one())
    cross = CliffordPolynomial.monomial(CTX3, (0, 1, 1, 0), 2 * CTX3.blade((1, 2)))
    assert p == x1sq - x2sq - cross


def test_builtin_power_identity():
    for m in (2, 3, 4):
        ctx = AlgebraContext(m)
        for k in range(4):
            assert (
                builtin_initial_term(ctx, k) * builtin_initial_term(ctx, 1)
                == builtin_initial_term(ctx, k + 1)
            )


def test_builtin_rejects_small_dimension():
    with pytest.raises(DimensionTooSmallError):
        builtin_initial_term(AlgebraContext(1), 1)
    with pytest.raises(ValueError):
        builtin_initial_term(CTX3, -1)


def test_builtin_on_other_generator_pairs():
    """Each pair i < j gives a valid P_k; a pair out of order or out of range
    is rejected (x_2 - e_12 x_1 is not monogenic)."""
    ctx = AlgebraContext(4)
    for pair in ((1, 3), (2, 4), (3, 4)):
        assert validate_initial_term(builtin_initial_term(ctx, 3, pair), 3).all_passed
    assert not validate_initial_term(
        CliffordPolynomial.variable(ctx, 2)
        - CliffordPolynomial.monomial(ctx, unit_exps(4, 1), ctx.blade((1, 2))),
        1,
    ).all_passed
    for pair in ((2, 1), (1, 1), (0, 2), (3, 5)):
        with pytest.raises(ValueError, match="generator pair"):
            builtin_initial_term(ctx, 1, pair)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_builtin_passes_validator(m, k):
    ctx = AlgebraContext(m)
    report = validate_initial_term(builtin_initial_term(ctx, k), k)
    assert report.all_passed


def test_validator_flags_non_monogenic():
    bad = CliffordPolynomial.monomial(CTX3, unit_exps(3, 1), CTX3.e(1))  # x1 e1
    report = validate_initial_term(bad, 1)
    verdicts = {entry.identity: entry.passed for entry in report.entries}
    assert verdicts["initial_term_x0_free"]
    assert verdicts["initial_term_homogeneous"]
    assert not verdicts["initial_term_dirac_kernel"]
    failing = report.failures()[0]
    assert failing.witness is not None


def test_validator_flags_x0_and_degree():
    p = CliffordPolynomial.variable(CTX3, 0)
    report = validate_initial_term(p, 0)
    verdicts = {entry.identity: entry.passed for entry in report.entries}
    assert not verdicts["initial_term_x0_free"]
    assert not verdicts["initial_term_homogeneous"]


def test_spec_resolves_builtin():
    spec = InitialTermSpec(m=3, k=2)
    assert spec.resolve() == builtin_initial_term(CTX3, 2)


def test_spec_round_trips_through_file(tmp_path):
    term = builtin_initial_term(CTX3, 2)
    path = tmp_path / "pk.json"
    path.write_text(json.dumps(term.to_json_dict()))
    assert load_initial_term(path) == term
    spec = InitialTermSpec(m=3, k=2, source=str(path))
    assert spec.resolve() == term


def test_spec_rejects_bad_file(tmp_path):
    """resolve() loads a non-monogenic P_k as it is; the gate that rejects it
    runs when a SequenceSpec is built on it.  A file of the wrong m is
    rejected by resolve() itself."""
    bad = CliffordPolynomial.monomial(CTX3, unit_exps(3, 1), CTX3.e(1))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad.to_json_dict()))
    term = InitialTermSpec(m=3, k=1, source=str(path)).resolve()
    assert term == bad
    with pytest.raises(InvalidInitialTermError, match="initial_term_dirac_kernel"):
        SequenceSpec(m=3, k=1, pk=term, n_max=0)
    with pytest.raises(InvalidInitialTermError, match="file declares m=3, expected m=2"):
        InitialTermSpec(m=2, k=1, source=str(path)).resolve()  # wrong dimension


def test_non_builtin_valid_term_passes():
    # a genuinely different generator pair still satisfies the gate
    term = CliffordPolynomial.variable(CTX3, 2) - CliffordPolynomial.monomial(
        CTX3, unit_exps(3, 3), CTX3.blade((2, 3))
    )
    report = validate_initial_term(term**2, 2)
    assert report.all_passed


@pytest.mark.parametrize("k", [True, 1.0])
def test_validation_degree_must_be_exact(k):
    pk = builtin_initial_term(CTX3, 1)
    assert validate_initial_term(pk, 1).all_passed
    with pytest.raises(ValueError, match=f"k must be an integer, got {k!r}"):
        validate_initial_term(pk, k)


@pytest.mark.parametrize("k", [True, False, 0.0, 2.0])
def test_initial_term_builders_take_exact_k(k):
    """k goes through require_int before any branch on it: True == 1 and
    0.0 == 0 would otherwise pass, or hit a memo keyed on k."""
    with pytest.raises(ValueError, match=f"k must be an integer, got {k!r}"):
        builtin_initial_term(CTX3, k)
    with pytest.raises(ValueError, match=f"k must be an integer, got {k!r}"):
        random_initial_term(random.Random(0), CTX3, k)


def test_builtin_takes_a_list_pair_and_exact_indices():
    assert builtin_initial_term(CTX3, 2, [1, 2]) == builtin_initial_term(CTX3, 2, (1, 2))
    builtin_initial_term(CTX3, 2, (1, 2))  # the (m, k, 1, 2) power is now memoized
    for pair in ((True, 2), (1.0, 2)):
        with pytest.raises(ValueError, match="generator index must be an integer"):
            builtin_initial_term(CTX3, 2, pair)


def test_generator_power_memo_is_bounded():
    assert _generator_power.cache_info().maxsize == 256
    assert builtin_initial_term(CTX3, 3, (2, 3)) is builtin_initial_term(CTX3, 3, (2, 3))


def test_a_builtin_term_past_the_degree_limit_is_rejected_before_any_product(no_large_products):
    """k = DEGREE_LIMIT would take that many products to reach the limit;
    the degree is checked first, and generator powers past degree 1 fail here."""
    with pytest.raises(DegreeLimitError, match=f"initial term degree {DEGREE_LIMIT} is not below"):
        builtin_initial_term(CTX3, DEGREE_LIMIT)
    assert builtin_initial_term(CTX3, 1).is_homogeneous(1)
