"""The public names of the package, and the signatures of the functions
and fields that take a SequenceSpec, pinned: adding, removing or renaming
one is an API change and has to be declared, here and in CHANGES.md."""

import dataclasses
import inspect

import pytest

import monappell

PUBLIC_API = [
    "AlgebraContext",
    "ArgumentTooSmallError",
    "AxialPair",
    "CheckResult",
    "CliffordPolynomial",
    "ContextMismatchError",
    "DegreeLimitError",
    "DependsOnX0Error",
    "DimensionTooSmallError",
    "EvenDimensionError",
    "InitialTermSpec",
    "InvalidInitialTermError",
    "MonappellError",
    "Multivector",
    "NonScalarInputError",
    "NonVectorInputError",
    "NotAxialFormError",
    "SequenceSpec",
    "VerificationReport",
    "axial_decompose",
    "axial_embedding",
    "blade_product",
    "builtin_initial_term",
    "cauchy_riemann",
    "check_dirac_power_rule",
    "check_leibniz_scalar",
    "check_leibniz_vector",
    "ck_extend",
    "conj_cauchy_riemann",
    "dirac",
    "double_factorial",
    "first_difference",
    "fueter_compare",
    "fueter_factor",
    "fueter_map",
    "fueter_order",
    "fueter_scale",
    "generate_sequence",
    "is_monogenic",
    "laplacian",
    "load_initial_term",
    "lowering_factor",
    "radius_squared",
    "require_initial_term",
    "restriction_coefficient",
    "sequence_term_ck",
    "sequence_term_explicit",
    "validate_initial_term",
    "vector_power",
    "vector_variable",
    "verify_axial",
    "verify_sequence",
]


def test_public_names_are_pinned():
    names = sorted(
        name
        for name, value in vars(monappell).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    )
    assert names == PUBLIC_API


@pytest.mark.parametrize(
    "name, params",
    [
        ("axial_decompose", ["p", "spec"]),
        ("fueter_map", ["n", "spec"]),
        ("axial_embedding", ["n", "spec"]),
    ],
)
def test_spec_taking_signatures_are_pinned(name, params):
    assert list(inspect.signature(getattr(monappell, name)).parameters) == params


def test_axial_pair_holds_its_spec():
    fields = [field.name for field in dataclasses.fields(monappell.AxialPair)]
    assert fields == ["a", "b_reduced", "spec"]
