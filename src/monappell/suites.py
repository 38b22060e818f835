"""Randomized identity suites shared by the CLI and the acceptance tests.

Each suite draws seeded random inputs, checks one identity exactly on
every draw, and reports a single aggregated entry whose witness names
the first failing case.
"""

from __future__ import annotations

import random

from .algebra import AlgebraContext
from .ck import ck_extend, ck_intertwines, is_monogenic
from .operators import check_dirac_power_rule, check_leibniz_scalar, check_leibniz_vector
from .report import VerificationReport
from .sampling import (
    random_initial_term,
    random_polynomial,
    random_scalar_polynomial,
    random_vector_polynomial,
    random_x0_free_polynomial,
)

K_MAX, N_MAX = 2, 4  # the largest initial degree and power of the power-rule suite


def _suite(names, m: int, seed: int, cases: int, check) -> VerificationReport:
    """Run check(rng, context), which returns one verdict per identity name,
    on `cases` seeded draws; report one aggregated entry per name."""
    rng = random.Random(seed)
    context = AlgebraContext(m)
    failures: dict[str, list[int]] = {name: [] for name in names}
    for index in range(cases):
        for name, passed in zip(names, check(rng, context)):
            if not passed:
                failures[name].append(index)
    report = VerificationReport()
    for name, failed in failures.items():
        witness = None if not failed else f"first failing case index {failed[0]}"
        params = {"m": m, "cases": cases, "seed": seed, "failures": len(failed)}
        report.add(name, params, not failed, witness)
    return report


def leibniz_scalar_suite(m: int, seed: int, cases: int) -> VerificationReport:
    def check(rng, context):
        phi = random_scalar_polynomial(rng, context)
        return [check_leibniz_scalar(phi, random_polynomial(rng, context))]

    return _suite(["leibniz_scalar"], m, seed, cases, check)


def leibniz_vector_suite(m: int, seed: int, cases: int) -> VerificationReport:
    def check(rng, context):
        f = random_vector_polynomial(rng, context)
        return [check_leibniz_vector(f, random_polynomial(rng, context))]

    return _suite(["leibniz_vector"], m, seed, cases, check)


def power_rule_suite(m: int, seed: int, cases: int) -> VerificationReport:
    def check(rng, context):
        k = rng.randint(0, K_MAX) if m >= 2 else 0
        n = rng.randint(1, N_MAX)
        return [check_dirac_power_rule(n, random_initial_term(rng, context, k), k)]

    return _suite(["dirac_power_rule"], m, seed, cases, check)


def ck_suite(m: int, seed: int, cases: int) -> VerificationReport:
    """Extension restriction, monogenicity of the extension, and the
    derivative intertwining, on random x_0-free data."""

    def check(rng, context):
        g = random_x0_free_polynomial(rng, context)
        extension = ck_extend(g)
        return [extension.restrict_x0() == g, is_monogenic(extension), ck_intertwines(g, extension)]

    return _suite(["ck_restriction", "ck_monogenic", "ck_intertwining"], m, seed, cases, check)


def run_identity_suites(m: int, seed: int, cases: int) -> VerificationReport:
    report = VerificationReport()
    report.extend(leibniz_scalar_suite(m, seed, cases))
    report.extend(leibniz_vector_suite(m, seed + 1, cases))
    report.extend(power_rule_suite(m, seed + 2, cases))
    report.extend(ck_suite(m, seed + 3, cases))
    return report
