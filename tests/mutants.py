"""Mutation runner: each entry of MUTANTS is a source edit that the tests it
names must catch.

    python tests/mutants.py

For each entry the runner copies src/, tests/ and pyproject.toml to a
temporary directory, replaces the entry's old text, which must occur
exactly once in its file, by the new text, and runs the named tests there
with ``pytest -x``.  Only pytest's exit 1 with a failed test and no error
counts as caught: a collection or setup error (exit 2, or an error in the
summary line) comes from a typo in a mutant as easily as from a test that
noticed it.  A control entry is a no-op edit that must survive, so a
runner that reports every mutant caught fails.  Before the mutants, the
named tests run once on an unchanged copy and must pass.

Exit 0 when every mutant is caught and every control survives, else 1.
The file has no ``test_`` prefix, so the test suite does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TREE = ("src", "tests", "pyproject.toml")
LITERAL_ROUTE = "tests/test_fueter.py::test_fueter_map_equals_the_literal_route"


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]
    control: bool = False


MUTANTS = [
    Mutant(
        "fueter_degree_shortcut_takes_2nu",
        "src/monappell/fueter.py",
        "if n < 2 * order:",
        "if n <= 2 * order:",
        ("tests/test_fueter.py::test_fueter_map_anchor", LITERAL_ROUTE),
    ),
    Mutant(
        "chain_laplacian_mu_sign_flipped",
        "src/monappell/sequences.py",
        "image.get((j, s - 2), 0) + mu[s] * q",
        "image.get((j, s - 2), 0) - mu[s] * q",
        (LITERAL_ROUTE,),
    ),
    Mutant(
        "chain_laplacian_x0_shift_dropped",
        "src/monappell/sequences.py",
        "image[j - 2, s] = image.get((j - 2, s), 0) + j * (j - 1) * q",
        "pass",
        (LITERAL_ROUTE,),
    ),
    Mutant(
        "no_op_control",
        "src/monappell/sequences.py",
        "for _ in range(order):",
        "for _ in range(0 + order):",
        (LITERAL_ROUTE,),
        control=True,
    ),
]


def copy_tree(target: Path) -> Path:
    target.mkdir()
    for part in TREE:
        source = ROOT / part
        if source.is_dir():
            shutil.copytree(source, target / part, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(source, target / part)
    return target


def run_tests(tree: Path, tests) -> tuple[int, str]:
    """pytest's exit code and last summary line for the tests, run in tree on its own src/."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "--tb=no", "-p", "no:cacheprovider", *tests]
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    lines = (done.stdout.strip() or done.stderr.strip()).splitlines()
    return done.returncode, lines[-1] if lines else ""


def verdict(code: int, summary: str) -> str:
    if code == 0:
        return "survived"
    if code == 1 and " failed" in summary and " error" not in summary:
        return "caught"
    return "error"


def mutate(tree: Path, mutant: Mutant) -> str | None:
    """Apply the mutant in tree; the problem when its old text does not occur exactly once."""
    path = tree / mutant.path
    text = path.read_text()
    count = text.count(mutant.old)
    if count != 1:
        return f"the old text occurs {count} times in {mutant.path}"
    path.write_text(text.replace(mutant.old, mutant.new))
    return None


def main() -> int:
    ok = True
    with tempfile.TemporaryDirectory() as scratch:
        tests = sorted({test for mutant in MUTANTS for test in mutant.tests})
        code, summary = run_tests(copy_tree(Path(scratch) / "unchanged"), tests)
        if code != 0:
            print(f"the named tests do not pass on the unchanged tree: {summary}")
            return 1
        for mutant in MUTANTS:
            tree = copy_tree(Path(scratch) / mutant.name)
            problem = mutate(tree, mutant)
            if problem:
                result, summary = "error", problem
            else:
                code, summary = run_tests(tree, mutant.tests)
                result = verdict(code, summary)
            expected = "survived" if mutant.control else "caught"
            ok &= result == expected
            mark = "ok  " if result == expected else "FAIL"
            print(f"{mark} {mutant.name}: {result} (expected {expected}; {summary})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
