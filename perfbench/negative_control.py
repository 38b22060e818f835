"""Negative control for the benchmark's output checker.

    python3 perfbench/negative_control.py

Runs generate_json once for real, then feeds the checker a corrupted
term, a broken round trip, a wrong reference digest and a failed verify
run.  Each must raise failed_ratio or output_mismatch_ratio above zero
with the offending workload named; the untouched run must pass.  Exits 1
if any control does not fire.
"""

from __future__ import annotations

import re
import sys

from run import SRC, Tally

sys.path.insert(0, str(SRC))

from workloads import WORKLOADS, RunResult, check, load_reference, round_trip, run  # noqa: E402


def corrupt_first_coefficient(text: str) -> str:
    """Add one to the numerator of the first coefficient of the first term."""
    start = text.index('"terms"')
    hit = re.compile(r'"q": "(-?\d+)/').search(text, start)
    return text[: hit.start(1)] + str(int(hit[1]) + 1) + text[hit.end(1):]


def main() -> int:
    reference = load_reference()
    gen, suites = WORKLOADS["generate_json"], WORKLOADS["suites_m6"]
    real = run(gen, 0)
    bad_text = corrupt_first_coefficient(real.stdout)
    wrong_reference = dict(reference, generate_json="0" * 64)
    cases = [
        # (label, workload, result, reference, expected ratio that must be > 0 or None for a pass)
        ("untouched output", gen, real, reference, None),
        ("corrupted term", gen, RunResult(0, bad_text, round_trip(bad_text)), reference, "output_mismatch_ratio"),
        ("broken round trip", gen, RunResult(0, real.stdout, bad_text), reference, "failed_ratio"),
        ("wrong reference digest", gen, real, wrong_reference, "output_mismatch_ratio"),
        ("failed verify check", suites,
         RunResult(1, "FAIL monogenic [m=6, k=1, n=2]  witness: monomial [1, 0, 0, 0, 0, 0, 0]\n"),
         reference, "failed_ratio"),
    ]
    ok = True
    for label, workload, result, ref, expected in cases:
        tally = Tally()
        verdict = check(workload, 0, result, ref)
        tally.add(verdict.failures, verdict.mismatch)
        ratios = tally.ratios()
        if expected is None:
            fired = not tally.problems and not any(ratios.values())
        else:
            fired = ratios[expected] > 0 and all(p.startswith(f"{workload.name}:") for p in tally.problems)
        ok &= fired
        print(f"{'ok  ' if fired else 'MISS'} {label}: {ratios}")
        for problem in tally.problems:
            print(f"       {problem}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
