#!/usr/bin/env python3
"""Run the full verification grid and print one summary line per (m, k) cell.

Covers sequence identities (monogenicity, Appell step, homogeneity, route
agreement) plus the axial/Vekua checks.  Exit status 0 iff everything holds.
"""

import argparse
import sys
import time

from monappell.sequences import SequenceSpec, generate_sequence, verify_axial, verify_sequence


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--m", type=int, nargs="+", default=[2, 3, 4, 5])
    parser.add_argument("--k", type=int, nargs="+", default=[0, 1, 2, 3])
    parser.add_argument("--n-max", type=int, default=6)
    args = parser.parse_args()

    failures = 0
    total = 0
    for m in args.m:
        for k in args.k:
            start = time.perf_counter()
            spec = SequenceSpec.builtin(m, k, args.n_max)
            terms = generate_sequence(spec)
            report = verify_sequence(spec, terms)
            report.extend(verify_axial(spec, terms))
            elapsed = time.perf_counter() - start
            bad = report.failures()
            failures += len(bad)
            total += len(report.entries)
            verdict = "ok" if not bad else f"{len(bad)} FAILURES"
            print(
                f"m={m} k={k} n_max={args.n_max}: {len(report.entries)} checks, "
                f"{verdict} ({elapsed:.2f}s)"
            )
            for entry in bad:
                print("  " + entry.summary())
    print(f"total: {total - failures}/{total} checks passed")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
