"""Run-to-run spread of the end-to-end metrics, computed the way the
acceptance rule computes it.

    python3 perfbench/spread.py --workloads verify_m7 fueter_m7 --seeds 0 1 2 3 4
    python3 perfbench/spread.py --seeds 0 1 2 3 4 5 6 7 8 9 --save set1
    python3 perfbench/spread.py --seeds 10 11 12 13 14 15 16 17 18 19 --save set2 --against set1

Runs the BENCHMARK.json command once per workload and seed (sequentially,
untraced), then prints per metric the median over seeds and the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median, next to a third of the metric's bound.  With
--against, it also prints how far each median moved from a saved set.
Exits 1 if any run was incorrect.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--save", help="name under perfbench/out/ for these values")
    parser.add_argument("--against", help="name of a saved set to compare medians with")
    args = parser.parse_args()

    values: dict[str, dict[str, list[float]]] = {}
    ok = True
    for workload in args.workloads:
        values[workload] = {}
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            started = perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            took = perf_counter() - started
            result = json.loads(proc.stdout.splitlines()[-1])
            ok &= proc.returncode == 0 and result["correct"]
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(workload, seed, {n: round(m["value"], 4) for n, m in result["metrics"].items()},
                  f"({took:.1f} s)", flush=True)

    previous = json.loads((OUT / f"spread-{args.against}.json").read_text()) if args.against else {}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'workload':14} {'metric':12} {'median':>10} {'spread':>8} {'bound/3':>8} {'moved':>8}")
    for workload, metrics in values.items():
        for name, xs in metrics.items():
            q1, _, q3 = statistics.quantiles(xs, n=4)
            median = statistics.median(xs)
            moved = ""
            if workload in previous and name in previous[workload]:
                moved = f"{median / statistics.median(previous[workload][name]) - 1:+.3f}"
            print(f"{workload:14} {name:12} {median:10.4f} {(q3 - q1) / median:8.3f} "
                  f"{bounds[name] / 3:8.3f} {moved:>8}")
    if args.save:
        OUT.mkdir(exist_ok=True)
        (OUT / f"spread-{args.save}.json").write_text(json.dumps(values, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
