"""Fresh-interpreter measurements, run by run.py as child processes.

    python3 perfbench/child.py setup <m> <k> <n_max>
        time `import monappell`, InitialTermSpec.resolve (with its
        require_initial_term gate) and the SequenceSpec constructor
    python3 perfbench/child.py rss <workload> <seed>
        run the workload once, check its output, report peak RSS

Each prints one JSON object.  ``src/`` must be on PYTHONPATH.
"""

from __future__ import annotations

import sys
from time import perf_counter


def setup(m: int, k: int, n_max: int) -> dict:
    """Nothing the package imports is loaded before the clock starts."""
    start = perf_counter()
    import monappell

    pk = monappell.InitialTermSpec(m=m, k=k).resolve()
    monappell.SequenceSpec(m=m, k=k, pk=pk, n_max=n_max)
    return {"setup_s": perf_counter() - start}


def rss(name: str, seed: int) -> dict:
    """VmHWM, not getrusage: ru_maxrss survives exec, so it would include
    the parent's RSS at the moment it spawned this process."""
    import workloads

    w = workloads.WORKLOADS[name]
    verdict = workloads.check(w, seed, workloads.run(w, seed), workloads.load_reference())
    with open("/proc/self/status") as status:
        peak_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    return {"peak_rss_mb": peak_kb / 1024, "failures": verdict.failures, "mismatch": verdict.mismatch}


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    out = setup(*map(int, rest)) if mode == "setup" else rss(rest[0], int(rest[1]))
    import json

    print(json.dumps(out))
