"""Benchmark of the monappell CLI: end-to-end timings per workload and
per-module spans.

    python3 perfbench/run.py --workload verify_m7 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Run it from anywhere; it imports the package from ``src/`` next to this
directory, never from an installed copy, and exits 2 without a result
when that source is missing.

Load model: a closed loop with one caller on one thread.  Each run calls
``monappell.cli.main`` in-process and starts only after the previous one
returned; runs continue while the next one is expected to end inside
``--seconds`` (at least one run is always made).  Every output is
checked against the reference digest outside the timed region.

``--trace 0`` reports the end-to-end metrics:
    wall_s       median wall time of one run
    setup_s      median, over fresh interpreters, of import + spec resolution
    peak_rss_mb  peak RSS of one fresh child running the workload once
``--trace 1`` alternates untraced and traced runs and reports per-module
span metrics (calls, total_s, self_s), term-size counters, the src/ line
count and the tracing overhead (median over pairs of traced minus
untraced wall time).

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it print each metric with its unit,
the failure and output-mismatch ratios, and the environment.  Samples,
problems and the raw spans are written to perfbench/out/.  The exit code
is 1 when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
CHILD_TIMEOUT_S = 120

sys.path.insert(0, str(BENCH))

from spans import SPAN_NAMES, Tracer  # noqa: E402
from workloads import WORKLOADS, check, checks_count, load_reference, run, term_sizes  # noqa: E402

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
SPAN_FIELD_UNITS = {"calls": "count", "total_s": "s", "self_s": "s"}
PER_LAYER_UNITS = {
    **{f"{span}.{field}": unit for span in SPAN_NAMES for field, unit in SPAN_FIELD_UNITS.items()},
    "terms.monomials": "count",
    "terms.blades": "count",
    "terms.max_num_bits": "bits",
    "terms.max_den_bits": "bits",
    "checks.count": "count",
    "src_lines": "lines",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.self_sum_s": "s",
}


class Tally:
    """Attempted operations; which of them failed (exception, non-zero exit,
    failed check), which printed output that differs from the reference,
    and which did either (the ``failed`` count of the result line)."""

    def __init__(self):
        self.attempted = 0
        self.errored = 0
        self.mismatched = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, failures: list[str], mismatch: str | None) -> None:
        self.attempted += 1
        self.errored += bool(failures)
        self.mismatched += mismatch is not None
        self.failed += bool(failures or mismatch)
        self.problems += failures + ([mismatch] if mismatch else [])

    def ratios(self) -> dict[str, float]:
        return {"failed_ratio": self.errored / self.attempted,
                "output_mismatch_ratio": self.mismatched / self.attempted}


def environment(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "seed": seed,
        "loadavg": os.getloadavg(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in (SRC / "monappell").glob("*.py")),
    }


def child(tally: Tally, name: str, *args: str) -> dict | None:
    """Run child.py with ``args`` in a fresh interpreter; a crash or a
    failed output check counts as a failed operation of workload ``name``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), *args],
            capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        tally.add([f"{name}: {args[0]} child timed out after {CHILD_TIMEOUT_S} s"], None)
        return None
    if proc.returncode != 0:
        tally.add([f"{name}: {args[0]} child exited {proc.returncode}: {proc.stderr.strip()[-300:]}"], None)
        return None
    out = json.loads(proc.stdout.splitlines()[-1])
    tally.add(out.get("failures", []), out.get("mismatch"))
    return out


def timed_run(workload, seed, reference, tally, tracer=None) -> tuple[float, object]:
    start = perf_counter()
    result = run(workload, seed, tracer)
    elapsed = perf_counter() - start
    verdict = check(workload, seed, result, reference)
    tally.add(verdict.failures, verdict.mismatch)
    return elapsed, result


def keep_going(started: float, samples: list[float], seconds: float) -> bool:
    """Start another run only if it should end inside the budget."""
    return perf_counter() - started + statistics.median(samples) <= seconds


def measure_end_to_end(workload, seed: int, seconds: float, reference, tally) -> tuple[dict, dict]:
    """Timed runs, each followed by one fresh-interpreter set-up sample, so
    both kinds of sample spread over the same stretch of machine load."""
    spec = [str(v) for v in (workload.m, workload.k, workload.n_max)]
    child(tally, workload.name, "setup", *spec)  # fills the bytecode cache; not a sample
    walls: list[float] = []
    setups: list[float] = []
    started = perf_counter()
    while not walls or keep_going(started, walls, seconds):
        walls.append(timed_run(workload, seed, reference, tally)[0])
        out = child(tally, workload.name, "setup", *spec)
        if out:
            setups.append(out["setup_s"])
    rss = child(tally, workload.name, "rss", workload.name, str(seed)) or {"peak_rss_mb": float("nan")}

    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups) if setups else float("nan"),
        "peak_rss_mb": rss["peak_rss_mb"],
    }
    samples = {"wall_s": walls, "setup_s": setups, "peak_rss_mb": [rss["peak_rss_mb"]]}
    return metrics, samples


def measure_per_layer(workload, seed: int, seconds: float, reference, tally) -> tuple[dict, dict]:
    """Pairs of one untraced and one traced run, alternating which goes
    first, until the budget is spent."""
    tracer = Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    per_run: list[dict] = []
    stdout = ""
    started = perf_counter()
    while not traced or keep_going(started, [u + t for u, t in zip(untraced, traced)], seconds):
        pair = len(traced)
        for with_trace in ((False, True) if pair % 2 == 0 else (True, False)):
            if not with_trace:
                untraced.append(timed_run(workload, seed, reference, tally)[0])
                continue
            tracer.run_id = pair
            tracer.install()
            try:
                elapsed, result = timed_run(workload, seed, reference, tally, tracer)
            finally:
                tracer.uninstall()
            traced.append(elapsed)
            stdout = result.stdout
            spans = tracer.aggregate(pair)
            row = {f"{span}.{field}": value for span, fields in spans.items() for field, value in fields.items()}
            row["trace.self_sum_s"] = sum(fields["self_s"] for fields in spans.values())
            per_run.append(row)

    metrics = {key: statistics.median(row[key] for row in per_run) for key in per_run[0]}
    payloads = [poly.to_json_dict() for _, poly in sorted(tracer.outputs.items())]
    metrics.update(term_sizes(payloads))
    metrics["checks.count"] = checks_count(workload, stdout) if stdout else 0
    metrics["trace.wall_s"] = statistics.median(traced)
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    # per adjacent pair, so slow drift in machine speed cancels
    metrics["trace.overhead_s"] = statistics.median(t - u for t, u in zip(traced, untraced))
    samples = {"trace.wall_s": traced, "trace.untraced_wall_s": untraced, "spans": tracer.rows()}
    return metrics, samples


def bench(name: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    workload = WORKLOADS[name]
    tally = Tally()
    measure = measure_per_layer if trace else measure_end_to_end
    metrics, samples = measure(workload, seed, seconds, load_reference(), tally)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    if trace:
        metrics["src_lines"] = env["src_lines"]

    for key, unit in units.items():
        extra = ""
        if key in samples and len(samples[key]) > 1:
            q1, _, q3 = statistics.quantiles(samples[key], n=4)
            extra = f"  (median of {len(samples[key])}; q1 {q1:.4f}, q3 {q3:.4f})"
        print(f"{name}  {key}  {metrics[key]:.6g} {unit}{extra}")
    counts = {"failed_ratio": tally.errored, "output_mismatch_ratio": tally.mismatched}
    for key, ratio in tally.ratios().items():
        print(f"{name}  {key}  {ratio:g} ({counts[key]}/{tally.attempted} operations)")
    for problem in tally.problems:
        print(f"problem: {problem}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    record = {"workload": name, "env": env, "metrics": metrics, "problems": tally.problems, "samples": samples}
    (OUT / f"{name}-trace{int(trace)}.json").write_text(json.dumps(record) + "\n")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "monappell" / "__init__.py").is_file():
        print(f"error: no monappell source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import monappell

    if Path(monappell.__file__).resolve().parent != SRC / "monappell":
        print(f"error: imported monappell from {monappell.__file__}, not {SRC}", file=sys.stderr)
        return 2

    env = environment(args.seed)
    print("env " + json.dumps(env))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: bench(name, args.seed, args.seconds, bool(args.trace), env) for name in names}
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
