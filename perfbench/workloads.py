"""The four CLI workloads, how one run of each is made, and how its
output is checked.

A run calls ``monappell.cli.main`` in-process with stdout captured, as a
user's shell would see it.  The output check compares a digest of stdout
with the reference digest recorded in ``reference.json`` (the output
contract is byte-identical output for a fixed configuration and seed);
``verify`` echoes its seed, so its stdout is normalised to offsets from
the seed before hashing, which makes one reference hold for every seed.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    m: int
    k: int
    n_max: int
    extra: tuple[str, ...] = ()
    seeded: bool = False
    round_trip: bool = False

    def argv(self, seed: int) -> list[str]:
        args = [self.command, "--m", str(self.m), "--k", str(self.k), "--n-max", str(self.n_max)]
        args += self.extra
        return args + ["--seed", str(seed)] if self.seeded else args


# Why each cell: see "workloads" in BENCHMARK.json.  Each run takes about
# 2-3 s on a shared 2-core x86 VM, so a 25 s budget holds about ten runs
# and their median; that machine's per-run noise is about 15%.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify_m7", "verify", 7, 3, 7, ("--cases", "25"), seeded=True),
        Workload("fueter_m7", "fueter-compare", 7, 2, 0),
        Workload("suites_m6", "verify", 6, 1, 3, ("--cases", "200"), seeded=True),
        Workload("generate_json", "generate", 8, 3, 8, ("--format", "json"), round_trip=True),
    )
}


@dataclass
class RunResult:
    rc: int | None
    stdout: str
    echoed: str | None = None  # generate_json: the output reloaded and written again
    error: str | None = None


@dataclass
class Verdict:
    failures: list[str] = field(default_factory=list)
    mismatch: str | None = None


def run(workload: Workload, seed: int, tracer=None) -> RunResult:
    """One closed-loop operation: the CLI call, then for generate_json the
    reload and re-serialization of every term."""
    from monappell import cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(workload.argv(seed))
    except SystemExit as exc:  # argparse usage errors
        return RunResult(exc.code, out.getvalue(), error=err.getvalue().strip() or None)
    except Exception as exc:
        return RunResult(None, out.getvalue(), error=f"{type(exc).__name__}: {exc}")
    stderr = err.getvalue().strip()
    result = RunResult(rc, out.getvalue(), error=stderr if rc != 0 and stderr else None)
    if workload.round_trip and rc == 0:
        try:
            with tracer.span("bench.round_trip") if tracer else nullcontext():
                result.echoed = round_trip(result.stdout)
        except Exception as exc:
            result.error = f"round trip: {type(exc).__name__}: {exc}"
    return result


def round_trip(text: str) -> str:
    """Reload every polynomial of a ``generate --format json`` payload and
    write the payload again the way the CLI prints it."""
    from monappell import CliffordPolynomial

    payload = json.loads(text)
    reload = CliffordPolynomial.from_json_dict
    payload["initial_term"] = reload(payload["initial_term"]).to_json_dict()
    payload["terms"] = [reload(term).to_json_dict() for term in payload["terms"]]
    return json.dumps(payload, indent=2) + "\n"


def normalized(workload: Workload, seed: int, stdout: str) -> str:
    """stdout with each echoed seed written as its offset from ``seed``."""
    if not workload.seeded:
        return stdout
    text = re.sub(r"^seed: (-?\d+)$", lambda g: f"seed: S{int(g[1]) - seed:+d}", stdout, flags=re.M)
    return re.sub(r"\bseed=(-?\d+)", lambda g: f"seed=S{int(g[1]) - seed:+d}", text)


def digest(workload: Workload, seed: int, stdout: str) -> str:
    return hashlib.sha256(normalized(workload, seed, stdout).encode()).hexdigest()


def load_reference() -> dict[str, str]:
    return json.loads(REFERENCE_FILE.read_text())


def check(workload: Workload, seed: int, result: RunResult, reference: dict[str, str]) -> Verdict:
    """Failures (exception, non-zero exit, failed check, broken round trip)
    and a stdout digest mismatch, each message naming the workload."""
    verdict = Verdict()
    name = workload.name
    if result.rc != 0:
        first_fail = next((ln for ln in result.stdout.splitlines() if ln.startswith("FAIL")), None)
        detail = f"; {first_fail}" if first_fail else ""
        verdict.failures.append(f"{name}: exit code {result.rc}{detail}")
    if result.error:
        verdict.failures.append(f"{name}: {result.error}")
    if workload.round_trip and result.rc == 0 and result.echoed != result.stdout:
        at = next(
            (i for i, (a, b) in enumerate(zip(result.stdout, result.echoed or "")) if a != b),
            min(len(result.stdout), len(result.echoed or "")),
        )
        verdict.failures.append(f"{name}: re-serialized JSON differs from the output at character {at}")
    got, want = digest(workload, seed, result.stdout), reference.get(name)
    if got != want:
        verdict.mismatch = f"{name}: stdout digest {got[:16]} differs from reference {str(want)[:16]}"
    return verdict


def checks_count(workload: Workload, stdout: str) -> int:
    """Identity checks the run reported; for generate_json, the polynomials
    whose round trip was compared."""
    if workload.round_trip:
        return len(json.loads(stdout)["terms"]) + 1
    return sum(ln.startswith(("PASS ", "FAIL ")) for ln in stdout.splitlines())


def term_sizes(payloads: list[dict]) -> dict[str, int]:
    """Size counters over polynomials in the JSON interchange schema:
    monomials, (monomial, blade) coefficients, and the largest numerator
    and denominator bit lengths."""
    sizes = {"terms.monomials": 0, "terms.blades": 0, "terms.max_num_bits": 0, "terms.max_den_bits": 0}
    for payload in payloads:
        sizes["terms.monomials"] += len(payload["terms"])
        for term in payload["terms"]:
            sizes["terms.blades"] += len(term["coeff"])
            for entry in term["coeff"]:
                num, den = entry["q"].split("/")
                sizes["terms.max_num_bits"] = max(sizes["terms.max_num_bits"], int(num).bit_length())
                sizes["terms.max_den_bits"] = max(sizes["terms.max_den_bits"], int(den).bit_length())
    return sizes
