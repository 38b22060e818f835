"""Structured pass/fail records for the identity checks."""

from __future__ import annotations

from dataclasses import dataclass, field

from .polynomials import first_difference


@dataclass
class CheckResult:
    identity: str
    params: dict
    passed: bool
    witness: str | None = None

    def to_json(self) -> dict:
        out = {"identity": self.identity, "params": self.params, "passed": self.passed}
        if self.witness is not None:
            out["witness"] = self.witness
        return out

    def summary(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        inner = ", ".join(f"{key}={value}" for key, value in self.params.items())
        line = f"{tag} {self.identity} [{inner}]"
        if not self.passed and self.witness:
            line += f"  witness: {self.witness}"
        return line


@dataclass
class VerificationReport:
    entries: list[CheckResult] = field(default_factory=list)

    def add(
        self, identity: str, params: dict, passed: bool, witness: str | None = None
    ) -> CheckResult:
        entry = CheckResult(identity, dict(params), bool(passed), None if passed else witness)
        self.entries.append(entry)
        return entry

    def add_equal(self, identity: str, params: dict, lhs, rhs) -> CheckResult:
        """Record the exact check lhs == rhs of two polynomials; a failure
        carries first_difference(lhs, rhs) as its witness."""
        passed = lhs == rhs
        return self.add(identity, params, passed, None if passed else first_difference(lhs, rhs))

    def extend(self, other: VerificationReport) -> VerificationReport:
        self.entries.extend(other.entries)
        return self

    @property
    def all_passed(self) -> bool:
        return all(entry.passed for entry in self.entries)

    def failures(self) -> list[CheckResult]:
        return [entry for entry in self.entries if not entry.passed]

    def to_json(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "checks": [entry.to_json() for entry in self.entries],
        }

    def summary_lines(self) -> list[str]:
        lines = [entry.summary() for entry in self.entries]
        passed = sum(entry.passed for entry in self.entries)
        verdict = "OK" if self.all_passed else "FAILED"
        lines.append(f"{verdict}: {passed}/{len(self.entries)} checks passed")
        return lines
