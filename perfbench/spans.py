"""Outside-in spans around the public functions of each monappell module.

The tracer replaces a function wherever a monappell module has bound it
(``from .operators import dirac`` makes a second binding that patching
``operators.dirac`` alone would miss), and replaces methods on their
class.  Nothing under ``src/`` changes; ``uninstall`` puts every original
back, so untraced runs in the same process pay nothing.

``algebra.blade_product`` gets no span on purpose: it runs millions of
times per workload and a wrapper would mostly measure itself.  Its work
shows in the self time of ``polynomials.mul`` and ``operators.dirac``.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# span name -> "module:attribute path" of the wrapped callable
TARGETS = {
    "polynomials.mul": "monappell.polynomials:CliffordPolynomial.__mul__",
    "polynomials.add": "monappell.polynomials:CliffordPolynomial.__add__",
    "polynomials.scale": "monappell.polynomials:CliffordPolynomial.__rmul__",
    "polynomials.partial_derivative": "monappell.polynomials:CliffordPolynomial.partial_derivative",
    "polynomials.eq": "monappell.polynomials:CliffordPolynomial.__eq__",
    "polynomials.vector_power": "monappell.polynomials:vector_power",
    "polynomials.first_difference": "monappell.polynomials:first_difference",
    "polynomials.json_dump": "monappell.polynomials:CliffordPolynomial.to_json_dict",
    "polynomials.json_load": "monappell.polynomials:CliffordPolynomial.from_json_dict",
    "operators.dirac": "monappell.operators:dirac",
    "operators.laplacian": "monappell.operators:laplacian",
    "operators.cauchy_riemann": "monappell.operators:cauchy_riemann",
    "operators.conj_cauchy_riemann": "monappell.operators:conj_cauchy_riemann",
    "operators.require_initial_term": "monappell.operators:require_initial_term",
    "ck.ck_extend": "monappell.ck:ck_extend",
    "sequences.explicit": "monappell.sequences:sequence_term_explicit",
    "sequences.ck_route": "monappell.sequences:sequence_term_ck",
    "sequences.axial_decompose": "monappell.sequences:axial_decompose",
    "sequences.verify_sequence": "monappell.sequences:verify_sequence",
    "sequences.verify_axial": "monappell.sequences:verify_axial",
    "fueter.fueter_map": "monappell.fueter:fueter_map",
    "fueter.axial_embedding": "monappell.fueter:axial_embedding",
    "suites.leibniz_scalar": "monappell.suites:leibniz_scalar_suite",
    "suites.leibniz_vector": "monappell.suites:leibniz_vector_suite",
    "suites.power_rule": "monappell.suites:power_rule_suite",
    "suites.ck": "monappell.suites:ck_suite",
    "report.to_json": "monappell.report:VerificationReport.to_json",
    "report.summary_lines": "monappell.report:VerificationReport.summary_lines",
    "cli.main": "monappell.cli:main",
}
# Spans the benchmark opens itself rather than by wrapping.
HARNESS_SPANS = ("bench.round_trip",)
SPAN_NAMES = tuple(TARGETS) + HARNESS_SPANS

# Results of these spans are kept, keyed by the term index n (the positional
# argument at the given place), so term sizes are counted after the timed
# region.
CAPTURED = {"sequences.explicit": 1, "fueter.fueter_map": 0}


class Tracer:
    """Spans held in memory as [run_id, name, parent_index, start, end]."""

    def __init__(self):
        self.spans: list[list] = []
        self.run_id = 0
        self.outputs: dict[tuple[str, int], object] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        self.spans.append([self.run_id, name, parent, perf_counter(), 0.0])
        return index

    def _exit(self, index: int) -> None:
        self.spans[index][4] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._enter(name)
        try:
            yield
        finally:
            self._exit(index)

    def _wrap(self, name: str, fn):
        enter, leave = self._enter, self._exit
        capture_at = CAPTURED.get(name)
        outputs = self.outputs

        def traced(*args, **kwargs):
            index = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(index)
            if capture_at is not None:
                outputs[(name, args[capture_at])] = result
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target; a target that no longer exists is reported
        on stderr and its metrics read zero."""
        for name, target in TARGETS.items():
            module_name, path = target.split(":")
            owner = sys.modules.get(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                print(f"trace: {target} not found, span {name} reads zero", file=sys.stderr)
                continue
            if owner_path:
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                self._patch(owner, attr, raw, wrapped)
                continue
            wrapped = self._wrap(name, raw)
            for mod_name, module in list(sys.modules.items()):
                if mod_name == "monappell" or mod_name.startswith("monappell."):
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            self._patch(module, key, raw, wrapped)

    def _patch(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def aggregate(self, run_id: int) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s, and self_s (duration minus the time
        covered by its direct children; children never overlap because
        the program runs on one thread)."""
        covered: dict[int, float] = defaultdict(float)
        mine = [(i, s) for i, s in enumerate(self.spans) if s[0] == run_id]
        for _, (_, _, parent, start, end) in mine:
            if parent >= 0:
                covered[parent] += end - start
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
        for index, (_, name, _, start, end) in mine:
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - covered[index]
        return out

    def rows(self) -> list[list]:
        """Spans with their list index as span id, for writing out."""
        return [[i, *s] for i, s in enumerate(self.spans)]
