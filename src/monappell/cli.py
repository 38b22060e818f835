"""Command-line front end: generate sequences, verify the identities,
compare with the Fueter route, and validate user-supplied initial terms.

A call builds only the parser of the command it runs.  The full parser
tree (``build_parser``) serves top-level help and every error that one
command's parser cannot word, such as an unknown command or a stray
argument, so output is the same whichever parser a call went through.

Exit status: 0 all checks pass, 1 verification failures, 2 usage errors,
3 internal errors, 141 (quietly) when the reader closes stdout early.
Output is deterministic for a fixed configuration and seed.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from .errors import MonappellError
from .fueter import fueter_compare
from .initial_terms import (
    BUILTIN_SOURCE,
    InitialTermSpec,
    load_initial_term,
    validate_initial_term,
)
from .latex import collected_term_latex
from .report import VerificationReport
from .sequences import SequenceSpec, generate_sequence, verify_axial, verify_sequence
from .suites import run_identity_suites

ENV_OUTPUT_DIR = "MONAPPELL_OUTPUT_DIR"


def _common(p):
    p.add_argument("--m", type=int, required=True, help="dimension m (generators)")
    p.add_argument("--k", type=int, required=True, help="degree of the initial term")
    p.add_argument(
        "--pk",
        default=BUILTIN_SOURCE,
        help="initial term: 'builtin' or a path to a JSON polynomial",
    )
    p.add_argument(
        "--output-dir",
        default=None,
        help=f"directory for JSON artifacts (default: ${ENV_OUTPUT_DIR})",
    )


def _add_generate(p):
    _common(p)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--format", choices=("summary", "json", "latex"), default="summary")
    p.set_defaults(func=cmd_generate, parser=p)


def _add_verify(p):
    _common(p)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--seed", type=int, default=0, help="seed for the randomized suites")
    p.add_argument("--cases", type=int, default=25, help="cases per randomized identity")
    p.add_argument("--format", choices=("summary", "json"), default="summary")
    p.set_defaults(func=cmd_verify, parser=p)


def _add_fueter_compare(p):
    _common(p)
    p.add_argument("--n-max", type=int, default=4, help="extra monomial powers / matched terms")
    p.add_argument("--format", choices=("summary", "json"), default="summary")
    p.set_defaults(func=cmd_fueter_compare, parser=p)


def _add_validate_pk(p):
    p.add_argument("--file", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--format", choices=("summary", "json"), default="summary")
    p.set_defaults(func=cmd_validate_pk, parser=p)


# name -> (help line, the function that adds the command's arguments and
# its func/parser defaults), in the order the top-level help lists them
_COMMANDS = {
    "generate": ("emit terms 0..n_max", _add_generate),
    "verify": ("run the full identity report", _add_verify),
    "fueter-compare": ("compare the Fueter route with the sequence", _add_fueter_compare),
    "validate-pk": ("validate a JSON initial term", _add_validate_pk),
}


def build_parser() -> argparse.ArgumentParser:
    """The full parser tree: the one source of top-level help and of the
    errors that no single command's parser gives."""
    parser = argparse.ArgumentParser(
        prog="monappell",
        description="Exact monogenic Appell-type sequences: generation and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments) in _COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_line))
    return parser


def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one command, built alone: the same parser that
    ``build_parser()`` makes for it, since ``add_parser(name)`` passes
    nothing but the prog "monappell {name}"."""
    parser = argparse.ArgumentParser(prog=f"monappell {name}")
    _COMMANDS[name][1](parser)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse argv with only the parser of the command it names, to which the
    full tree would hand every token after the name.  No command, an unknown
    one, a top-level option or tokens the command does not take go through
    ``build_parser()``, which words the help and the error."""
    if argv and argv[0] in _COMMANDS:
        args, extras = _command_parser(argv[0]).parse_known_args(argv[1:])
        if not extras:
            return args
    return build_parser().parse_args(argv)


@contextmanager
def _results_in_full():
    """Lift CPython's limit on int <-> str conversions (4300 digits from
    3.10.7 on) while results are computed and printed.  Input is read
    before, under the limit, so a longer number in a file is a usage error;
    only results built from accepted numbers can pass the limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _resolve_spec(args, parser) -> SequenceSpec:
    try:
        pk = InitialTermSpec(m=args.m, k=args.k, source=args.pk).resolve()
        return SequenceSpec(m=args.m, k=args.k, pk=pk, n_max=args.n_max)
    except (MonappellError, ValueError, OSError) as exc:
        parser.error(str(exc))


def _output_dir(args, parser) -> Path | None:
    """The output directory, made before any work; a path that cannot be one is a usage error."""
    target = args.output_dir or os.environ.get(ENV_OUTPUT_DIR) or None  # "" is unset
    if target is None:
        return None
    path = Path(target)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        parser.error(f"cannot use output directory {target}: {exc.strerror}")
    return path


def _write_document(text: str) -> None:
    """Write text and its closing newline to stdout in one write, so a
    reader that leaves mid-way cannot fall between the document and the
    newline.  Unbuffered stdout (python -u, PYTHONUNBUFFERED) is a raw file
    whose writes to a pipe may be short, and its text layer drops the rest
    without an error; there the bytes go out in a loop until all are written
    or the closed pipe raises BrokenPipeError."""
    data = text + "\n"
    raw = getattr(sys.stdout, "buffer", None)
    if not isinstance(raw, io.RawIOBase):
        sys.stdout.write(data)
        return
    sys.stdout.flush()
    data = data.replace("\n", os.linesep)  # the text layer's newline translation
    view = memoryview(data.encode(sys.stdout.encoding, sys.stdout.errors))
    while view:
        view = view[raw.write(view) :]


def _emit_report(report: VerificationReport, args, outdir=None, extra: dict | None = None) -> int:
    if args.format == "json" or outdir is not None:
        text = json.dumps({**(extra or {}), **report.to_json()}, indent=2)
    if args.format == "json":
        _write_document(text)
    else:
        for key, value in (extra or {}).items():
            print(f"{key}: {value}")
        for line in report.summary_lines():
            print(line)
    if outdir is not None:
        (outdir / "report.json").write_text(text + "\n")
    return 0 if report.all_passed else 1


def cmd_generate(args, parser) -> int:
    spec = _resolve_spec(args, parser)
    outdir = _output_dir(args, parser)
    with _results_in_full():
        # LaTeX is rendered from (m, k, n, P_k); only the other writers read terms
        terms = generate_sequence(spec) if args.format != "latex" or outdir is not None else []
        if args.format == "json":
            texts = ",\n    ".join(term.to_json_text("    ") for term in terms)
            _write_document(
                f'{{\n  "m": {spec.m},\n  "k": {spec.k},\n  "n_max": {spec.n_max},\n'
                f'  "initial_term": {spec.pk.to_json_text("  ")},\n'
                f'  "terms": [\n    {texts}\n  ]\n}}'
            )
        elif args.format == "latex":
            for n in range(spec.n_max + 1):
                rendered = collected_term_latex(spec.m, spec.k, n, spec.pk)
                print(f"n={n}: {rendered}")
        else:
            for n, term in enumerate(terms):
                print(f"n={n}: {term}")
        if outdir is not None:
            for n, term in enumerate(terms):
                (outdir / f"term_{n}.json").write_text(term.to_json_text() + "\n")
    return 0


def cmd_verify(args, parser) -> int:
    if args.cases < 1:
        parser.error("cases must be at least 1")
    spec = _resolve_spec(args, parser)
    outdir = _output_dir(args, parser)
    with _results_in_full():
        terms = generate_sequence(spec)
        report = verify_sequence(spec, terms)  # both reports read the spec's x̲^i P_k
        report.extend(verify_axial(spec, terms))
        report.extend(run_identity_suites(spec.m, args.seed, args.cases))
        return _emit_report(report, args, outdir, extra={"seed": args.seed})


def cmd_fueter_compare(args, parser) -> int:
    if args.m % 2 == 0:
        parser.error("fueter-compare requires an odd dimension m")
    spec = _resolve_spec(args, parser)
    outdir = _output_dir(args, parser)
    with _results_in_full():
        return _emit_report(fueter_compare(spec), args, outdir)


def cmd_validate_pk(args, parser) -> int:
    if args.k < 0:
        parser.error("k must be non-negative")
    try:
        candidate = load_initial_term(args.file)
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read initial term: {exc}")
    with _results_in_full():
        return _emit_report(validate_initial_term(candidate, args.k), args)


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args, args.parser)  # the subcommand's parser, for its usage line
    except MonappellError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # what is still buffered goes to devnull, not to a second error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
