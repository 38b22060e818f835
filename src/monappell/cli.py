"""Command-line front end: generate sequences, verify the identities,
compare with the Fueter route, and validate user-supplied initial terms.

Exit status: 0 all checks pass, 1 verification failures, 2 usage errors,
3 internal errors, 141 (quietly) when the reader closes stdout early.
Output is deterministic for a fixed configuration and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monappell",
        description="Exact monogenic Appell-type sequences: generation and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
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

    gen = sub.add_parser("generate", help="emit terms 0..n_max")
    common(gen)
    gen.add_argument("--n-max", type=int, required=True)
    gen.add_argument("--format", choices=("summary", "json", "latex"), default="summary")
    gen.set_defaults(func=cmd_generate)

    ver = sub.add_parser("verify", help="run the full identity report")
    common(ver)
    ver.add_argument("--n-max", type=int, required=True)
    ver.add_argument("--seed", type=int, default=0, help="seed for the randomized suites")
    ver.add_argument("--cases", type=int, default=25, help="cases per randomized identity")
    ver.add_argument("--format", choices=("summary", "json"), default="summary")
    ver.set_defaults(func=cmd_verify)

    fue = sub.add_parser("fueter-compare", help="compare the Fueter route with the sequence")
    common(fue)
    fue.add_argument(
        "--n-max", type=int, default=4, help="extra monomial powers / matched terms"
    )
    fue.add_argument("--format", choices=("summary", "json"), default="summary")
    fue.set_defaults(func=cmd_fueter_compare)

    val = sub.add_parser("validate-pk", help="validate a JSON initial term")
    val.add_argument("--file", required=True)
    val.add_argument("--k", type=int, required=True)
    val.add_argument("--format", choices=("summary", "json"), default="summary")
    val.set_defaults(func=cmd_validate_pk)

    return parser


def json_text(value, pad: str = "") -> str:
    """json.dumps(value, indent=2), byte for byte, for dicts with str keys,
    lists, str, int, bool and None; any other leaf goes to json.dumps.

    The stdlib's C encoder is used only without indent, so an indented dump
    runs its pure-Python generators; here each container is one str.join, a
    list of exact ints one join, and a polynomial term entry one template.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = (f"{encode_basestring_ascii(k)}: {json_text(v, inner)}" for k, v in value.items())
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        exact_ints = set(map(type, value)) <= {int}  # no bool: its repr is not JSON
        items = map(int.__repr__, value) if exact_ints else _items(value, inner)
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    return json.dumps(value)


def _items(values, pad: str):
    """json_text(v, pad) for each v of values; a polynomial term entry (keys
    exactly "exps" and "coeff", this a non-empty list of dicts with keys exactly
    "blade" and "q") is written from a template, json_text writing its values."""
    p1, p2, p3 = pad + "  ", pad + "    ", pad + "      "
    entry = '{\n%s"exps": %%s,\n%s"coeff": [\n%s%%s\n%s]\n%s}' % (p1, p1, p2, p1, pad)
    coeff, sep = '{\n%s"blade": %%s,\n%s"q": %%s\n%s}' % (p3, p3, p2), ",\n" + p2
    for v in values:
        coeffs = v.get("coeff") if type(v) is dict and tuple(v) == ("exps", "coeff") else None
        if type(coeffs) is list and coeffs and all(
            type(c) is dict and tuple(c) == ("blade", "q") for c in coeffs
        ):
            texts = (coeff % (json_text(c["blade"], p3), json_text(c["q"], p3)) for c in coeffs)
            yield entry % (json_text(v["exps"], p1), sep.join(texts))
        else:
            yield json_text(v, pad)


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


def _output_dir(args) -> Path | None:
    target = args.output_dir or os.environ.get(ENV_OUTPUT_DIR)
    if target is None:
        return None
    path = Path(target)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _emit_report(report: VerificationReport, args, extra: dict | None = None) -> int:
    outdir = _output_dir(args) if hasattr(args, "output_dir") else None
    if args.format == "json" or outdir is not None:
        text = json_text({**(extra or {}), **report.to_json()})
    if args.format == "json":
        print(text)
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
    with _results_in_full():
        outdir = _output_dir(args)
        terms = generate_sequence(spec)
        if args.format == "json" or outdir is not None:
            dicts = [term.to_json_dict() for term in terms]
        if args.format == "json":
            payload = {
                "m": spec.m,
                "k": spec.k,
                "n_max": spec.n_max,
                "initial_term": spec.pk.to_json_dict(),
                "terms": dicts,
            }
            print(json_text(payload))
        elif args.format == "latex":
            for n in range(spec.n_max + 1):
                rendered = collected_term_latex(spec.m, spec.k, n, spec.pk)
                print(f"n={n}: {rendered}")
        else:
            for n, term in enumerate(terms):
                print(f"n={n}: {term}")
        if outdir is not None:
            for n, data in enumerate(dicts):
                (outdir / f"term_{n}.json").write_text(json_text(data) + "\n")
    return 0


def cmd_verify(args, parser) -> int:
    if args.cases < 1:
        parser.error("cases must be at least 1")
    spec = _resolve_spec(args, parser)
    with _results_in_full():
        terms = generate_sequence(spec)
        report = verify_sequence(spec, terms)
        report.extend(verify_axial(spec, terms))
        report.extend(run_identity_suites(spec.m, args.seed, args.cases))
        return _emit_report(report, args, extra={"seed": args.seed})


def cmd_fueter_compare(args, parser) -> int:
    if args.m % 2 == 0:
        parser.error("fueter-compare requires an odd dimension m")
    spec = _resolve_spec(args, parser)
    with _results_in_full():
        return _emit_report(fueter_compare(spec), args)


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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except MonappellError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # what is still buffered goes to devnull, not to a second error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
