import argparse
import io
import json
import os
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path

import pytest

from monappell import cli, fueter, operators, polynomials, sequences
from monappell.algebra import AlgebraContext
from monappell.cli import ENV_OUTPUT_DIR, main
from monappell.initial_terms import builtin_initial_term
from monappell.polynomials import CliffordPolynomial, unit_exps
from monappell.sequences import SequenceSpec, generate_sequence

CTX3 = AlgebraContext(3)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_latex(capsys):
    code, out, _ = run_cli(
        capsys, ["generate", "--m", "3", "--k", "0", "--n-max", "2", "--format", "latex"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == [
        "n=0: 1",
        r"n=1: x_0 + \frac{1}{3} \underline{x}",
        r"n=2: x_0^{2} + \frac{2}{3} x_0 \underline{x} + \frac{1}{3} \underline{x}^{2}",
    ]


def test_generate_latex_shows_a_constant_initial_term_other_than_one(capsys, tmp_path):
    path = tmp_path / "p0.json"
    p0 = {"m": 3, "terms": [{"exps": [0, 0, 0, 0], "coeff": [{"blade": [1], "q": "2"}]}]}
    path.write_text(json.dumps(p0))
    argv = ["generate", "--m", "3", "--k", "0", "--n-max", "2", "--pk", str(path)]
    code, out, _ = run_cli(capsys, argv + ["--format", "latex"])
    assert code == 0
    assert out.strip().splitlines() == [
        r"n=0: 2 e_{1}",
        r"n=1: \left(x_0 + \frac{1}{3} \underline{x}\right)\left(2 e_{1}\right)",
        r"n=2: \left(x_0^{2} + \frac{2}{3} x_0 \underline{x} + \frac{1}{3} \underline{x}^{2}\right)"
        r"\left(2 e_{1}\right)",
    ]


def test_latex_alone_builds_no_term(capsys, tmp_path, monkeypatch):
    """`generate --format latex` renders from (m, k, n, P_k): with a
    `generate_sequence` that raises it prints the same LaTeX, and only
    --output-dir, whose files hold the terms, builds them."""
    argv = ["generate", "--m", "3", "--k", "1", "--n-max", "2", "--format", "latex"]
    expected = run_cli(capsys, argv)

    def refused(spec):
        raise AssertionError("a term was built for the LaTeX output")

    monkeypatch.setattr(cli, "generate_sequence", refused)
    assert run_cli(capsys, argv) == expected and expected[0] == 0
    monkeypatch.undo()
    outdir = tmp_path / "terms"
    assert run_cli(capsys, [*argv, "--output-dir", str(outdir)]) == expected
    assert sorted(p.name for p in outdir.iterdir()) == ["term_0.json", "term_1.json", "term_2.json"]


def test_generate_json_round_trips(capsys):
    code, out, _ = run_cli(
        capsys, ["generate", "--m", "2", "--k", "1", "--n-max", "3", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["m"] == 2 and payload["k"] == 1
    decoded = [CliffordPolynomial.from_json_dict(term) for term in payload["terms"]]
    assert decoded == generate_sequence(SequenceSpec.builtin(2, 1, 3))


def test_verify_passes_and_prints_seed(capsys):
    code, out, _ = run_cli(
        capsys,
        ["verify", "--m", "2", "--k", "1", "--n-max", "3", "--seed", "5", "--cases", "5"],
    )
    assert code == 0
    assert out.startswith("seed: 5")
    assert "FAIL" not in out
    assert out.strip().endswith("checks passed")


def test_verify_json_format(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "verify", "--m", "3", "--k", "0", "--n-max", "2",
            "--cases", "3", "--format", "json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert payload["seed"] == 0
    assert any(check["identity"] == "vekua_system" for check in payload["checks"])


def test_cli_determinism(capsys):
    argv = ["verify", "--m", "2", "--k", "0", "--n-max", "2", "--seed", "9", "--cases", "4"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


def test_fueter_compare(capsys):
    code, out, _ = run_cli(capsys, ["fueter-compare", "--m", "3", "--k", "0", "--n-max", "2"])
    assert code == 0
    assert "fueter_vanishing" in out and "fueter_ck_identity" in out
    assert "lambda=-4/1" in out
    names = [line.split()[1] for line in out.splitlines() if line.startswith("PASS")]
    assert names == (
        ["fueter_vanishing"] * 2 + ["fueter_ck_identity"] * 3 + ["fueter_appell_match"] * 3
    )


def test_fueter_compare_builds_each_image_once(capsys, monkeypatch):
    calls = []
    original = fueter.fueter_map

    def counting(n, spec):
        calls.append(n)
        return original(n, spec)

    monkeypatch.setattr(fueter, "fueter_map", counting)
    code, _, _ = run_cli(capsys, ["fueter-compare", "--m", "3", "--k", "1", "--n-max", "2"])
    assert code == 0
    threshold, n_max = 2 * 1 + 3 - 1, 2
    assert sorted(calls) == list(range(threshold + n_max + 1))


def test_verify_forms_each_multiple_once(capsys, monkeypatch):
    """`verify` hands one dict of the x̲^i P_k to the CK route and to
    verify_axial, so each of i = 0..n_max is formed once for both."""
    calls = []
    original = sequences.vector_power

    def counting(ctx, i):
        calls.append(i)
        return original(ctx, i)

    monkeypatch.setattr(sequences, "vector_power", counting)
    code, _, _ = run_cli(capsys, ["verify", "--m", "3", "--k", "1", "--n-max", "4"])
    assert code == 0
    assert sorted(calls) == list(range(5))


def test_cli_runs_the_initial_term_checks_once(capsys, monkeypatch):
    """The P_k gated by the SequenceSpec built after InitialTermSpec.resolve()
    is not checked again by the Fueter route."""
    calls = []
    original = operators.validate_initial_term

    def counting(p, k):
        calls.append(k)
        return original(p, k)

    monkeypatch.setattr(operators, "validate_initial_term", counting)
    code, _, _ = run_cli(capsys, ["fueter-compare", "--m", "3", "--k", "1", "--n-max", "1"])
    assert code == 0
    assert calls == [1]


@pytest.mark.parametrize("command", ["generate", "verify", "fueter-compare"])
def test_a_non_monogenic_pk_file_is_a_usage_error(tmp_path, capsys, command):
    """x_1 e_1 fails the gate of the SequenceSpec that each command builds."""
    bad = CliffordPolynomial.monomial(CTX3, unit_exps(3, 1), CTX3.e(1))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad.to_json_dict()))
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--m", "3", "--k", "1", "--n-max", "1", "--pk", str(path)])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "initial term fails initial_term_dirac_kernel" in captured.err


def test_fueter_compare_rejects_even_dimension(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["fueter-compare", "--m", "4", "--k", "0"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("cases", [-1, 0])
def test_verify_rejects_negative_cases(capsys, cases):
    """A suite that draws no case checks nothing, so fewer than one case is
    a usage error rather than a run of vacuous PASS lines."""
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--m", "2", "--k", "1", "--n-max", "1", "--cases", str(cases)])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cases must be at least 1" in captured.err


def test_validate_pk_accepts_builtin(tmp_path, capsys):
    term = builtin_initial_term(CTX3, 2)
    path = tmp_path / "pk.json"
    path.write_text(json.dumps(term.to_json_dict()))
    code, out, _ = run_cli(capsys, ["validate-pk", "--file", str(path), "--k", "2"])
    assert code == 0
    assert "OK: 3/3" in out


def test_validate_pk_rejects_non_monogenic(tmp_path, capsys):
    bad = CliffordPolynomial.monomial(CTX3, unit_exps(3, 1), CTX3.e(1))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad.to_json_dict()))
    code, out, _ = run_cli(capsys, ["validate-pk", "--file", str(path), "--k", "1"])
    assert code == 1
    assert "FAIL initial_term_dirac_kernel" in out


def test_zero_initial_term_fails_both_commands(tmp_path, capsys):
    """validate-pk and generate --pk share one P_k gate: the zero polynomial
    fails validation (exit 1) and is a usage error as an initial term (exit 2)."""
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"m": 3, "terms": []}))
    code, out, _ = run_cli(capsys, ["validate-pk", "--file", str(path), "--k", "3"])
    assert code == 1
    assert out.splitlines() == [
        "PASS initial_term_x0_free [m=3, k=3]",
        "FAIL initial_term_homogeneous [m=3, k=3]  witness: the zero polynomial has no degree",
        "PASS initial_term_dirac_kernel [m=3, k=3]",
        "FAILED: 2/3 checks passed",
    ]
    with pytest.raises(SystemExit) as excinfo:
        main(["generate", "--m", "3", "--k", "3", "--n-max", "1", "--pk", str(path)])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "initial_term_homogeneous: the zero polynomial has no degree" in captured.err


def test_internal_error_names_the_exception_type(capsys, monkeypatch):
    def broken(args, parser):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(cli, "cmd_generate", broken)
    code, out, err = run_cli(capsys, ["generate", "--m", "3", "--k", "0", "--n-max", "1"])
    assert code == 3
    assert out == ""
    assert err == "internal error: TypeError: unsupported operand\n"


def _generate_into_a_closed_pipe(n_max: int) -> tuple[int, bytes]:
    """Run `generate --format json` (about 270 kB at n_max = 6) in a fresh
    interpreter whose reader takes 100 bytes and closes the pipe, as
    `| head -c 100` does; return the exit status and stderr."""
    src = Path(cli.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    argv = [sys.executable, "-m", "monappell", "generate", "--m", "5", "--k", "2"]
    argv += ["--n-max", str(n_max), "--format", "json"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        head = proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert len(head) == 100
    return code, err


def test_closed_stdout_pipe_exits_quietly_with_141():
    code, err = _generate_into_a_closed_pipe(6)
    assert (code, err) == (141, b"")


def test_closed_pipe_negative_control():
    """Output that fits the pipe buffer is written in full before the reader
    leaves, so nothing breaks and the run exits 0: the 141 above comes from
    the closed pipe, not from the command."""
    code, err = _generate_into_a_closed_pipe(0)
    assert (code, err) == (0, b"")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
def test_a_closed_pipe_leaves_no_descriptor_open(monkeypatch):
    """The exit through BrokenPipeError points stdout at devnull and closes
    the descriptor it opened for that, so repeated calls in one process
    hold no more descriptors than before."""

    def closed_pipe(args, parser):
        raise BrokenPipeError

    monkeypatch.setattr(cli, "cmd_generate", closed_pipe)
    read_end, write_end = os.pipe()
    try:
        with open(write_end, "w") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            before = len(os.listdir("/proc/self/fd"))
            for _ in range(2):
                assert main(["generate", "--m", "3", "--k", "1", "--n-max", "1"]) == 141
            assert len(os.listdir("/proc/self/fd")) == before
    finally:
        os.close(read_end)


class _CountingStdout(io.StringIO):
    """A stdout that counts its write calls."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--m", "5", "--k", "2", "--n-max", "2"],
        ["verify", "--m", "3", "--k", "1", "--n-max", "2", "--cases", "1"],
        ["fueter-compare", "--m", "3", "--k", "1", "--n-max", "1"],
    ],
)
def test_each_json_document_is_one_stdout_write(monkeypatch, argv):
    """A JSON document and its closing newline go out in one write, so a
    reader that leaves between two writes of unbuffered stdout cannot break
    a document that fits the pipe buffer.  The bytes are the indented dump."""
    out = _CountingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(argv + ["--format", "json"]) == 0
    text = out.getvalue()
    assert out.writes == 1 and text == json.dumps(json.loads(text), indent=2) + "\n"


class _ShortWrites(io.RawIOBase):
    """A raw stdout that takes at most 1000 bytes per write, as a pipe may."""

    def __init__(self):
        self.chunks = []

    def writable(self):
        return True

    def write(self, data):
        self.chunks.append(bytes(data[:1000]))
        return len(self.chunks[-1])


def test_unbuffered_stdout_gets_the_whole_document(monkeypatch):
    """Under unbuffered stdout, a raw file behind a write-through text layer,
    the text layer keeps only the first short write of a document; the CLI
    writes the rest too."""
    dropped = _ShortWrites()
    io.TextIOWrapper(dropped, write_through=True).write("x" * 2500)
    assert b"".join(dropped.chunks) == b"x" * 1000  # the premise: the text layer drops the rest
    raw = _ShortWrites()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, write_through=True))
    assert main(["generate", "--m", "5", "--k", "2", "--n-max", "2", "--format", "json"]) == 0
    text = b"".join(raw.chunks).decode()
    assert len(raw.chunks) > 1 and text == json.dumps(json.loads(text), indent=2) + "\n"


@pytest.mark.parametrize(
    "argv, command",
    [
        (["verify", "--m", "3", "--k", "1", "--n-max", "1", "--cases", "0"], "verify"),
        (["generate", "--m", "1", "--k", "1", "--n-max", "1"], "generate"),
        (["fueter-compare", "--m", "4", "--k", "1"], "fueter-compare"),
        (["validate-pk", "--file", "pk.json", "--k", "-1"], "validate-pk"),
    ],
)
def test_a_usage_error_prints_the_subcommand_usage(capsys, argv, command):
    """A usage error found after parsing (the --cases, spec, odd-m and k
    checks) prints the failing subcommand's usage line and exits 2."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert capsys.readouterr().err.startswith(f"usage: monappell {command} [-h]")


def test_product_past_the_degree_limit_exits_two(capsys, monkeypatch):
    """A product whose degree reaches the limit stops the run with exit 2
    and names the limit; nothing is printed.  The limit is lowered here so
    that a small run reaches it."""
    monkeypatch.setattr(polynomials, "DEGREE_LIMIT", 4)
    code, out, err = run_cli(capsys, ["generate", "--m", "3", "--k", "1", "--n-max", "5"])
    assert (code, out) == (2, "")
    assert "not below the limit 4" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["generate", "--m", "2", "--k", "1", "--n-max", "70000"], "last term degree 70001"),
        (["fueter-compare", "--m", "3", "--k", "1", "--n-max", "70000"], "last term degree 70001"),
        (["generate", "--m", "2", "--k", "65536", "--n-max", "0"], "initial term degree 65536"),
    ],
)
def test_a_term_past_the_degree_limit_exits_two_before_any_product(
    capsys, no_large_products, argv, message
):
    """A term whose degree k + n (or k alone) reaches the limit is a usage
    error found before any product: exit 2, nothing on stdout, and the
    limit named.  Products and generator powers past degree 1 fail here, so
    a request that went on to build its terms would end in exit 3 at once."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    out, err = capsys.readouterr()
    assert (excinfo.value.code, out) == (2, "")
    assert f"{message} is not below the limit 65536" in err


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as excinfo:
        main(["generate", "--m", "3"])  # missing required flags
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["no-such-command"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["generate", "--m", "1", "--k", "1", "--n-max", "1"])  # no builtin term
    assert excinfo.value.code == 2


def _full_tree_parser(name):
    """The subparser that build_parser() makes for one command."""
    (commands,) = [
        action
        for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return commands.choices[name]


def assert_same_parser(name, parser):
    """parser prints the usage and help of the full tree's subparser for
    name; a difference names the first line that differs."""
    full = _full_tree_parser(name)
    for render in ("format_usage", "format_help"):
        lines = zip_longest(
            getattr(parser, render)().splitlines(), getattr(full, render)().splitlines()
        )
        for number, (ours, theirs) in enumerate(lines):
            assert ours == theirs, f"{name} {render} line {number}: {ours!r} != {theirs!r}"


@pytest.mark.parametrize("name", ["generate", "verify", "fueter-compare", "validate-pk"])
def test_one_command_parser_matches_the_full_tree(name):
    assert_same_parser(name, cli._command_parser(name))


def test_parser_parity_negative_control():
    """A one-command parser with the top-level prog prints another usage
    line, and the check names it."""
    parser = argparse.ArgumentParser(prog="monappell")
    cli._COMMANDS["verify"][1](parser)
    expected = r"verify format_usage line 0: 'usage: monappell \[-h\] --m M"
    with pytest.raises(AssertionError, match=expected):
        assert_same_parser("verify", parser)


def _show_parse(args, parser):
    """A command that prints what the parse gave it and returns 0.  The
    full tree also records the command's name, which nothing reads."""
    shown = sorted(
        (key, value)
        for key, value in vars(args).items()
        if key not in ("func", "parser", "command")
    )
    print(shown, parser.format_usage())
    return 0


def _parse_outcome(capsys, parse):
    """(exit code, stdout, stderr) of one parse and the command it picks."""
    try:
        code = parse()
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _full_tree_parse(argv):
    args = cli.build_parser().parse_args(argv)
    return args.func(args, args.parser)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--m", "3", "--k", "1", "--n-max", "2", "--cases", "3", "--format", "json"],
        ["validate-pk", "--file", "pk.json", "--k", "2"],
        ["fueter-compare", "--m", "3", "-h"],
        ["--he"],
        ["generate", "--he"],
        ["generate", "--m", "3"],
        ["verify", "--m", "x", "--k", "1", "--n-max", "1"],
        ["fueter-compare", "--m", "3", "--k", "1", "--format", "nope"],
        ["verify", "--m", "3", "--k", "1", "--n-max", "1", "--bogus"],
        ["generate", "--m", "3", "--k", "1", "--n-max", "1", "stray"],
        ["no-such-command"],
        [],
        ["--help"],
    ],
)
def test_main_parses_as_the_full_tree(capsys, monkeypatch, argv):
    """Whether main builds one command's parser or the full tree, a call
    gives the exit code, stdout and stderr that the full tree's parse does,
    and the command receives the same arguments and usage line."""
    for name in ("cmd_generate", "cmd_verify", "cmd_fueter_compare", "cmd_validate_pk"):
        monkeypatch.setattr(cli, name, _show_parse)
    expected = _parse_outcome(capsys, lambda: _full_tree_parse(argv))
    assert _parse_outcome(capsys, lambda: main(argv)) == expected


def test_a_command_call_builds_no_parser_tree(capsys, monkeypatch):
    """A call that names a command and passes only its arguments is parsed
    without the full tree; a stray argument still reaches it."""

    def no_tree():
        raise AssertionError("the full parser tree was built")

    monkeypatch.setattr(cli, "cmd_verify", _show_parse)
    monkeypatch.setattr(cli, "build_parser", no_tree)
    assert main(["verify", "--m", "3", "--k", "1", "--n-max", "1"]) == 0
    with pytest.raises(AssertionError, match="full parser tree"):
        main(["verify", "--m", "3", "--k", "1", "--n-max", "1", "--bogus"])


def test_output_dir_writes_terms(tmp_path, capsys):
    outdir = tmp_path / "artifacts"
    code, _, _ = run_cli(
        capsys,
        [
            "generate", "--m", "2", "--k", "0", "--n-max", "2",
            "--output-dir", str(outdir),
        ],
    )
    assert code == 0
    files = sorted(p.name for p in outdir.iterdir())
    assert files == ["term_0.json", "term_1.json", "term_2.json"]
    decoded = CliffordPolynomial.from_json_dict(
        json.loads((outdir / "term_2.json").read_text())
    )
    assert decoded == generate_sequence(SequenceSpec.builtin(2, 0, 2))[2]


def test_generate_writes_json_without_the_dict_form(tmp_path, capsys, monkeypatch):
    """The CLI writes every polynomial with to_json_text, never through
    to_json_dict, and the text is still the stdlib's indented dump."""

    def refused(self):
        raise AssertionError("the CLI built a to_json_dict() tree")

    monkeypatch.setattr(CliffordPolynomial, "to_json_dict", refused)
    expected = generate_sequence(SequenceSpec.builtin(3, 1, 3))
    argv = ["generate", "--m", "3", "--k", "1", "--n-max", "3"]
    code, out, _ = run_cli(capsys, [*argv, "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert out == json.dumps(payload, indent=2) + "\n"
    assert [CliffordPolynomial.from_json_dict(t) for t in payload["terms"]] == expected
    outdir = tmp_path / "terms"
    code, _, _ = run_cli(capsys, [*argv, "--format", "latex", "--output-dir", str(outdir)])
    assert code == 0
    for n, term in enumerate(expected):
        text = (outdir / f"term_{n}.json").read_text()
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
        assert CliffordPolynomial.from_json_dict(json.loads(text)) == term


@pytest.mark.parametrize("command", ["generate", "verify", "fueter-compare"])
def test_unusable_output_dir_fails_before_printing(tmp_path, capsys, monkeypatch, command):
    """A path under a regular file is a usage error (exit 2) raised before
    any work, whether it comes from --output-dir or from the environment."""

    def work(*args):
        raise AssertionError("work ran before the output directory was made")

    for name in ("generate_sequence", "fueter_compare"):
        monkeypatch.setattr(cli, name, work)
    blocker = tmp_path / "file"
    blocker.write_text("")
    target = str(blocker / "sub")
    argv = [command, "--m", "3", "--k", "1", "--n-max", "1"]
    monkeypatch.delenv(ENV_OUTPUT_DIR, raising=False)
    for route in (["--output-dir", target], []):  # the option, then the environment
        with pytest.raises(SystemExit) as excinfo:
            main(argv + route)
        captured = capsys.readouterr()
        assert excinfo.value.code == 2
        assert captured.out == ""
        assert f"cannot use output directory {target}: Not a directory" in captured.err
        monkeypatch.setenv(ENV_OUTPUT_DIR, target)


def test_output_dir_from_environment(tmp_path, capsys, monkeypatch):
    outdir = tmp_path / "env_artifacts"
    monkeypatch.setenv(ENV_OUTPUT_DIR, str(outdir))
    code, _, _ = run_cli(
        capsys,
        ["verify", "--m", "2", "--k", "0", "--n-max", "1", "--cases", "2"],
    )
    assert code == 0
    report = json.loads((outdir / "report.json").read_text())
    assert report["all_passed"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--m", "2", "--k", "0", "--n-max", "1", "--cases", "1"],
        ["generate", "--m", "2", "--k", "1", "--n-max", "2"],
    ],
)
def test_an_empty_output_dir_variable_is_unset(tmp_path, capsys, monkeypatch, argv):
    """MONAPPELL_OUTPUT_DIR set to "" writes no artifact (Path("") is the
    working directory) and prints what an unset variable does."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(ENV_OUTPUT_DIR, raising=False)
    unset = run_cli(capsys, argv)
    monkeypatch.setenv(ENV_OUTPUT_DIR, "")
    assert run_cli(capsys, argv) == unset
    assert list(tmp_path.iterdir()) == []


def _corrupt_pk(tmp_path, example):
    """The built-in degree-1 term for m=3 as JSON, with one field replaced."""
    data = builtin_initial_term(CTX3, 1).to_json_dict()
    if example == "q":
        data["terms"][0]["coeff"][0]["q"] = 0.1
    elif example == "exps":
        data["terms"][0]["exps"] = [0, 1.7, 0, 0]
    else:
        data["m"] = {"m_float": 2.9, "m_bool": True}[example]
    path = tmp_path / "pk.json"
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize(
    "example, field", [("q", '"q"'), ("exps", '"exps"'), ("m_float", '"m"'), ("m_bool", '"m"')]
)
def test_inexact_json_input_is_a_usage_error(tmp_path, capsys, example, field):
    path = _corrupt_pk(tmp_path, example)
    commands = (
        ["validate-pk", "--file", str(path), "--k", "1"],
        ["generate", "--m", "3", "--k", "1", "--n-max", "1", "--pk", str(path)],
    )
    for argv in commands:
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert field in capsys.readouterr().err


def test_blade_indices_out_of_order_are_a_usage_error(tmp_path, capsys):
    """e_2 e_1 is -e_12, so a file that writes the blade [2, 1] is refused,
    not read as +e_12."""
    data = builtin_initial_term(CTX3, 1).to_json_dict()
    (entry,) = (c for term in data["terms"] for c in term["coeff"] if c["blade"] == [1, 2])
    entry["blade"] = [2, 1]
    path = tmp_path / "pk.json"
    path.write_text(json.dumps(data))
    commands = (
        ["validate-pk", "--file", str(path), "--k", "1"],
        ["generate", "--m", "3", "--k", "1", "--n-max", "1", "--pk", str(path)],
    )
    for argv in commands:
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert '"blade" indices must be strictly increasing, got [2, 1]' in capsys.readouterr().err


def _misshapen_pk(example):
    """The built-in degree-1 term for m=3 as JSON, with one field of the wrong shape."""
    data = builtin_initial_term(CTX3, 1).to_json_dict()
    term = data["terms"][0]
    if example == "top level":
        return [1, 2]
    if example == '"terms"':
        return {"m": 3, "terms": 5}
    if example == '"blade"':
        term["coeff"][0]["blade"] = 3
    elif example == '"coeff"':
        term["coeff"] = 7
    elif example == '"exps"':
        term["exps"] = 5
    elif example == '"terms" entry':
        data["terms"][0] = 5
    elif example == 'missing field "terms"':
        return {"m": 3}
    elif example == 'missing field "coeff"':
        del term["coeff"]
    elif example == 'missing field "q"':
        del term["coeff"][0]["q"]
    else:
        term["coeff"][0] = "1/1"
    return data


@pytest.mark.parametrize(
    "field",
    [
        "top level", '"terms"', '"blade"', '"coeff"', '"exps"', '"terms" entry', '"coeff" entry',
        'missing field "terms"', 'missing field "coeff"', 'missing field "q"',
    ],
)
def test_misshapen_json_input_is_a_usage_error(tmp_path, capsys, field):
    path = tmp_path / "pk.json"
    path.write_text(json.dumps(_misshapen_pk(field)))
    with pytest.raises(SystemExit) as excinfo:
        main(["validate-pk", "--file", str(path), "--k", "1"])
    assert excinfo.value.code == 2
    assert field in capsys.readouterr().err
