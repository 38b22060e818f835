import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from monappell import cli, fueter, operators, polynomials
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

    def counting(n, pk, k):
        calls.append(n)
        return original(n, pk, k)

    monkeypatch.setattr(fueter, "fueter_map", counting)
    code, _, _ = run_cli(capsys, ["fueter-compare", "--m", "3", "--k", "1", "--n-max", "2"])
    assert code == 0
    threshold, n_max = 2 * 1 + 3 - 1, 2
    assert sorted(calls) == list(range(threshold + n_max + 1))


def test_cli_runs_the_initial_term_checks_once(capsys, monkeypatch):
    """The P_k gated by InitialTermSpec.resolve() is not checked again by
    SequenceSpec or by the Fueter route."""
    calls = []
    original = operators.validate_initial_term

    def counting(p, k):
        calls.append(k)
        return original(p, k)

    monkeypatch.setattr(operators, "validate_initial_term", counting)
    code, _, _ = run_cli(capsys, ["fueter-compare", "--m", "3", "--k", "1", "--n-max", "1"])
    assert code == 0
    assert calls == [1]


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


def test_product_past_the_degree_limit_exits_two(capsys, monkeypatch):
    """A product whose degree reaches the limit stops the run with exit 2
    and names the limit; nothing is printed.  The limit is lowered here so
    that a small run reaches it."""
    monkeypatch.setattr(polynomials, "DEGREE_LIMIT", 4)
    code, out, err = run_cli(capsys, ["generate", "--m", "3", "--k", "1", "--n-max", "5"])
    assert (code, out) == (2, "")
    assert "not below the limit 4" in err


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


@pytest.mark.parametrize("command", ["generate", "verify"])
def test_unusable_output_dir_fails_before_printing(tmp_path, capsys, command):
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = [command, "--m", "2", "--k", "1", "--n-max", "1", "--output-dir", str(blocker / "sub")]
    code, out, err = run_cli(capsys, argv)
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: NotADirectoryError")


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
