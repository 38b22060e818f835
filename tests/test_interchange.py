"""The JSON boundary: `CliffordPolynomial.to_json_text` against the stdlib
encoder, the JSON output of every command, and the interchange reader under
malformed and extreme input."""

import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from monappell.algebra import AlgebraContext, Multivector, indices_to_mask
from monappell.cli import main
from monappell.initial_terms import builtin_initial_term
from monappell.polynomials import DEGREE_LIMIT, CliffordPolynomial, key_layout

from strategies import polynomials_any_dimension

CTX3 = AlgebraContext(3)

texts = st.text(
    st.characters(blacklist_categories=()) | st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é€😀')
)

# -- to_json_text is json.dumps(..., indent=2) of the to_json_dict() payload --

CTX10 = AlgebraContext(10)
# x_0 (1 + 2/3 e_1 e_10 - e_2) + x_10^2 e_3: a scalar blade, a two-digit index
MULTI_BLADE = CliffordPolynomial(
    CTX10,
    {
        (1,) + (0,) * 10: Multivector(CTX10, {0: 1, 0b1000000001: Fraction(2, 3), 0b10: -1}),
        (0,) * 10 + (2,): CTX10.e(3),
    },
)


@given(polynomials_any_dimension(tuple(range(1, 11))), st.sampled_from(["", "  ", "    "]))
@example(MULTI_BLADE, "")
@example(MULTI_BLADE, "    ")
@example(CliffordPolynomial.zero(CTX3), "")
@example(CliffordPolynomial.zero(CTX3), "  ")
def test_polynomial_entries_round_trip_and_match_the_stdlib(p, pad):
    """to_json_text writes p from templates; the output is still
    json.dumps(..., indent=2), re-indented as a value nested at depth pad, it
    reads back to p, and its entries follow one sort of every key by
    `KeyLayout.sort_key`."""
    data = p.to_json_dict()
    assert p.to_json_text(pad) == json.dumps(data, indent=2).replace("\n", "\n" + pad)
    assert CliffordPolynomial.from_json_dict(data) == p
    layout = key_layout(p.context.m)
    oracle = [layout.decode(key) for key in sorted(p.numerators, key=layout.sort_key)]
    written = [
        (tuple(term["exps"]), indices_to_mask(entry["blade"], p.context.m))
        for term in data["terms"]
        for entry in term["coeff"]
    ]
    assert written == oracle


def _cli_output(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _assert_indented_json(text):
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_every_json_output_is_stdlib_indented(tmp_path):
    runs = {
        "generate": ["generate", "--m", "3", "--k", "2", "--n-max", "2", "--format", "json"],
        "verify": [
            "verify", "--m", "2", "--k", "1", "--n-max", "2", "--cases", "2", "--format", "json",
        ],
        "fueter": ["fueter-compare", "--m", "3", "--k", "1", "--n-max", "1", "--format", "json"],
    }
    for name, argv in runs.items():
        outdir = tmp_path / name
        code, out = _cli_output(argv + ["--output-dir", str(outdir)])
        assert code == 0
        _assert_indented_json(out)
        for artifact in outdir.iterdir():
            _assert_indented_json(artifact.read_text())
    assert sorted(p.name for p in (tmp_path / "generate").iterdir()) == [
        "term_0.json", "term_1.json", "term_2.json",
    ]
    for name in ("verify", "fueter"):
        assert [p.name for p in (tmp_path / name).iterdir()] == ["report.json"]


# -- the interchange reader under malformed and extreme input -----------------


def _run_on_file(argv, content):
    """Exit code of main with the file argument replaced by a file holding
    content (str or bytes); argparse usage errors count as their exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pk.json"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
        argv = [str(path) if a == "FILE" else a for a in argv]
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    return code, err.getvalue()


def _readers(k):
    return (
        ["validate-pk", "--file", "FILE", "--k", str(k)],
        ["generate", "--m", "3", "--k", str(k), "--n-max", "1", "--pk", "FILE"],
    )


def _assert_never_internal(content, k=1):
    for argv in _readers(k):
        code, err = _run_on_file(argv, content)
        assert code in (0, 1, 2), err
        assert "internal error" not in err


# BIG stands for a 5000-digit integer, past CPython's default limit of 4300
# digits for int <-> str, spliced into the text after json.dumps: the string
# "BIG" becomes a JSON integer, and BIG inside a longer string those digits.
BIG, BIG_DIGITS = "BIG", "1" + "0" * 5000


def _spliced(document) -> str:
    return json.dumps(document).replace(f'"{BIG}"', BIG_DIGITS).replace(BIG, BIG_DIGITS)


extreme_ints = st.integers(-3, 20) | st.integers() | st.sampled_from([10**40, -(10**40), BIG])
anything = st.recursive(
    st.none() | st.booleans() | extreme_ints | st.floats() | texts,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(texts, children, max_size=3),
    max_leaves=8,
)


def mostly(valid, other):
    """valid three times in four, else other."""
    return st.integers(0, 3).flatmap(lambda i: valid if i else other)


blades = mostly(
    st.lists(st.integers(1, 3), unique=True, max_size=3),
    st.lists(st.integers(-1, 4) | st.booleans() | extreme_ints, max_size=3) | anything,
)
exps_lists = mostly(
    st.lists(st.integers(0, 2), min_size=4, max_size=4),
    st.lists(extreme_ints | st.booleans(), max_size=6) | anything,
)
rational_texts = mostly(
    st.builds("{}/{}".format, st.integers(-5, 5), st.integers(1, 6)),
    st.builds("{}/{}".format, extreme_ints, extreme_ints)
    | st.builds(str, extreme_ints)
    | texts
    | anything,
)
entries = mostly(st.fixed_dictionaries({"blade": blades, "q": rational_texts}), anything)
terms = mostly(
    st.fixed_dictionaries({"exps": exps_lists, "coeff": st.lists(entries, max_size=3)}), anything
)
documents = st.fixed_dictionaries(
    {"m": mostly(st.just(3), anything), "terms": st.lists(terms, max_size=3)}
)


@given(documents, st.integers(0, 2))
def test_fuzzed_interchange_documents_never_crash(document, k):
    _assert_never_internal(_spliced(document), k)


@given(st.text(max_size=40) | st.binary(max_size=40))
def test_fuzzed_interchange_bytes_never_crash(content):
    _assert_never_internal(content)


def _pk_text(edit):
    """The built-in degree-1 term for m=3 as JSON text, after edit(data)."""
    data = builtin_initial_term(CTX3, 1).to_json_dict()
    edit(data)
    return _spliced(data)


def _set(path, value):
    def edit(data):
        *head, last = path
        target = data
        for key in head:
            target = target[key]
        target[last] = value

    return edit


@pytest.mark.parametrize(
    "content, message",
    [
        (_pk_text(_set(("terms", 0, "exps"), [0, True, 0, 0])), "got True"),
        (_pk_text(_set(("terms", 0, "exps"), [0, -1, 2, 0])), "is not 4 non-negative"),
        (_pk_text(_set(("terms", 0, "exps"), [0, 1, 0])), "is not 4 non-negative"),
        (_pk_text(_set(("terms", 0, "coeff", 0, "blade"), [True])), "got True"),
        (_pk_text(_set(("terms", 1, "coeff", 0, "blade"), [True, 2])), "got True"),
        ("[" * 100_000 + "]" * 100_000, "nested too deeply"),
        ('{"m": 3, "terms": ' + "[" * 100_000 + "]" * 100_000 + "}", "nested too deeply"),
        ('{"m": 3, "terms": [{"coeff": [], "exps": ' + "[" * 500 + "]" * 500 + "}]}", '"exps"'),
        (_pk_text(_set(("terms", 0, "exps"), [0, BIG, 0, 0])), "4300 digits"),
        (_pk_text(_set(("terms", 0, "coeff", 0, "q"), f"{BIG}/3")), "4300 digits"),
        (_pk_text(_set(("terms", 0, "exps"), [0, DEGREE_LIMIT, 0, 0])), f"limit {DEGREE_LIMIT}"),
        (_pk_text(_set(("terms", 0, "exps"), [0, DEGREE_LIMIT - 1, 1, 0])), f"limit {DEGREE_LIMIT}"),
    ],
    ids=[
        "exps-bool", "exps-negative", "exps-short", "blade-bool", "blade-bool-pair",
        "deep-top-level", "deep-terms", "nested-exps", "exps-5000-digits", "q-5000-digits",
        "exps-degree-limit", "exps-degree-limit-split",
    ],
)
def test_extreme_interchange_input_is_a_usage_error(content, message):
    for argv in _readers(1):
        code, err = _run_on_file(argv, content)
        assert code == 2
        assert message in err


def test_long_rejected_values_are_cut_short():
    """A rejection message shows the start of the offending value, not all
    of it: a 3000-entry "exps" list gives a short line naming the field."""
    content = _pk_text(_set(("terms", 0, "exps"), list(range(3000))))
    for argv in _readers(1):
        code, err = _run_on_file(argv, content)
        assert code == 2
        assert '"exps" [0, 1, 2,' in err and "is not 4 non-negative integers" in err
        assert len(err.encode()) < 400


def test_results_past_the_digit_limit_are_printed(tmp_path):
    """Coefficients 1/a and 1/b with 2501-digit a, b = 10^2500 + 1, + 3 are
    read under CPython's 4300-digit int <-> str limit; the Dirac witness
    -(a+b)/(ab) has the 5001-digit denominator 10^5000 + 4*10^2500 + 3 and
    is printed in full, and the limit is back in force afterwards."""
    a, b = 10**2500 + 1, 10**2500 + 3
    terms = [
        {"exps": [0, 1, 0, 0], "coeff": [{"blade": [1], "q": f"1/{a}"}]},
        {"exps": [0, 0, 1, 0], "coeff": [{"blade": [2], "q": f"1/{b}"}]},
    ]
    path = tmp_path / "pk.json"
    path.write_text(json.dumps({"m": 3, "terms": terms}))
    limit = sys.get_int_max_str_digits()
    code, out = _cli_output(["validate-pk", "--file", str(path), "--k", "1"])
    assert code == 1
    assert "1" + "0" * 2499 + "4" + "0" * 2499 + "3" in out
    assert sys.get_int_max_str_digits() == limit


def test_blades_are_checked_in_every_entry():
    def document(*blades_):
        terms = [
            {"exps": [0, i, 0, 0], "coeff": [{"blade": b, "q": "1"}]}
            for i, b in enumerate(blades_)
        ]
        return {"m": 3, "terms": terms}

    # a bool is rejected even after the int it equals was accepted
    with pytest.raises(ValueError, match="blade index must be an integer, got True"):
        CliffordPolynomial.from_json_dict(document([1], [True]))
    # an invalid blade is rejected wherever it appears, and on every read
    for bad, message in (([2, 2], "repeated generator index 2"), ([4], "out of range 1..3")):
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                CliffordPolynomial.from_json_dict(document([1], bad, bad))
            with pytest.raises(ValueError, match=message):
                CliffordPolynomial.from_json_dict(document(bad, [1], bad))


def test_int_subclasses_read_as_their_values():
    class Int(int):
        pass

    plain = {"m": 3, "terms": [{"exps": [0, 1, 0, 0], "coeff": [{"blade": [1, 2], "q": "3/2"}]}]}
    term = {"exps": [Int(0), Int(1), 0, 0], "coeff": [{"blade": [1, Int(2)], "q": "3/2"}]}
    subclassed = {"m": 3, "terms": [term]}
    read = CliffordPolynomial.from_json_dict
    assert read(subclassed) == read(plain)


def test_unreduced_rationals_give_the_canonical_polynomial():
    def document(*qs):
        terms = [
            {"exps": [0, 1, 0, 0], "coeff": [{"blade": [], "q": qs[0]}]},
            {"exps": [0, 0, 1, 0], "coeff": [{"blade": [1], "q": qs[1]}]},
        ]
        return {"m": 3, "terms": terms}

    reduced = CliffordPolynomial.from_json_dict(document("1/2", "1/3"))
    unreduced = CliffordPolynomial.from_json_dict(document("2/4", "2/6"))
    assert unreduced.numerators == reduced.numerators
    assert unreduced.denominator == reduced.denominator == 6
    assert unreduced.to_json_dict() == document("1/2", "1/3")
