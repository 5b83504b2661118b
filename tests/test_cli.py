import contextlib
import io
import json
import math
import re
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from sliceregular.cli import MAX_GRID, main
from sliceregular.parsing import MAX_DEGREE, ParseError, _check_degree, parse_polynomial
from sliceregular.quat_core import I, J, K, ONE, Quaternion
from sliceregular.regular_fn import RegularSeries, star_mul


# ---------------------------------------------------------------------------
# expression grammar


def test_parse_basic_polynomial():
    f = parse_polynomial("q^2+qi")
    assert f.coeff(2) == ONE
    assert f.coeff(1) == I
    assert f.coeff(0) == Quaternion()


def test_parse_star_factorization():
    f = parse_polynomial("(q-i)*(q-j)")
    assert f.coeff(0) == K
    assert f.coeff(1) == -(I + J)


def test_parse_numbers_and_signs():
    f = parse_polynomial("2q^3 - 0.5k + 1")
    assert f.coeff(3) == 2.0 * ONE
    assert f.coeff(0) == Quaternion(1.0, 0, 0, -0.5)


def test_parse_juxtaposition_is_star():
    assert parse_polynomial("qi").coeff(1) == I
    # star order matters: iq has coefficient i at degree one as well,
    # but i*j = k while j*i = -k
    assert parse_polynomial("ij").coeff(0) == K
    assert parse_polynomial("ji").coeff(0) == -K


def test_parse_scientific_notation():
    f = parse_polynomial("1e-3*q+1")
    assert f.coeff(1) == 1e-3 * ONE
    assert f.coeff(0) == ONE
    assert parse_polynomial("2.5E+4").coeff(0) == 25000.0 * ONE
    g = parse_polynomial(".5e1q^2 - 3E2k")
    assert g.coeff(2) == 5.0 * ONE
    assert g.coeff(0) == -300.0 * K


def test_parse_errors():
    for bad in ("", "q +", "(q", "q^i", "x+1", "2e", "1e+", "1.2.3", "1e400",
                "q^1e2"):
        with pytest.raises(ParseError):
            parse_polynomial(bad)


# Bit-exactness oracle: the expression parser as it was on RegularSeries
# and Quaternion objects, tokenizer included.  The parser now computes
# on lists of 4-tuples and must give the same floats, compared by repr
# so that signed zeros count, or the same ParseError message.

_ORACLE_NUMBER = re.compile(r"[\d.]+(?:[eE][+-]?\d+)?")

_ORACLE_ATOMS = {
    "q": RegularSeries.identity(),
    "i": RegularSeries.constant(I),
    "j": RegularSeries.constant(J),
    "k": RegularSeries.constant(K),
}


def _oracle_tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
        elif ch in "+-*^()":
            tokens.append(ch)
            pos += 1
        elif ch in "qijk":
            tokens.append(ch)
            pos += 1
        elif ch.isdigit() or ch == ".":
            number = _ORACLE_NUMBER.match(text, pos)
            tokens.append(number.group())
            pos = number.end()
        else:
            raise ParseError(f"unexpected character {ch!r} at position {pos}")
    return tokens


class _OracleParser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression")
        self.pos += 1
        return tok

    def parse(self):
        out = self.expr()
        if self.peek() is not None:
            raise ParseError(f"trailing input at token {self.peek()!r}")
        return out

    def expr(self):
        sign = 1.0
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        out = self.term()
        if sign < 0:
            out = oracle_neg(out)
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            out = oracle_add(out, rhs) if op == "+" else oracle_sub(out, rhs)
        return out

    def term(self):
        out = self.factor()
        while True:
            nxt = self.peek()
            if nxt == "*":
                self.take()
            elif nxt is None or not (nxt in "qijk(" or nxt[0].isdigit()
                                     or nxt[0] == "."):
                return out
            rhs = self.factor()
            _check_degree(out.degree + rhs.degree, "product degree")
            out = star_mul(out, rhs)

    def factor(self):
        base = self.atom()
        if self.peek() == "^":
            self.take()
            exp = self.take()
            if not exp.isdigit():
                raise ParseError(f"exponent must be a nonnegative integer, got {exp!r}")
            digits = exp.lstrip("0") or "0"
            if len(digits) > len(str(MAX_DEGREE)) or int(digits) > MAX_DEGREE:
                raise ParseError(f"exponent {exp:.20} exceeds MAX_DEGREE = {MAX_DEGREE}")
            _check_degree(base.degree * int(digits), "power degree")
            base = oracle_star_power(base, int(digits))
        return base

    def atom(self):
        tok = self.take()
        if tok == "(":
            inner = self.expr()
            if self.take() != ")":
                raise ParseError("missing closing parenthesis")
            return inner
        if tok == "-":
            return oracle_neg(self.atom())
        if tok in _ORACLE_ATOMS:
            return _ORACLE_ATOMS[tok]
        try:
            value = float(tok)
        except ValueError:
            raise ParseError(f"unexpected token {tok!r}") from None
        if not math.isfinite(value):
            raise ParseError(f"number {tok!r} is not finite")
        return RegularSeries.constant(value * ONE)


# Series sums on Quaternion components, padded with Quaternion(), as
# RegularSeries computed them before it ran on float kernels.
def oracle_add(f, g):
    n = max(len(f.coeffs), len(g.coeffs))
    return RegularSeries(tuple(f.coeff(k) + g.coeff(k) for k in range(n)),
                         min(f.radius, g.radius))


def oracle_sub(f, g):
    n = max(len(f.coeffs), len(g.coeffs))
    return RegularSeries(tuple(f.coeff(k) - g.coeff(k) for k in range(n)),
                         min(f.radius, g.radius))


def oracle_neg(f):
    return RegularSeries(tuple(-c for c in f.coeffs), f.radius)


def oracle_star_power(f, n):
    out = RegularSeries((ONE,))
    for _ in range(n):
        out = star_mul(out, f)
    return out


def oracle_parse_polynomial(text):
    tokens = _oracle_tokenize(text)
    if not tokens:
        raise ParseError("empty expression")
    return _OracleParser(tokens).parse()


def _parsed(parse, text):
    """Every coefficient component by repr, or the ParseError message."""
    try:
        f = parse(text)
    except ParseError as exc:
        return f"ParseError: {exc}"
    return [tuple(map(repr, c.to_json())) for c in f.coeffs], repr(f.radius)


# Numbers with zeros, leading dots, exponents and extreme values;
# malformed and non-finite numbers come in with the garbling below.
_numbers = st.one_of(
    st.sampled_from(["0", "0.0", "00", ".0", ".5", "5.", "2", "3", "10", "1e-3",
                     "2.5E+4", "3e2", ".5e1", "1e200", "1e308", "1e-320", "0e0"]),
    st.floats(min_value=0.0, max_value=1e6).map(repr),
    st.integers(0, 999).map(str))
_atoms = st.one_of(_numbers, st.sampled_from("qqqijk"))


def _compound(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", " + ", " - "]), inner).map("".join),
        st.tuples(inner, st.sampled_from(["*", "", " ", " * ", "*-", "-"]),
                  inner).map("".join),
        inner.map("({})".format),
        st.tuples(st.sampled_from(["-", "+", "--", "-+", "*-"]), inner).map("".join),
        st.tuples(inner, st.integers(0, 5)).map("{0[0]}^{0[1]}".format))


_expressions = st.recursive(_atoms, _compound, max_leaves=16)


@st.composite
def _garbled(draw):
    """An expression, possibly truncated, with a character deleted or with
    tokens or characters inserted."""
    text = draw(_expressions)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        at = draw(st.integers(0, len(text)))
        action = draw(st.sampled_from(["truncate", "delete", "insert"]))
        if action == "truncate":
            text = text[:at]
        elif action == "delete":
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at] + draw(st.sampled_from(
                list("+-*^()qijk0.5e ") + ["^2", "^x", "e5", "E-", "\t", "\u00a0",
                                            "1.2.3", "1e400"])) + text[at:]
    return text


@settings(max_examples=600, deadline=None)
@given(_garbled())
@example("(q-i)*(q-j)")
@example("-0*q + 0")                 # signed zeros through negation and sums
@example("-q-1")                     # c - 0.0 keeps the -0.0 that c + 0.0 clears
@example("-q^2-q")
@example("(-2)^1")                   # a power starts from 1, which clears -0.0
@example("q^0 - 1")                  # cancels to the zero series
@example("0^0")
@example("1e200*1e200q - 1e308*10")  # overflow to inf and nan
@example("(0*q)^3*q^256")            # the zero series has degree -1
@example("(q^200 - q^200)*q^200")    # a sum is trimmed before degree checks
@example("q^128*q^128")
@example("q^128*q^129")
@example("q^257")
@example("2e")
def test_parse_matches_oracle(text):
    assert _parsed(parse_polynomial, text) == _parsed(oracle_parse_polynomial, text)


# ---------------------------------------------------------------------------
# CLI commands


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_eval_command(tmp_path):
    out = tmp_path / "val.json"
    code = main(["--out", str(out), "eval", "q^2+qi", "[0,0,1,0]"])
    assert code == 0
    assert read_json(out) == [-1.0, 0.0, 0.0, -1.0]


def test_eval_constant(tmp_path):
    out = tmp_path / "val.json"
    assert main(["--out", str(out), "eval", "5", "[1,2,3,4]"]) == 0
    assert read_json(out) == [5.0, 0.0, 0.0, 0.0]


def test_eval_accepts_json_file(tmp_path):
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps(
        {"coeffs": [[0, 0, 0, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
         "radius": "inf"}))
    out = tmp_path / "val.json"
    assert main(["--out", str(out), "eval", str(poly), "[0,0,1,0]"]) == 0
    assert read_json(out) == [-1.0, 0.0, 0.0, -1.0]


def test_eval_outside_radius_exits_3(tmp_path):
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps(
        {"coeffs": [[1, 0, 0, 0], [1, 0, 0, 0]], "radius": 1.0}))
    assert main(["eval", str(poly), "[2,0,0,0]"]) == 3


def test_eval_parse_error_exits_2():
    assert main(["eval", "q+$", "[0,0,0,0]"]) == 2


def test_zeros_command(tmp_path):
    out = tmp_path / "zeros.json"
    assert main(["--out", str(out), "zeros", "q^2+1"]) == 0
    report = read_json(out)
    assert len(report["spheres"]) == 1
    sphere = report["spheres"][0]
    assert abs(sphere["x"]) <= 1e-9
    assert abs(sphere["y"] - 1.0) <= 1e-9
    assert sphere["multiplicity"] == 2


def test_zeros_point_case(tmp_path):
    out = tmp_path / "zeros.json"
    assert main(["--out", str(out), "zeros", "(q-i)*(q-j)"]) == 0
    report = read_json(out)
    assert not report["spheres"]
    assert report["points"][0]["multiplicity"] == 2


@pytest.mark.parametrize("argv", [
    ["zeros", '{"coeffs":[[1,2]]}'],
    ["zeros", '{"coeffs":5}'],
    ["eval", "q^2", '["a",0,0,0]'],
    ["classify", "nan", "0", "0", "0"],
    ["classify", "1", "0", "inf", "0"],
    ["eval", "q^2", "[NaN,0,0,0]"],
    ["zeros", '{"coeffs":[[NaN,0,0,0],[1,0,0,0]]}'],
    ["zeros", '{"coeffs":' + "[" * 100000],
    ["zeros", "q\u00b2"],
    ["zeros", "q-\u0663"],
    ["zeros", "q^\u0663"],
    ["zeros", "(" * 3000 + "q" + ")" * 3000],
    ["eval", "(" * 3000 + "q" + ")" * 3000, "[1,0,0,0]"],
    ["figure", "fig2", "--grid", "-5"],
    ["figure", "fig2", "--grid", "0"],
    ["figure", "fig2", "--grid", str(MAX_GRID + 1)],
    ["figure", "fig2", "--extent", "nan"],
    ["figure", "fig2", "--extent", "inf"],
    ["figure", "fig2", "--extent", "0"],
    ["figure", "fig2", "--extent", "-2"],
    ["--samples", "0", "verify", "twistor-commute"],
    ["--samples", "-2", "verify", "jjjj"],
    ["--samples", "0", "figure", "fig1"],
], ids=["short-coefficient", "coeffs-not-a-list", "string-component",
        "classify-nan", "classify-inf", "nan-point", "nan-coefficient",
        "deeply-nested", "superscript-digit", "arabic-indic-digit",
        "arabic-indic-exponent", "deeply-nested-expression",
        "eval-deeply-nested-expression", "negative-grid", "zero-grid",
        "grid-above-max", "nan-extent", "infinite-extent", "zero-extent",
        "negative-extent", "zero-samples-verify", "negative-samples-verify",
        "zero-samples-fig1"])
def test_malformed_input_exits_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err


def test_undecodable_json_file_exits_2(tmp_path):
    poly = tmp_path / "poly.json"
    poly.write_bytes(b"\xff\xfe{")
    assert main(["zeros", str(poly)]) == 2


def test_zeros_degenerate_exits_4():
    assert main(["zeros", "0"]) == 4


def test_classify_command(tmp_path):
    out = tmp_path / "c.json"
    assert main(["--out", str(out), "classify", "1", "0", "0", "0"]) == 0
    report = read_json(out)
    assert report["class"] == "OnPlaneLi"
    assert report["j_plus"] == [0.0, -1.0, 0.0, 0.0]
    assert report["j_minus"] == [0.0, -1.0, 0.0, 0.0]

    assert main(["--out", str(out), "classify", "0", "0", "0.5", "0"]) == 0
    report = read_json(out)
    assert report["class"] == "OnParaboloid"
    assert abs(report["D"]) <= 1e-12

    assert main(["--out", str(out), "classify", "1", "0", "1", "0"]) == 0
    assert read_json(out)["class"] == "GenericFour"


def test_verify_command(tmp_path):
    out = tmp_path / "r.txt"
    assert main(["--samples", "50", "--out", str(out),
                 "verify", "transform-spot"]) == 0
    assert out.read_text().startswith("PASS transform-spot")


def test_verify_unknown_suite_exits_2():
    assert main(["verify", "no-such-suite"]) == 2


def test_figure_commands(tmp_path):
    out = tmp_path / "fig1.csv"
    assert main(["--samples", "25", "--out", str(out), "figure", "fig1"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,y,z,label"
    assert len(lines) > 1

    out2 = tmp_path / "fig2.csv"
    assert main(["--out", str(out2), "figure", "fig2",
                 "--grid", "10", "--extent", "1.0"]) == 0
    lines = out2.read_text().splitlines()
    assert lines[0] == "x,y,z"


def test_figure_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert main(["--seed", "3", "--out", str(path), "figure", "fig2",
                     "--grid", "8", "--extent", "1.0"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_determinism(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for path in (a, b):
        assert main(["--seed", "5", "--samples", "40", "--out", str(path),
                     "verify", "klein-reality"]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv", [
    ["classify", "1e300", "0", "1e300", "0"],
    ["classify", "1e160", "0", "0", "0"],
    ["classify", "1e100", "0", "0", "0"],
    ["eval", "1e300q^2", "[1e300,0,0,0]"],
    ["zeros", "1e300q^2+1e300q+1e300"],
    ["zeros", "1e-200q^2+1e-200"],
    ["zeros", "(q+i)^34"],
], ids=["classify-norm-overflow", "classify-square-overflow",
        "classify-sextic-overflow", "eval-nan", "zeros-symmetrization",
        "zeros-symmetrization-underflow", "zeros-not-real"])
def test_overflow_exits_3(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err


def test_tiny_coefficients_are_kept(tmp_path):
    # |a|^2 underflows below about 1e-162; the coefficients themselves
    # are not zero and must not be trimmed
    out = tmp_path / "out.json"
    assert main(["--out", str(out), "eval", "1e-200q", "[1,0,0,0]"]) == 0
    assert read_json(out) == [1e-200, 0.0, 0.0, 0.0]
    assert main(["--out", str(out), "zeros", "1e-100q^2+1e-100"]) == 0
    report = read_json(out)
    assert not report["points"] and len(report["spheres"]) == 1
    sphere = report["spheres"][0]
    assert abs(sphere["x"]) <= 1e-9 and abs(sphere["y"] - 1.0) <= 1e-9
    assert sphere["multiplicity"] == 2


def test_classify_paraboloid_test_is_scale_relative(tmp_path):
    # x0 = 1e20 > 1/4 and x1 = 3e20: nowhere near the paraboloid, whose
    # tolerance once grew like |c|^2 and swallowed x1
    out = tmp_path / "c.json"
    assert main(["--out", str(out), "classify", "1e20", "3e20", "1e14", "0"]) == 0
    report = read_json(out)
    assert report["class"] == "GenericFour"
    assert report["j_plus"] is not None and report["j_minus"] is not None
    # a point of the paraboloid at a large scale keeps its class
    assert main(["--out", str(out), "classify", "-999999.75", "0", "1000", "0"]) == 0
    assert read_json(out)["class"] == "OnParaboloid"


@pytest.mark.parametrize("expr", ["q^100000", "q^257", "(q^2+1)^129",
                                  "q^200*q^57", "2^99999999999999999999999"])
def test_degree_cap_exits_2(expr, capsys):
    assert main(["zeros", expr]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "MAX_DEGREE" in captured.err
    assert len(captured.err.splitlines()) == 1


def test_degree_cap_admits_max_degree():
    from sliceregular.parsing import MAX_DEGREE
    assert parse_polynomial(f"q^{MAX_DEGREE}").degree == MAX_DEGREE
    assert parse_polynomial(f"q^{MAX_DEGREE - 1}*q").degree == MAX_DEGREE
    assert parse_polynomial("q^0003").degree == 3


def test_classify_negative_scientific_coordinate(tmp_path):
    out = tmp_path / "c.json"
    assert main(["--out", str(out), "classify", "1", "0", "-1e-05", "0"]) == 0
    assert read_json(out)["class"] == "GenericFour"


def _reject_constant(name):
    raise ValueError(f"non-finite JSON number {name}")


magnitudes = st.builds(lambda sign, e: sign * 10.0 ** e,
                       st.sampled_from([-1.0, 1.0]),
                       st.floats(min_value=-300.0, max_value=300.0))


@settings(max_examples=150, deadline=None)
@given(st.tuples(magnitudes, magnitudes, magnitudes, magnitudes))
@example((1e20, -1.0, -1.0, -1.0))  # preimages real to working precision
def test_classify_extreme_scales_exit_0_or_3(coords):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(["classify"] + [repr(t) for t in coords])
    assert code in (0, 3), err.getvalue()
    if code == 0:
        report = json.loads(out.getvalue(), parse_constant=_reject_constant)
        assert report["class"]
    else:
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1


def test_grid_and_samples_at_their_bounds(tmp_path):
    out = tmp_path / "fig.csv"
    assert main(["--out", str(out), "figure", "fig2", "--grid", "1"]) == 0
    assert out.read_text().splitlines()[0] == "x,y,z"
    assert main(["--out", str(out), "--samples", "1", "figure", "fig1"]) == 0
    assert main(["--out", str(out), "--samples", "1", "verify", "jjjj"]) == 0


# Components from 1e-300 to 1e300 in size, either sign, signed zeros and
# the non-finite values, which JSON carries as NaN and Infinity and an
# expression as the text nan and inf.
extreme = st.one_of(magnitudes, st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan]))
quadruples = st.tuples(extreme, extreme, extreme, extreme)


def _run_cli(argv):
    """(exit code, stdout, stderr) of main(argv); warnings are errors."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _polynomial_text(coeffs, as_expression):
    if not as_expression:
        return json.dumps({"coeffs": [list(c) for c in coeffs]})
    return "+".join(f"({w!r}+{x!r}i+{y!r}j+{z!r}k)q^{n}"
                    for n, (w, x, y, z) in enumerate(coeffs))


def _assert_documented_outcome(code, out, err):
    assert code in (0, 2, 3, 4), err
    assert "Traceback" not in err
    if code == 0:
        json.loads(out, parse_constant=_reject_constant)
        assert err == ""
    else:
        assert out == "" and len(err.splitlines()) == 1


@settings(max_examples=150, deadline=None)
@given(st.lists(quadruples, min_size=1, max_size=4), st.booleans())
# f^s overflows in the Newton polish of a finite root
@example([(-1.0, -1.0, -1.0, -1.0), (-1.0, 0.0, -1e82, 0.0),
          (-1.0, 0.0, -1.0, -1.0)], False)
# the monic companion matrix of f^s overflows
@example([(-0.0, 0.0, 0.0, -1e87), (0.0, 0.0, -1e-68, -1e-68)], False)
def test_zeros_exits_with_a_documented_code(coeffs, as_expression):
    text = _polynomial_text(coeffs, as_expression)
    _assert_documented_outcome(*_run_cli(["zeros", text]))


@settings(max_examples=150, deadline=None)
@given(st.lists(quadruples, min_size=1, max_size=4), quadruples, st.booleans())
def test_eval_exits_with_a_documented_code(coeffs, point, as_expression):
    text = _polynomial_text(coeffs, as_expression)
    _assert_documented_outcome(*_run_cli(["eval", text, json.dumps(list(point))]))
