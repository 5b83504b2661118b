"""A small expression grammar for quaternionic polynomials.

Accepted atoms are numbers, the variable q and the units i, j, k;
operators are +, -, * (the star product), ^ and parentheses.  Products
associate left-to-right and juxtaposition ("qi") is shorthand for *.
A run of signs takes the factor after it, power included: -q^2 and
q*-q^2 negate q^2, and q*+q is q^2.
A number is ASCII digits with an optional decimal point and an
optional exponent, as in 2, 0.5, .5, 1e-3 or 2.5E+4; it must be finite.
No exponent after ^ and no degree of a product may exceed MAX_DEGREE.
"""

from __future__ import annotations

import math
import re

from .regular_fn import (_ONE4, _ZERO4, RegularSeries, _add, _neg, _series, _sub,
                         _star_mul, _star_power, _trim)


# The largest exponent and the largest degree of any product or power
# an expression may form.  It is checked before the star product is
# computed, so an expression like q^100000 fails at once instead of
# multiplying for minutes.  At this degree parsing takes a fraction of
# a second and zeros() about two (q^256 + 1, Python 3.11, one core).
MAX_DEGREE = 256


class ParseError(ValueError):
    """The polynomial expression does not conform to the grammar."""


def _check_degree(degree: int, what: str) -> None:
    if degree > MAX_DEGREE:
        raise ParseError(f"{what} {degree} exceeds MAX_DEGREE = {MAX_DEGREE}")


# A token is a number, an operator or an atom; any other character but
# whitespace is an error.  Digits are ASCII only: float() would read
# other decimal digits, and str.isdigit() admits superscripts.
_TOKEN = re.compile(r"[0-9.]+(?:[eE][+-]?[0-9]+)?|[-+*^()qijk]|(\S)")

# The parser computes on trimmed lists of exact 4-tuples with
# regular_fn's kernels, the ones RegularSeries arithmetic runs, and
# builds one RegularSeries at the end, so a parse is bit for bit the
# object arithmetic's (tests/test_cli.py keeps the object parser as
# oracle).
_ATOMS = {
    "q": [_ZERO4, _ONE4],
    "i": [(0.0, 1.0, 0.0, 0.0)],
    "j": [(0.0, 0.0, 1.0, 0.0)],
    "k": [(0.0, 0.0, 0.0, 1.0)],
}


def _tokenize(text: str) -> list[str]:
    tokens = []
    for match in _TOKEN.finditer(text):
        if match.lastindex:
            raise ParseError(f"unexpected character {match[1]!r} "
                             f"at position {match.start()}")
        tokens.append(match[0])
    return tokens


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens + [None]  # take() never steps past the None
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos]

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression")
        self.pos += 1
        return tok

    def parse(self) -> list:
        out = self.expr()
        if self.peek() is not None:
            raise ParseError(f"trailing input at token {self.peek()!r}")
        return out

    def expr(self) -> list:
        out = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            out = _add(out, rhs) if op == "+" else _sub(out, rhs)
        return out

    def term(self) -> list:
        out = self.factor()
        while True:
            nxt = self.peek()
            if nxt == "*":
                self.take()
            elif nxt is None or not (nxt in "qijk(" or nxt[0] in "0123456789."):
                return out
            rhs = self.factor()
            # a degree is len - 1, so -1 for the zero series
            _check_degree(len(out) + len(rhs) - 2, "product degree")
            out = _star_mul(out, rhs)

    def factor(self) -> list:
        negate = False  # a loop, so a long run of signs needs no recursion
        while self.peek() in ("+", "-"):
            negate ^= self.take() == "-"
        base = self.atom()
        if self.peek() == "^":
            self.take()
            exp = self.take()
            if not exp.isdigit():
                raise ParseError(f"exponent must be a nonnegative integer, got {exp!r}")
            digits = exp.lstrip("0") or "0"
            if len(digits) > len(str(MAX_DEGREE)) or int(digits) > MAX_DEGREE:
                raise ParseError(f"exponent {exp:.20} exceeds MAX_DEGREE = {MAX_DEGREE}")
            n = int(digits)
            _check_degree((len(base) - 1) * n, "power degree")
            # q^n from n star products from 1 sums only +0.0 and 1.0
            # products to +0.0 accumulators: the monomial, exactly
            base = [_ZERO4] * n + [_ONE4] if base is _ATOMS["q"] else _star_power(base, n)
        return _neg(base) if negate else base

    def atom(self) -> list:
        tok = self.take()
        if tok == "(":
            inner = self.expr()
            if self.take() != ")":
                raise ParseError("missing closing parenthesis")
            return inner
        if tok in _ATOMS:
            return _ATOMS[tok]
        try:
            value = float(tok)
        except ValueError:
            raise ParseError(f"unexpected token {tok!r}") from None
        if not math.isfinite(value):
            raise ParseError(f"number {tok!r} is not finite")
        # value * ONE, as Quaternion.scale computes it
        return _trim([(1.0 * value, 0.0 * value, 0.0 * value, 0.0 * value)])


def parse_polynomial(text: str) -> RegularSeries:
    """Parse an expression like "q^2 + qi" or "(q-i)*(q-j)".

    Raises ParseError for text outside the grammar, and for nesting
    deeper than the interpreter's recursion limit allows.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression")
    try:
        coeffs = _Parser(tokens).parse()
    except RecursionError:
        raise ParseError("expression nested too deeply") from None
    return _series(coeffs, math.inf)
