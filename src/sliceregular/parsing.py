"""A small expression grammar for quaternionic polynomials.

Accepted atoms are numbers, the variable q and the units i, j, k;
operators are +, -, * (the star product), ^ and parentheses.  Products
associate left-to-right and juxtaposition ("qi") is shorthand for *.
A number is digits with an optional decimal point and an optional
exponent, as in 2, 0.5, .5, 1e-3 or 2.5E+4; it must be finite.  No
exponent after ^ and no degree of a product may exceed MAX_DEGREE.
"""

from __future__ import annotations

import math
import re

from .quat_core import I, J, K, ONE
from .regular_fn import RegularSeries, star_mul, star_power


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


_NUMBER = re.compile(r"[\d.]+(?:[eE][+-]?\d+)?")

_ATOMS = {
    "q": RegularSeries.identity(),
    "i": RegularSeries.constant(I),
    "j": RegularSeries.constant(J),
    "k": RegularSeries.constant(K),
}


def _tokenize(text: str) -> list[str]:
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
            number = _NUMBER.match(text, pos)
            tokens.append(number.group())
            pos = number.end()
        else:
            raise ParseError(f"unexpected character {ch!r} at position {pos}")
    return tokens


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression")
        self.pos += 1
        return tok

    def parse(self) -> RegularSeries:
        out = self.expr()
        if self.peek() is not None:
            raise ParseError(f"trailing input at token {self.peek()!r}")
        return out

    def expr(self) -> RegularSeries:
        sign = 1.0
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        out = self.term()
        if sign < 0:
            out = -out
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            out = out + rhs if op == "+" else out - rhs
        return out

    def term(self) -> RegularSeries:
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

    def factor(self) -> RegularSeries:
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
            base = star_power(base, int(digits))
        return base

    def atom(self) -> RegularSeries:
        tok = self.take()
        if tok == "(":
            inner = self.expr()
            if self.take() != ")":
                raise ParseError("missing closing parenthesis")
            return inner
        if tok == "-":
            return -self.atom()
        if tok in _ATOMS:
            return _ATOMS[tok]
        try:
            value = float(tok)
        except ValueError:
            raise ParseError(f"unexpected token {tok!r}") from None
        if not math.isfinite(value):
            raise ParseError(f"number {tok!r} is not finite")
        return RegularSeries.constant(value * ONE)


def parse_polynomial(text: str) -> RegularSeries:
    """Parse an expression like "q^2 + qi" or "(q-i)*(q-j)"."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression")
    return _Parser(tokens).parse()
