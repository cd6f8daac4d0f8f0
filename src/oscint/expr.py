"""Small expression language for amplitude and phase functions.

Recursive-descent parser over the grammar: decimal/scientific
literals, constants ``pi`` and ``i``, the variable ``x``, unary minus,
binary ``+ - * / ^`` (``^`` right-associative and binding tighter than
unary minus), the calls sin cos exp sqrt abs asin atan log, and
parentheses. Each rule returns the canonical text of what it read, every
operation parenthesized and every literal written as ``repr(float)``
(what ``to_string()`` returns, and text that parses to the same
function), and a closure of the complex ``x`` that evaluates it.
Everything evaluates in complex arithmetic with principal branches; an
expression without ``x`` returns a fresh array of ``x``'s shape.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import OscintError

__all__ = ["AmplitudeExpr", "ParseError", "parse_amplitude"]

_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "sqrt": np.sqrt,
    "abs": lambda z: np.abs(z) + 0j,  # np.abs of a complex value is real
    "asin": np.arcsin,
    "atan": np.arctan,
    "log": np.log,
}

_CONSTANTS = {"pi": np.pi + 0j, "i": 1j}

# numpy's ufuncs rather than Python's operators, also where both operands
# are x-free scalars: Python's complex division and power raise
# ZeroDivisionError where numpy returns inf or nan, as on arrays. ``^`` is
# np.power, applied in _Parser.unary.
_OPERATORS = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
}

# A number (a run of digits and dots, then an optional exponent), a name,
# or any other single character; finditer skips the whitespace between.
_TOKEN = re.compile(r"(\.?\d[\d.]*(?:[eE][+-]?\d+)?)|([^\W\d]\w*)|(\S)")

_PUNCTUATION = frozenset("+-*/^()")


class ParseError(OscintError, ValueError):
    """Syntax error with the byte offset and the tokens expected there."""

    def __init__(self, offset: int, expected: tuple[str, ...], found: str):
        self.offset = offset
        self.expected = expected
        super().__init__(
            f"at offset {offset}: expected {' or '.join(expected)}, found {found}"
        )


@dataclass(frozen=True)
class AmplitudeExpr:
    """Parsed expression; callable on real or complex numpy input."""

    source: str
    _text: str
    _fn: Callable = field(repr=False, compare=False)

    def __call__(self, x):
        x = np.asarray(x, dtype=complex)
        with np.errstate(divide="ignore", invalid="ignore"):
            y = self._fn(x)
        # without x the closures return a scalar
        return y if isinstance(y, np.ndarray) else np.full(x.shape, y)

    def to_string(self) -> str:
        return self._text


def _tokenize(src: str):
    tokens = []  # (kind, text, offset)
    for match in _TOKEN.finditer(src):
        group, text, offset = match.lastindex, match.group(), match.start()
        if group == 1:  # a number
            try:
                float(text)
            except ValueError:
                raise ParseError(offset, ("number",), text) from None
            tokens.append(("num", text, offset))
        elif group == 2 and (text[0].isalpha() or text[0] == "_"):
            tokens.append(("ident", text, offset))
        elif text in _PUNCTUATION:
            tokens.append((text, text, offset))
        else:
            # a name may start with a digit that is not decimal, such as "²"
            ch = text[0]
            if ch.isdigit():
                raise ParseError(offset, ("number",), ch)
            raise ParseError(offset, ("number", "identifier", "operator"), ch)
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    """Each rule returns ``(canonical text, function of complex x)``."""

    def __init__(self, src: str):
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self) -> str:
        return self.tokens[self.pos][0]

    def expect(self, kind: str):
        found, text, offset = self.tokens[self.pos]
        if found != kind:
            raise ParseError(offset, (kind,), text or "end of input")
        self.pos += 1

    def parse(self):
        result = self.expr()
        kind, text, offset = self.tokens[self.pos]
        if kind != "end":
            raise ParseError(offset, ("operator", "end of input"), text)
        return result

    def chain(self, operand, ops: str):
        """Left-associative ``operand (op operand)*``, evaluated by one
        closure that folds the operands left to right in a loop, so that a
        long chain does not nest a call per operator.
        """
        text, first = operand()
        steps = []  # (ufunc, right operand)
        while (op := self.peek()) in ops:
            self.pos += 1
            right_text, g = operand()
            text = f"({text}{op}{right_text})"
            steps.append((_OPERATORS[op], g))
        if not steps:
            return text, first

        def fold(x):
            y = first(x)
            for ufunc, g in steps:
                y = ufunc(y, g(x))
            return y

        return text, fold

    def expr(self):
        return self.chain(self.term, "+-")

    def term(self):
        return self.chain(self.unary, "*/")

    def unary(self):
        if self.peek() == "-":
            self.pos += 1
            text, f = self.unary()
            return f"(-{text})", lambda x: -f(x)
        text, f = self.atom()
        if self.peek() == "^":
            self.pos += 1
            # right-associative; exponent may itself be signed
            exponent_text, g = self.unary()
            return f"({text}^{exponent_text})", lambda x: np.power(f(x), g(x))
        return text, f

    def atom(self):
        kind, text, offset = self.tokens[self.pos]
        self.pos += 1
        if kind == "num":
            value = complex(float(text))
            return repr(value.real), lambda x: value
        if kind == "(":
            result = self.expr()
            self.expect(")")
            return result
        if kind == "ident":
            if text in _FUNCTIONS:
                self.expect("(")
                arg_text, arg = self.expr()
                self.expect(")")
                fn = _FUNCTIONS[text]
                return f"{text}({arg_text})", lambda x: fn(arg(x))
            if text in _CONSTANTS:
                value = _CONSTANTS[text]
                return text, lambda x: value
            if text == "x":
                return "x", lambda x: x
            raise ParseError(
                offset,
                ("x", "pi", "i") + tuple(sorted(_FUNCTIONS)),
                text,
            )
        raise ParseError(offset, ("number", "identifier", "("), text or "end of input")


def parse_amplitude(src: str) -> AmplitudeExpr:
    """Parse an amplitude expression in the variable x.

    Nesting too deep for Python's recursion limit, such as a few hundred
    parentheses, raises :class:`ParseError` at the token reached.
    """
    parser = _Parser(src)
    try:
        return AmplitudeExpr(src, *parser.parse())
    except RecursionError:
        _, text, offset = parser.tokens[min(parser.pos, len(parser.tokens) - 1)]
        raise ParseError(offset, ("less nesting",), text or "end of input") from None
