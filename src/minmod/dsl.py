"""Text format for algebra presentations and morphisms.

Grammar (one statement per line, ``#`` comments)::

    param NAME = INT
    gen NAME : DEGREE-EXPR
    d NAME = EXPR
    volume EXPR
    f NAME = EXPR          (morphism files only)

Expressions support ``+ - * ^``, integer and rational (``p/q``) literals and
parentheses; ``^`` binds tightest and is right-associative with integer
exponents.  A sign binds looser than ``^`` and tighter than ``*``, wherever it
stands: ``-x^2`` is ``-(x^2)``, ``x*-y^2`` is ``-(x*y^2)``.  Param names may
appear anywhere a number may, so family presentations like ``x1^(19 + i)``
stay readable.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .gca import Element, FreeGCA, Generator, StructureError
from .poly import quotient
from .sullivan import SullivanAlgebra

_NUMBER = (int, Fraction)  # a rational value: an int, or a Fraction when not integral

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_']*)|(?P<op>[-+*^/()=:]))"
)


class ParseError(ValueError):
    def __init__(self, message, line=None, col=None):
        loc = f" (line {line}, column {col})" if line is not None else ""
        super().__init__(message + loc)
        self.line = line
        self.col = col


@dataclass
class Token:
    kind: str
    value: str
    line: int
    col: int


def _tokenize(text: str, line_no: int):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            break
        kind = m.lastgroup
        out.append(Token(kind, m.group(kind), line_no, m.start(kind) + 1))
        pos = m.end()
    rest = text[pos:]
    stray = rest.lstrip()
    if stray:
        col = pos + len(rest) - len(stray) + 1
        raise ParseError(f"unexpected character {stray[0]!r}", line_no, col)
    return out


def _statements(text: str):
    """(line number, tokens) for each line with a statement, comments stripped."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if line:
            yield line_no, _tokenize(line, line_no)


def _power_fits(base, exp: int) -> bool:
    """Whether the rational base^exp stays within Python's integer digit limit
    (0: none), decided before the power is formed: by logarithms far from the
    limit, and exactly on powers of at most about that many digits."""
    limit = sys.get_int_max_str_digits()
    parts = [abs(n) for n in (base.numerator, base.denominator) if abs(n) > 1]
    if not limit or not parts:
        return True
    # exp * log10(n) > limit + 1, compared without a float overflow for a huge exp
    if any(exp > (limit + 1) / math.log10(n) for n in parts):
        return False
    return all(n ** exp < 10 ** limit for n in parts)


class _ExprParser:
    """Recursive descent over one token list; precedence ^ > unary- > * > +/-."""

    def __init__(self, statement, start, line, symbols):
        self.toks = statement  # the expression is statement[start:]
        self.i = start
        self.line = line
        self.symbols = symbols  # name -> Element or int (params)

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self, value=None):
        t = self.peek()
        if t is None:
            end = self.toks[-1].col + len(self.toks[-1].value) if self.toks else 1
            raise ParseError("unexpected end of expression", self.line, end)
        if value is not None and t.value != value:
            raise ParseError(f"expected {value!r}, got {t.value!r}", t.line, t.col)
        self.i += 1
        return t

    def parse(self):
        v = self.sum()
        t = self.peek()
        if t is not None:
            raise ParseError(f"trailing input {t.value!r}", t.line, t.col)
        return v

    def sum(self):
        v = self.product()
        while (t := self.peek()) and t.value in "+-":
            self.take()
            rhs = self.product()
            v = v - rhs if t.value == "-" else v + rhs
        return v

    def product(self):
        v = self.unary()
        while (t := self.peek()) and t.value in "*/":
            self.take()
            rhs = self.unary()
            if t.value == "*":
                v = v * rhs
            elif not isinstance(rhs, _NUMBER):
                raise ParseError("division only by rational literals", t.line, t.col)
            elif not rhs:
                raise ParseError("division by zero", t.line, t.col)
            elif isinstance(v, Element):
                v = v.scale(quotient(1, rhs))
            else:
                v = quotient(v, rhs)
        return v

    def unary(self):
        t = self.peek()
        if t and t.value in "+-":
            self.take()
            v = self.unary()
            return -v if t.value == "-" else v
        return self.power()

    def power(self):
        base = self.atom()
        t = self.peek()
        if t and t.value == "^":
            self.take()
            exp = self.unary()  # right-associative; a negative exponent is refused below
            if isinstance(exp, _NUMBER):
                if exp.denominator != 1 or exp < 0:
                    raise ParseError(f"exponent must be a non-negative integer, got {exp}", t.line, t.col)
                exp = int(exp)
            else:
                raise ParseError("exponent must be numeric", t.line, t.col)
            if isinstance(base, _NUMBER) and not _power_fits(base, exp):
                raise ParseError(f"power has more than {sys.get_int_max_str_digits()} digits",
                                 t.line, t.col)
            result = base ** exp
            if isinstance(base, Element) and base and exp >= 2 and not result:
                raise ParseError("power vanishes: odd factor squared", t.line, t.col)
            return result
        return base

    def atom(self):
        t = self.take()
        if t.value == "(":
            v = self.sum()
            self.take(")")
            return v
        if t.kind == "num":
            try:
                return int(t.value)
            except ValueError:  # past Python's integer conversion limit
                raise ParseError(f"integer literal has more than {sys.get_int_max_str_digits()} "
                                 "digits", t.line, t.col) from None
        if t.kind == "name":
            if t.value not in self.symbols:
                raise ParseError(f"unknown name {t.value!r}", t.line, t.col)
            return self.symbols[t.value]
        raise ParseError(f"unexpected token {t.value!r}", t.line, t.col)


@dataclass
class AlgebraFile:
    """A parsed presentation: the algebra, named, and its optional volume."""

    algebra: SullivanAlgebra
    volume: Element | None


def _once(repeated: bool, statement: str, head: Token):
    """A ``gen``, ``d``, ``param``, ``volume`` or ``f`` statement may appear once."""
    if repeated:
        raise ParseError(f"repeated statement {statement!r}", head.line, head.col)


def parse_algebra(text: str, name: str = "") -> AlgebraFile:
    """Parse a presentation into a structurally validated SullivanAlgebra."""
    params: dict = {}
    gen_decls: dict = {}  # name -> degree
    diff_lines: dict = {}  # gen name -> (statement tokens, line_no)
    volume_tokens = None

    for line_no, toks in _statements(text):
        head = toks[0]
        if head.value == "param":
            if len(toks) < 4 or toks[1].kind != "name" or toks[2].value != "=":
                raise ParseError("expected: param NAME = INT", line_no, head.col)
            _once(toks[1].value in params, f"param {toks[1].value}", head)
            val = _ExprParser(toks, 3, line_no, dict(params)).parse()
            if not isinstance(val, _NUMBER) or val.denominator != 1:
                raise ParseError("param value must be an integer", line_no, toks[3].col)
            params[toks[1].value] = int(val)
        elif head.value == "gen":
            if len(toks) < 4 or toks[1].kind != "name" or toks[2].value != ":":
                raise ParseError("expected: gen NAME : DEGREE", line_no, head.col)
            _once(toks[1].value in gen_decls, f"gen {toks[1].value}", head)
            deg = _ExprParser(toks, 3, line_no, dict(params)).parse()
            if not isinstance(deg, _NUMBER) or deg.denominator != 1 or deg < 2:
                raise ParseError(f"degree must be an integer >= 2, got {deg}", line_no, toks[3].col)
            gen_decls[toks[1].value] = int(deg)
        elif head.value == "d":
            if len(toks) < 4 or toks[1].kind != "name" or toks[2].value != "=":
                raise ParseError("expected: d NAME = EXPR", line_no, head.col)
            _once(toks[1].value in diff_lines, f"d {toks[1].value}", head)
            diff_lines[toks[1].value] = (toks, line_no)
        elif head.value == "volume":
            _once(volume_tokens is not None, "volume", head)
            volume_tokens = (toks, line_no)
        else:
            raise ParseError(f"unknown statement {head.value!r}", line_no, head.col)

    free = FreeGCA(Generator(n, d) for n, d in gen_decls.items())
    symbols = dict(params)
    for n in gen_decls:
        symbols[n] = free.gen(n)

    diff: dict = {}
    for gname, (toks, line_no) in diff_lines.items():
        if gname not in free.index:
            raise ParseError(f"differential for unknown generator {gname!r}", line_no, 1)
        try:
            val = _ExprParser(toks, 3, line_no, symbols).parse()
        except StructureError as exc:
            raise ParseError(str(exc), line_no, 1) from exc
        if isinstance(val, _NUMBER):
            if val != 0:
                raise ParseError(f"d {gname} must be an algebra element", line_no, 1)
            val = free.zero()
        want = free.generators[free.index[gname]].degree + 1
        if val and (not val.is_homogeneous() or val.degree() != want):
            raise ParseError(
                f"d {gname} must be homogeneous of degree {want}, got degrees {val.degrees_present()}",
                line_no, 1)
        diff[gname] = val

    volume = None
    if volume_tokens is not None:
        toks, line_no = volume_tokens
        volume = _ExprParser(toks, 1, line_no, symbols).parse()
        if isinstance(volume, _NUMBER):
            raise ParseError("volume must be an algebra element", line_no, 1)

    try:
        alg = SullivanAlgebra(free, diff, name=name)
    except StructureError as exc:
        raise ParseError(str(exc)) from exc
    return AlgebraFile(alg, volume)


def parse_element(alg: SullivanAlgebra, text: str) -> Element:
    """Parse a single expression in the context of an algebra."""
    symbols = {g.name: alg.gen(g.name) for g in alg.generators}
    toks = _tokenize(text, 1)
    v = _ExprParser(toks, 0, 1, symbols).parse()
    if isinstance(v, _NUMBER):
        return alg.free.one().scale(v)
    return v


def parse_morphism(alg: SullivanAlgebra, text: str) -> dict:
    """Parse ``f NAME = EXPR`` lines into a generator-image map."""
    images: dict = {}
    symbols = {g.name: alg.gen(g.name) for g in alg.generators}
    for line_no, toks in _statements(text):
        if toks[0].value != "f" or len(toks) < 4 or toks[1].kind != "name" or toks[2].value != "=":
            raise ParseError("expected: f NAME = EXPR", line_no, 1)
        gname = toks[1].value
        if gname not in alg.free.index:
            raise ParseError(f"unknown generator {gname!r}", line_no, toks[1].col)
        _once(gname in images, f"f {gname}", toks[0])
        val = _ExprParser(toks, 3, line_no, symbols).parse()
        if isinstance(val, _NUMBER):
            val = alg.free.one().scale(val) if val else alg.free.zero()
        images[gname] = val
    for g in alg.generators:
        if g.name not in images:
            raise ParseError(f"morphism gives no image for generator {g.name}")
    return images


# -- printing --------------------------------------------------------------


# the one element printer, also ``str(e)``
element_str = Element.__str__


def print_algebra(af: AlgebraFile) -> str:
    """Render a presentation back to DSL text (params already substituted)."""
    alg = af.algebra
    lines = [f"gen {g.name} : {g.degree}" for g in alg.generators]
    lines += [f"d {g.name} = {element_str(d)}" for g, d in zip(alg.generators, alg.diff) if d]
    if af.volume is not None:
        lines.append(f"volume {element_str(af.volume)}")
    return "\n".join(lines) + "\n"
