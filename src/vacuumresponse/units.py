"""Parsing and formatting of unit expressions.

Grammar (recursive descent):

    expr    :=  factor ( factor | "*" factor | "/" factor )*
    factor  :=  primary ( "^" exponent )?
    primary :=  "(" expr ")" | SYMBOL | "1"
    exponent := ["+"|"-"] INT [ "/" INT ]

Whitespace, "*" and the middle dot all denote multiplication.  "/" binds
exactly one following factor or parenthesized group, so "a/b c" parses as
(a/b)*c.  Symbols resolve against the registry with bare-symbol priority:
a prefixed reading ("mN" = milli-newton) is used only when the bare symbol
does not exist; prefixes are matched longest first ("da" before "d").
The micro sign and Greek mu are accepted as "u".

The parser builds no syntax tree and walks the tokens once.  Each rule
returns the scale of what it has read as a (mantissa, exponent) pair with
its dimension as an int key, not reduced.  Products and quotients combine
left to right as they are read, on mantissas kept normal floats, so each
rounds as it would in a float range without bounds, and a scale in the
float range is accepted whatever the order of its factors.  The first
unknown unit or power beyond the float range is raised only once the text
has parsed to its end, so a syntax error anywhere wins over it.  Keys
combine by the key rules of :mod:`.dimensions`, and the key is reduced
once, into the one :class:`Dimension` a parse builds.  Groups nest at most
``_MAX_GROUPS`` deep.

Every quantity is computed in SI units.  :func:`render_quantity` is the one
place that decides how a value is shown in a unit system: as it is, with an
SI label, or scaled by its kind's Gaussian factor, with a cm/g/s label.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .dimensions import (
    AMOUNT,
    CHARGE,
    CURRENT,
    DIMENSIONLESS,
    ELECTRIC_FIELD,
    ENERGY,
    FREQUENCY,
    GAUSSIAN_UNITS,
    LENGTH,
    LUMINOSITY,
    MAGNETIC_FIELD,
    MASS,
    PERMEABILITY,
    TEMPERATURE,
    TIME,
    Dimension,
    Quantity,
    UnsupportedKindError,
    _Key,
    _key_div,
    _key_mul,
    _key_pow,
    _reduced,
    format_dimension,
)

# The unit systems a quantity can be shown in; the values of the --units flag.
UNIT_SYSTEMS = ("si", "gaussian")


class UnitParseError(ValueError):
    """Base class for unit-expression parse failures."""


class EmptyInputError(UnitParseError):
    def __init__(self) -> None:
        super().__init__("empty unit expression")


class UnknownUnitError(UnitParseError):
    def __init__(self, symbol: str, position: int) -> None:
        self.symbol = symbol
        self.position = position
        super().__init__(f"unknown unit {symbol!r} at position {position}")


class UnitSyntaxError(UnitParseError):
    def __init__(self, position: int, expected: tuple[str, ...]) -> None:
        self.position = position
        self.expected = expected
        what = " or ".join(expected)
        super().__init__(f"syntax error at position {position}: expected {what}")


class UnitScaleError(UnitParseError):
    def __init__(self, text: str) -> None:
        super().__init__(f"the scale of {text!r} is beyond the float range")


class UnitEntry(NamedTuple):
    scale: float
    dimension: Dimension


_BASE_UNITS = {
    "m": UnitEntry(1.0, LENGTH),
    "kg": UnitEntry(1.0, MASS),
    "s": UnitEntry(1.0, TIME),
    "A": UnitEntry(1.0, CURRENT),
    "K": UnitEntry(1.0, TEMPERATURE),
    "mol": UnitEntry(1.0, AMOUNT),
    "cd": UnitEntry(1.0, LUMINOSITY),
}

_DERIVED_UNITS = {
    "Hz": UnitEntry(1.0, FREQUENCY),
    "N": UnitEntry(1.0, MASS * LENGTH / TIME**2),
    "J": UnitEntry(1.0, ENERGY),
    "W": UnitEntry(1.0, ENERGY / TIME),
    "C": UnitEntry(1.0, CHARGE),
    "V": UnitEntry(1.0, ELECTRIC_FIELD * LENGTH),
    "F": UnitEntry(1.0, CHARGE / (ELECTRIC_FIELD * LENGTH)),
    "T": UnitEntry(1.0, MAGNETIC_FIELD),
    "H": UnitEntry(1.0, PERMEABILITY * LENGTH),
    # Non-coherent entries carry their scale to the SI coherent unit.
    "eV": UnitEntry(1.602176634e-19, ENERGY),
    "g": UnitEntry(1e-3, MASS),
}

REGISTRY: dict[str, UnitEntry] = {**_BASE_UNITS, **_DERIVED_UNITS}

SI_PREFIXES: dict[str, float] = {
    "y": 1e-24,
    "z": 1e-21,
    "a": 1e-18,
    "f": 1e-15,
    "p": 1e-12,
    "n": 1e-9,
    "u": 1e-6,
    "m": 1e-3,
    "c": 1e-2,
    "d": 1e-1,
    "da": 1e1,
    "h": 1e2,
    "k": 1e3,
    "M": 1e6,
    "G": 1e9,
    "T": 1e12,
    "P": 1e15,
    "E": 1e18,
    "Z": 1e21,
    "Y": 1e24,
}


def _resolve_symbol(symbol: str) -> tuple[float, Dimension] | None:
    entry = REGISTRY.get(symbol)
    if entry is not None:
        return entry
    # No registry name holds a micro sign, so only a prefix needs normalizing.
    name = symbol.replace("µ", "u").replace("μ", "u")
    for plen in (2, 1):
        prefix, rest = name[:plen], name[plen:]
        factor = SI_PREFIXES.get(prefix)
        if factor is not None and rest in REGISTRY:
            entry = REGISTRY[rest]
            return factor * entry.scale, entry.dimension
    return None


# --- tokenizer -----------------------------------------------------------


# ASCII only: ``str.isdigit`` also accepts superscripts such as "²", which
# ``int`` rejects.
_DIGITS = frozenset("0123456789")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) triples.

    The kind is "sym", "int", "end", or the operator character itself.
    """
    tokens: list[tuple[str, str, int]] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "·":  # middle dot multiplication
            tokens.append(("*", "*", i))
            i += 1
            continue
        if ch in "*/^()+-":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch in _DIGITS:
            start = i
            while i < n and text[i] in _DIGITS:
                i += 1
            tokens.append(("int", text[start:i], start))
            continue
        if ch.isalpha():  # the micro sign and Greek mu are letters too
            start = i
            while i < n and text[i].isalpha():
                i += 1
            tokens.append(("sym", text[start:i], start))
            continue
        raise UnitSyntaxError(i, ("unit symbol", "operator"))
    tokens.append(("end", "", n))
    return tokens


def _exponent_int(text: str, position: int) -> int:
    """The value of an exponent's digits, which start at ``position``."""
    try:
        return int(text)
    except ValueError:  # more digits than ``int`` converts from a string
        limit = sys.get_int_max_str_digits()
        raise UnitSyntaxError(position, (f"exponent of at most {limit} digits",)) from None


# A mantissa is renormalized only when it leaves this band, so the product
# or quotient of two mantissas is always a normal float.
_LOW, _HIGH = 2.0**-300, 2.0**300

# The deepest nesting of parenthesized groups, far inside the recursion limit.
_MAX_GROUPS = 100


class _Parser:
    """Recursive descent that evaluates as it goes.

    Each rule returns (mantissa, exponent, key): the scale is ``mantissa *
    2**exponent``, the key the dimension's, which ``parse`` reduces.
    Products and quotients combine left to right on the mantissas, which
    stay normal floats, so each rounds as the float operation would if the
    float range had no bounds.  A power is taken on the scale's float value.
    The first unknown unit or power out of the float range is kept and
    raised only once the text has parsed to its end, so that a syntax error
    anywhere wins over it.
    """

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.error: UnitParseError | None = None

    def parse(self) -> tuple[float, int, Dimension]:
        mantissa, exponent, key = self.expr()
        kind, _, position = self.tokens[self.pos]
        if kind != "end":
            raise UnitSyntaxError(position, ("end of input",))
        if self.error is not None:
            raise self.error
        return mantissa, exponent, _reduced(key)

    def expr(self) -> tuple[float, int, _Key]:
        mantissa, exponent, key = self.factor()
        tokens = self.tokens
        while True:
            kind = tokens[self.pos][0]
            if kind == "/":
                self.pos += 1
                m, e, k = self.factor()
                mantissa, exponent, key = mantissa / m, exponent - e, _key_div(key, k)
            elif kind == "*" or kind == "sym" or kind == "int" or kind == "(":
                if kind == "*":
                    self.pos += 1
                m, e, k = self.factor()
                mantissa, exponent, key = mantissa * m, exponent + e, _key_mul(key, k)
            else:
                return mantissa, exponent, key
            if not _LOW < mantissa < _HIGH:
                mantissa, shift = math.frexp(mantissa)
                exponent += shift

    def factor(self) -> tuple[float, int, _Key]:
        mantissa, exponent, key = self.primary()
        if self.tokens[self.pos][0] != "^":
            return mantissa, exponent, key
        self.pos += 1
        n, k = self.exponent()
        key = _key_pow(key, n, k)
        try:
            scale = math.ldexp(mantissa, exponent) ** (n / k)
        except ArithmeticError:
            scale = 0.0
        if _LOW < scale < _HIGH:
            return scale, 0, key
        if not 0.0 < scale < math.inf:
            self.error = self.error or UnitScaleError(self.text)
            return 1.0, 0, key
        mantissa, exponent = math.frexp(scale)
        return mantissa, exponent, key

    def primary(self) -> tuple[float, int, _Key]:
        kind, text, position = self.tokens[self.pos]
        if kind == "(":
            if self.depth == _MAX_GROUPS:
                raise UnitSyntaxError(position, (f"at most {_MAX_GROUPS} nested groups",))
            self.pos += 1
            self.depth += 1
            result = self.expr()
            kind, _, position = self.tokens[self.pos]
            if kind != ")":
                raise UnitSyntaxError(position, (")",))
            self.pos += 1
            self.depth -= 1
            return result
        if kind == "sym":
            self.pos += 1
            entry = _resolve_symbol(text)
            if entry is None:
                self.error = self.error or UnknownUnitError(text, position)
                return 1.0, 0, DIMENSIONLESS._key
            return entry[0], 0, entry[1]._key
        if kind == "int" and text == "1":
            self.pos += 1
            return 1.0, 0, DIMENSIONLESS._key
        raise UnitSyntaxError(position, ("unit symbol", "("))

    def exponent(self) -> tuple[int, int]:
        """The exponent as (numerator, denominator), signed numerator, denominator > 0."""
        sign = 1
        kind, text, position = self.tokens[self.pos]
        if kind == "+" or kind == "-":
            self.pos += 1
            if kind == "-":
                sign = -1
            kind, text, position = self.tokens[self.pos]
        if kind != "int":
            raise UnitSyntaxError(position, ("integer exponent",))
        self.pos += 1
        numerator = sign * _exponent_int(text, position)
        if self.tokens[self.pos][0] == "/":
            # Only a directly following integer makes this a rational exponent;
            # otherwise the slash belongs to the enclosing expression.
            kind, text, position = self.tokens[self.pos + 1]
            if kind == "int":
                denominator = _exponent_int(text, position)
                if denominator == 0:
                    raise UnitSyntaxError(position, ("nonzero exponent denominator",))
                self.pos += 2
                return numerator, denominator
        return numerator, 1


def parse_unit(text: str) -> tuple[float, Dimension]:
    """Parse a unit expression into (scale to the SI coherent unit, dimension)."""
    if not text or not text.strip():
        raise EmptyInputError()
    mantissa, exponent, dimension = _Parser(text).parse()
    try:
        scale = math.ldexp(mantissa, exponent)
    except OverflowError:
        raise UnitScaleError(text) from None
    if scale == 0.0:
        raise UnitScaleError(text)
    return scale, dimension


def quantity(magnitude: float, unit: str) -> Quantity:
    """Build an SI quantity from a magnitude and a unit expression."""
    scale, dimension = parse_unit(unit)
    return Quantity(magnitude * scale, dimension)


# --- formatting ----------------------------------------------------------

# ``format_dimension``'s order in cgs symbols; Gaussian dimensions have only these three.
_GAUSSIAN_ORDER = (("time", "s"), ("mass", "g"), ("length", "cm"))


def _unit(dimension: Dimension, units: str) -> tuple[float, str]:
    """The factor and label that show an SI value of ``dimension`` in ``units``."""
    if units == "si":
        return 1.0, format_dimension(dimension)
    if units != "gaussian":
        raise ValueError(f"unknown unit system {units!r}; choose from {', '.join(UNIT_SYSTEMS)}")
    entry = GAUSSIAN_UNITS.get(dimension)
    if entry is None:
        raise UnsupportedKindError(f"no Gaussian unit for the dimension [{dimension}]")
    return entry.factor, format_dimension(entry.dimension, _GAUSSIAN_ORDER)


def render_quantity(q: Quantity, units: str) -> tuple[float, str]:
    """The magnitude and unit label of the SI quantity ``q`` shown in ``units``.

    ``units`` is one of ``UNIT_SYSTEMS``.  In SI the magnitude is unchanged
    (a factor of 1.0 keeps every bit).  A dimension with no row in
    ``GAUSSIAN_UNITS`` has no Gaussian rendering and raises.
    """
    factor, label = _unit(q.dimension, units)
    return q.magnitude * factor, label
