"""Exact dimensional algebra over the seven SI base dimensions.

A :class:`Dimension` is a vector of exact rational exponents over
(length, mass, time, electric current, temperature, amount of substance,
luminous intensity).  Multiplication, division and rational powers act
component-wise on the exponents, so dimensions form an abelian group with
the dimensionless vector as identity.  Exponents stay exact, because the
unit parser accepts any rational power (``m^1/7``) and half-integer
exponents occur both in Gaussian electromagnetic dimensions and in
square-root geometry factors; floats would silently lose exactness.

Each dimension stores one canonical key of plain ints, ``(den, n_length,
..., n_luminosity)``: exponent i is ``n_i / den``, where ``den`` is a
common denominator of this one dimension (not a fixed global one, which
would cap the powers it can hold) and the key is divided by ``gcd(den, n_1,
..., n_7)``.  So the key is exact and unique per vector, and the arithmetic
that makes a new dimension adds, multiplies and hashes small ints at C
speed, with no :class:`~fractions.Fraction` on the way.  Keys combine by
one rule, written once: ``_key_mul_pow(a, b, n, k)`` is the key of
a·b^(n/k), not reduced.  A product is ``(1, 1)``, a quotient ``(-1, 1)``,
and the power ``n/k`` of a key is the rule on the dimensionless key
``_ONE``.  ``_reduced`` is the only function that makes a key canonical:
``*``, ``/`` and ``**`` call it at once, the unit parser once per text.
:func:`format_dimension` reduces each ``n_i/den`` with ``gcd`` as it
writes it.  ``Fraction`` appears only at the public edge:
``Dimension(...)`` and ``**`` accept one, and the public exponents
(:meth:`Dimension.as_tuple`, ``.length`` and the other components) are
``int`` when integral and a reduced ``Fraction`` otherwise, built from the
key when read.

A dimension is a plain immutable value: two dimensions are equal, and hash
alike, when their canonical keys are equal, whichever route made them.  No
table of live dimensions or of past results is kept, so pickling, copying
and threads need nothing special.  A report checks dimensions once per
convention, not once per row, so each operation does its key arithmetic
again rather than look up an earlier result.  A dimension is shown one way,
as the unit string of :func:`format_dimension`, which ``str`` also gives.

A :class:`Quantity` binds a finite real magnitude to a dimension; every
quantity is in SI units.  Arithmetic on quantities enforces dimensional
consistency and rejects non-finite magnitudes, including overflow, at the
operation that produced them.

Gaussian units are a way of showing a value, not a second dimensional
algebra: Gaussian dimensions are a non-injective image of the SI ones
(electric and magnetic field collapse onto the same dimension), so a
conversion is only well defined per physical kind.  ``GAUSSIAN_UNITS`` maps
the SI dimension of each supported kind to its Gaussian dimension and
factor, each derived from the SI exponents by one substitution rule, and
the unit module renders a quantity through it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from math import gcd, lcm

# Annotations only: ``typing`` is never loaded at run time, and a Fraction is
# imported where one is made or may be given, so int exponents never load it.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction

    Rational = int | Fraction

_BASE_FIELDS = (
    "length",
    "mass",
    "time",
    "current",
    "temperature",
    "amount",
    "luminosity",
)


class DimensionMismatchError(ValueError):
    """Operation combined quantities of incompatible dimension."""


class NonFiniteError(ValueError):
    """A quantity magnitude was NaN or infinite."""


class DivisionByZeroError(NonFiniteError, ZeroDivisionError):
    """A magnitude was divided by zero; callers may catch either base."""


class NegativeBaseError(ValueError):
    """Fractional power of a negative magnitude."""


class UnsupportedKindError(ValueError):
    """No Gaussian conversion exists for the quantity's dimension."""


def _exponent(value: Rational, field: str) -> Rational:
    """Canonical exact exponent: ``int`` when integral, else a ``Fraction``."""
    if type(value) is int:
        return value
    from fractions import Fraction
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise TypeError(
        f"dimension exponent {field!r} must be int or Fraction, got {type(value).__name__}"
    )


# A dimension's canonical key is ``(den, n_length, ..., n_luminosity)``, all
# ``int``: exponent i is ``n_i / den``, ``den >= 1`` and
# ``gcd(den, n_length, ..., n_luminosity) == 1``.
_Key = tuple[int, ...]


def _make(key: _Key) -> Dimension:
    """The dimension with this canonical key."""
    dim = object.__new__(Dimension)
    dim._key = key
    return dim


def _reduced(key: _Key) -> Dimension:
    """The dimension of a key with ``den >= 1``: the one place a key is made canonical."""
    if key[0] != 1:  # an integral key has no common factor
        g = gcd(*key)
        if g != 1:
            return _make(tuple([n // g for n in key]))
    return _make(key)


# The key of the dimensionless vector: the start of every power.
_ONE: _Key = (1, 0, 0, 0, 0, 0, 0, 0)


def _key_mul_pow(a: _Key, b: _Key, n: int, k: int) -> _Key:
    """The key of ``a`` times ``b`` to the power ``n / k``, for ``k >= 1``, not reduced."""
    den, bk = a[0], b[0] * k
    if den == bk:
        return (den, a[1] + b[1] * n, a[2] + b[2] * n, a[3] + b[3] * n, a[4] + b[4] * n,
                a[5] + b[5] * n, a[6] + b[6] * n, a[7] + b[7] * n)
    den = lcm(den, bk)
    f, g = den // a[0], den // bk * n
    return (den, a[1] * f + b[1] * g, a[2] * f + b[2] * g, a[3] * f + b[3] * g,
            a[4] * f + b[4] * g, a[5] * f + b[5] * g, a[6] * f + b[6] * g, a[7] * f + b[7] * g)


def _power(d: Dimension, numerator: int, denominator: int) -> Dimension:
    """``d`` to the power ``numerator / denominator``, for ints and ``denominator >= 1``."""
    return _reduced(_key_mul_pow(_ONE, d._key, numerator, denominator))


def _ratio(numerator: int, den: int) -> Rational:
    """One exponent in canonical form: ``int`` when integral, else a reduced ``Fraction``."""
    if den == 1:
        return numerator
    from fractions import Fraction
    value = Fraction(numerator, den)
    return value.numerator if value.denominator == 1 else value


def _component(index: int) -> property:
    return property(lambda self: _ratio(self._key[index], self._key[0]))


class Dimension:
    """Immutable vector of exact rational exponents over the seven SI base dimensions.

    Equality and hashing are by the canonical key.
    """

    __slots__ = ("_key",)

    def __new__(
        cls,
        length: Rational = 0,
        mass: Rational = 0,
        time: Rational = 0,
        current: Rational = 0,
        temperature: Rational = 0,
        amount: Rational = 0,
        luminosity: Rational = 0,
    ) -> Dimension:
        values = (length, mass, time, current, temperature, amount, luminosity)
        exponents = tuple(map(_exponent, values, _BASE_FIELDS))
        # The least common denominator of reduced exponents leaves no common factor.
        den = lcm(*[e.denominator for e in exponents])
        return _make((den, *[e.numerator * (den // e.denominator) for e in exponents]))

    length = _component(1)
    mass = _component(2)
    time = _component(3)
    current = _component(4)
    temperature = _component(5)
    amount = _component(6)
    luminosity = _component(7)

    def __reduce__(self) -> tuple:
        return _reduced, (self._key,)

    def as_tuple(self) -> tuple[Rational, ...]:
        key = self._key
        return tuple([_ratio(n, key[0]) for n in key[1:]])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dimension):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __mul__(self, other: Dimension) -> Dimension:
        if not isinstance(other, Dimension):
            return NotImplemented
        return _reduced(_key_mul_pow(self._key, other._key, 1, 1))

    def __truediv__(self, other: Dimension) -> Dimension:
        if not isinstance(other, Dimension):
            return NotImplemented
        return _reduced(_key_mul_pow(self._key, other._key, -1, 1))

    def __pow__(self, exponent: Rational) -> Dimension:
        p = _exponent(exponent, "power")
        return _power(self, p.numerator, p.denominator)

    def inverse(self) -> Dimension:
        return _power(self, -1, 1)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={a!r}" for f, a in zip(_BASE_FIELDS, self.as_tuple()))
        return f"Dimension({fields})"

    def __str__(self) -> str:
        return format_dimension(self)


# Electromagnetic-first display order; renders the permittivity dimension as
# "A^2 s^4 / (kg m^3)", matching the house style of the constant tables.
_FORMAT_ORDER = (
    ("current", "A"),
    ("time", "s"),
    ("mass", "kg"),
    ("length", "m"),
    ("temperature", "K"),
    ("amount", "mol"),
    ("luminosity", "cd"),
)


# The position of each base dimension's numerator in a key.
_KEY_INDEX = {field: i for i, field in enumerate(_BASE_FIELDS, 1)}


def _format_power(symbol: str, numerator: int, den: int) -> str:
    """``symbol`` to the power ``numerator / den``, for ``numerator > 0``, in lowest terms."""
    if den != 1:
        g = gcd(numerator, den)
        if g != den:
            return f"{symbol}^{numerator // g}/{den // g}"
        numerator //= den
    if numerator == 1:
        return symbol
    return f"{symbol}^{numerator}"


def format_dimension(d: Dimension, order: tuple[tuple[str, str], ...] = _FORMAT_ORDER) -> str:
    """Render a dimension as a unit string, each base dimension by ``order``'s symbol.

    In the default SI order the string is canonical and re-parseable.
    """
    key = d._key
    den = key[0]
    positive: list[str] = []
    negative: list[str] = []
    for field, symbol in order:
        n = key[_KEY_INDEX[field]]
        if n > 0:
            positive.append(_format_power(symbol, n, den))
        elif n < 0:
            negative.append(_format_power(symbol, -n, den))
    head = " ".join(positive) if positive else "1"
    if not negative:
        return head
    tail = negative[0] if len(negative) == 1 else "(" + " ".join(negative) + ")"
    return f"{head} / {tail}"


DIMENSIONLESS = Dimension()
LENGTH = Dimension(length=1)
MASS = Dimension(mass=1)
TIME = Dimension(time=1)
CURRENT = Dimension(current=1)
TEMPERATURE = Dimension(temperature=1)
AMOUNT = Dimension(amount=1)
LUMINOSITY = Dimension(luminosity=1)

FREQUENCY = DIMENSIONLESS / TIME
SPEED = LENGTH / TIME
ENERGY = MASS * LENGTH**2 / TIME**2
CHARGE = CURRENT * TIME
ELECTRIC_FIELD = ENERGY / (CHARGE * LENGTH)
MAGNETIC_FIELD = MASS / (CHARGE * TIME)
ELECTRIC_DIPOLE = CHARGE * LENGTH
MAGNETIC_DIPOLE = CURRENT * LENGTH**2
POLARIZATION = CHARGE / LENGTH**2
MAGNETIZATION = CURRENT / LENGTH
PERMITTIVITY = CHARGE**2 / (ENERGY * LENGTH)
PERMEABILITY = (SPEED**2 * PERMITTIVITY).inverse()


# The ``_make`` of every checked record, a ``namedtuple`` subclass whose
# ``__new__`` checks its fields.  ``namedtuple``'s own ``_make`` builds the
# tuple directly, so ``_replace`` and ``copy.replace`` would skip the checks;
# this one builds through the class, as pickling and ``copy`` already do.
_checked_make = classmethod(lambda cls, values: cls(*values))


class Quantity:
    """A finite real magnitude bound to a dimension.

    Addition and subtraction require identical dimensions; multiplication
    and division combine dimensions; rational powers scale the exponent
    vector exactly.  Quantities are immutable, and non-finite magnitudes
    are rejected at construction, so arithmetic overflow surfaces
    immediately.  A quantity is not a tuple, so ``<`` and ``sorted`` refuse
    it rather than compare magnitudes of different dimensions.
    """

    __slots__ = ("magnitude", "dimension")

    magnitude: float
    dimension: Dimension

    def __init__(self, magnitude: float, dimension: Dimension = DIMENSIONLESS) -> None:
        value = float(magnitude)
        if not math.isfinite(value):
            raise NonFiniteError(f"quantity magnitude must be finite, got {value!r}")
        _set_magnitude(self, value)
        _set_dimension(self, dimension)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.magnitude == other.magnitude and self.dimension == other.dimension

    def __hash__(self) -> int:
        return hash((self.magnitude, self.dimension))

    def __repr__(self) -> str:
        return f"Quantity(magnitude={self.magnitude!r}, dimension={self.dimension!r})"

    def __reduce__(self) -> tuple:
        return Quantity, (self.magnitude, self.dimension)

    def _check_same(self, other: Quantity, op: str) -> None:
        if self.dimension != other.dimension:
            raise DimensionMismatchError(
                f"cannot {op} quantities of dimension [{self.dimension}] and [{other.dimension}]"
            )

    def __add__(self, other: Quantity) -> Quantity:
        if not isinstance(other, Quantity):
            return NotImplemented
        self._check_same(other, "add")
        return Quantity(self.magnitude + other.magnitude, self.dimension)

    def __sub__(self, other: Quantity) -> Quantity:
        if not isinstance(other, Quantity):
            return NotImplemented
        self._check_same(other, "subtract")
        return Quantity(self.magnitude - other.magnitude, self.dimension)

    def __neg__(self) -> Quantity:
        return Quantity(-self.magnitude, self.dimension)

    def __abs__(self) -> Quantity:
        return Quantity(abs(self.magnitude), self.dimension)

    def _coerce(self, other: object) -> Quantity | None:
        if isinstance(other, Quantity):
            return other
        if isinstance(other, (int, float)):
            return Quantity(float(other))
        return None

    def __mul__(self, other: object) -> Quantity:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return Quantity(self.magnitude * rhs.magnitude, self.dimension * rhs.dimension)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> Quantity:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        try:
            magnitude = self.magnitude / rhs.magnitude
        except ZeroDivisionError:
            raise DivisionByZeroError(
                f"quantity magnitude divided by zero: {self.magnitude!r} / 0.0"
            ) from None
        return Quantity(magnitude, self.dimension / rhs.dimension)

    def __rtruediv__(self, other: object) -> Quantity:
        lhs = self._coerce(other)
        if lhs is None:
            return NotImplemented
        return lhs.__truediv__(self)

    def __pow__(self, exponent: Rational) -> Quantity:
        p = _exponent(exponent, "power")
        return _quantity_power(self, p.numerator, p.denominator)

    def __str__(self) -> str:
        return f"{self.magnitude:.12g} [{self.dimension}]"


def _quantity_power(q: Quantity, numerator: int, denominator: int) -> Quantity:
    """``q`` to the power ``numerator / denominator``, in lowest terms with ``denominator >= 1``."""
    dim = _power(q.dimension, numerator, denominator)
    m, p = q.magnitude, numerator if denominator == 1 else f"{numerator}/{denominator}"
    if denominator != 1 and m < 0:
        raise NegativeBaseError(f"fractional power {p} of negative magnitude {m!r}")
    try:
        # A float power of an int exponent converts it to float, so this is
        # the operation whether the exponent is integral or not.
        magnitude = m ** (numerator / denominator)
    except OverflowError:
        raise NonFiniteError(f"quantity magnitude overflowed: {m!r} ** {p}") from None
    except ZeroDivisionError:
        raise DivisionByZeroError(f"quantity magnitude divided by zero: {m!r} ** {p}") from None
    return Quantity(magnitude, dim)


# The slot setters, which bypass ``Quantity``'s assignment guard on the hot
# path of construction.
_set_magnitude = Quantity.magnitude.__set__
_set_dimension = Quantity.dimension.__set__


# How a value of one SI dimension is expressed in Gaussian units: the SI
# magnitude times ``factor`` is the Gaussian magnitude, of ``dimension``.
GaussianUnit = namedtuple("GaussianUnit", "dimension factor")


# The numeral of the defined SI light speed in m/s.
_C = 299_792_458


def _gaussian(si: Dimension, magnetic: int) -> GaussianUnit:
    """The Gaussian unit of the kind of SI dimension ``si``, by one substitution.

    Jackson, *Classical Electrodynamics*, 3rd ed., Appendix, Tables 3 and 4:
    m -> 100 cm, kg -> 1000 g and A -> 10 c statA, with statA = g^1/2 cm^3/2
    s^-2, and a magnetic kind carries ``magnetic`` more powers of c cm/s,
    where c is ``_C``.  The m, kg, s and A exponents of ``si`` are ints, so
    the factor 10^tens c^cs is one quotient of ints, which Python rounds
    correctly, and the Gaussian dimension is one key of doubled exponents.
    """
    _, length, mass, time, current = si._key[:5]
    tens, cs = 2 * length + 3 * mass + current + 2 * magnetic, current + magnetic
    factor = (10 ** max(tens, 0) * _C ** max(cs, 0)) / (10 ** max(-tens, 0) * _C ** max(-cs, 0))
    doubled = (2, 2 * length + 3 * current + 2 * magnetic, 2 * mass + current,
               2 * time - 4 * current - 2 * magnetic, 0, 0, 0, 0)
    return GaussianUnit(_reduced(doubled), factor)


# Keyed on the SI dimension, which identifies the physical kind: each kind
# here has its own SI dimension, while electric and magnetic field (among
# others) share one Gaussian dimension.  A magnetic kind cannot be told from
# its SI dimension alone, so each kind's power of c cm/s is given here.
GAUSSIAN_UNITS: dict[Dimension, GaussianUnit] = {
    kind: _gaussian(kind, magnetic) for kind, magnetic in (
        (CHARGE, 0), (ELECTRIC_FIELD, 0), (MAGNETIC_FIELD, 1), (ELECTRIC_DIPOLE, 0),
        (MAGNETIC_DIPOLE, -1), (POLARIZATION, 0), (MAGNETIZATION, -1), (PERMITTIVITY, 0),
        (PERMEABILITY, 0), (ENERGY, 0), (LENGTH, 0), (MASS, 0), (SPEED, 0), (FREQUENCY, 0),
        (DIMENSIONLESS, 0),
    )
}
