import contextlib
import json
import math
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vacuumresponse.dimensions import (
    _FORMAT_ORDER,
    DIMENSIONLESS,
    LENGTH,
    PERMITTIVITY,
    Dimension,
)
from vacuumresponse import dimensions, units
from vacuumresponse.units import (
    EmptyInputError,
    UnitParseError,
    UnitScaleError,
    UnitSyntaxError,
    UnknownUnitError,
    format_dimension,
    parse_unit,
    quantity,
)

DATA = Path(__file__).parent / "data"

exponents = st.fractions(min_value=-6, max_value=6, max_denominator=4)
dims = st.builds(Dimension, *[exponents] * 7)

FIELDS = ("length", "mass", "time", "current", "temperature", "amount", "luminosity")


def format_from_exponents(d, order):
    """``format_dimension`` written on the public exponents, as ``Fraction`` values."""
    exponent = dict(zip(FIELDS, map(Fraction, d.as_tuple())))
    positive, negative = [], []
    for field, symbol in order:
        e = exponent[field]
        if e:
            power = symbol if abs(e) == 1 else f"{symbol}^{abs(e)}"
            (positive if e > 0 else negative).append(power)
    head = " ".join(positive) or "1"
    if not negative:
        return head
    return f"{head} / " + (negative[0] if len(negative) == 1 else f"({' '.join(negative)})")


class TestParse:
    def test_permittivity_unit(self):
        scale, dim = parse_unit("A s / (V m)")
        assert scale == 1.0
        assert dim == PERMITTIVITY

    def test_prefix(self):
        scale, dim = parse_unit("km")
        assert scale == 1000.0
        assert dim == LENGTH

    def test_unbalanced_group(self):
        with pytest.raises(UnitSyntaxError) as err:
            parse_unit("V/(m")
        assert err.value.position == 4
        assert ")" in err.value.expected

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            parse_unit("")
        with pytest.raises(EmptyInputError):
            parse_unit("   ")

    def test_unknown_unit_carries_position(self):
        with pytest.raises(UnknownUnitError) as err:
            parse_unit("m foo")
        assert err.value.symbol == "foo"
        assert err.value.position == 2

    def test_milli_scale_exact(self):
        assert parse_unit("mm")[0] == 1e-3
        assert parse_unit("mm")[1] == LENGTH

    def test_product_associativity(self):
        variants = ["m kg s", "(m kg) s", "m (kg s)", "m*kg*s", "m·kg·s"]
        results = [parse_unit(v) for v in variants]
        assert all(r == results[0] for r in results)

    def test_slash_binds_one_factor(self):
        # "a/b c" is (a/b)*c, not a/(b*c)
        _, dim = parse_unit("m/s kg")
        assert dim == parse_unit("(m/s) kg")[1]
        assert dim != parse_unit("m/(s kg)")[1]

    def test_derived_volt_matches_base_expansion(self):
        assert parse_unit("V")[1] == parse_unit("kg m^2 / (A s^3)")[1]

    @pytest.mark.parametrize(
        ("symbol", "exponents"),
        [
            ("Hz", (0, 0, -1, 0)),
            ("N", (1, 1, -2, 0)),
            ("J", (2, 1, -2, 0)),
            ("W", (2, 1, -3, 0)),
            ("C", (0, 0, 1, 1)),
            ("V", (2, 1, -3, -1)),
            ("F", (-2, -1, 4, 2)),
            ("T", (0, 1, -2, -1)),
            ("H", (2, 1, -2, -2)),
            ("eV", (2, 1, -2, 0)),
            ("g", (0, 1, 0, 0)),
        ],
    )
    def test_derived_unit_dimension_matches_exponent_table(self, symbol, exponents):
        length, mass, time, current = exponents
        want = Dimension(length=length, mass=mass, time=time, current=current)
        assert units.REGISTRY[symbol].dimension == want

    def test_rational_exponents(self):
        _, dim = parse_unit("m^1/2")
        assert dim == LENGTH ** Fraction(1, 2)
        _, dim = parse_unit("s^-2")
        assert dim == parse_unit("1/s^2")[1]

    def test_exponent_slash_disambiguation(self):
        # the slash after an exponent integer resumes the expression when the
        # next token is not an integer
        _, dim = parse_unit("m^2/s")
        assert dim == parse_unit("m^2 / s")[1]

    @pytest.mark.parametrize(
        ("text", "position"),
        [("m^" + "9" * 5000, 2), ("m^-" + "9" * 5000, 3), ("m^1/" + "9" * 5000, 4)],
        ids=["numerator", "negative-numerator", "denominator"],
    )
    def test_exponent_with_too_many_digits_is_a_syntax_error(self, text, position):
        # ``int`` converts at most sys.get_int_max_str_digits() digits (4300 by default).
        with pytest.raises(UnitSyntaxError) as err:
            parse_unit(text)
        assert err.value.position == position
        limit = sys.get_int_max_str_digits()
        assert err.value.expected == (f"exponent of at most {limit} digits",)

    def test_zero_exponent_denominator_is_a_syntax_error(self):
        with pytest.raises(UnitSyntaxError):
            parse_unit("m^1/0")

    def test_dangling_operators(self):
        with pytest.raises(UnitSyntaxError):
            parse_unit("m^")
        with pytest.raises(UnitSyntaxError):
            parse_unit("m/")
        with pytest.raises(UnitSyntaxError):
            parse_unit("()")

    def test_numbers_other_than_one_rejected(self):
        with pytest.raises(UnitSyntaxError) as err:
            parse_unit("2 m")
        assert err.value.position == 0

    def test_group_nesting_is_bounded(self):
        limit = 100
        assert parse_unit("(" * limit + "V/m" + ")" * limit)[1] == parse_unit("V/m")[1]
        assert parse_unit("(m)" * 3 * limit)[1] == Dimension(length=3 * limit)
        for depth in (limit + 1, 4 * limit):
            with pytest.raises(UnitSyntaxError) as err:
                parse_unit("(" * depth + "V/m" + ")" * depth)
            assert err.value.position == limit

    def test_micro_sign_aliases(self):
        for text in ("um", "µm", "μm"):
            scale, dim = parse_unit(text)
            assert scale == pytest.approx(1e-6)
            assert dim == LENGTH

    def test_bare_symbol_priority(self):
        # "cd" is the candela, not centi-day; "T" is the tesla, not tera.
        assert parse_unit("cd")[1] == Dimension(luminosity=Fraction(1))
        assert parse_unit("T")[1] == parse_unit("kg/(A s^2)")[1]

    def test_prefixed_compound_symbols(self):
        assert parse_unit("mN")[0] == pytest.approx(1e-3)
        assert parse_unit("dam")[0] == pytest.approx(10.0)
        assert parse_unit("MeV")[0] == pytest.approx(1e6 * parse_unit("eV")[0])

    def test_one_token(self):
        assert parse_unit("1") == (1.0, DIMENSIONLESS)
        assert parse_unit("1 / s")[1] == parse_unit("Hz")[1]

    def test_electronvolt_scale(self):
        scale, dim = parse_unit("eV")
        assert dim == parse_unit("J")[1]
        assert scale == pytest.approx(1.602176634e-19, rel=1e-15)

    def test_quantity_helper(self):
        q = quantity(2.0, "km")
        assert q.magnitude == 2000.0
        assert q.dimension == LENGTH


class TestFormat:
    def test_dimensionless(self):
        assert format_dimension(DIMENSIONLESS) == "1"

    def test_permittivity(self):
        assert format_dimension(PERMITTIVITY) == "A^2 s^4 / (kg m^3)"

    def test_half_power(self):
        assert format_dimension(LENGTH ** Fraction(1, 2)) == "m^1/2"

    def test_single_negative(self):
        assert format_dimension(DIMENSIONLESS / Dimension(time=Fraction(1))) == "1 / s"

    @given(d=dims)
    def test_round_trip_property(self, d):
        scale, parsed = parse_unit(format_dimension(d))
        assert scale == 1.0
        assert parsed == d

    def test_format_matches_the_exponent_oracle_seeded(self):
        # Zero, negative and mixed-denominator exponents, in both display orders.
        rng = random.Random(1602)
        denominators = (1, 1, 1, 2, 3, 4, 5, 6, 7, 12)

        def exponent():
            if rng.random() < 0.3:
                return 0
            return Fraction(rng.randint(-9, 9), rng.choice(denominators))

        for _ in range(30_000):
            d = Dimension(*(exponent() for _ in range(7)))
            assert format_dimension(d) == format_from_exponents(d, _FORMAT_ORDER)
            assert format_dimension(d, units._GAUSSIAN_ORDER) == format_from_exponents(
                d, units._GAUSSIAN_ORDER
            )

    def test_round_trip_thousand_cases_seeded(self):
        rng = random.Random(1859)
        for _ in range(1000):
            d = Dimension(
                *(
                    Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4)))
                    for _ in range(7)
                )
            )
            scale, parsed = parse_unit(format_dimension(d))
            assert scale == 1.0
            assert parsed == d


def _fixture(name):
    """The recorded entries of a fixture file, each with its text as the case id."""
    entries = json.loads((DATA / name).read_text(encoding="utf-8"))
    return [pytest.param(*entry, id=repr(entry[0])) for entry in entries]


class TestRecordedBehaviour:
    """Fixtures recorded from the parser that built a syntax tree and then
    evaluated it; every later parser must agree.

    ``unit_parse_corpus.json`` holds 300 seeded expressions (rational powers,
    groups, prefixes, both micro signs, the middle dot, ``^+2``, ``^1/2/s``)
    with ``repr(scale)`` and the exponents; ``unit_parse_errors.json`` holds
    malformed inputs with the error class, ``position`` and ``expected``.
    One seeded expression whose scale overflowed to ``inf`` moved to the
    errors as a ``UnitScaleError``; its corpus slot holds ``Ym^12 ym^12``, a
    product of two extreme scales that stays finite.  The last rows of both
    files were recorded from the token parser that the one-pattern item walk
    replaced: the valid ``1m^-1/2``, ``m1`` and ``m ^ + 2 / 3 s``, and 15
    errors at item boundaries, an operator before ``)`` or after ``(``
    (``(m *)``, ``(/ m)``), digits that are not a lone 1 (``1/2``, ``12 m``),
    a ``^`` with no factor or a second power (``m * ^2``, ``m (^2)``,
    ``(m^2^3)``, ``m^2/3^2``), a zero denominator after spaces (``m^1 /0``,
    ``m ^ 2 / 0``), a power with no integer (``(m) ^``, ``foo m^``), a
    non-letter in a letter run (``m² foo``, ``foo m²``) and an unclosed group
    after rational powers (``kg^3 m^6 / (A^11/2 s^11/2``).  Each case is
    named by its text, so moving an entry renames no other case.
    """

    @pytest.mark.parametrize("text, scale, exponents", _fixture("unit_parse_corpus.json"))
    def test_scale_and_exponents_bit_identical(self, text, scale, exponents):
        got_scale, dim = parse_unit(text)
        assert repr(got_scale) == scale
        assert [str(e) for e in dim.as_tuple()] == exponents

    @pytest.mark.parametrize("text, error, position, expected", _fixture("unit_parse_errors.json"))
    def test_malformed_input_error(self, text, error, position, expected):
        with pytest.raises(getattr(units, error)) as info:
            parse_unit(text)
        assert type(info.value) is getattr(units, error)
        assert getattr(info.value, "position", None) == position
        got = getattr(info.value, "expected", None)
        assert (list(got) if got is not None else None) == expected

    def test_syntax_error_wins_over_earlier_evaluation_errors(self):
        # "foo" is unknown, 1e24**1000 and 1e288 * 1e288 overflow, but the text does not parse.
        for text in ("foo (", "Ym^1000 (", "m/ym^1000 (", "Ym^12 Ym^12 ("):
            with pytest.raises(UnitSyntaxError):
                parse_unit(text)
        with pytest.raises(UnknownUnitError):
            parse_unit("foo m")

    @pytest.mark.parametrize("text", ["Ym^20", "m/ym^20"], ids=["overflow", "zero-division"])
    def test_scale_beyond_the_float_range_is_a_parse_error(self, text):
        with pytest.raises(UnitScaleError) as info:
            parse_unit(text)
        assert isinstance(info.value, UnitParseError)
        assert repr(text) in str(info.value)

    @pytest.mark.parametrize(
        ("text", "reordered"),
        [
            ("Ym^12 Ym^12/Ym^12", "Ym^12/Ym^12 Ym^12"),
            ("ym^12 ym^12/ym^12", "ym^12/ym^12 ym^12"),
            ("ym^12 ym/ym", "ym^12/ym ym"),
        ],
        ids=["product-overflows", "product-underflows", "product-subnormal"],
    )
    def test_scale_in_range_is_accepted_whatever_the_factor_order(self, text, reordered):
        # The product of the first two factors leaves the float range; the whole does not.
        scale, dim = parse_unit(text)
        expected_scale, expected_dim = parse_unit(reordered)
        assert scale == pytest.approx(expected_scale, rel=1e-15, abs=0)
        assert dim == expected_dim == Dimension(length=12)

    def test_evaluation_errors_keep_their_order_in_the_text(self):
        # 1e24**1000 overflows and 1e-24**14 underflows to zero: both are out of range.
        for text, error in (
            ("foo Ym^1000", UnknownUnitError),
            ("Ym^1000 foo", UnitScaleError),
            ("ym^14 foo", UnitScaleError),
        ):
            with pytest.raises(error):
                parse_unit(text)

    @pytest.mark.parametrize("text", ["A s / (V m)", "foo m", "foo (", "Ym^12 Ym^12/Ym^12"])
    def test_every_text_is_parsed_in_one_descent(self, monkeypatch, text):
        calls = []
        real = units._parse

        def counting(parsed):
            calls.append(parsed)
            return real(parsed)

        monkeypatch.setattr(units, "_parse", counting)
        with contextlib.suppress(UnitParseError):
            parse_unit(text)
        assert len(calls) == 1

    def test_exponent_digits_are_ascii(self):
        with pytest.raises(UnitSyntaxError) as info:
            parse_unit("m^\u00b2")
        assert info.value.position == 2
        assert info.value.expected == ("unit symbol", "operator")

    def test_long_flat_product(self):
        scale, dim = parse_unit(" ".join(["s"] * 3000))
        assert scale == 1.0
        assert dim == Dimension(time=3000)


# Every code point but the surrogates, which no ``str`` from text holds.
_CODE_POINTS = [chr(c) for c in range(sys.maxunicode + 1) if not 0xD800 <= c <= 0xDFFF]


def test_whitespace_class_is_str_isspace():
    # The item pattern skips ``\s`` between tokens; the grammar skips what ``str.isspace`` accepts.
    space = re.compile(r"\s")
    matched = [ch for ch in _CODE_POINTS if space.fullmatch(ch)]
    assert matched == [ch for ch in _CODE_POINTS if ch.isspace()]
    assert len(matched) == 29


def test_symbol_class_holds_every_letter_and_rejects_the_rest():
    # A one-character item whose primary is the character itself, other than "1", "(" and ")".
    symbols = set()
    for ch in _CODE_POINTS:
        item = units._ITEM.match(ch)
        if item and item.group(2) == ch and ch not in "1()":
            symbols.add(ch)
    assert {ch for ch in _CODE_POINTS if ch.isalpha()} <= symbols
    for ch in sorted(ch for ch in symbols if not ch.isalpha()):  # "²", "½", ...
        with pytest.raises(UnitSyntaxError) as info:
            parse_unit("m" + ch)
        assert (info.value.position, info.value.expected) == (1, ("unit symbol", "operator")), ch


_tokens = st.one_of(
    st.sampled_from(["^", "+", "-", "*", "/", "\u00b7", "(", ")", " ", "\t", "\u00b2", "_"]),
    st.sampled_from(["m", "kg", "foo", "\u00b5s", "1"]),
    st.integers(0, 10**6).map(str),
)


@settings(max_examples=600, deadline=None)
@given(text=st.lists(_tokens, min_size=1, max_size=12).map("".join))
def test_an_error_position_is_the_end_or_a_token_start(text):
    try:
        parse_unit(text)
    except UnitParseError as err:  # an empty text or a scale error has no position
        position = getattr(err, "position", len(text))
    else:
        return
    assert 0 <= position <= len(text)
    if position == len(text):
        return
    assert not text[position].isspace(), (text, position)
    pair = text[max(position - 1, 0) : position + 1]
    if len(pair) == 2:  # not inside a letter run or an ASCII digit run
        assert not pair.isalpha(), (text, position)
        assert not (pair.isascii() and pair.isdigit()), (text, position)


def test_unit_expression_path_builds_no_fraction(monkeypatch):
    # Parsing, combining and formatting work on int exponent keys alone.
    other = Dimension(length=Fraction(1, 3), time=2)
    calls = []
    real = Fraction.__new__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    assert Fraction(1, 2).denominator == 2 and len(calls) == 1
    calls.clear()
    _, dim = parse_unit("m^1/2 kg^3/7 / s^2")
    product = dim * other
    quotient = product / dim
    assert format_dimension(quotient) == "s^2 m^1/3"
    assert calls == []


@pytest.mark.parametrize(
    "text",
    ["A^1/12 s^13/12 K^1/6 mol^1/4 / (kg^1/6 m^1/3)", "((m^2/4)^3/6 s)^5/10 / kg^1/3"],
)
def test_a_parse_builds_one_dimension(monkeypatch, text):
    # The parser combines int keys and makes a Dimension only for its result.
    calls = []
    real = dimensions._make

    def counting(key):
        calls.append(key)
        return real(key)

    monkeypatch.setattr(dimensions, "_make", counting)
    parse_unit(text)
    assert len(calls) <= 1


# A term is (text, dimension, log2 of the scale, whether each power's base and value are in range).
_PREFIXES = ["", *units.SI_PREFIXES, "\u00b5", "\u03bc"]
_powers = st.none() | st.tuples(st.integers(-4, 4), st.integers(1, 4))
_joiners = st.sampled_from(["*", "/", " ", "\u00b7"])
_IN_RANGE = 1000  # bits of scale, well inside the float range either way


def _raised(text, dim, log2, ok, power):
    if power is None:
        return text, dim, log2, ok
    n, k = power
    text += f"^{n}" if k == 1 else f"^{n}/{k}"
    raised = log2 * n / k
    return text, dim ** Fraction(n, k), raised, ok and max(abs(log2), abs(raised)) < _IN_RANGE


def _symbol(prefix, symbol, power):
    entry = units.REGISTRY[symbol]
    name = prefix.replace("\u00b5", "u").replace("\u03bc", "u")
    scale = units.SI_PREFIXES.get(name, 1.0) * entry.scale
    return _raised(prefix + symbol, entry.dimension, math.log2(scale), True, power)


def _fold(first, rest):
    """The public ``*`` and ``/`` folded left to right; "/" takes one factor."""
    text, dim, log2, ok = first
    for joiner, (t, d, lg, good) in rest:
        text += joiner + t
        dim, log2 = (dim / d, log2 - lg) if joiner == "/" else (dim * d, log2 + lg)
        ok = ok and good
    return text, dim, log2, ok


def _group(first, rest, power):
    text, dim, log2, ok = _fold(first, rest)
    return _raised(f"({text})", dim, log2, ok, power)


_symbols = st.builds(
    _symbol, st.sampled_from(_PREFIXES), st.sampled_from(sorted(units.REGISTRY)), _powers
)
_factors = st.recursive(
    _symbols,
    lambda inner: st.builds(
        _group, inner, st.lists(st.tuples(_joiners, inner), max_size=3), _powers
    ),
    max_leaves=12,
)


@settings(max_examples=400, deadline=None)
@given(first=_factors, rest=st.lists(st.tuples(_joiners, _factors), max_size=5))
def test_parse_matches_the_public_algebra(first, rest):
    text, expected, log2, ok = _fold(first, rest)
    try:
        _, dim = parse_unit(text)
    except UnitScaleError:
        assert not (ok and abs(log2) < _IN_RANGE), text
        return
    assert dim == expected, text
    assert parse_unit(format_dimension(dim))[1] == dim


def test_every_prefix_with_every_registry_name_reads_as_its_preferred_reading():
    # Oracle: each way to split the text into a prefix and a registry name;
    # a bare name wins, else the longest prefix, scaled by the prefix's factor.
    micro = units.SI_PREFIXES["u"]
    factors = {**units.SI_PREFIXES, "\u00b5": micro, "\u03bc": micro}
    readings = {}
    for prefix in _PREFIXES:
        for name, entry in units.REGISTRY.items():
            readings.setdefault(prefix + name, []).append((prefix, entry))
    for text, options in readings.items():
        bare = [entry for prefix, entry in options if not prefix]
        if bare:
            scale, dim = bare[0].scale, bare[0].dimension
        else:
            prefix, entry = max(options, key=lambda option: len(option[0]))
            scale, dim = factors[prefix] * entry.scale, entry.dimension
        got_scale, got_dim = parse_unit(text)
        assert (got_scale.hex(), got_dim) == (scale.hex(), dim), text
    assert units._SYMBOLS.keys() == readings.keys()
