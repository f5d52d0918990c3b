import contextlib
import csv
import io
import json
import math
import random
import re
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction
from xml.sax.saxutils import escape

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from vacuumresponse import report
from vacuumresponse import units as units_module
from vacuumresponse.cli import main
from vacuumresponse.constants import default_registry
from vacuumresponse.dimensions import (
    DIMENSIONLESS,
    LENGTH,
    PERMEABILITY,
    PERMITTIVITY,
    Dimension,
    Quantity,
)
from vacuumresponse.model import OscillatorParams, VolumeConvention, vacuum_response
from vacuumresponse.report import (
    COLUMN_DIMENSIONS,
    CONVENTION_TOKENS,
    CSV_HEADER,
    MAX_SWEEP_ROWS,
    ReportRow,
    SweepConfig,
    build_row,
    rows_to_csv,
    rows_to_json,
    sweep_rows,
)
from vacuumresponse.species import SpeciesModel, required_species_count
from vacuumresponse.svgchart import Series, sweep_chart

FLOAT_CELL = re.compile(r"^-?\d\.\d{11}e[+-]\d{2,3}$")


class TestRows:
    def test_cube_ratios_match_deviation_factor(self, registry):
        alpha = registry.value("alpha")
        for kappa, expected in ((1.0, 4 * math.pi * alpha), (2.0, 8 * math.pi * alpha)):
            row = build_row(kappa, "cube", 2.0, registry)
            assert row.eps_ratio == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("convention", ["cube", "sphere"])
    @pytest.mark.parametrize("g", [1.0, 2.0])
    def test_closure_rows_ratio_product(self, registry, convention, g):
        row = build_row(1.7, convention, g, registry)
        assert row.eps_ratio * row.mu_ratio == pytest.approx(1.0, rel=1e-12)

    def test_pinned_radius_rows_do_not_close(self, registry):
        row = build_row(2.0, "cube-compton", 2.0, registry)
        assert abs(row.eps_ratio * row.mu_ratio - 1.0) > 0.1

    def test_sweep_grid_order(self, registry):
        config = SweepConfig(
            kappa_min=1.0, kappa_max=2.0, points=2,
            conventions=("cube", "sphere"), g_factors=(1.0, 2.0),
        )
        rows = sweep_rows(config, registry)
        key = [(r.kappa, r.convention, r.g) for r in rows]
        assert key == [
            (1.0, "cube", 1.0),
            (1.0, "cube", 2.0),
            (1.0, "sphere", 1.0),
            (1.0, "sphere", 2.0),
            (2.0, "cube", 1.0),
            (2.0, "cube", 2.0),
            (2.0, "sphere", 1.0),
            (2.0, "sphere", 2.0),
        ]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(kappa_min=0.0)
        with pytest.raises(ValueError):
            SweepConfig(points=1)
        with pytest.raises(ValueError):
            SweepConfig(conventions=())
        with pytest.raises(ValueError):
            SweepConfig(conventions=("dodecahedron",))
        with pytest.raises(ValueError):
            SweepConfig(g_factors=())

    @pytest.mark.parametrize(
        ("kwargs", "message"),
        [
            ({"conventions": ("cube", "sphere", "cube")}, "'cube' is given more than once"),
            ({"g_factors": (2, 1.0, 2.0)}, "g-factor 2 is given more than once"),
        ],
        ids=["convention", "g-factor"],
    )
    def test_config_rejects_repeated_tokens(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            SweepConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kappa_min": math.nan},
            {"kappa_max": math.nan},
            {"kappa_max": math.inf},
            {"kappa_min": -math.inf},
            {"g_factors": (2.0, math.inf)},
            {"g_factors": (math.nan,)},
            {"g_factors": (0.0,)},
            {"g_factors": (-1.0,)},
        ],
    )
    def test_config_rejects_non_finite_and_non_positive_bounds(self, kwargs):
        with pytest.raises(ValueError):
            SweepConfig(**kwargs)

    @pytest.mark.parametrize("points", [2.5, 2.0, True])
    def test_config_rejects_points_that_are_not_ints(self, points):
        with pytest.raises(ValueError, match="points"):
            SweepConfig(points=points)

    def test_config_bounds_the_number_of_rows(self):
        grid = {"conventions": tuple(CONVENTION_TOKENS), "g_factors": (1.0, 2.0)}
        SweepConfig(points=MAX_SWEEP_ROWS // 8, **grid)
        with pytest.raises(ValueError, match=f"exceeds the limit of {MAX_SWEEP_ROWS}"):
            SweepConfig(points=MAX_SWEEP_ROWS // 8 + 1, **grid)

    def test_rows_hold_floats_whose_dimensions_the_schema_names(self, registry):
        config = SweepConfig(points=3, conventions=tuple(CONVENTION_TOKENS), g_factors=(1.0, 2.0))
        for row in sweep_rows(config, registry):
            assert [type(cell) for cell in row[2:]] == [float] * 8, row
        assert COLUMN_DIMENSIONS == (PERMITTIVITY, PERMEABILITY, LENGTH)

    @pytest.mark.parametrize("convention", CONVENTION_TOKENS)
    @pytest.mark.parametrize("g", [1.0, 2.0])
    def test_the_model_gives_the_schema_dimensions(self, registry, convention, g):
        params = OscillatorParams.for_electron(1.3, g, VolumeConvention(convention), registry)
        response = vacuum_response(params, registry)
        columns = (response.eps_tilde, response.mu_tilde, response.radius)
        assert tuple(q.dimension for q in columns) == COLUMN_DIMENSIONS
        assert (response.eps_tilde / registry.quantity("eps0")).dimension == DIMENSIONLESS
        assert (response.mu_tilde / registry.quantity("mu0")).dimension == DIMENSIONLESS

    @pytest.mark.parametrize("convention", CONVENTION_TOKENS)
    def test_row_evaluates_omega0_once(self, registry, omega0_calls, convention):
        build_row(1.3, convention, 2.0, registry)
        assert len(omega0_calls) == 1

    @pytest.mark.parametrize("token", ["ball", "CUBE", VolumeConvention.CUBE])
    def test_a_row_refuses_what_is_not_a_convention_token(self, registry, token):
        # A member is not a token: it would be written as the row's convention cell.
        with pytest.raises(ValueError) as caught:
            build_row(1.3, token, 2.0, registry)
        choices = "cube, cube-compton, cube-half-compton, sphere"
        assert str(caught.value) == f"unknown convention {token!r}; choose from {choices}"


def _bits(row):
    """The row's cells, each float as its hex string."""
    return tuple(cell.hex() if isinstance(cell, float) else cell for cell in row)


def _reference(kappa, convention, g, registry):
    """The row computed on Quantities, by ``vacuum_response`` and ``required_species_count``."""
    params = OscillatorParams.for_electron(kappa, g, VolumeConvention(convention), registry)
    response = vacuum_response(params, registry)
    return ReportRow(
        kappa, convention, g,
        response.eps_tilde.magnitude, response.mu_tilde.magnitude, response.radius.magnitude,
        response.eps_ratio, response.mu_ratio,
        required_species_count(kappa, SpeciesModel.SIMPLE, registry),
        required_species_count(kappa, SpeciesModel.SPHERE, registry),
    )


def _outcome(make, kappa, convention, g, registry):
    """The bits of the row, or the exception that making it raises."""
    try:
        return _bits(make(kappa, convention, g, registry))
    except Exception as exc:
        return exc


def _agrees_with_the_reference(kappa, convention, g, registry):
    """``build_row`` gives the reference's bits, or raises where it raises.

    Returns whether the reference raised.
    """
    expected = _outcome(_reference, kappa, convention, g, registry)
    got = _outcome(build_row, kappa, convention, g, registry)
    where = (kappa, convention, g)
    if not isinstance(expected, Exception):
        assert got == expected, where
        return False
    if isinstance(got, ValueError):
        # The point is named, on one line.
        assert isinstance(expected, (ArithmeticError, ValueError)), (where, expected)
        point = f"kappa {kappa:g}, convention {convention}, g {g:g}: "
        assert str(got).startswith(point) and "\n" not in str(got), (where, got)
    else:
        # A type other than int and float, or an int beyond the float range.
        assert type(got) is type(expected), (where, got, expected)
    return True


class TestFloatRows:
    """A row runs on floats, and must give what the model gives on Quantities."""

    KAPPAS = [m * 10.0**e for e in range(-300, 281, 20) for m in (1.0, 3.7)]
    G_FACTORS = [10.0**e for e in range(-300, 301, 30)]

    def test_extreme_inputs_give_the_bits_or_the_error_of_the_reference(self, registry):
        raised = [
            _agrees_with_the_reference(kappa, convention, g, registry)
            for convention in CONVENTION_TOKENS
            for kappa in self.KAPPAS
            for g in self.G_FACTORS
        ]
        # The grid reaches both sides: rows that succeed and rows that raise.
        assert any(raised) and not all(raised)

    @pytest.mark.parametrize(
        ("kappa", "g"),
        [
            (2, 2), (True, 2.0), (10**400, 2.0), (2.0, -1.0), (-2.0, 2.0), (math.nan, 2.0),
            (2.0, math.inf), (Fraction(2), 2.0), (2.0, Fraction(2)), (2j, 2.0), (2.0, 2j),
        ],
    )
    def test_other_scalars_give_the_outcome_of_the_reference(self, registry, kappa, g):
        for convention in CONVENTION_TOKENS:
            _agrees_with_the_reference(kappa, convention, g, registry)

    def test_underflowing_gap_names_the_point(self, registry):
        assert _agrees_with_the_reference(1e-300, "cube", 2.0, registry)
        with pytest.raises(ValueError) as caught:
            build_row(1e-300, "cube", 2.0, registry)
        message = "kappa 1e-300, convention cube, g 2: the model leaves the float range"
        assert str(caught.value) == message

    @settings(max_examples=300, deadline=None)
    @given(
        kappa_exp=st.floats(min_value=-300.0, max_value=280.0),
        g_exp=st.floats(min_value=-300.0, max_value=300.0),
        convention=st.sampled_from(tuple(CONVENTION_TOKENS)),
    )
    def test_random_extreme_inputs(self, registry, kappa_exp, g_exp, convention):
        _agrees_with_the_reference(10.0**kappa_exp, convention, 10.0**g_exp, registry)

    # Each example undoes its own stub, so sharing monkeypatch is safe.
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        kappa_exp=st.floats(min_value=-323.0, max_value=308.0),
        decades=st.floats(min_value=0.0, max_value=12.0),
        points=st.integers(min_value=2, max_value=6),
        g_exps=st.lists(st.floats(min_value=-300.0, max_value=300.0), min_size=1, max_size=3),
        conventions=st.lists(
            st.sampled_from(tuple(CONVENTION_TOKENS)), min_size=1, max_size=4, unique=True
        ),
    )
    # Grids across the high end (cube, g = 1 and 2) and the low end (g = 2) of the range.
    @example(kappa_exp=84.0, decades=3.0, points=5, g_exps=[0.0, 0.3], conventions=["cube"])
    @example(kappa_exp=-117.0, decades=4.0, points=6, g_exps=[0.3], conventions=["sphere", "cube"])
    def test_a_sweep_raises_before_any_row_iff_a_grid_point_raises(
        self, registry, monkeypatch, kappa_exp, decades, points, g_exps, conventions
    ):
        kappa_min = 10.0**kappa_exp
        kappa_max = min(kappa_min * 10.0**decades, sys.float_info.max)
        g_factors = tuple(dict.fromkeys(10.0**e for e in g_exps))
        config = SweepConfig(kappa_min, kappa_max, points, tuple(conventions), g_factors)
        kappas = config.kappas()

        def error(kappa, convention, g):
            try:
                build_row(kappa, convention, g, registry)
            except ValueError as exc:
                return str(exc)
            return None

        failing = [
            (kappa, convention, g)
            for kappa in kappas for convention in conventions for g in g_factors
            if error(kappa, convention, g)
        ]
        corners = {
            error(kappa, convention, g)
            for kappa in (kappas[0], kappas[-1])
            for convention in conventions
            for g in (min(g_factors), max(g_factors))
        }
        made = []
        monkeypatch.setattr(report, "ReportRow", lambda *cells: made.append(cells))
        try:
            sweep_rows(config, registry)
        except ValueError as exc:
            assert failing, config
            assert str(exc) in corners and not made, (config, exc)
        else:
            assert not failing, (config, failing[0])
            assert len(made) == len(kappas) * len(conventions) * len(g_factors)
        finally:
            monkeypatch.undo()

    def test_dimension_ops_per_sweep_do_not_grow_with_its_rows(self, registry, monkeypatch):
        ops = []

        def counted(real):
            def op(*args):
                ops.append(real)
                return real(*args)

            return op

        for name in ("__mul__", "__truediv__", "__pow__", "inverse"):
            monkeypatch.setattr(Dimension, name, counted(getattr(Dimension, name)))

        def ops_for(points):
            ops.clear()
            config = SweepConfig(
                points=points, conventions=tuple(CONVENTION_TOKENS), g_factors=(1.0, 2.0)
            )
            sweep_rows(config, registry)
            return len(ops)

        assert ops_for(2) == ops_for(50) == 0


@settings(max_examples=200, deadline=None)
@given(
    kappa=st.floats(min_value=0.01, max_value=50.0),
    convention=st.sampled_from(tuple(CONVENTION_TOKENS)),
    g=st.sampled_from((0.5, 1.0, 2.0, 3.7)),
)
def test_row_columns_match_closed_forms(kappa, convention, g):
    reg = default_registry()
    c, hbar, m, q, alpha = (reg.value(k) for k in ("c", "hbar", "m_e", "e", "alpha"))
    w0 = kappa * m * c**2 / hbar
    r = {
        "cube": math.sqrt(2 / g) * c / w0,
        "cube-compton": hbar / (m * c),
        "cube-half-compton": hbar / (2 * m * c),
        "sphere": math.sqrt(5 / g) * c / w0,
    }[convention]
    if convention == "sphere":
        volume, mean_square = 4 * math.pi / 3 * r**3, 2 / 5 * r**2
    else:
        volume, mean_square = r**3, r**2
    eps = q**2 / (m * w0**2 * volume)
    mu = 2 * m * volume / (g * q**2 * mean_square)

    row = build_row(kappa, convention, g, reg)
    assert (row.kappa, row.convention, row.g) == (kappa, convention, g)
    assert row.radius == pytest.approx(r, rel=1e-12)
    assert row.eps_tilde == pytest.approx(eps, rel=1e-12)
    assert row.mu_tilde == pytest.approx(mu, rel=1e-12)
    assert row.eps_ratio == pytest.approx(eps / reg.value("eps0"), rel=1e-12)
    assert row.mu_ratio == pytest.approx(mu / reg.value("mu0"), rel=1e-12)
    assert row.count_simple == pytest.approx(1 / (4 * math.pi * alpha * kappa), rel=1e-12)
    assert row.count_sphere == pytest.approx(2.5**1.5 / (3 * alpha * kappa), rel=1e-12)
    if convention == "cube" and g == 2.0:
        assert row.eps_ratio == pytest.approx(4 * math.pi * alpha * kappa, rel=1e-12)


class TestSerialization:
    @pytest.fixture()
    def rows(self, registry):
        config = SweepConfig(kappa_min=1.0, kappa_max=2.0, points=3)
        return sweep_rows(config, registry)

    def test_csv_header_and_shape(self, rows):
        text = rows_to_csv(rows)
        assert text.startswith("kappa,convention,g,eps_tilde,mu_tilde,radius_m,"
                               "eps_ratio,mu_ratio,count_simple,count_sphere\r\n")
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed[0] == list(CSV_HEADER)
        assert len(parsed) == 1 + len(rows)

    def test_csv_float_cells_carry_twelve_significant_digits(self, rows):
        parsed = list(csv.reader(io.StringIO(rows_to_csv(rows))))
        for record in parsed[1:]:
            for index, cell in enumerate(record):
                if CSV_HEADER[index] in ("convention", "g"):
                    continue
                assert FLOAT_CELL.match(cell), cell

    def test_csv_uses_crlf_line_endings(self, rows):
        text = rows_to_csv(rows)
        assert "\r\n" in text
        assert text.replace("\r\n", "").count("\n") == 0

    def test_json_round_trips_and_matches_rows(self, rows):
        payload = json.loads(rows_to_json(rows))
        assert len(payload) == len(rows)
        for obj, row in zip(payload, rows):
            assert set(obj) == set(CSV_HEADER)
            assert obj["convention"] == row.convention
            assert obj["eps_tilde"] == pytest.approx(row.eps_tilde, rel=1e-11)
            assert obj["count_sphere"] == pytest.approx(row.count_sphere, rel=1e-11)

    def test_serialization_is_deterministic(self, registry):
        config = SweepConfig(points=5)
        first = rows_to_csv(sweep_rows(config, registry))
        second = rows_to_csv(sweep_rows(config, registry))
        assert first == second
        assert rows_to_json(sweep_rows(config, registry)) == rows_to_json(
            sweep_rows(config, registry)
        )

    def test_parallel_evaluation_matches_sequential(self, registry):
        # Grid points are pure functions of their inputs, so evaluating them
        # concurrently must reproduce the sequential rows exactly.
        from concurrent.futures import ThreadPoolExecutor

        config = SweepConfig(points=8, conventions=("cube", "sphere"))
        sequential = sweep_rows(config, registry)
        grid = [(k, conv, g) for k in config.kappas()
                for conv in config.conventions for g in config.g_factors]
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(lambda args: build_row(*args, registry), grid))
        assert rows_to_csv(parallel) == rows_to_csv(sequential)

    def test_gaussian_conversion_scales_dimensioned_cells(self, registry):
        row = build_row(2.0, "cube", 2.0, registry)
        si = json.loads(rows_to_json([row]))[0]
        gauss = json.loads(rows_to_json([row], "gaussian"))[0]
        c = 299792458.0
        assert gauss["eps_tilde"] == pytest.approx(si["eps_tilde"] * 1e-7 * c**2, rel=1e-11)
        assert gauss["mu_tilde"] == pytest.approx(si["mu_tilde"] * 1e3 / c**2, rel=1e-11)
        assert gauss["radius_cm"] == pytest.approx(si["radius_m"] * 100, rel=1e-11)
        assert "radius_m" not in gauss
        assert gauss["eps_ratio"] == si["eps_ratio"]
        assert gauss["count_sphere"] == si["count_sphere"]
        header = rows_to_csv([row], "gaussian").split("\r\n")[0].split(",")
        assert header == [*CSV_HEADER[:5], "radius_cm", *CSV_HEADER[6:]]

    @pytest.mark.parametrize("serialize", [rows_to_csv, rows_to_json])
    @pytest.mark.parametrize("units", ["si", "gaussian"])
    def test_render_lookups_per_payload_do_not_grow_with_its_rows(
        self, registry, monkeypatch, serialize, units
    ):
        lookups = []
        real = units_module._unit

        def counted(*args):
            lookups.append(args)
            return real(*args)

        monkeypatch.setattr(units_module, "_unit", counted)

        def lookups_for(points):
            config = SweepConfig(
                points=points, conventions=tuple(CONVENTION_TOKENS), g_factors=(1.0, 2.0)
            )
            rows = sweep_rows(config, registry)
            lookups.clear()
            serialize(rows, units)
            return len(lookups)

        assert lookups_for(2) == lookups_for(50) > 0


class TestSvgChart:
    @pytest.fixture()
    def chart(self, registry):
        config = SweepConfig(points=8, conventions=("cube", "sphere"))
        rows = sweep_rows(config, registry)
        series = [
            Series(token, [(r.kappa, r.eps_ratio) for r in rows if r.convention == token])
            for token in config.conventions
        ]
        return sweep_chart(series)

    def test_well_formed_xml_with_size(self, chart):
        root = ET.fromstring(chart)
        assert root.tag.endswith("svg")
        assert root.get("width") == "720"
        assert root.get("height") == "480"
        assert root.get("version") == "1.1"

    def test_one_polyline_per_series(self, chart):
        root = ET.fromstring(chart)
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 2

    def test_axes_have_numeric_tick_labels(self, chart):
        root = ET.fromstring(chart)
        texts = [el.text for el in root.iter() if el.tag.endswith("text")]
        numeric = [t for t in texts if t and re.fullmatch(r"-?\d+(\.\d+)?([eE]-?\d+)?", t)]
        assert len(numeric) >= 8

    def test_reference_line_present(self, chart):
        assert "stroke-dasharray" in chart

    def test_rejects_empty_series(self):
        with pytest.raises(ValueError):
            sweep_chart([])

    def test_labels_escaped_like_saxutils(self):
        labels = {
            "x": "x & <gap> \"ratio\" 'k'",
            "y": "y < 1 && y > 0 \"eps\" 'mu'",
            "reference": "<ref> & \"measured\" 'value'",
            "series": "cube & 'g' \"2\" <a>b",
        }
        chart = sweep_chart(
            [Series(labels["series"], [(1.0, 0.5), (2.0, 0.7)])],
            x_label=labels["x"],
            y_label=labels["y"],
            reference_y=1.0,
            reference_label=labels["reference"],
        )
        for label in labels.values():
            assert f">{escape(label)}</text>" in chart
        texts = {el.text for el in ET.fromstring(chart).iter() if el.tag.endswith("text")}
        assert set(labels.values()) <= texts


# A cell printed with 12 significant digits is within half a unit of its last
# digit, a relative error of at most 5e-12.  Each side of a law also takes at
# most 32 float roundings of 2**-53 each, in the model and in the test.
_PRINTED = 0.5e-11
_ROUNDINGS = 32 * 2.0**-53


@settings(max_examples=60, deadline=None)
@given(
    kappa=st.floats(0.25, 8.0),
    g_factors=st.lists(st.sampled_from([1.0, 2.0, 3.5]), min_size=1, unique=True),
    conventions=st.lists(st.sampled_from(sorted(CONVENTION_TOKENS)), min_size=1, unique=True),
)
def test_printed_si_rows_keep_the_papers_closed_forms(kappa, g_factors, conventions):
    # Both grid points are kappa itself, so each row's kappa is known exactly.
    argv = ["sweep", "--kappa-min", repr(kappa), "--kappa-max", repr(kappa), "--points", "2",
            "--g-factors", ",".join(map(repr, g_factors)), "--conventions", ",".join(conventions)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    rows = list(csv.DictReader(io.StringIO(stdout.getvalue())))
    assert len(rows) == 2 * len(g_factors) * len(conventions)
    alpha = default_registry().value("alpha")
    one, two = _PRINTED + _ROUNDINGS, 2 * _PRINTED + _ROUNDINGS
    eps_tilde = {}
    for row in rows:
        assert math.isclose(float(row["kappa"]), kappa, rel_tol=_PRINTED)
        convention, g = row["convention"], float(row["g"])
        assert math.isclose(float(row["count_simple"]) * 4 * math.pi * alpha * kappa, 1, rel_tol=one)
        assert math.isclose(float(row["count_sphere"]), 2.5**1.5 / (3 * alpha * kappa), rel_tol=one)
        if convention == "cube" and g == 2:
            assert math.isclose(float(row["eps_ratio"]), 4 * math.pi * alpha * kappa, rel_tol=one)
        eps_tilde[convention, g] = float(row["eps_tilde"])
    for g in g_factors:
        if ("cube-compton", g) in eps_tilde and ("cube-half-compton", g) in eps_tilde:
            half, full = eps_tilde["cube-half-compton", g], eps_tilde["cube-compton", g]
            assert math.isclose(half, 8 * full, rel_tol=two), (kappa, g)


# The same laws on build_row's floats, at full precision.  Two hold exactly:
# the half-Compton radius is the Compton one halved, which scales eps_tilde by
# exactly 8, and count_sphere is computed as its closed form.  Each other law
# has a budget of relative errors of U = 2**-53 counted from the operations on
# both of its sides: one U for each rounded *, / and sqrt, two for each libm
# ``**`` (within one ULP), each times the power with which its result enters
# the law.  A value used on both sides of a law, such as w0 or the volume that
# eps and mu share, enters with the power that is left after they cancel.
U = 2.0**-53
BUDGET = {
    # the model's 1 / (4 pi alpha kappa): 3; the test's product: 3.
    "count_simple": 6,
    # alpha = e**2 / (4 pi eps0 hbar c): 6; w0 = kappa m c**2 / hbar: 5, to
    # the power 1; w0**2: 2; the radius c / w0: 1, cubed: 3; radius**3: 2;
    # eps = e**2 / (m w0**2 V): 2 + 3; eps / eps0: 1; the test's 4 pi alpha kappa: 2.
    "eps_ratio": 26,
    # e**2 twice: 4; w0**2: 2; eps: 3; mu = 2 m V / (g e**2 rho2): 4; the
    # radius sqrt(k / g) c / w0: 1 + 1 + 1 + 1, squared in rho2: 7; rho2 =
    # radius**2: 2, for the sphere also times 2/5, itself rounded: 2; the
    # test's eps mu c**2: 4.
    "eps_mu_c2": {"cube": 26, "sphere": 28},
    # the model's eps mu as above: 22 or 24; the two ratios: 2; the test's
    # product: 1 and 1 / (eps0 mu0 c**2): 5.
    "ratio_product": {"cube": 30, "sphere": 32},
}


def _within(value, exact, roundings):
    return abs(value - exact) <= roundings * U * abs(exact)


def test_rows_keep_the_papers_laws_at_full_precision(registry):
    alpha, c, eps0, mu0 = (registry.value(key) for key in ("alpha", "c", "eps0", "mu0"))
    rng = random.Random("the paper's laws at full precision")
    for _ in range(1500):
        kappa = 10 ** (4 * rng.random() - 2)
        g = rng.choice((1.0, 2.0, 3.5)) if rng.random() < 0.5 else 0.1 + 9.9 * rng.random()
        rows = {token: build_row(kappa, token, g, registry) for token in CONVENTION_TOKENS}
        where = (kappa, g)
        assert rows["cube-half-compton"].eps_tilde == 8 * rows["cube-compton"].eps_tilde, where
        for row in rows.values():
            assert row.count_sphere == 2.5**1.5 / (3 * alpha * kappa), where
            count = row.count_simple * 4 * math.pi * alpha * kappa
            assert _within(count, 1, BUDGET["count_simple"]), where
        for token in ("cube", "sphere"):
            eps, mu = rows[token].eps_tilde, rows[token].mu_tilde
            assert _within(eps * mu * c**2, 1, BUDGET["eps_mu_c2"][token]), where
            ratios = rows[token].eps_ratio * rows[token].mu_ratio
            assert _within(ratios, 1 / (eps0 * mu0 * c**2), BUDGET["ratio_product"][token]), where
        cube = build_row(kappa, "cube", 2.0, registry)
        assert _within(cube.eps_ratio, 4 * math.pi * alpha * kappa, BUDGET["eps_ratio"]), kappa
