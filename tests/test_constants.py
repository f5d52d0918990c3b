import math

import pytest

from vacuumresponse.cli import main
from vacuumresponse.constants import (
    DERIVED_KEYS,
    REQUIRED_DIMENSIONS,
    MalformedLineError,
    MissingConstantError,
    bundled_constants_path,
    load_constants,
)
from vacuumresponse.dimensions import DIMENSIONLESS, LENGTH, DimensionMismatchError, Quantity
from vacuumresponse.model import OscillatorParams, VolumeConvention, effective_radius
from vacuumresponse.units import UnitParseError, parse_unit, render_quantity


@pytest.fixture()
def bundled_text():
    return bundled_constants_path().read_text(encoding="utf-8")


def write_registry(tmp_path, text):
    path = tmp_path / "constants.tsv"
    path.write_text(text, encoding="utf-8")
    return path


# The keys the model reads.
MODEL_KEYS = ("c", "hbar", "e", "m_e", "eps0", "mu0")


def with_unit(lines, key, unit):
    """The lines of a constants file, with ``unit`` in the record of ``key``."""
    records = (line.split("\t") for line in lines)
    return "".join("\t".join([*f[:2], unit, *f[3:]] if f[0] == key else f) for f in records)


class TestLoad:
    def test_bundled_file_loads_with_release(self, registry):
        assert registry.codata_release == "2018"
        for key in (*REQUIRED_DIMENSIONS, *DERIVED_KEYS):
            assert key in registry

    def test_bundled_file_has_the_required_dimensions(self, registry):
        for key, dimension in REQUIRED_DIMENSIONS.items():
            assert registry.quantity(key).dimension == dimension, key

    def test_a_wrong_dimension_is_refused_at_load_as_one_error(self, tmp_path, bundled_text):
        text = bundled_text.replace("\tJ s\t", "\tJ\t").replace("\tC\t", "\tA\t")
        with pytest.raises(DimensionMismatchError) as err:
            load_constants(write_registry(tmp_path, text))
        assert str(err.value) == (
            "the constants give hbar [kg m^2 / s^2], not [kg m^2 / s]; e [A], not [A s]"
        )

    def test_a_wrong_dimension_is_named_before_the_derived_records_are_computed(
        self, tmp_path, bundled_text
    ):
        # C Ym^12 scales e by 1e288, so deriving alpha from it overflows: the
        # error must still name the unit at fault, not the derivation.
        text = bundled_text.replace("\tC\t", "\tC Ym^12\t")
        with pytest.raises(DimensionMismatchError) as err:
            load_constants(write_registry(tmp_path, text))
        assert str(err.value) == "the constants give e [A s m^12], not [A s]"

    def test_eps0_value_to_five_digits(self, registry):
        assert f"{registry.value('eps0'):.4e}" == "8.8542e-12"
        assert registry["eps0"].quantity.dimension == parse_unit("A s / (V m)")[1]

    def test_si_consistency_identity(self, registry):
        product = (
            registry.quantity("eps0") * registry.quantity("mu0") * registry.quantity("c") ** 2
        )
        assert product.dimension == DIMENSIONLESS
        assert product.magnitude == pytest.approx(1.0, rel=1e-9)

    def test_fine_structure_constant(self, registry):
        alpha = registry.quantity("alpha")
        assert alpha.dimension == DIMENSIONLESS
        assert alpha.magnitude == pytest.approx(7.2974e-3, rel=1e-4)
        assert 1 / alpha.magnitude == pytest.approx(137.036, rel=1e-5)

    def test_derived_records_reproduce_their_formulas(self, registry):
        e = registry.quantity("e")
        c = registry.quantity("c")
        hbar = registry.quantity("hbar")
        m_e = registry.quantity("m_e")
        eps0 = registry.quantity("eps0")
        assert registry.value("alpha") == pytest.approx(
            (e**2 / (4 * math.pi * eps0 * hbar * c)).magnitude, rel=1e-12
        )
        assert registry.value("lambda_c") == pytest.approx(
            (hbar / (m_e * c)).magnitude, rel=1e-12
        )
        assert registry.value("E_S") == pytest.approx(
            (m_e**2 * c**3 / (e * hbar)).magnitude, rel=1e-12
        )

    # CODATA 2018 (Tiesinga et al., Rev. Mod. Phys. 93, 025010 (2021)): the
    # published value and its standard uncertainty, an oracle from outside
    # the bundled table for the derivation's formula and units.
    @pytest.mark.parametrize("key, dimension, value, uncertainty", [
        ("alpha", DIMENSIONLESS, 7.2973525693e-3, 0.0000000011e-3),
        ("lambda_c", LENGTH, 3.8615926796e-13, 0.0000000012e-13),
    ])
    def test_derived_constants_agree_with_codata_2018(
        self, registry, key, dimension, value, uncertainty
    ):
        assert registry.quantity(key).dimension == dimension
        assert abs(registry.value(key) - value) <= uncertainty

    def test_alpha_agrees_between_unit_systems(self, registry):
        # SI route: e^2/(4 pi eps0 hbar c).  Gaussian route: e^2/(hbar c)
        # with every factor converted through the Gaussian unit table.
        alpha_si = registry.value("alpha")
        e_gauss = render_quantity(registry.quantity("e"), "gaussian")[0]
        joule = Quantity(1.0, parse_unit("J")[1])
        erg_per_joule = render_quantity(joule, "gaussian")[0]
        metre = Quantity(1.0, LENGTH)
        cm_per_metre = render_quantity(metre, "gaussian")[0]
        hbar_gauss = registry.value("hbar") * erg_per_joule
        c_gauss = registry.value("c") * cm_per_metre
        alpha_gauss = e_gauss**2 / (hbar_gauss * c_gauss)
        assert alpha_gauss == pytest.approx(alpha_si, rel=1e-9)

    def test_missing_constant(self, tmp_path, bundled_text):
        text = "\n".join(
            line for line in bundled_text.splitlines() if not line.startswith("m_e\t")
        )
        with pytest.raises(MissingConstantError) as err:
            load_constants(write_registry(tmp_path, text))
        assert err.value.key == "m_e"

    @pytest.mark.parametrize("key", MODEL_KEYS)
    def test_each_key_the_model_reads_is_required_in_its_dimension(
        self, tmp_path, bundled_text, key
    ):
        lines = bundled_text.splitlines(keepends=True)
        without = "".join(line for line in lines if not line.startswith(f"{key}\t"))
        with pytest.raises(MissingConstantError) as err:
            load_constants(write_registry(tmp_path, without))
        assert str(err.value) == f"required constant {key!r} not found"
        with pytest.raises(DimensionMismatchError) as err:
            load_constants(write_registry(tmp_path, with_unit(lines, key, "K")))
        assert str(err.value) == f"the constants give {key} [K], not [{REQUIRED_DIMENSIONS[key]}]"

    @pytest.mark.parametrize("variant", ["six-keys", "m_top-in-J"])
    def test_a_record_that_no_output_reads_is_optional(
        self, tmp_path, capsys, bundled_text, variant
    ):
        # Only the six keys the model reads are required: a file without the
        # lepton and quark masses, or with one of them in another dimension,
        # loads and changes no payload.
        lines = bundled_text.splitlines(keepends=True)
        if variant == "six-keys":
            text = "".join(line for line in lines if line.split("\t")[0] in MODEL_KEYS
                           or line.startswith("#"))
        else:
            text = with_unit(lines, "m_top", "J")
        path = write_registry(tmp_path, text)
        loaded = load_constants(path)
        assert loaded.codata_release == "2018"
        assert tuple(REQUIRED_DIMENSIONS) == MODEL_KEYS
        if variant == "six-keys":
            assert [r.key for r in loaded.records()] == [*MODEL_KEYS, *DERIVED_KEYS]
        for argv in (["estimate"], ["sweep"], ["species"], ["check-dimensions"]):
            assert main(argv) == 0
            bundled = capsys.readouterr().out
            assert main([*argv, "--constants", str(path)]) == 0
            assert capsys.readouterr().out == bundled, argv

    def test_malformed_line_reports_line_number(self, tmp_path, bundled_text):
        text = bundled_text + "broken line without tabs\n"
        with pytest.raises(MalformedLineError) as err:
            load_constants(write_registry(tmp_path, text))
        assert err.value.line_number == len(bundled_text.splitlines()) + 1

    @pytest.mark.parametrize("line, reason", [
        ("c\t3e8\tm/s\ttest", "key 'c' is given more than once"),
        ("alpha\t0.5\t1\ttest", "key 'alpha' is derived at load, not read"),
        ("E_S\t1e18\tV/m\ttest", "key 'E_S' is derived at load, not read"),
    ])
    def test_a_repeated_or_derived_key_is_refused(self, tmp_path, bundled_text, line, reason):
        # Neither the first value nor the derived one is silently replaced.
        with pytest.raises(MalformedLineError) as err:
            load_constants(write_registry(tmp_path, bundled_text + line + "\n"))
        number = len(bundled_text.splitlines()) + 1
        assert err.value.line_number == number
        assert str(err.value) == f"malformed constants line {number}: {reason}"

    @pytest.mark.parametrize(
        "line", ["", "   ", "# note", "  # note"], ids=["empty", "blank", "comment", "indented"]
    )
    def test_a_blank_or_comment_line_among_the_rows_is_skipped(
        self, tmp_path, registry, bundled_text, line
    ):
        text = bundled_text.replace("\nm_e\t", f"\n{line}\nm_e\t", 1)
        assert text != bundled_text
        loaded = load_constants(write_registry(tmp_path, text))
        assert loaded.records() == registry.records()
        assert loaded.codata_release == registry.codata_release

    def test_an_indented_release_line_is_read(self, tmp_path, bundled_text):
        # A comment is a line whose first non-blank character is "#", as in a species table.
        text = bundled_text.replace("#codata", "\t #codata", 1)
        assert text != bundled_text
        assert load_constants(write_registry(tmp_path, text)).codata_release == "2018"

    def test_a_leading_byte_order_mark_is_dropped(self, tmp_path, registry, bundled_text):
        loaded = load_constants(write_registry(tmp_path, "\ufeff" + bundled_text))
        assert loaded.codata_release == "2018"
        assert loaded.records() == registry.records()

    def test_bad_magnitude(self, tmp_path, bundled_text):
        text = bundled_text + "zeta\tnot-a-number\tm\ttest\n"
        with pytest.raises(MalformedLineError):
            load_constants(write_registry(tmp_path, text))

    def test_unit_parse_error_propagates(self, tmp_path, bundled_text):
        text = bundled_text + "zeta\t1.0\tbogus_unit\ttest\n"
        with pytest.raises(UnitParseError):
            load_constants(write_registry(tmp_path, text))


class TestSchwingerField:
    def test_value_and_dimension(self, registry):
        field = registry.quantity("E_S")
        assert field.magnitude == pytest.approx(1.32328547413e18, rel=1e-9)
        assert field.magnitude == pytest.approx(1.32e18, rel=5e-3)
        assert field.dimension == parse_unit("V/m")[1]

    def test_quadratic_mass_scaling(self, tmp_path, bundled_text):
        doubled = bundled_text.replace(
            "m_e\t9.1093837015e-31", "m_e\t1.8218767403e-30"
        )
        scratch = load_constants(write_registry(tmp_path, doubled))
        base = load_constants(bundled_constants_path())
        ratio = scratch.value("E_S") / base.value("E_S")
        assert ratio == pytest.approx(4.0, rel=1e-9)


class TestComptonWavelength:
    def test_electron_value(self, registry):
        lam = registry.quantity("lambda_c")
        assert lam.magnitude == pytest.approx(3.86159267962e-13, rel=1e-10)
        assert lam.dimension == LENGTH

    def test_inverse_mass_scaling(self, registry):
        # The half-Compton cube pins its radius to the Compton wavelength of twice the mass.
        compton, half = (
            effective_radius(OscillatorParams.for_electron(2.0, 2.0, conv, registry), registry)
            for conv in (VolumeConvention.CUBE_COMPTON, VolumeConvention.CUBE_HALF_COMPTON)
        )
        assert half.magnitude == pytest.approx(compton.magnitude / 2, rel=1e-15)
