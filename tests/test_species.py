import hashlib
import math
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vacuumresponse.model import maxwell_closure, OscillatorParams, VolumeConvention
from vacuumresponse.species import (
    DuplicateNameError,
    EmptyTableError,
    MalformedRowError,
    ParticleSpecies,
    SpeciesModel,
    SpeciesTable,
    ZeroChargeError,
    bundled_species_path,
    charge_weighted_sum,
    default_species_table,
    gap_for_exact_match,
    load_species,
    required_species_count,
    total_permittivity,
)


def write_table(tmp_path, text, name="species.tsv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def single_electron_table():
    return SpeciesTable((ParticleSpecies("electron", Fraction(-1), 1),))


class TestLoad:
    def test_bundled_standard_model_file(self, tmp_path, registry):
        table = load_species(bundled_species_path(), registry)
        assert len(table.species) == 9
        assert table.sha256 is not None
        # Its rows give a mass; the same rows without one load to equal records.
        text = bundled_species_path().read_text(encoding="utf-8")
        rows = (line.split("\t") for line in text.splitlines())
        three_columns = "".join("\t".join(fields[:3]) + "\n" for fields in rows)
        assert load_species(write_table(tmp_path, three_columns), registry).species == table.species

    def test_a_leading_byte_order_mark_is_dropped(self, tmp_path, registry):
        raw = b"\xef\xbb\xbf" + bundled_species_path().read_bytes()
        path = tmp_path / "species.tsv"
        path.write_bytes(raw)
        table = load_species(path, registry)
        assert table.species == load_species(bundled_species_path(), registry).species
        assert table.sha256 == hashlib.sha256(raw).hexdigest()

    def test_the_digest_is_of_the_bytes_that_were_parsed(self, tmp_path, registry):
        path = write_table(tmp_path, "electron\t-1\t1\n")
        parsed = path.read_bytes()
        table = load_species(path, registry)
        # The file changes after the load; the digest does not.
        path.write_text("muon\t-1\t1\n", encoding="utf-8")
        assert table.sha256 == hashlib.sha256(parsed).hexdigest()
        # A table that was not loaded has no bytes and no digest.
        assert single_electron_table().sha256 is None

    def test_empty_file_is_a_valid_empty_table(self, tmp_path, registry):
        table = load_species(write_table(tmp_path, "# nothing here\n"), registry)
        assert len(table.species) == 0
        assert charge_weighted_sum(table) == 0

    def test_zero_charge_rejected(self, tmp_path, registry):
        with pytest.raises(ZeroChargeError):
            load_species(write_table(tmp_path, "neutrino\t0/1\t1\n"), registry)

    def test_duplicate_name_rejected(self, tmp_path, registry):
        text = "electron\t-1\t1\nelectron\t-1\t1\n"
        with pytest.raises(DuplicateNameError):
            load_species(write_table(tmp_path, text), registry)

    def test_a_file_names_the_first_repeated_name_in_table_order(self, tmp_path, registry):
        # The loader and a table built directly name the same row.
        text = "mu\t-1\t1\ne\t-1\t1\ne\t-1\t1\nmu\t-1\t1\n"
        with pytest.raises(DuplicateNameError) as err:
            load_species(write_table(tmp_path, text), registry)
        assert err.value.name == "mu"

    def test_a_large_table_loads_in_linear_time(self, tmp_path):
        # 40 000 unique names load in well under a second; a check that
        # compares every name with every other takes tens of seconds.
        path = write_table(tmp_path, "".join(f"s{i}\t1\t1\n" for i in range(40_000)))
        script = (
            "import sys\n"
            "from vacuumresponse.constants import default_registry\n"
            "from vacuumresponse.species import load_species\n"
            "print(len(load_species(sys.argv[1], default_registry()).species))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script, str(path)], capture_output=True, text=True, timeout=10
        )
        assert done.stdout == "40000\n"

    def test_malformed_row_reports_line(self, tmp_path, registry):
        with pytest.raises(MalformedRowError) as err:
            load_species(write_table(tmp_path, "# header\nbad row no tabs\n"), registry)
        assert err.value.line_number == 2

    def test_bad_charge_ratio(self, tmp_path, registry):
        with pytest.raises(MalformedRowError):
            load_species(write_table(tmp_path, "thing\ttwo-thirds\t1\n"), registry)

    @pytest.mark.parametrize("charge, multiplicity", [("1e999", 1), ("1e-999", 1), ("1e200", 1),
                                                      ("-1e-170", 1), ("1e154", 2)])
    def test_charge_ratio_out_of_the_float_range(self, tmp_path, registry, charge, multiplicity):
        # The ratio, or the row's weight multiplicity * ratio**2, is zero or infinite as a float.
        text = f"# header\nelectron\t-1\t1\nthing\t{charge}\t{multiplicity}\n"
        with pytest.raises(MalformedRowError) as err:
            load_species(write_table(tmp_path, text), registry)
        assert err.value.line_number == 3

    def test_charge_weighted_sum_beyond_the_float_range(self, tmp_path, registry):
        # One weight of 1e154**2 is a float; the sum of two is not.
        assert len(load_species(write_table(tmp_path, "a\t1e154\t1\n"), registry).species) == 1
        with pytest.raises(ValueError, match="charge-weighted sum overflows a float"):
            load_species(write_table(tmp_path, "a\t1e154\t1\nb\t-1e154\t1\n"), registry)

    def test_bad_multiplicity(self, tmp_path, registry):
        with pytest.raises(MalformedRowError):
            load_species(write_table(tmp_path, "thing\t1\t0\n"), registry)

    def test_mass_column_optional(self, tmp_path, registry):
        three = load_species(write_table(tmp_path, "thing\t1\t1\n", "three.tsv"), registry)
        four = load_species(write_table(tmp_path, "thing\t1\t1\t105.7\n", "four.tsv"), registry)
        assert three.species == four.species == (ParticleSpecies("thing", Fraction(1), 1),)

    @pytest.mark.parametrize("mass, reason", [
        ("heavy", "bad mass 'heavy'"),
        ("0", "mass must be positive and finite, got 0.0"),
        ("-1", "mass must be positive and finite, got -1.0"),
        ("inf", "mass must be positive and finite, got inf"),
        ("nan", "mass must be positive and finite, got nan"),
    ])
    def test_a_bad_mass_is_refused(self, tmp_path, registry, mass, reason):
        # The mass is read by no output, but a file that gives one must give a mass.
        with pytest.raises(MalformedRowError) as err:
            load_species(write_table(tmp_path, f"# header\nthing\t1\t1\t{mass}\n"), registry)
        assert str(err.value) == f"malformed species row at line 2: {reason}"


class TestChargeWeightedSum:
    def test_bundled_sum_is_exactly_eight(self):
        # 3 leptons at 1 each, up-type quarks 3*3*(2/3)^2 = 4,
        # down-type quarks 3*3*(1/3)^2 = 1.
        assert charge_weighted_sum(default_species_table()) == Fraction(8)

    def test_brute_force_oracle_over_file_rows(self, registry):
        table = load_species(bundled_species_path(), registry)
        total = Fraction(0)
        for row in table.species:
            for _ in range(row.multiplicity):
                total += row.charge_ratio * row.charge_ratio
        assert charge_weighted_sum(table) == total

    def test_empty_table(self):
        assert charge_weighted_sum(SpeciesTable(())) == 0

    def test_single_electron(self):
        assert charge_weighted_sum(single_electron_table()) == 1

    def test_additivity_of_disjoint_parts(self):
        full = default_species_table().species
        for split in range(len(full) + 1):
            left = SpeciesTable(full[:split])
            right = SpeciesTable(full[split:])
            assert charge_weighted_sum(left) + charge_weighted_sum(right) == Fraction(8)


class TestTotalPermittivity:
    def test_single_electron_reduces_to_pair_value(self, registry):
        total = total_permittivity(single_electron_table(), 2.0, registry)
        assert total.magnitude == pytest.approx(1.62e-12, rel=0.01)

    def test_empty_table_gives_zero(self, registry):
        assert total_permittivity(SpeciesTable(()), 2.0, registry).magnitude == 0.0

    def test_bundled_file_at_gap_two(self, registry):
        total = total_permittivity(default_species_table(), 2.0, registry)
        assert total.magnitude == pytest.approx(1.29910395853e-11, rel=1e-11)
        single = total_permittivity(single_electron_table(), 2.0, registry)
        assert total.magnitude == pytest.approx(8 * single.magnitude, rel=1e-14)

    def test_rejects_nonpositive_gap_ratio(self, registry):
        with pytest.raises(ValueError):
            total_permittivity(single_electron_table(), 0.0, registry)


class TestRequiredCount:
    def test_simple_model_values(self, registry):
        assert required_species_count(1.0, SpeciesModel.SIMPLE, registry) == pytest.approx(
            10.9049783, rel=1e-8
        )
        assert required_species_count(2.0, SpeciesModel.SIMPLE, registry) == pytest.approx(
            5.45248916, rel=1e-8
        )

    def test_sphere_model_value(self, registry):
        assert required_species_count(2.0, SpeciesModel.SPHERE, registry) == pytest.approx(
            90.2803914, rel=1e-8
        )

    def test_inverse_gap_scaling(self, registry):
        n1 = required_species_count(1.0, SpeciesModel.SPHERE, registry)
        n4 = required_species_count(4.0, SpeciesModel.SPHERE, registry)
        assert n1 == pytest.approx(4 * n4, rel=1e-12)


def test_results_out_of_float_range_raise_naming_the_gap_ratio(registry):
    with pytest.raises(ValueError, match="^gap ratio 1e-320 takes the total permittivity "):
        total_permittivity(single_electron_table(), 1e-320, registry)
    # No charged species sum to 0 at any gap ratio.
    assert total_permittivity(SpeciesTable(()), 1e-320, registry).magnitude == 0.0
    assert required_species_count(1e-307, SpeciesModel.SIMPLE, registry) > 1e307
    with pytest.raises(ValueError, match="^gap ratio 1e-307 takes the species count "):
        required_species_count(1e-307, SpeciesModel.SPHERE, registry)
    with pytest.raises(ValueError, match="^gap ratio 5e-324 takes the species count "):
        required_species_count(5e-324, SpeciesModel.SIMPLE, registry)


class TestGapForExactMatch:
    def test_single_electron_simple(self, registry):
        match = gap_for_exact_match(single_electron_table(), SpeciesModel.SIMPLE, registry)
        assert match.gap_ratio == pytest.approx(10.9049783, rel=1e-8)
        rest = registry.quantity("m_e") * registry.quantity("c") ** 2
        assert match.gap_energy.magnitude == pytest.approx(
            match.gap_ratio * rest.magnitude, rel=1e-12
        )

    def test_bundled_file_simple(self, registry):
        match = gap_for_exact_match(default_species_table(), SpeciesModel.SIMPLE, registry)
        assert match.gap_ratio == pytest.approx(1.36312229, rel=1e-8)

    def test_back_substitution(self, registry):
        for model in SpeciesModel:
            for table in (single_electron_table(), default_species_table()):
                match = gap_for_exact_match(table, model, registry)
                if model is SpeciesModel.SIMPLE:
                    total = total_permittivity(table, match.gap_ratio, registry)
                else:
                    alpha = registry.value("alpha")
                    weight = float(charge_weighted_sum(table))
                    factor = 3 * alpha * 0.4**1.5 * match.gap_ratio * weight
                    total = factor * registry.quantity("eps0")
                assert total.magnitude == pytest.approx(
                    registry.value("eps0"), rel=1e-12
                )

    def test_inversion_identity(self, registry):
        # A table whose weighted sum is 1/(8 pi alpha) matches at gap ratio 2.
        alpha = registry.value("alpha")
        weight = 1 / (8 * math.pi * alpha)
        kappa = 1.0 / (4 * math.pi * alpha * weight)
        assert kappa == pytest.approx(2.0, rel=1e-12)

    def test_empty_table_rejected(self, registry):
        with pytest.raises(EmptyTableError):
            gap_for_exact_match(SpeciesTable(()), SpeciesModel.SIMPLE, registry)

    @given(
        weights=st.lists(
            st.tuples(
                st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=3),
                st.integers(min_value=1, max_value=4),
            ).filter(lambda t: t[0] != 0),
            min_size=1,
            max_size=6,
        )
    )
    def test_back_substitution_property(self, weights):
        from vacuumresponse.constants import default_registry

        reg = default_registry()
        table = SpeciesTable(
            tuple(
                ParticleSpecies(f"species-{i}", charge, mult)
                for i, (charge, mult) in enumerate(weights)
            )
        )
        match = gap_for_exact_match(table, SpeciesModel.SIMPLE, reg)
        total = total_permittivity(table, match.gap_ratio, reg)
        assert total.magnitude == pytest.approx(reg.value("eps0"), rel=1e-12)


class TestLightSpeedIndependence:
    def test_closure_never_reads_the_species_table(self, registry):
        # The light-speed identity is a per-pair statement: the closure takes
        # only oscillator parameters, so the implied speed cannot depend on
        # how many species contribute.
        for kappa in (0.5, 1.0, 2.0, 7.0):
            p = OscillatorParams.for_electron(kappa, 2.0, VolumeConvention.CUBE, registry)
            resp = maxwell_closure(p, registry)
            light_speed = 1 / math.sqrt((resp.eps_tilde * resp.mu_tilde).magnitude)
            assert light_speed == pytest.approx(registry.value("c"), rel=1e-12)
