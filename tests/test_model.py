import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vacuumresponse.constants import default_registry
from vacuumresponse.dimensions import (
    DIMENSIONLESS,
    LENGTH,
    SPEED,
    TIME,
    Quantity,
)
from vacuumresponse.model import (
    ConventionMismatchError,
    FieldTooStrongError,
    OscillatorParams,
    VolumeConvention,
    WeakFieldWarning,
    angular_momentum_kick,
    critical_field,
    effective_radius,
    effective_volume,
    fine_structure_form,
    induced_vortex_field,
    maxwell_closure,
    mean_square_orbit_radius,
    pair_magnetic_moment,
    probe_response,
    vacuum_response,
)
from vacuumresponse.species import SpeciesModel, required_species_count
from vacuumresponse.units import parse_unit

V_PER_M = parse_unit("V/m")[1]
TESLA = parse_unit("T")[1]


def electron(kappa=2.0, g=2.0, conv=None, registry=None):
    return OscillatorParams.for_electron(kappa, g, conv or VolumeConvention.CUBE, registry)


def half_compton(registry=None, kappa=2.0, g=2.0):
    return OscillatorParams.for_electron(kappa, g, VolumeConvention.CUBE_HALF_COMPTON, registry)


def compton(registry=None, kappa=2.0, g=2.0):
    return OscillatorParams.for_electron(kappa, g, VolumeConvention.CUBE_COMPTON, registry)


def unit_field(x=1.0):
    return Quantity(x, V_PER_M)


def unit_b(x=1.0):
    return Quantity(x, TESLA)


class TestParams:
    def test_rejects_nonpositive_gap(self, registry):
        with pytest.raises(ValueError):
            OscillatorParams.for_electron(0.0, 2.0, VolumeConvention.CUBE, registry)

    def test_rejects_zero_charge(self, registry):
        with pytest.raises(ValueError):
            OscillatorParams(
                registry.quantity("m_e"),
                0 * registry.quantity("e"),
                registry.quantity("m_e") * registry.quantity("c") ** 2,
            )

    def test_rejects_nonpositive_g(self, registry):
        with pytest.raises(ValueError):
            electron(g=-2.0, registry=registry)

    def test_gap_ratio_round_trip(self, registry):
        p = electron(kappa=3.5, registry=registry)
        assert p.gap_ratio(registry) == pytest.approx(3.5, rel=1e-14)

    def test_probe_validation(self, registry):
        p = electron(registry=registry)
        with pytest.raises(ValueError, match="non-negative"):
            probe_response(p, unit_field(-1.0), registry=registry)
        with pytest.raises(ValueError, match="electric-field dimension"):
            probe_response(p, Quantity(1.0, LENGTH), registry=registry)
        with pytest.raises(ValueError, match="magnetic field"):
            angular_momentum_kick(p, Quantity(1.0, LENGTH), registry)

    @pytest.mark.parametrize(
        ("call", "message"),
        [
            (
                lambda: required_species_count(0.0, SpeciesModel.SIMPLE, default_registry()),
                "gap ratio must be positive",
            ),
            (
                lambda: induced_vortex_field(Quantity(0.0, LENGTH), Quantity(1.0, TESLA / TIME)),
                "orbit radius must be a positive length",
            ),
            (
                lambda: induced_vortex_field(Quantity(1.0, LENGTH), Quantity(1.0, TESLA)),
                "expected a magnetic-field rate of change, got [kg / (A s^2)]",
            ),
        ],
        ids=["species-count-gap", "vortex-radius", "vortex-rate"],
    )
    def test_an_input_out_of_the_domain_is_refused(self, call, message):
        with pytest.raises(ValueError) as caught:
            call()
        assert str(caught.value) == message


class TestOscillatorDisplacement:
    def test_zero_field(self, registry):
        x = probe_response(electron(registry=registry), unit_field(0.0), registry=registry)[0]
        assert x.magnitude == 0.0
        assert x.dimension == LENGTH

    def test_unit_field_value(self, registry):
        x = probe_response(electron(registry=registry), unit_field(), registry=registry)[0]
        assert x.magnitude == pytest.approx(7.29546412152e-32, rel=1e-11)

    def test_rejects_field_beyond_critical(self, registry):
        e_crit = critical_field(electron(registry=registry), registry)
        with pytest.raises(FieldTooStrongError):
            probe_response(electron(registry=registry), 2 * e_crit, registry=registry)

    def test_warns_near_critical(self, registry):
        e_crit = critical_field(electron(registry=registry), registry)
        with pytest.warns(WeakFieldWarning):
            probe_response(electron(registry=registry), 0.05 * e_crit, registry=registry)


class TestInducedDipole:
    def test_unit_field_value(self, registry):
        d = probe_response(electron(registry=registry), unit_field(), registry=registry)[1]
        assert d.magnitude == pytest.approx(1.16886221497e-50, rel=1e-11)
        assert d.dimension == parse_unit("C m")[1]

    def test_quadratic_charge_scaling(self, registry):
        base = electron(registry=registry)
        doubled = OscillatorParams(
            base.mass, 2 * base.charge, base.energy_gap, base.g_factor, base.volume_convention
        )
        ratio = (
            probe_response(doubled, unit_field(), registry=registry)[1].magnitude
            / probe_response(base, unit_field(), registry=registry)[1].magnitude
        )
        assert ratio == pytest.approx(4.0, rel=1e-14)

    def test_equals_charge_times_displacement(self, registry):
        p = electron(registry=registry)
        x, d, _ = probe_response(p, unit_field(2.5), registry=registry)
        assert d.magnitude == (abs(p.charge) * x).magnitude


class TestProbeResponse:
    def test_items_match_the_per_output_functions(self, registry):
        p = electron(conv=VolumeConvention.SPHERE, registry=registry)
        x, dipole, polarization = probe_response(p, unit_field(2.5), registry=registry)
        assert x == abs(p.charge) * unit_field(2.5) / (p.mass * p.omega0(registry) ** 2)
        assert polarization == dipole / effective_volume(p, registry)

    def test_guards_and_evaluates_omega0_once(self, registry, omega0_calls):
        p = electron(registry=registry)
        field = 0.05 * critical_field(p, registry)
        with pytest.warns(WeakFieldWarning) as record:
            probe_response(p, field, registry=registry)
        assert len(record) == 1
        assert len(omega0_calls) == 1


class TestEffectiveVolume:
    def test_half_compton(self, registry):
        p = half_compton(registry)
        r = effective_radius(p, registry)
        v = effective_volume(p, registry)
        assert r.magnitude == pytest.approx(1.93079633981e-13, rel=1e-11)
        assert v.magnitude == pytest.approx(7.19795953077e-39, rel=1e-11)

    def test_consistent_radius_matches_half_compton_at_gap_two(self, registry):
        consistent = effective_radius(electron(kappa=2.0, registry=registry), registry)
        pinned = effective_radius(half_compton(registry), registry)
        assert consistent.magnitude == pytest.approx(pinned.magnitude, rel=1e-12)

    def test_sphere_radius(self, registry):
        p = electron(conv=VolumeConvention.SPHERE, registry=registry)
        r = effective_radius(p, registry)
        assert r.magnitude == pytest.approx(3.05285706586e-13, rel=1e-11)
        v = effective_volume(p, registry)
        assert v.magnitude == pytest.approx(4 * math.pi / 3 * r.magnitude**3, rel=1e-14)


class TestVacuumPolarization:
    def test_zero_field(self, registry):
        p0 = probe_response(half_compton(registry), unit_field(0.0), registry=registry)[2]
        assert p0.magnitude == 0.0

    def test_linearity(self, registry):
        p = half_compton(registry)
        rng = random.Random(42)
        base = probe_response(p, unit_field(1.0), registry=registry)[2].magnitude
        for _ in range(10):
            amp = rng.uniform(1e-3, 1e3)
            scaled = probe_response(p, unit_field(amp), registry=registry)[2].magnitude
            assert scaled == pytest.approx(amp * base, rel=1e-12)

    def test_unit_field_matches_quoted_response(self, registry):
        p0 = probe_response(half_compton(registry), unit_field(), registry=registry)[2]
        assert p0.magnitude == pytest.approx(1.62e-12, rel=0.01)
        assert p0.dimension == parse_unit("C/m^2")[1]


class TestPermittivityEstimate:
    def test_half_compton_gap_two(self, registry):
        eps = vacuum_response(half_compton(registry), registry).eps_tilde
        assert eps.magnitude == pytest.approx(1.62e-12, rel=0.01)
        assert eps.magnitude == pytest.approx(1.62387994816e-12, rel=1e-11)

    def test_full_compton_gap_two(self, registry):
        p = electron(conv=VolumeConvention.CUBE_COMPTON, registry=registry)
        eps = vacuum_response(p, registry).eps_tilde
        assert eps.magnitude == pytest.approx(2.02984993520e-13, rel=1e-11)

    def test_inverse_cube_radius_scaling(self, registry):
        # The half-Compton radius is the Compton one halved, exactly in floats.
        eps_r = vacuum_response(compton(registry), registry).eps_tilde
        eps_half = vacuum_response(half_compton(registry), registry).eps_tilde
        assert eps_half.magnitude == 8 * eps_r.magnitude


class TestFieldCompositions:
    """D = eps0 E + P and H = B/mu0 - M, with the model's P and M."""

    def test_displacement_reduces_to_eps0_e(self, registry):
        field = unit_field(3.0)
        zero_pol = Quantity(0.0, parse_unit("C/m^2")[1])
        d = registry.quantity("eps0") * field + zero_pol
        assert d.magnitude == pytest.approx(
            3.0 * registry.value("eps0"), rel=1e-14
        )

    def test_displacement_reduces_to_polarization(self, registry):
        pol = Quantity(2.0, parse_unit("C/m^2")[1])
        d = registry.quantity("eps0") * unit_field(0.0) + pol
        assert d.magnitude == 2.0

    def test_displacement_with_vacuum_polarization(self, registry):
        eps_t = vacuum_response(half_compton(registry), registry).eps_tilde
        pol = probe_response(half_compton(registry), unit_field(), registry=registry)[2]
        d = registry.quantity("eps0") * unit_field() + pol
        assert d.magnitude == pytest.approx(
            registry.value("eps0") + eps_t.magnitude, rel=1e-12
        )

    def test_h_field_reduces_to_b_over_mu0(self, registry):
        zero_mag = Quantity(0.0, parse_unit("A/m")[1])
        h = unit_b() / registry.quantity("mu0") - zero_mag
        assert h.magnitude == pytest.approx(1 / registry.value("mu0"), rel=1e-14)

    def test_h_field_vanishes_at_full_magnetization(self, registry):
        m = unit_b(1.0) / registry.quantity("mu0")
        h = unit_b(1.0) / registry.quantity("mu0") - m
        assert h.magnitude == 0.0

    @pytest.mark.parametrize("g", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("convention", list(VolumeConvention), ids=lambda c: c.value)
    def test_h_field_with_model_magnetization(self, registry, convention, g):
        # mu_tilde is the applied B over the magnetization that the pair's
        # moment gives per volume.  Both routes take w0, the radius, the volume
        # and <rho^2> from the same kernel calls, so they share those bits.
        # From there, mu_tilde = (2 m) V / ((g q**2) <rho^2>) rounds 6 times
        # and B / ((2 (g q / (2 m)) ((q <rho^2>) B / 2)) / V) rounds 7 times:
        # each * and / rounds once, by at most u = 2**-53 relative, except a
        # scaling by 2, which is exact, and q**2, libm's pow, counts twice,
        # since it is within one ulp (2u).  n roundings put a value within
        # gamma_n = n u / (1 - n u) of the real one, so the two routes differ
        # by at most (gamma_6 + gamma_7) / (1 - gamma_6) of mu_tilde.
        p = OscillatorParams.for_electron(2.0, g, convention, registry)
        b = unit_b(0.3)
        magnetization = pair_magnetic_moment(p, b, registry) / effective_volume(p, registry)
        mu_t = vacuum_response(p, registry).mu_tilde
        from_chain = b / magnetization
        assert from_chain.dimension == mu_t.dimension
        u = 2.0**-53
        gamma_6, gamma_7 = (n * u / (1 - n * u) for n in (6, 7))
        bound = (gamma_6 + gamma_7) / (1 - gamma_6)
        assert abs(from_chain.magnitude - mu_t.magnitude) <= bound * mu_t.magnitude
        h = b / registry.quantity("mu0") - magnetization
        assert h.dimension == magnetization.dimension


class TestMagneticChain:
    def test_vortex_field_zero_rate(self, registry):
        r = effective_radius(half_compton(registry), registry)
        e_i = induced_vortex_field(r, Quantity(0.0, parse_unit("T/s")[1]))
        assert e_i.magnitude == 0.0

    def test_vortex_field_value_and_sign(self, registry):
        r = effective_radius(half_compton(registry), registry)
        e_i = induced_vortex_field(r, Quantity(1.0, parse_unit("T/s")[1]))
        assert abs(e_i.magnitude) == pytest.approx(9.65398169906e-14, rel=1e-11)
        assert e_i.magnitude < 0  # opposes the increasing field
        assert e_i.dimension == V_PER_M

    def test_vortex_field_linear_in_radius(self, registry):
        r = effective_radius(half_compton(registry), registry)
        rate = Quantity(1.0, parse_unit("T/s")[1])
        assert induced_vortex_field(2 * r, rate).magnitude == pytest.approx(
            2 * induced_vortex_field(r, rate).magnitude, rel=1e-14
        )

    def test_angular_momentum_kick(self, registry):
        p = half_compton(registry)
        kick = angular_momentum_kick(p, unit_b(), registry)
        assert kick.magnitude == pytest.approx(2.98643682269e-45, rel=1e-11)
        assert kick.dimension == parse_unit("J s")[1]
        assert angular_momentum_kick(p, unit_b(0.0), registry).magnitude == 0.0

    def test_kick_scales_with_radius_squared(self, registry):
        ratio = (
            angular_momentum_kick(compton(registry), unit_b(), registry).magnitude
            / angular_momentum_kick(half_compton(registry), unit_b(), registry).magnitude
        )
        assert ratio == 4

    def test_pair_moment_value(self, registry):
        # q^2 r^2 B / m at the half-Compton radius; the g = 2 spin response
        # doubled for the antiparticle reduces to exactly this.
        moment = pair_magnetic_moment(half_compton(registry), unit_b(), registry)
        assert moment.magnitude == pytest.approx(1.05052096893e-33, rel=1e-11)
        assert moment.dimension == parse_unit("A m^2")[1]

    def test_pair_moment_reduction_identity(self, registry):
        p = half_compton(registry)
        moment = pair_magnetic_moment(p, unit_b(2.0), registry)
        r = effective_radius(p, registry)
        direct = p.charge**2 * r**2 * unit_b(2.0) / p.mass
        assert moment.magnitude == pytest.approx(direct.magnitude, rel=1e-14)

    def test_pair_moment_linear_in_g(self, registry):
        orbital = pair_magnetic_moment(half_compton(registry, g=1.0), unit_b(), registry)
        spin = pair_magnetic_moment(half_compton(registry, g=2.0), unit_b(), registry)
        assert spin.magnitude == pytest.approx(2 * orbital.magnitude, rel=1e-14)

    def test_pair_moment_zero_field(self, registry):
        assert pair_magnetic_moment(half_compton(registry), unit_b(0.0), registry).magnitude == 0.0

    def test_pair_moment_linearity_in_b(self, registry):
        p = half_compton(registry)
        rng = random.Random(7)
        base = pair_magnetic_moment(p, unit_b(1.0), registry).magnitude
        for _ in range(10):
            amp = rng.uniform(1e-6, 1e2)
            assert pair_magnetic_moment(p, unit_b(amp), registry).magnitude == pytest.approx(
                amp * base, rel=1e-12
            )


class TestPermeabilityEstimate:
    def test_half_compton_value(self, registry):
        mu = vacuum_response(half_compton(registry), registry).mu_tilde
        assert mu.magnitude == pytest.approx(6.85179995796e-06, rel=1e-11)
        assert mu.dimension == parse_unit("V s / (A m)")[1]

    def test_linear_radius_scaling(self, registry):
        mu1 = vacuum_response(half_compton(registry), registry).mu_tilde
        mu2 = vacuum_response(compton(registry), registry).mu_tilde
        assert mu2.magnitude == 2 * mu1.magnitude

    @pytest.mark.parametrize("g", [1.0, 2.0])
    def test_product_with_permittivity_closes_on_light_speed(self, registry, g):
        p = electron(kappa=1.7, g=g, registry=registry)
        resp = vacuum_response(p, registry)
        product = resp.eps_tilde * resp.mu_tilde * registry.quantity("c") ** 2
        assert product.dimension == DIMENSIONLESS
        assert product.magnitude == pytest.approx(1.0, rel=1e-12)


class TestMaxwellClosure:
    def test_gap_two_reproduces_half_compton(self, registry):
        resp = maxwell_closure(electron(registry=registry), registry)
        lam_c = registry.value("lambda_c")
        assert resp.radius.magnitude == pytest.approx(lam_c / 2, rel=1e-12)
        assert resp.eps_tilde.magnitude == pytest.approx(1.62e-12, rel=0.01)

    def test_implied_light_speed(self, registry):
        resp = maxwell_closure(electron(kappa=3.3, registry=registry), registry)
        light_speed = (resp.eps_tilde * resp.mu_tilde) ** Fraction(-1, 2)
        assert light_speed.dimension == SPEED
        assert light_speed.magnitude == pytest.approx(registry.value("c"), rel=1e-12)

    def test_sphere_ratio_gap_two(self, registry):
        resp = maxwell_closure(
            electron(conv=VolumeConvention.SPHERE, registry=registry), registry
        )
        alpha = registry.value("alpha")
        assert resp.eps_ratio == pytest.approx(6 * alpha * 0.4**1.5, rel=1e-12)
        assert resp.eps_ratio == pytest.approx(1.108e-2, rel=1e-3)

    def test_closure_identity_hundred_random_parameter_sets(self, registry):
        rng = random.Random(20260809)
        c2 = registry.quantity("c") ** 2
        e = registry.quantity("e")
        m_e = registry.quantity("m_e")
        for _ in range(100):
            mass = m_e * 10 ** rng.uniform(-2, 4)
            charge = e * rng.uniform(0.1, 3.0)
            kappa = rng.uniform(0.1, 10.0)
            g = rng.choice((1.0, 2.0))
            shape = rng.choice((VolumeConvention.CUBE, VolumeConvention.SPHERE))
            p = OscillatorParams.from_gap_ratio(kappa, mass, charge, g, shape, registry)
            resp = maxwell_closure(p, registry)
            identity = (resp.eps_tilde * resp.mu_tilde * c2).magnitude
            assert identity == pytest.approx(1.0, rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(
        kappa=st.floats(min_value=0.05, max_value=50.0),
        mass_scale=st.floats(min_value=1e-3, max_value=1e5),
        g=st.sampled_from((1.0, 2.0)),
    )
    def test_closure_identity_property(self, kappa, mass_scale, g):
        from vacuumresponse.constants import default_registry

        reg = default_registry()
        p = OscillatorParams.from_gap_ratio(
            kappa, mass_scale * reg.quantity("m_e"), reg.quantity("e"), g, VolumeConvention.CUBE, reg
        )
        resp = maxwell_closure(p, reg)
        identity = (resp.eps_tilde * resp.mu_tilde * reg.quantity("c") ** 2).magnitude
        assert identity == pytest.approx(1.0, rel=1e-12)

    def test_closure_ignores_pinned_radius_rule(self, registry):
        pinned = maxwell_closure(half_compton(registry, kappa=3.0), registry)
        consistent = maxwell_closure(electron(kappa=3.0, registry=registry), registry)
        assert pinned == consistent


class TestVacuumResponse:
    @pytest.mark.parametrize(
        "conv",
        [
            VolumeConvention.CUBE,
            VolumeConvention.CUBE_COMPTON,
            VolumeConvention.CUBE_HALF_COMPTON,
            VolumeConvention.SPHERE,
        ],
        ids=["cube", "compton", "half-compton", "sphere"],
    )
    def test_matches_the_per_output_functions(self, registry, conv):
        p = electron(kappa=1.3, g=3.7, conv=conv, registry=registry)
        resp = vacuum_response(p, registry)
        assert resp.radius == effective_radius(p, registry)
        assert resp.eps_ratio == (resp.eps_tilde / registry.quantity("eps0")).magnitude
        assert resp.mu_ratio == (resp.mu_tilde / registry.quantity("mu0")).magnitude

    def test_closure_is_the_response_of_the_consistent_radius(self, registry):
        p = half_compton(registry, kappa=3.0)
        assert maxwell_closure(p, registry) == vacuum_response(
            electron(kappa=3.0, registry=registry), registry
        )


class TestFineStructureForm:
    def test_gap_two_deviation_factor(self, registry):
        _, ratio = fine_structure_form(electron(registry=registry), registry)
        assert ratio == pytest.approx(8 * math.pi * registry.value("alpha"), rel=1e-12)
        assert ratio == pytest.approx(0.18340, abs=5e-5)

    def test_gap_one_deviation_factor(self, registry):
        _, ratio = fine_structure_form(electron(kappa=1.0, registry=registry), registry)
        assert ratio == pytest.approx(4 * math.pi * registry.value("alpha"), rel=1e-12)
        assert ratio == pytest.approx(0.0917, abs=5e-5)

    def test_matches_closure(self, registry):
        p = electron(kappa=2.7, registry=registry)
        eps_form, ratio = fine_structure_form(p, registry)
        resp = maxwell_closure(p, registry)
        assert eps_form.magnitude == pytest.approx(resp.eps_tilde.magnitude, rel=1e-12)
        assert ratio == pytest.approx(resp.eps_ratio, rel=1e-12)

    def test_mass_independence(self, registry):
        e_ratio = fine_structure_form(electron(registry=registry), registry)[1]
        muon = OscillatorParams.from_gap_ratio(
            2.0, registry.quantity("m_mu"), registry.quantity("e"), 2.0, VolumeConvention.CUBE,
            registry,
        )
        mu_ratio = fine_structure_form(muon, registry)[1]
        assert mu_ratio == pytest.approx(e_ratio, rel=1e-12)

    def test_rejects_sphere(self, registry):
        with pytest.raises(ConventionMismatchError):
            fine_structure_form(
                electron(conv=VolumeConvention.SPHERE, registry=registry), registry
            )

    def test_rejects_pinned_radius(self, registry):
        with pytest.raises(ConventionMismatchError):
            fine_structure_form(half_compton(registry), registry)

    def test_rejects_orbital_g(self, registry):
        with pytest.raises(ConventionMismatchError):
            fine_structure_form(electron(g=1.0, registry=registry), registry)


class TestSphereGeometry:
    def test_mean_square_orbit_radius_unit_ball(self):
        assert mean_square_orbit_radius(Quantity(1.0, LENGTH)).magnitude == 0.4

    def test_quadratic_scaling(self):
        r = Quantity(2.5, LENGTH)
        assert mean_square_orbit_radius(3 * r).magnitude == pytest.approx(
            9 * mean_square_orbit_radius(r).magnitude, rel=1e-14
        )

    def test_monte_carlo_oracle(self):
        # Uniform sampling over the unit ball: direction times u^(1/3).
        rng = np.random.default_rng(20260809)
        n = 10**6
        direction = rng.standard_normal((n, 3))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        radius = rng.random(n) ** (1 / 3)
        points = direction * radius[:, None]
        rho_squared = points[:, 0] ** 2 + points[:, 1] ** 2
        assert abs(rho_squared.mean() - 0.4) < 0.002

    def test_sphere_ratio_formula_at_several_gaps(self, registry):
        alpha = registry.value("alpha")
        for kappa in (1.0, 2.0, 4.0):
            resp = maxwell_closure(
                electron(kappa=kappa, conv=VolumeConvention.SPHERE, registry=registry),
                registry,
            )
            assert resp.eps_ratio == pytest.approx(3 * alpha * 0.4**1.5 * kappa, rel=1e-12)
