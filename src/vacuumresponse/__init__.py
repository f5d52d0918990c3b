"""Dimension-checked estimates of the vacuum's linear electromagnetic response."""

import importlib

# The public names by module.  Each is loaded on first use (PEP 562), so
# that importing one module of the package does not import all of them.
_EXPORTS = {
    "constants": (
        "ConstantRecord", "ConstantRegistry", "default_registry", "load_constants",
    ),
    "dimensions": ("Dimension", "Quantity"),
    "kernels": ("VolumeConvention",),
    "model": (
        "OscillatorParams", "VacuumResponse",
        "effective_radius", "effective_volume", "fine_structure_form", "maxwell_closure",
        "mean_square_orbit_radius", "pair_magnetic_moment", "probe_response", "vacuum_response",
    ),
    "species": (
        "ParticleSpecies", "SpeciesModel", "SpeciesTable", "charge_weighted_sum",
        "default_species_table", "gap_for_exact_match", "load_species",
        "required_species_count", "total_permittivity",
    ),
    "units": ("format_dimension", "parse_unit", "quantity", "render_quantity"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*sorted(_HOME), "__version__"]


def __getattr__(name: str) -> object:
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
