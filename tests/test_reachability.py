"""Every public call of ``model``, ``constants`` and ``kernels`` is reached by some run.

A fixed list of argvs runs through ``cli.main`` in process under
``sys.setprofile``, which records the code object of every Python call.  A
function, method or property of these three modules that none of the runs
calls is a second entry point to a value the program computes another way,
or surface that nothing reads.  Dunders and exception classes are left out.
``species.required_species_count``, the model's species count, is checked
too; the rest of ``species`` is not, since ``default_species_table`` serves
library callers and no run reads it.
"""

import contextlib
import inspect
import io
import sys

from vacuumresponse import constants, kernels, model, species
from vacuumresponse.cli import main
from vacuumresponse.kernels import VolumeConvention

CLASSES = (
    model.OscillatorParams,
    model.VacuumResponse,
    kernels.VolumeConvention,
    constants.ConstantRegistry,
    constants.ConstantRecord,
)

_CONVENTIONS = [conv.value for conv in VolumeConvention]
_SWEEP = ["sweep", "--points", "4", "--conventions", ",".join(_CONVENTIONS), "--g-factors", "1,2"]

ARGVS = [
    *(["estimate", "--convention", conv] for conv in _CONVENTIONS),
    *(["estimate", "--convention", conv, "--probe-field", "1 V/m"] for conv in _CONVENTIONS),
    ["estimate", "--units", "gaussian", "--probe-field", "1 V/m"],
    ["estimate", "--format", "csv"],
    ["estimate", "--format", "json", "--units", "gaussian"],
    ["estimate", "--constants", str(constants.bundled_constants_path())],
    _SWEEP,
    [*_SWEEP, "--format", "json", "--units", "gaussian"],
    [*_SWEEP, "--format", "svg"],
    ["species"],
    ["species", "--units", "gaussian", "--gap-ratio", "1"],
    ["check-dimensions"],
    ["constants"],
    ["constants", "--derived"],
]


def _targets():
    """Each module-level function and public method or property, by qualified name."""
    targets = {}
    for module in (model, constants, kernels):
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            obj = inspect.unwrap(obj)  # a cached function's own code
            if inspect.isfunction(obj):
                targets[f"{module.__name__}.{name}"] = obj
    targets["vacuumresponse.species.required_species_count"] = species.required_species_count
    for cls in CLASSES:
        for name, attr in vars(cls).items():
            if name.startswith("_"):
                continue
            if isinstance(attr, property):
                attr = attr.fget
            elif isinstance(attr, (classmethod, staticmethod)):
                attr = attr.__func__
            if inspect.isfunction(attr):
                targets[f"{cls.__module__}.{cls.__qualname__}.{name}"] = attr
    return targets


def test_every_public_call_of_model_and_constants_is_reached():
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    # The runs start with the default registry unloaded, as a fresh process does.
    constants.default_registry.cache_clear()
    previous = sys.getprofile()
    sink = io.StringIO()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            codes = [main(argv) for argv in ARGVS]
    finally:
        sys.setprofile(previous)

    assert codes == [0] * len(ARGVS)
    unreached = sorted(name for name, f in _targets().items() if f.__code__ not in called)
    assert unreached == []


def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def test_a_run_with_a_constants_file_reads_no_other_table(monkeypatch):
    # Each argv with --constants naming the bundled file prints what the
    # default run prints, while the bundled registry cannot be built: no call
    # inside the run falls back to a second constants table.
    defaults = [_stdout(argv) for argv in ARGVS]

    def refused():
        raise AssertionError("a --constants run read the bundled registry")

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "vacuumresponse" and hasattr(module, "default_registry"):
            monkeypatch.setattr(module, "default_registry", refused)
    path = str(constants.bundled_constants_path())
    assert [_stdout([*argv, "--constants", path]) for argv in ARGVS] == defaults
