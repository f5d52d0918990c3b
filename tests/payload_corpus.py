"""The recorded CLI corpus: every pinned argv, and what each one prints.

The corpus is ``corpus(seed, count)``: the seeded argvs of
``argvs(seed, count)`` followed by ``FIXED``.  ``argvs`` draws ``sweep`` and
``estimate`` argvs over every volume convention, both unit systems, every
output format, several g sets, ``--probe-field`` values from zero to beyond
the critical field, and gap ratios from the middle of the range to near both
ends where rows still succeed; some of them exit 1.  It uses only
``random()`` and ``choice()`` of a ``random.Random`` seeded by a string,
whose output is the same on every Python version.  ``FIXED`` holds every
estimate format, convention and unit system with a probe field, three
four-convention sweeps, and argvs of ``species``, ``check-dimensions`` and
``constants``; one reads the bundled constants with eps0 in V/m, which is
refused at load, so it pins exit 1 and an empty stdout.

``tests/data/payload_digests.json`` holds the exit code and the sha256 of
stdout of every argv of the corpus, one argv a line, and
``tests/data/cli_usage_goldens.json`` the exit code and full stdout and
stderr of every argv of ``USAGE_ARGVS``: the top-level help, each
subcommand's help and every kind of usage error, at a help width of 80
columns.  Both files are goldens: re-record them only for a deliberate
change of a payload or of the parser's text, and list that change with its
reason.  Run from the repository root::

    python tests/payload_corpus.py                                  # re-record both
    python tests/payload_corpus.py --check
    python tests/payload_corpus.py --diff PARENT_SRC --seed S --count N

Every argv runs through ``cli.main`` in a child process that imports
``src/`` of this checkout, with ``COLUMNS=80``; the argv
``CORRUPTED_CONSTANTS`` stands for a file that this module writes once per
run.  ``--check`` recomputes both recorded files and exits 1 if any argv,
exit code, digest or text differs; it needs no pytest.  ``--diff`` runs the
corpus of the given seed and count against ``src/`` of this checkout and
against ``PARENT_SRC`` (another checkout's ``src/``), with the same
corrupted-constants file on both sides.  It prints every argv whose exit
code, stdout or stderr differs, which of the three differ, and both sides'
stderr where it differs; it ends with two counts, of the argvs that differ
in exit code or stdout and of those that differ in stderr only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

SEED = "payload digests, first recording"
COUNT = 160
DATA = Path(__file__).resolve().parent / "data"
DIGESTS = DATA / "payload_digests.json"
USAGE_GOLDENS = DATA / "cli_usage_goldens.json"
SRC = str(Path(__file__).resolve().parent.parent / "src")
BUNDLED_CONSTANTS = Path(SRC) / "vacuumresponse" / "data" / "constants.tsv"
CORRUPTED_CONSTANTS = "{corrupted_constants}"

CONVENTIONS = ("cube", "cube-compton", "cube-half-compton", "sphere")
G_SETS = ("2", "1", "1,2", "3.5", "0.5,2,3.7", "1,2,3.5")
# Below, inside and above the weak-field regime of the electron, whose
# critical field is about 1.3e18 V/m.
PROBE_FIELDS = ("0 V/m", "1 V/m", "2.5 kV/cm", "3e12 V/m", "5e16 V/m", "2e18 V/m")
# Powers of ten near the low and the high end of the gap ratios whose rows
# succeed at g of order 1 (1e-115 to 1e85 for the closed conventions).
LOW_END, HIGH_END = range(-117, -111), range(82, 88)

ALL_CONVENTIONS = ",".join(CONVENTIONS)
FIXED = (
    *(
        ["estimate", "--convention", c, "--units", u, "--format", f, "--probe-field", "1 V/m"]
        for c in CONVENTIONS for u in ("si", "gaussian") for f in ("text", "csv", "json")
    ),
    ["check-dimensions"],
    ["check-dimensions", "--constants", CORRUPTED_CONSTANTS],
    ["species", "--gap-ratio", "1"],
    ["species", "--gap-ratio", "2", "--units", "gaussian"],
    ["species"],
    ["species", "--gap-ratio", "1", "--units", "gaussian"],
    ["species", "--gap-ratio", "1e-300"],
    *(
        ["sweep", "--units", "gaussian", "--conventions", ALL_CONVENTIONS, "--g-factors", "1,2",
         "--points", "80", "--format", f]
        for f in ("csv", "json")
    ),
    ["sweep", "--units", "si", "--conventions", ALL_CONVENTIONS, "--g-factors", "1,2",
     "--kappa-min", "1e-3", "--kappa-max", "1e3", "--points", "80", "--format", "json"],
    ["constants"],
    ["constants", "--derived"],
)

SUBCOMMANDS = ("estimate", "sweep", "species", "check-dimensions", "constants")
USAGE_ARGVS = (
    ["-h"],
    *([name, "-h"] for name in SUBCOMMANDS),
    [],
    ["est"],
    ["bogus"],
    ["--", "estimate"],
    ["--constants", "x", "estimate"],
    ["--constants=x", "estimate"],
    ["-q", "sweep", "--points", "2"],
    *([name, "--bogus"] for name in SUBCOMMANDS),
    ["estimate", "--convention", "tetrahedron"],
    ["estimate", "--format", "svg"],
    ["sweep", "--format", "text"],
    ["species", "--units", "cgs"],
    ["estimate", "--gap-ratio", "two"],
    ["species", "--gap-ratio", "two"],
    ["sweep", "--points", "2.5"],
    ["estimate", "--gap-ratio"],
)


def _kappa(rng: random.Random, where: str) -> float:
    if where == "low":
        return (1 + 9 * rng.random()) * 10.0 ** rng.choice(LOW_END)
    if where == "high":
        return (1 + 9 * rng.random()) * 10.0 ** rng.choice(HIGH_END)
    return 0.05 + 20 * rng.random()


def _g_set(rng: random.Random) -> str:
    if rng.random() < 0.2:
        return repr(0.1 + 9.9 * rng.random())
    return rng.choice(G_SETS)


def _sweep(rng: random.Random) -> list[str]:
    where = rng.choice(("mid", "mid", "mid", "low", "high"))
    kappas = sorted((_kappa(rng, where), _kappa(rng, where)))
    conventions = [c for c in CONVENTIONS if rng.random() < 0.5] or [rng.choice(CONVENTIONS)]
    return [
        "sweep", "--kappa-min", repr(kappas[0]), "--kappa-max", repr(kappas[1]),
        "--points", str(rng.choice(range(2, 33))), "--conventions", ",".join(conventions),
        "--g-factors", _g_set(rng), "--units", rng.choice(("si", "gaussian")),
        "--format", rng.choice(("csv", "json", "svg")),
    ]


def _estimate(rng: random.Random) -> list[str]:
    where = rng.choice(("mid", "mid", "mid", "low", "high"))
    argv = [
        "estimate", "--gap-ratio", repr(_kappa(rng, where)),
        "--convention", rng.choice(CONVENTIONS), "--g-factor", _g_set(rng).split(",")[0],
        "--units", rng.choice(("si", "gaussian")), "--format", rng.choice(("text", "csv", "json")),
    ]
    if rng.random() < 0.4:
        argv += ["--probe-field", rng.choice(PROBE_FIELDS)]
    return argv


def argvs(seed: str = SEED, count: int = COUNT) -> list[list[str]]:
    """``count`` argvs, three sweeps for every two estimates."""
    rng = random.Random(seed)
    return [_sweep(rng) if rng.random() < 0.6 else _estimate(rng) for _ in range(count)]


def corpus(seed: str = SEED, count: int = COUNT) -> list[list[str]]:
    """The seeded argvs followed by ``FIXED``."""
    return [*argvs(seed, count), *FIXED]


def write_corrupted_constants(path: Path) -> Path:
    """Write the bundled constants with the permittivity unit replaced by V/m to ``path``."""
    text = BUNDLED_CONSTANTS.read_text(encoding="utf-8")
    path.write_text(text.replace("A s / (V m)", "V/m"), encoding="utf-8")
    return path


def with_constants(argv: list[str], path: Path | str) -> list[str]:
    """``argv`` with ``CORRUPTED_CONSTANTS`` replaced by ``path``."""
    return [str(path) if word == CORRUPTED_CONSTANTS else word for word in argv]


def run(argv: list[str]) -> tuple[int, str, str]:
    """``cli.main(argv)`` in process: the exit code, stdout and stderr."""
    from vacuumresponse.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _outcomes(cases: list[list[str]], *srcs: str) -> list[list[list]]:
    """For each of ``srcs``, each argv's exit code, stdout and stderr, from a child that imports it.

    The corrupted-constants file is written once, here, so that every child
    reads the same path and prints the same stderr.
    """
    with tempfile.TemporaryDirectory() as scratch:
        path = write_corrupted_constants(Path(scratch) / "constants.tsv")
        sent = json.dumps([with_constants(argv, path) for argv in cases])
        # argparse wraps help to the terminal width, which COLUMNS sets.
        return [
            json.loads(subprocess.run(
                [sys.executable, __file__, "--emit"], input=sent, capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": str(Path(src).resolve()), "COLUMNS": "80"},
                check=True,
            ).stdout)
            for src in srcs
        ]


def _recording(seed: str = SEED, count: int = COUNT) -> tuple[dict, list[dict]]:
    """The digests of ``corpus(seed, count)`` and the usage goldens, computed against ``SRC``."""
    drawn = corpus(seed, count)
    [outcomes] = _outcomes([*drawn, *USAGE_ARGVS], SRC)
    cases = [
        {"argv": argv, "exit": code, "sha256": digest(out)}
        for argv, (code, out, _) in zip(drawn, outcomes)
    ]
    usage = [
        {"argv": argv, "exit": code, "stdout": out, "stderr": err}
        for argv, (code, out, err) in zip(USAGE_ARGVS, outcomes[len(drawn):])
    ]
    return {"seed": seed, "count": count, "cases": cases}, usage


def _write(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")


def _write_digests(digests: dict) -> None:
    """Write the digests one case a line, after the header keys, so a re-recording diffs by case."""
    cases = ",\n".join("  " + json.dumps(case, ensure_ascii=False) for case in digests["cases"])
    DIGESTS.write_text(
        f'{{\n "seed": {json.dumps(digests["seed"])},\n "count": {digests["count"]},\n'
        f' "cases": [\n{cases}\n ]\n}}\n',
        encoding="utf-8",
    )


def record() -> None:
    digests, usage = _recording()
    _write_digests(digests)
    _write(USAGE_GOLDENS, usage)
    print(f"recorded {len(digests['cases'])} argvs in {DIGESTS}")
    print(f"recorded {len(usage)} usage goldens in {USAGE_GOLDENS}")


def check() -> int:
    """Recompute both recorded files against ``SRC``: 0 if they match, else 1."""
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    digests, usage = _recording(recorded["seed"], recorded["count"])
    failed = False
    for what, old, new in (
        ("recorded argvs differ in argv, exit code or digest", recorded["cases"], digests["cases"]),
        ("usage goldens differ in argv, exit code, stdout or stderr",
         json.loads(USAGE_GOLDENS.read_text(encoding="utf-8")), usage),
    ):
        differing = [case["argv"] for case, got in zip(old, new) if case != got]
        for argv in differing:
            print("differs:", argv)
        print(f"{len(differing)} of {len(old)} {what}")
        failed = failed or bool(differing) or len(old) != len(new)
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="recompute the recorded files")
    parser.add_argument("--diff", metavar="PARENT_SRC", help="compare with another checkout's src/")
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--seed", default=SEED)
    parser.add_argument("--count", type=int, default=COUNT)
    args = parser.parse_args()
    if args.emit:
        json.dump([list(run(argv)) for argv in json.load(sys.stdin)], sys.stdout)
        return 0
    if args.check:
        return check()
    if args.diff is None:
        record()
        return 0
    cases = corpus(args.seed, args.count)
    ours, theirs = _outcomes(cases, SRC, args.diff)
    payloads = stderr_only = 0
    for argv, a, b in zip(cases, ours, theirs):
        differ = [name for name, x, y in zip(("exit code", "stdout", "stderr"), a, b) if x != y]
        if not differ:
            continue
        print("differs:", argv, "in", ", ".join(differ))
        if differ == ["stderr"]:
            stderr_only += 1
        else:
            payloads += 1
        if "stderr" in differ:
            for side, (_, _, err) in (("  here:", a), ("  parent:", b)):
                print(side, *err.splitlines(), sep="\n    ")
    print(f"{payloads} of {len(cases)} argvs differ in exit code or stdout")
    print(f"{stderr_only} of {len(cases)} argvs differ in stderr only")
    return 1 if payloads or stderr_only else 0


if __name__ == "__main__":
    sys.exit(main())
