"""A seeded corpus of ``sweep`` and ``estimate`` argvs, and what each one prints.

``argvs(seed, count)`` draws argvs over every volume convention, both unit
systems, every output format, several g sets, ``--probe-field`` values from
zero to beyond the critical field, and gap ratios from the middle of the
range to near both ends where rows still succeed; some of them exit 1.  It
uses only ``random()`` and ``choice()`` of a ``random.Random`` seeded by a
string, whose output is the same on every Python version.

``tests/data/payload_digests.json`` holds the exit code and the sha256 of
stdout of every argv of ``argvs(SEED, COUNT)``, which
``tests/test_payload_digests.py`` recomputes in process.  The file is a
golden: re-record it only for a deliberate payload change, and list that
change with its reason.  Run from the repository root::

    PYTHONPATH=src python tests/payload_corpus.py                   # re-record
    python tests/payload_corpus.py --check
    python tests/payload_corpus.py --diff PARENT_SRC --seed S --count N

``--check`` recomputes the recorded file against ``src/`` of this checkout,
in a child process, and exits 1 if any argv, exit code or digest differs;
it needs no pytest.  ``--diff`` runs the same argvs against ``src/`` of this
checkout and against ``PARENT_SRC`` (another checkout's ``src/``), each in a
child process, followed by ``FIXED``, one argv of each kind for the other
subcommands.  It prints every argv whose exit code, stdout or stderr
differs, which of the three differ, and both sides' stderr where it differs;
it ends with two counts, of the argvs that differ in exit code or stdout and
of those that differ in stderr only.
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
from pathlib import Path

SEED = "payload digests, first recording"
COUNT = 160
DIGESTS = Path(__file__).resolve().parent / "data" / "payload_digests.json"
SRC = str(Path(__file__).resolve().parent.parent / "src")

CONVENTIONS = ("cube", "cube-compton", "cube-half-compton", "sphere")
G_SETS = ("2", "1", "1,2", "3.5", "0.5,2,3.7", "1,2,3.5")
# Below, inside and above the weak-field regime of the electron, whose
# critical field is about 1.3e18 V/m.
PROBE_FIELDS = ("0 V/m", "1 V/m", "2.5 kV/cm", "3e12 V/m", "5e16 V/m", "2e18 V/m")
# Powers of ten near the low and the high end of the gap ratios whose rows
# succeed at g of order 1 (1e-115 to 1e85 for the closed conventions).
LOW_END, HIGH_END = range(-117, -111), range(82, 88)

# The argvs of the subcommands that ``argvs`` does not draw, run by ``--diff`` only.
FIXED = (
    ["species"],
    ["species", "--gap-ratio", "1", "--units", "gaussian"],
    ["species", "--gap-ratio", "1e-300"],
    ["check-dimensions"],
    ["constants"],
    ["constants", "--derived"],
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


def run(argv: list[str]) -> tuple[int, str, str]:
    """``cli.main(argv)`` in process: the exit code, stdout and stderr."""
    from vacuumresponse.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def record() -> None:
    cases = []
    for argv in argvs():
        code, out, _ = run(argv)
        cases.append({"argv": argv, "exit": code, "sha256": digest(out)})
    payload = {"seed": SEED, "count": COUNT, "cases": cases}
    DIGESTS.write_text(json.dumps(payload, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"recorded {len(cases)} argvs in {DIGESTS}")


def _outcomes(src: str, cases: list[list[str]]) -> list[list]:
    """Each argv's exit code, stdout and stderr, from a child that imports ``src``."""
    env = {**os.environ, "PYTHONPATH": str(Path(src).resolve())}
    child = subprocess.run(
        [sys.executable, __file__, "--emit"],
        input=json.dumps(cases), env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(child.stdout)


def check() -> int:
    """Recompute the recorded file against ``SRC``: 0 if it matches, else 1."""
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    count = recorded["count"]
    drawn = argvs(recorded["seed"], count)
    cases = [
        {"argv": argv, "exit": code, "sha256": digest(out)}
        for argv, (code, out, _) in zip(drawn, _outcomes(SRC, drawn))
    ]
    differing = [case["argv"] for case, new in zip(recorded["cases"], cases) if case != new]
    for argv in differing:
        print("differs:", argv)
    print(f"{len(differing)} of {count} recorded argvs differ in argv, exit code or digest")
    return 1 if differing or len(recorded["cases"]) != count else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="recompute the recorded digests")
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
    cases = [*argvs(args.seed, args.count), *FIXED]
    ours, theirs = (_outcomes(src, cases) for src in (SRC, args.diff))
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
