"""The unit-text corpus: seeded unit texts, and what the parser makes of each.

``texts(seed, count)`` draws ``count`` texts from a ``random.Random`` seeded
by a string, using only ``random()``, ``getrandbits`` and ``choice``, whose
output is the same on every Python version.  It draws five kinds of text:

- valid expressions over every registry name, behind every prefix and both
  micro signs, with powers, every joiner and nested groups;
- the same expressions mutated: a character inserted, deleted or swapped,
  or the text cut short;
- token soup, with ``²``, ``٣``, ``_``, tabs and U+2028 among the tokens;
- powers whose numerator or denominator has 400 to 4301 digits, around the
  limit of 4300 digits that ``int`` reads;
- 99 to 101 nested groups, around the parser's limit of 100.

Each text gives one line: for a text that parses, its ``scale.hex()``, its
dimension key and ``format_dimension``; for an error, its class, message,
``position`` and ``expected``.  The lines are hashed in chunks of ``CHUNK``,
and ``tests/data/unit_corpus_digests.json`` holds the seed, the count and
the digest of each chunk.  The file is a golden: re-record it only for a
deliberate change of what the parser returns or raises, and list that
change with its reason.  Run from the repository root::

    python tests/unit_corpus.py                     # re-record the digests
    python tests/unit_corpus.py --check
    python tests/unit_corpus.py --diff PARENT_SRC [--seed S] [--count N]

Every text is parsed in a child process that imports ``src/`` of a checkout,
with the limit on ``int`` digits set to 4300 explicitly, since an error's
message names it.  ``--check`` recomputes the digests and exits 1 if any
chunk differs, printing the first texts of each such chunk; it needs no
pytest.  ``--diff`` parses the texts of the given seed and count (by
default 200 000) with ``src/`` of this checkout and with ``PARENT_SRC``
(another checkout's ``src/``), prints the first texts whose lines differ,
with both lines, and ends with the count of differing texts.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

SEED = "unit corpus, first recording"
COUNT = 40_000
DIFF_COUNT = 200_000
CHUNK = 1000
DIGESTS = Path(__file__).resolve().parent / "data" / "unit_corpus_digests.json"
SRC = str(Path(__file__).resolve().parent.parent / "src")

# The most digits ``int`` reads from a string; the parser's message names it.
MAX_DIGITS = 4300

# The registry's names and the prefixes, copied so that the texts do not
# depend on the code under test; a tier-1 test checks them against it.
NAMES = ("m", "kg", "s", "A", "K", "mol", "cd", "Hz", "N", "J", "W", "C", "V", "F", "T", "H",
         "eV", "g")
PREFIXES = ("", "", "", "", "y", "z", "a", "f", "p", "n", "u", "\u00b5", "\u03bc", "m", "c",
            "d", "da", "h", "k", "M", "G", "T", "P", "E", "Z", "Y")
JOINERS = (" ", " ", " ", "*", " * ", "/", " / ", "/", "\u00b7", "\t", "  ", "\u2028")
NUMERATORS = (*range(13), 30, 100, 1000)
SIGNS = ("", "", "", "-", "+", "- ")
CARETS = ("^", "^", "^", " ^ ", "^ ")
SLASHES = ("/", "/", " / ")
# The superscript two and the Arabic-Indic three are neither letters nor ASCII digits.
MUTANTS = "()^/*\u00b7+- 0123456789_\u00b2\u0663\t\u2028x\u00b5\u03bc"
SOUP = ("^", "+", "-", "*", "/", "\u00b7", "(", ")", " ", "\t", "\u2028", "\u00b2", "\u0663",
        "_", "m", "kg", "foo", "\u00b5s", "\u03bcA", "1", "0", "2", "12", "eV", "da", "x", "^1/0")
EDGES = ("", "", "", "", " ", "\t", "\u2028")


def _below(rng: random.Random, n: int) -> int:
    return int(rng.random() * n)


def _power(rng: random.Random) -> str:
    if rng.random() < 0.6:
        return ""
    text = rng.choice(CARETS) + rng.choice(SIGNS) + str(rng.choice(NUMERATORS))
    if rng.random() < 0.4:
        text += rng.choice(SLASHES) + str(rng.choice(range(1, 13)))
    return text


def _factor(rng: random.Random, depth: int) -> str:
    r = rng.random()
    if r < 0.15 and depth < 4:
        return "(" + _expression(rng, depth + 1) + ")" + _power(rng)
    if r < 0.2:
        return "1" + _power(rng)
    return rng.choice(PREFIXES) + rng.choice(NAMES) + _power(rng)


def _expression(rng: random.Random, depth: int = 0) -> str:
    text = _factor(rng, depth)
    while rng.random() < 0.55:
        text += rng.choice(JOINERS) + _factor(rng, depth)
    return text


def _valid(rng: random.Random) -> str:
    return rng.choice(EDGES) + _expression(rng) + rng.choice(EDGES)


def _mutated(rng: random.Random) -> str:
    text = _valid(rng)
    for _ in range(1 + _below(rng, 3)):
        i, r = _below(rng, len(text) + 1), rng.random()
        if r < 0.4:
            text = text[:i] + rng.choice(MUTANTS) + text[i:]
        elif r < 0.7:
            text = text[:i] + text[i + 1:]
        elif r < 0.85:
            text = text[:i]
        else:
            text = text[:i] + text[i:i + 2][::-1] + text[i + 2:]
    return text


def _soup(rng: random.Random) -> str:
    tokens = (
        str(rng.getrandbits(20)) if rng.random() < 0.1 else rng.choice(SOUP)
        for _ in range(1 + _below(rng, 12))
    )
    return "".join(tokens)


def _digits(rng: random.Random, count: int) -> str:
    """``count`` digits, the first nonzero, each run of them far below ``MAX_DIGITS``."""
    text = rng.choice("123456789")
    while len(text) < count:
        text += str(rng.getrandbits(2990))
    return text[:count]


def _long_exponent(rng: random.Random) -> str:
    if rng.random() < 0.5:
        count = rng.choice((400, MAX_DIGITS - 1, MAX_DIGITS, MAX_DIGITS + 1))
    else:
        count = 400 + _below(rng, MAX_DIGITS + 2 - 400)
    digits, small = _digits(rng, count), str(rng.choice(range(1, 13)))
    power = rng.choice((digits, digits, digits + "/" + small, small + "/" + digits))
    base = rng.choice(("m", "kg", "Ym", "1", "(m s)", "s", "(m"))
    tail = rng.choice(("", "", " m", " (", "/", " foo", "^2", ")"))
    return base + rng.choice(CARETS) + rng.choice(SIGNS) + power + tail


def _deep_groups(rng: random.Random) -> str:
    depth = rng.choice((99, 100, 101))
    closed = depth - rng.choice((0, 0, 0, 1, 2, -1))
    opens = rng.choice(("(", "(", " (", "m (", "m/(", "s^2(")) * depth
    closes = rng.choice((")", ")", ")^2", ") ^-1/2", ") m")) * closed
    inner = _expression(rng) if rng.random() < 0.9 else ""
    return opens + inner + closes


def texts(seed: str = SEED, count: int = COUNT):
    """The ``count`` texts of ``seed``, lazily, in order."""
    rng = random.Random(seed)
    for _ in range(count):
        r = rng.random()
        if r < 0.35:
            yield _valid(rng)
        elif r < 0.65:
            yield _mutated(rng)
        elif r < 0.92:
            yield _soup(rng)
        elif r < 0.97:
            yield _long_exponent(rng)
        else:
            yield _deep_groups(rng)


def lines(seed: str = SEED, count: int = COUNT):
    """One line per text of ``texts(seed, count)``: what ``parse_unit`` returns or raises."""
    # Imported here: ``--check`` and ``--diff`` parse in children, each with its own ``src/``.
    from vacuumresponse.units import UnitParseError, format_dimension, parse_unit

    sys.set_int_max_str_digits(MAX_DIGITS)
    for text in texts(seed, count):
        try:
            scale, dimension = parse_unit(text)
        except UnitParseError as err:
            expected = getattr(err, "expected", None)
            outcome = [type(err).__name__, str(err), getattr(err, "position", None),
                       expected and list(expected)]
        else:
            outcome = ["ok", scale.hex(), list(dimension._key), format_dimension(dimension)]
        yield json.dumps([text, *outcome])


def digests(produced) -> list[tuple[str, list[str]]]:
    """The sha256 of each chunk of ``CHUNK`` lines, with the chunk's first three texts."""
    found = []
    it = iter(produced)
    while chunk := list(itertools.islice(it, CHUNK)):
        digest = hashlib.sha256("\n".join(chunk).encode("ascii")).hexdigest()
        found.append((digest, [json.loads(line)[0] for line in chunk[:3]]))
    return found


def mismatches(recorded: dict, produced) -> list[str]:
    """One report per chunk of ``produced`` lines whose digest differs from ``recorded``."""
    found = digests(produced)
    reports = [
        f"chunk {i} (texts {i * CHUNK} on) differs; its first texts: "
        + ", ".join(repr(text)[:80] for text in first)
        for i, ((digest, first), want) in enumerate(zip(found, recorded["digests"]))
        if digest != want
    ]
    if len(found) != len(recorded["digests"]):
        reports.append(f"{len(found)} chunks, not {len(recorded['digests'])}")
    return reports


def _emitted(src: str, seed: str, count: int):
    """``lines(seed, count)``, one by one, from a child that imports ``src``."""
    with subprocess.Popen(
        [sys.executable, __file__, "--emit", "--seed", seed, "--count", str(count)],
        stdout=subprocess.PIPE, text=True, encoding="ascii",
        env={**os.environ, "PYTHONPATH": str(Path(src).resolve())},
    ) as child:
        for line in child.stdout:
            yield line.rstrip("\n")
    if child.returncode:
        raise SystemExit(f"the child that parses the texts with {src} exited {child.returncode}")


def record() -> None:
    found = digests(_emitted(SRC, SEED, COUNT))
    payload = {"seed": SEED, "count": COUNT, "chunk": CHUNK, "digests": [d for d, _ in found]}
    DIGESTS.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(found)} chunks of {COUNT} texts in {DIGESTS}")


def check() -> int:
    """Recompute the digests against ``SRC``: 0 if they match, else 1."""
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    reports = mismatches(recorded, _emitted(SRC, recorded["seed"], recorded["count"]))
    for report in reports:
        print(report)
    print(f"{len(reports)} of {len(recorded['digests'])} chunks differ")
    return 1 if reports else 0


def diff(parent: str, seed: str, count: int) -> int:
    """Compare the lines of this checkout's ``src/`` with those of ``parent``: 0 if none differ."""
    differing = 0
    for here, there in zip(_emitted(SRC, seed, count), _emitted(parent, seed, count), strict=True):
        if here != there:
            differing += 1
            if differing <= 20:
                print("here:  ", here[:300], "\nparent:", there[:300])
    print(f"{differing} of {count} texts differ")
    return 1 if differing else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="recompute the recorded digests")
    parser.add_argument("--diff", metavar="PARENT_SRC", help="compare with another checkout's src/")
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--seed", default=SEED)
    parser.add_argument("--count", type=int)
    args = parser.parse_args()
    if args.emit:
        for line in lines(args.seed, args.count):
            print(line)
        return 0
    if args.check:
        return check()
    if args.diff is not None:
        return diff(args.diff, args.seed, args.count or DIFF_COUNT)
    record()
    return 0


if __name__ == "__main__":
    sys.exit(main())
