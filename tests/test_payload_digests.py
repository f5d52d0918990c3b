"""Every argv of the corpus prints exactly what it printed when the digests were recorded.

The corpus is the seeded ``sweep`` and ``estimate`` argvs followed by
``FIXED``, which covers all five subcommands; its argvs and their digests are
in ``tests/data/payload_digests.json``.  See ``tests/payload_corpus.py`` for
how they are drawn and how to re-record them.  The seeded argvs replay in one
test; each argv of ``FIXED`` replays in a test of its own, named by the argv.
"""

import json

import pytest

from payload_corpus import DIGESTS, corpus, digest, run, with_constants
from vacuumresponse.report import SweepConfig

RECORDED = json.loads(DIGESTS.read_text(encoding="utf-8"))
SEEDED = RECORDED["cases"][: RECORDED["count"]]
FIXED = RECORDED["cases"][RECORDED["count"] :]


def _flags(argv):
    """``argv``'s flags, each with its value, or with True if no value follows it."""
    words = argv[1:]
    return {
        word: True if i + 1 == len(words) or words[i + 1].startswith("--") else words[i + 1]
        for i, word in enumerate(words)
        if word.startswith("--")
    }


def test_the_recorded_argvs_are_the_seeded_ones():
    recorded = [case["argv"] for case in RECORDED["cases"]]
    assert recorded == corpus(RECORDED["seed"], RECORDED["count"])


def test_every_seeded_argv_prints_its_recorded_payload():
    changed = []
    for case in SEEDED:
        code, out, err = run(case["argv"])
        if (code, digest(out)) != (case["exit"], case["sha256"]):
            changed.append((case["argv"], code, err, out[:200]))
    assert not changed, f"{len(changed)} argvs changed; the first: {changed[0]}"


@pytest.mark.parametrize("case", FIXED, ids=lambda case: " ".join(case["argv"]))
def test_fixed_argv_prints_its_recorded_payload(corrupted_constants, case):
    code, out, err = run(with_constants(case["argv"], corrupted_constants))
    assert (code, digest(out)) == (case["exit"], case["sha256"]), err


def test_the_corpus_covers_what_it_pins():
    seen = set()
    for case in RECORDED["cases"]:
        argv, code = case["argv"], case["exit"]
        flags = _flags(argv)
        # A flag without a value (--derived) names a command of its own.
        command = " ".join([argv[0], *(flag for flag, value in flags.items() if value is True)])
        seen |= {(command, code), (f"{argv[0]} units", flags.get("--units", "si"))}
        if "--format" in flags:
            seen.add(("format", flags["--format"]))
        if "--probe-field" in flags:
            seen.add(("probe", code))
        if argv[0] == "species":
            seen.add(("species gap ratio", flags.get("--gap-ratio")))
        if argv[0] == "sweep":
            seen |= {("convention", c) for c in flags["--conventions"].split(",")}
            seen.add(("g set", flags["--g-factors"]))
        if argv[0] == "sweep" and "--kappa-min" in flags:
            config = SweepConfig(float(flags["--kappa-min"]), float(flags["--kappa-max"]),
                                 int(flags["--points"]))
            if config.kappas()[-1] != config.kappa_max:
                seen.add(("last kappa is not kappa_max", code))
    wanted = {
        ("sweep", 0), ("sweep", 1), ("estimate", 0), ("estimate", 1), ("probe", 0), ("probe", 1),
        ("species", 0), ("check-dimensions", 0), ("check-dimensions", 1),
        ("constants", 0), ("constants --derived", 0), ("species gap ratio", "1e-300"),
        *((f"{command} units", u) for command in ("sweep", "estimate", "species")
          for u in ("si", "gaussian")),
        ("last kappa is not kappa_max", 0),
        *(("format", f) for f in ("csv", "json", "svg", "text")),
        *(("convention", c) for c in ("cube", "cube-compton", "cube-half-compton", "sphere")),
    }
    assert wanted <= seen, wanted - seen
    assert len({value for kind, value in seen if kind == "g set"}) >= 5
