"""``sweep`` and ``estimate`` print exactly what they printed when the digests were recorded.

The argvs and their digests are in ``tests/data/payload_digests.json``; see
``tests/payload_corpus.py`` for how they are drawn and how to re-record them.
"""

import json

from payload_corpus import DIGESTS, argvs, digest, run
from vacuumresponse.report import SweepConfig

RECORDED = json.loads(DIGESTS.read_text(encoding="utf-8"))


def test_the_recorded_argvs_are_the_seeded_ones():
    recorded = [case["argv"] for case in RECORDED["cases"]]
    assert recorded == argvs(RECORDED["seed"], RECORDED["count"])


def test_every_argv_prints_its_recorded_payload():
    changed = []
    for case in RECORDED["cases"]:
        code, out, err = run(case["argv"])
        if (code, digest(out)) != (case["exit"], case["sha256"]):
            changed.append((case["argv"], code, err, out[:200]))
    assert not changed, f"{len(changed)} argvs changed; the first: {changed[0]}"


def test_the_corpus_covers_what_it_pins():
    seen = set()
    for case in RECORDED["cases"]:
        argv, code = case["argv"], case["exit"]
        flags = dict(zip(argv[1::2], argv[2::2]))
        seen |= {(argv[0], code), ("units", flags["--units"]), ("format", flags["--format"])}
        if "--probe-field" in flags:
            seen.add(("probe", code))
        if argv[0] == "sweep":
            seen |= {("convention", c) for c in flags["--conventions"].split(",")}
            seen.add(("g set", flags["--g-factors"]))
            config = SweepConfig(float(flags["--kappa-min"]), float(flags["--kappa-max"]),
                                 int(flags["--points"]))
            if config.kappas()[-1] != config.kappa_max:
                seen.add(("last kappa is not kappa_max", code))
    wanted = {
        ("sweep", 0), ("sweep", 1), ("estimate", 0), ("estimate", 1), ("probe", 0), ("probe", 1),
        ("units", "si"), ("units", "gaussian"), ("last kappa is not kappa_max", 0),
        *(("format", f) for f in ("csv", "json", "svg", "text")),
        *(("convention", c) for c in ("cube", "cube-compton", "cube-half-compton", "sphere")),
    }
    assert wanted <= seen
    assert len({value for kind, value in seen if kind == "g set"}) >= 5
