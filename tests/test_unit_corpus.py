"""Every text of the unit corpus parses, or fails, as when its digests were recorded.

The texts are seeded; their kinds, and how to re-record
``tests/data/unit_corpus_digests.json`` or compare with another checkout,
are in ``tests/unit_corpus.py``.  A differing chunk is named with its first
texts.
"""

import json

from unit_corpus import DIGESTS, NAMES, PREFIXES, lines, mismatches
from vacuumresponse import units

RECORDED = json.loads(DIGESTS.read_text(encoding="utf-8"))


def test_every_text_parses_or_fails_as_recorded():
    assert mismatches(RECORDED, lines(RECORDED["seed"], RECORDED["count"])) == []


def test_the_texts_draw_every_registry_name_behind_every_prefix():
    assert set(NAMES) == set(units.REGISTRY)
    assert set(PREFIXES) == {"", *units.SI_PREFIXES, "\u00b5", "\u03bc"}
