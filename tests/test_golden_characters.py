"""Golden characters pin the chart substitution and line-bundle weight
conventions: any sign flip or reindexing changes these serialized forms."""

import json
import os

from nestloc import vertex
from nestloc.combinatorics import MultiPartition, Partition, multipartitions
from nestloc.toric import SURFACES, bundle_by_label

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "characters.json")


def parse_mp(text: str) -> MultiPartition:
    inner = json.loads(text)
    return MultiPartition(tuple(Partition(tuple(parts)) for parts in inner))


def test_characters_match_golden_file():
    assert golden_mismatches() == []


def golden_mismatches():
    """Golden rows whose characters differ from the computed ones.

    The characters are read from the `vertex` module at call time, so a
    monkeypatched chart term or co-class is the one checked."""
    with open(GOLDEN, encoding="utf-8") as fh:
        rows = json.load(fh)
    assert rows
    bad = []
    for row in rows:
        surface = SURFACES[row["surface"]]
        twist = bundle_by_label(surface, "O(1)" if surface.name == "p2" else "O(1,0)")
        mp = parse_mp(row["mp"])
        if "tangent" in row:
            got = {
                "tangent": vertex.tangent_char(surface, mp).to_text(),
                "taut_twisted": vertex.taut_char(surface, twist, mp).to_text(),
            }
        else:
            mp2 = parse_mp(row["mp2"])
            got = {"co_twisted": vertex.co_class(surface, mp, mp2, twist).to_text()}
        if any(row[key] != text for key, text in got.items()):
            bad.append(row)
    return bad
