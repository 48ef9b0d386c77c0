"""Mutation table of the vertex layer.

Each row is a plausible bug, applied as a monkeypatch, and the check
expected to catch it.  A row never moves from caught to missed without a
line in CHANGES.md; a missed row is a blind spot listed in the README.
"""

import sys
from functools import lru_cache

import pytest

from nestloc import integrals, vertex
from nestloc.characters import LaurentPoly
from nestloc.harness import Scenario, default_battery_scenarios, run_scenario
from nestloc.vertex import GlobalCharacter
from test_integrals import CARLSSON_OKOUNKOV, carlsson_okounkov_mismatches

TWISTED_ROWS = {(fn().name, degrees) for fn, degrees, _ in CARLSSON_OKOUNKOV if any(degrees)}


@pytest.fixture
def mutate(monkeypatch):
    """Replace a `vertex` function in every nestloc module that binds it,
    with every character cache cleared around the patch."""
    cached = [
        vertex._chart_term, vertex.vertex_V, vertex.co_class, vertex.tangent_char,
        vertex.virtual_tangent_char, integrals._chern_series_cached, integrals._euler_cached,
    ]

    def clear():
        for fn in cached:
            fn.cache_clear()

    def apply(name, mutant):
        original = getattr(vertex, name)
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("nestloc") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, mutant)
        clear()

    yield apply
    monkeypatch.undo()
    clear()


def carlsson_okounkov_failures():
    return {
        (fn().name, degrees)
        for fn, degrees, expected in CARLSSON_OKOUNKOV
        if carlsson_okounkov_mismatches(fn(), degrees, expected)
    }


def failing_identities(scenario):
    report = run_scenario(scenario)
    return {c["inputs"].get("identity") for c in report["cases"] if c["verdict"] != "pass"}


def test_co_class_without_twist_is_caught_by_carlsson_okounkov(mutate):
    original = vertex.co_class

    def untwisted(surface, mp1, mp2, bundle):
        return original(surface, mp1, mp2, vertex._trivial_bundle(surface))

    mutate("co_class", untwisted)
    assert carlsson_okounkov_failures() == TWISTED_ROWS


def test_chart_term_ignoring_twist_is_caught_by_carlsson_okounkov(mutate):
    original = vertex._chart_term

    @lru_cache(maxsize=None)
    def untwisted(chart, mu, local):
        return original(chart, (0, 0), local)

    mutate("_chart_term", untwisted)
    assert carlsson_okounkov_failures() == TWISTED_ROWS


def test_off_by_one_co_class_degree_is_caught_by_weight_zero_identity(mutate):
    """One weight-zero summand too many (chi(O) counted twice): rank
    |mp1| + |mp2| + 1 and the same Chern classes, so only the nesting
    test of serre-duality sees it."""
    original = vertex.co_class

    def one_too_many(surface, mp1, mp2, bundle):
        char = original(surface, mp1, mp2, bundle)
        return GlobalCharacter(char.value + LaurentPoly.one(), char.rank + 1)

    mutate("co_class", one_too_many)
    assert carlsson_okounkov_failures() == set()
    assert failing_identities(Scenario(kind="serre-duality", surface="p2")) == {
        "nested co_class effective; weight-zero detects nesting"
    }


def test_dualized_taut_char_is_a_recorded_miss(mutate):
    """Blind spot: the pushforward identity holds for any insertion
    classes, so the `all` battery passes; only the golden characters and
    the reference assembly in test_vertex pin taut_char."""
    original = vertex.taut_char

    def dualized(surface, bundle, mp):
        char = original(surface, bundle, mp)
        return GlobalCharacter(char.value.bar(), char.rank)

    mutate("taut_char", dualized)
    for scenario in default_battery_scenarios():
        assert failing_identities(scenario) == set(), scenario.kind
