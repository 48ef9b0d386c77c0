"""Mutation table.

Each row is a plausible bug, applied as a monkeypatch, and the check
expected to catch it.  A row never moves from caught to missed without a
line in CHANGES.md; a missed row is a blind spot listed in the README.
"""

import sys
from fractions import Fraction
from functools import lru_cache

import pytest

from nestloc import chern, combinatorics, harness, integrals, series, vertex
from nestloc.characters import LaurentPoly
from nestloc.chern import FormalBundle
from nestloc.harness import BATTERY, run_scenario, scenario_from_entry
from nestloc.series import binomial
from nestloc.toric import SURFACES, bundle_by_label, line_bundle
from test_golden_characters import golden_mismatches
from test_guards import REPORT_DIGESTS, SIZE_FLAGS, stable_report_digest
from test_integrals import (
    CARLSSON_OKOUNKOV,
    TAUTOLOGICAL_CHI,
    TRIE_ORACLE,
    carlsson_okounkov_mismatches,
    fubini_mismatches,
    fubini_rows,
    measure_reuse_mismatches,
    tautological_chi_mismatches,
    trie_oracle_mismatches,
)

TWISTED_ROWS = {(fn().name, degrees) for fn, degrees, _ in CARLSSON_OKOUNKOV if any(degrees)}
TWISTED_CHI_ROWS = {(fn().name, degrees) for fn, degrees in TAUTOLOGICAL_CHI if any(degrees)}
#: the (surface, bundle) rows of `hrr-check`, and those but O: 3 on p2, 8 on p1xp1
HRR_ROWS = {
    (surface.name, line_bundle(surface, *degrees).label)
    for surface in SURFACES.values()
    for degrees in surface.hrr_degrees
}
TWISTED_HRR_ROWS = {(name, label) for name, label in HRR_ROWS if label != "O"}


@pytest.fixture
def mutate(monkeypatch):
    """Replace `module.name` in every nestloc module that binds it, with
    every `lru_cache` that `vertex` and `integrals` bind cleared around
    the patch, so no value computed by the other version of the code is
    read back.  Each scenario builds its own integrands, so no plan needs
    clearing."""

    def clear():
        for module in (vertex, integrals):
            for value in list(vars(module).values()):
                if hasattr(value, "cache_info"):
                    value.cache_clear()

    def apply(module, name, mutant):
        original = getattr(module, name)
        for module_name, bound in list(sys.modules.items()):
            if module_name.startswith("nestloc") and getattr(bound, name, None) is original:
                monkeypatch.setattr(bound, name, mutant)
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


def tautological_chi_failures():
    return {
        (fn().name, degrees)
        for fn, degrees in TAUTOLOGICAL_CHI
        if tautological_chi_mismatches(fn(), degrees)
    }


def failing_identities(entry):
    report = run_scenario(scenario_from_entry(entry))
    return {c["inputs"].get("identity") for c in report["cases"] if c["verdict"] != "pass"}


def failing_battery_kinds():
    return {e["kind"] for e in BATTERY if failing_identities(e)}


def hrr_report(name):
    return run_scenario(scenario_from_entry({"kind": "hrr-check", "surface": name}))


def hrr_failures():
    """(surface, bundle) of every failing `hrr-check` case on both surfaces."""
    return {
        (name, case["inputs"]["bundle"])
        for name in SURFACES
        for case in hrr_report(name)["cases"]
        if case["verdict"] != "pass"
    }


def higher_tp_rows(min_degree):
    """The `symbolic-tp` rows (default truncation 8) whose identity has
    degree r1 - r0 + 1 + i at least `min_degree`."""
    return {
        f"higher-tp r0={r0} r1={r1} i={i}"
        for r0 in range(1, 4)
        for r1 in range(1, 6)
        for i in range(4)
        if min_degree <= r1 - r0 + 1 + i <= 8
    }


def test_co_class_without_twist_is_caught_by_carlsson_okounkov(mutate):
    """The fold `ext_class` is patched, so the cached `co_class` the sums
    read and the uncached reads of the serre-duality suite both see it."""
    original = vertex.ext_class

    def untwisted(surface, mp1, mp2, bundle):
        return original(surface, mp1, mp2, bundle_by_label(surface, "O"))

    mutate(vertex, "ext_class", untwisted)
    assert carlsson_okounkov_failures() == TWISTED_ROWS


def test_chart_term_ignoring_twist_is_caught_by_carlsson_okounkov(mutate):
    original = vertex._pair_term

    @lru_cache(maxsize=None)
    def untwisted(chart, mu, lam1, lam2):
        return original(chart, (0, 0), lam1, lam2)

    mutate(vertex, "_pair_term", untwisted)
    assert carlsson_okounkov_failures() == TWISTED_ROWS


def test_off_by_one_co_class_degree_is_caught_by_weight_zero_identity(mutate):
    """One weight-zero summand too many (chi(O) counted twice): rank
    |mp1| + |mp2| + 1 and the same Chern classes, so only the nesting
    test of serre-duality sees it.  That suite reads the uncached fold
    `ext_class`, so the fold is patched, not its cache `co_class`."""
    original = vertex.ext_class

    def one_too_many(surface, mp1, mp2, bundle):
        return original(surface, mp1, mp2, bundle) + LaurentPoly.one()

    mutate(vertex, "ext_class", one_too_many)
    assert carlsson_okounkov_failures() == set()
    assert failing_identities({"kind": "serre-duality", "surface": "p2"}) == {
        "nested co_class effective; weight-zero detects nesting"
    }


def test_pair_term_with_swapped_partitions_is_caught_by_nesting_and_pushforward(mutate):
    """V(Q_lam2, Q_lam1) in place of V(Q_lam1, Q_lam2): tangent characters
    are unchanged (lam1 = lam2 there), and a tautological character
    E_L(empty, mp) reads V(Q_lam, 0) = bar(Q_lam)/(u1 u2), of the same rank,
    which the pushforward identity holds for.  A nested pair's co-class is no
    longer effective, so the serre-duality nesting identity fails, and the
    virtual tangent character of a chain gets a net weight-zero term, so
    pushforward fails with ZeroWeight.  hrr-check reads c1(L^[1]) as
    c1(L) + c1(T), so every bundle fails it, O too.  The battery's
    kstep (1,1,1) passes: consecutive steps of its chains are equal, so
    its virtual side does not see the swap."""
    original = vertex._pair_term

    @lru_cache(maxsize=None)
    def swapped(chart, mu, lam1, lam2):
        return original(chart, mu, lam2, lam1)

    mutate(vertex, "_pair_term", swapped)
    assert failing_battery_kinds() == {"serre-duality", "pushforward", "hrr-check"}
    assert failing_identities({"kind": "serre-duality", "surface": "p2"}) == {
        "nested co_class effective; weight-zero detects nesting"
    }
    assert hrr_failures() == HRR_ROWS


def test_dualized_taut_char_is_caught_by_hrr_check_and_tautological_chi(mutate):
    """The pushforward identity holds for any insertion classes, so of the
    `all` battery only hrr-check fails, on every nontrivial bundle: it
    reads c1(L) from L^[1], whose weight is negated.  The closed form
    chi(S^[n], L^[n]) = chi(S, L) fails for every nontrivial bundle too
    (p2 O(1) reads 0 in place of 39/10), as do the golden characters and
    the reference assembly in test_vertex."""
    original = vertex.taut_char

    def dualized(surface, bundle, mp):
        return original(surface, bundle, mp).bar()

    mutate(vertex, "taut_char", dualized)
    assert failing_battery_kinds() == {"hrr-check"}
    assert hrr_failures() == TWISTED_HRR_ROWS
    assert tautological_chi_failures() == TWISTED_CHI_ROWS
    assert (2, 0, Fraction(39, 10)) in tautological_chi_mismatches(SURFACES["p2"], (1,))


def test_sign_flip_in_euler_class_is_caught(mutate):
    """e(T) negated: euler-count's and hrr-check's integrals over one
    factor change sign, and pushforward's ambient sum over two factors
    keeps its sign while the virtual sum flips.  kstep's three factors
    flip with the virtual sum, so it passes."""
    original = integrals.euler_class

    def negated(char, spec):
        return -original(char, spec)

    mutate(integrals, "euler_class", negated)
    assert failing_battery_kinds() == {"euler-count", "pushforward", "hrr-check"}


def test_virtual_sum_dropping_a_chain_is_caught(mutate):
    """Each nested_chains call loses its last chain.  Only the virtual
    sums read the chains for a verdict; the reports' chain counts drop too."""
    original = combinatorics.nested_chains

    def one_short(surface, sizes):
        return original(surface, sizes)[:-1]

    mutate(combinatorics, "nested_chains", one_short)
    assert failing_battery_kinds() == {"pushforward", "kstep"}


def test_dropped_chain_is_named_in_the_failing_cases(mutate):
    """Under the one-short mutant every failing pushforward case names the
    chain the virtual measure lacks, with its ambient weight."""
    original = combinatorics.nested_chains
    missing = original(SURFACES["p2"], (2, 1))[-1]

    def one_short(surface, sizes):
        return original(surface, sizes)[:-1]

    mutate(combinatorics, "nested_chains", one_short)
    report = run_scenario(scenario_from_entry({"kind": "pushforward", "n": [2, 1]}))
    diagnostics = {c["diagnostic"] for c in report["cases"] if c["verdict"] == "fail"}
    assert len(diagnostics) == 1
    (diagnostic,) = diagnostics
    assert diagnostic.startswith(
        f"SpecDependence: virtual values differ; first differing point {missing.to_text()} at s="
    )
    assert diagnostic.endswith(", virtual missing")


def test_chain_listed_twice_is_caught_by_pushforward(mutate):
    """Each nested_chains call lists its first chain twice.  The virtual
    measure adds a repeated chain's weight again, as a sum over the list
    would, so that point's virtual weight is twice its ambient one; a
    measure that kept one weight per point would pass every case.  Of the
    `all` battery only pushforward fails: its p2 (2,1) and kstep p2
    (2,1,1) each fail 10 cases, every one naming the first chain."""
    original = combinatorics.nested_chains

    def first_twice(surface, sizes):
        chains = original(surface, sizes)
        return chains[:1] + chains

    mutate(combinatorics, "nested_chains", first_twice)
    assert failing_battery_kinds() == {"pushforward"}
    for kind, sizes, total in (("pushforward", [2, 1], 95), ("kstep", [2, 1, 1], 249)):
        first = original(SURFACES["p2"], tuple(sizes))[0]
        cases = run_scenario(scenario_from_entry({"kind": kind, "n": sizes}))["cases"]
        failing = [c["diagnostic"] for c in cases if c["verdict"] != "pass"]
        assert (len(failing), len(cases)) == (10, total)
        for diagnostic in failing:
            head, values = diagnostic.split(" at s=")
            assert head.endswith(f"virtual values differ; first differing point {first.to_text()}")
            ambient, virtual = values.split(": ambient ")[1].split(", virtual ")
            assert Fraction(virtual) == 2 * Fraction(ambient)


def test_inverted_chart_substitution_is_caught_by_hrr_check_and_pins(mutate):
    """u_k -> t^{w_k} in place of t^{-w_k}, the line-bundle weights left as
    they are.  Of the `all` battery only hrr-check fails, on every
    nontrivial bundle: it reads c(T) from the tangent character, whose
    weights are negated, against c1(L) from the fiber weights.  The golden
    characters, the twisted Carlsson-Okounkov rows and the closed form
    chi(S^[n], L^[n]) = chi(S, L) catch it too (p2 O(-4) reads
    1219261/194481 in place of 500/441)."""
    original = vertex._pair_term

    @lru_cache(maxsize=None)
    def inverted(chart, mu, lam1, lam2):
        (w1, w2) = chart
        return original(((-w1[0], -w1[1]), (-w2[0], -w2[1])), mu, lam1, lam2)

    mutate(vertex, "_pair_term", inverted)
    assert failing_battery_kinds() == {"hrr-check"}
    assert hrr_failures() == TWISTED_HRR_ROWS
    assert golden_mismatches()
    assert carlsson_okounkov_failures() == TWISTED_ROWS
    assert tautological_chi_failures() == TWISTED_CHI_ROWS
    assert (1, Fraction(1219261, 194481), Fraction(500, 441)) in tautological_chi_mismatches(
        SURFACES["p2"], (-4,)
    )


def test_kernel_reading_every_factor_at_factor_0_is_caught_by_fubini_and_pins(mutate):
    """`_localize` reading each factor's character at steps[0] in place of
    steps[m], applied as a measure whose points are (steps[0],) * k with
    the weights of points that collapse together added, which sums the
    same.  A blind spot of every scenario: `pushforward` and `kstep` put
    both of their equal measures through the same kernel, every `vanish`
    measure is empty, and `euler-count` and `hrr-check` have one factor.
    The Fubini rows (every one reads 0) and the pinned report digests see
    it."""
    original = integrals._localize

    def factor_0_only(surface, insertions, spec, measure):
        collapsed = {}
        for steps, weight in measure.items():
            key = (steps[0],) * len(steps)
            collapsed[key] = collapsed.get(key, 0) + weight
        return original(surface, insertions, spec, collapsed)

    mutate(integrals, "_localize", factor_0_only)
    assert [row[3] for row in fubini_mismatches()] == [0] * len(fubini_rows())
    assert failing_battery_kinds() == set()
    for kind, surface, sizes in (("pushforward", "p2", [3, 2]), ("pushforward", "p1xp1", [3, 3]),
                                 ("kstep", "p2", [2, 1, 1])):
        entry = {"kind": kind, "surface": surface, "n": sizes}
        assert run_scenario(scenario_from_entry(entry))["verdict"] == "pass"
    assert stable_report_digest(["all"]) != REPORT_DIGESTS["all", None]
    for surface in SURFACES:
        argv = ["pushforward", *SIZE_FLAGS["pushforward"], "--surface", surface]
        assert stable_report_digest(argv) != REPORT_DIGESTS["pushforward", surface]


def test_suffix_classes_one_factor_too_deep_are_caught_by_fubini_and_the_trie_oracle(mutate):
    """`_runs` cutting the classes of factor m where steps[m+1:] changes in
    place of steps[m:]: points that differ at factor m are merged before
    factor m's columns are read, so each column reads one point of a
    merged class.  Factor 0's classes are the points themselves, so
    `euler-count` and `hrr-check` do not see it, and it is a blind spot of
    every scenario for the reasons of the `steps[0]` row.  The Fubini rows
    (every one reads 0), the point-major trie oracle on both measures of
    each of its sizes, and the pinned report digests see it."""

    def one_too_deep(measure):
        points = sorted(measure, key=lambda steps: [mp.shape for mp in reversed(steps[1:])])
        starts = [list(range(len(points)))]
        merges = []
        for m in range(1, len(points[0])):
            below = starts[-1]
            starts.append([i for i, steps in enumerate(points)
                           if not i or steps[m + 1:] != points[i - 1][m + 1:]])
            if len(starts[m]) < len(below):
                place = {start: i for i, start in enumerate(below)}
                cuts = [place[start] for start in starts[m]] + [len(below)]
                merges.append(list(zip(cuts, cuts[1:])))
            else:
                merges.append(None)
        return points, starts, merges

    mutate(integrals, "_runs", one_too_deep)
    assert [row[3] for row in fubini_mismatches()] == [0] * len(fubini_rows())
    assert trie_oracle_mismatches() == [
        (surface.name, sizes, side) for surface, sizes in TRIE_ORACLE for side in ("ambient", "virtual")
    ]
    assert failing_battery_kinds() == set()
    for kind, surface, sizes in (("pushforward", "p2", [3, 2]), ("pushforward", "p1xp1", [3, 3]),
                                 ("kstep", "p2", [2, 1, 1])):
        entry = {"kind": kind, "surface": surface, "n": sizes}
        assert run_scenario(scenario_from_entry(entry))["verdict"] == "pass"
    assert stable_report_digest(["all"]) != REPORT_DIGESTS["all", None]
    for surface in SURFACES:
        argv = ["pushforward", *SIZE_FLAGS["pushforward"], "--surface", surface]
        assert stable_report_digest(argv) != REPORT_DIGESTS["pushforward", surface]


def test_last_sum_key_without_its_measure_is_caught_by_the_measure_reuse_oracle(mutate,
                                                                                monkeypatch):
    """`_sums` keyed by the surface and specs of its last call, without
    their measures: a call at the surface and specs of the last one returns
    its totals, whatever its measures.  A blind spot of every scenario:
    `pushforward` and `kstep` sum one integrand on both sides of their
    specs, whose measures are equal, and every other kind sums one side,
    so every report keeps its bytes.  The measure-reuse oracle fails on
    each measure that differs from the one before.  The virtual sums then
    copy the ambient ones, so they also hide every fault of the virtual
    side from the scenarios: under it the battery passes with a chain
    dropped, which fails `pushforward` and `kstep` alone."""

    def keyed_without_measures(surface, integrand, specs, measures):
        if integrand.key != (surface, specs):
            totals = [integrals._localize(surface, integrand, spec, measure)
                      for spec, measure in zip(specs, measures)]
            integrand.key, integrand.totals = (surface, specs), totals
        return [list(totals) for totals in integrand.totals]

    mutate(integrals, "_sums", keyed_without_measures)
    assert failing_battery_kinds() == set()
    assert stable_report_digest(["all"]) == REPORT_DIGESTS["all", None]
    for surface in SURFACES:
        argv = ["pushforward", *SIZE_FLAGS["pushforward"], "--surface", surface]
        assert stable_report_digest(argv) == REPORT_DIGESTS["pushforward", surface]
    assert measure_reuse_mismatches(monkeypatch) == {
        "first measure changed in place", "one weight differs", "one point less"
    }
    original = combinatorics.nested_chains
    mutate(combinatorics, "nested_chains", lambda surface, sizes: original(surface, sizes)[:-1])
    assert failing_battery_kinds() == set()


def test_series_band_one_degree_too_narrow_is_caught(mutate):
    """`line_factor` stopping each step one degree above its band (its
    exclusive stop at floor - k for floor - k - 1, k the steps after it):
    the lowest coefficient a windowed series reads misses a term.  A full
    series (floor 0) is unchanged, so only windowed reads see it:
    euler-count's c_2n(T), hrr-check's classes on every bundle, O too,
    and the pushforward sums.
    The battery's kstep (1,1,1) passes: it reads only c1 of rank-1
    characters, each now 0, so every integral is 0 on both sides at
    every spec; kstep (2,1,1) fails.  `vanish` reads no series, its
    measures being empty."""

    def narrow(coeffs, weight_value, multiplicity, degree, floor=0):
        if multiplicity < 0:
            raise ValueError(f"negative multiplicity {multiplicity}")
        order = len(coeffs) - 1
        for stop in range(floor - multiplicity + 1, floor + 1):
            if degree < order:
                degree += 1
            for k in range(degree, stop if stop > 0 else 0, -1):
                coeffs[k] += weight_value * coeffs[k - 1]
        return degree

    mutate(series, "line_factor", narrow)
    assert failing_battery_kinds() == {"euler-count", "pushforward", "hrr-check"}
    assert hrr_failures() == HRR_ROWS
    for entry, verdict in (
        ({"kind": "euler-count", "surface": "p2", "n": [3]}, "fail"),
        ({"kind": "kstep", "surface": "p2", "n": [2, 1, 1]}, "fail"),
        ({"kind": "vanish", "surface": "p2", "n": [3, 2], "i": [1, 2]}, "pass"),
    ):
        assert run_scenario(scenario_from_entry(entry))["verdict"] == verdict


def test_segre_index_off_by_one_is_caught_by_symbolic_tp(mutate):
    """q_*(zeta^k a) read as s_{k - r0}(E0) a: every higher-tp row fails
    but the one of degree -1, where both routes are 0."""

    def off_by_one(zeta_poly, e0):
        s = chern.segre(e0)
        out = e0.ring.zero()
        for k, alpha in zeta_poly.items():
            if k - e0.rank >= 0:
                out = out + s[k - e0.rank] * alpha
        return out

    mutate(chern, "proj_pushforward", off_by_one)
    assert failing_identities({"kind": "symbolic-tp"}) == higher_tp_rows(0)


def test_whitney_difference_times_c_e0_is_caught_by_symbolic_tp(mutate):
    """c(E1 - E0) read as c(E1) c(E0): every higher-tp row of positive
    degree fails; in degree 0 and -1 the two agree."""

    def times(a, b):
        return FormalBundle(a.ring, a.rank - b.rank, a.total_chern * b.total_chern,
                            f"{a.name}-{b.name}")

    mutate(chern, "whitney_difference", times)
    assert failing_identities({"kind": "symbolic-tp"}) == higher_tp_rows(1)


def test_hrr_chi_without_linear_term_is_caught_by_hrr_check(mutate):
    """chi(L) without its c1(L) c1(T)/2 term: every bundle but O fails
    `hrr-check`, whose K-theoretic cross-check does not read hrr_chi."""

    def no_linear_term(surface, bundle, specs):
        line, tangent = integrals.ChernFactor(0, bundle, 1), integrals.ChernFactor(0, None, 1)
        monomials = [(line, line), (tangent, tangent), (integrals.ChernFactor(0, None, 2),)]
        insertions = [integrals.Insertion(factors) for factors in monomials]
        sums = integrals.integrate_ambient_batch(surface, (1,), insertions, specs)
        return [l2 / 2 + (t2 + c2) / 12 for l2, t2, c2 in sums]

    mutate(integrals, "hrr_chi", no_linear_term)
    assert hrr_failures() == TWISTED_HRR_ROWS


def test_section_lattice_one_point_short_is_caught_by_the_character_check(mutate):
    """The H^0 character one lattice point short: every `hrr-check` row
    fails its exact identity N = H^0 * D with `character_check: fail`,
    while its integrals, which do not read the lattice, still equal chi."""
    original = harness.section_character

    def one_short(surface, degrees):
        return LaurentPoly(original(surface, degrees).terms()[:-1])

    mutate(harness, "section_character", one_short)
    reports = {name: hrr_report(name) for name in SURFACES}
    cases = [(name, case) for name, report in reports.items() for case in report["cases"]]
    assert {(name, case["inputs"]["bundle"]) for name, case in cases
            if case["verdict"] == "fail"} == HRR_ROWS
    assert {case["character_check"] for _, case in cases} == {"fail"}
    assert {case["diagnostic"] for _, case in cases} == {"hrr/localization mismatch"}
    assert all(sample["value"] == case["inputs"]["expected"]
               for _, case in cases for sample in case["samples"])


def test_twist_by_line_with_unshifted_binomial_is_caught_by_symbolic_tp(mutate):
    """c_k(F (x) M) with binom(rank, k - j) in place of binom(rank - j, k - j):
    the two agree for j = 0, and for j >= 1 also where both vanish, so the
    k = 1 rows and r = 1 with k > 2 pass and the ten others fail."""

    def unshifted(f, m, k):
        powers = [f.ring.one()]
        for _ in range(k):
            powers.append(powers[-1] * m)
        out = f.ring.zero()
        for j in range(k + 1):
            out = out + binomial(f.rank, k - j) * f.chern(j) * powers[k - j]
        return out

    mutate(chern, "twist_by_line", unshifted)
    expected = {(1, 2)} | {(r, k) for r in range(2, 5) for k in range(2, 5)}
    assert failing_identities({"kind": "symbolic-tp"}) == {
        f"twist r={r} k={k}" for r, k in expected
    }


def test_thom_porteous_with_c0_zero_is_caught_by_symbolic_tp(mutate):
    """Delta^a_b with c_0 read as 0: only Delta^a_0 has c_0 on its diagonal
    (Delta^1_b = c_b never reads it), so the four Delta^a_0 = 1 rows fail."""

    def c0_zero(a, b, c):
        def entry(i, j):
            k = b + j - i
            return c.total_chern.degree_part(k) if k > 0 else c.ring.zero()

        return chern._determinant([[entry(i, j) for j in range(a)] for i in range(a)], c.ring)

    mutate(chern, "thom_porteous", c0_zero)
    assert failing_identities({"kind": "symbolic-tp"}) == {
        f"Delta^{a}_0 = 1" for a in range(1, 5)
    }
